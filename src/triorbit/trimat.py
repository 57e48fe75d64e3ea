"""Lower triangular n x n matrices over GF(p).

Only the lower triangle is stored (row-major, so entries appear in the
order (1,1), (2,1), (2,2), (3,1), ...).  Indices in the public API are
1-based throughout, matching the algebra this package implements; the zero
upper triangle is implicit.

The module also holds the package's one mod-p elimination kernel and the
rank computations built on it: the rank of the augmented matrix [A|B],
ranks of leading principal submatrices and of truncated copies.
"""

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix
from .field import GF


def _tri_len(n):
    return n * (n + 1) // 2


def _pos(i, j):
    """Offset of 1-based (i, j), j <= i, inside the packed lower triangle."""
    return i * (i - 1) // 2 + (j - 1)


class LowerTriMatrix:
    """An element of T_n(GF(p)), immutable after construction."""

    __slots__ = ("field", "n", "entries")

    def __init__(self, field: GF, n: int, entries):
        entries = tuple(entries)
        if n < 1:
            raise DimensionMismatch(f"dimension {n} < 1")
        if len(entries) != _tri_len(n):
            raise DimensionMismatch(
                f"expected {_tri_len(n)} packed entries for n={n}, got {len(entries)}"
            )
        assert all(0 <= e < field.p for e in entries)
        self.field = field
        self.n = n
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, n):
        return cls(field, n, (0,) * _tri_len(n))

    @classmethod
    def identity(cls, field, n):
        return cls.diagonal(field, [1] * n)

    @classmethod
    def diagonal(cls, field, diag):
        n = len(diag)
        entries = [0] * _tri_len(n)
        for i, d in enumerate(diag, start=1):
            entries[_pos(i, i)] = d % field.p
        return cls(field, n, entries)

    @classmethod
    def single(cls, field, n, i, j, value=1):
        """The matrix value * e_ij (1-based, j <= i)."""
        if not (1 <= j <= i <= n):
            raise IndexOutOfRange(f"({i},{j}) is not a lower position of n={n}")
        entries = [0] * _tri_len(n)
        entries[_pos(i, j)] = value % field.p
        return cls(field, n, entries)

    @classmethod
    def from_rows(cls, field, rows):
        """Build from full n x n rows; entries above the diagonal must be 0."""
        n = len(rows)
        entries = []
        for i, row in enumerate(rows, start=1):
            if len(row) != n:
                raise DimensionMismatch(f"row {i} has {len(row)} entries, expected {n}")
            for j, v in enumerate(row, start=1):
                if j > i:
                    if v % field.p != 0:
                        raise DimensionMismatch(
                            f"entry ({i},{j}) above the diagonal is nonzero"
                        )
                else:
                    entries.append(v % field.p)
        return cls(field, n, entries)

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        """Entry at 1-based (i, j); zero above the diagonal."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRange(f"({i},{j}) outside [1,{self.n}]^2")
        if j > i:
            return 0
        return self.entries[_pos(i, j)]

    def diag(self):
        return tuple(self.entries[_pos(i, i)] for i in range(1, self.n + 1))

    def row(self, i):
        """Full row i as a list of n residues."""
        return [self.entry(i, j) for j in range(1, self.n + 1)]

    def rows(self):
        return [self.row(i) for i in range(1, self.n + 1)]

    def with_entry(self, i, j, value):
        """A copy with entry (i, j) replaced (j <= i required)."""
        if not (1 <= j <= i <= self.n):
            raise IndexOutOfRange(f"({i},{j}) is not a lower position")
        entries = list(self.entries)
        entries[_pos(i, j)] = value % self.field.p
        return LowerTriMatrix(self.field, self.n, entries)

    def is_zero(self):
        return not any(self.entries)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, LowerTriMatrix):
            raise DimensionMismatch(f"expected LowerTriMatrix, got {type(other)}")
        if self.n != other.n or self.field != other.field:
            raise DimensionMismatch(
                f"incompatible operands: n={self.n},p={self.field.p} vs "
                f"n={other.n},p={other.field.p}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        p = self.field.p
        return LowerTriMatrix(
            self.field, self.n,
            tuple((a + b) % p for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other):
        self._check_compatible(other)
        p = self.field.p
        return LowerTriMatrix(
            self.field, self.n,
            tuple((a - b) % p for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self):
        p = self.field.p
        return LowerTriMatrix(self.field, self.n, tuple(-a % p for a in self.entries))

    def scale(self, c):
        p = self.field.p
        c %= p
        return LowerTriMatrix(self.field, self.n, tuple(c * a % p for a in self.entries))

    def __mul__(self, other):
        """Ring product; (LR)_ij = sum over j <= k <= i of L_ik R_kj."""
        self._check_compatible(other)
        p = self.field.p
        left = self.entries
        right = other.entries
        out = []
        for i in range(1, self.n + 1):
            ibase = i * (i - 1) // 2 - 1
            for j in range(1, i + 1):
                acc = 0
                for k in range(j, i + 1):
                    acc += left[ibase + k] * right[k * (k - 1) // 2 + j - 1]
                out.append(acc % p)
        return LowerTriMatrix(self.field, self.n, out)

    def is_unit(self):
        """Invertible in T_n iff every diagonal entry is nonzero."""
        return all(self.entries[_pos(i, i)] for i in range(1, self.n + 1))

    def inverse(self):
        """Two-sided inverse by forward substitution; stays lower triangular."""
        if not self.is_unit():
            raise SingularMatrix("matrix has a zero diagonal entry")
        f = self.field
        n = self.n
        inv_entries = [0] * _tri_len(n)
        inv_diag = [f.inv(self.entries[_pos(i, i)]) for i in range(1, n + 1)]
        for j in range(1, n + 1):
            # Solve M x = e_j for column j, top to bottom.
            inv_entries[_pos(j, j)] = inv_diag[j - 1]
            for i in range(j + 1, n + 1):
                acc = 0
                for k in range(j, i):
                    acc += self.entries[_pos(i, k)] * inv_entries[_pos(k, j)]
                inv_entries[_pos(i, j)] = (-acc * inv_diag[i - 1]) % f.p
        return LowerTriMatrix(f, n, inv_entries)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LowerTriMatrix)
            and self.n == other.n
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.field.p, self.entries))

    def __lt__(self, other):
        self._check_compatible(other)
        return self.entries < other.entries

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return "\n".join(" ".join(str(v) for v in row) for row in self.rows())

    def __repr__(self):
        return f"LowerTriMatrix(GF({self.field.p}), n={self.n}, {list(self.entries)})"


def parse_matrix(field, lines):
    """Parse the n-line text form; rejects nonzero entries above the diagonal."""
    rows = []
    for line in lines:
        parts = line.split()
        row = []
        for part in parts:
            v = int(part)
            if not (0 <= v < field.p):
                raise ValueError(f"entry {v} is not a canonical residue mod {field.p}")
            row.append(v)
        rows.append(row)
    return LowerTriMatrix.from_rows(field, rows)


# -- the elimination kernel --------------------------------------------------


def _echelon_insert(basis, row, p):
    """Reduce ``row`` (residues mod p) against ``basis``; keep it if independent.

    ``basis`` maps a lead, the index of the first nonzero entry, to a row
    that is 1 there and 0 before it.  An independent row is stored
    normalized under its new lead, which is returned; a dependent row
    returns None.  This is the package's one mod-p elimination; it runs
    per row of every generator move in the oracle's decomposition, hence
    the inline lead search.  Callers outside the package use matrix_rank
    and solve_mod_p.
    """
    while True:
        lead = None
        for k, v in enumerate(row):
            if v:
                lead = k
                break
        if lead is None:
            return None
        known = basis.get(lead)
        if known is None:
            c = row[lead]
            if c != 1:
                c = pow(c, p - 2, p)
                row = [v * c % p for v in row]
            basis[lead] = row
            return lead
        factor = row[lead]
        row = [(x - factor * y) % p for x, y in zip(row, known)]


def matrix_rank(rows, p):
    """Rank of a dense matrix (list of row lists) mod p: its independent rows."""
    basis = {}
    return sum(_echelon_insert(basis, [v % p for v in row], p) is not None
               for row in rows)


def solve_mod_p(rows, width, p):
    """Solve M X = R mod p for a square M given as rows [M | R]; None if singular.

    M is invertible exactly when each row is independent with its lead
    among the first ``width`` columns; back-substitution from the last
    lead then gives the unique X, as a list of rows.
    """
    basis = {}
    for row in rows:
        lead = _echelon_insert(basis, [v % p for v in row], p)
        if lead is None or lead >= width:
            return None
    solution = [None] * width
    for lead in range(width - 1, -1, -1):
        row = basis[lead]
        x = row[width:]
        for k in range(lead + 1, width):
            c = row[k]
            if c:
                x = [(a - c * b) % p for a, b in zip(x, solution[k])]
        solution[lead] = x
    return solution


def augmented_rank(A: LowerTriMatrix, B: LowerTriMatrix) -> int:
    """Rank of the n x 2n matrix [A|B].

    The columns are taken in the order a_n, b_n, a_(n-1), ..., a_1, b_1, so
    row i leads at its diagonal and a unimodular pair meets no reduction.
    """
    A._check_compatible(B)
    n = A.n
    rows = [[M.entry(i, j) for j in range(n, 0, -1) for M in (A, B)]
            for i in range(1, n + 1)]
    return matrix_rank(rows, A.field.p)


def leading_rank(A: LowerTriMatrix, k: int) -> int:
    """Rank of the leading principal k x k submatrix of A."""
    if not (1 <= k <= A.n):
        raise IndexOutOfRange(f"k={k} outside [1,{A.n}]")
    rows = [[A.entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
    return matrix_rank(rows, A.field.p)


def truncated_b_rank(B: LowerTriMatrix, i: int, j: int) -> int:
    """Rank of B with rows >= i and columns >= j zeroed out."""
    if not (1 <= i <= B.n and 1 <= j <= B.n):
        raise IndexOutOfRange(f"({i},{j}) outside [1,{B.n}]^2")
    rows = [
        [B.entry(r, c) if r < i and c < j else 0 for c in range(1, B.n + 1)]
        for r in range(1, B.n + 1)
    ]
    return matrix_rank(rows, B.field.p)
