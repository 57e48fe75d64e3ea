"""Lower triangular n x n matrices over GF(p).

Only the lower triangle is stored (row-major, so entries appear in the
order (1,1), (2,1), (2,2), (3,1), ...).  Indices in the public API are
1-based throughout, matching the algebra this package implements; the zero
upper triangle is implicit.  The public constructor checks every entry;
the ring operations, whose results are reduced mod p by construction,
build them through ``_trusted`` instead.

The module also holds the package's one mod-p elimination kernel and the
computations built on it: matrix rank, the rank of the augmented matrix
[A|B] and a solver for linear systems.
"""

import operator

from .errors import DimensionMismatch, IndexOutOfRange, InvalidEntry, SingularMatrix
from .field import GF


def _tri_len(n):
    return n * (n + 1) // 2


def _pos(i, j):
    """Offset of 1-based (i, j), j <= i, inside the packed lower triangle."""
    return i * (i - 1) // 2 + (j - 1)


def _trusted(field, n, entries):
    """A LowerTriMatrix built without the public constructor's checks.

    For the ring operations only: ``entries`` must be a tuple of
    n(n+1)/2 residues already reduced into [0, p).
    """
    M = object.__new__(LowerTriMatrix)
    M.field = field
    M.n = n
    M.entries = entries
    return M


_PRODUCT_PLANS = {}


def _product_plan(n):
    """The packed identity of size n and the offsets the product walks.

    Row i of LR is the sum over k <= i of L_ik times row k of R, and row k
    of R occupies entries[k(k-1)/2 : k(k+1)/2].  The plan lists, per lower
    position (i, k) in packed order, its offset, the offset of (i, 1) and
    the bounds of row k; both parts are computed once per n.
    """
    plan = _PRODUCT_PLANS.get(n)
    if plan is None:
        one = tuple(int(i == j) for i in range(1, n + 1) for j in range(1, i + 1))
        steps = [(_pos(i, k), _pos(i, 1), _pos(k, 1), _pos(k, k) + 1)
                 for i in range(1, n + 1) for k in range(1, i + 1)]
        plan = _PRODUCT_PLANS[n] = (one, steps)
    return plan


def _accumulate(out, left, right, steps):
    """Add the product of the packed factors left and right into out, unreduced.

    The triangular product's loop.  Row i of LR is the sum over k <= i of
    L_ik times row k of R, so zero entries of L are skipped and sparse
    factors cost only their nonzero entries.
    """
    for t, row_i, start_k, stop_k in steps:
        c = left[t]
        if c:
            j = row_i
            for v in right[start_k:stop_k]:
                out[j] += c * v
                j += 1


_DIAGONAL_OFFSETS = {}
_IDENTITY = {}


def _diagonal_offsets(n):
    """Packed offsets of (1,1), ..., (n,n), computed once per n."""
    offsets = _DIAGONAL_OFFSETS.get(n)
    if offsets is None:
        offsets = _DIAGONAL_OFFSETS[n] = [_pos(i, i) for i in range(1, n + 1)]
    return offsets


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
        if min(entries) < 0 or max(entries) >= field.p:
            raise InvalidEntry(f"entries must lie in [0, {field.p}): {list(entries)}")
        self.field = field
        self.n = n
        self.entries = entries

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, n):
        if n < 1:
            raise DimensionMismatch(f"dimension {n} < 1")
        return _trusted(field, n, (0,) * _tri_len(n))

    @classmethod
    def identity(cls, field, n):
        key = (field.p, n)
        one = _IDENTITY.get(key)
        if one is None:
            one = _IDENTITY[key] = cls.diagonal(field, [1] * n)
        return one

    @classmethod
    def diagonal(cls, field, diag):
        n = len(diag)
        if n < 1:
            raise DimensionMismatch(f"dimension {n} < 1")
        entries = [0] * _tri_len(n)
        for i, d in enumerate(diag, start=1):
            entries[_pos(i, i)] = d % field.p
        return _trusted(field, n, tuple(entries))

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
        return self.entries[i * (i - 1) // 2 + j - 1]

    def diag(self):
        return tuple(map(self.entries.__getitem__, _diagonal_offsets(self.n)))

    def row(self, i):
        """Full row i as a list of n residues."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"row {i} outside [1,{self.n}]")
        start = _pos(i, 1)
        return [*self.entries[start:start + i], *(0,) * (self.n - i)]

    def rows(self):
        return [self.row(i) for i in range(1, self.n + 1)]

    def column(self, j):
        """Full column j as a list of n residues."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRange(f"column {j} outside [1,{self.n}]")
        e = self.entries
        return [0] * (j - 1) + [e[i * (i - 1) // 2 + j - 1] for i in range(j, self.n + 1)]

    def with_entry(self, i, j, value):
        """A copy with entry (i, j) replaced (j <= i required)."""
        if not (1 <= j <= i <= self.n):
            raise IndexOutOfRange(f"({i},{j}) is not a lower position")
        entries = list(self.entries)
        entries[_pos(i, j)] = value % self.field.p
        return _trusted(self.field, self.n, tuple(entries))

    def is_zero(self):
        return not any(self.entries)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, LowerTriMatrix):
            raise DimensionMismatch(f"expected LowerTriMatrix, got {type(other)}")
        if self.n != other.n or (self.field is not other.field
                                 and self.field != other.field):
            raise DimensionMismatch(
                f"incompatible operands: n={self.n},p={self.field.p} vs "
                f"n={other.n},p={other.field.p}"
            )

    def __add__(self, other):
        self._check_compatible(other)
        if not any(other.entries):
            return self
        p = self.field.p
        return _trusted(
            self.field, self.n,
            tuple([(a + b) % p for a, b in zip(self.entries, other.entries)]),
        )

    def __sub__(self, other):
        self._check_compatible(other)
        p = self.field.p
        return _trusted(
            self.field, self.n,
            tuple([(a - b) % p for a, b in zip(self.entries, other.entries)]),
        )

    def __neg__(self):
        p = self.field.p
        return _trusted(self.field, self.n, tuple([-a % p for a in self.entries]))

    def scale(self, c):
        p = self.field.p
        c %= p
        return _trusted(self.field, self.n, tuple([c * a % p for a in self.entries]))

    def __mul__(self, other):
        """Ring product; a zero or identity operand returns at once, and
        otherwise ``_accumulate`` builds it, reduced mod p once.
        """
        self._check_compatible(other)
        left = self.entries
        right = other.entries
        one, steps = _product_plan(self.n)
        if right == one or not any(left):
            return self
        if left == one or not any(right):
            return other
        out = [0] * len(left)
        _accumulate(out, left, right, steps)
        p = self.field.p
        return _trusted(self.field, self.n, tuple([v % p for v in out]))

    def is_unit(self):
        """Invertible in T_n iff every diagonal entry is nonzero."""
        e = self.entries
        return all(e[d] for d in _diagonal_offsets(self.n))

    def inverse(self):
        """Two-sided inverse by forward substitution; stays lower triangular.

        Column j of the inverse solves M x = e_j top to bottom: x_j is
        1/m_jj and x_i = -(m_ij x_j + ... + m_i(i-1) x_(i-1)) / m_ii, the
        m_ik being the slice of packed row i from column j to column i - 1.
        """
        if not self.is_unit():
            raise SingularMatrix("matrix has a zero diagonal entry")
        f = self.field
        n = self.n
        p = f.p
        e = self.entries
        starts = [i * (i + 1) // 2 for i in range(n)]  # packed offset of row i + 1
        inv_diag = [f.inv(e[start + i]) for i, start in enumerate(starts)]
        inv_entries = [0] * _tri_len(n)
        for j in range(n):
            column = [inv_diag[j]]  # entries j..i-1 of column j, 0-based
            inv_entries[starts[j] + j] = inv_diag[j]
            for i in range(j + 1, n):
                start = starts[i]
                acc = sum(map(operator.mul, e[start + j:start + i], column))
                x = (-acc * inv_diag[i]) % p
                inv_entries[start + j] = x
                column.append(x)
        return _trusted(f, n, tuple(inv_entries))

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
    rows = []
    for i in range(1, n + 1):
        start = _pos(i, 1)
        a = A.entries[start:start + i][::-1]
        b = B.entries[start:start + i][::-1]
        rows.append([0] * (2 * (n - i)) + [v for ab in zip(a, b) for v in ab])
    return matrix_rank(rows, A.field.p)
