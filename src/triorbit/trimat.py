"""Lower triangular n x n matrices over GF(p).

Only the lower triangle is stored (row-major, so entries appear in the
order (1,1), (2,1), (2,2), (3,1), ...).  Indices in the public API are
1-based throughout, matching the algebra this package implements; the zero
upper triangle is implicit.  The public builders check every value they
are handed (``_check_integers``: exactly ``int``, else InvalidEntry); the
ring operations, whose results are reduced mod p by construction, build
through ``_trusted`` instead.

The module also holds the packed kernels that the reduction builds on:
the product's accumulation (``_accumulate``), the row moves
(``_row_moves``), and the row pass over [A|B] (``_row_pass``) that finds
a pair's jump map, and with it the augmented rank, and records the moves
that take the pair to its canonical form.
"""

import functools
import operator

from .errors import DimensionMismatch, IndexOutOfRange, InvalidEntry, SingularMatrix
from .field import GF


def _tri_len(n):
    return n * (n + 1) // 2


def _pos(i, j):
    """Offset of 1-based (i, j), j <= i, inside the packed lower triangle."""
    return i * (i - 1) // 2 + (j - 1)


def _check_integers(values):
    """Raise InvalidEntry unless every value is exactly an ``int``.

    The package's one rule for a value handed to a public matrix builder:
    floats (2.0 included), strings, Fractions and bools are refused, as
    the structured pair form refuses them (``modpairs._json_int``).
    """
    for v in values:
        if type(v) is not int:
            raise InvalidEntry(f"matrix entry {v!r} is not an integer")


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


@functools.cache
def _product_plan(n):
    """The packed identity of size n and the offsets the product walks.

    Row i of LR is the sum over k <= i of L_ik times row k of R, and row k
    of R occupies entries[k(k-1)/2 : k(k+1)/2].  The plan lists, per lower
    position (i, k) in packed order, its offset, the offset of (i, 1) and
    the bounds of row k; both parts are computed once per n.
    """
    one = tuple(int(i == j) for i in range(1, n + 1) for j in range(1, i + 1))
    steps = [(_pos(i, k), _pos(i, 1), _pos(k, 1), _pos(k, k) + 1)
             for i in range(1, n + 1) for k in range(1, i + 1)]
    return one, steps


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


def _row_moves(e, moves, p):
    """Packed entries of M after the row moves (i, j, t), 0-based i >= j, in order.

    A move is row i += t * row j, which for i = j scales row i by 1 + t.
    Row j vanishes right of column j, so only its entries 0..j are read,
    each before it is written, and zero ones are skipped.
    """
    out = list(e)
    for i, j, t in moves:
        ri, rj = i * (i + 1) // 2, j * (j + 1) // 2
        for c in range(j + 1):
            v = out[rj + c]
            if v:
                out[ri + c] = (out[ri + c] + t * v) % p
    return tuple(out)


@functools.cache
def _diagonal_offsets(n):
    """Packed offsets of (1,1), ..., (n,n), computed once per n."""
    return [_pos(i, i) for i in range(1, n + 1)]


# The package's caches keyed by (p, n), this one, ``GL2Element.identity``'s
# and ``canonical._closed_form_plan``'s, stay dicts keyed on field.p:
# functools.cache would hash the GF argument through its Python-level
# __hash__, which about doubles the cost of a call.
_IDENTITY = {}


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
        _check_integers(entries)
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
        _check_integers(diag)
        entries = [0] * _tri_len(n)
        for i, d in enumerate(diag, start=1):
            entries[_pos(i, i)] = d % field.p
        return _trusted(field, n, tuple(entries))

    @classmethod
    def single(cls, field, n, i, j, value=1):
        """The matrix value * e_ij (1-based, j <= i)."""
        if not (1 <= j <= i <= n):
            raise IndexOutOfRange(f"({i},{j}) is not a lower position of n={n}")
        _check_integers((value,))
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
            _check_integers(row)
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
        _check_integers((value,))
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
        _check_integers((c,))
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


def _decimal(token):
    """The value of a token of ASCII decimal digits; ValueError naming any other.

    ``int`` also reads signs, surrounding whitespace, digit-group
    underscores and non-ASCII digits: "1_0" would read 10, and "\u0663", the
    Arabic-Indic digit three, 3.  The text pair form and the partition
    form read their integers here.
    """
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"{token!r} is not a decimal integer")
    return int(token)


def parse_matrix(field, lines):
    """Parse the n-line text form; rejects nonzero entries above the diagonal."""
    rows = []
    for line in lines:
        parts = line.split()
        row = []
        for part in parts:
            v = _decimal(part)
            if not (0 <= v < field.p):
                raise ValueError(f"entry {v} is not a canonical residue mod {field.p}")
            row.append(v)
        rows.append(row)
    return LowerTriMatrix.from_rows(field, rows)


@functools.cache
def _row_pass_plan(n):
    """The layout of the row pass over [A|B] at size n, computed once per n.

    One getter per row i of [A|B] gathers it interleaved, (a_i1, b_i1,
    ..., a_ii, b_ii), from A's packed entries followed by B's; the 2n
    rows of the 2n x 2n identity start the right factor; and one getter
    takes X, Y, W and Z, each packed, one after another, from the factor's
    rows laid end to end.  Row 2r (2r + 1) of the factor holds row r of X
    and Y (W and Z), interleaved.  Each getter takes at least two
    entries, so it returns a tuple also at n = 1.
    """
    m = _tri_len(n)
    rows = []
    for i in range(n):
        start = _tri_len(i)
        rows.append(operator.itemgetter(
            *(k + h for k in range(start, start + i + 1) for h in (0, m))))
    one = tuple(tuple(int(c == r) for c in range(2 * n)) for r in range(2 * n))
    blocks = operator.itemgetter(
        *((2 * r + h) * 2 * n + s + 2 * c
          for h in (0, 1) for s in (0, 1) for r in range(n) for c in range(r + 1)))
    return rows, one, blocks


def _row_pass(A, B, record=False):
    """One row pass over [A|B]: the jump map, and on request the moves that reduce the pair.

    Rows i = 1..n are taken in order, each earlier row r being 0 or the
    unit vector at its pivot P_r, in distinct columns.  A cell (x, y; w,
    z) at pair k is the diagonal entry of the blocks X, Y, W, Z of a group
    element: it sends columns (a_k, b_k) to (x a_k + w b_k, y a_k + z b_k).
    1. Row moves: for each earlier pivot P_r, row i -= (its entry at P_r)
       row r, which zeroes exactly that entry.
    2. If row i is now 0, it records 0 and takes no pivot; no later move
       changes a zero row.  Otherwise it records the largest pair k where
       it is nonzero, with entries (x, y) there.
    3. One cell at pair k sets P_i to 1 and the pair's other entry to 0:
       - k = i: P_i = a_k, by (1/x, -y/x; 0, 1), or (0, -1; 1/y, 0) when
         x = 0.
       - Otherwise P_i = b_k, by (1, 0; -x/y, 1/y), or (0, 1/x; 1, 0) when
         y = 0.  Where row k pivots at a_k, step 1 made x = 0, and the cell
         diag(1, 1/y) leaves a_k alone.
       Each cell has a nonzero determinant.  Multiples of the pivot column
       then clear the row in the pairs c < k, which the group allows as k >
       c.  The earlier rows are 0 in the pivot column and in each column the
       cell changes, so they stay as they are, with one exception: a third
       row in pair k, where an earlier row q pivots at b_k.  There step 1
       made y = 0, so x != 0 and a_k is no pivot, and the swap (0, 1/x; 1,
       0) moves P_q from b_k to a_k, within its pair.
    The pass ends with every row 0 or the unit vector at its pivot, in the
    pair it recorded, which is the jump map (proof in ``canonical.jump_map``):
    the last row other than c recording c pivots at b_c, every other row
    recording c at a_c.

    Column moves act on rows one by one and leave the earlier pivots'
    entries alone, so each row runs those of the earlier rows when it is
    reached, each followed by that row's row move.  Run so, the cell and
    clearing of row r are one column step at the entry e that the cell
    carries to P_r: column e is scaled by 1/(row r at e), and multiples of
    it leave the other columns; the two cells given for x = 0 and y = 0
    then swap the pair, the first negating the new b_k.

    Returns (jumps, None, None): the jump map, 0 for a row the row moves
    make zero.  With ``record``, the Nones are the row moves (i, r, t),
    0-based, row i += t row r, in order, and the right factor, the product
    of the cells and column moves, as packed X, Y, W, Z; its rows start as
    the identity's and run every column step after the pair's rows.  The
    moves take a free pair with a canonical jump map to its canonical pair.

    The layout is the per-n plan of ``_row_pass_plan``: each row of [A|B]
    is gathered interleaved by one getter, the factor's rows are copied
    from the identity's, and X, Y, W and Z are cut from the finished
    factor by one getter.
    """
    A._check_compatible(B)
    n, p = A.n, A.field.p
    rows, one, blocks = _row_pass_plan(n)
    entries = A.entries + B.entries
    # Per pivot row: (row, e, 1 / (row at e), the row, swap), the row being 0
    # beyond its pair k; swap is 0, 1 for a plain swap of pair k, or p - 1 for a
    # negating one.
    steps, jumps, row_moves = [], [], []
    for i, gather in enumerate(rows):
        # Row i as (a_i1, b_i1, ..., a_ii, b_ii), 0-based: pair k at 2k, 2k + 1.
        w = list(gather(entries))
        # Each column step, then the row move that zeroes the entry at e.
        for r, e, inv, v, swap in steps:
            t = w[e]
            if t:
                t = t * inv % p
                w[:len(v)] = [(x - t * y) % p for x, y in zip(w, v)]
                if record:
                    row_moves.append((i, r, p - t))
            if swap:
                w[e & ~1], w[e | 1] = w[e | 1], w[e & ~1] * swap % p
        c = 2 * i
        while c >= 0 and not (w[c] or w[c + 1]):
            c -= 2
        jumps.append(c // 2 + 1)  # c = -2, and so 0, for a zero row
        if c < 0:
            continue
        if c == 2 * i:
            e, swap = (c, 0) if w[c] else (c + 1, p - 1)
        else:
            e, swap = (c + 1, 0) if w[c + 1] else (c, 1)
        steps.append((i, e, pow(w[e], p - 2, p), w, swap))
    if not record:
        return tuple(jumps), None, None
    # The factor's rows take every column step, keeping the scaled entry at e.
    factor = []
    for w in map(list, one):
        for r, e, inv, v, swap in steps:
            t = w[e]
            if t:
                t = t * inv % p
                w[:len(v)] = [(x - t * y) % p for x, y in zip(w, v)]
                w[e] = t
            if swap:
                w[e & ~1], w[e | 1] = w[e | 1], w[e & ~1] * swap % p
        factor += w
    m = _tri_len(n)
    packed = blocks(factor)
    return tuple(jumps), row_moves, (packed[:m], packed[m:2 * m], packed[2 * m:3 * m],
                                     packed[3 * m:])


def augmented_rank(A: LowerTriMatrix, B: LowerTriMatrix) -> int:
    """Rank of the n x 2n matrix [A|B]: the rows that the row pass leaves nonzero.

    The moves of ``_row_pass`` are invertible, and it ends on rows that are
    0 or distinct unit vectors, so the rank counts its nonzero values.
    """
    jumps = _row_pass(A, B)[0]
    return len(jumps) - jumps.count(0)
