"""The group GL2(T_n) of invertible 2x2 block matrices over T_n.

A block matrix [X Y; W Z] with lower triangular blocks is invertible
exactly when x_ii z_ii - y_ii w_ii is nonzero for every index i.  The group
acts on pairs from the right; units of T_n act from the left.  An element
g acts as column moves: (A, B) g = (A, B) + (A, B)(g - I), and each nonzero
entry of g - I adds a multiple of one column of A or B into one column of
the result.  One kernel, ``_act``, runs these moves for the action and for
the group product, so an elementary generator costs one column, not four
triangular products.  Two finite generating sets are kept:
``gl2_generators``, the elementary moves of the canonicalizer's word
search, and the much smaller ``orbit_generators`` that the oracle's orbit
decomposition multiplies every submodule by.
"""

from .errors import DimensionMismatch, NotAUnit, NotInvertible
from .modpairs import ModulePair
from .trimat import LowerTriMatrix, _diagonal_offsets, _pos, _trusted


def gl2_is_invertible(X, Y, W, Z) -> bool:
    """Per-index 2x2 determinant test on the diagonals."""
    if not (X.n == Y.n == W.n == Z.n
            and (X.field is Y.field is W.field is Z.field
                 or X.field == Y.field == W.field == Z.field)):
        raise DimensionMismatch("blocks must share dimension and field")
    p = X.field.p
    x, y, w, z = X.entries, Y.entries, W.entries, Z.entries
    for d in _diagonal_offsets(X.n):
        if (x[d] * z[d] - y[d] * w[d]) % p == 0:
            return False
    return True


_MOVE_CELLS = {}
_IDENTITY = {}


def _move_cells(n):
    """Per packed position (k, c) of a block, the rows and shift of its move.

    Entry (k, c), k >= c, moves column k of a source into column c of a
    target.  Column k occupies the packed offsets of (r, k) for r >= k, and
    (r, c) lies k - c places before (r, k).  Computed once per n.
    """
    cells = _MOVE_CELLS.get(n)
    if cells is None:
        cells = _MOVE_CELLS[n] = [
            (tuple(_pos(r, k) for r in range(k, n + 1)), k - c)
            for k in range(1, n + 1) for c in range(1, k + 1)]
    return cells


def _act(a, b, moves, p):
    """Packed entries of (A, B) g, given those of A and B and g's column moves.

    Proof.  (A, B) g = (A, B) + (A, B)(g - I).  An entry v at (k, c) of a
    block of g - I adds v times column k of its source (A for the X and Y
    blocks, B for W and Z) into column c of its target (the A' part for X
    and W, the B' part for Y and Z).  Rows r < k of column k are zero in a
    lower triangular source, so only rows r >= k are visited, and c <= k
    keeps the result lower triangular.  Every move reads the unmodified
    input, and each target is reduced mod p once; a target that no move
    reaches is returned as it is.
    """
    sources = (a, b)
    result = []
    for base, block_moves in zip(sources, moves):
        if block_moves:
            out = list(base)
            for s, v, rows, shift in block_moves:
                src = sources[s]
                for r in rows:
                    out[r - shift] += v * src[r]
            base = tuple([x % p for x in out])
        result.append(base)
    return result


class GL2Element:
    """The block matrix [X Y; W Z]; the invertibility test runs at construction.

    ``_moves`` caches the element's column moves, built on first use; the
    element is immutable, so the cache cannot go stale, and equality and
    hashing ignore it.
    """

    __slots__ = ("X", "Y", "W", "Z", "_moves")

    def __init__(self, X, Y, W, Z):
        if not gl2_is_invertible(X, Y, W, Z):
            raise NotInvertible("x_ii z_ii - y_ii w_ii = 0 at some index")
        self.X = X
        self.Y = Y
        self.W = W
        self.Z = Z
        self._moves = None

    @classmethod
    def _trusted(cls, X, Y, W, Z):
        """[X Y; W Z] without the invertibility test; the caller vouches for it."""
        g = object.__new__(cls)
        g.X = X
        g.Y = Y
        g.W = W
        g.Z = Z
        g._moves = None
        return g

    def _column_moves(self):
        """The nonzero entries of g - I as the moves ``_act`` runs.

        A pair (moves into A', moves into B'); each move is (source, v,
        rows, shift) with source 0 for A and 1 for B, and rows and shift
        from ``_move_cells``.  The diagonal blocks give X - I and Z - I, the
        others W and Y as they are; v = x - 1 is left unreduced, as ``_act``
        reduces once.
        """
        moves = self._moves
        if moves is None:
            cells = _move_cells(self.n)
            one = LowerTriMatrix.identity(self.field, self.n).entries
            to_a = [(0, x - d, *cell)
                    for x, d, cell in zip(self.X.entries, one, cells) if x != d]
            to_a += [(1, w, *cell) for w, cell in zip(self.W.entries, cells) if w]
            to_b = [(0, y, *cell) for y, cell in zip(self.Y.entries, cells) if y]
            to_b += [(1, z - d, *cell)
                     for z, d, cell in zip(self.Z.entries, one, cells) if z != d]
            moves = self._moves = (to_a, to_b)
        return moves

    @property
    def n(self):
        return self.X.n

    @property
    def field(self):
        return self.X.field

    @classmethod
    def identity(cls, field, n):
        """[I 0; 0 I], built once per (p, n); elements are immutable, so it is shared."""
        key = (field.p, n)
        one = _IDENTITY.get(key)
        if one is None:
            unit = LowerTriMatrix.identity(field, n)
            zero = LowerTriMatrix.zero(field, n)
            one = _IDENTITY[key] = cls(unit, zero, zero, unit)
        return one

    @classmethod
    def swap(cls, field, n):
        one = LowerTriMatrix.identity(field, n)
        zero = LowerTriMatrix.zero(field, n)
        return cls(zero, one, one, zero)

    @classmethod
    def block_diag(cls, U, V):
        """[U 0; 0 V]."""
        zero = LowerTriMatrix.zero(U.field, U.n)
        return cls(U, zero, zero, V)

    @classmethod
    def upper(cls, Y):
        """[I Y; 0 I]."""
        one = LowerTriMatrix.identity(Y.field, Y.n)
        zero = LowerTriMatrix.zero(Y.field, Y.n)
        return cls(one, Y, zero, one)

    @classmethod
    def lower(cls, W):
        """[I 0; W I]."""
        one = LowerTriMatrix.identity(W.field, W.n)
        zero = LowerTriMatrix.zero(W.field, W.n)
        return cls(one, zero, W, one)

    def __mul__(self, other):
        """Block product g h, without re-testing invertibility.

        Row (X, Y) of g h is (X, Y) h, and row (W, Z) is (W, Z) h, so both
        rows run ``_act`` with the column moves of h.

        Both factors are invertible with lower triangular blocks, so the
        product has lower triangular blocks and the inverse h^-1 g^-1: it
        lies in the group, and the constructor's test could only pass.  An
        identity operand returns the other at once, as in
        ``LowerTriMatrix.__mul__``; h is the identity exactly when it has
        no column moves.
        """
        if not isinstance(other, GL2Element):
            return NotImplemented
        self.X._check_compatible(other.X)
        f, n, p = self.field, self.n, self.field.p
        moves = other._column_moves()
        if not any(moves):
            return self
        one = LowerTriMatrix.identity(f, n).entries
        if (self.X.entries == one and self.Z.entries == one
                and not any(self.Y.entries) and not any(self.W.entries)):
            return other
        x, y = _act(self.X.entries, self.Y.entries, moves, p)
        w, z = _act(self.W.entries, self.Z.entries, moves, p)
        return GL2Element._trusted(
            _trusted(f, n, x), _trusted(f, n, y), _trusted(f, n, w), _trusted(f, n, z))

    def inverse(self):
        """Invert by forward substitution over the 2x2 diagonal cells.

        Cell (i, k) of the block matrix is G_ik = [x_ik y_ik; w_ik z_ik].
        The blocks are lower triangular, so G_ik = 0 for k > i, and the
        membership test makes every G_ii invertible.  Solving G H = I cell
        by cell then gives a lower triangular H in the same cells,
        H_ij = G_ii^-1 (delta_ij I - sum over j <= k < i of G_ik H_kj), whose
        diagonal cells G_ii^-1 are invertible, so it lies in the group.
        """
        n, f, p = self.n, self.field, self.field.p
        x, y, w, z = self.X.entries, self.Y.entries, self.W.entries, self.Z.entries
        hx, hy, hw, hz = ([0] * len(x) for _ in range(4))
        for i in range(1, n + 1):
            row = i * (i - 1) // 2  # packed offset of (i, 1)
            ii = row + i - 1
            inv_det = f.inv(x[ii] * z[ii] - y[ii] * w[ii])
            # G_ii^-1 = [a b; c d] = det^-1 [z -y; -w x]
            a, b, c, d = (v * inv_det for v in (z[ii], -y[ii], -w[ii], x[ii]))
            for j in range(1, i + 1):
                s11 = s22 = int(i == j)
                s12 = s21 = 0
                for k in range(j, i):
                    g, h = row + k - 1, k * (k - 1) // 2 + j - 1
                    s11 -= x[g] * hx[h] + y[g] * hw[h]
                    s12 -= x[g] * hy[h] + y[g] * hz[h]
                    s21 -= w[g] * hx[h] + z[g] * hw[h]
                    s22 -= w[g] * hy[h] + z[g] * hz[h]
                t = row + j - 1
                hx[t], hy[t] = (a * s11 + b * s21) % p, (a * s12 + b * s22) % p
                hw[t], hz[t] = (c * s11 + d * s21) % p, (c * s12 + d * s22) % p
        return GL2Element._trusted(*(_trusted(f, n, tuple(v)) for v in (hx, hy, hw, hz)))

    def __eq__(self, other):
        return (
            isinstance(other, GL2Element)
            and self.X == other.X and self.Y == other.Y
            and self.W == other.W and self.Z == other.Z
        )

    def __hash__(self):
        return hash((self.X, self.Y, self.W, self.Z))

    def __repr__(self):
        return (f"GL2Element(X={list(self.X.entries)}, Y={list(self.Y.entries)}, "
                f"W={list(self.W.entries)}, Z={list(self.Z.entries)}, p={self.field.p})")


def act_right(pair: ModulePair, g: GL2Element) -> ModulePair:
    """(A, B) [X Y; W Z] = (AX + BW, AY + BZ), run as g's column moves by ``_act``."""
    A, B = pair.A, pair.B
    f, n = A.field, A.n
    if n != g.X.n or (f is not g.X.field and f != g.X.field):
        raise DimensionMismatch("pair and group element must match")
    a, b = _act(A.entries, B.entries, g._column_moves(), f.p)
    return ModulePair(_trusted(f, n, a), _trusted(f, n, b))


def act_left_unit(u: LowerTriMatrix, pair: ModulePair) -> ModulePair:
    """(A, B) -> (UA, UB); generates the same cyclic submodule."""
    if not u.is_unit():
        raise NotAUnit("left action requires a unit of T_n")
    return ModulePair(u * pair.A, u * pair.B)


def unit_generators(field, n):
    """Elementary generators of T_n^*: diagonal scalings and transvections."""
    gens = []
    one = LowerTriMatrix.identity(field, n)
    for i in range(1, n + 1):
        for lam in field.nonzero():
            if lam == 1:
                continue  # d_i(1) is the identity
            gens.append(one.with_entry(i, i, lam))
    for i in range(2, n + 1):
        for j in range(1, i):
            for lam in field.nonzero():
                gens.append(one.with_entry(i, j, lam))
    return gens


def gl2_generators(field, n):
    """Elementary generating set used by the canonicalizer's word search.

    Unit embeddings on either diagonal block, single-entry transvection
    blocks on either off-diagonal, and the swap.
    """
    gens = []
    seen = set()

    def push(g):
        if g not in seen:
            seen.add(g)
            gens.append(g)

    one = LowerTriMatrix.identity(field, n)
    for u in unit_generators(field, n):
        push(GL2Element.block_diag(u, one))
        push(GL2Element.block_diag(one, u))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for lam in field.nonzero():
                E = LowerTriMatrix.single(field, n, i, j, lam)
                push(GL2Element.upper(E))
                push(GL2Element.lower(E))
    push(GL2Element.swap(field, n))
    return gens


def _primitive_root(p):
    """The least generator of the cyclic group GF(p)^*."""
    order = p - 1
    primes = []
    m, q = order, 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        primes.append(m)
    g = 1
    while True:
        g += 1
        if all(pow(g, order // q, p) != 1 for q in primes):
            return g


def orbit_generators(field, n):
    """A small generating set of GL2(T_n): 2n elements at p = 2, 3n above.

    The swap, upper(e_ii) for every i, block_diag(t_(i+1,i)(1), I) for
    i < n, and at p > 2 block_diag(d_i(g), I) for a primitive root g.

    Proof.  The diagonal cells give a surjection of GL2(T_n) onto
    GL2(F_p)^n; its kernel U is the unipotent radical and the elements
    with diagonal blocks form a complement, the Levi factor.  Conjugating
    by the swap turns upper(e_ii) into lower(e_ii), and the two
    transvections generate SL2(F_p) in coordinate i; diag(g, 1) there has
    determinant g, so adding it gives GL2(F_p), which is SL2(F_p) itself
    at p = 2.  Hence the set yields the Levi factor.  U is generated by
    the groups I + M e_ij (M a 2x2 matrix, i > j).  Levi-conjugates of
    the subdiagonal transvection give I + a M_11 b^-1 e_(i+1,i) for all
    a, b in GL2(F_p), whose products are all of I + M e_(i+1,i), and
    commutators [I + M e_ij, I + N e_jk] = I + MN e_ik reach every i > j.
    """
    one = LowerTriMatrix.identity(field, n)
    gens = [GL2Element.swap(field, n)]
    gens += [GL2Element.upper(LowerTriMatrix.single(field, n, i, i))
             for i in range(1, n + 1)]
    gens += [GL2Element.block_diag(one.with_entry(i + 1, i, 1), one)
             for i in range(1, n)]
    if field.p > 2:
        g = _primitive_root(field.p)
        gens += [GL2Element.block_diag(one.with_entry(i, i, g), one)
                 for i in range(1, n + 1)]
    return gens
