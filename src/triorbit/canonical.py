"""Canonical representatives of GL2(T_n)-orbits and the reduction pipeline.

A pair is canonical when A is diagonal with 0/1 entries, B is strictly
lower with 0/1 entries, every row holds exactly one nonzero entry across
[A|B], and the nonzero entries of B sit in pairwise distinct columns.
``canonicalize`` reduces a free pair to the canonical member of its orbit
and returns a certificate (U, Q) with U (A, B) Q equal to the output,
checkable by plain multiplication.  Not every orbit contains a canonical
pair: from n = 4 on there are free pairs whose nilpotent structure is
entangled across A and B, and the exact orbit invariant ``jump_map``
proves them unreachable in one elimination pass; canonicalize raises
CanonicalizationFailed for those inputs.

The reduction runs in two phases.  Phase one drives the A part to diagonal
0/1 shape: clear the B diagonal, then clear mixed-eigenvalue entries by
triangular similarity, scale the diagonal, and clear the rest of each unit
row by row operations.  Those last three passes read only A; one kernel,
``_sweep_a``, sweeps A's rows as plain lists and returns the elementary
moves from which the recorded factors are built.  Entries whose row and
column diagonals both vanish admit none of those moves; a bounded
best-first search over short generator words handles them, scoring each
node with the same kernel and no matrix arithmetic, and every activation is
flagged in the trace.  Phase two zeroes the unit rows of B, makes the
trailing columns of the other rows distinct, and normalizes those pivot
columns with a right unit V.  That already is the canonical shape: the
paper's pivot search ``select_pivots`` would pick the same pivots, and its
left unit ``build_k`` would be the identity (proofs in
``_trailing_echelon`` and ``canonicalize``).  Both stay public as the
paper's construction.
"""

import functools
import heapq
import itertools

from .errors import (
    BudgetExceeded,
    CanonicalizationFailed,
    NotFree,
    PivotSelectionFailed,
    SingularSystem,
    UnsupportedDimension,
)
from .field import GF
from .gl2 import GL2Element, act_left_unit, act_right, gl2_generators
from .modpairs import ModulePair, enumeration_budget
from .partitions import bell
from .trimat import (
    LowerTriMatrix,
    _echelon_insert,
    augmented_rank,
    matrix_rank,
    solve_mod_p,
)


class Certificate:
    """A left unit U and group element Q with U (input) Q = output."""

    __slots__ = ("U", "Q")

    def __init__(self, U: LowerTriMatrix, Q: GL2Element):
        self.U = U
        self.Q = Q

    def __repr__(self):
        return f"Certificate(U={list(self.U.entries)}, Q={self.Q!r})"


class Stage:
    """One recorded reduction move and the pair it produced."""

    __slots__ = ("label", "side", "factor", "pair")

    def __init__(self, label, side, factor, pair):
        self.label = label
        self.side = side  # "left" or "right"
        self.factor = factor
        self.pair = pair

    def __repr__(self):
        return f"Stage({self.label!r}, {self.side})"


class Trace:
    """Ordered stage snapshots plus the pivot list of the final phase."""

    def __init__(self, stages, pivots):
        self.stages = list(stages)
        self.pivots = list(pivots)

    @property
    def search_steps(self):
        """Number of generator moves contributed by the bounded search."""
        return sum(1 for s in self.stages if s.label == "search")

    @property
    def search_activated(self):
        return self.search_steps > 0

    def __iter__(self):
        return iter(self.stages)

    def __len__(self):
        return len(self.stages)


def verify_certificate(inp: ModulePair, out: ModulePair, cert: Certificate) -> bool:
    """True iff U is a unit, Q is valid, and U (input) Q equals the output."""
    if not isinstance(cert.U, LowerTriMatrix) or not cert.U.is_unit():
        return False
    if not isinstance(cert.Q, GL2Element):
        return False
    if cert.U.n != inp.n or cert.U.field != inp.field:
        return False
    return act_right(act_left_unit(cert.U, inp), cert.Q) == out


# -- the canonical predicate -------------------------------------------------


def is_canonical(pair: ModulePair) -> bool:
    """Check the canonical-shape invariants directly."""
    A, B = pair.A, pair.B
    n = pair.n
    columns = []
    for i, (a, b) in enumerate(zip(A.rows(), B.rows())):
        # Row i + 1: A is 0/1 on the diagonal and 0 below it, B is 0 on
        # the diagonal and 0/1 below it, and the row holds one nonzero.
        if a[i] not in (0, 1) or b[i] != 0 or any(a[:i]):
            return False
        used = [j for j in range(i) if b[j]]
        if any(b[j] != 1 for j in used) or a[i] + len(used) != 1:
            return False
        columns += used
    if len(columns) != len(set(columns)):
        return False
    # Consequence of the shape: n nonzero entries and full rank.
    total = sum(1 for v in A.entries if v) + sum(1 for v in B.entries if v)
    assert total == n and augmented_rank(A, B) == n
    return True


def enumerate_canonical(n: int, field=None, budget=None):
    """All canonical pairs for dimension n, sorted by the pair total order.

    Generated directly from the shape constraints (choose the zero rows of
    A, then assign distinct B columns), independently of the partition
    bijection, so counting against Bell numbers is a real check.
    """
    if n < 2:
        raise UnsupportedDimension(f"canonical enumeration needs n >= 2, got {n}")
    cap = enumeration_budget(budget)
    if bell(n) > cap:
        raise BudgetExceeded(f"B_{n} = {bell(n)} exceeds the cap {cap}")
    if field is None:
        field = GF(2)
    out = []
    candidates = list(range(2, n + 1))
    for r in range(len(candidates) + 1):
        for zero_rows in itertools.combinations(candidates, r):
            diag = [0 if i in zero_rows else 1 for i in range(1, n + 1)]
            A = LowerTriMatrix.diagonal(field, diag)

            def assign(idx, used, placed):
                if idx == len(zero_rows):
                    B = LowerTriMatrix.zero(field, n)
                    for (i, j) in placed:
                        B = B.with_entry(i, j, 1)
                    out.append(ModulePair(A, B))
                    return
                i = zero_rows[idx]
                for j in range(1, i):
                    if j not in used:
                        assign(idx + 1, used | {j}, placed + [(i, j)])

            assign(0, frozenset(), [])
    out.sort()
    return out


# -- pivot selection and the V / K constructions ------------------------------


def select_pivots(G: LowerTriMatrix):
    """Choose, per nonzero row of G, the pivot column for the V step.

    Row i_1 takes its last nonzero column.  Each later row takes the
    largest unused column j with a nonzero entry, no nonzero entries to its
    right outside already-chosen columns, and a nonsingular growing minor
    on the chosen rows and columns.
    """
    n = G.n
    p = G.field.p
    rows = [i for i in range(1, n + 1) if any(G.entry(i, j) for j in range(1, n + 1))]
    pivots = []
    chosen = []
    for t, i in enumerate(rows, start=1):
        best = None
        for j in range(n, 0, -1):
            if j in chosen or G.entry(i, j) == 0:
                continue
            if any(G.entry(i, k) for k in range(j + 1, n + 1) if k not in chosen):
                continue
            minor = [[G.entry(r, c) for c in chosen + [j]] for r in rows[:t]]
            if matrix_rank(minor, p) == t:
                best = j
                break
        if best is None:
            raise PivotSelectionFailed(
                f"no admissible pivot column for row {i}; G violates the rank precondition")
        pivots.append((i, best))
        chosen.append(best)
    return pivots


def build_v(G: LowerTriMatrix, pivots) -> LowerTriMatrix:
    """The right unit V normalizing pivot entries of G to leading ones.

    Column l of V carries unknowns exactly at the pivot-column rows >= l.
    Each pivot row with column >= l contributes one equation: 1 when its
    pivot column is l, else 0.  Unconstrained entries are 0 and
    unconstrained diagonal entries are 1.
    """
    n = G.n
    f = G.field
    p = f.p
    entries = {}
    for l in range(1, n + 1):
        involved = [(i, j) for (i, j) in pivots if j >= l]
        if not involved:
            entries[(l, l)] = 1
            continue
        unknown_rows = sorted(j for (_, j) in involved)
        eqs = []
        for (i, j) in involved:
            target = 1 if j == l else 0
            if l not in unknown_rows:
                target = f.sub(target, G.entry(i, l))  # fixed v_ll = 1 term
            eqs.append([G.entry(i, r) for r in unknown_rows] + [target])
        sol = solve_mod_p(eqs, len(unknown_rows), p)
        if sol is None:
            raise SingularSystem(f"V system for column {l} is singular")
        for r, (val,) in zip(unknown_rows, sol):
            entries[(r, l)] = val
        if l not in unknown_rows:
            entries[(l, l)] = 1
    V = LowerTriMatrix.zero(f, n)
    for (i, j), v in entries.items():
        if v:
            V = V.with_entry(i, j, v)
    if not V.is_unit():
        raise SingularSystem("constructed V is not a unit")
    return V


def _transvection_product(field, n, moves):
    """The product of the I + t e_ij for (i, j, t) in ``moves`` (0-based), in order.

    Row operations applied in turn multiply to their moves in reverse
    order.  Each factor right-multiplies the running product: column j +=
    t * column i, which is nonzero from row i on.
    """
    p = field.p
    rows = [[int(r == c) for c in range(r + 1)] for r in range(n)]
    for i, j, t in moves:
        for row in rows[i:]:
            row[j] = (row[j] + t * row[i]) % p
    return LowerTriMatrix(field, n, [v for row in rows for v in row])


def build_k(A: LowerTriMatrix, H: LowerTriMatrix) -> LowerTriMatrix:
    """The left unit K clearing below-pivot residue from pivot columns of H.

    Pivot rows are the zero-diagonal rows of A; each holds a leading 1.
    Rows are processed from the bottom pivot upward so every subtraction
    lands in columns whose own clearing pass still lies ahead.
    """
    n = A.n
    p = A.field.p
    pivots = []
    for i in range(1, n + 1):
        if A.entry(i, i) == 0:
            row = H.row(i)
            lead = next((j for j in range(1, n + 1) if row[j - 1]), None)
            assert lead is not None, "zero-diagonal row of H is zero"
            assert row[lead - 1] == 1, "pivot entry is not normalized to 1"
            assert all(H.entry(r, lead) == 0 for r in range(1, i)), "entry above pivot"
            pivots.append((i, lead))
        else:
            assert not any(H.row(i)), "unit row of H is nonzero"
    hwork = [H.row(i) for i in range(1, n + 1)]
    moves = []
    for (ipiv, jpiv) in sorted(pivots, reverse=True):
        prow_h = hwork[ipiv - 1]
        for i in range(ipiv + 1, n + 1):
            c = hwork[i - 1][jpiv - 1]
            if c:
                hwork[i - 1] = [(a - c * b) % p for a, b in zip(hwork[i - 1], prow_h)]
                moves.append((i - 1, ipiv - 1, -c % p))  # row i -= c * row ipiv
    return _transvection_product(A.field, n, moves[::-1])


# -- the reduction pipeline ---------------------------------------------------


class _Reduction:
    """Working state: current pair plus accumulated certificate factors."""

    __slots__ = ("pair", "field", "n", "U", "Q", "stages")

    def __init__(self, pair):
        self.pair = pair
        self.field = pair.field
        self.n = pair.n
        self.U = LowerTriMatrix.identity(self.field, self.n)
        self.Q = GL2Element.identity(self.field, self.n)
        self.stages = []

    def left(self, u, label):
        self.pair = ModulePair(u * self.pair.A, u * self.pair.B)
        self.U = u * self.U
        self.stages.append(Stage(label, "left", u, self.pair))

    def right(self, g, label):
        self.pair = act_right(self.pair, g)
        self.Q = self.Q * g
        self.stages.append(Stage(label, "right", g, self.pair))


def _offense(pair):
    """Entries of the A part (plus B diagonal) blocking canonical shape.

    These are the diagonal entries of A outside {0, 1}, the nonzero
    diagonal entries of B and the nonzero entries of A below its diagonal;
    phase one is done exactly when none is left.
    """
    adiag = pair.A.diag()
    below = sum(1 for v in pair.A.entries if v) - sum(1 for a in adiag if a)
    return below + sum(1 for a in adiag if a > 1) + sum(1 for b in pair.B.diag() if b)


def _clear_b_diagonal(red):
    """Right-multiply by per-index blocks making the B diagonal zero.

    Indices with a nonzero A diagonal get the shear (1, -a^-1 b; 0, 1);
    zero indices get the swap block (0, -1; 1, 0).  Skipped outright when
    the B diagonal is already zero, so canonical pairs stay fixed points.
    """
    f = red.field
    bdiag = red.pair.B.diag()
    if not any(bdiag):
        return
    cells = [(1, f.neg(f.mul(f.inv(a), b)), 0, 1) if a else (0, f.neg(1), 1, 0)
             for a, b in zip(red.pair.A.diag(), bdiag)]  # (x, y, w, z) per index
    # Each cell (1, y; 0, 1) or (0, -1; 1, 0) has determinant 1, so g is in
    # the group without the invertibility test; the certificate self-check
    # still covers the result.
    g = GL2Element._trusted(*(LowerTriMatrix.diagonal(f, block) for block in zip(*cells)))
    red.right(g, "diagonal_clearing")


def _lower_rows(M):
    """Row r of M as the list of its r + 1 lower entries; they flatten to M.entries."""
    e = M.entries
    return [list(e[r * (r + 1) // 2:(r + 1) * (r + 2) // 2]) for r in range(M.n)]


def _sweep_a(rows, p):
    """The three cleanup passes that read only A, swept over its rows in place.

    ``rows`` is A as ``_lower_rows`` gives it.  Each pass yields its moves:
    transvections (i, j, t), 0-based i > j, or the scale list.  No move
    changes a diagonal entry.
    - Similarity, A -> P^-1 A P with P the moves' product: clears entries
      whose two diagonals differ.  Sweeping by distance below the diagonal
      keeps cleared entries cleared, as conjugating at (i, j) only disturbs
      positions strictly farther from the diagonal.  So afterwards every
      nonzero a_ij below the diagonal has a_ii = a_jj.
    - Scaling by the diagonal unit sending nonzero diagonals to 1 (None
      when that is the identity).  The diagonal is 0/1 from here on, and a
      nonzero a_ij below it still has a_ii = a_jj.
    - Row clearing, row i += t row j, below a unit diagonal.  Rows ascend,
      so each unit row j is already e_j when it is added into a later row,
      and each move changes exactly its target entry, which the sweep
      therefore just sets to zero.  So every row with
      a_ii = 1 ends as e_i, and every nonzero a_ij left below the diagonal
      has a_ii = a_jj = 0.  In particular no entry is left to clear by
      column operations right of a unit diagonal.
    """
    n = len(rows)
    moves = []
    for dist in range(1, n):
        for j in range(n - dist):
            i = j + dist
            row, jrow = rows[i], rows[j]
            cij, cii, cjj = row[j], row[i], jrow[j]
            if cij == 0 or cii == cjj:
                continue
            t = -cij * pow(cii - cjj, p - 2, p) % p
            # Column j += t * column i (nonzero from row i on), then
            # row i -= t * row j (nonzero up to column j).
            for krow in rows[i:]:
                krow[j] = (krow[j] + t * krow[i]) % p
            for c in range(j + 1):
                row[c] = (row[c] - t * jrow[c]) % p
            moves.append((i, j, t))
    yield moves

    scale = [pow(row[r], p - 2, p) if row[r] else 1 for r, row in enumerate(rows)]
    if all(s == 1 for s in scale):
        yield None
    else:
        for r, s in enumerate(scale):
            rows[r] = [v * s % p for v in rows[r]]
        yield scale

    moves = []
    for i in range(1, n):
        row = rows[i]
        for j in range(i - 1, -1, -1):
            if row[j] and rows[j][j] == 1:
                moves.append((i, j, -row[j] % p))
                row[j] = 0
    yield moves


def _cleanup(red):
    """Phase one: clear the B diagonal, then apply the moves of ``_sweep_a``.

    Each pass's moves become recorded factors, and the A they produce is
    checked against the swept rows.
    """
    _clear_b_diagonal(red)
    f, n = red.field, red.n
    one = LowerTriMatrix.identity(f, n)
    rows = _lower_rows(red.pair.A)
    passes = ("similarity", "scaling", "row_clearing")
    for label, moves in zip(passes, _sweep_a(rows, f.p)):
        if not moves:
            continue
        if label == "similarity":
            P = _transvection_product(f, n, moves)
            red.left(P.inverse(), "similarity_left")
            red.right(GL2Element.block_diag(P, one), "similarity_right")
        elif label == "scaling":
            red.left(LowerTriMatrix.diagonal(f, moves), label)
        else:
            red.left(_transvection_product(f, n, moves[::-1]), label)
        assert red.pair.A.entries == tuple(v for row in rows for v in row)


def _trailing_echelon(red):
    """Left row operations making the trailing columns of G pairwise distinct.

    Full row rank alone does not make the pivot rules satisfiable: two rows
    may share their last nonzero column, and then no right unit can spread
    them over distinct columns.  Subtracting earlier rows until trailing
    columns differ restores admissibility; afterwards every row simply
    pivots on its own trailing column.  Only zero-diagonal rows are mixed,
    so the A part is untouched.

    Returns those pivots (row, trailing column), ascending by row: exactly
    what ``select_pivots`` returns on the new G, whose nonzero rows are the
    zero-diagonal ones once the unit rows of B are zero.  Proof.  For each
    row, in ascending order, the trailing column is unused (the trailing
    columns are distinct) and is the largest nonzero column of the row, so
    the search tries it first and it meets the no-entries-to-the-right
    rule.  Its minor passes too: with rows and chosen columns both ordered
    by trailing column, the minor is lower triangular, as each row vanishes
    right of its own trailing column, with the nonzero trailing entries on
    its diagonal.
    """
    n, f = red.n, red.field
    p = f.p
    A = red.pair.A
    work = [red.pair.B.row(i) for i in range(1, n + 1)]
    moves = []
    owner = {}
    for i in range(1, n + 1):
        if A.entry(i, i) != 0:
            continue
        while True:
            trail = next((j for j in range(n, 0, -1) if work[i - 1][j - 1]), None)
            assert trail is not None, "zero-diagonal row of G vanished"
            prev = owner.get(trail)
            if prev is None:
                owner[trail] = i
                break
            t = f.neg(f.div(work[i - 1][trail - 1], work[prev - 1][trail - 1]))
            work[i - 1] = [(a + t * b) % p
                           for a, b in zip(work[i - 1], work[prev - 1])]
            moves.append((i - 1, prev - 1, t))  # row i += t * row prev
    if moves:
        red.left(_transvection_product(f, n, moves[::-1]), "trailing_echelon")
        assert [red.pair.B.row(i) for i in range(1, n + 1)] == work
    return sorted((i, j) for j, i in owner.items())


def _cleaned_offense(pair):
    """``_offense`` of the pair after ``_cleanup``, computed on A' alone.

    A' is A with column c replaced by column c of B wherever a_cc = 0, if
    some b_cc != 0; else A' = A.  Proof.  ``_clear_b_diagonal`` acts by
    diagonal blocks with (x_cc, w_cc) = (1, 0) where a_cc != 0 and (0, 1)
    where a_cc = 0, so AX + BW = A', and it zeroes B's diagonal.  Each later
    pass left-multiplies by a lower triangular unit u, and diag(uB) =
    diag(u) diag(B) stays zero, or right-multiplies by block_diag(M, I),
    which leaves B alone; and each decides its moves from A alone.  So the
    cleanup ends on A'' = ``_sweep_a`` of A', with a 0/1 diagonal, and a
    zero B diagonal: ``_offense`` counts the nonzero entries of A'' below
    the diagonal.  No matrix, group element or pair is built.
    """
    n = pair.n
    rows = _lower_rows(pair.A)
    if any(pair.B.diag()):
        b = pair.B.entries
        for c in range(n):
            if rows[c][c] == 0:
                for r in range(c, n):
                    rows[r][c] = b[r * (r + 1) // 2 + c]
    for _ in _sweep_a(rows, pair.field.p):
        pass
    return sum(1 for r in range(1, n) for v in rows[r][:r] if v)


def jump_map(pair):
    """The tuple (j(1), ..., j(n)): the column step at which each lead enters.

    The A- and B-columns j are added for j = n down to 1 to an echelon
    basis of F_j, the span of columns j..n of A and B together, whose
    vectors have distinct leads (first nonzero index); lead r enters at
    step j(r), or never (then j(r) = 0).  Each entering lead adds one
    dimension, so the leads number dim F_1 = rank [A|B]: the pair is free
    iff no j(r) is 0.  Column j vanishes above row j, so j(r) <= r, and no
    value is taken more than twice.  Distinct leads cannot cancel, so with V_i the span of the last
    n-i+1 standard basis vectors, dim(F_j intersect V_i) = #{r >= i :
    j(r) >= j}, and j(r) is the largest j at which that count drops from
    i = r to r+1: the jump map and ``span_profile`` determine each other.
    """
    n, p = pair.n, pair.field.p
    basis = {}
    jumps = [0] * n
    for j in range(n, 0, -1):
        for M in (pair.A, pair.B):
            lead = _echelon_insert(basis, M.column(j), p)
            if lead is not None:
                jumps[lead] = j
    return tuple(jumps)


def span_profile(pair):
    """Orbit invariant: dim(F_j intersect V_i) for all i, j, read off ``jump_map``.

    A group element rewrites column j as a combination of columns k >= j,
    preserving every F_j; a left unit maps F_j and V_i by one bijection.
    """
    jumps = jump_map(pair)
    return tuple(sum(1 for c in jumps[i:] if c >= j)
                 for j in range(1, pair.n + 1) for i in range(pair.n))


def is_canonical_jump_map(jumps):
    """True iff the values j(r) != r are pairwise distinct.

    Exactly the jump maps of canonical pairs pass; as jump maps and span
    profiles determine each other, a pair's ``span_profile`` matches a
    canonical pair iff its jump map passes.  Proof.  The columns of a
    canonical pair are 0 or distinct unit vectors e_r, as each row r holds
    a single 1; they enter the basis unreduced, at j(r) = r when a_rr = 1
    and at j(r) = c < r when b_rc = 1.  The 1s of B sit in distinct
    columns, so the values j(r) != r are distinct.  Conversely, for a
    passing j, a_rr = 1 where j(r) = r and b_(r,j(r)) = 1 elsewhere is a
    canonical pair, and by the above its jump map is j.  This bijection
    onto the canonical pairs shows that exactly Bell(n) jump maps pass.
    """
    moved = [c for r, c in enumerate(jumps, start=1) if c != r]
    return len(moved) == len(set(moved))


def reachable_profiles(n):
    """Span profiles of all Bell(n) canonical pairs: the reference for tests."""
    return frozenset(span_profile(c) for c in enumerate_canonical(n))


# The word search's bounds: the longest word tried and the nodes expanded.
SEARCH_DEPTH = 4
SEARCH_LIMIT = 20000


@functools.lru_cache(maxsize=None)
def _search_generators(field, n):
    """``gl2_generators(field, n)`` as a tuple, built once per (p, n)."""
    return tuple(gl2_generators(field, n))


def _search_word(pair, generators):
    """Best-first search for a short generator word lowering the offense.

    A node is scored by ``_cleaned_offense``: the offense a cleanup pass
    would leave, read off A' by the ``_sweep_a`` kernel without building a
    pair, so each child costs one ``act_right`` (looked up by that name at
    call time).  Returns the first word reaching score zero, else the best
    strictly improving word, else None.  A child scoring zero returns as
    soon as it is pushed, so every popped node scores above zero.
    """
    base = _cleaned_offense(pair)
    counter = itertools.count()
    heap = []
    seen = {pair}
    best = None  # (score, length, tiebreak, word)

    def push(parent_pair, word):
        child = act_right(parent_pair, word[-1])
        if child in seen:
            return None
        seen.add(child)
        score = _cleaned_offense(child)
        item = (score, len(word), next(counter), child, word)
        heapq.heappush(heap, item)
        return item

    for g in generators:
        item = push(pair, (g,))
        if item and item[0] == 0:
            return item[4]
    expanded = 0
    while heap and expanded < SEARCH_LIMIT:
        score, length, _, node_pair, word = heapq.heappop(heap)
        if best is None or (score, length) < (best[0], best[1]):
            best = (score, length, word)
        expanded += 1
        if length >= SEARCH_DEPTH:
            continue
        for g in generators:
            item = push(node_pair, word + (g,))
            if item and item[0] == 0:
                return item[4]
    if best is not None and best[0] < base:
        return best[2]
    return None


def canonicalize(pair: ModulePair):
    """Reduce a free pair to its canonical form.

    Phase one leaves A diagonal 0/1 with a zero B diagonal.  Phase two
    right-multiplies by (I, -B; 0, I), giving (A, B - AB), so the unit rows
    of B are zero and, by freeness, every other row is not; it makes the
    trailing columns of those rows distinct (``_trailing_echelon``, whose
    pivots are those of ``select_pivots``) and normalizes them with the
    right unit V of ``build_v``.  That ends on the canonical shape, so the
    paper's K step is the identity and is not run.  Proof.  For a pivot
    (i, j), row i of B vanishes right of column j, and V solves
    (BV)_il = [l == j] for every l <= j; so row i of BV is e_j, the pivots
    are distinct, and ``build_k`` finds no residue below any pivot.

    Returns (canonical pair, certificate, trace); the certificate is
    checked by multiplication before returning.  Raises NotFree on
    non-free input, read off ``jump_map``.  Raises CanonicalizationFailed when the jump map
    proves no canonical form exists (possible from n = 4 on) or, in
    principle, if the bounded word search stalls on a reachable input
    (never observed; the acceptance suite tracks both counts) or a
    self-check of the result (canonical shape, certificate) fails.
    """
    jumps = jump_map(pair)
    if 0 in jumps:
        raise NotFree("canonicalize requires a free pair")
    if not is_canonical_jump_map(jumps):
        # The jump map is an orbit invariant: no word search could succeed.
        raise CanonicalizationFailed(
            "the orbit invariant matches no canonical pair; "
            "this free pair generates an orbit without a canonical form")
    red = _Reduction(pair)
    max_rounds = pair.n * pair.n + 2
    for _ in range(max_rounds):
        _cleanup(red)
        if _offense(red.pair) == 0:
            break
        word = _search_word(red.pair, _search_generators(red.field, red.n))
        if word is None:
            raise CanonicalizationFailed(
                f"search budget exhausted at offense {_offense(red.pair)}")
        for g in word:
            red.right(g, "search")
    else:
        raise CanonicalizationFailed("reduction did not converge")

    # Phase two: zero the unit rows of B, then normalize pivots.
    A = red.pair.A
    B = red.pair.B
    if not (A * B).is_zero():
        red.right(GL2Element.upper(-B), "b_transvection")
    pivots = _trailing_echelon(red)
    V = build_v(red.pair.B, pivots)
    one = LowerTriMatrix.identity(red.field, red.n)
    if V != one:
        red.right(GL2Element.block_diag(one, V), "v_step")

    result = red.pair
    if not is_canonical(result):
        raise CanonicalizationFailed(
            "canonical-shape self-check failed: the pipeline ended off the canonical shape")
    cert = Certificate(red.U, red.Q)
    if not verify_certificate(pair, result, cert):
        raise CanonicalizationFailed(
            "certificate self-check failed: U (input) Q differs from the result")
    return result, cert, Trace(red.stages, pivots)
