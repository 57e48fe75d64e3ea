"""Canonical representatives of GL2(T_n)-orbits and the reduction pipeline.

A pair is canonical when A is diagonal with 0/1 entries, B is strictly
lower with 0/1 entries, every row holds exactly one nonzero entry across
[A|B], and the nonzero entries of B sit in pairwise distinct columns.
``canonicalize`` reduces a free pair to the canonical member of its orbit
and returns a certificate (U, Q) with U (A, B) Q equal to the output,
checkable by plain multiplication.  It takes one of three paths.

1. Unimodular pairs (a_ii or b_ii nonzero in every row) form the single
   orbit of (I, 0).  Such a pair is free and its jump map is the identity
   (the lemma in ``ModulePair.is_unimodular``), so no invariant is
   computed: ``_closed_form`` computes (I, 0), U, Q and at most three
   stages (diagonal_clearing, row_clearing, b_transvection) straight from
   their formula, in one pass over the packed entries.
2. Other pairs are decided by the exact orbit invariant ``jump_map``,
   read off the one row pass over [A|B], ``trimat._row_pass``, which
   also decides freeness and rank: NotFree when a row is dependent, and
   CanonicalizationFailed when the map matches no canonical pair.  From
   n = 4 on there are free pairs whose nilpotent structure is entangled
   across A and B, and their orbits hold no canonical pair.
3. The remaining pairs end on the moves that the same pass records,
   applied by ``_reduce_rows``: row moves clear each row at the earlier
   pivots, one 2x2 cell sets its pivot in the pair k = j(i), and column
   moves clear the rest of the row.  They end on the canonical pair c(j)
   of j (a_rr = 1 where j(r) = r, b_(r, j(r)) = 1 elsewhere) in at most
   two stages, one left and one right, whose factors are the certificate
   (U, Q), as in the closed form; the right one records c(j), built by
   ``modpairs._canonical_pair``, as its proof fixes it, and does not act
   on the pair.  Their pivots are those of the paper's pivot search
   ``paper.select_pivots`` on the result, and the paper's left unit
   ``paper.build_k`` would be the identity there; this module uses
   neither.
   Before the moves, and only while ``_cleaned_offense`` is above 0, a
   cleanup and a bounded best-first word search run, as they did before
   the pass existed, so the search sees the same pairs and takes the same
   steps; every activation is flagged in the trace, and a second pass
   records the moves from the pair the search leaves.  The cleanup clears
   the B diagonal, clears mixed-eigenvalue entries of A by triangular
   similarity, scales the diagonal and clears the rest of each unit row;
   ``_sweep_a`` sweeps A's rows as plain lists for the last three.  The
   count is the number of entries that the cleanup leaves between zero
   diagonals, read off A by the similarity pass alone.  Most pairs that
   are not unimodular start at 0 and never clean or search: 86 % at
   (4,2) and (6,3) and 96 % at (3,3), on seeded samples.  Each search
   child built costs exactly one ``act_right`` and is deduplicated on its
   packed entries.  A pre-scan decides the first layer on the cleaned
   pair by rank, in O(n^2) steps, and builds only the child it returns,
   if any (the mask and rank lemmas in ``_search_word``); on a pair not
   in the cleanup's swept form it builds nothing and the best-first body
   runs, whose first layer returns the same word.

Every recorded factor is built without the public constructors' checks,
since each is in range and invertible by construction: the transvection
products and diagonal scalings have entries reduced mod p and a nonzero
diagonal, and the right factors (the B-diagonal blocks, block_diag(P, I),
upper(-B) and the row pass's column factor) have diagonal 2x2 cells of
nonzero determinant.  The proof of each sits beside its build.  Each
path returns its result, certificate and stages as values and keeps no
working state.  The cleanup and search stages act on the pair as they
are recorded (``_left_stage``, ``_right_stage``), and when they ran the
certificate is formed once, by the ring and group products, as U2 (L_k
... L_1) and (R_1 ... R_m) Q2: their left factors L and right factors R
around the row pass's (U2, Q2) (``_reduce_general``).  The two
self-checks, canonical shape and certificate, stay explicit raises over
the result on every path.  The certificate check multiplies packed
entries (``_certificate_image``) and makes no ``act_right`` call.

Every move list comes from one scan, ``GL2Element._column_moves``,
cached on its element.  The cleanup's right factors, the B-diagonal
blocks (``GL2Element._diagonal_cells``) and block_diag(P, I), are each
scanned once, when they act; the search's generators are built and
scanned once per (p, n).  The row pass's factor is never scanned by
``act_right``: the pair it produces is recorded by proof, and it is Q
as it stands unless a cleanup or search ran, when the product (R_1 ...
R_m) Q2 scans its moves.  The certificate check reads only U, Q, the
input and the output, so it does not rest on any recorded move or
proved pair.

The closed form records what its formula fixes and acts with nothing:
each stage's factor and pair, U and Q are computed entry by entry (the
proofs are in ``_closed_form``), its factors are never scanned for
moves, and ``is_canonical`` accepts (I, 0) with one comparison.  So a
unimodular pair makes no ``act_right`` call.
"""

import functools
import heapq
import itertools

from .errors import (
    CanonicalizationFailed,
    DimensionMismatch,
    NotFree,
    UnsupportedDimension,
)
from .field import GF
from .gl2 import GL2Element, _move_cells, act_right, gl2_generators
from .modpairs import ModulePair, _canonical_pair, _check_budget, enumeration_budget
from .partitions import bell
from .trimat import (
    LowerTriMatrix,
    _accumulate,
    _diagonal_offsets,
    _product_plan,
    _row_moves,
    _row_pass,
    _trusted,
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
    """Ordered stage snapshots plus the pivots (i, j(i)), j(i) != i, of the row pass."""

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
    """True iff U is a unit, Q is valid, and U (input) Q equals the output.

    A Q of another dimension or field raises DimensionMismatch, as
    ``act_right`` does.  The product is ``_certificate_image``'s; it reads
    only U, Q and the input, so the check rests on no recorded move or
    proved pair.
    """
    U, Q = cert.U, cert.Q
    if not isinstance(U, LowerTriMatrix) or not U.is_unit():
        return False
    if not isinstance(Q, GL2Element):
        return False
    f, n = inp.field, inp.n
    if U.n != n or (U.field is not f and U.field != f):
        return False
    if Q.X.n != n or (Q.X.field is not f and Q.X.field != f):
        raise DimensionMismatch("pair and group element must match")
    if not isinstance(out, ModulePair):
        return False
    o = out.A
    return ((o.n == n and (o.field is f or o.field == f))
            and _certificate_image(U.entries, inp.A.entries, inp.B.entries, Q, n, f.p)
            == (o.entries, out.B.entries))


def _certificate_image(u, a, b, Q, n, p):
    """Packed entries of U (A, B) Q, from those of U, A, B and Q's blocks.

    (A, B) Q = (A X + B W, A Y + B Z), so U (A, B) Q = (M_A X + M_B W,
    M_A Y + M_B Z) with M_A = U A and M_B = U B.  Each factor L is read as
    I + (L - I), and only the nonzero entries of L - I do work.
    1. Row i of a lower triangular product L R is the sum over k <= i of
       l_ik times row k of R, and ``trimat._accumulate`` adds it
       unreduced, skipping zero l_ik.  So M_A = A + (U - I) A and M_B =
       B + (U - I) B start as A and B and take (U - I) A and (U - I) B.
    2. Column c of M E is the sum over k >= c of e_kc times column k of M,
       which is zero above row k (the rows and shift of
       ``gl2._move_cells``).  So each nonzero entry v at (k, c) of X - I,
       W, Y or Z - I adds v times column k of its source (M_A for X and Y,
       M_B for W and Z) into column c of its target (the first part for X
       and W, the second for Y and Z), which starts as M_A or M_B.
    Every entry is reduced mod p once, at the end.
    """
    one, steps = _product_plan(n)
    u_minus_i = [x - e for x, e in zip(u, one)]
    ma, mb = list(a), list(b)
    _accumulate(ma, u_minus_i, a, steps)
    _accumulate(mb, u_minus_i, b, steps)
    oa, ob = ma[:], mb[:]
    cells = _move_cells(n)
    zero = itertools.repeat(0)
    for src, dst, block, base in ((ma, oa, Q.X.entries, one), (mb, oa, Q.W.entries, zero),
                                  (ma, ob, Q.Y.entries, zero), (mb, ob, Q.Z.entries, one)):
        for v, d, (rows, shift) in zip(block, base, cells):
            if v != d:
                v -= d
                for r in rows:
                    dst[r - shift] += v * src[r]
    return tuple([v % p for v in oa]), tuple([v % p for v in ob])


# -- the canonical predicate -------------------------------------------------


def is_canonical(pair: ModulePair) -> bool:
    """Check the canonical-shape invariants directly, on the packed rows.

    A passing pair is free: it has n nonzero entries and rank [A|B] = n,
    so neither is computed.  Proof.  Each row holds exactly one nonzero
    entry, a 1, so there are n of them.  The 1s of A lie on its diagonal,
    one column per row, and the 1s of B lie in pairwise distinct columns,
    as checked.  So the rows of [A|B] are n distinct standard basis
    vectors, which are independent.

    (I, 0), the closed form's result, is accepted at sight: each row's one
    nonzero is its diagonal 1 in A, and B, being zero, uses no column.
    """
    a, b = pair.A.entries, pair.B.entries
    if a == LowerTriMatrix.identity(pair.field, pair.n).entries and not any(b):
        return True
    columns = set()
    for i, d in enumerate(_diagonal_offsets(pair.n)):
        # Row i + 1 occupies a[d - i:d + 1], its diagonal at d: A is 0/1
        # on the diagonal and 0 below it, B is 0 on the diagonal and 0/1
        # below it, and the row holds one nonzero.
        if a[d] not in (0, 1) or b[d] != 0 or any(a[d - i:d]):
            return False
        row = b[d - i:d]
        used = [j for j, v in enumerate(row) if v]
        if any(row[j] != 1 for j in used) or a[d] + len(used) != 1:
            return False
        if used:
            if used[0] in columns:
                return False
            columns.add(used[0])
    return True


def enumerate_canonical(n: int, field=None, budget=None):
    """All canonical pairs for dimension n, sorted by the pair total order.

    Generated as c(j) over the canonical jump maps (see
    ``is_canonical_jump_map``), built row by row: j(r) is r, or a value
    below r that no earlier moved row took.  This uses no partition, so
    counting against Bell numbers, and against the partition bijection,
    is a real check.
    """
    if n < 2:
        raise UnsupportedDimension(f"canonical enumeration needs n >= 2, got {n}")
    _check_budget(enumeration_budget(budget), f"B_{n}", n - 1, lambda: bell(n))
    if field is None:
        field = GF(2)
    maps = [((), frozenset())]  # (j(1), ..., j(r - 1)) and the values its moved rows took
    for r in range(1, n + 1):
        grown = []
        for jumps, taken in maps:
            grown.append((jumps + (r,), taken))
            grown += [(jumps + (c,), taken | {c}) for c in range(1, r) if c not in taken]
        maps = grown
    return sorted(_canonical_pair(field, jumps) for jumps, _ in maps)


# -- the reduction pipeline ---------------------------------------------------


def _transvection_product(field, n, moves):
    """The product of the I + t e_ij for (i, j, t) in ``moves`` (0-based), in order.

    Row moves applied in turn multiply to their transvections in reverse
    order, so the product is ``_row_moves`` applied to the identity with
    the moves reversed; and the moves reversed with t negated give the
    inverse, as (I + t e_ij)^-1 = I - t e_ij for i > j.  Every entry is
    reduced mod p, so the result is built through ``_trusted``.
    """
    one = LowerTriMatrix.identity(field, n).entries
    return _trusted(field, n, _row_moves(one, moves[::-1], field.p))


def _left_stage(stages, pair, label, moves):
    """Record in ``stages`` the left stage of the row moves ``moves``; return its pair.

    The moves are those of ``trimat._row_moves``, in order.  Its factor L
    is the moves run on I, and its pair L (A, B) the moves run on A and
    B: row moves applied in turn multiply to their factors in reverse
    order.  Each entry is reduced mod p, and L has a nonzero diagonal.
    """
    f, n, p = pair.field, pair.n, pair.field.p
    factor = _trusted(f, n, _row_moves(LowerTriMatrix.identity(f, n).entries, moves, p))
    pair = ModulePair(_trusted(f, n, _row_moves(pair.A.entries, moves, p)),
                      _trusted(f, n, _row_moves(pair.B.entries, moves, p)))
    stages.append(Stage(label, "left", factor, pair))
    return pair


def _right_stage(stages, pair, label, g):
    """Record the right stage (A, B) g in ``stages`` and return the pair it produces.

    g acts through ``act_right``, looked up by that name at call time, so
    the benchmark's action cap counts the cleanup's and the search's
    actions.
    """
    pair = act_right(pair, g)
    stages.append(Stage(label, "right", g, pair))
    return pair


def _clear_b_diagonal(pair, stages):
    """Right-multiply by per-index blocks making the B diagonal zero; returns the new pair.

    Indices with a nonzero A diagonal get the shear (1, -a^-1 b; 0, 1);
    zero indices get the swap block (0, -1; 1, 0).  Skipped outright when
    the B diagonal is already zero, so canonical pairs stay fixed points.
    """
    f, n = pair.field, pair.n
    p = f.p
    a, b = pair.A.entries, pair.B.entries
    offsets = _diagonal_offsets(n)
    if not any(b[d] for d in offsets):
        return pair
    # Each cell (1, y; 0, 1) or (0, -1; 1, 0) has determinant 1, so g is in
    # the group without the invertibility test; the certificate self-check
    # still covers the result.
    cells = [(1, -pow(a[d], p - 2, p) * b[d] % p, 0, 1) if a[d] else (0, p - 1, 1, 0)
             for d in offsets]
    return _right_stage(stages, pair, "diagonal_clearing",
                        GL2Element._diagonal_cells(f, n, *zip(*cells)))


def _lower_rows(M):
    """Row r of M as the list of its r + 1 lower entries; they flatten to M.entries."""
    e = M.entries
    return [list(e[r * (r + 1) // 2:(r + 1) * (r + 2) // 2]) for r in range(M.n)]


def _similarity(rows, p):
    """The similarity pass of ``_sweep_a`` on ``rows`` in place; returns its moves.

    A -> P^-1 A P with P the product of the moves (i, j, t), 0-based
    i > j: clears entries whose two diagonals differ, and changes no
    diagonal entry.  Sweeping by distance below the diagonal keeps cleared
    entries cleared, as conjugating at (i, j) only disturbs positions
    strictly farther from the diagonal.  So afterwards every nonzero a_ij
    below the diagonal has a_ii = a_jj.
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
    return moves


def _sweep_a(rows, p):
    """The three cleanup passes that read only A, swept over its rows in place.

    ``rows`` is A as ``_lower_rows`` gives it.  Each pass yields its moves
    (i, j, t), 0-based i >= j, as ``trimat._row_moves`` runs them.  Only
    the scaling's moves, i = j, change a diagonal entry.
    - Similarity (``_similarity``): afterwards every nonzero a_ij below
      the diagonal has a_ii = a_jj.  Its moves are the transvections whose
      product P gives A -> P^-1 A P.
    - Scaling by the diagonal unit sending nonzero diagonals to 1: row r
      times s = a_rr^-1, the move (r, r, s - 1), for each a_rr outside
      {0, 1}.  The diagonal is 0/1 from here on, and a nonzero a_ij below
      it still has a_ii = a_jj.
    - Row clearing, row i += t row j, below a unit diagonal.  Rows ascend,
      so each unit row j is already e_j when it is added into a later row,
      and each move changes exactly its target entry, which the sweep
      therefore just sets to zero.  So every row with
      a_ii = 1 ends as e_i, and every nonzero a_ij left below the diagonal
      has a_ii = a_jj = 0.  In particular no entry is left to clear by
      column operations right of a unit diagonal.
    """
    yield _similarity(rows, p)

    moves = []
    for r, row in enumerate(rows):
        if row[r] > 1:
            s = pow(row[r], p - 2, p)
            rows[r] = [v * s % p for v in row]
            moves.append((r, r, s - 1))
    yield moves

    moves = []
    for i in range(1, len(rows)):
        row = rows[i]
        for j in range(i - 1, -1, -1):
            if row[j] and rows[j][j] == 1:
                moves.append((i, j, -row[j] % p))
                row[j] = 0
    yield moves


def _cleanup(pair, stages):
    """The cleanup before a search: clear the B diagonal, then apply ``_sweep_a``.

    Each pass's moves become stages recorded in ``stages``, and the A they
    produce is checked against the swept rows.  Returns the cleaned pair.
    """
    pair = _clear_b_diagonal(pair, stages)
    f, n = pair.field, pair.n
    p = f.p
    rows = _lower_rows(pair.A)
    passes = ("similarity", "scaling", "row_clearing")
    for label, moves in zip(passes, _sweep_a(rows, p)):
        if not moves:
            continue
        if label == "similarity":
            # P^-1 is the moves reversed with t negated; as row moves on
            # the left, that is the negated moves in order.
            pair = _left_stage(stages, pair, "similarity_left",
                               [(i, j, -t % p) for i, j, t in moves])
            # P has a unit diagonal, so every diagonal cell (p_ii, 0; 0, 1)
            # has determinant 1 and block_diag(P, I) is in the group.
            P = _transvection_product(f, n, moves)
            zero = LowerTriMatrix.zero(f, n)
            pair = _right_stage(stages, pair, "similarity_right", GL2Element._trusted(
                P, zero, zero, LowerTriMatrix.identity(f, n)))
        else:
            pair = _left_stage(stages, pair, label, moves)
        if pair.A.entries != tuple(v for row in rows for v in row):
            raise CanonicalizationFailed(
                f"cleanup self-check failed: the {label} pass left A off its swept rows")
    return pair


def _cleaned_offense(pair):
    """The offense of the pair after ``_cleanup``, computed on A' alone.

    The offense of a pair counts the entries that keep its A part from
    canonical shape: diagonal entries of A outside {0, 1}, nonzero
    diagonal entries of B and nonzero entries of A below its diagonal.
    ``_reduce_general`` runs the cleanup and the word search only while
    this count is above 0.

    A' is A with column c replaced by column c of B wherever a_cc = 0, if
    some b_cc != 0; else A' = A.  Proof.  ``_clear_b_diagonal`` acts by
    diagonal blocks with (x_cc, w_cc) = (1, 0) where a_cc != 0 and (0, 1)
    where a_cc = 0, so AX + BW = A', and it zeroes B's diagonal.  Each later
    pass left-multiplies by a lower triangular unit u, and diag(uB) =
    diag(u) diag(B) stays zero, or right-multiplies by block_diag(M, I),
    which leaves B alone; and each decides its moves from A alone.  So the
    cleanup ends on A'' = ``_sweep_a`` of A', with a 0/1 diagonal, and a
    zero B diagonal: the offense counts the nonzero entries of A'' below
    the diagonal.

    Only the similarity pass runs: the count is #{i > j : a_ij != 0 after
    that pass, a_jj = 0}.  Proof.
    - Scaling multiplies each row by a nonzero scalar, so the zero
      pattern and the zero diagonals stay the same.
    - Row clearing zeroes exactly the a_ij with a_jj = 1, and changes
      nothing else (see ``_sweep_a``).
    - After the similarity pass, every nonzero a_ij below the diagonal has
      a_ii = a_jj, so the entries counted are those of A'' below the
      diagonal, whose row and column diagonals both vanish.
    No matrix, group element or pair is built.

    So the count is 0, and nothing is swept, when A' has fewer than two
    zero diagonal entries: each counted entry lies between two of them.
    The zero diagonal of A' is {c : a_cc = b_cc = 0} whether or not B's
    diagonal vanishes, as a column of B replaces each zero a_cc.
    """
    n = pair.n
    a, b = pair.A.entries, pair.B.entries
    offsets = _diagonal_offsets(n)
    if sum(1 for d in offsets if not (a[d] or b[d])) < 2:
        return 0
    rows = _lower_rows(pair.A)
    if any(b[d] for d in offsets):
        for c in range(n):
            if rows[c][c] == 0:
                for r in range(c, n):
                    rows[r][c] = b[r * (r + 1) // 2 + c]
    _similarity(rows, pair.field.p)
    return sum(1 for i in range(1, n) for j in range(i) if rows[i][j] and not rows[j][j])


def jump_map(pair):
    """The tuple (j(1), ..., j(n)): the column pair where each row of [A|B] leads.

    Let F_j be the span of columns j..n of A and B together, and V_i that
    of the last n-i+1 standard basis vectors.  The jump map is the one map
    r -> j(r) in {0, ..., n} with dim(F_j intersect V_i) = #{r >= i :
    j(r) >= j} for all i, j >= 1; the counts fix every value, as j(r) >= j
    exactly when the count drops from i = r to r+1.  So the jump map and
    ``span_profile`` determine each other.

    ``trimat._row_pass`` computes it: the pass ends with every row r 0 or
    the unit vector at a pivot in pair k_r, the pivots distinct, and
    returns k.  A later row may move an earlier pivot, but only within its
    pair, so k_r is the pair of row r's final pivot.  Proof that k = j.
    Each row move is a left unit and each column move a group element, so
    no dim(F_j intersect V_i) changes (see ``span_profile``).  At the end every column is 0 or a distinct
    e_r, those of the pairs >= j being the e_r with k_r >= j, so F_j
    intersect V_i is spanned by the e_r with r >= i and k_r >= j, and
    dim(F_j intersect V_i) = #{r >= i : k_r >= j}: k = j, zeros included.
    The nonzero values number rank [A|B], so the pair is free iff no j(r)
    is 0.  Row r vanishes on the pairs above r, so j(r) <= r, and as a
    pair holds two columns, no value is taken more than twice.
    """
    return _row_pass(pair.A, pair.B)[0]


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
    canonical pair iff its jump map passes.  Proof.  Each row r of a
    canonical pair is a unit vector, at a_r or at b_c with c < r, and the
    1s of B sit in distinct columns: the shape the row pass ends on, so
    (proof in ``jump_map``) j(r) = r when a_rr = 1 and j(r) = c when b_rc
    = 1, and the values j(r) != r are distinct.  Conversely, for a
    passing j, c(j) (``modpairs._canonical_pair``: a_rr = 1 where j(r) =
    r and b_(r,j(r)) = 1 elsewhere) is a canonical pair, and by the above
    its jump map is j.  This bijection onto the canonical pairs shows that
    exactly Bell(n) jump maps pass.
    """
    moved = [c for r, c in enumerate(jumps, start=1) if c != r]
    return len(moved) == len(set(moved))


def reachable_profiles(n):
    """Span profiles of all Bell(n) canonical pairs: the reference for tests.

    ``canonicalize`` decides through ``is_canonical_jump_map`` and does not
    call this.  It stays because the benchmark's set-up (perfbench) still
    calls it, until the benchmark revision drops that call (ROADMAP).
    """
    return frozenset(span_profile(c) for c in enumerate_canonical(n))


# The word search's bounds: the longest word tried and the nodes expanded.
SEARCH_DEPTH = 4
SEARCH_LIMIT = 20000


@functools.lru_cache(maxsize=None)
def _search_generators(field, n):
    """``gl2_generators(field, n)`` as a tuple, built once per (p, n)."""
    return tuple(gl2_generators(field, n))


@functools.lru_cache(maxsize=None)
def _search_kinds(field, n):
    """Where each generator that the rank lemma decides sits in ``_search_generators``.

    Returns (uppers, lowers, swap): ``uppers[i]`` lists the indices of the
    upper(lam E_ii), ``lowers`` maps (i, j, lam) to the index of
    lower(lam E_ij), with i and j 0-based, and ``swap`` is the swap's
    index.  Among ``gl2_generators`` the swap alone has X = 0, the
    lower(lam E_ij) alone have W != 0, and the upper(lam E_ii) alone a
    nonzero Y diagonal.  Every other generator has W = 0 and a zero Y
    diagonal, so by the mask lemma of ``_search_word`` its child scores
    at least 1.
    """
    offsets = _diagonal_offsets(n)
    slots = [(r, c) for r in range(n) for c in range(r + 1)]
    uppers = [[] for _ in range(n)]
    lowers = {}
    for index, g in enumerate(_search_generators(field, n)):
        y, w = g.Y.entries, g.W.entries
        if not any(g.X.entries):
            swap = index
        elif any(w):
            (k, lam), = [(k, v) for k, v in enumerate(w) if v]
            lowers[(*slots[k], lam)] = index
        else:
            for i, d in enumerate(offsets):
                if y[d]:
                    uppers[i].append(index)
    return tuple(map(tuple, uppers)), lowers, swap


def _first_layer_zeros(pair, kinds):
    """The indices of the first-layer generators whose child scores zero, by rank.

    ``kinds`` is ``_search_kinds`` for the generators, and the pair scores
    above zero with a zero B diagonal, as at the pre-scan.  Returns the
    indices ascending, by the rank lemma of ``_search_word``, building no
    child; or None when A is not in swept form (A = I_S + N with N
    supported on Z x Z).  Swept form is checked, and every case decided,
    in O(n^2) steps, besides listing the upper(lam E_ii) that score zero.
    """
    p = pair.field.p
    a, b = pair.A.entries, pair.B.entries
    offsets = _diagonal_offsets(pair.n)
    zero = [not a[d] for d in offsets]
    cols = set()  # the nonzero columns of N
    for r, d in enumerate(offsets):
        if a[d] > 1:
            return None
        for c in range(r):
            if a[d - r + c]:
                if not (zero[r] and zero[c]):
                    return None
                cols.add(c)
    uppers, lowers, swap = kinds
    rows = [r for r, z in enumerate(zero) if z]  # Z, ascending
    found = []
    if all(not b[offsets[r] - r + c] for r in rows for c in rows if c < r):
        for i, z in enumerate(zero):
            if not z:
                found += uppers[i]
    if len(cols) == 1:
        (j,) = cols
        col = [a[d - r + j] if r > j else 0 for r, d in enumerate(offsets)]
        first = next(r for r in rows if col[r])
        # lam b_ri = -a_rj on every r in Z: b vanishes on r <= i, so i < first.
        for i in range(j, first):
            v = b[offsets[first] - first + i]
            if v:
                lam = -col[first] * pow(v, p - 2, p) % p
                if all((col[r] + lam * b[offsets[r] - r + i]) % p == 0 for r in rows if r > i):
                    found.append(lowers[(i, j, lam)])
    if all(zero) and not any(b):
        found.append(swap)
    return sorted(found)


def _search_word(pair, generators, kinds):
    """Best-first search for a short generator word lowering the offense.

    Each child built costs exactly one ``act_right``, looked up by that
    name at call time, and nothing else that builds a matrix: the
    benchmark's action cap counts these calls.  A node is scored by
    ``_cleaned_offense``, the offense a cleanup would leave, read off A'
    by the similarity pass alone; ``seen`` is keyed on the child's packed
    entries, and a node keeps no other state.  Returns the first word
    reaching score zero, else the best strictly improving word, else
    None.  A child scoring zero returns as soon as it is pushed, so every
    popped node scores above zero.

    ``kinds`` is ``_search_kinds`` for ``generators``.  When the pair
    scores above zero with a zero B diagonal and A is in swept form
    (below), as at the cleaned pair that ``_reduce_general`` hands over,
    a pre-scan first decides every first-layer generator by the rank
    lemma through ``_first_layer_zeros``.  It builds only the child of
    the first generator in order whose child scores zero, confirms it
    with ``_cleaned_offense`` (a child that fails raises
    CanonicalizationFailed), and returns (g,).  If none scores zero, or
    A is not in swept form, as on pairs handed in directly, it builds
    nothing and the best-first body runs.  Its first layer pushes the
    children in generator order and returns at the first that scores
    zero, which differs from the pair, as the pair scores above zero; so
    the pre-scan returns the word the body would.

    Mask lemma: on such a pair, the child of a generator with W = 0 and
    y_ii = 0 wherever a_ii != 0 scores at least 1.  Proof.  Let S be the
    set of i with a_ii != 0.  The cleanup of a pair with a zero B
    diagonal ends on A'' = ``_sweep_a`` of A itself.  That sweep multiplies
    A by units on both sides, changes no zero pattern of the diagonal, and
    leaves A'' = I_S + N'' with N'' strictly lower and nonzero only in
    rows and columns outside S (see ``_sweep_a``).  So rank A = |S| +
    rank N'', and the score, the number of nonzero entries of N'', is at
    least 1 exactly when rank A > |S|; the parent's score says it is.
    - The diagonal map T_n -> GF(p)^n is a ring homomorphism, so each
      diagonal cell (x_ii, y_ii; w_ii, z_ii) of g is invertible.  With
      W = 0 that makes every x_ii nonzero, so X is a unit.
    - The child is (AX, AY + BZ), whose B diagonal a_ii y_ii + b_ii z_ii
      is zero, as y_ii = 0 where a_ii != 0 and b_ii = 0 throughout.  So
      its cleanup sweeps AX, and AX has rank A and, as x_ii != 0, the
      nonzero diagonal S.  By the above, the child scores at least 1.

    Rank lemma.  By the proof in ``_cleaned_offense``, a child (A', B')
    ends its cleanup on ``_sweep_a`` of A*, the A' there: A' with each
    zero-diagonal column taken from B' if diag B' != 0, else A' itself.
    So, as above, it scores zero iff rank A* = |S*|, S* the set of i with
    a*_ii != 0.  The pair is in swept form when A = I_S + N with N
    supported on Z x Z, Z the complement of S: the shape the cleanup
    leaves, as its own self-check enforces.  Then N is its own sweep, so
    the parent scores the number of nonzero entries of N, and N != 0.
    Order rows and columns as S, then Z; this keeps every rank.  A matrix
    [[P, Q], [R, T]] with P invertible and Q = 0 or R = 0 has rank rank P
    + rank T.  The generators (``gl2_generators``) are decided as follows.
    - lower(lam E_ij), i >= j: the child is (A + lam B E_ij, B), column j
      of A plus lam c, c the column i of B, which vanishes on rows <= i
      as B is lower with b_ii = 0.  So c_j = 0, the diagonal and S stay,
      and B' = B gives A* = A'.  If j is in S, the S x S block I + lam c_S
      e_j^T is unipotent and the S x Z block stays 0, so rank A' = |S| +
      rank N > |S|.  If j is in Z, the S x S block stays I and the Z x S
      block 0, so rank A' = |S| + rank(N + lam c_Z e_j^T).  So the child
      scores zero iff N's only nonzero column is j, and column j of A
      plus lam c vanishes on every row in Z (N's columns in S are zero,
      and N != 0, so j is then in Z).
    - upper(lam E_ii) with i in S: the child is (A, B + lam A E_ii), and
      column i of A is e_i, so B' = B + lam E_ii, whose diagonal is
      nonzero at i alone.  So A* is A with its Z columns taken from B,
      the same for every such i and lam, and S* = S as b_zz = 0.  Its S
      columns are e_s, so its Z x S block is 0 and rank A* = |S| + rank
      B_ZZ: they all score zero iff B vanishes on Z x Z.
    - The swap: the child is (B, A), and A' = B has a zero diagonal.  If S
      is not empty, diag B' = diag A != 0, so every column is taken from
      B' and A* = A, which scores as the pair does.  If S is empty, A* =
      B with S* empty: it scores zero iff B = 0.
    - Every other generator has W = 0 and y_ii = 0 wherever a_ii != 0,
      so by the mask lemma its child scores at least 1.
    So the first index that ``_first_layer_zeros`` returns is the
    generator at which the body's first layer returns, and only the
    number of ``act_right`` calls changes.
    """
    base = _cleaned_offense(pair)
    parent = (pair.A.entries, pair.B.entries)
    if base and not any(pair.B.diag()):
        zeros = _first_layer_zeros(pair, kinds)
        if zeros:
            g = generators[zeros[0]]
            if _cleaned_offense(act_right(pair, g)):
                raise CanonicalizationFailed(
                    "search self-check failed: a first-layer child decided by rank "
                    "scores above zero")
            return (g,)
    counter = itertools.count()
    heap = []
    seen = {parent}
    best = None  # (score, length, tiebreak, word)

    def push(parent_pair, word):
        child = act_right(parent_pair, word[-1])
        key = (child.A.entries, child.B.entries)
        if key in seen:
            return None
        seen.add(key)
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


_CLOSED_FORM = {}


def _closed_form_plan(field, n):
    """Per (p, n): the row and column of each packed slot, I, 0 and (I, 0).

    Slot k of a packed matrix holds (r, c), 0-based, for the k-th r >= c
    in row-major order.  Built on first use, once per (p, n).
    """
    key = (field.p, n)
    plan = _CLOSED_FORM.get(key)
    if plan is None:
        slots = [(r, c) for r in range(n) for c in range(r + 1)]
        plan = _CLOSED_FORM[key] = (
            tuple(r for r, _ in slots), tuple(c for _, c in slots),
            LowerTriMatrix.identity(field, n), LowerTriMatrix.zero(field, n),
            _canonical_pair(field, range(1, n + 1)))
    return plan


def _closed_form(pair):
    """The closed form of a unimodular pair: (I, 0), its certificate and its stages.

    Returns ((I, 0), Certificate(U, Q), stages), computed on packed
    entries from the formula below; nothing acts on the pair and no move
    list reaches ``act_right``.  A stage that would be the identity is not
    recorded, so (I, 0) itself records none.
    1. ``diagonal_clearing`` (right, g1, (A', B')): g1 has the diagonal
       cells (a^-1, -b a^-1; 0, 1) where a = a_ii != 0 and (0, -1; b^-1,
       0) where a_ii = 0, so b = b_ii != 0.  Their determinants a^-1 and
       b^-1 are nonzero, so g1 is in the group.  X1, Y1, W1 and Z1 are
       diagonal, so A' = A X1 + B W1 and B' = A Y1 + B Z1 are column
       scalings: a'_rc = a_rc x_c + b_rc w_c and b'_rc = a_rc y_c + b_rc
       z_c.  Their diagonals are a x + b w = 1 and a y + b z = 0 in both
       kinds of cell.
    2. ``row_clearing`` (left, U, (I, B'')): A' has a unit diagonal, and
       the moves are row i -= a'_ij row j for each a'_ij != 0 below it,
       rows ascending and j descending.  Row j is already e_j when it is
       added into a later row, so each move changes exactly its target
       entry, which no earlier move into row i has touched; A' becomes I.
       The moves run on I give U, the product of their transvections, so
       U A' = I, and run on B' they give B'' = U B'.  U has a unit
       diagonal, so diag(B'') = diag(B') = 0.
    3. ``b_transvection`` (right, upper(-B''), (I, 0)): (I, B'')
       upper(-B'') = (I, -B'' + B'') = (I, 0).  Its diagonal cells are
       (1, -b''_ii; 0, 1) = I, so it is in the group.
    So U (A, B) g1 upper(-B'') = U (A', B') upper(-B'') = (I, 0), and Q =
    g1 upper(-B''), whose block rows are (X1, Y1 - X1 B'') and (W1, Z1 -
    W1 B'').  X1 and W1 are diagonal, so these are row scalings: entry
    (r, c) of X1 B'' is x_r b''_rc.  Q is g1 or upper(-B'') alone when the
    other stage is skipped, and the identity when both are.  Every entry
    is reduced mod p, so the factors are built through ``_trusted``,
    ``GL2Element._trusted`` and ``GL2Element._diagonal_cells``; nothing
    acts with them, and ``verify_certificate`` reads Q's blocks as they
    are.
    """
    f, n = pair.field, pair.n
    p = f.p
    rows, cols, one, zero, target = _closed_form_plan(f, n)
    offsets = _diagonal_offsets(n)
    a, b = pair.A.entries, pair.B.entries
    stages = []
    g1 = None
    if any(a[d] != 1 or b[d] for d in offsets):
        cells = []
        for d in offsets:
            if a[d]:
                inv = pow(a[d], p - 2, p)
                cells.append((inv, -b[d] * inv % p, 0, 1))
            else:
                cells.append((0, p - 1, pow(b[d], p - 2, p), 0))
        x, y, w, z = zip(*cells)
        a, b = (tuple([(u * x[c] + v * w[c]) % p for u, v, c in zip(a, b, cols)]),
                tuple([(u * y[c] + v * z[c]) % p for u, v, c in zip(a, b, cols)]))
        g1 = GL2Element._diagonal_cells(f, n, x, y, w, z)
        stages.append(Stage("diagonal_clearing", "right", g1,
                            ModulePair(_trusted(f, n, a), _trusted(f, n, b))))
    # Row i (0-based) starts at offsets[i] - i, so a_ij sits at d - i + j.
    moves = [(i, j, -a[d - i + j] % p) for i, d in enumerate(offsets)
             for j in range(i - 1, -1, -1) if a[d - i + j]]
    U = one
    if moves:
        U = _trusted(f, n, _row_moves(one.entries, moves, p))
        b = _row_moves(b, moves, p)
        stages.append(Stage("row_clearing", "left", U, ModulePair(one, _trusted(f, n, b))))
    if any(b):
        neg = tuple([-v % p for v in b])
        g2 = GL2Element._trusted(one, _trusted(f, n, neg), zero, one)
        stages.append(Stage("b_transvection", "right", g2, target))
        if g1 is None:
            Q = g2
        else:
            Q = GL2Element._trusted(
                g1.X, _trusted(f, n, tuple([(s + x[r] * v) % p
                                            for s, v, r in zip(g1.Y.entries, neg, rows)])),
                g1.W, _trusted(f, n, tuple([(s + w[r] * v) % p
                                            for s, v, r in zip(g1.Z.entries, neg, rows)])))
    else:
        Q = GL2Element.identity(f, n) if g1 is None else g1
    return target, Certificate(U, Q), stages


def _reduce_rows(pair, passed):
    """The row pass's reduction of ``pair`` to c(j): (c(j), its certificate, its stages).

    ``passed`` is what ``trimat._row_pass`` returned, recording, for
    ``pair``, a free pair with a canonical jump map j.

    Left and right multiplication commute, so all row moves make one left
    stage, ``row_reduction``, whose factor U is the moves run on I, and
    the cells and column moves one right factor Q, their product,
    ``column_reduction``; U (A, B) Q = c(j), so (U, Q) is the certificate.
    A stage that would be the identity is not recorded, so c(j) itself
    records none; Q is the identity exactly when its packed blocks are
    I, 0, 0 and I.  Q is built unchecked: its cells have nonzero
    determinant and the rest are lower transvections, so it is in the
    group.  The pair it produces is c(j), built by
    ``modpairs._canonical_pair``, and Q does not act.  Proof.  As the
    pair is free, the pass ends with every row r the unit vector at its
    pivot in pair j(r), at b_j(r) for the last row other than j(r)
    recording j(r) and at a_j(r) for every other row (``_row_pass``).  A
    canonical j gives each value c to at most one row other than c, so
    row r ends at a_r where j(r) = r and at b_j(r) elsewhere: that is
    c(j).  ``is_canonical`` and ``verify_certificate`` still check the
    result.
    """
    f, n = pair.field, pair.n
    jumps, row_moves, blocks = passed
    result = _canonical_pair(f, jumps)
    one = LowerTriMatrix.identity(f, n)
    stages = []
    U = one
    if row_moves:
        _left_stage(stages, pair, "row_reduction", row_moves)
        U = stages[-1].factor
    x, y, w, z = blocks
    if x == one.entries == z and not any(y) and not any(w):
        Q = GL2Element.identity(f, n)
    else:
        Q = GL2Element._trusted(*(_trusted(f, n, e) for e in blocks))
        stages.append(Stage("column_reduction", "right", Q, result))
    return result, Certificate(U, Q), stages


def _reduce_general(pair):
    """Paths 2 and 3 of the module docstring: (result, certificate, stages, pivots).

    One row pass (``trimat._row_pass``) decides NotFree and
    CanonicalizationFailed before any stage, and records its moves when
    ``_cleaned_offense`` of the pair is 0; ``_reduce_rows`` then returns
    the result, certificate and stages.  Otherwise, while the count is
    above 0, the cleanup and the word search run and the word is applied,
    recording left stages L_1, ..., L_k and right stages R_1, ..., R_m in
    order, and a second pass records the moves from the pair (A', B')
    they leave, on which ``_reduce_rows`` gives (U2, Q2).  Left and right
    multiplication commute, so (A', B') = (L_k ... L_1) (A, B) (R_1 ...
    R_m), and the certificate is U2 (L_k ... L_1) and (R_1 ... R_m) Q2,
    formed once by the ring and group products.  The pivots are (i, j(i))
    for each j(i) != i, ascending in i.

    The loop terminates.  The cleanup leaves a pair on which it is a no-op
    (zero B diagonal, 0/1 diagonal in A, and every nonzero below it
    between zero diagonals; see ``_sweep_a``), so the search's base score
    is the count that let the round run.  Each word it returns scores 0 or
    strictly below that base (``_search_word``), and its score is the next
    round's count.  A word of None, never observed, ends the loop as well.
    """
    offense = _cleaned_offense(pair)
    passed = _row_pass(pair.A, pair.B, record=not offense)
    jumps = passed[0]
    if 0 in jumps:
        raise NotFree("canonicalize requires a free pair")
    if not is_canonical_jump_map(jumps):
        # The jump map is an orbit invariant: no reduction could succeed.
        raise CanonicalizationFailed(
            "the orbit invariant matches no canonical pair; "
            "this free pair generates an orbit without a canonical form")
    pivots = [(i, c) for i, c in enumerate(jumps, start=1) if c != i]
    if not offense:
        return (*_reduce_rows(pair, passed), pivots)
    f, n = pair.field, pair.n
    prefix = []
    current = pair
    while offense:
        current = _cleanup(current, prefix)
        word = _search_word(current, _search_generators(f, n), _search_kinds(f, n))
        if word is None:
            break
        for g in word:
            current = _right_stage(prefix, current, "search", g)
        offense = _cleaned_offense(current)
    result, cert, stages = _reduce_rows(current, _row_pass(current.A, current.B, record=True))
    U, Q = LowerTriMatrix.identity(f, n), GL2Element.identity(f, n)
    for stage in prefix:
        if stage.side == "left":
            U = stage.factor * U
        else:
            Q = Q * stage.factor
    return result, Certificate(cert.U * U, Q * cert.Q), prefix + stages, pivots


def canonicalize(pair: ModulePair):
    """Reduce a free pair to its canonical form (three paths; see the module docstring).

    A unimodular pair takes the closed form ``_closed_form`` and ends on
    (I, 0).  By the lemma in ``ModulePair.is_unimodular`` its jump map
    is the identity, which is free and canonical, so the NotFree and
    ``is_canonical_jump_map`` decisions could only pass and are skipped.
    The general reduction would end on the same pair and never search:
    A' (see ``_cleaned_offense``) has a nonzero diagonal, so the similarity
    pass clears everything below it, the count is 0, and the row pass
    ends on c(j) = (I, 0).  So the closed form changes no result and no
    search count, only the recorded stages and the certificate.

    Any other pair is decided first by the jump map of the row pass
    ``trimat._row_pass``: NotFree on non-free input, and
    CanonicalizationFailed when no canonical form exists (possible from n
    = 4 on).  Then the cleanup and the word search run only while a
    cleanup would leave entries for the search, and the moves of the row
    pass end on the canonical pair c(j) of the jump map j.  Their pivots
    are those of the paper's pivot search ``paper.select_pivots`` on the
    result, and its K step ``paper.build_k`` would be the identity there:
    each row of c(j) is a unit vector, and the 1s of B sit in distinct
    columns.

    Returns (canonical pair, certificate, trace); the certificate is
    checked by multiplication before returning.  CanonicalizationFailed is
    raised only when the jump map is not canonical, or when a self-check
    (the cleanup's swept rows, the child the search's rank decision
    returns, canonical shape, certificate) fails.
    """
    if pair.is_unimodular():
        result, cert, stages = _closed_form(pair)
        pivots = []
    else:
        result, cert, stages, pivots = _reduce_general(pair)
    if not is_canonical(result):
        raise CanonicalizationFailed(
            "canonical-shape self-check failed: the pipeline ended off the canonical shape")
    if not verify_certificate(pair, result, cert):
        raise CanonicalizationFailed(
            "certificate self-check failed: U (input) Q differs from the result")
    return result, cert, Trace(stages, pivots)
