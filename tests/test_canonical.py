import hashlib
import heapq
import itertools
import random
import time

import pytest

from triorbit import (
    GF,
    CanonicalizationFailed,
    Certificate,
    DimensionMismatch,
    GL2Element,
    LowerTriMatrix,
    ModulePair,
    NotFree,
    PivotSelectionFailed,
    SingularSystem,
    Submodule,
    UnsupportedDimension,
    act_left_unit,
    act_right,
    augmented_rank,
    bell,
    build_k,
    build_v,
    canonicalize,
    enumerate_canonical,
    gl2_generators,
    gl2_is_invertible,
    is_canonical,
    select_pivots,
    verify_certificate,
)
from triorbit.canonical import (
    SEARCH_DEPTH,
    SEARCH_LIMIT,
    _cleaned_offense,
    _cleanup,
    _first_layer_zeros,
    _lower_rows,
    _reduce_general,
    _reduce_rows,
    _search_generators,
    _search_kinds,
    _search_word,
    _sweep_a,
    _transvection_product,
    is_canonical_jump_map,
    jump_map,
    reachable_profiles,
    span_profile,
)
from triorbit.modpairs import ring_matrices, unit_matrices
from triorbit.oracle import _free_submodule_keys, _key_pair, random_free_pairs
from triorbit.trimat import _row_pass
from tests.conftest import make_pair


def free_pairs(field, n):
    for A in ring_matrices(field, n):
        for B in ring_matrices(field, n):
            pair = ModulePair(A, B)
            if pair.is_free():
                yield pair


# -- the canonical predicate ---------------------------------------------------


def test_identity_zero_is_canonical(gf2):
    for n in (2, 3, 4, 6):
        assert is_canonical(make_pair(gf2, (1,) * n, ()))


def test_fixture_table_members_are_canonical(table_n4):
    for pair, _ in table_n4:
        assert is_canonical(pair)


def test_row_with_two_entries_is_not_canonical(gf2):
    assert not is_canonical(make_pair(gf2, (1, 1), ((2, 1),)))


def test_duplicate_columns_are_not_canonical(gf2):
    assert not is_canonical(make_pair(gf2, (1, 0, 0), ((2, 1), (3, 1))))


def test_non_binary_entries_are_not_canonical(gf5):
    pair = make_pair(gf5, (1, 2), ())
    assert not is_canonical(pair)


def test_predicate_equals_count_and_rank_formulation(gf2):
    # The shape invariants agree with: entries 0/1 in the right places and
    # the number of nonzero entries of [A|B] equal to its rank equal to n.
    for n in range(2, 6):
        diag_opts = list(itertools.product((0, 1), repeat=n))
        low_positions = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
        for diag in diag_opts:
            for mask in itertools.product((0, 1), repeat=len(low_positions)):
                ones = tuple(pos for pos, bit in zip(low_positions, mask) if bit)
                pair = make_pair(gf2, diag, ones)
                nonzeros = sum(diag) + len(ones)
                direct = (nonzeros == n
                          and augmented_rank(pair.A, pair.B) == n)
                assert is_canonical(pair) == direct


# -- enumeration ----------------------------------------------------------------


def test_enumerate_counts_are_bell_numbers():
    for n in range(2, 9):
        pairs = enumerate_canonical(n)
        assert len(pairs) == bell(n)
        assert len(set(pairs)) == len(pairs)
        assert pairs == sorted(pairs)
        for pair in pairs:
            assert is_canonical(pair)


def test_enumerate_n2(gf2):
    pairs = enumerate_canonical(2, gf2)
    assert pairs == sorted([
        make_pair(gf2, (1, 1), ()),
        make_pair(gf2, (1, 0), ((2, 1),)),
    ])


def test_enumerate_matches_fixture_table(table_n4, gf2):
    expected = {pair for pair, _ in table_n4}
    assert set(enumerate_canonical(4, gf2)) == expected


def test_enumerate_rejects_small_dimension():
    with pytest.raises(UnsupportedDimension):
        enumerate_canonical(1)


# -- pivots, V, K ----------------------------------------------------------------


def test_pivots_on_seven_dim_fixture(fixture_t7):
    assert select_pivots(fixture_t7.B) == [(3, 2), (5, 4), (6, 3), (7, 1)]


def test_pivots_single_entry(gf5):
    G = LowerTriMatrix.single(gf5, 4, 3, 2, 4)
    assert select_pivots(G) == [(3, 2)]
    assert select_pivots(LowerTriMatrix.zero(gf5, 4)) == []


def test_pivots_unsatisfiable_rows_raise(gf2):
    # Two rows whose only nonzero entries share one column.
    G = LowerTriMatrix.zero(gf2, 4)
    G = G.with_entry(3, 2, 1).with_entry(4, 2, 1)
    with pytest.raises(PivotSelectionFailed):
        select_pivots(G)


def test_build_v_seven_dim_relations(fixture_t7, gf5):
    G = fixture_t7.B
    pivots = select_pivots(G)
    V = build_v(G, pivots)
    assert V.is_unit()
    e, v = G.entry, V.entry
    f = gf5
    assert v(2, 2) == f.inv(e(3, 2))
    assert v(2, 1) == f.mul(f.neg(f.mul(f.inv(e(3, 2)), e(3, 1))), v(1, 1))
    assert v(4, 4) == f.inv(e(5, 4))
    assert v(4, 3) == f.neg(f.mul(f.inv(e(5, 4)), f.mul(e(5, 3), v(3, 3))))
    s = (e(5, 1) * v(1, 1) + e(5, 2) * v(2, 1) + e(5, 3) * v(3, 1)) % 5
    assert v(4, 1) == f.mul(f.neg(f.inv(e(5, 4))), s)
    s = (e(5, 2) * v(2, 2) + e(5, 3) * v(3, 2)) % 5
    assert v(4, 2) == f.mul(f.neg(f.inv(e(5, 4))), s)
    assert v(3, 3) == f.mul(f.inv(e(6, 3)), f.sub(1, f.mul(e(6, 4), v(4, 3))))
    s = (e(6, 1) * v(1, 1) + e(6, 2) * v(2, 1) + e(6, 4) * v(4, 1)) % 5
    assert v(3, 1) == f.mul(f.neg(f.inv(e(6, 3))), s)
    s = (e(6, 2) * v(2, 2) + e(6, 4) * v(4, 2)) % 5
    assert v(3, 2) == f.mul(f.neg(f.inv(e(6, 3))), s)
    s = f.sub(1, (e(7, 2) * v(2, 1) + e(7, 3) * v(3, 1) + e(7, 4) * v(4, 1)) % 5)
    assert v(1, 1) == f.mul(f.inv(e(7, 1)), s)


def test_build_v_singular_system_raises():
    # The zero G gives column 1 the equation 0 v_11 = 1.
    with pytest.raises(SingularSystem, match="V system for column 1 is singular"):
        build_v(LowerTriMatrix.zero(GF(3), 2), [(1, 1)])


def test_build_v_single_constraint(gf5):
    # One pivot whose entry is the only subdiagonal nonzero.
    G = LowerTriMatrix.single(gf5, 3, 3, 2, 4)
    V = build_v(G, [(3, 2)])
    expected = LowerTriMatrix.identity(gf5, 3).with_entry(2, 2, gf5.inv(4))
    assert V == expected


def test_v_step_normalizes_pivots(fixture_t7):
    G = fixture_t7.B
    pivots = select_pivots(G)
    V = build_v(G, pivots)
    H = G * V
    for (i, j) in pivots:
        assert H.entry(i, j) == 1
        for l in range(1, j):
            assert H.entry(i, l) == 0
        for r in range(1, i):
            assert H.entry(r, j) == 0


@pytest.mark.parametrize("n,p,accepted", [(3, 3, 497), (4, 2, 550), (3, 5, 11529)])
def test_build_v_is_a_unit_on_every_accepted_g(n, p, accepted):
    # Every G of T_n that select_pivots accepts: build_v returns a unit V
    # (the Cramer's-rule proof in its docstring), and row i of G V is 1 at
    # column j and 0 left of it, for each pivot (i, j).
    count = 0
    for G in ring_matrices(GF(p), n):
        try:
            pivots = select_pivots(G)
        except PivotSelectionFailed:
            continue
        count += 1
        V = build_v(G, pivots)
        assert V.is_unit()
        H = G * V
        for i, j in pivots:
            assert [H.entry(i, l) for l in range(1, j + 1)] == [0] * (j - 1) + [1]
    assert count == accepted


def test_build_v_raises_on_a_g_the_pivot_search_accepts():
    # The growing minors of select_pivots leave out column 2's system, rows
    # {3, 5} x columns {2, 3}, which is singular here: the one such G of the
    # 13074 that select_pivots accepts at (5,2).
    G = LowerTriMatrix(GF(2), 5, (0, 0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0))
    pivots = select_pivots(G)
    assert pivots == [(3, 3), (4, 1), (5, 2)]
    with pytest.raises(SingularSystem, match="V system for column 2 is singular"):
        build_v(G, pivots)


def test_build_k_seven_dim_entries(fixture_t7, gf5):
    G = fixture_t7.B
    V = build_v(G, select_pivots(G))
    H = G * V
    K = build_k(fixture_t7.A, H)
    f = gf5
    h = H.entry
    expected = LowerTriMatrix.identity(gf5, 7)
    expected = expected.with_entry(6, 5, f.neg(h(6, 4)))
    expected = expected.with_entry(7, 3, f.neg(h(7, 2)))
    expected = expected.with_entry(7, 5, f.sub(f.mul(h(7, 3), h(6, 4)), h(7, 4)))
    expected = expected.with_entry(7, 6, f.neg(h(7, 3)))
    assert K == expected
    L = K * H
    assert is_canonical(ModulePair(fixture_t7.A, L))


def test_build_k_identity_when_clean(gf2):
    pair = make_pair(gf2, (1, 0, 0), ((2, 1), (3, 2)))
    assert build_k(pair.A, pair.B) == LowerTriMatrix.identity(gf2, 3)


def test_build_k_single_residue(gf5):
    # Row 4 pivots on column 1 and carries one residue in column 2, below
    # row 3's pivot; one row operation clears it.
    A = LowerTriMatrix.diagonal(gf5, [1, 1, 0, 0])
    H = (LowerTriMatrix.zero(gf5, 4)
         .with_entry(3, 2, 1).with_entry(4, 1, 1).with_entry(4, 2, 2))
    K = build_k(A, H)
    assert K == LowerTriMatrix.identity(gf5, 4).with_entry(4, 3, gf5.neg(2))
    assert is_canonical(ModulePair(A, K * H))



@pytest.mark.parametrize("diag,cells,message", [
    # Row 2 has a zero diagonal in A and no entry in H.
    ((1, 0), {}, "row 2 of H is zero"),
    # Row 2 leads with 2 instead of 1.
    ((1, 0), {(2, 1): 2}, "not normalized"),
    # Rows 2 and 3 both lead in column 1.
    ((1, 0, 0), {(2, 1): 1, (3, 1): 1}, "above pivot"),
    # Row 2 has a unit diagonal in A but a nonzero row in H.
    ((1, 1), {(2, 1): 1}, "unit row 2"),
])
def test_build_k_rejects_each_shape_violation(gf5, diag, cells, message):
    # build_k's preconditions are explicit raises, so they also hold
    # under python -O.
    A = LowerTriMatrix.diagonal(gf5, list(diag))
    H = LowerTriMatrix.zero(gf5, len(diag))
    for (i, j), v in cells.items():
        H = H.with_entry(i, j, v)
    with pytest.raises(PivotSelectionFailed, match=message):
        build_k(A, H)


# -- certificates ----------------------------------------------------------------


def test_certificate_verification(gf2):
    pair = make_pair(gf2, (1, 0), ((2, 1),))
    ident = Certificate(LowerTriMatrix.identity(gf2, 2), GL2Element.identity(gf2, 2))
    assert verify_certificate(pair, pair, ident)
    swap = GL2Element.swap(gf2, 2)
    moved = act_right(pair, swap)
    assert verify_certificate(pair, moved, Certificate(ident.U, swap))
    tampered = Certificate(LowerTriMatrix.diagonal(gf2, [1, 0]), swap)
    assert not verify_certificate(pair, moved, tampered)


def _tri_mul(p, n, left, right):
    """Packed (LR)_ij = sum over j <= k <= i of L_ik R_kj, mod p: the reference product."""
    out = []
    for i in range(n):
        row = i * (i + 1) // 2
        for j in range(i + 1):
            acc = 0
            for k in range(j, i + 1):
                acc += left[row + k] * right[k * (k + 1) // 2 + j]
            out.append(acc % p)
    return tuple(out)


def _reference_left(pair, U):
    """(U A, U B) by the reference product, or None when U is not a unit."""
    p, n, u = pair.field.p, pair.n, U.entries
    if not all(u[i * (i + 3) // 2] for i in range(n)):
        return None
    return _tri_mul(p, n, u, pair.A.entries), _tri_mul(p, n, u, pair.B.entries)


def _reference_right(p, n, left, Q):
    """(M_A X + M_B W, M_A Y + M_B Z) by four reference products."""
    ma, mb = left

    def add(s, t):
        return tuple((x + y) % p for x, y in zip(s, t))

    return (add(_tri_mul(p, n, ma, Q.X.entries), _tri_mul(p, n, mb, Q.W.entries)),
            add(_tri_mul(p, n, ma, Q.Y.entries), _tri_mul(p, n, mb, Q.Z.entries)))


def _mutations(M, p):
    """Every matrix that differs from M in exactly one entry."""
    e = M.entries
    for t, v in enumerate(e):
        for w in range(p):
            if w != v:
                yield LowerTriMatrix(M.field, M.n, e[:t] + (w,) + e[t + 1:])


@pytest.mark.parametrize("n,p,count", [
    (1, 2, None), (1, 3, None), (1, 5, None), (2, 2, None), (2, 3, None), (3, 2, None),
    (4, 2, 40), (6, 3, 12), (7, 5, 3),
])
def test_certificate_check_matches_a_reference_product_under_mutation(n, p, count):
    # Every free pair at desk scale, or count seed-0 pairs: the certificate
    # of canonicalize, and every single-entry mutation of U, of each block
    # of Q and of the output, get the verdict of the reference products
    # above.  A mutated Q is built unchecked, so it may be singular: the
    # check reads only the product.
    f = GF(p)
    pairs = free_pairs(f, n) if count is None else random_free_pairs(f, n, count, seed=0)
    checked = 0
    verdicts = {True: 0, False: 0}
    for pair in pairs:
        try:
            result, cert, _ = canonicalize(pair)
        except CanonicalizationFailed:
            continue
        U, Q = cert.U, cert.Q
        left = _reference_left(pair, U)
        image = _reference_right(p, n, left, Q)
        assert image == (result.A.entries, result.B.entries)
        assert verify_certificate(pair, result, cert)
        for V in _mutations(U, p):
            moved = _reference_left(pair, V)
            expected = moved is not None and _reference_right(p, n, moved, Q) == image
            verdicts[expected] += 1
            assert verify_certificate(pair, result, Certificate(V, Q)) == expected
        blocks = [Q.X, Q.Y, Q.W, Q.Z]
        for k in range(4):
            for M in _mutations(blocks[k], p):
                R = GL2Element._trusted(*blocks[:k], M, *blocks[k + 1:])
                expected = _reference_right(p, n, left, R) == image
                verdicts[expected] += 1
                assert verify_certificate(pair, result, Certificate(U, R)) == expected
        for out in ([ModulePair(A, result.B) for A in _mutations(result.A, p)]
                    + [ModulePair(result.A, B) for B in _mutations(result.B, p)]):
            assert not verify_certificate(pair, out, cert)
        checked += 1
    assert checked and verdicts[True] and verdicts[False]


def _random_lower(rng, f, n, diagonal, below):
    """A LowerTriMatrix with diagonal entries from ``diagonal()`` and the rest from ``below()``."""
    return LowerTriMatrix(f, n, [diagonal() if c == r else below()
                                 for r in range(n) for c in range(r + 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_certificate_check_is_a_generic_product_on_dense_q(n):
    # A random unit U and a Q whose X - I and Z - I are nonzero below the
    # diagonal and whose W and Y are dense, with invertible diagonal
    # cells: a shape that neither the closed form nor the row pass
    # produces.  verify_certificate must agree with the reference products
    # on the certificate and on every single-entry mutation of U and of
    # each block of Q, and reject every single-entry mutation of the output.
    rng = random.Random(n)
    for p in (2, 3, 5, 7):
        f = GF(p)
        nonzero = lambda: rng.randrange(1, p)  # noqa: E731
        anything = lambda: rng.randrange(p)  # noqa: E731
        verdicts = {True: 0, False: 0}
        for _ in range(2):
            pair = ModulePair(_random_lower(rng, f, n, anything, anything),
                              _random_lower(rng, f, n, anything, anything))
            U = _random_lower(rng, f, n, nonzero, anything)
            cells = []
            while len(cells) < n:
                cell = [rng.randrange(p) for _ in range(4)]
                if (cell[0] * cell[3] - cell[1] * cell[2]) % p:
                    cells.append(cell)
            diagonals = [iter(column) for column in zip(*cells)]
            X, Y, W, Z = (_random_lower(rng, f, n, d.__next__, nonzero) for d in diagonals)
            Q = GL2Element(X, Y, W, Z)
            image = _reference_right(p, n, _reference_left(pair, U), Q)
            out = ModulePair(LowerTriMatrix(f, n, image[0]), LowerTriMatrix(f, n, image[1]))
            assert verify_certificate(pair, out, Certificate(U, Q))
            for V in _mutations(U, p):
                moved = _reference_left(pair, V)
                expected = moved is not None and _reference_right(p, n, moved, Q) == image
                verdicts[expected] += 1
                assert verify_certificate(pair, out, Certificate(V, Q)) == expected
            blocks = [X, Y, W, Z]
            for k in range(4):
                for M in _mutations(blocks[k], p):
                    R = GL2Element._trusted(*blocks[:k], M, *blocks[k + 1:])
                    expected = _reference_right(p, n, _reference_left(pair, U), R) == image
                    verdicts[expected] += 1
                    assert verify_certificate(pair, out, Certificate(U, R)) == expected
            for other in ([ModulePair(A, out.B) for A in _mutations(out.A, p)]
                          + [ModulePair(out.A, B) for B in _mutations(out.B, p)]):
                assert not verify_certificate(pair, other, Certificate(U, Q))
        assert verdicts[False]


def test_certificate_check_rejects_mismatched_q_and_non_pairs():
    # A Q of another dimension or field raises, as act_right does; an
    # output that is not a pair, or is a pair of another dimension or
    # field, is rejected.
    f = GF(3)
    pair = random_free_pairs(f, 3, 1, seed=0)[0]
    result, cert, _ = canonicalize(pair)
    for other in (GL2Element.identity(f, 4), GL2Element.identity(GF(5), 3)):
        with pytest.raises(DimensionMismatch):
            verify_certificate(pair, result, Certificate(cert.U, other))
    for out in (None, (result.A, result.B), Submodule(result),
                ModulePair(LowerTriMatrix.identity(f, 4), LowerTriMatrix.zero(f, 4)),
                ModulePair(LowerTriMatrix(GF(5), 3, result.A.entries),
                           LowerTriMatrix(GF(5), 3, result.B.entries))):
        assert not verify_certificate(pair, out, cert)


# -- canonicalize ----------------------------------------------------------------


def test_canonicalize_rejects_non_free(gf2):
    Z = LowerTriMatrix.zero(gf2, 2)
    with pytest.raises(NotFree):
        canonicalize(ModulePair(Z, Z))
    # Rank n - 1: the last row of [A|B] is the sum of two rows above it.
    A3 = LowerTriMatrix.from_rows(gf2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    A5 = LowerTriMatrix.diagonal(gf2, [1, 1, 1, 1, 0]).with_entry(5, 1, 1).with_entry(5, 4, 1)
    B5 = LowerTriMatrix.zero(gf2, 5).with_entry(2, 1, 1).with_entry(4, 3, 1).with_entry(5, 3, 1)
    for pair in (ModulePair(A3, LowerTriMatrix.zero(gf2, 3)), ModulePair(A5, B5)):
        assert augmented_rank(pair.A, pair.B) == pair.n - 1
        assert 0 in jump_map(pair)
        with pytest.raises(NotFree):
            canonicalize(pair)


def test_canonicalize_fixes_canonical_pairs(gf2):
    for n in (2, 3, 4, 5):
        for pair in enumerate_canonical(n, gf2):
            result, cert, trace = canonicalize(pair)
            assert result == pair
            assert cert.U == LowerTriMatrix.identity(gf2, n)
            assert cert.Q == GL2Element.identity(gf2, n)
            assert len(trace) == 0


# -- the unimodular closed form --------------------------------------------------


def _unimodular_pairs(n, p):
    f = GF(p)
    for A in ring_matrices(f, n):
        for B in ring_matrices(f, n):
            pair = ModulePair(A, B)
            if pair.is_unimodular():
                yield pair


def _identity_zero(field, n):
    return ModulePair(LowerTriMatrix.identity(field, n), LowerTriMatrix.zero(field, n))


CLOSED_FORM_LABELS = ["diagonal_clearing", "row_clearing", "b_transvection"]


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_unimodular_pairs_take_the_closed_form(n, p, monkeypatch):
    # Every unimodular pair: the lemma of ModulePair.is_unimodular (full
    # rank, identity jump map), then (I, 0) with a certificate that checks,
    # at most three stages that compose to it, in their fixed order, and
    # no group action: the certificate self-check multiplies packed entries.
    f = GF(p)
    target = _identity_zero(f, n)
    one = LowerTriMatrix.identity(f, n)
    calls = 0

    def counting_act_right(*args):
        nonlocal calls
        calls += 1
        return act_right(*args)

    monkeypatch.setattr("triorbit.canonical.act_right", counting_act_right)
    checked = 0
    for pair in _unimodular_pairs(n, p):
        assert augmented_rank(pair.A, pair.B) == n
        assert jump_map(pair) == tuple(range(1, n + 1))
        calls = 0
        result, cert, trace = canonicalize(pair)
        assert calls == 0
        assert result == target
        assert verify_certificate(pair, result, cert)
        labels = [stage.label for stage in trace]
        assert labels == [label for label in CLOSED_FORM_LABELS if label in labels]
        assert trace.pivots == []
        U, Q, current = one, GL2Element.identity(f, n), pair
        for stage in trace:
            if stage.side == "left":
                U = stage.factor * U
                current = act_left_unit(stage.factor, current)
            else:
                Q = Q * stage.factor
                current = act_right(current, stage.factor)
            assert current == stage.pair
        assert (U, Q) == (cert.U, cert.Q)
        checked += 1
    # (a_ii, b_ii) ranges over the p^2 - 1 nonzero cells, the rest freely.
    assert checked == (p * p - 1) ** n * p ** (n * (n - 1))


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_general_reduction_agrees_on_unimodular_pairs(n, p):
    # The reference for the closed form: the general reduction, run on a
    # unimodular pair, ends on (I, 0) too, with no search step and no pivot.
    target = _identity_zero(GF(p), n)
    for pair in _unimodular_pairs(n, p):
        result, cert, stages, pivots = _reduce_general(pair)
        assert pivots == []
        assert result == target
        assert "search" not in [stage.label for stage in stages]
        assert verify_certificate(pair, result, cert)


def _check_row_pass(pair):
    """Run ``_reduce_rows`` straight from ``pair`` and check where it ends.

    Every recorded stage is replayed: its factor times the previous pair
    must give its pair, so the c(j) that ``column_reduction`` records by
    proof is checked against the product it stands for.  On a pair that
    never cleans or searches, ``_reduce_general`` returns the same and the
    pivots.
    """
    jumps = jump_map(pair)
    result, cert, stages = _reduce_rows(pair, _row_pass(pair.A, pair.B, record=True))
    current = pair
    for stage in stages:
        if stage.side == "left":
            current = act_left_unit(stage.factor, current)
        else:
            current = act_right(current, stage.factor)
        assert current == stage.pair, stage.label
    assert current == result
    assert is_canonical(result)
    assert jump_map(result) == jumps
    assert verify_certificate(pair, result, cert)
    if not _cleaned_offense(pair):
        again, again_cert, _, pivots = _reduce_general(pair)
        assert (again, again_cert.U, again_cert.Q) == (result, cert.U, cert.Q)
        assert pivots == [(r, c) for r, c in enumerate(jumps, start=1) if c != r]
    assert "search" not in [stage.label for stage in stages]


@pytest.mark.parametrize("n,p,expected", [(2, 2, 42), (2, 3, 624), (3, 2, 2520)])
def test_row_pass_reaches_the_canonical_pair_of_every_free_pair(n, p, expected):
    # Every free pair with a canonical jump map, unimodular or not: the row
    # pass ends on c(j), the canonical pair of the input's jump map j, with
    # a certificate that checks and the moved values of j as pivots.
    checked = 0
    for pair in free_pairs(GF(p), n):
        if is_canonical_jump_map(jump_map(pair)):
            _check_row_pass(pair)
            checked += 1
    assert checked == expected


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
def test_row_pass_on_every_key_under_seeded_units(n, p):
    # Each key's least pair under one seeded unit; the keys whose jump map
    # is not canonical are counted and skipped.
    checked = skipped = 0
    for pair in _key_unit_pairs(n, p, 1):
        if is_canonical_jump_map(jump_map(pair)):
            _check_row_pass(pair)
            checked += 1
        else:
            skipped += 1
    # The 9 keys of the orbit without a canonical pair at (4,2).
    assert checked and skipped == (9 if (n, p) == (4, 2) else 0)


@pytest.mark.parametrize("n,p", [(8, 3), (10, 2)])
def test_row_pass_on_large_seeded_pairs(n, p):
    # The pass costs O(n^3) per pair and never searches: 300 pairs take
    # under 0.1 s on a 2-core host, and the bound leaves 20x of that.
    pairs = [pair for pair in random_free_pairs(GF(p), n, 300, seed=n * p)
             if is_canonical_jump_map(jump_map(pair))]
    start = time.perf_counter()
    for pair in pairs:
        _reduce_rows(pair, _row_pass(pair.A, pair.B, record=True))
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    assert len(pairs) > 250
    for pair in pairs:
        _check_row_pass(pair)


@pytest.mark.parametrize("n,p,count", [(4, 2, 2000), (3, 3, 2000)])
def test_canonicalize_runs_one_row_pass_unless_it_searches(n, p, count, monkeypatch):
    # The seeded samples of test_search_totals_on_seeded_pairs.  A unimodular
    # pair runs no row pass, another pair that scores 0 exactly one, which
    # also decides NotFree and CanonicalizationFailed, and a pair that
    # cleans or searches at most two.
    passes = 0

    def counting_row_pass(*args, **kwargs):
        nonlocal passes
        passes += 1
        return _row_pass(*args, **kwargs)

    monkeypatch.setattr("triorbit.canonical._row_pass", counting_row_pass)
    seen = {"unimodular": 0, "one pass": 0, "search": 0}
    for pair in random_free_pairs(GF(p), n, count, 0):
        passes = 0
        try:
            canonicalize(pair)
        except CanonicalizationFailed:
            assert passes == 1
            continue
        if pair.is_unimodular():
            assert passes == 0
            seen["unimodular"] += 1
        elif _cleaned_offense(pair) == 0:
            assert passes == 1
            seen["one pass"] += 1
        else:
            assert passes <= 2
            seen["search"] += 1
    assert all(seen.values())


def _seeded_unimodular_pair(field, n, rng):
    p = field.p
    m = n * (n + 1) // 2
    a = [rng.randrange(p) for _ in range(m)]
    b = [rng.randrange(p) for _ in range(m)]
    for i in range(n):
        d = i * (i + 1) // 2 + i
        while not (a[d] or b[d]):
            a[d], b[d] = rng.randrange(p), rng.randrange(p)
    return ModulePair(LowerTriMatrix(field, n, a), LowerTriMatrix(field, n, b))


@pytest.mark.parametrize("n,p", [(12, 5), (20, 2)])
def test_closed_form_on_large_seeded_unimodular_pairs(n, p):
    # The closed form costs O(n^3) per pair and never searches: 40 pairs
    # take under 0.1 s on a 2-core host, and the bound leaves 20x of that.
    f = GF(p)
    rng = random.Random(n * p)
    pairs = [_seeded_unimodular_pair(f, n, rng) for _ in range(40)]
    start = time.perf_counter()
    results = [canonicalize(pair) for pair in pairs]
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    target = _identity_zero(f, n)
    for pair, (result, cert, trace) in zip(pairs, results):
        assert result == target
        assert verify_certificate(pair, result, cert)
        assert len(trace) <= 3


def _reference_closed_form(pair):
    """The closed form's stages, from its formula, through the public products.

    g1 has the diagonal cells (a^-1, -b a^-1; 0, 1) where a = a_ii != 0
    and (0, -1; b^-1, 0) where a_ii = 0, and (A', B') = (A X1 + B W1, A Y1
    + B Z1).  Then U = A'^-1 by ``LowerTriMatrix.inverse``, B'' = U B', and
    Q = g1 upper(-B'') by ``GL2Element.__mul__``.  A stage is listed unless
    its factor is the identity.
    """
    f, n, p = pair.field, pair.n, pair.field.p
    one, zero = LowerTriMatrix.identity(f, n), LowerTriMatrix.zero(f, n)
    cells = []
    for a, b in zip(pair.A.diag(), pair.B.diag()):
        if a:
            cells.append((pow(a, -1, p), -b * pow(a, -1, p) % p, 0, 1))
        else:
            cells.append((0, p - 1, pow(b, -1, p), 0))
    X1, Y1, W1, Z1 = (LowerTriMatrix.diagonal(f, list(values)) for values in zip(*cells))
    g1 = GL2Element(X1, Y1, W1, Z1)
    A1 = pair.A * X1 + pair.B * W1
    B1 = pair.A * Y1 + pair.B * Z1
    U = A1.inverse()
    B2 = U * B1
    g2 = GL2Element.upper(-B2)
    stages = [("diagonal_clearing", "right", g1, ModulePair(A1, B1)),
              ("row_clearing", "left", U, ModulePair(one, B2)),
              ("b_transvection", "right", g2, ModulePair(one, zero))]
    identities = (GL2Element.identity(f, n), one, GL2Element.identity(f, n))
    stages = [stage for stage, e in zip(stages, identities) if stage[2] != e]
    return ModulePair(one, zero), U, g1 * g2, stages


@pytest.mark.parametrize("n,p,count", [(2, 2, None), (2, 3, None), (3, 2, None),
                                       (6, 3, 300), (7, 5, 200)])
def test_closed_form_matches_the_reference(n, p, count):
    # Every unimodular pair at desk scale, or seeded ones: the result, U, Q
    # and every stage's label, side, factor and pair equal the reference,
    # which builds them through the public products and inverse, not
    # through the closed form's code.
    f = GF(p)
    if count is None:
        pairs = list(_unimodular_pairs(n, p))
    else:
        rng = random.Random(n * p)
        pairs = [_seeded_unimodular_pair(f, n, rng) for _ in range(count)]
    kinds = set()
    for pair in pairs:
        result, cert, trace = canonicalize(pair)
        expected, U, Q, stages = _reference_closed_form(pair)
        assert (result, cert.U, cert.Q) == (expected, U, Q)
        assert [(s.label, s.side, s.factor, s.pair) for s in trace] == stages
        assert trace.pivots == []
        kinds.add(tuple(stage[0] for stage in stages))
    # Every subset of the three stages occurs, the empty one only for (I, 0).
    assert len(kinds) == (8 if count is None else 1)


@pytest.mark.parametrize("n,p,count,labels", [
    (2, 2, None, {"column_reduction"}),
    (2, 3, None, {"column_reduction"}),
    (3, 2, None, {"diagonal_clearing", "column_reduction", "similarity_right", "search"}),
    (6, 3, 1000, {"diagonal_clearing", "column_reduction", "similarity_right", "search"}),
    (7, 5, 400, {"diagonal_clearing", "column_reduction", "similarity_right", "search"}),
])
def test_left_stage_factors_and_right_stage_labels(n, p, count, labels):
    # Every right factor's column moves come from the one scan,
    # GL2Element._column_moves, so the right stages are only pinned by
    # label: the set of labels that occur in the traces.  Each left
    # stage's factor must be a unit that takes the pair before it to its
    # pair.  Every free pair at desk scale, or the first seed-0 pairs; only
    # a pair whose orbit holds no canonical pair may raise.  Unimodular
    # pairs take the closed form, whose labels are its own;
    # test_closed_form_matches_the_reference covers those factors.
    f = GF(p)
    seen = set()
    pairs = free_pairs(f, n) if count is None else random_free_pairs(f, n, count, 0)
    for pair in pairs:
        try:
            _, _, trace = canonicalize(pair)
        except CanonicalizationFailed:
            assert not is_canonical_jump_map(jump_map(pair))
            continue
        if pair.is_unimodular():
            continue
        previous = pair
        for stage in trace:
            if stage.side == "left":
                assert act_left_unit(stage.factor, previous) == stage.pair, stage.label
            else:
                seen.add(stage.label)
            previous = stage.pair
    assert seen == labels


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_diagonal_cells_equal_the_checked_element(n, p):
    # GL2Element._diagonal_cells builds both kinds of diagonal-cell factor
    # unchecked: the B-diagonal clearing's (1, -a^-1 b; 0, 1) or (0, -1;
    # 1, 0), and the closed form's (a^-1, -b a^-1; 0, 1) or (0, -1; b^-1,
    # 0).  On seeded diagonals each must equal the element that the checked
    # constructor builds from the same diagonal blocks, and act on a seeded
    # pair as the public products (A X + B W, A Y + B Z) do.
    f = GF(p)
    rng = random.Random(10 * n + p)
    for _ in range(40):
        diag = []
        for _ in range(n):
            a, b = rng.randrange(p), rng.randrange(p)
            while not (a or b):
                a, b = rng.randrange(p), rng.randrange(p)
            diag.append((a, b))
        clearing = [(1, -pow(a, -1, p) * b % p, 0, 1) if a else (0, p - 1, 1, 0)
                    for a, b in diag]
        closed = [(pow(a, -1, p), -b * pow(a, -1, p) % p, 0, 1) if a
                  else (0, p - 1, pow(b, -1, p), 0) for a, b in diag]
        A, B = (LowerTriMatrix(f, n, [rng.randrange(p) for _ in range(n * (n + 1) // 2)])
                for _ in range(2))
        for cells in (clearing, closed):
            g = GL2Element._diagonal_cells(f, n, *zip(*cells))
            X, Y, W, Z = (LowerTriMatrix.diagonal(f, list(v)) for v in zip(*cells))
            assert g == GL2Element(X, Y, W, Z)
            assert act_right(ModulePair(A, B), g) == ModulePair(A * X + B * W, A * Y + B * Z)


def _transvection_product_by_columns(field, n, moves):
    # The product as a column-update loop, independent of the row-move
    # kernel that builds it in the library: each factor I + t e_ij
    # right-multiplies the running product, column j += t * column i,
    # which is nonzero from row i on.
    p = field.p
    rows = [[int(r == c) for c in range(r + 1)] for r in range(n)]
    for i, j, t in moves:
        for row in rows[i:]:
            row[j] = (row[j] + t * row[i]) % p
    return tuple(v for row in rows for v in row)


@pytest.mark.parametrize("n,p", list(itertools.product(range(2, 8), (2, 3, 5))))
def test_transvection_product_matches_the_column_loop(n, p):
    # Seeded move lists, empty ones included, with values unreduced as the
    # reduction passes them (t in (-p, p)).  At n >= 3 the lists hold
    # transvections that do not commute, so the order of the product shows.
    f = GF(p)
    rng = random.Random(100 * n + p)
    one = LowerTriMatrix.identity(f, n)
    for length in [0] * 3 + [rng.randrange(1, 3 * n) for _ in range(200)]:
        moves = []
        for _ in range(length):
            i = rng.randrange(1, n)
            moves.append((i, rng.randrange(i), rng.randrange(1 - p, p)))
        product = _transvection_product(f, n, moves)
        assert product.entries == _transvection_product_by_columns(f, n, moves)
        if length <= 3:
            # And against the public product of the factors.
            expected = one
            for i, j, t in moves:
                expected = expected * one.with_entry(i + 1, j + 1, t % p)
            assert product == expected


def test_seven_dim_full_reduction(fixture_t7, gf5):
    result, cert, trace = canonicalize(fixture_t7)
    expected = make_pair(gf5, (1, 1, 0, 1, 0, 0, 0),
                         ((3, 2), (5, 4), (6, 3), (7, 1)))
    assert result == expected
    assert verify_certificate(fixture_t7, result, cert)


def test_nilpotent_entanglement_example(gf2):
    A = LowerTriMatrix.from_rows(gf2, [[1, 0, 0], [0, 0, 0], [0, 1, 0]])
    B = LowerTriMatrix.single(gf2, 3, 2, 1)
    result, cert, trace = canonicalize(ModulePair(A, B))
    assert result == make_pair(gf2, (1, 0, 0), ((2, 1), (3, 2)))
    assert verify_certificate(ModulePair(A, B), result, cert)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_canonicalize_exhaustive_soundness(n, p):
    f = GF(p)
    outputs = set()
    for pair in free_pairs(f, n):
        result, cert, trace = canonicalize(pair)
        assert is_canonical(result)
        assert verify_certificate(pair, result, cert)
        outputs.add(result)
    assert len(outputs) == bell(n)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2)])
def test_canonicalize_constant_on_orbits(n, p):
    f = GF(p)
    gens = gl2_generators(f, n)
    units = list(unit_matrices(f, n))
    for pair in itertools.islice(free_pairs(f, n), 0, None, 5):
        base, _, _ = canonicalize(pair)
        for g in gens:
            moved = act_right(pair, g)
            assert canonicalize(moved)[0] == base
        for u in units:
            assert canonicalize(act_left_unit(u, pair))[0] == base


@pytest.mark.parametrize("n,p", [(4, 2), (4, 3), (5, 2)])
def test_canonicalize_random_samples(n, p):
    f = GF(p)
    profiles = reachable_profiles(n)
    for pair in random_free_pairs(f, n, 300, seed=11):
        if span_profile(pair) not in profiles:
            with pytest.raises(CanonicalizationFailed):
                canonicalize(pair)
            continue
        result, cert, trace = canonicalize(pair)
        assert is_canonical(result)
        assert verify_certificate(pair, result, cert)


def test_orbit_invariance_random_moves(gf2):
    import random

    rng = random.Random(5)
    f = gf2
    n = 4
    gens = gl2_generators(f, n)
    units = list(unit_matrices(f, n))
    profiles = reachable_profiles(n)
    pairs = [x for x in random_free_pairs(f, n, 60, seed=3)
             if span_profile(x) in profiles]
    for pair in pairs:
        base, _, _ = canonicalize(pair)
        moved = pair
        for _ in range(4):
            moved = act_right(moved, rng.choice(gens))
        moved = act_left_unit(rng.choice(units), moved)
        assert canonicalize(moved)[0] == base


def test_trace_stages_compose_to_certificate():
    # Each stage's factor takes the pair before it to its pair, the last
    # pair is the result, and the certificate is the stages' product: U is
    # the left factors multiplied last first, Q the right factors in order.
    # Every free pair at (2,2), (2,3) and (3,2), and seeded samples at
    # (4,2), (4,3) and (6,3); the last two search.
    searched = 0
    samples = [(n, p, free_pairs(GF(p), n)) for n, p in ((2, 2), (2, 3), (3, 2))]
    samples += [(n, p, random_free_pairs(GF(p), n, count, seed=seed))
                for n, p, count, seed in ((4, 2, 40, 9), (4, 3, 600, 7), (6, 3, 200, 7))]
    for n, p, pairs in samples:
        f = GF(p)
        for pair in pairs:
            if not is_canonical_jump_map(jump_map(pair)):
                continue
            result, cert, trace = canonicalize(pair)
            current = pair
            U, Q = LowerTriMatrix.identity(f, n), GL2Element.identity(f, n)
            for stage in trace:
                if stage.side == "left":
                    current = act_left_unit(stage.factor, current)
                    U = stage.factor * U
                else:
                    current = act_right(current, stage.factor)
                    Q = Q * stage.factor
                assert current == stage.pair
            assert current == result
            assert (U, Q) == (cert.U, cert.Q)
            searched += (n, p) in ((4, 3), (6, 3)) and trace.search_activated
    assert searched >= 5


def _full_output(pair):
    """Everything ``canonicalize`` returns for ``pair``, as plain tuples, or the error it raises."""
    def packed(x):
        if isinstance(x, GL2Element):
            return (x.X.entries, x.Y.entries, x.W.entries, x.Z.entries)
        if isinstance(x, ModulePair):
            return (x.A.entries, x.B.entries)
        return x.entries

    try:
        result, cert, trace = canonicalize(pair)
    except (CanonicalizationFailed, NotFree) as exc:
        return (type(exc).__name__, str(exc))
    return (packed(result), packed(cert.U), packed(cert.Q),
            tuple((s.label, s.side, packed(s.factor), packed(s.pair)) for s in trace),
            tuple(trace.pivots), trace.search_steps)


# The sha256 of _full_output over the seed-7 samples below, recorded
# before the reduction returned its certificate from its factors; deleting
# the word search moves it.
SEED7_OUTPUT_SHA256 = {
    (4, 3, 1000): "e772e2397555bcd2c47b06e31f0eb605e012e2435068dc37a1f57336f59126f4",
    (6, 3, 300): "c27f48e0c8e369df4f3f9e4e228d1e51923e61c5f926982df2e9dc981e5e7fab",
}


@pytest.mark.parametrize("n,p,count", sorted(SEED7_OUTPUT_SHA256))
def test_canonicalize_output_is_pinned(n, p, count):
    # The result, U, Q, every stage's label, side, factor and pair, the
    # pivots and the search steps, or the error raised, of every pair.
    digest = hashlib.sha256()
    searched = 0
    for pair in random_free_pairs(GF(p), n, count, 7):
        output = _full_output(pair)
        digest.update(repr(output).encode())
        searched += len(output) > 2 and output[-1] > 0
    assert searched
    assert digest.hexdigest() == SEED7_OUTPUT_SHA256[n, p, count]


def test_search_reduced_states_flagged(gf2):
    # This input needs moves beyond the deterministic passes; the trace
    # must show them.
    A = LowerTriMatrix.single(gf2, 3, 1, 1)
    B = LowerTriMatrix.zero(gf2, 3).with_entry(2, 1, 1).with_entry(3, 2, 1)
    C = A + LowerTriMatrix.single(gf2, 3, 3, 2)
    pair = ModulePair(C, B)
    result, cert, trace = canonicalize(pair)
    assert trace.search_activated
    assert is_canonical(result)


def _offense(pair):
    """Entries of the A part (plus B diagonal) blocking canonical shape.

    These are the diagonal entries of A outside {0, 1}, the nonzero
    diagonal entries of B and the nonzero entries of A below its diagonal:
    the reference for ``_cleaned_offense``, counted on a recorded cleanup.
    """
    adiag = pair.A.diag()
    below = sum(1 for v in pair.A.entries if v) - sum(1 for a in adiag if a)
    return below + sum(1 for a in adiag if a > 1) + sum(1 for b in pair.B.diag() if b)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(2, 8))
def test_cleaned_offense_equals_offense_after_cleanup(n, p):
    # The search's A-only score against a recorded cleanup of the pair, on
    # seeded pairs and 6-step generator walks from them.
    f = GF(p)
    gens = gl2_generators(f, n)
    rng = random.Random(n * p)
    swapped = 0
    for pair in random_free_pairs(f, n, 20, seed=p):
        node = pair
        for _ in range(7):
            assert _cleaned_offense(node) == _offense(_cleanup(node, []))
            swapped += any(a == 0 and b for a, b in zip(node.A.diag(), node.B.diag()))
            node = act_right(node, rng.choice(gens))
    # Some inputs take columns of B into A' (b_cc != 0 where a_cc = 0).
    assert swapped



@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(2, 8))
def test_one_pass_score_equals_offense_after_the_full_sweep(n, p):
    # The search's score runs only the similarity pass.  The reference
    # builds A' from full rows (column c of B wherever a_cc = 0, when some
    # b_cc != 0), runs all three passes of _sweep_a and counts the nonzero
    # entries left below the diagonal.
    rng = random.Random(1000 * n + p)
    f = GF(p)
    swapped = plain = 0
    for _ in range(80):
        # Half the entries of A zero, so zero diagonals and nilpotent
        # blocks occur; B's diagonal nonzero a third of the time.
        A = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(r + 1)]
             for r in range(n)]
        B = [[rng.randrange(p) for _ in range(r)]
             + [rng.randrange(1, p) if rng.random() < 1 / 3 else 0] for r in range(n)]
        pair = ModulePair(LowerTriMatrix(f, n, [v for row in A for v in row]),
                          LowerTriMatrix(f, n, [v for row in B for v in row]))
        rows = [list(row) for row in A]
        if any(B[c][c] for c in range(n)):
            for c in range(n):
                if A[c][c] == 0:
                    for r in range(c, n):
                        rows[r][c] = B[r][c]
            swapped += any(A[c][c] == 0 and B[c][c] for c in range(n))
        else:
            plain += 1
        for _ in _sweep_a(rows, p):
            pass
        expected = sum(1 for r in range(n) for v in rows[r][:r] if v)
        assert _cleaned_offense(pair) == expected
    assert swapped and plain


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(2, 8))
def test_sweep_a_leaves_only_nilpotent_entries_below_the_diagonal(n, p):
    # After the similarity pass a nonzero a_ij below the diagonal has
    # a_ii = a_jj; after the remaining passes a_ii = a_jj = 0, so no entry
    # right of a unit diagonal is left for column operations to clear.
    rng = random.Random(100 * n + p)
    m = n * (n + 1) // 2
    for _ in range(60):
        # Half the entries zero, so zero diagonals and nilpotent blocks occur.
        entries = [rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(m)]
        rows = _lower_rows(LowerTriMatrix(GF(p), n, entries))
        below = [(i, j) for i in range(1, n) for j in range(i)]
        sweep = _sweep_a(rows, p)
        next(sweep)
        assert all(rows[i][i] == rows[j][j] for i, j in below if rows[i][j])
        for _ in sweep:
            pass
        assert all(rows[i][i] == rows[j][j] == 0 for i, j in below if rows[i][j])
        assert all(v in (0, 1) for r, row in enumerate(rows) for v in row[r:])


def _key_unit_pairs(n, p, per_key):
    """Each key's least pair under ``per_key`` seeded units."""
    f = GF(p)
    units = list(unit_matrices(f, n))
    rng = random.Random(n * p)
    for key in _free_submodule_keys(f, n):
        pair = _key_pair(f, key)
        for u in rng.sample(units, per_key):
            yield ModulePair(u * pair.A, u * pair.B)


@pytest.mark.parametrize("n,p,per_key", [
    (2, 3, 3), (3, 2, 3), (3, 3, 1), (4, 2, 1), (6, 3, 0),
])
def test_trailing_pivots_are_the_pivot_search_and_k_is_identity(n, p, per_key):
    # canonicalize runs neither the paper's pivot search nor its K step:
    # select_pivots on the result's B must return the trace's pivots, and
    # build_k on the result must return the identity.  Every key under
    # per_key seeded units, or 500 seed-0 pairs where per_key is 0.
    pairs = (_key_unit_pairs(n, p, per_key) if per_key
             else random_free_pairs(GF(p), n, 500, seed=0))
    one = LowerTriMatrix.identity(GF(p), n)
    checked = 0
    for pair in pairs:
        try:
            result, _, trace = canonicalize(pair)
        except CanonicalizationFailed:
            continue
        assert select_pivots(result.B) == trace.pivots
        assert build_k(result.A, result.B) == one
        checked += 1
    assert checked


# Calls of ``triorbit.canonical.act_right`` over the same samples: one per
# search child built and per recorded right move that acts;
# column_reduction records the pair its proof fixes and makes none, and the
# certificate self-check multiplies packed entries and makes none.  The
# search's first-layer pre-scan decides every first-layer child by rank on
# the cleaned pair and builds only the one it returns, so a search that
# ends in its first layer makes one call.  perfbench's action cap counts
# these calls.
# Each entry is (all calls, calls on non-unimodular pairs); they are equal,
# since only the search and the cleanup act, and unimodular pairs take the
# closed form, which computes its stages from their formula and makes none.
SEED0_ACT_RIGHT_CALLS = {(4, 2): (2361, 2361), (5, 2): (10267, 10267), (3, 3): (50, 50)}


@pytest.mark.parametrize("n,p,count,steps,searched", [
    (4, 2, 2000, 140, 127),
    (5, 2, 300, 59, 42),
    (3, 3, 2000, 14, 14),
])
def test_search_totals_on_seeded_pairs(n, p, count, steps, searched, monkeypatch):
    # Search steps and searching pairs over seed-0 samples, as measured
    # before the search scored nodes on A alone: the score and the search
    # order fix every word, so these totals pin both.
    actions = 0

    def counting_act_right(*args):
        nonlocal actions
        actions += 1
        return act_right(*args)

    monkeypatch.setattr("triorbit.canonical.act_right", counting_act_right)
    total = pairs = others = 0
    for pair in random_free_pairs(GF(p), n, count, 0):
        start = actions
        try:
            _, _, trace = canonicalize(pair)
        except CanonicalizationFailed:
            continue
        finally:
            if not pair.is_unimodular():
                others += actions - start
        total += trace.search_steps
        pairs += trace.search_activated
    assert (total, pairs, (actions, others)) == (steps, searched, SEED0_ACT_RIGHT_CALLS[n, p])



class _Censored(BaseException):
    """Raised inside canonicalize once a call exceeds the action cap."""


def test_search_totals_at_the_canon_6_3_configuration(monkeypatch):
    # The benchmark's canon-6-3 configuration: the first 1000 seed-0 pairs
    # at (6,3), each call cut after 2000 calls of
    # ``triorbit.canonical.act_right``.  Pins the search steps, the
    # searching pairs, the actions (all, and on non-unimodular pairs) and
    # the cut calls there.
    cap = 2000
    calls = actions = others = 0

    def capped_act_right(*args):
        nonlocal calls, actions
        calls += 1
        actions += 1
        if calls > cap:
            raise _Censored
        return act_right(*args)

    monkeypatch.setattr("triorbit.canonical.act_right", capped_act_right)
    steps = searched = censored = 0
    for pair in random_free_pairs(GF(3), 6, 1000, 0):
        calls = 0
        try:
            _, _, trace = canonicalize(pair)
        except CanonicalizationFailed:
            continue
        except _Censored:
            censored += 1
            continue
        finally:
            if not pair.is_unimodular():
                others += calls
        steps += trace.search_steps
        searched += trace.search_activated
    assert (steps, searched, actions, others, censored) == (50, 48, 607, 607, 0)


def _reference_search_word(pair, generators):
    """The word search as it ran before its first-layer pre-scan: the reference."""
    base = _cleaned_offense(pair)
    counter = itertools.count()
    heap = []
    seen = {(pair.A.entries, pair.B.entries)}
    best = None

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


@pytest.mark.parametrize("n,p,count", [(4, 2, 2000), (3, 3, 2000), (5, 2, 300), (6, 3, 1000)])
def test_search_prescan_skips_only_nonzero_children(n, p, count, monkeypatch):
    # At every search of canonicalize on seed-0 pairs: the pair is the
    # cleaned one the pre-scan needs (score above zero, zero B diagonal);
    # every generator with W = 0 and y_ii = 0 wherever a_ii != 0 yields a
    # child scoring at least 1; and the word equals that of the search
    # without pre-scan.
    # The pre-scan decides the cleaned pair by rank, so the search's first
    # act_right call is the child it returns, or the best-first body's
    # first child: the pre-scan makes at most one call.
    calls = skipped = first_layer = 0
    acted = []

    def logging_act_right(pair, g):
        acted.append(g)
        return act_right(pair, g)

    def checked_search_word(pair, generators, kinds):
        nonlocal calls, skipped, first_layer
        assert _cleaned_offense(pair) >= 1 and not any(pair.B.diag())
        units = [i for i in range(1, n + 1) if pair.A.entry(i, i)]
        for g in generators:
            skip = not any(g.W.entries) and all(g.Y.entry(i, i) == 0 for i in units)
            if skip:
                assert _cleaned_offense(act_right(pair, g)) >= 1
                skipped += 1
        zeros = _first_layer_zeros(pair, kinds)
        acted.clear()
        word = _search_word(pair, generators, kinds)
        if zeros:
            assert acted == [generators[zeros[0]]]
        else:
            assert acted[:len(generators)] == list(generators)
        assert word == _reference_search_word(pair, generators)
        calls += 1
        first_layer += word is not None and len(word) == 1
        return word

    monkeypatch.setattr("triorbit.canonical.act_right", logging_act_right)
    monkeypatch.setattr("triorbit.canonical._search_word", checked_search_word)
    for pair in random_free_pairs(GF(p), n, count, 0):
        try:
            canonicalize(pair)
        except CanonicalizationFailed:
            pass
    assert calls and skipped and first_layer


def _built_first_layer_zeros(pair, generators):
    """Indices of the generators whose child scores zero, each child built and scored."""
    return [k for k, g in enumerate(generators) if _cleaned_offense(act_right(pair, g)) == 0]


def _zero_kinds(zeros, kinds):
    """The kinds of ``_search_kinds`` that the indices ``zeros`` fall in."""
    uppers, lowers, swap = kinds
    up, low = {k for ks in uppers for k in ks}, set(lowers.values())
    return {"upper" if k in up else "lower" if k in low else "swap" if k == swap else "other"
            for k in zeros}


@pytest.mark.parametrize("n,p,count", [(4, 2, 2000), (3, 3, 2000), (5, 2, 300), (4, 3, 300)])
def test_rank_decision_matches_build_and_score_at_search_entries(n, p, count, monkeypatch):
    # At every search of canonicalize on seed-0 pairs the cleaned pair is
    # in swept form, and the first-layer children that the rank lemma says
    # score zero are exactly those that score zero when every generator's
    # child is built and scored.  Searches end at lower and at upper
    # generators alike.
    entries = 0
    ends = set()

    def checked_search_word(pair, generators, kinds):
        nonlocal entries
        zeros = _first_layer_zeros(pair, kinds)
        assert zeros is not None
        assert zeros == _built_first_layer_zeros(pair, generators)
        entries += 1
        ends.update(_zero_kinds(zeros[:1], kinds))
        return _search_word(pair, generators, kinds)

    monkeypatch.setattr("triorbit.canonical._search_word", checked_search_word)
    for pair in random_free_pairs(GF(p), n, count, 0):
        try:
            canonicalize(pair)
        except CanonicalizationFailed:
            pass
    assert entries and ends == {"lower", "upper"}


def _random_swept_pair(f, n, rng):
    """A seeded pair (I_S + N, B), N on Z x Z, B with a zero diagonal, scoring above zero.

    One time in four each: N is one column and B's column i is chosen so
    that a lower(lam E_ij) child scores zero; B vanishes on Z x Z, so that
    the upper(lam E_ii) children with i in S do; S is empty and B = 0, so
    that the swap's child does; or nothing is imposed.
    """
    p = f.p
    while True:
        zero = [rng.random() < 0.6 for _ in range(n)]
        A = [[0] * (r + 1) for r in range(n)]
        B = [[rng.randrange(p) for _ in range(r)] + [0] for r in range(n)]
        for r in range(n):
            A[r][r] = 0 if zero[r] else 1
            for c in range(r):
                if zero[r] and zero[c] and rng.random() < 0.5:
                    A[r][c] = rng.randrange(p)
        mode = rng.randrange(4)
        rows = [r for r in range(n) if zero[r]]
        if mode == 0 and len(rows) >= 2:
            j = rng.choice(rows[:-1])
            A = [[v if c in (j, r) else 0 for c, v in enumerate(row)] for r, row in enumerate(A)]
            below = [r for r in rows if r > j]
            A[rng.choice(below)][j] = rng.randrange(1, p)
            first = min(r for r in below if A[r][j])
            i, lam = rng.randrange(j, first), rng.randrange(1, p)
            inv = pow(lam, p - 2, p)
            for r in rows:
                if r > i:
                    B[r][i] = -A[r][j] * inv % p
        elif mode == 1:
            for r in rows:
                for c in rows:
                    if c < r:
                        B[r][c] = 0
        elif mode == 2:
            A = [[rng.randrange(p) if c < r else 0 for c in range(r + 1)] for r in range(n)]
            B = [[0] * (r + 1) for r in range(n)]
        pair = ModulePair(LowerTriMatrix(f, n, [v for row in A for v in row]),
                          LowerTriMatrix(f, n, [v for row in B for v in row]))
        if _cleaned_offense(pair):
            return pair


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_decision_matches_build_and_score_on_seeded_pairs(n, p, monkeypatch):
    # On seeded swept pairs the rank lemma decides every first-layer child
    # as building and scoring it does, and the search returns the first
    # such child with one act_right call.  On seeded pairs with a zero B
    # diagonal that are not swept, the decision declines and the best-first
    # body returns the first child scoring zero, if any.
    f = GF(p)
    rng = random.Random(100 * n + p)
    generators = _search_generators(f, n)
    kinds = _search_kinds(f, n)
    calls = 0

    def counting_act_right(*args):
        nonlocal calls
        calls += 1
        return act_right(*args)

    monkeypatch.setattr("triorbit.canonical.act_right", counting_act_right)
    ends = set()
    for _ in range(60):
        pair = _random_swept_pair(f, n, rng)
        zeros = _first_layer_zeros(pair, kinds)
        assert zeros == _built_first_layer_zeros(pair, generators)
        ends |= _zero_kinds(zeros, kinds)
        if zeros:
            calls = 0
            assert _search_word(pair, generators, kinds) == (generators[zeros[0]],)
            assert calls == 1
    assert ends == ({"lower", "upper", "swap"} if n > 2 else {"lower", "swap"})
    fallback = 0
    m = n * (n + 1) // 2
    diagonal = [r * (r + 3) // 2 for r in range(n)]
    for _ in range(60):
        a = [rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(m)]
        b = [0 if k in diagonal else rng.randrange(p) for k in range(m)]
        pair = ModulePair(LowerTriMatrix(f, n, a), LowerTriMatrix(f, n, b))
        if not _cleaned_offense(pair) or _first_layer_zeros(pair, kinds) is not None:
            continue
        built = _built_first_layer_zeros(pair, generators)
        if built:
            assert _search_word(pair, generators, kinds) == (generators[built[0]],)
            fallback += 1
    # At n = 2 a pair scoring above zero has a zero diagonal in A, so it is swept.
    assert fallback or n == 2


# -- reachability invariant -------------------------------------------------------


def test_span_profile_orbit_invariance(gf2):
    gens = gl2_generators(gf2, 3)
    units = list(unit_matrices(gf2, 3))
    for pair in itertools.islice(free_pairs(gf2, 3), 0, None, 11):
        prof = span_profile(pair)
        for g in gens:
            assert span_profile(act_right(pair, g)) == prof
        for u in units[:4]:
            assert span_profile(act_left_unit(u, pair)) == prof


def test_profile_compatibility_predicts_success_small_scales():
    for n, p in [(2, 2), (2, 3), (3, 2)]:
        f = GF(p)
        profiles = reachable_profiles(n)
        for pair in free_pairs(f, n):
            assert span_profile(pair) in profiles


@pytest.mark.parametrize("p", [2, 3])
def test_free_pair_without_canonical_form(p):
    # A genuinely unreachable orbit: the nilpotent chains of A and B are
    # entangled so that the span profile matches no canonical pair.  The
    # same witness is free with an unreachable profile over every field.
    f = GF(p)
    A = LowerTriMatrix.zero(f, 4).with_entry(2, 1, 1).with_entry(4, 2, 1)
    B = LowerTriMatrix.zero(f, 4).with_entry(1, 1, 1).with_entry(3, 2, 1)
    pair = ModulePair(A, B)
    assert pair.is_free()
    assert span_profile(pair) not in reachable_profiles(4)
    with pytest.raises(CanonicalizationFailed):
        canonicalize(pair)


def _span_dims_by_counting(pair):
    """dim(F_j intersect V_i) by listing F_j: p**d of its vectors vanish above i."""
    n, p = pair.n, pair.field.p
    span = {(0,) * n}
    dims = {}
    for j in range(n, 0, -1):
        for M in (pair.A, pair.B):
            col = [M.entry(r, j) for r in range(1, n + 1)]
            span = {tuple((x + t * c) % p for x, c in zip(v, col))
                    for v in span for t in range(p)}
        for i in range(1, n + 1):
            count = sum(1 for v in span if not any(v[:i - 1]))
            d = 0
            while p ** d < count:
                d += 1
            assert p ** d == count
            dims[(j, i)] = d
    return tuple(dims[(j, i)] for j in range(1, n + 1) for i in range(1, n + 1))


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_span_profile_matches_vector_count(n, p):
    # Every pair, free or not: the one-pass echelon count against the
    # vectors of F_j intersect V_i themselves.
    f = GF(p)
    for A in ring_matrices(f, n):
        for B in ring_matrices(f, n):
            pair = ModulePair(A, B)
            assert span_profile(pair) == _span_dims_by_counting(pair)


@pytest.mark.parametrize("check,message", [
    ("verify_certificate", "certificate self-check"),
    ("is_canonical", "canonical-shape self-check"),
])
def test_self_checks_raise_without_asserts(gf2, monkeypatch, check, message):
    # The final checks are explicit raises, not asserts, so they hold
    # under python -O as well.
    import triorbit.canonical as canonical

    pair = ModulePair(LowerTriMatrix.identity(gf2, 3),
                      LowerTriMatrix.single(gf2, 3, 2, 1))
    canonicalize(pair)
    monkeypatch.setattr(canonical, check, lambda *args: False)
    with pytest.raises(CanonicalizationFailed, match=message):
        canonicalize(pair)


def test_search_self_check_raises_on_a_wrong_rank_decision(gf2, monkeypatch):
    # The child that the rank decision returns is scored before the word
    # is taken; a decision naming a child that scores above zero raises,
    # under python -O as well.
    import triorbit.canonical as canonical

    A = LowerTriMatrix.single(gf2, 3, 1, 1) + LowerTriMatrix.single(gf2, 3, 3, 2)
    B = LowerTriMatrix.zero(gf2, 3).with_entry(2, 1, 1).with_entry(3, 2, 1)
    pair = ModulePair(A, B)
    assert canonicalize(pair)[2].search_activated
    monkeypatch.setattr(canonical, "_first_layer_zeros", lambda *args: [0])
    with pytest.raises(CanonicalizationFailed, match="search self-check"):
        canonicalize(pair)


# -- factors built without the constructors' checks -------------------------


def _assert_checked_matrix(M, field, n):
    # A packed tuple of residues in [0, p) that the public constructor,
    # which validates every entry, rebuilds unchanged.
    assert type(M.entries) is tuple
    assert all(0 <= v < field.p for v in M.entries)
    assert M == LowerTriMatrix(field, n, M.entries)


def _assert_checked_element(g, field, n):
    for block in (g.X, g.Y, g.W, g.Z):
        _assert_checked_matrix(block, field, n)
    assert gl2_is_invertible(g.X, g.Y, g.W, g.Z)
    assert g == GL2Element(g.X, g.Y, g.W, g.Z)


@pytest.mark.parametrize("n,p,count", [
    (3, 3, 500), (4, 2, 500), (5, 2, 300), (6, 3, 300), (7, 5, 200)])
def test_trusted_factors_pass_the_public_checks(n, p, count):
    # canonicalize builds its recorded factors and certificate without the
    # public constructors' checks; each must be one those checks accept.
    f = GF(p)
    one = LowerTriMatrix.identity(f, n)
    labels = set()
    for pair in random_free_pairs(f, n, count, seed=0):
        try:
            _, cert, trace = canonicalize(pair)
        except CanonicalizationFailed:
            assert not is_canonical_jump_map(jump_map(pair))
            continue
        _assert_checked_matrix(cert.U, f, n)
        assert cert.U.is_unit()
        _assert_checked_element(cert.Q, f, n)
        stages = list(trace)
        labels.update(stage.label for stage in stages)
        for k, stage in enumerate(stages):
            if stage.side == "left":
                _assert_checked_matrix(stage.factor, f, n)
                assert stage.factor.is_unit()
            else:
                _assert_checked_element(stage.factor, f, n)
            if stage.label == "similarity_left":
                # It is P^-1 for the P of the similarity_right that follows.
                assert stages[k + 1].label == "similarity_right"
                assert stage.factor * stages[k + 1].factor.X == one
                assert stages[k + 1].factor.X * stage.factor == one
    # Every factor kind was built on the sample, the cleanup's before a
    # search included; scaling needs p > 2.
    assert labels >= {"diagonal_clearing", "similarity_left", "similarity_right",
                      "row_clearing", "b_transvection", "search",
                      "row_reduction", "column_reduction"}
    assert ("scaling" in labels) == (p > 2)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                t = rows[r][c]
                rows[r] = [(a - t * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _reference_is_canonical(pair):
    # The shape, on full rows, and rank [A|B] = n, which is_canonical
    # leaves to the proof in its docstring.
    n, p = pair.n, pair.field.p
    A, B = pair.A.rows(), pair.B.rows()
    columns = []
    for i in range(n):
        if A[i][i] not in (0, 1) or any(A[i][j] for j in range(n) if j != i):
            return False
        ones = [j for j in range(n) if B[i][j]]
        if B[i][i] or any(B[i][j] != 1 for j in ones) or A[i][i] + len(ones) != 1:
            return False
        columns += ones
    return (len(columns) == len(set(columns))
            and _rank_mod_p([A[i] + B[i] for i in range(n)], p) == n)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_is_canonical_matches_shape_and_rank_reference(n, p):
    f = GF(p)
    passed = 0
    for A in ring_matrices(f, n):
        for B in ring_matrices(f, n):
            pair = ModulePair(A, B)
            expected = _reference_is_canonical(pair)
            assert is_canonical(pair) == expected
            passed += expected
    assert passed == bell(n)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_is_canonical_on_every_mutation_of_the_canonical_pairs(n):
    # Every canonical pair at p = 3, and every pair one entry away from
    # one, gets the verdict of the shape and rank reference.  A single
    # entry changed empties a row, adds a second nonzero to it or makes its
    # 1 a 2, so the reference refuses every mutation.
    f = GF(3)
    pairs = enumerate_canonical(n, f)
    assert len(pairs) == bell(n)
    for pair in pairs:
        assert is_canonical(pair) and _reference_is_canonical(pair)
        for mutated in ([ModulePair(A, pair.B) for A in _mutations(pair.A, 3)]
                        + [ModulePair(pair.A, B) for B in _mutations(pair.B, 3)]):
            assert is_canonical(mutated) == _reference_is_canonical(mutated)
