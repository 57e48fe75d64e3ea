import random

import pytest

from triorbit import (
    GF,
    BudgetExceeded,
    GL2Element,
    LowerTriMatrix,
    ModulePair,
    act_right,
    augmented_rank,
    bell,
    cyclic_submodule,
    enumerate_canonical,
    enumerate_free_submodules,
    gl2_generators,
    orbit_decomposition,
    orbit_generators,
    verify_classification,
)
from triorbit.errors import VerificationFailed
from triorbit.modpairs import ring_matrices
from triorbit.oracle import (_decompose, _free_submodule_keys, _key_pair, _normal_form,
                             _order, _pair_key, random_free_pairs)


def test_free_submodule_enumeration_counts():
    # Regression fixtures from the exhaustive scans.
    assert len(enumerate_free_submodules(2, 2)) == 21
    assert len(enumerate_free_submodules(2, 3)) == 52
    assert len(enumerate_free_submodules(3, 2)) == 315


def free_pairs_by_brute_force(n, p):
    field = GF(p)
    ring = list(ring_matrices(field, n))
    return [pair for pair in (ModulePair(A, B) for A in ring for B in ring)
            if pair.is_free()]


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_free_submodules_agree_with_high_level_keys(n, p):
    subs = enumerate_free_submodules(n, p)
    assert subs == sorted(subs)
    keys = {cyclic_submodule(s.generator) for s in subs}
    assert len(keys) == len(subs)
    for sub, key in zip(sorted(subs), sorted(keys)):
        assert sub.generator == key.generator
    # The normal form of every free pair is its brute-force least generator.
    for pair in free_pairs_by_brute_force(n, p):
        assert _key_pair(pair.field, _pair_key(pair)) == cyclic_submodule(pair).generator


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_free_pair_count_matches_brute_force(n, p):
    assert orbit_decomposition(n, p).free_pairs == len(free_pairs_by_brute_force(n, p))


def test_canonical_pairs_appear_as_submodules(gf2):
    subs = {s.generator for s in enumerate_free_submodules(3, 2)}
    for pair in enumerate_canonical(3, gf2):
        assert cyclic_submodule(pair).generator in subs


def test_zero_pair_never_appears():
    for sub in enumerate_free_submodules(2, 2):
        assert sub.generator.is_free()


def test_budget_exceeded_on_large_configurations():
    with pytest.raises(BudgetExceeded):
        enumerate_free_submodules(4, 3)
    with pytest.raises(BudgetExceeded):
        verify_classification(5, 2)


@pytest.mark.parametrize("n,p,expected_orbits", [(2, 2, 2), (2, 3, 2), (3, 2, 5)])
def test_orbit_counts_small(n, p, expected_orbits):
    report = orbit_decomposition(n, p)
    assert report.orbit_count == expected_orbits
    assert sum(o.size for o in report.orbits) == report.free_submodules


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_verification_passes_up_to_dimension_three(n, p):
    report = verify_classification(n, p)
    assert report.passed, report.verdicts
    assert report.orbit_count == bell(n)
    assert all(o.canonical_count == 1 for o in report.orbits)
    unimodular = [o for o in report.orbits if o.unimodular]
    assert len(unimodular) == 1


def test_verification_finds_the_extra_orbit_at_dimension_four():
    # At n=4 the canonical family misses one orbit: 16 orbits, one of them
    # with no canonical member.  This is the known classification gap.
    report = verify_classification(4, 2)
    assert not report.passed
    assert report.orbit_count == 16
    assert report.bell == 15
    missing = [o for o in report.orbits if o.canonical_count == 0]
    assert len(missing) == 1
    assert missing[0].size == 9
    assert not missing[0].unimodular
    assert report.free_pairs == 624960
    assert report.free_submodules == 9765
    # The remaining orbits carry exactly one canonical member each.
    assert sum(o.canonical_count for o in report.orbits) == 15


def test_verification_raise_mode():
    with pytest.raises(VerificationFailed) as exc:
        verify_classification(4, 2, raise_on_failure=True)
    assert exc.value.report.orbit_count == 16


def test_extra_orbit_is_closed_under_the_group(gf2):
    # Independent confirmation of the extra orbit using only high-level
    # arithmetic: closing the witness submodule under every generator stays
    # inside 9 submodules, none generated by a canonical pair.
    from triorbit import canonicalize, is_canonical
    from triorbit.errors import CanonicalizationFailed

    A = LowerTriMatrix.zero(gf2, 4).with_entry(2, 1, 1).with_entry(4, 2, 1)
    B = LowerTriMatrix.zero(gf2, 4).with_entry(1, 1, 1).with_entry(3, 2, 1)
    seed = ModulePair(A, B)
    assert seed.is_free()
    gens = gl2_generators(gf2, 4)
    frontier = [cyclic_submodule(seed)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for sub in frontier:
            for g in gens:
                moved = cyclic_submodule(act_right(sub.generator, g))
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    assert len(seen) == 9
    for sub in seen:
        assert not is_canonical(sub.generator)
        with pytest.raises(CanonicalizationFailed):
            canonicalize(sub.generator)


def test_orbit_decomposition_deterministic_under_generator_order():
    base = verify_classification(3, 2)
    gens = gl2_generators(GF(2), 3)
    permuted = list(reversed(gens))
    again = verify_classification(3, 2, generators=permuted)
    assert [o.size for o in base.orbits] == [o.size for o in again.orbits]
    assert base.passed and again.passed


def test_single_generator_moves_stay_in_orbit(gf2):
    from triorbit.oracle import _build_report

    report, (keys, orbits, orbit_of, _) = _build_report(3, 2)
    gens = gl2_generators(gf2, 3)
    for key in keys[::5]:
        pair = _key_pair(gf2, key)
        home = orbit_of[_pair_key(pair)]
        for g in gens:
            moved = act_right(pair, g)
            assert orbit_of[_pair_key(moved)] == home


def test_unimodular_orbit_size_matches_pointwise_count(gf2):
    from triorbit.oracle import _build_report

    for (n, p) in [(2, 2), (3, 2)]:
        report, (keys, orbits, orbit_of, _) = _build_report(n, p)
        unim_keys = sum(1 for key in keys if _key_pair(GF(p), key).is_unimodular())
        orbit_sizes = [o.size for o in report.orbits if o.unimodular]
        assert sum(orbit_sizes) == unim_keys


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_packed_pair_key_matches_row_reference(n, p):
    # Every pair, free or not (a pair that is not free has no key).
    field = GF(p)
    ring = list(ring_matrices(field, n))
    for A in ring:
        for B in ring:
            pair = ModulePair(A, B)
            rows = [A.row(i) + B.row(i) for i in range(1, n + 1)]
            assert _pair_key(pair) == _normal_form(rows, p)


def _random_free_pairs_by_constructor(field, n, count, seed):
    # The sampler's draws, built through the public, checking constructors.
    rng = random.Random(seed)
    m = n * (n + 1) // 2
    out = []
    while len(out) < count:
        A = LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)])
        B = LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)])
        pair = ModulePair(A, B)
        if augmented_rank(A, B) == n:
            out.append(pair)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,p", [(4, 2), (3, 3), (6, 3)])
def test_random_free_pairs_match_constructor_reference(n, p, seed):
    field = GF(p)
    sample = random_free_pairs(field, n, 300, seed)
    assert sample == _random_free_pairs_by_constructor(field, n, 300, seed)
    assert all(type(M.entries) is tuple for pair in sample for M in (pair.A, pair.B))


def test_random_free_pairs_deterministic(gf2):
    a = random_free_pairs(gf2, 3, 25, seed=42)
    b = random_free_pairs(gf2, 3, 25, seed=42)
    assert a == b
    assert all(x.is_free() for x in a)


def test_report_serialization_shape():
    report = verify_classification(2, 2)
    doc = report.to_dict()
    assert doc["n"] == 2 and doc["p"] == 2
    assert doc["passed"] is True
    assert len(doc["orbits"]) == 2
    text = report.format_text()
    assert "orbit report for n=2, p=2" in text
    assert "overall: pass" in text


def reference_decomposition(keys, generators, p):
    """Every key times every generator, reduced to its key, joined by union-find."""
    ordinal = {key: i for i, key in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in generators:
        block = [g.X.row(i) + g.Y.row(i) for i in range(1, g.n + 1)]
        block += [g.W.row(i) + g.Z.row(i) for i in range(1, g.n + 1)]
        columns = list(zip(*block))
        images = {}
        for i, key in enumerate(keys):
            for row in key:
                if row not in images:
                    images[row] = [sum(x * y for x, y in zip(row, column)) % p
                                   for column in columns]
            moved = [images[row] for row in key]
            a, b = find(i), find(ordinal[_normal_form(moved, p)])
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(keys)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


@pytest.mark.parametrize("n,p,generators", [
    (2, 2, orbit_generators), (2, 3, orbit_generators), (2, 5, orbit_generators),
    (3, 2, orbit_generators), (3, 3, orbit_generators), (4, 2, orbit_generators),
    (2, 3, gl2_generators), (2, 5, gl2_generators), (3, 2, gl2_generators),
])
def test_decompose_matches_reference_exhaustively(n, p, generators):
    # The cycle walk and the key lookup skip images; the reference reduces
    # every key's image under every generator.  gl2_generators mixes orders
    # 2, p and p - 1 with elements that fix many keys.
    field = GF(p)
    keys = _free_submodule_keys(field, n, None)
    gens = generators(field, n)
    assert _decompose(keys, gens, p) == reference_decomposition(keys, gens, p)


@pytest.mark.parametrize("n,p", [(3, 2), (2, 3), (2, 5), (3, 3)])
def test_normal_form_fixes_every_key(n, p):
    # The lemma behind the key lookup: keys are exactly the normal forms.
    for key in _free_submodule_keys(GF(p), n, None):
        assert _normal_form(list(key), p) == key


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_order_of_orbit_generator_kinds(p):
    field = GF(p)
    n = 3
    one = LowerTriMatrix.identity(field, n)
    assert _order(GL2Element.identity(field, n)) == 1
    assert _order(GL2Element.swap(field, n)) == 2
    for i in range(1, n + 1):
        assert _order(GL2Element.upper(LowerTriMatrix.single(field, n, i, i))) == p
        if p > 2:
            root = next(g for g in range(2, p)
                        if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
            assert _order(GL2Element.block_diag(one.with_entry(i, i, root), one)) == p - 1
