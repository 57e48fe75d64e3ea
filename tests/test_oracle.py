import itertools
import random

import pytest

from triorbit import (
    GF,
    BudgetExceeded,
    GL2Element,
    LowerTriMatrix,
    ModulePair,
    Submodule,
    act_right,
    augmented_rank,
    bell,
    cyclic_submodule,
    enumerate_canonical,
    enumerate_free_submodules,
    enumerate_partitions,
    gl2_generators,
    is_free_oracle,
    is_outlier_oracle,
    orbit_decomposition,
    orbit_generators,
    verify_classification,
)
from triorbit.errors import InconsistentDecomposition, InvalidSampleCount, TriOrbitError
from triorbit.modpairs import ring_matrices, unit_matrices
from triorbit.oracle import (_decompose, _free_submodule_keys, _key_pair, _layout, _mover,
                             _normal_form, _pair_key, _reduce_fields, _Trie, random_free_pairs)


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
    # The normal form of every free pair is its least unit multiple, found
    # here by brute force over T_n*.
    units = list(unit_matrices(GF(p), n))
    for pair in free_pairs_by_brute_force(n, p):
        least = min(ModulePair(u * pair.A, u * pair.B) for u in units)
        assert _key_pair(pair.field, _pair_key(pair)) == least
        assert cyclic_submodule(pair).generator == least


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


def test_budget_check_refuses_from_a_lower_bound(monkeypatch):
    # The six budget sites share one check, which reads the cap from
    # TRIORBIT_BUDGET alone.  A count whose lower bound exceeds the cap is
    # refused without being computed, and the message names only the
    # bound; B_2000 and 2^15750 have hundreds and thousands of digits, and
    # each call returns at once.
    monkeypatch.delenv("TRIORBIT_BUDGET", raising=False)
    identity = ModulePair(LowerTriMatrix.identity(GF(2), 60), LowerTriMatrix.zero(GF(2), 60))
    calls = [
        (lambda: enumerate_free_submodules(125, 2), r"n=125, p=2 is at least 2\^15750,"),
        (lambda: enumerate_canonical(2000), r"B_2000 is at least 2\^1999,"),
        (lambda: enumerate_partitions(2000), r"B_2000 is at least 2\^1999,"),
        (lambda: is_free_oracle(identity), r"\|T_60\| is at least 2\^1830,"),
        (lambda: random_free_pairs(GF(2), 2, 10 ** 12, 0), r"sample count is at least 2\^39,"),
        (lambda: is_outlier_oracle(identity), r"products is at least 2\^5490,"),
    ]
    for call, message in calls:
        with pytest.raises(BudgetExceeded, match=message):
            call()
    # Below the bound the count is computed, and the message names it.
    with pytest.raises(BudgetExceeded, match=r"p=3 is 3486784401, which exceeds the cap 16777216"):
        enumerate_free_submodules(4, 3)
    # At p = 2 the bound is exact: 2^12 pairs at n = 3 pass a cap of 2^12.
    monkeypatch.setenv("TRIORBIT_BUDGET", str(2 ** 12))
    assert len(enumerate_free_submodules(3, 2)) == 315
    monkeypatch.setenv("TRIORBIT_BUDGET", str(2 ** 12 - 1))
    with pytest.raises(BudgetExceeded, match=r"is at least 2\^12, which exceeds the cap 4095"):
        enumerate_free_submodules(3, 2)


def test_every_budget_site_reads_a_lowered_cap(monkeypatch):
    # Each call passes under a cap equal to its count and is refused one
    # below it.  The passing call comes first, so a cache it fills (the
    # outlier oracle's table) must not skip the refusal after it.
    identity = ModulePair(LowerTriMatrix.identity(GF(2), 2), LowerTriMatrix.zero(GF(2), 2))
    calls = [
        (lambda: enumerate_free_submodules(2, 2), 2 ** 6),
        (lambda: orbit_decomposition(2, 2), 2 ** 6),
        (lambda: verify_classification(2, 2), 2 ** 6),
        (lambda: enumerate_canonical(3), 5),
        (lambda: enumerate_partitions(3), 5),
        (lambda: is_free_oracle(identity), 2 ** 3),
        (lambda: is_outlier_oracle(identity), 2 ** 9),
        (lambda: random_free_pairs(GF(2), 2, 10, 0), 10),
    ]
    for call, count in calls:
        monkeypatch.setenv("TRIORBIT_BUDGET", str(count))
        call()
        monkeypatch.setenv("TRIORBIT_BUDGET", str(count - 1))
        with pytest.raises(BudgetExceeded, match=f"exceeds the cap {count - 1}$"):
            call()


def test_sample_count_is_charged_before_the_first_draw(monkeypatch):
    # Drawing 2^24 + 1 pairs would take minutes; the refusal comes first.
    monkeypatch.delenv("TRIORBIT_BUDGET", raising=False)
    with pytest.raises(BudgetExceeded, match=r"sample count is 16777217, which exceeds"):
        random_free_pairs(GF(2), 2, 2 ** 24 + 1, 0)


def test_cyclic_submodule_enumerates_nothing(monkeypatch):
    # The key is the normal form, so n = 60, where |T_n^*| = 2^1770,
    # returns at once and under the smallest cap.
    monkeypatch.setenv("TRIORBIT_BUDGET", "1")
    identity = ModulePair(LowerTriMatrix.identity(GF(2), 60), LowerTriMatrix.zero(GF(2), 60))
    assert cyclic_submodule(identity) == Submodule(identity)


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


def test_orbit_sizes_must_cover_the_free_submodules(monkeypatch):
    # A decomposition that loses one key fails the report's size check,
    # which is an explicit raise and so also holds under python -O.
    def dropping(keys, generators, p):
        orbits = _decompose(keys, generators, p)
        return [orbits[0][1:]] + orbits[1:]

    monkeypatch.setattr("triorbit.oracle._decompose", dropping)
    with pytest.raises(InconsistentDecomposition, match="hold 20 submodules, not the 21"):
        verify_classification(2, 2)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_check_refuses_fewer_than_one_sample(samples):
    # With exhaustive_check_cap=0 the check samples; without a pair to
    # check, it must raise instead of returning a passing report.
    with pytest.raises(InvalidSampleCount, match=f"got {samples}") as info:
        verify_classification(2, 2, samples=samples, exhaustive_check_cap=0)
    assert isinstance(info.value, TriOrbitError) and isinstance(info.value, ValueError)
    assert verify_classification(2, 2, samples=1, exhaustive_check_cap=0).checked_pairs == 1


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
    # The orbits as sets of keys do not depend on the generators' order,
    # nor on which generating set is walked.
    keys = _free_submodule_keys(GF(2), 3)
    gens = gl2_generators(GF(2), 3)
    base = _decompose(keys, orbit_generators(GF(2), 3), 2)
    assert sorted(_decompose(keys, list(reversed(gens)), 2)) == sorted(base)
    assert sorted(_decompose(keys, gens, 2)) == sorted(base)
    assert len(base) == bell(3)


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


def encode_row(columns, p):
    """A row of residues a_i1..a_in, b_i1..b_in as one int, a_i1 the top field.

    The field width is the oracle's layout at (n, p), n = len(columns) / 2.
    """
    width = _layout(len(columns) // 2, p)[1]
    return sum(x << width * k for k, x in enumerate(reversed(columns)))


def decode_row(row, p, n):
    """The 2n residues of a packed row, a_i1 first, in the oracle's layout at (n, p)."""
    width = _layout(n, p)[1]
    columns = []
    for _ in range(2 * n):
        row, x = divmod(row, 1 << width)
        columns.append(x)
    assert row == 0, "a packed row has at most 2n digits"
    return tuple(reversed(columns))


def reference_normal_form(rows, p):
    """The normal form on residue lists: each row is reduced at every lead
    found so far, in ascending order, and scaled to lead 1."""
    basis = {}
    key = []
    for row in rows:
        row = list(row)
        for lead in sorted(basis):
            if row[lead]:
                row = [(x - row[lead] * y) % p for x, y in zip(row, basis[lead])]
        lead = next((k for k, x in enumerate(row) if x), None)
        if lead is None:
            return None
        inverse = pow(row[lead], p - 2, p)
        basis[lead] = [x * inverse % p for x in row]
        key.append(tuple(basis[lead]))
    return tuple(key)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_packed_pair_key_matches_row_reference(n, p):
    # Every pair, free or not (a pair that is not free has no key).
    field = GF(p)
    ring = list(ring_matrices(field, n))
    for A in ring:
        for B in ring:
            pair = ModulePair(A, B)
            rows = [A.row(i) + B.row(i) for i in range(1, n + 1)]
            key = _pair_key(pair)
            assert key == _normal_form([encode_row(row, p) for row in rows], _layout(n, p))
            expected = reference_normal_form(rows, p)
            assert (key if key is None
                    else tuple(decode_row(row, p, n) for row in key)) == expected


def seeded_pairs(field, n, count, seed):
    """Seeded pairs with their rows of [A|B]; every third has a row that is
    zero or a combination of the rows above it, so it is not free."""
    rng = random.Random(seed)
    p = field.p
    out = []
    for t in range(count):
        rows = [[rng.randrange(p) if k % n <= i else 0 for k in range(2 * n)]
                for i in range(n)]
        if t % 3 == 0:
            r = rng.randrange(n)
            coefficients = [rng.randrange(p) for _ in range(r)]
            rows[r] = [sum(c * row[k] for c, row in zip(coefficients, rows)) % p
                       for k in range(2 * n)]
        A = [x for i, row in enumerate(rows) for x in row[:i + 1]]
        B = [x for i, row in enumerate(rows) for x in row[n:n + i + 1]]
        out.append((ModulePair(LowerTriMatrix(field, n, A), LowerTriMatrix(field, n, B)),
                    rows))
    return out


def check_pair_keys_against_reference(field, n, count, seed):
    p = field.p
    free = 0
    for pair, rows in seeded_pairs(field, n, count, seed):
        key = _pair_key(pair)
        expected = reference_normal_form(rows, p)
        assert (key if key is None
                else tuple(decode_row(row, p, n) for row in key)) == expected
        assert (key is None) == (not pair.is_free())
        free += key is not None
    assert 0 < free < count


@pytest.mark.parametrize("p", [5, 7, 11, 13, 251])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_key_matches_row_reference_on_seeded_pairs(n, p):
    # Free pairs and pairs that are not free, at primes whose fields need
    # from 9 to 31 bits.
    check_pair_keys_against_reference(GF(p), n, 60, seed=n * p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_pair_key_matches_row_reference_at_a_61_bit_prime(n):
    # At p = 2^61 - 1 a field is hundreds of bits wide.
    check_pair_keys_against_reference(GF(2 ** 61 - 1), n, 12, seed=n)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 3), (3, 3), (4, 3), (3, 5), (3, 7), (5, 251),
                                 (60, 3), (8, 2 ** 61 - 1)])
def test_one_pass_field_reduction_matches_mod_p(n, p):
    # Every field of a sum the oracle forms is at most D; the reduction
    # must agree with % p in every field at D, just below it and between.
    bound = max((p - 1) + (n - 1) * (p - 1) ** 2, 2 * n * (p - 1) ** 2)
    layout = _layout(n, p)
    assert bound < 1 << layout[1]
    rng = random.Random(n * p)
    for fields in ([bound] * (2 * n), [bound - 1] * (2 * n),
                   [(bound, bound - 1, 0, p, p - 1)[k % 5] for k in range(2 * n)],
                   [rng.randrange(bound + 1) for _ in range(2 * n)]):
        reduced = _reduce_fields(encode_row(fields, p), layout)
        assert decode_row(reduced, p, n) == tuple(x % p for x in fields)


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
@pytest.mark.parametrize("n,p", [(4, 2), (3, 3), (6, 3), (1, 2), (2, 5), (3, 7), (5, 2), (4, 11)])
def test_random_free_pairs_match_constructor_reference(n, p, seed):
    # The sampler inlines the draw of Random.randrange(p): getrandbits(k),
    # k = p.bit_length(), until the value is below p.  Its pairs equal the
    # randrange reference's, entry by entry, at primes whose rejection
    # rates differ (1/2 at p = 2, 1/4 at p = 3, 3/8 at p = 5, 1/8 at p = 7
    # and 5/16 at p = 11).
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
    """Every key times every generator, reduced to its key, joined by union-find.

    The packed keys are decoded here, and every image is reduced by
    ``reference_normal_form``: neither the trie nor the library's normal
    form takes part.
    """
    n = len(keys[0])
    keys = [tuple(decode_row(row, p, n) for row in key) for key in keys]
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
            a, b = find(i), find(ordinal[reference_normal_form(moved, p)])
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(len(keys)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def identity_and_repeat(field, n):
    # The identity fixes every row (f(g) = n), and one generator comes twice.
    gens = orbit_generators(field, n)
    return [GL2Element.identity(field, n), *gens, gens[-1]]


@pytest.mark.parametrize("n,p,generators", [
    (1, 2, orbit_generators), (1, 3, orbit_generators),
    (2, 2, orbit_generators), (2, 3, orbit_generators), (2, 5, orbit_generators),
    (2, 7, orbit_generators),
    (3, 2, orbit_generators), (3, 3, orbit_generators), (4, 2, orbit_generators),
    (2, 3, gl2_generators), (2, 5, gl2_generators), (3, 2, gl2_generators),
    (1, 3, identity_and_repeat), (2, 3, identity_and_repeat), (3, 2, identity_and_repeat),
])
def test_decompose_matches_reference_exhaustively(n, p, generators):
    # The trie map walks each key edge once per generator, from depth f(g);
    # the reference reduces every key's image under every generator.
    # gl2_generators adds elements that fix many rows and keys.
    field = GF(p)
    keys = _free_submodule_keys(field, n)
    gens = generators(field, n)
    assert _decompose(keys, gens, p) == reference_decomposition(keys, gens, p)


@pytest.mark.parametrize("n,p", [(3, 2), (2, 3), (2, 5), (3, 3)])
def test_normal_form_fixes_every_key(n, p):
    # The lemma behind the trie's key edges: keys are exactly the normal forms.
    for key in _free_submodule_keys(GF(p), n):
        assert type(key) is tuple and len(key) == n
        assert all(type(row) is int for row in key)
        assert _normal_form(list(key), _layout(n, p)) == key
        rows = tuple(decode_row(row, p, n) for row in key)
        assert reference_normal_form(rows, p) == rows


FAST_PATH_CASES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("n,p", FAST_PATH_CASES)
def test_trie_transitions_are_the_normal_form(n, p):
    # Every transition, on a key edge or not, is the normal form of the
    # node's rows and that row, for every row a node can meet: each row
    # supported on the next row's columns and independent of the node's
    # rows.  A node's edges are exactly the key rows after its prefix.
    field = GF(p)
    keys = _free_submodule_keys(field, n)
    trie = _Trie(keys, p)
    heads = {key[:d] for key in keys for d in range(1, n + 1)}
    misses = 0
    for node, prefix in enumerate(trie.prefixes):
        assert {prefix + (row,) for row in trie.edges[node]} == {
            head for head in heads if head[:-1] == prefix}
        rows = [decode_row(row, p, n) for row in prefix]
        d = len(prefix)
        support = [*range(d + 1), *range(n, n + d + 1)]
        for values in itertools.product(range(p), repeat=len(support)):
            columns = [0] * (2 * n)
            for k, v in zip(support, values):
                columns[k] = v
            expected = reference_normal_form(rows + [columns], p)
            if expected is None:
                continue
            row = encode_row(columns, p)
            child = trie.child(node, row)
            reached = keys[child] if d == n - 1 else trie.prefixes[child]
            assert reached == _normal_form(prefix + (row,), _layout(n, p))
            assert tuple(decode_row(r, p, n) for r in reached) == expected
            misses += row not in trie.edges[node]
    assert misses > 0  # some rows are not key rows


@pytest.mark.parametrize("n,p", FAST_PATH_CASES)
@pytest.mark.parametrize("generators", [orbit_generators, gl2_generators])
def test_generators_fix_the_rows_they_cannot_move(n, p, generators):
    # Rows 1..f(g) of every key are fixed by g, checked on the image that
    # act_right computes; the mover's image of every row agrees with it.
    field = GF(p)
    keys = _free_submodule_keys(field, n)
    for g in generators(field, n):
        fixed, move = _mover(g, p)
        block = [g.X.row(i) + g.Y.row(i) for i in range(1, n + 1)]
        block += [g.W.row(i) + g.Z.row(i) for i in range(1, n + 1)]
        identity = [[int(j == k) for j in range(2 * n)] for k in range(2 * n)]
        assert fixed == min((k % n for k in range(2 * n) if block[k] != identity[k]),
                            default=n)
        for key in keys:
            image = act_right(_key_pair(field, key), g)
            rows = [image.A.row(i) + image.B.row(i) for i in range(1, n + 1)]
            assert [decode_row(row, p, n) for row in key[:fixed]] == [
                tuple(row) for row in rows[:fixed]]
            assert [move(row) for row in key] == [encode_row(row, p) for row in rows]
