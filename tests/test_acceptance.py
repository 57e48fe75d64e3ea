"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The paper claims Bell(n) orbits of free cyclic submodules, each holding
exactly one canonical pair.  That holds for n <= 3 and fails from n = 4 on
(see README.md), so criteria 4, 5 and 8 check the classification that
actually holds, derived here independently of the library:

* a free submodule T_n(A, B) is the flag R_1 < ... < R_n, where R_i is the
  span of rows 1..i of the n x 2n matrix [A | B];
* W_j, the coordinate subspace of the A-columns and B-columns 1..j,
  contains R_j because A and B are lower triangular;
* GL_2(T_n) is exactly the stabiliser of W_1 < ... < W_n (in the
  interleaved basis: block lower triangular with invertible 2 x 2 diagonal
  blocks), so by the Bruhat decomposition the orbits are classified by the
  matrix d_ij = dim(R_i & W_j), computed by ``flag_profile``;
* the matrices that occur are those of the jump maps j: {1..n} -> {1..n}
  with j(i) <= i and no value taken more than twice, counted by the Euler
  zigzag numbers 1, 2, 5, 16, 61, 272: 16 orbits at n = 4 against
  Bell(4) = 15.

``test_flag_profile_separates_oracle_orbits`` checks this route against
the exhaustive oracle at (3,2) and (4,2).  Criteria 4, 5 and 8 read one
memoized canonicalization tally per (n, p), so each gives the same verdict
and counts whether it runs alone or in the full file.
"""

import json
import time
from collections import namedtuple

import pytest

from triorbit import (
    GF,
    CanonicalizationFailed,
    ModulePair,
    SetPartition,
    bell,
    canonicalize,
    enumerate_canonical,
    enumerate_partitions,
    is_canonical,
    is_free_oracle,
    is_outlier_oracle,
    pair_to_partition,
    partition_to_pair,
    select_pivots,
    build_v,
    verify_certificate,
    verify_classification,
)
from triorbit.cli import main as cli_main
from triorbit.modpairs import ring_matrices
from triorbit.oracle import _build_report, _key_pair, _pair_key, random_free_pairs
from tests.conftest import TABLE_N4, make_pair

SAMPLE_SEED = 2024
SAMPLE_SIZE = 10000
VERIFY_SAMPLES = 2000

# Criterion 5 canonicalizes every free pair of the exhaustive cases and
# SAMPLE_SIZE seeded free pairs of the random ones.
EXHAUSTIVE_CASES = [(2, 2), (2, 3), (3, 2)]
RANDOM_CASES = [(4, 2), (4, 3), (5, 2)]

_REPORT_CACHE = {}
_TALLY_CACHE = {}

# One canonicalize call: result and cert are None when it raised.
Outcome = namedtuple("Outcome", "pair profile result cert search_steps")


def build_report_cached(n, p):
    key = (n, p)
    if key not in _REPORT_CACHE:
        _REPORT_CACHE[key] = _build_report(n, p)
    return _REPORT_CACHE[key]


def oracle_orbit(oracle_data, pair):
    """Index of the oracle orbit holding the submodule generated by pair."""
    keys, orbits, orbit_of, orbit_canonical = oracle_data
    return orbit_of[_pair_key(pair)]


def canonicalization_tally(n, p):
    """Criterion 5's pairs at (n, p), each canonicalized once.

    Returns (outcomes, flag profiles of the canonical pairs).  Criteria 4, 5
    and 8 all read this memoized tally, so their counts do not depend on
    which of them ran before.
    """
    key = (n, p)
    if key not in _TALLY_CACHE:
        field = GF(p)
        if key in EXHAUSTIVE_CASES:
            pairs = [ModulePair(A, B)
                     for A in ring_matrices(field, n)
                     for B in ring_matrices(field, n)]
            pairs = [pair for pair in pairs if pair.is_free()]
        else:
            pairs = random_free_pairs(field, n, SAMPLE_SIZE, seed=SAMPLE_SEED)
        outcomes = []
        for pair in pairs:
            profile = flag_profile(pair)
            try:
                result, cert, trace = canonicalize(pair)
            except CanonicalizationFailed:
                outcomes.append(Outcome(pair, profile, None, None, 0))
                continue
            outcomes.append(Outcome(pair, profile, result, cert, trace.search_steps))
        canonical = frozenset(flag_profile(cp) for cp in enumerate_canonical(n, field))
        _TALLY_CACHE[key] = (outcomes, canonical)
    return _TALLY_CACHE[key]


def announce(criterion, ok, detail):
    line = f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# -- criterion 1: Bell counts ---------------------------------------------------


def count_partitions_by_insertion(n):
    """Exhaustive independent enumeration (insert n into every block or alone)."""
    if n == 0:
        return 1
    shapes = [[]]
    for x in range(1, n + 1):
        grown = []
        for shape in shapes:
            for i in range(len(shape)):
                grown.append(shape[:i] + [shape[i] + [x]] + shape[i + 1:])
            grown.append(shape + [[x]])
        shapes = grown
    return len(shapes)


def bell_by_stirling(n):
    """Second independent route: sum of Stirling numbers of the second kind."""
    S = [[0] * (n + 1) for _ in range(n + 1)]
    S[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            S[m][k] = k * S[m - 1][k] + S[m - 1][k - 1]
    return sum(S[n])


def test_criterion_1_bell_counts(capsys):
    start = time.monotonic()
    assert bell(2) == 2
    assert bell(3) == 5
    assert bell(4) == 15
    for n in range(0, 11):
        assert bell(n) == count_partitions_by_insertion(n)
    for n in range(0, 13):
        assert bell(n) == bell_by_stirling(n)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        line = announce(1, elapsed < 1.0,
                        f"bell counts verified two independent ways ({elapsed:.2f}s)")
    assert elapsed < 1.0, line


# -- criterion 2: the representative table ---------------------------------------


def test_criterion_2_representative_table(capsys):
    start = time.monotonic()
    code = cli_main(["enumerate", "--n", "4", "--with-partitions",
                     "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    got = set()
    for entry in doc["pairs"]:
        a_diag = tuple(entry["A"][i][i] for i in range(4))
        ones = tuple(sorted((i + 1, j + 1)
                            for i in range(4) for j in range(i)
                            if entry["B"][i][j]))
        got.add((a_diag, ones, entry["partition"]))
    expected = {(diag, tuple(sorted(ones)), part) for diag, ones, part in TABLE_N4}
    elapsed = time.monotonic() - start
    with capsys.disabled():
        announce(2, got == expected and elapsed < 1.0,
                 f"table of 15 representatives with partitions ({elapsed:.2f}s)")
    assert got == expected
    assert elapsed < 1.0


# -- criterion 3: bijection fixtures ----------------------------------------------


def test_criterion_3_bijection_round_trips(pair_t6, gf2, capsys):
    start = time.monotonic()
    assert str(pair_to_partition(pair_t6)) == "{1}{2,3,6}{4,5}"
    assert partition_to_pair(6, SetPartition.parse("{1}{2,3,6}{4,5}"), gf2) == pair_t6
    for n in range(2, 9):
        partitions = enumerate_partitions(n)
        pairs = enumerate_canonical(n, gf2)
        assert len(partitions) == bell(n) == len(pairs)
        for part in partitions:
            assert pair_to_partition(partition_to_pair(n, part, gf2)) == part
        for pair in pairs:
            assert partition_to_pair(n, pair_to_partition(pair), gf2) == pair
    elapsed = time.monotonic() - start
    with capsys.disabled():
        line = announce(3, elapsed < 10.0,
                        f"both round trips hold for 2 <= n <= 8, B_8 = {bell(8)} "
                        f"cases ({elapsed:.2f}s)")
    assert elapsed < 10.0, line


# -- the flag invariant: the classification that actually holds --------------------


def _insert_row(basis, row, p):
    """Reduce row mod p against basis (lead index -> monic row); True if new."""
    while True:
        lead = next((k for k, v in enumerate(row) if v), None)
        if lead is None:
            return False
        known = basis.get(lead)
        if known is None:
            inv = pow(row[lead], p - 2, p)
            basis[lead] = [v * inv % p for v in row]
            return True
        factor = row[lead]
        row = [(x - factor * y) % p for x, y in zip(row, known)]


def flag_profile(pair):
    """The matrix d[i-1][j-1] = dim(R_i & W_j), 1 <= i, j <= n.

    R_i & W_j is the kernel of the projection of R_i onto the columns > j
    of A and of B, and the rows of a free pair are independent, so d_ij is
    i minus the rank of rows 1..i restricted to those columns.  This is
    deliberately not canonical.span_profile, which canonicalize itself uses
    to decide to raise.
    """
    n, p = pair.n, pair.field.p
    rows = [(pair.A.row(i), pair.B.row(i)) for i in range(1, n + 1)]
    by_column = []
    for j in range(1, n + 1):
        basis = {}
        rank = 0
        dims = []
        for i, (a, b) in enumerate(rows, start=1):
            rank += _insert_row(basis, a[j:] + b[j:], p)
            dims.append(i - rank)
        by_column.append(dims)
    return tuple(tuple(by_column[j][i] for j in range(n)) for i in range(n))


def enumerate_jump_maps(n):
    """Exhaustive enumeration: j(i) <= i, no value taken more than twice."""
    maps = [()]
    for i in range(1, n + 1):
        maps = [m + (j,) for m in maps for j in range(1, i + 1) if m.count(j) < 2]
    return maps


def jump_map_profile(jump):
    """The flag profile of a jump map: d_ij = #{k <= i : j(k) <= j}."""
    n = len(jump)
    return tuple(tuple(sum(1 for k in range(i) if jump[k] <= j)
                       for j in range(1, n + 1))
                 for i in range(1, n + 1))


def zigzag_by_boustrophedon(m):
    """Second independent route: the Euler zigzag number E_m (Seidel)."""
    row = [1]
    for _ in range(m):
        grown = [0]
        for x in reversed(row):
            grown.append(grown[-1] + x)
        row = grown
    return row[-1]


def test_jump_maps_are_counted_by_zigzag_numbers():
    assert [len(enumerate_jump_maps(n)) for n in range(1, 7)] == [1, 2, 5, 16, 61, 272]
    for n in range(1, 9):
        assert len(enumerate_jump_maps(n)) == zigzag_by_boustrophedon(n + 1)
    assert len(enumerate_jump_maps(4)) == bell(4) + 1


@pytest.mark.parametrize("n,p", [(3, 2), (4, 2)])
def test_flag_profile_separates_oracle_orbits(n, p):
    report, (keys, orbits, orbit_of, orbit_canonical) = build_report_cached(n, p)
    profiles = []
    for members in orbits:
        seen = {flag_profile(_key_pair(GF(p), keys[ordinal]))
                for ordinal in members}
        assert len(seen) == 1, "flag profile is not constant on an oracle orbit"
        profiles.append(seen.pop())
    assert len(set(profiles)) == len(orbits), "flag profile merges two orbits"
    assert set(profiles) == {jump_map_profile(j) for j in enumerate_jump_maps(n)}


# -- criterion 4: exhaustive orbit verification ------------------------------------


def count_pairs_in_orbits_without_canonical(n, p, report):
    """How many pairs of verify's seeded sample lie in an orbit with no canonical pair."""
    assert report.sampled and report.seed == SAMPLE_SEED
    oracle_report, oracle_data = build_report_cached(n, p)
    outcomes, _ = canonicalization_tally(n, p)
    sample = [o.pair for o in outcomes[:VERIFY_SAMPLES]]
    # verify draws its sample from the same seeded stream as criterion 5.
    assert sample == random_free_pairs(GF(p), n, VERIFY_SAMPLES, seed=SAMPLE_SEED)
    return sum(1 for pair in sample
               if oracle_report.orbits[oracle_orbit(oracle_data, pair)].canonical_count == 0)


@pytest.mark.parametrize("n,p,limit", [
    (2, 2, 120.0), (2, 3, 120.0), (3, 2, 120.0), (3, 3, 120.0), (4, 2, 600.0),
])
def test_criterion_4_exhaustive_orbit_verification(n, p, limit, capsys):
    start = time.monotonic()
    report = verify_classification(n, p, samples=VERIFY_SAMPLES, seed=SAMPLE_SEED)
    elapsed = time.monotonic() - start
    expected_orbits = len(enumerate_jump_maps(n))
    is_bell = expected_orbits == bell(n)
    with_canonical = sum(1 for o in report.orbits if o.canonical_count == 1)
    without_canonical = sum(1 for o in report.orbits if o.canonical_count == 0)
    if is_bell:
        # Then every orbit holds its canonical pair (checked below).
        expected_failures = 0
    else:
        expected_failures = count_pairs_in_orbits_without_canonical(n, p, report)
    verdicts = report.verdicts
    checks = {
        "orbit count equals the number of jump maps":
            report.orbit_count == expected_orbits,
        "Bell(n) orbits hold one canonical pair":
            with_canonical == bell(n),
        "the other orbits hold none":
            without_canonical == report.orbit_count - bell(n),
        "one unimodular orbit":
            sum(1 for o in report.orbits if o.unimodular) == 1,
        "single_unimodular_orbit verdict": verdicts["single_unimodular_orbit"],
        "outliers_generate_the_rest verdict": verdicts["outliers_generate_the_rest"],
        "orbit_count_equals_bell verdict iff the count is Bell":
            verdicts["orbit_count_equals_bell"] == is_bell,
        "passed iff the count is Bell": report.passed == is_bell,
        "failures are the pairs in orbits without canonical pair":
            report.canonicalization_failures == expected_failures,
    }
    failed = [name for name, holds in checks.items() if not holds]
    with capsys.disabled():
        announce(4, not failed and elapsed < limit,
                 f"(n={n}, p={p}): orbits={report.orbit_count}, "
                 f"jump maps={expected_orbits}, bell={bell(n)}, "
                 f"orbits with a canonical pair={with_canonical}, "
                 f"canonicalization failures={report.canonicalization_failures} "
                 f"(expected {expected_failures}), "
                 f"passed={report.passed} ({elapsed:.1f}s)")
    assert elapsed < limit
    assert not failed, (failed, verdicts)


# -- criterion 5: canonicalization soundness ---------------------------------------


def check_canonicalizations(n, p, oracle_data):
    """Criterion 5's per-pair checks on the tally at (n, p).

    A pair must raise CanonicalizationFailed exactly when its flag profile
    matches no canonical pair's, and otherwise yield a canonical pair with
    the same flag profile and a verified certificate.  With oracle_data the
    result must also land on its orbit's canonical pair, and a raising pair
    must lie in an orbit without one.  Returns (pairs, failures, problems).
    """
    outcomes, canonical = canonicalization_tally(n, p)
    oracle_report, data = oracle_data if oracle_data is not None else (None, None)
    failures = 0
    problems = []
    for o in outcomes:
        if o.result is None:
            failures += 1
            if o.profile in canonical:
                problems.append(("raised, yet a canonical pair has its profile", o.pair))
            elif (data is not None and
                  oracle_report.orbits[oracle_orbit(data, o.pair)].canonical_count):
                problems.append(("raised in an orbit holding a canonical pair", o.pair))
            continue
        if o.profile not in canonical:
            problems.append(("returned, yet no canonical pair has its profile", o.pair))
        elif not is_canonical(o.result):
            problems.append(("result is not canonical", o.pair))
        elif not verify_certificate(o.pair, o.result, o.cert):
            problems.append(("certificate fails", o.pair))
        elif flag_profile(o.result) != o.profile:
            problems.append(("result has another flag profile", o.pair))
        elif data is not None:
            keys, orbits, orbit_of, orbit_canonical = data
            expected = orbit_canonical[oracle_orbit(data, o.pair)]
            if _pair_key(o.result) != expected:
                problems.append(("result lies in another oracle orbit", o.pair))
    return len(outcomes), failures, problems


@pytest.mark.parametrize("n,p", EXHAUSTIVE_CASES)
def test_criterion_5_exhaustive_canonicalization(n, p, capsys):
    checked, failures, problems = check_canonicalizations(
        n, p, build_report_cached(n, p))
    with capsys.disabled():
        announce(5, failures == 0 and not problems,
                 f"exhaustive (n={n}, p={p}): {checked} free pairs, "
                 f"{failures} failures, {len(problems)} problems")
    assert not problems, problems[:3]
    assert failures == 0


@pytest.mark.parametrize("n,p", RANDOM_CASES)
def test_criterion_5_random_canonicalization(n, p, capsys):
    oracle_data = build_report_cached(n, p) if (n, p) == (4, 2) else None
    checked, failures, problems = check_canonicalizations(n, p, oracle_data)
    with capsys.disabled():
        announce(5, not problems,
                 f"random (n={n}, p={p}): {checked} seeded free pairs, "
                 f"{failures} raised CanonicalizationFailed, "
                 f"{len(problems)} problems")
    assert checked == SAMPLE_SIZE
    assert not problems, problems[:3]


# -- criterion 6: predicate equivalences -------------------------------------------


def test_criterion_6_predicate_equivalences(capsys):
    start = time.monotonic()
    mismatches = 0
    for (n, p) in [(2, 2), (2, 3), (3, 2)]:
        field = GF(p)
        for A in ring_matrices(field, n):
            for B in ring_matrices(field, n):
                pair = ModulePair(A, B)
                if pair.is_free() != is_free_oracle(pair):
                    mismatches += 1
    for (n, p) in [(2, 2), (2, 3)]:
        field = GF(p)
        for A in ring_matrices(field, n):
            for B in ring_matrices(field, n):
                pair = ModulePair(A, B)
                lhs = is_outlier_oracle(pair) and pair.is_free()
                rhs = (not pair.is_unimodular()) and pair.is_free()
                if lhs != rhs:
                    mismatches += 1
    elapsed = time.monotonic() - start
    with capsys.disabled():
        announce(6, mismatches == 0,
                 f"freeness and outlier biconditionals, {mismatches} mismatches "
                 f"({elapsed:.1f}s)")
    assert mismatches == 0


# -- criterion 7: the worked reduction ---------------------------------------------


def test_criterion_7_worked_reduction(fixture_t7, gf5, capsys):
    start = time.monotonic()
    G = fixture_t7.B
    pivots = select_pivots(G)
    assert pivots == [(3, 2), (5, 4), (6, 3), (7, 1)]
    V = build_v(G, pivots)
    f, e, v = gf5, G.entry, V.entry
    assert v(2, 2) == f.inv(e(3, 2))
    assert v(4, 4) == f.inv(e(5, 4))
    assert v(4, 3) == f.neg(f.mul(f.inv(e(5, 4)), f.mul(e(5, 3), v(3, 3))))
    assert v(3, 3) == f.mul(f.inv(e(6, 3)), f.sub(1, f.mul(e(6, 4), v(4, 3))))
    result, cert, trace = canonicalize(fixture_t7)
    expected = make_pair(gf5, (1, 1, 0, 1, 0, 0, 0),
                         ((3, 2), (5, 4), (6, 3), (7, 1)))
    assert result == expected
    assert verify_certificate(fixture_t7, result, cert)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        announce(7, elapsed < 1.0,
                 f"pivots, V relations, final canonical pair, certificate "
                 f"({elapsed:.2f}s)")
    assert elapsed < 1.0


# -- criterion 8: failure accounting ------------------------------------------------


def test_criterion_8_failure_count(capsys):
    # A failure is explained when the pair's flag profile matches no
    # canonical pair (its orbit has no canonical form); an unexplained one
    # would be a search stall on a reachable pair.
    checked = explained = unexplained = activations = 0
    for (n, p) in EXHAUSTIVE_CASES + RANDOM_CASES:
        outcomes, canonical = canonicalization_tally(n, p)
        checked += len(outcomes)
        for o in outcomes:
            activations += o.search_steps
            if o.result is None:
                if o.profile in canonical:
                    unexplained += 1
                else:
                    explained += 1
    with capsys.disabled():
        announce(8, unexplained == 0,
                 f"{checked} pairs of criterion 5, search activations logged: "
                 f"{activations}; canonicalization failures: {explained} "
                 f"explained (no canonical pair has the profile), "
                 f"{unexplained} unexplained")
    assert unexplained == 0, (
        f"{unexplained} canonicalization failures on pairs whose flag profile "
        "matches a canonical pair")
