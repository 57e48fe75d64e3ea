"""The jump-map test that decides whether a free pair has a canonical form.

``canonicalize`` raises CanonicalizationFailed exactly when the pair's
jump map fails ``is_canonical_jump_map``.  These tests hold that test
against the reference it replaced, the span profiles of all Bell(n)
canonical pairs, and show that it works at dimensions where enumerating
those pairs is out of reach.
"""

import random
import time

import pytest

from triorbit import (
    GF,
    CanonicalizationFailed,
    LowerTriMatrix,
    ModulePair,
    SetPartition,
    act_left_unit,
    canonicalize,
    enumerate_canonical,
    partition_to_pair,
)
from triorbit.canonical import (
    is_canonical_jump_map,
    jump_map,
    reachable_profiles,
    span_profile,
)
from triorbit.cli import main
from triorbit.modpairs import format_pair, ring_matrices
from triorbit.oracle import enumerate_free_submodules, random_free_pairs
from triorbit.trimat import _echelon_insert

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def all_jump_maps(n):
    """Every j with j(i) <= i taking no value more than twice, built here."""
    maps = [()]
    for i in range(1, n + 1):
        maps = [m + (c,) for m in maps for c in range(1, i + 1) if m.count(c) < 2]
    return maps


def _agrees(pair, profiles):
    return is_canonical_jump_map(jump_map(pair)) == (span_profile(pair) in profiles)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_jump_map_test_matches_profiles_on_every_submodule(n, p):
    profiles = reachable_profiles(n)
    for sub in enumerate_free_submodules(n, p):
        assert _agrees(sub.generator, profiles)


@pytest.mark.parametrize("n,p", [(5, 2), (7, 2)])
def test_jump_map_test_matches_profiles_on_seeded_pairs(n, p):
    profiles = reachable_profiles(n)
    pairs = random_free_pairs(GF(p), n, 2000, seed=0)
    assert all(_agrees(pair, profiles) for pair in pairs)
    # Both outcomes occur, so the agreement is not vacuous.
    assert len({is_canonical_jump_map(jump_map(pair)) for pair in pairs}) == 2


def _jump_map_by_columns(pair):
    # The jump map through the public column() reader, one insertion per
    # A- and B-column from j = n down to 1.
    n, p = pair.n, pair.field.p
    basis = {}
    jumps = [0] * n
    for j in range(n, 0, -1):
        for M in (pair.A, pair.B):
            lead = _echelon_insert(basis, M.column(j), p)
            if lead is not None:
                jumps[lead] = j
    return tuple(jumps)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_packed_jump_map_matches_column_reference(n, p):
    # Every pair, free or not.
    f = GF(p)
    for A in ring_matrices(f, n):
        for B in ring_matrices(f, n):
            pair = ModulePair(A, B)
            assert jump_map(pair) == _jump_map_by_columns(pair)


def test_exactly_bell_many_jump_maps_pass():
    zigzag = [1, 1, 2, 5, 16, 61, 272, 1385, 7936]  # E_(n+1)
    for n in range(1, 9):
        maps = all_jump_maps(n)
        assert len(maps) == zigzag[n]
        assert sum(1 for j in maps if is_canonical_jump_map(j)) == BELL[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_passing_jump_maps_are_those_of_canonical_pairs(n):
    passing = {j for j in all_jump_maps(n) if is_canonical_jump_map(j)}
    assert {jump_map(c) for c in enumerate_canonical(n)} == passing


def _random_unit(field, n, rng):
    p = field.p
    return LowerTriMatrix(field, n, [rng.randrange(1, p) if j == i else rng.randrange(p)
                                     for i in range(1, n + 1) for j in range(1, i + 1)])


def _unreachable_pair(field, n):
    """M(j) for j = (1, 1, 2, 2, 5, 6, ..., n): value 2 is taken by rows 3 and 4.

    Row i of [A|B] is the unit vector at a_(j(i)) where j(i) first occurs
    and at b_(j(i)) where it occurs again.
    """
    jumps = (1, 1, 2, 2, *range(5, n + 1))
    A = LowerTriMatrix.zero(field, n)
    B = LowerTriMatrix.zero(field, n)
    for i, c in enumerate(jumps, start=1):
        if jumps.index(c) == i - 1:
            A = A.with_entry(i, c, 1)
        else:
            B = B.with_entry(i, c, 1)
    return ModulePair(A, B)


LARGE = [(14, 2, "{1,5,9}{2,3}{4,14}{6,7,8}{10,11,12,13}"),
         (12, 3, "{1,4}{2,6,12}{3}{5,7,8}{9,10,11}")]


@pytest.mark.parametrize("n,p,partition", LARGE)
def test_large_dimension_without_enumeration(n, p, partition, tmp_path, capsys):
    f = GF(p)
    target = partition_to_pair(n, SetPartition.parse(partition), f)
    moved = act_left_unit(_random_unit(f, n, random.Random(n)), target)
    assert moved != target
    start = time.perf_counter()
    result, _, trace = canonicalize(moved)
    assert time.perf_counter() - start < 1
    assert result == target
    assert trace.search_steps == 0

    unreachable = _unreachable_pair(f, n)
    assert unreachable.is_free()
    assert not is_canonical_jump_map(jump_map(unreachable))
    start = time.perf_counter()
    with pytest.raises(CanonicalizationFailed, match="matches no canonical pair"):
        canonicalize(unreachable)
    assert time.perf_counter() - start < 1

    for pair, code in ((moved, 0), (unreachable, 1)):
        path = tmp_path / "pair.txt"
        path.write_text(format_pair(pair))
        assert main(["canonicalize", "--input", str(path)]) == code
        capsys.readouterr()
