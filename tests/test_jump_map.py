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
    GL2Element,
    LowerTriMatrix,
    ModulePair,
    SetPartition,
    act_left_unit,
    act_right,
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
from triorbit.paper import _echelon_insert, matrix_rank
from triorbit.trimat import _row_moves, _row_pass, augmented_rank

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


def _row_pass_ends(pair, jumps):
    # Apply the row pass's recorded moves and check where they end: row r is
    # 0 where j(r) = 0 and otherwise a single 1 in pair j(r), at b_j(r) for
    # the last row other than j(r) that takes the value j(r), and at a_j(r)
    # for every other row, row j(r) itself and a row whose pivot a third
    # row in the pair moved included.
    f, n, p = pair.field, pair.n, pair.field.p
    _, row_moves, blocks = _row_pass(pair.A, pair.B, record=True)
    A, B = (LowerTriMatrix(f, n, e)
            for e in _row_moves((pair.A.entries, pair.B.entries), row_moves, p))
    end = act_right(ModulePair(A, B), GL2Element(*(LowerTriMatrix(f, n, e) for e in blocks)))
    for r, c in enumerate(jumps, start=1):
        row = {(s, k): v for s, M in (("a", end.A), ("b", end.B))
               for k, v in enumerate(M.row(r), start=1) if v}
        if c == 0:
            assert row == {}
        else:
            last = c != r and c not in jumps[r:]
            assert row == {("b" if last else "a", c): 1}


def _uniform_pairs(field, n, count, seed):
    rng = random.Random(seed)
    m = n * (n + 1) // 2
    for _ in range(count):
        yield ModulePair(LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)]),
                         LowerTriMatrix(field, n, [rng.randrange(field.p) for _ in range(m)]))


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (4, 2), (6, 3), (7, 5), (9, 2)])
def test_packed_jump_map_matches_column_reference(n, p):
    # Every pair, free or not, through (3,2), and 1000 uniformly drawn pairs
    # beyond.  The row pass behind jump_map and augmented_rank against the
    # column echelon above, with the pair its recorded moves reach, and the
    # rank against matrix_rank of the full n x 2n rows [A|B].
    f = GF(p)
    if n <= 3:
        pairs = (ModulePair(A, B) for A in ring_matrices(f, n) for B in ring_matrices(f, n))
    else:
        pairs = _uniform_pairs(f, n, 1000, seed=n * p)
    non_free = third_rows = 0
    for pair in pairs:
        jumps = _jump_map_by_columns(pair)
        assert jump_map(pair) == jumps
        assert _row_pass(pair.A, pair.B, record=True)[0] == jumps
        _row_pass_ends(pair, jumps)
        rank = augmented_rank(pair.A, pair.B)
        assert rank == matrix_rank([pair.A.row(i) + pair.B.row(i) for i in range(1, n + 1)], p)
        assert rank == n - jumps.count(0)
        non_free += rank < n
        # A value c taken by two rows other than c: the second of them is a
        # third row in pair c, which moves the first one's pivot to a_c.
        moved = [c for r, c in enumerate(jumps, start=1) if c not in (0, r)]
        third_rows += len(moved) != len(set(moved))
    # Dependent rows occur, so the zero entries of the jump map are tested.
    assert non_free > 10
    if (n, p) in ((3, 2), (9, 2)):
        assert third_rows > 0


def reference_row_pass(A, B, record=False):
    """The row pass as it was before its per-n plan: slices and a fresh identity.

    Same steps as ``trimat._row_pass``; only the layout differs.  Each row
    of [A|B] is interleaved by slice assignment, the factor's rows are
    built entry by entry and run in the same loop as the pair's rows, and
    the blocks are read off the factor's rows by strided slices.
    """
    n, p = A.n, A.field.p
    a, b = A.entries, B.entries
    steps, jumps, row_moves = [], [], []
    factor = [[int(c == m) for c in range(2 * n)] for m in range(2 * n if record else 0)]
    for i in range(n + len(factor)):
        if i < n:
            start = i * (i + 1) // 2
            w = [0] * (2 * i + 2)
            w[0::2], w[1::2] = a[start:start + i + 1], b[start:start + i + 1]
        else:
            w = factor[i - n]
        for r, e, inv, v, swap in steps:
            t = w[e]
            if t:
                t = t * inv % p
                w[:len(v)] = [(x - t * y) % p for x, y in zip(w, v)]
                if i >= n:
                    w[e] = t
                elif record:
                    row_moves.append((i, r, p - t))
            if swap:
                w[e & ~1], w[e | 1] = w[e | 1], w[e & ~1] * swap % p
        if i >= n:
            continue
        c = 2 * i
        while c >= 0 and not (w[c] or w[c + 1]):
            c -= 2
        jumps.append(c // 2 + 1)
        if c < 0:
            continue
        if c == 2 * i:
            e, swap = (c, 0) if w[c] else (c + 1, p - 1)
        else:
            e, swap = (c + 1, 0) if w[c + 1] else (c, 1)
        steps.append((i, e, pow(w[e], p - 2, p), w, swap))
    if not record:
        return tuple(jumps), None, None
    blocks = tuple(tuple(v for r in range(n) for v in factor[2 * r + h][s:2 * r + 2:2])
                   for h in (0, 1) for s in (0, 1))
    return tuple(jumps), row_moves, blocks


@pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2),
                                 (4, 2), (5, 3), (6, 3), (7, 5), (8, 2)])
def test_row_pass_plan_matches_reference(n, p):
    # Every pair, free or not, through (3,2), and 3000 uniformly drawn
    # pairs beyond: jumps, moves and blocks, recorded or not, equal the
    # reference's, as do their types (tuples of tuples, also at n = 1).
    f = GF(p)
    if n <= 3:
        pairs = (ModulePair(A, B) for A in ring_matrices(f, n) for B in ring_matrices(f, n))
    else:
        pairs = _uniform_pairs(f, n, 3000, seed=n * p)
    for pair in pairs:
        for record in (False, True):
            got = _row_pass(pair.A, pair.B, record)
            assert got == reference_row_pass(pair.A, pair.B, record)
            if record:
                assert all(type(block) is tuple for block in got[2])


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
