import re

import pytest
from hypothesis import given, settings, strategies as st

from triorbit import (
    GF,
    InvalidPartition,
    NotCanonical,
    SetPartition,
    bell,
    enumerate_canonical,
    enumerate_partitions,
    pair_to_partition,
    partition_to_pair,
)
from tests.conftest import make_pair


def brute_force_partitions(n):
    """Independent enumerator: insert each element into any block or a new one."""
    if n == 0:
        return [[]]
    out = []
    for smaller in brute_force_partitions(n - 1):
        for i in range(len(smaller)):
            out.append([b + [n] if j == i else list(b)
                        for j, b in enumerate(smaller)])
        out.append([list(b) for b in smaller] + [[n]])
    return out


def test_bell_small_values():
    assert bell(0) == 1
    assert bell(1) == 1
    assert bell(2) == 2
    assert bell(3) == 5
    assert bell(4) == 15
    assert bell(5) == 52
    assert bell(8) == 4140


@pytest.mark.parametrize("n", range(1, 9))
def test_bell_matches_independent_enumeration(n):
    assert bell(n) == len(brute_force_partitions(n))


def test_enumerate_partitions_counts_and_uniqueness():
    for n in range(1, 8):
        parts = enumerate_partitions(n)
        assert len(parts) == bell(n)
        assert len(set(parts)) == len(parts)


def test_enumerate_partitions_n2():
    parts = enumerate_partitions(2)
    assert parts[0] == SetPartition([[1, 2]])
    assert SetPartition([[1], [2]]) in parts
    assert len(parts) == 2


def test_partition_normalization_and_parse():
    a = SetPartition([[3, 2], [1], [5, 4]])
    b = SetPartition.parse("{4,5}{1}{2,3}")
    assert a == b
    assert str(a) == "{1}{2,3}{4,5}"
    assert a.n == 5
    assert len(a) == 3


def test_partition_with_a_far_element_names_a_few_missing():
    # The elements cover 1..n exactly when their maximum is their count, so
    # no range of n is built: 10^12 here, which a set of 1..n could not hold.
    message = r"elements \[3, 4, 5\] and 999999999994 more are missing from 1..1000000000000$"
    with pytest.raises(InvalidPartition, match=message):
        SetPartition([[1], [2], [10 ** 12]])
    with pytest.raises(InvalidPartition, match=message):
        SetPartition.parse("{1}{2}{1000000000000}")
    with pytest.raises(InvalidPartition, match=r"elements \[2, 4\] are missing from 1..5$"):
        SetPartition([[1, 3], [5]])


def test_partition_validation():
    with pytest.raises(InvalidPartition):
        SetPartition([[1, 2], [2, 3]])  # overlap
    with pytest.raises(InvalidPartition):
        SetPartition([[1], [3]])  # gap
    with pytest.raises(InvalidPartition):
        SetPartition([])
    with pytest.raises(InvalidPartition):
        SetPartition.parse("{1,2")
    with pytest.raises(InvalidPartition):
        SetPartition.parse("")
    with pytest.raises(InvalidPartition, match="appears twice"):
        SetPartition.parse("{1,1}{2}")  # a repeat inside one block
    with pytest.raises(InvalidPartition, match="not a positive integer"):
        SetPartition([[True], [2]])  # would print {True}{2}, which parse refuses


@pytest.mark.parametrize("text,token", [
    ("{1}{\u0662,3}", "\u0662"), ("{1}{2,3_0}", "3_0"), ("{1}{+2}", "+2"),
])
def test_partition_parse_reads_only_ascii_decimal_digits(text, token):
    # int() would read "{1}{\u0662,3}" as {1}{2,3}; spaces around an
    # element stay allowed.
    with pytest.raises(InvalidPartition, match=re.escape(repr(token))):
        SetPartition.parse(text)
    assert SetPartition.parse("{1}{ 2 , 3 }") == SetPartition.parse("{1}{2,3}")


def test_six_dim_fixture_to_partition(pair_t6):
    assert str(pair_to_partition(pair_t6)) == "{1}{2,3,6}{4,5}"


def test_six_dim_fixture_from_partition(pair_t6, gf2):
    part = SetPartition.parse("{1}{2,3,6}{4,5}")
    assert partition_to_pair(6, part, gf2) == pair_t6


def test_identity_pair_is_all_singletons(gf2):
    for n in (2, 3, 4, 5):
        pair = make_pair(gf2, (1,) * n, ())
        assert pair_to_partition(pair) == SetPartition.singletons(n)
        assert partition_to_pair(n, SetPartition.singletons(n), gf2) == pair


def test_two_dim_merged_partition(gf2):
    pair = make_pair(gf2, (1, 0), ((2, 1),))
    assert pair_to_partition(pair) == SetPartition([[1, 2]])


def test_single_block_partition_is_subdiagonal_chain(gf2):
    pair = partition_to_pair(4, SetPartition([[1, 2, 3, 4]]), gf2)
    assert pair == make_pair(gf2, (1, 0, 0, 0), ((2, 1), (3, 2), (4, 3)))


def test_fixture_table_partition_labels(table_n4):
    for pair, expected in table_n4:
        assert str(pair_to_partition(pair)) == expected


def test_fixture_table_reverse_direction(table_n4, gf2):
    for pair, label in table_n4:
        part = SetPartition.parse(label)
        assert partition_to_pair(4, part, gf2) == pair


@pytest.mark.parametrize("n", range(2, 9))
def test_round_trip_both_directions(n, gf2):
    partitions = enumerate_partitions(n)
    for part in partitions:
        assert pair_to_partition(partition_to_pair(n, part, gf2)) == part
    pairs = enumerate_canonical(n, gf2)
    for pair in pairs:
        assert partition_to_pair(n, pair_to_partition(pair), gf2) == pair
    assert len(partitions) == bell(n) == len(pairs)


@pytest.mark.parametrize("n", range(2, 9))
def test_unimodularity_marks_the_singleton_partition(n, gf2):
    for part in enumerate_partitions(n):
        pair = partition_to_pair(n, part, gf2)
        assert pair.is_unimodular() == (part == SetPartition.singletons(n))


def test_conversion_requires_canonical_pair(gf2):
    from triorbit import LowerTriMatrix, ModulePair

    bad = ModulePair(LowerTriMatrix.diagonal(gf2, [1, 1]),
                     LowerTriMatrix.single(gf2, 2, 2, 1))
    with pytest.raises(NotCanonical):
        pair_to_partition(bad)


def test_partition_to_pair_dimension_check(gf2):
    with pytest.raises(InvalidPartition):
        partition_to_pair(4, SetPartition([[1, 2]]), gf2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.randoms())
def test_random_partition_round_trip(n, rng):
    labels = [0] + [rng.randrange(0, i + 1) for i in range(1, n)]
    blocks = {}
    for i, lab in enumerate(labels, start=1):
        blocks.setdefault(min(lab, len(blocks)), []).append(i)
    part = SetPartition(blocks.values())
    pair = partition_to_pair(n, part, GF(2))
    assert pair_to_partition(pair) == part
