"""Shared fixtures: the worked examples the implementation must reproduce."""

import json

import pytest
from hypothesis import strategies as st

from triorbit import GF, LowerTriMatrix, ModulePair

# The full table of canonical representatives at n=4 with their partitions:
# (diagonal of A, positions of ones in B, partition string).
TABLE_N4 = [
    ((1, 1, 1, 1), (), "{1}{2}{3}{4}"),
    ((1, 1, 1, 0), ((4, 1),), "{1,4}{2}{3}"),
    ((1, 1, 1, 0), ((4, 2),), "{1}{2,4}{3}"),
    ((1, 1, 1, 0), ((4, 3),), "{1}{2}{3,4}"),
    ((1, 1, 0, 1), ((3, 1),), "{1,3}{2}{4}"),
    ((1, 1, 0, 1), ((3, 2),), "{1}{2,3}{4}"),
    ((1, 0, 1, 1), ((2, 1),), "{1,2}{3}{4}"),
    ((1, 1, 0, 0), ((3, 1), (4, 2)), "{1,3,4}{2}"),
    ((1, 1, 0, 0), ((3, 1), (4, 3)), "{1,3}{2,4}"),
    ((1, 1, 0, 0), ((3, 2), (4, 1)), "{1,4}{2,3}"),
    ((1, 1, 0, 0), ((3, 2), (4, 3)), "{1}{2,3,4}"),
    ((1, 0, 1, 0), ((2, 1), (4, 2)), "{1,2,4}{3}"),
    ((1, 0, 1, 0), ((2, 1), (4, 3)), "{1,2}{3,4}"),
    ((1, 0, 0, 1), ((2, 1), (3, 2)), "{1,2,3}{4}"),
    ((1, 0, 0, 0), ((2, 1), (3, 2), (4, 3)), "{1,2,3,4}"),
]


def make_pair(field, diag, b_ones):
    n = len(diag)
    A = LowerTriMatrix.diagonal(field, list(diag))
    B = LowerTriMatrix.zero(field, n)
    for (i, j) in b_ones:
        B = B.with_entry(i, j, 1)
    return ModulePair(A, B)


@pytest.fixture
def gf2():
    return GF(2)


@pytest.fixture
def gf5():
    return GF(5)


@pytest.fixture
def table_n4(gf2):
    return [(make_pair(gf2, diag, ones), part) for diag, ones, part in TABLE_N4]


@pytest.fixture
def pair_t6(gf2):
    # A = diag(1,1,0,1,0,0); ones of B at (3,2), (5,4), (6,3).
    return make_pair(gf2, (1, 1, 0, 1, 0, 0), ((3, 2), (5, 4), (6, 3)))


@pytest.fixture
def fixture_t7(gf5):
    """The staged 7-dimensional reduction input over GF(5).

    A = diag(1,1,0,1,0,0,0); G holds the symbolic entries instantiated as
    g32=2, g54=3, g63=1, g71=4 and every other listed entry 1.
    """
    A = LowerTriMatrix.diagonal(gf5, [1, 1, 0, 1, 0, 0, 0])
    rows = [[0] * 7 for _ in range(7)]
    rows[2][0], rows[2][1] = 1, 2
    rows[4][0], rows[4][1], rows[4][2], rows[4][3] = 1, 1, 1, 3
    rows[5][0], rows[5][1], rows[5][2], rows[5][3] = 1, 1, 1, 1
    rows[6][0], rows[6][1], rows[6][2], rows[6][3] = 4, 1, 1, 1
    G = LowerTriMatrix.from_rows(gf5, rows)
    return ModulePair(A, G)


# -- fuzzing input for pair files ----------------------------------------------

# Small JSON values: moduli stay tiny (the primality test is trial
# division) and matrices stay at n <= 3 so that canonicalize stays fast.
_json_scalars = (st.none() | st.booleans() | st.integers(-3, 7) | st.text(max_size=4)
                 | st.floats(-100, 100) | st.sampled_from([float("nan"), float("inf")]))
_json_values = st.recursive(
    _json_scalars,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids,
                                                               max_size=3),
    max_leaves=10)
_matrices = st.lists(st.lists(st.integers(-2, 6), max_size=3), max_size=3) | _json_values
_pair_objects = st.fixed_dictionaries({}, optional={
    "n": st.integers(0, 3) | _json_values,
    "p": st.sampled_from([2, 3, 4, 5]) | _json_values,
    "A": _matrices,
    "B": _matrices,
})
_text_lines = st.lists(
    st.lists(st.integers(-2, 6).map(str) | st.text(max_size=2), max_size=4).map(" ".join),
    max_size=8).map("\n".join)
_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


def _lower(n):
    return st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: [[v if j <= i else 0 for j, v in enumerate(row)]
                      for i, row in enumerate(rows)])


def _well_formed(n):
    return st.tuples(st.sampled_from([2, 3, 5]), _lower(n), _lower(n)).flatmap(
        lambda t: st.sampled_from([
            json.dumps({"n": n, "p": t[0], "A": t[1], "B": t[2]}),
            f"{n} {t[0]}\n" + "\n".join(" ".join(map(str, r)) for r in t[1])
            + "\n\n" + "\n".join(" ".join(map(str, r)) for r in t[2]),
        ]))


# Text that parse_pair may meet: arbitrary, text-form-like, JSON-like, or
# a well-formed pair (free or not) in either form.
pair_texts = (_any_text | _text_lines | _pair_objects.map(json.dumps)
              | st.integers(1, 3).flatmap(_well_formed))
