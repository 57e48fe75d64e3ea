import json
import re

import pytest
from hypothesis import given, settings

from triorbit import (
    GF,
    BudgetExceeded,
    TriOrbitError,
    LowerTriMatrix,
    ModulePair,
    NotFree,
    cyclic_submodule,
    is_free_oracle,
    is_outlier_oracle,
    parse_pair,
)
from triorbit.modpairs import format_pair, ring_matrices, unit_matrices
from tests.conftest import pair_texts


def all_pairs(field, n):
    ring = list(ring_matrices(field, n))
    for A in ring:
        for B in ring:
            yield ModulePair(A, B)


def test_identity_zero_pair_is_free_and_unimodular(gf2):
    pair = ModulePair(LowerTriMatrix.identity(gf2, 2), LowerTriMatrix.zero(gf2, 2))
    assert pair.is_free()
    assert pair.is_unimodular()
    assert not pair.is_outlier_generating_free()


def test_zero_pair_is_nothing(gf2):
    Z = LowerTriMatrix.zero(gf2, 2)
    pair = ModulePair(Z, Z)
    assert not pair.is_free()
    assert not is_free_oracle(pair)
    assert not pair.is_outlier_generating_free()


def test_prior_work_outlier_pair(gf2):
    pair = ModulePair(LowerTriMatrix.diagonal(gf2, [1, 0]),
                      LowerTriMatrix.single(gf2, 2, 2, 1))
    assert pair.is_free()
    assert not pair.is_unimodular()
    assert pair.is_outlier_generating_free()
    assert is_outlier_oracle(pair)


def test_zero_a_unimodular_via_b(gf2):
    pair = ModulePair(LowerTriMatrix.zero(gf2, 2), LowerTriMatrix.identity(gf2, 2))
    assert pair.is_unimodular()


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_rank_freeness_agrees_with_annihilator_oracle(n, p):
    f = GF(p)
    for pair in all_pairs(f, n):
        assert pair.is_free() == is_free_oracle(pair)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
def test_outlier_oracle_biconditional(n, p):
    f = GF(p)
    for pair in all_pairs(f, n):
        lhs = is_outlier_oracle(pair) and pair.is_free()
        rhs = (not pair.is_unimodular()) and pair.is_free()
        assert lhs == rhs


def test_unimodular_submodules_have_no_nonunimodular_generators(gf2):
    units = list(unit_matrices(gf2, 2))
    for pair in all_pairs(gf2, 2):
        if pair.is_free() and pair.is_unimodular():
            for u in units:
                moved = ModulePair(u * pair.A, u * pair.B)
                assert moved.is_unimodular()


def test_submodule_key_invariant_under_units(gf2):
    units = list(unit_matrices(gf2, 2))
    for pair in all_pairs(gf2, 2):
        if not pair.is_free():
            continue
        key = cyclic_submodule(pair)
        for u in units:
            assert cyclic_submodule(ModulePair(u * pair.A, u * pair.B)) == key


def test_submodule_key_of_identity_pair(gf2):
    # The unit orbit of (I, 0) is {(U, 0)}; the least unit is the identity.
    pair = ModulePair(LowerTriMatrix.identity(gf2, 2), LowerTriMatrix.zero(gf2, 2))
    key = cyclic_submodule(pair)
    assert key.generator == pair


def test_free_generators_are_exactly_the_unit_multiples(gf2):
    # Definitional check that the min-over-units key identifies submodules:
    # two free pairs span the same submodule set iff they are unit multiples.
    ring = list(ring_matrices(gf2, 2))
    units = list(unit_matrices(gf2, 2))

    def span(pair):
        return frozenset(ModulePair(r * pair.A, r * pair.B) for r in ring)

    frees = [pair for pair in all_pairs(gf2, 2) if pair.is_free()]
    spans = {pair: span(pair) for pair in frees}
    for x in frees:
        unit_orbit = {ModulePair(u * x.A, u * x.B) for u in units}
        same_span = {y for y in frees if spans[y] == spans[x]}
        assert same_span == unit_orbit
        same_key = {y for y in frees if cyclic_submodule(y) == cyclic_submodule(x)}
        assert same_key == unit_orbit


def test_distinct_orbit_pairs_have_distinct_keys(gf2):
    a = ModulePair(LowerTriMatrix.identity(gf2, 2), LowerTriMatrix.zero(gf2, 2))
    b = ModulePair(LowerTriMatrix.diagonal(gf2, [1, 0]),
                   LowerTriMatrix.single(gf2, 2, 2, 1))
    assert cyclic_submodule(a) != cyclic_submodule(b)


def test_submodule_key_requires_freeness(gf2):
    Z = LowerTriMatrix.zero(gf2, 2)
    with pytest.raises(NotFree):
        cyclic_submodule(ModulePair(Z, Z))


def test_budget_guard(monkeypatch):
    f = GF(2)
    pair = ModulePair(LowerTriMatrix.identity(f, 4), LowerTriMatrix.zero(f, 4))
    monkeypatch.setenv("TRIORBIT_BUDGET", "16")
    with pytest.raises(BudgetExceeded):
        is_free_oracle(pair)


def test_total_order_on_pairs(gf2):
    I = LowerTriMatrix.identity(gf2, 2)
    Z = LowerTriMatrix.zero(gf2, 2)
    assert ModulePair(Z, Z) < ModulePair(Z, I) < ModulePair(I, Z)


# -- pair files ---------------------------------------------------------------


def test_pair_file_round_trip(gf5):
    A = LowerTriMatrix.from_rows(gf5, [[1, 0], [3, 4]])
    B = LowerTriMatrix.from_rows(gf5, [[0, 0], [2, 0]])
    pair = ModulePair(A, B)
    assert parse_pair(format_pair(pair)) == pair


def test_pair_file_structured_form():
    text = '{"n": 2, "p": 5, "A": [[1,0],[3,4]], "B": [[0,0],[2,0]]}'
    pair = parse_pair(text)
    assert pair.field.p == 5
    assert pair.A.entry(2, 2) == 4
    assert pair.B.entry(2, 1) == 2


@pytest.mark.parametrize("field, value", [
    ("n", 2.0), ("n", True), ("p", 2.0), ("p", True), ("p", "2"),
    ("A", 1.9), ("A", True), ("A", 1.0), ("B", False), ("B", "1"),
])
def test_pair_file_structured_form_rejects_non_integers(field, value):
    doc = {"n": 2, "p": 2, "A": [[1, 0], [0, 1]], "B": [[0, 0], [1, 0]]}
    if field in ("A", "B"):
        doc[field][1][0] = value
    else:
        doc[field] = value
    with pytest.raises(ValueError):
        parse_pair(json.dumps(doc))


def test_pair_file_rejects_upper_entries():
    with pytest.raises(Exception):
        parse_pair("2 2\n1 1\n0 1\n\n0 0\n0 0\n")


def test_pair_file_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_pair("2\n1 0\n0 1\n\n0 0\n0 0\n")


@pytest.mark.parametrize("text,token", [
    ("2 11\n1 0\n1_0 1\n\n0 0\n\u0663 0\n", "1_0"),
    ("2 11\n1 0\n1 1\n\n0 0\n\u0663 0\n", "\u0663"),
    ("\u0662 3\n1 0\n0 1\n\n0 0\n0 0\n", "\u0662"),
    ("2 1_1\n1 0\n0 1\n\n0 0\n0 0\n", "1_1"),
])
def test_text_pair_form_reads_only_ascii_decimal_digits(text, token):
    # int() would read the entry "1_0" as 10, the Arabic-Indic digits as 3
    # and 2, and the header "1_1" as 11; the error names the token.
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        parse_pair(text)


@settings(max_examples=300, deadline=None)
@given(pair_texts)
def test_parse_pair_raises_only_value_errors(text):
    try:
        pair = parse_pair(text)
    except (ValueError, TriOrbitError):
        return
    assert isinstance(pair, ModulePair)
