import itertools
import random
import re
from fractions import Fraction

import pytest

from triorbit import (
    GF,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidEntry,
    LowerTriMatrix,
    SingularMatrix,
    augmented_rank,
)
from triorbit.modpairs import ring_matrices, unit_matrices
from triorbit.paper import matrix_rank, solve_mod_p
from triorbit.trimat import parse_matrix


def test_identity_is_built_once():
    assert LowerTriMatrix.identity(GF(3), 4) is LowerTriMatrix.identity(GF(3), 4)


def test_identity_multiplication(gf5):
    M = LowerTriMatrix.from_rows(gf5, [[2, 0], [3, 4]])
    I = LowerTriMatrix.identity(gf5, 2)
    assert I * M == M
    assert M * I == M


def test_diagonal_product_of_scalar_inverses(gf5):
    L = LowerTriMatrix.diagonal(gf5, [2, 3])
    R = LowerTriMatrix.diagonal(gf5, [3, 2])
    assert L * R == LowerTriMatrix.identity(gf5, 2)


def test_transvection_inverse(gf5):
    I = LowerTriMatrix.identity(gf5, 2)
    T = I.with_entry(2, 1, 1)
    Tinv = I.with_entry(2, 1, gf5.neg(1))
    assert T * Tinv == I
    assert Tinv * T == I


def test_multiplication_associative_exhaustive_n2_p2(gf2):
    ring = list(ring_matrices(gf2, 2))
    for a, b, c in itertools.product(ring, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_diagonal_of_product_is_entrywise_product(gf5):
    L = LowerTriMatrix.from_rows(gf5, [[2, 0, 0], [1, 3, 0], [4, 2, 1]])
    R = LowerTriMatrix.from_rows(gf5, [[4, 0, 0], [2, 2, 0], [0, 1, 3]])
    prod = L * R
    assert prod.diag() == tuple(
        gf5.mul(a, b) for a, b in zip(L.diag(), R.diag()))


def test_diagonal_law_exhaustive_n2_p3():
    f = GF(3)
    ring = list(ring_matrices(f, 2))
    for L in ring:
        for R in ring:
            assert (L * R).diag() == tuple(
                f.mul(a, b) for a, b in zip(L.diag(), R.diag()))


def test_dimension_mismatch_rejected(gf2, gf5):
    A = LowerTriMatrix.identity(gf2, 2)
    B = LowerTriMatrix.identity(gf2, 3)
    C = LowerTriMatrix.identity(gf5, 2)
    with pytest.raises(DimensionMismatch):
        A * B
    with pytest.raises(DimensionMismatch):
        A * C
    with pytest.raises(DimensionMismatch):
        A + B


def test_unit_detection(gf2):
    assert LowerTriMatrix.identity(gf2, 3).is_unit()
    assert not LowerTriMatrix.diagonal(gf2, [1, 0]).is_unit()
    assert not LowerTriMatrix.zero(gf2, 2).is_unit()


def test_inverse_identity_and_involution(gf2):
    I = LowerTriMatrix.identity(gf2, 2)
    assert I.inverse() == I
    M = LowerTriMatrix.from_rows(gf2, [[1, 0], [1, 1]])
    assert M.inverse() == M  # M squared is the identity in characteristic 2
    with pytest.raises(SingularMatrix):
        LowerTriMatrix.diagonal(gf2, [1, 0]).inverse()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_inverse_is_two_sided_for_all_units(p, n):
    f = GF(p)
    I = LowerTriMatrix.identity(f, n)
    for u in unit_matrices(f, n):
        v = u.inverse()
        assert u * v == I
        assert v * u == I


def test_entry_accessor_bounds(gf2):
    M = LowerTriMatrix.identity(gf2, 2)
    assert M.entry(1, 2) == 0
    with pytest.raises(IndexOutOfRange):
        M.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        M.entry(1, 3)


def test_from_rows_rejects_upper_entries(gf2):
    with pytest.raises(DimensionMismatch):
        LowerTriMatrix.from_rows(gf2, [[1, 1], [0, 1]])


def test_parse_matrix_round_trip(gf5):
    M = LowerTriMatrix.from_rows(gf5, [[2, 0, 0], [1, 3, 0], [4, 2, 1]])
    assert parse_matrix(gf5, str(M).splitlines()) == M
    with pytest.raises(ValueError):
        parse_matrix(gf5, ["7 0", "1 1"])  # 7 is not a canonical residue


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+1", "-0", "\u00b2", "0x1"])
def test_parse_matrix_reads_only_ascii_decimal_digits(token):
    # int() reads "1_0" as 10 and the Arabic-Indic three as 3; the text
    # form takes ASCII digits only, and the error names the token.
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        parse_matrix(GF(11), ["1", f"{token} 1"])


# -- ranks -------------------------------------------------------------------


def test_augmented_rank_identity_and_zero(gf2):
    I = LowerTriMatrix.identity(gf2, 3)
    Z = LowerTriMatrix.zero(gf2, 3)
    assert augmented_rank(I, Z) == 3
    assert augmented_rank(Z, Z) == 0


def test_augmented_rank_hand_checked_case(gf2):
    # rows (1 0 | 0 0) and (0 0 | 1 0) are independent
    A = LowerTriMatrix.diagonal(gf2, [1, 0])
    B = LowerTriMatrix.single(gf2, 2, 2, 1)
    assert augmented_rank(A, B) == 2


def test_augmented_rank_invariant_under_left_units(gf2):
    ring = list(ring_matrices(gf2, 2))
    units = list(unit_matrices(gf2, 2))
    for A, B in itertools.product(ring, repeat=2):
        r = augmented_rank(A, B)
        for u in units:
            assert augmented_rank(u * A, u * B) == r


def test_full_rank_forces_nonzero_rows(gf2):
    for A, B in itertools.product(ring_matrices(gf2, 2), repeat=2):
        if augmented_rank(A, B) == 2:
            for i in (1, 2):
                assert any(A.row(i)) or any(B.row(i))


def test_matrix_rank_against_row_space_enumeration():
    # Independent cross-check over GF(2): the row space of a matrix with
    # rank r has exactly 2**r members.
    f = GF(2)
    for A, B in itertools.product(ring_matrices(f, 2), repeat=2):
        rows = [A.row(i) + B.row(i) for i in (1, 2)]
        r = matrix_rank(rows, 2)
        span = set()
        for c1 in (0, 1):
            for c2 in (0, 1):
                span.add(tuple((c1 * x + c2 * y) % 2 for x, y in zip(*rows)))
        assert len(span) == 2 ** r


def test_solve_mod_p_against_enumeration():
    # Every 2 x 2 system over GF(3): the solve returns the solution found
    # by trying all vectors, and None exactly when the determinant is 0.
    p = 3
    for m in itertools.product(range(p), repeat=4):
        M = [list(m[:2]), list(m[2:])]
        for rhs in itertools.product(range(p), repeat=2):
            got = solve_mod_p([row + [b] for row, b in zip(M, rhs)], 2, p)
            if (m[0] * m[3] - m[1] * m[2]) % p == 0:
                assert got is None
                continue
            sols = [x for x in itertools.product(range(p), repeat=2)
                    if all((r[0] * x[0] + r[1] * x[1]) % p == b for r, b in zip(M, rhs))]
            assert len(sols) == 1
            assert got == [[v] for v in sols[0]]


# -- the product kernel against a reference ----------------------------------


def reference_product(L, R):
    """(LR)_ij = sum over j <= k <= i of L_ik R_kj, as a plain triple loop."""
    n, p = L.n, L.field.p
    rows = [[sum(L.entry(i, k) * R.entry(k, j) for k in range(1, n + 1)) % p
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return LowerTriMatrix.from_rows(L.field, rows)


def assert_well_formed(M):
    """Entries in [0, p), and equal to the same matrix built publicly."""
    p = M.field.p
    assert isinstance(M.entries, tuple)
    assert all(0 <= e < p for e in M.entries)
    public = LowerTriMatrix(M.field, M.n, M.entries)
    assert M == public and hash(M) == hash(public)


def check_operations(L, R, c):
    product = L * R
    assert_well_formed(product)
    assert product == reference_product(L, R)
    for M in (L + R, L - R, -L, L.scale(c), L.with_entry(L.n, 1, c)):
        assert_well_formed(M)
    assert L + R == LowerTriMatrix(
        L.field, L.n, [(a + b) % L.field.p for a, b in zip(L.entries, R.entries)])
    assert (L - R) + R == L
    assert L + (-L) == LowerTriMatrix.zero(L.field, L.n)
    if L.is_unit():
        inv = L.inverse()
        assert_well_formed(inv)
        assert L * inv == LowerTriMatrix.identity(L.field, L.n)


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2)])
def test_product_kernel_matches_reference_exhaustively(n, p):
    f = GF(p)
    ring = list(ring_matrices(f, n))
    for L in ring:
        for R in ring:
            check_operations(L, R, (L.entries[0] + 2 * R.entries[-1]) % p)


def seeded_operand(rng, f, n):
    """A zero, identity, single-entry, sparse or dense matrix."""
    kind = rng.randrange(5)
    if kind == 0:
        return LowerTriMatrix.zero(f, n)
    if kind == 1:
        return LowerTriMatrix.identity(f, n)
    if kind == 2:
        i = rng.randint(1, n)
        return LowerTriMatrix.single(f, n, i, rng.randint(1, i), rng.randrange(1, f.p))
    m = n * (n + 1) // 2
    if kind == 3:
        return LowerTriMatrix(f, n, [rng.randrange(f.p) if rng.random() < 0.2 else 0
                                     for _ in range(m)])
    return LowerTriMatrix(f, n, [rng.randrange(f.p) for _ in range(m)])


@pytest.mark.parametrize("n, p", [(6, 3), (7, 5)])
def test_product_kernel_matches_reference_on_seeded_pairs(n, p):
    rng = random.Random(1000 * n + p)
    f = GF(p)
    for _ in range(2000):
        L = seeded_operand(rng, f, n)
        R = seeded_operand(rng, f, n)
        check_operations(L, R, rng.randrange(-p, 2 * p))


def test_constructor_rejects_out_of_range_entries(gf5):
    for bad in ([1, 5, 0], [1, -1, 0], [7, 0, 0]):
        with pytest.raises(InvalidEntry):
            LowerTriMatrix(gf5, 2, bad)
    # InvalidEntry is a ValueError and a package error.
    with pytest.raises(ValueError):
        LowerTriMatrix(gf5, 2, [0, 0, 5])


@pytest.mark.parametrize("bad", [1.5, 2.0, "1", Fraction(1, 2), True], ids=repr)
def test_every_public_builder_refuses_values_that_are_not_ints(gf5, bad):
    # One rule for every builder: exactly int.  Floats that happen to be
    # whole (2.0), strings, Fractions and bools are refused with
    # InvalidEntry, as the structured pair form refuses them, and nothing
    # else escapes (no TypeError from a comparison, no stored float).
    one = LowerTriMatrix.identity(gf5, 2)
    builds = [
        lambda: LowerTriMatrix(gf5, 2, [1, bad, 1]),
        lambda: LowerTriMatrix(gf5, 1, [bad]),
        lambda: LowerTriMatrix.from_rows(gf5, [[1, 0], [bad, 1]]),
        lambda: LowerTriMatrix.from_rows(gf5, [[1, bad], [0, 1]]),
        lambda: LowerTriMatrix.diagonal(gf5, [bad, 1]),
        lambda: LowerTriMatrix.single(gf5, 2, 2, 1, bad),
        lambda: one.with_entry(2, 1, bad),
        lambda: one.scale(bad),
    ]
    for build in builds:
        with pytest.raises(InvalidEntry, match="not an integer"):
            build()


def test_row_column_and_diagonal_reads(gf5):
    M = LowerTriMatrix.from_rows(gf5, [[1, 0, 0], [2, 3, 0], [4, 0, 1]])
    assert M.rows() == [[1, 0, 0], [2, 3, 0], [4, 0, 1]]
    assert [M.column(j) for j in (1, 2, 3)] == [[1, 2, 4], [0, 3, 0], [0, 0, 1]]
    assert M.diag() == (1, 3, 1)
    for bad in (0, 4):
        with pytest.raises(IndexOutOfRange):
            M.row(bad)
        with pytest.raises(IndexOutOfRange):
            M.column(bad)
