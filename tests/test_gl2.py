import itertools
import random

import pytest

from triorbit import (
    GF,
    GL2Element,
    LowerTriMatrix,
    ModulePair,
    NotAUnit,
    NotInvertible,
    act_left_unit,
    act_right,
    cyclic_submodule,
    gl2_generators,
    gl2_is_invertible,
    orbit_generators,
)
from triorbit.modpairs import ring_matrices, unit_matrices


def test_identity_is_built_once():
    one = GL2Element.identity(GF(3), 4)
    assert one is GL2Element.identity(GF(3), 4)
    assert one.X is LowerTriMatrix.identity(GF(3), 4)


def test_invertibility_criterion(gf2):
    I = LowerTriMatrix.identity(gf2, 2)
    Z = LowerTriMatrix.zero(gf2, 2)
    assert gl2_is_invertible(I, Z, Z, I)
    assert gl2_is_invertible(Z, I, I, Z)  # the swap
    assert not gl2_is_invertible(I, I, I, I)
    with pytest.raises(NotInvertible):
        GL2Element(I, I, I, I)


def all_valid_gl2(field, n):
    ring = list(ring_matrices(field, n))
    for X, Y, W, Z in itertools.product(ring, repeat=4):
        if gl2_is_invertible(X, Y, W, Z):
            yield GL2Element(X, Y, W, Z)


def mulclose(gens, limit=None):
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                prod = g * h
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if limit and len(seen) > limit:
                        return seen
        frontier = new
    return seen


def _interleaved_rows(X, Y, W, Z):
    n = X.n
    rows = []
    for i in range(1, n + 1):
        rows.append([v for j in range(1, n + 1)
                     for v in (X.entry(i, j), Y.entry(i, j))])
        rows.append([v for j in range(1, n + 1)
                     for v in (W.entry(i, j), Z.entry(i, j))])
    return rows


def test_criterion_matches_constructive_inverse_exhaustively():
    # Blocks passing the diagonal test have a two-sided inverse; blocks
    # failing it are singular even as plain 2n x 2n matrices, so no inverse
    # can exist in any containing ring.
    from triorbit.paper import matrix_rank

    for p in (2, 3):
        f = GF(p)
        ident = GL2Element.identity(f, 2)
        ring = list(ring_matrices(f, 2))
        count = 0
        for X, Y, W, Z in itertools.product(ring, repeat=4):
            if gl2_is_invertible(X, Y, W, Z):
                g = GL2Element(X, Y, W, Z)
                h = g.inverse()
                assert g * h == ident
                assert h * g == ident
                count += 1
            elif p == 2:
                assert matrix_rank(_interleaved_rows(X, Y, W, Z), p) < 4
        if p == 2:
            assert count == 576


def test_generated_group_is_every_valid_element(gf2):
    gens = gl2_generators(gf2, 2)
    closure = mulclose(gens)
    alles = set(all_valid_gl2(gf2, 2))
    assert closure == alles
    assert len(alles) == 576


def test_generators_at_dimension_one_give_full_group():
    f = GF(3)
    gens = gl2_generators(f, 1)
    closure = mulclose(gens)
    assert len(closure) == 48  # |GL_2(GF(3))|


def test_every_generator_is_valid(gf5):
    for g in gl2_generators(gf5, 3):
        assert gl2_is_invertible(g.X, g.Y, g.W, g.Z)


def test_inverse_of_simple_elements(gf5):
    ident = GL2Element.identity(gf5, 2)
    swap = GL2Element.swap(gf5, 2)
    assert ident.inverse() == ident
    assert swap.inverse() == swap
    Y = LowerTriMatrix.from_rows(gf5, [[2, 0], [1, 3]])
    up = GL2Element.upper(Y)
    assert up.inverse() == GL2Element.upper(-Y)


def test_act_right_identity_and_swap(gf2):
    A = LowerTriMatrix.diagonal(gf2, [1, 0])
    B = LowerTriMatrix.single(gf2, 2, 2, 1)
    pair = ModulePair(A, B)
    assert act_right(pair, GL2Element.identity(gf2, 2)) == pair
    swapped = act_right(pair, GL2Element.swap(gf2, 2))
    assert swapped == ModulePair(B, A)


def test_action_law_over_generator_pairs(gf2):
    gens = gl2_generators(gf2, 2)
    pairs = [ModulePair(A, B)
             for A in ring_matrices(gf2, 2) for B in ring_matrices(gf2, 2)]
    for g in gens:
        for h in gens:
            gh = g * h
            for pair in pairs[::7]:  # every 7th pair keeps this quick
                assert act_right(act_right(pair, g), h) == act_right(pair, gh)


def test_action_preserves_freeness_and_unimodularity(gf2):
    gens = gl2_generators(gf2, 2)
    for A in ring_matrices(gf2, 2):
        for B in ring_matrices(gf2, 2):
            pair = ModulePair(A, B)
            free = pair.is_free()
            unim = pair.is_unimodular()
            for g in gens:
                moved = act_right(pair, g)
                assert moved.is_free() == free
                assert moved.is_unimodular() == unim


def test_left_unit_action(gf2):
    pair = ModulePair(LowerTriMatrix.identity(gf2, 2), LowerTriMatrix.zero(gf2, 2))
    I = LowerTriMatrix.identity(gf2, 2)
    assert act_left_unit(I, pair) == pair
    u = I.with_entry(2, 1, 1)
    assert act_left_unit(u.inverse(), act_left_unit(u, pair)) == pair
    with pytest.raises(NotAUnit):
        act_left_unit(LowerTriMatrix.zero(gf2, 2), pair)


def test_left_unit_action_preserves_submodule(gf2):
    for A in ring_matrices(gf2, 2):
        for B in ring_matrices(gf2, 2):
            pair = ModulePair(A, B)
            if not pair.is_free():
                continue
            key = cyclic_submodule(pair)
            for u in unit_matrices(gf2, 2):
                assert cyclic_submodule(act_left_unit(u, pair)) == key


# -- the oracle's small generating set ----------------------------------------


@pytest.mark.parametrize("n, p, size", [(2, 2, 4), (3, 2, 6), (1, 3, 3), (3, 5, 9)])
def test_orbit_generators_size(n, p, size):
    gens = orbit_generators(GF(p), n)
    assert len(gens) == size == (2 * n if p == 2 else 3 * n)
    assert len(set(gens)) == size


def test_orbit_generators_generate_the_group_n2_p2(gf2):
    closure = mulclose(orbit_generators(gf2, 2))
    assert closure == set(all_valid_gl2(gf2, 2))
    assert len(closure) == 576


def test_orbit_generators_at_dimension_one_give_full_group():
    assert len(mulclose(orbit_generators(GF(3), 1))) == 48  # |GL_2(GF(3))|


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (2, 5)])
def test_orbit_generators_give_the_same_orbits(n, p):
    from triorbit.oracle import _decompose, _free_submodule_keys

    f = GF(p)
    keys = _free_submodule_keys(f, n)
    # Keys are tuples of n packed rows, one int per row of [A|B].
    assert all(len(key) == n and all(type(row) is int for row in key) for key in keys)
    assert (_decompose(keys, orbit_generators(f, n), p)
            == _decompose(keys, gl2_generators(f, n), p))


def test_product_is_a_valid_element(gf5):
    # The product is built without the invertibility test; it must still
    # be a valid element, equal to the one the public constructor builds.
    gens = gl2_generators(gf5, 2)
    for g in gens[::3]:
        for h in gens[::4]:
            gh = g * h
            assert gl2_is_invertible(gh.X, gh.Y, gh.W, gh.Z)
            assert gh == GL2Element(gh.X, gh.Y, gh.W, gh.Z)
            assert gh * h.inverse() == g


# -- the column-move kernel against plain triangular products -----------------


def _reference_action(pair, g):
    return ModulePair(pair.A * g.X + pair.B * g.W, pair.A * g.Y + pair.B * g.Z)


def _reference_product(g, h):
    return GL2Element(g.X * h.X + g.Y * h.W, g.X * h.Y + g.Y * h.Z,
                      g.W * h.X + g.Z * h.W, g.W * h.Y + g.Z * h.Z)


def _random_matrix(rng, field, n):
    return LowerTriMatrix(field, n, [rng.randrange(field.p)
                                     for _ in range(n * (n + 1) // 2)])


def _random_element(rng, field, n):
    while True:
        blocks = [_random_matrix(rng, field, n) for _ in range(4)]
        if gl2_is_invertible(*blocks):
            return GL2Element(*blocks)


def _special_elements(field, n):
    """The identity, the swap and elements with zero blocks."""
    one = LowerTriMatrix.identity(field, n)
    zero = LowerTriMatrix.zero(field, n)
    full = LowerTriMatrix(field, n, [1] * (n * (n + 1) // 2))
    return [
        GL2Element.identity(field, n),
        GL2Element.swap(field, n),
        GL2Element.block_diag(full, one),
        GL2Element.block_diag(one, full),
        GL2Element.upper(full),
        GL2Element.lower(full),
        GL2Element(zero, full, full, zero),
        GL2Element(zero, one, full.scale(-1), full),
    ]


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (3, 2)])
def test_act_right_matches_products_exhaustively(n, p):
    f = GF(p)
    ring = list(ring_matrices(f, n))
    pairs = [ModulePair(A, B) for A in ring for B in ring]
    pairs = [pair for pair in pairs if pair.is_free()]
    for g in gl2_generators(f, n):
        for pair in pairs:
            assert act_right(pair, g) == _reference_action(pair, g)


def test_product_matches_products_over_the_whole_group(gf2):
    group = list(all_valid_gl2(gf2, 2))
    assert len(group) == 576
    for g in gl2_generators(gf2, 2):
        for h in group:
            assert g * h == _reference_product(g, h)
            assert h * g == _reference_product(h, g)


@pytest.mark.parametrize("n, p", [(4, 2), (6, 3)])
def test_kernel_matches_products_on_random_elements(n, p):
    rng = random.Random(n * 100 + p)
    f = GF(p)
    elements = _special_elements(f, n) + [_random_element(rng, f, n) for _ in range(500)]
    for g in elements:
        pair = ModulePair(_random_matrix(rng, f, n), _random_matrix(rng, f, n))
        h = rng.choice(elements)
        expected = _reference_action(pair, g)
        # The second action reuses the moves the first one cached.
        assert act_right(pair, g) == expected
        assert act_right(pair, g) == expected
        assert g * h == _reference_product(g, h)
        assert h * g == _reference_product(h, g)


@pytest.mark.parametrize("n, p", [(3, 2), (4, 3)])
def test_identity_shortcut_equals_the_full_product(n, p):
    # An identity operand returns the other factor itself; that must be the
    # product the kernel and the plain triangular products give.  A fresh,
    # unshared identity takes the shortcut too.
    rng = random.Random(n * 10 + p)
    f = GF(p)
    one = LowerTriMatrix.identity(f, n)
    zero = LowerTriMatrix.zero(f, n)
    identities = [GL2Element.identity(f, n), GL2Element(one, zero, zero, one)]
    elements = _special_elements(f, n) + [_random_element(rng, f, n) for _ in range(50)]
    for e in identities:
        for g in elements:
            if g != e:
                assert e * g is g and g * e is g
            assert e * g == _reference_product(e, g) == g
            assert g * e == _reference_product(g, e) == g
