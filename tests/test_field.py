import copy
import pickle
import threading

import pytest
from hypothesis import given, strategies as st

from triorbit import GF, NonPrimeModulus, ZeroInverse, canonicalize, is_prime, verify_certificate
from triorbit.field import _FIELDS, MAX_MODULUS
from triorbit.oracle import random_free_pairs

LARGEST_PRIME = 3317044064679887385961813


def test_context_construction():
    assert GF(2).p == 2
    assert GF(5).p == 5
    with pytest.raises(NonPrimeModulus):
        GF(6)
    with pytest.raises(NonPrimeModulus):
        GF(1)
    with pytest.raises(NonPrimeModulus):
        GF(0)


def test_smallest_prime_elements():
    f = GF(2)
    assert list(f.elements()) == [0, 1]


def test_modular_arithmetic_gf5():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.neg(2) == 3


def test_inverse_values():
    assert GF(5).inv(2) == 3
    assert GF(7).inv(3) == 5
    for p in (2, 3, 5, 7, 11):
        assert GF(p).inv(1) == 1


@pytest.mark.parametrize("p", [2**61 - 1, LARGEST_PRIME])
def test_inverse_at_large_primes(p):
    # The second is the largest prime GF accepts, just below MAX_MODULUS.
    assert p < MAX_MODULUS and is_prime(p)
    if p > 2**61:
        assert not any(is_prime(q) for q in range(p + 1, MAX_MODULUS))
    f = GF(p)
    for a in (1, 2, 3, 2**40 + 15, p // 3, p - 2, p - 1):
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroInverse):
        GF(5).inv(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    f = GF(p)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers())
def test_element_reduction_is_canonical(p, v):
    f = GF(p)
    assert 0 <= f.element(v) < p


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(31):
        assert is_prime(n) == (n in primes)
    for n in range(10 ** 5):
        assert is_prime(n) == is_prime_by_trial_division(n)


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    # Strong pseudoprime to the bases 2, 3, 5 and 7.
    assert not is_prime(3215031751)
    # psi_12 = 399165290221 * 798330580441: strong pseudoprime to every
    # base from 2 to 37, so base 41 is needed below MAX_MODULUS.
    assert not is_prime(318665857834031151167461)
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    with pytest.raises(ValueError):
        is_prime(MAX_MODULUS)
    # 2^89 - 1 is prime, but beyond the range where primality is exact.
    with pytest.raises(NonPrimeModulus):
        GF(2 ** 89 - 1)


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1, LARGEST_PRIME])
def test_one_field_object_per_prime(p):
    assert GF(p) is GF(p)
    assert _FIELDS[p] is GF(p)


@pytest.mark.parametrize("p, message", [
    (0, "modulus 0 is not prime"),
    (1, "modulus 1 is not prime"),
    (4, "modulus 4 is not prime"),
    (-3, "modulus -3 is not prime"),
    (2.0, "modulus 2.0 is not prime"),
    (True, "modulus True is not prime"),
    ("7", "modulus '7' is not prime"),
    (MAX_MODULUS, f"modulus {MAX_MODULUS} is too large: "
                  f"primality is exact only below {MAX_MODULUS}"),
])
def test_refused_modulus_registers_nothing(p, message):
    # 2.0 and True equal registered primes and hash alike; neither may find them.
    GF(2)
    before = dict(_FIELDS)
    with pytest.raises(NonPrimeModulus) as info:
        GF(p)
    assert str(info.value) == message
    assert _FIELDS == before  # GF has no __eq__: the values compare by identity


def test_copies_keep_the_registered_field():
    f = GF(3)
    pair = random_free_pairs(f, 4, 1, seed=0)[0]
    result, cert, _ = canonicalize(pair)
    copiers = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for copier in copiers:
        assert copier(f) is f
        assert copier(pair.A).field is f
        assert copier(pair).field is f
        c = copier(cert)
        assert c.U.field is f and c.Q.field is f
        assert verify_certificate(copier(pair), result, c)
    twin = copy.deepcopy(pair)
    twin_result, twin_cert, _ = canonicalize(twin)
    assert twin_result == result
    assert (twin_cert.U, twin_cert.Q) == (cert.U, cert.Q)


def test_concurrent_construction_registers_one_object():
    p = next(q for q in range(10**15 + 1, 10**15 + 1000, 2) if is_prime(q) and q not in _FIELDS)
    barrier = threading.Barrier(8)
    fields = [None] * 8

    def build(k):
        barrier.wait()
        fields[k] = GF(p)

    threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(f is _FIELDS[p] for f in fields)
