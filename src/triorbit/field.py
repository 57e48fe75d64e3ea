"""Exact arithmetic in the prime field GF(p).

Field elements are canonical integer residues in [0, p).  A ``GF`` instance
carries the modulus and supplies all arithmetic, so matrices store plain
ints and stay cheap to hash and compare.  There is one ``GF`` object per
prime, so fields compare by identity.
"""

from .errors import NonPrimeModulus, ZeroInverse


# Miller-Rabin with the first 13 prime bases (2 to 41) is exact for every
# integer under this bound, psi_13 of Sorenson and Webster (2015); the first
# 12 bases stop at psi_12 ~ 3.2e23.  GF refuses moduli at or above it.
MAX_MODULUS = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The one GF object of each accepted prime.
_FIELDS = {}


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for p < MAX_MODULUS.

    Raises ValueError at or above MAX_MODULUS, where these bases no longer
    decide primality.
    """
    if p >= MAX_MODULUS:
        raise ValueError(f"{p} is beyond the exact range of is_prime")
    if p < 2:
        return False
    for q in _BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GF:
    """The prime field GF(p), acting as a context for residue arithmetic.

    ``GF(p)`` returns the one object registered for p, so two fields are
    equal exactly when they are the same object, and ``is`` is the field
    test.  The registry is read only for an exact ``int``: ``2.0 == 2``, and
    ``GF(2.0)`` must be refused, not found.  A refused modulus registers
    nothing, and copies and unpickled fields are the registered object.
    """

    __slots__ = ("p",)

    def __new__(cls, p: int):
        if type(p) is int and p in _FIELDS:
            return _FIELDS[p]
        if isinstance(p, int) and p >= MAX_MODULUS:
            raise NonPrimeModulus(
                f"modulus {p} is too large: primality is exact only below {MAX_MODULUS}")
        if not isinstance(p, int) or p < 2 or not is_prime(p):
            raise NonPrimeModulus(f"modulus {p!r} is not prime")
        field = super().__new__(cls)
        field.p = p
        # setdefault: of two threads registering p at once, both return the first.
        return _FIELDS.setdefault(p, field)

    def __reduce__(self):
        return GF, (self.p,)

    def __repr__(self):
        return f"GF({self.p})"

    def element(self, value: int) -> int:
        """Reduce an arbitrary integer to its canonical residue."""
        return value % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse a^(p-2), by Fermat's little theorem.

        Raises ZeroInverse on 0; that always indicates an upstream logic
        error, never bad user input.
        """
        a %= self.p
        if a == 0:
            raise ZeroInverse(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        """All residues, ascending."""
        return range(self.p)

    def nonzero(self):
        """All nonzero residues, ascending."""
        return range(1, self.p)
