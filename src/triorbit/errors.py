"""Exception types shared across the package.

Every error that a caller is expected to catch has a dedicated class here.
Internal checks raise these classes too, never ``assert``, so each of them
also runs under ``python -O``; ``tests/test_package.py`` parses the
package for assert statements.
"""


class TriOrbitError(Exception):
    """Base class for all package errors."""


class NonPrimeModulus(TriOrbitError, ValueError):
    """The requested field modulus is not prime."""


class ZeroInverse(TriOrbitError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class DimensionMismatch(TriOrbitError, ValueError):
    """Operands have incompatible dimensions or fields."""


class SingularMatrix(TriOrbitError, ValueError):
    """Inverse of a non-unit triangular matrix was requested."""


class InvalidEntry(TriOrbitError, ValueError):
    """A matrix entry lies outside the canonical residues [0, p)."""


class IndexOutOfRange(TriOrbitError, IndexError):
    """A 1-based matrix index lies outside [1, n]."""


class BudgetExceeded(TriOrbitError, ValueError):
    """An exhaustive enumeration would exceed the configured cap."""


class InvalidBudget(TriOrbitError, ValueError):
    """TRIORBIT_BUDGET is set to something other than a positive integer."""


class InvalidSampleCount(TriOrbitError, ValueError):
    """A sampled check was asked for fewer than one pair."""


class NotFree(TriOrbitError, ValueError):
    """The pair does not generate a free cyclic submodule."""


class NotAUnit(TriOrbitError, ValueError):
    """A unit of the triangular ring was required."""


class NotInvertible(TriOrbitError, ValueError):
    """The 2x2 block matrix fails the invertibility criterion."""


class UnsupportedDimension(TriOrbitError, ValueError):
    """The dimension lies outside the supported range (n >= 2)."""


class PivotSelectionFailed(TriOrbitError, ValueError):
    """No admissible pivot column exists; the input violates a precondition."""


class SingularSystem(TriOrbitError, ValueError):
    """A linear system that should be uniquely solvable is singular."""


class CanonicalizationFailed(TriOrbitError, RuntimeError):
    """A free pair could not be brought to canonical form.

    Raised when its orbit holds no canonical pair: two rows r, r' other
    than c share the jump j(r) = j(r') = c, as the row pass
    ``trimat._row_pass`` finds before any stage (possible from n = 4 on).
    Its moves take every other free pair to its canonical pair, so the
    only other cause is a failed self-check, which has not been observed.
    """


class InconsistentDecomposition(TriOrbitError, RuntimeError):
    """The orbit sizes do not add up to the number of free submodules.

    The oracle's own consistency check; it has not been observed.
    """


class NotCanonical(TriOrbitError, ValueError):
    """A canonical-form pair was required."""


class InvalidPartition(TriOrbitError, ValueError):
    """The blocks do not form a partition of {1..n}."""
