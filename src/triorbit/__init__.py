"""Classification of GL2-orbits of free cyclic submodules over T_n(GF(p)).

The package decides freeness, unimodularity, and outlier status of pairs
of lower triangular matrices, reduces free pairs to unique canonical
representatives with checkable certificates, realizes the bijection
between orbits and set partitions, and verifies the classification by
exhaustive orbit enumeration at desk scale.
"""

from .errors import (
    BudgetExceeded,
    CanonicalizationFailed,
    DimensionMismatch,
    InconsistentDecomposition,
    IndexOutOfRange,
    InvalidBudget,
    InvalidEntry,
    InvalidPartition,
    InvalidSampleCount,
    NonPrimeModulus,
    NotAUnit,
    NotCanonical,
    NotFree,
    NotInvertible,
    PivotSelectionFailed,
    SingularMatrix,
    SingularSystem,
    TriOrbitError,
    UnsupportedDimension,
    ZeroInverse,
)
from .field import GF, is_prime
from .trimat import (
    LowerTriMatrix,
    augmented_rank,
)
from .modpairs import (
    ModulePair,
    format_pair,
    is_free_oracle,
    is_outlier_oracle,
    parse_pair,
)
from .gl2 import (
    GL2Element,
    act_left_unit,
    act_right,
    gl2_generators,
    gl2_is_invertible,
    orbit_generators,
    unit_generators,
)
from .canonical import (
    Certificate,
    Trace,
    canonicalize,
    enumerate_canonical,
    is_canonical,
    verify_certificate,
)
from .paper import build_k, build_v, select_pivots
from .partitions import (
    SetPartition,
    bell,
    enumerate_partitions,
    pair_to_partition,
    partition_to_pair,
)
from .oracle import (
    OrbitReport,
    Submodule,
    cyclic_submodule,
    enumerate_free_submodules,
    orbit_decomposition,
    random_free_pairs,
    verify_classification,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "GL2Element",
    "LowerTriMatrix",
    "ModulePair",
    "OrbitReport",
    "SetPartition",
    "Submodule",
    "Certificate",
    "Trace",
    "act_left_unit",
    "act_right",
    "augmented_rank",
    "bell",
    "build_k",
    "build_v",
    "canonicalize",
    "cyclic_submodule",
    "enumerate_canonical",
    "enumerate_free_submodules",
    "enumerate_partitions",
    "format_pair",
    "gl2_generators",
    "gl2_is_invertible",
    "is_canonical",
    "is_free_oracle",
    "is_outlier_oracle",
    "is_prime",
    "orbit_decomposition",
    "orbit_generators",
    "pair_to_partition",
    "parse_pair",
    "partition_to_pair",
    "random_free_pairs",
    "select_pivots",
    "unit_generators",
    "verify_certificate",
    "verify_classification",
    # errors
    "TriOrbitError",
    "NonPrimeModulus",
    "ZeroInverse",
    "DimensionMismatch",
    "SingularMatrix",
    "IndexOutOfRange",
    "BudgetExceeded",
    "InvalidBudget",
    "InvalidSampleCount",
    "InvalidEntry",
    "NotFree",
    "NotAUnit",
    "NotInvertible",
    "UnsupportedDimension",
    "PivotSelectionFailed",
    "SingularSystem",
    "CanonicalizationFailed",
    "NotCanonical",
    "InvalidPartition",
    "InconsistentDecomposition",
]
