"""Exact-arithmetic multiplicities, log-concavity verifiers and valuation bodies."""

from .partitions import (
    GLWeight,
    Partition,
    SemistandardTableau,
    SkewShape,
    conjugate,
    dual_weight,
    enumerate_ssyt,
    partition,
    shift_to_partition,
    weight,
    weyl_dimension,
)
from .symfunc import (
    MonomialExpansion,
    SchurExpansion,
    multiply,
    skew_schur,
    subtract_and_min_coefficient,
    to_schur_basis,
)
from .lr import (
    LRCache,
    lr_coefficient,
    lr_coefficient_schur_peel,
    restriction_multiplicity,
    tensor_product_multiplicities,
    tensor_square_multiplicities,
    triple_invariant,
)
from .concavity import (
    ConcavityReport,
    alpha_matrix_check,
    conjecture1_scan,
    convolution_logconcavity_check,
    logv_inclusion_check,
    restriction_logconcavity_scan,
    saturation_scan,
    slm_schur_positivity,
    theorem1_scan,
    theorem1_verify,
    weyl_logconcavity_scan,
)
from .toeplitz import (
    FiniteSequence,
    character_positivity_check,
    toeplitz_minor,
    toeplitz_schur_coefficient,
    two_by_two_scan,
)
# The valuation-body names load bodies (and with it geometry) on first use,
# so that importing the package, and with it the command line, stays light.
_BODIES_NAMES = frozenset(
    {
        "BodyApprox",
        "MultiPolynomial",
        "PolynomialSubspace",
        "body_approximation",
        "brunn_minkowski_check",
        "degree_estimate",
        "flag_valuation",
        "minkowski_inclusion_check",
        "normalized_volume",
        "power_subspace",
    }
)


def __getattr__(name: str):
    if name in _BODIES_NAMES:
        from . import bodies

        return getattr(bodies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
