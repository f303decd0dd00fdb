"""Exact-arithmetic multiplicities, log-concavity verifiers and valuation bodies.

Every public name resolves on first use: importing the package loads no
submodule, and a name loads only the module that defines it (and what
that module imports).
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "partitions": """
        GLWeight Partition SemistandardTableau SkewShape conjugate dual_weight
        enumerate_ssyt partition shift_to_partition weight weyl_dimension
    """,
    "symfunc": """
        MonomialExpansion SchurExpansion multiply skew_schur
        subtract_and_min_coefficient to_schur_basis
    """,
    "lr": """
        LRCache lr_coefficient lr_coefficient_schur_peel restriction_multiplicity
        tensor_product_multiplicities tensor_square_multiplicities triple_invariant
    """,
    "concavity": """
        ConcavityReport alpha_matrix_check conjecture1_scan
        convolution_logconcavity_check logv_inclusion_check
        restriction_logconcavity_scan saturation_scan slm_schur_positivity
        theorem1_scan theorem1_verify weyl_logconcavity_scan
    """,
    "toeplitz": """
        FiniteSequence character_positivity_check toeplitz_minor
        toeplitz_schur_coefficient two_by_two_scan
    """,
    "bodies": """
        BodyApprox MultiPolynomial PolynomialSubspace body_approximation
        brunn_minkowski_check degree_estimate flag_valuation
        minkowski_inclusion_check normalized_volume power_subspace
    """,
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
