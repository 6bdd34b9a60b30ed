"""Random density matrices under the superfidelity-induced probability measure.

The package evaluates superfidelity and the metric it induces, the joint
eigenvalue densities of the associated measure (alongside Hilbert-Schmidt and
Bures), normalization constants with exact/bound/series/Monte-Carlo/quadrature
routes, exact and rejection samplers, and a statistical toolkit used to verify
all of the quantitative claims at desk scale.

The public API is lazy (PEP 562): ``import superfid`` loads no submodule.
Each exported name (``_EXPORTS`` below), and each of the seven library
submodules, is imported on its first access.  A name is looked up in its submodule on every access and
never bound here, so ``superfid.fidelity`` is always what
``superfid.similarity.fidelity`` is at that moment: a patch of the submodule
shows through the package, and undoing it restores both.  ``from superfid
import *`` binds every name of ``__all__`` (the exported names and the seven
submodules), which loads all of them.  ``import superfid.cli`` therefore
loads only the modules its commands need at start-up; see :mod:`superfid.cli`.
"""
from importlib import import_module as _import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "eigendensities": (
        "DensityGrid", "NormalizationEstimate", "c_bures", "c_bures_quadrature", "c_g_exact",
        "c_g_jensen_bound", "c_g_monte_carlo", "c_g_quadrature", "c_g_series", "c_hs",
        "cdf_g2", "density_bures_unnormalized", "density_g_unnormalized",
        "density_grid_qutrit", "density_hs_unnormalized", "grid_integral", "pdf_g2_marginal",
        "purity_mean_hs", "purity_variance_hs"),
    "errors": (
        "DomainError", "EnvelopeAuditError", "InstabilityWarning", "InvalidDimensionError",
        "InvalidStateError", "InverseCDFError", "QuadratureError", "SamplingBudgetError",
        "SingularityError", "StepSizeError", "UnsupportedDimensionError"),
    "qstate": (
        "Measure", "check_density_matrix", "check_tangent", "ginibre_batch",
        "haar_unitary_batch", "random_tangent_batch"),
    "rng": ("RngStream", "seed_from_env"),
    "samplers": (
        "EnvelopeAudit", "RejectionReport", "audit_sup_density_ratio", "hs_purity_batch",
        "invert_cdf_g2", "log_rejection_constant_c", "rejection_constant_c", "sample_batch",
        "sample_blocks", "sample_g_rejection_batch", "sample_hs_batch",
        "sup_density_ratio_unnormalized"),
    "similarity": (
        "dist_g", "fd_second_derivative", "fidelity", "line_element_bprime", "line_element_g",
        "superfidelity"),
    "statlab": (
        "GofResult", "chi_square_gof_simplex", "ks_test", "ks_test_two_sample", "mc_mean",
        "mc_variance", "simplex_quadrature"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_ORIGIN, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        return getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _EXPORTS:   # importing a submodule binds it in the package
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
