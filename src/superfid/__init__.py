"""Random density matrices under the superfidelity-induced probability measure.

The package evaluates superfidelity and the metric it induces, the joint
eigenvalue densities of the associated measure (alongside Hilbert-Schmidt and
Bures), normalization constants with exact/bound/series/Monte-Carlo/quadrature
routes, exact and rejection samplers, and a statistical toolkit used to verify
all of the quantitative claims at desk scale.
"""
from .eigendensities import (DensityGrid, NormalizationEstimate, c_bures,
                             c_bures_quadrature, c_g_exact, c_g_jensen_bound,
                             c_g_monte_carlo, c_g_quadrature, c_g_series, c_hs, cdf_g2,
                             density_bures_unnormalized, density_g_unnormalized,
                             density_grid_qutrit, density_hs_unnormalized,
                             grid_integral, pdf_g2_marginal, purity_mean_hs,
                             purity_variance_hs)
from .errors import (DomainError, EnvelopeAuditError, InstabilityWarning,
                     InvalidDimensionError, InvalidStateError, InverseCDFError,
                     QuadratureError, SamplingBudgetError, SingularityError,
                     StepSizeError, UnsupportedDimensionError)
from .qstate import (Measure, check_density_matrix, check_tangent, ginibre_batch,
                     haar_unitary_batch, random_tangent_batch)
from .rng import RngStream, seed_from_env
from .samplers import (EnvelopeAudit, RejectionReport, audit_sup_density_ratio,
                       hs_purity_batch, invert_cdf_g2, log_rejection_constant_c,
                       rejection_constant_c, sample_batch, sample_blocks,
                       sample_g_rejection_batch, sample_hs_batch,
                       sup_density_ratio_unnormalized)
from .similarity import (dist_g, fd_second_derivative, fidelity, line_element_bprime,
                         line_element_g, superfidelity)
from .statlab import (GofResult, chi_square_gof_simplex, ks_test, ks_test_two_sample,
                      mc_mean, mc_variance, simplex_quadrature)

__version__ = "0.1.0"
