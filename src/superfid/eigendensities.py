"""Joint eigenvalue densities and normalization constants.

Three unnormalized eigenvalue densities on the simplex (all permutation
symmetric; ``prod`` runs over pairs i < j):

* Hilbert-Schmidt:  prod (l_i - l_j)^2
* superfidelity:    prod (l_i - l_j)^2 / sqrt(1 - sum l_i^2)
* Bures:            prod (l_i - l_j)^2 / (l_i + l_j) / sqrt(l_1 ... l_N)

plus their normalization constants: exact closed forms where known
(Hilbert-Schmidt and Bures for all N; superfidelity for N = 2, 3), a Jensen
upper bound, Monte-Carlo and series estimators, and a fixed Gauss rule for
N = 2..5.  Also the qubit eigenvalue CDF/PDF for the superfidelity measure
and the qutrit density grids with a boundary-extrapolated integration rule.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import asin, lgamma, log, pi, sqrt
from typing import Literal

import numpy as np

from .errors import DomainError, InstabilityWarning, SingularityError, UnsupportedDimensionError
from .qstate import Measure, _maybe_scalar
from .rng import RngStream
from .statlab import hurwitz_zeta, mc_mean, simplex_quadrature

__all__ = [
    "NormalizationEstimate", "DensityGrid",
    "density_g_unnormalized", "density_bures_unnormalized", "density_hs_unnormalized",
    "c_hs", "c_g_exact", "c_g_jensen_bound", "c_g_monte_carlo", "c_g_series",
    "c_g_quadrature", "c_bures", "c_bures_quadrature",
    "purity_mean_hs", "purity_variance_hs",
    "cdf_g2", "pdf_g2_marginal",
    "density_grid_qutrit", "grid_integral",
]

EstimateMethod = Literal["exact", "jensen-upper-bound", "series", "monte-carlo", "quadrature"]

PURE_DISCARD_EPS = 1e-14          # N >= 3: discard HS samples with tr rho^2 >= 1 - eps
DISCARD_WARN_FRACTION = 1e-4      # "instability" threshold on the discard rate
QUBIT_TAIL_U = 0.999              # N = 2 Monte Carlo: sampled for u <= U, exact tail above
_ZETA_HALF = 1.4603545088095868   # |zeta(1/2)|; strip-mass constant for u^(-1/2) edges
_GRID_BLOCK = 4096                # lattice points per density call in density_grid_qutrit
_GRID_INTEGRAL_MIN_RESOLUTION = 100   # grid_integral's totals lie within 5% of 1 from here up
_LOG_FLOAT_MAX = log(np.finfo(float).max)   # 709.78; exp overflows float64 above it


@dataclass(frozen=True)
class NormalizationEstimate:
    """Value of (or bound on) a density normalization constant C_N."""

    dim: int
    value: float
    method: EstimateMethod
    std_error: float | None = None
    terms_or_samples: int = 0
    truncation_last_term: float | None = None  # series only: last term of the 1/C sum
    truncation_tail: float | None = None       # series only: tail estimate added to the 1/C sum

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value > 0):
            raise ValueError(f"normalization constant must be finite and positive, got {self.value}")
        if (self.std_error is not None) != (self.method in ("monte-carlo", "series")):
            raise ValueError("std_error is present exactly for monte-carlo and series estimates")


# ---------------------------------------------------------------------------
# unnormalized densities
# ---------------------------------------------------------------------------

def _canonical(eigs: np.ndarray) -> np.ndarray:
    # Descending sort makes permuted inputs bitwise identical downstream.
    eigs = np.asarray(eigs, dtype=float)
    if eigs.shape[-1] < 2:
        raise ValueError("need at least 2 eigenvalues")
    return -np.sort(-eigs, axis=-1)


def _vandermonde_sq(eigs: np.ndarray) -> np.ndarray:
    n = eigs.shape[-1]
    i, j = np.triu_indices(n, k=1)
    return np.prod((eigs[..., i] - eigs[..., j]) ** 2, axis=-1)


def density_hs_unnormalized(eigs: np.ndarray):
    """prod_{i<j} (l_i - l_j)^2; zero when two eigenvalues coincide."""
    return _maybe_scalar(_vandermonde_sq(_canonical(eigs)))


def _g_radicand(eigs: np.ndarray) -> np.ndarray:
    """1 - sum l_i^2 on the simplex, formed as 2 sum_{i<j} l_i l_j.

    The sum over pairs is 2 sum_i l_i S_i with the suffix sums
    S_i = sum_{j>i} l_j; it has no cancellation near pure states, where
    1 - sum l_i^2 loses ~1e-16 / (1 - sum l_i^2) relative.  It is 0 exactly
    at a vertex.
    """
    suffix = np.cumsum(eigs[..., :0:-1], axis=-1)[..., ::-1]
    return 2.0 * np.sum(eigs[..., :-1] * suffix, axis=-1)


def density_g_unnormalized(eigs: np.ndarray):
    """prod_{i<j} (l_i - l_j)^2 / sqrt(1 - sum l_i^2).

    Defined strictly inside the simplex; pure points (sum l_i^2 = 1) raise
    :class:`SingularityError` (the divergence there is integrable).
    """
    eigs = _canonical(eigs)
    radicand = _g_radicand(eigs)
    if np.any(radicand <= 0):
        raise SingularityError("superfidelity density diverges at pure states")
    return _maybe_scalar(_vandermonde_sq(eigs) / np.sqrt(radicand))


def density_bures_unnormalized(eigs: np.ndarray):
    """prod_{i<j} (l_i - l_j)^2 / (l_i + l_j) / sqrt(l_1 ... l_N); needs all l_i > 0."""
    eigs = _canonical(eigs)
    if np.any(eigs <= 0):
        raise SingularityError("Bures density diverges on the simplex boundary (some l_i = 0)")
    n = eigs.shape[-1]
    i, j = np.triu_indices(n, k=1)
    pair = np.prod((eigs[..., i] - eigs[..., j]) ** 2 / (eigs[..., i] + eigs[..., j]), axis=-1)
    return _maybe_scalar(pair / np.sqrt(np.prod(eigs, axis=-1)))


# ---------------------------------------------------------------------------
# normalization constants
# ---------------------------------------------------------------------------

def _exact_constant(name: str, dim: int, log_value: float) -> NormalizationEstimate:
    """The exact constant exp(``log_value``); raises where float64 cannot hold it.

    Raising before ``exp`` keeps numpy's overflow warning out of the output,
    and lets the estimators that need C_HS fail before they draw anything.
    """
    if log_value > _LOG_FLOAT_MAX:
        raise UnsupportedDimensionError(
            f"{name} at dim {dim} overflows float64: log C = {log_value:.1f} "
            f"> {_LOG_FLOAT_MAX:.2f}")
    return NormalizationEstimate(dim=dim, value=float(np.exp(log_value)), method="exact")


def c_hs(dim: int) -> NormalizationEstimate:
    """Hilbert-Schmidt constant Gamma(N^2) / prod_k Gamma(k) Gamma(k+1); N <= 15.

    At N = 16 and above, log C exceeds log(float64 max) and
    :class:`UnsupportedDimensionError` is raised.
    """
    if dim < 2:
        raise UnsupportedDimensionError(f"need dim >= 2, got {dim}")
    lg = lgamma(dim * dim) - sum(lgamma(k) + lgamma(k + 1) for k in range(1, dim + 1))
    return _exact_constant("C_HS", dim, lg)


def c_g_exact(dim: int) -> NormalizationEstimate:
    """Closed-form superfidelity constants: known for N = 2 and N = 3 only."""
    if dim == 2:
        value = (2.0 * sqrt(2.0) / (3.0 * pi)) * c_hs(2).value
    elif dim == 3:
        value = (432.0 * sqrt(2.0) / (317.0 * pi)) * c_hs(3).value
    else:
        raise UnsupportedDimensionError(
            f"no closed form for dim {dim}; use quadrature (dim <= 5), jensen, series or mc")
    return NormalizationEstimate(dim=dim, value=value, method="exact")


def c_g_jensen_bound(dim: int) -> NormalizationEstimate:
    """Guaranteed upper bound C_N^HS sqrt(1 - 2N/(N^2+1)) from Jensen's inequality."""
    value = c_hs(dim).value * sqrt(1.0 - 2.0 * dim / (dim * dim + 1.0))
    return NormalizationEstimate(dim=dim, value=value, method="jensen-upper-bound")


def _hs_purities(dim: int, samples: int, rng: RngStream) -> np.ndarray:
    from . import samplers  # deferred: samplers imports this module at top level
    return samplers.hs_purity_batch(dim, samples, rng)


def _reciprocal_radical_mean(dim: int, samples: int,
                             rng: RngStream) -> tuple[float, float, int]:
    """E_HS[1 / sqrt(1 - tr rho^2)] by Monte Carlo: (mean, standard error, samples kept).

    At N >= 3, samples with tr rho^2 >= 1 - 1e-14 are discarded (and
    counted); more than 0.01% of them triggers an :class:`InstabilityWarning`.

    At N = 2 the variable y = 1 / sqrt(1 - p) has infinite variance, since
    E_HS[1 / (1 - p)] diverges at the pure states, so its plain sample mean
    has no valid error bar.  There u = sqrt(2p - 1) has density 3 u^2 on
    [0, 1] and y = sqrt(2) / sqrt(1 - u^2).  So only E[y; u <= U] is sampled,
    as the mean of y over all draws with every draw above U = ``QUBIT_TAIL_U``
    counted as 0, and the exact tail E[y; u > U] = (3 sqrt2 / 2) (pi/2 -
    arcsin U + U sqrt(1 - U^2)) is added.  The sampled part is bounded, so
    the standard error covers.  Numerically pure draws lie above U, so none
    is discarded.
    """
    p = _hs_purities(dim, samples, rng)
    tail = 0.0
    if dim == 2:
        u = QUBIT_TAIL_U
        tail = 1.5 * sqrt(2.0) * (0.5 * pi - asin(u) + u * sqrt(1.0 - u * u))
        above = p > 0.5 * (1.0 + u * u)   # u = sqrt(2p - 1) > U
        p[above] = 0.0                    # a finite radical, set to 0 once formed
        y = p
    else:
        keep = p < 1.0 - PURE_DISCARD_EPS
        discarded = int(samples - keep.sum())
        if discarded > DISCARD_WARN_FRACTION * samples:
            warnings.warn(
                f"{discarded}/{samples} samples at numerically pure states were discarded",
                InstabilityWarning, stacklevel=3)
        # 1 / sqrt(1 - p) formed in place: in p itself unless some were discarded
        y = p[keep] if discarded else p
        del keep
    del p
    np.subtract(1.0, y, out=y)
    np.sqrt(y, out=y)
    np.divide(1.0, y, out=y)
    if dim == 2:
        y[above] = 0.0
    mean, se = mc_mean(y)
    return mean + tail, se, len(y)


def c_g_monte_carlo(dim: int, samples: int, rng: RngStream) -> NormalizationEstimate:
    """Monte-Carlo constant from 1/C_G = (1/C_HS) E_HS[1 / sqrt(1 - tr rho^2)].

    The expectation comes from :func:`_reciprocal_radical_mean`, which adds
    an exact tail at N = 2.  The standard error follows from the delta method
    on the reciprocal.  C_HS is formed first, so a dimension where it
    overflows fails before any draw.
    """
    chs = c_hs(dim).value
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    mean, se, kept = _reciprocal_radical_mean(dim, samples, rng)
    return NormalizationEstimate(
        dim=dim, value=chs / mean, method="monte-carlo",
        std_error=chs * se / mean ** 2, terms_or_samples=kept)


def series_coefficients(k_max: int) -> np.ndarray:
    """Taylor coefficients of 1/sqrt(1-x): c_k = (2k-1)!! / (k! 2^k)."""
    c = np.empty(k_max + 1)
    c[0] = 1.0
    for k in range(1, k_max + 1):
        c[k] = c[k - 1] * (2 * k - 1) / (2 * k)
    return c


def _series_tail(terms: np.ndarray, alpha: float) -> tuple[float, tuple[float, float]]:
    """Estimate sum_{k>K} t_k for positive terms t_k ~ k^(-alpha) (a + b/k).

    a and b are fitted to the last two terms t_{K-1}, t_K; the tail is then
    a zeta(alpha, K+1) + b zeta(alpha+1, K+1) with the Hurwitz zeta.  Where
    that fit is impossible (K = 1) or not finite and non-negative, the
    amplitude-only tail t_K K^alpha zeta(alpha, K+1) is used; it is positive
    by construction.  t_k k^alpha is formed in logs so that it cannot overflow.

    Either tail is linear in t_{K-1} and t_K.  Returns the tail and its two
    parts, the one proportional to t_{K-1} and the one proportional to t_K.
    """
    def scaled(k):  # t_k k^alpha
        return float(np.exp(np.log(terms[k]) + alpha * log(k))) if terms[k] > 0 else 0.0

    k_last = len(terms) - 1
    g = scaled(k_last)
    z = hurwitz_zeta(alpha, k_last + 1)
    if k_last >= 2:
        g_prev, z1 = scaled(k_last - 1), hurwitz_zeta(alpha + 1, k_last + 1)
        b = (g_prev - g) * k_last * (k_last - 1)
        a = g - b / k_last
        tail = a * z + b * z1
        if np.isfinite(tail) and tail >= 0:
            return tail, (g_prev * (k_last - 1) * (k_last * z1 - z),
                          g * k_last * (z - (k_last - 1) * z1))
    return g * z, (0.0, g * z)


def c_g_series(dim: int, k_max: int, rng: RngStream, samples: int = 10 ** 5,
               return_partial_sums: bool = False):
    """Series estimator 1/C_G = (1/C_HS) sum_k c_k E[(tr rho^2)^k] with a tail estimate.

    All terms are positive, so the partial sums of 1/C (returned with
    ``return_partial_sums``) increase with ``k_max``, and 1/partial[k]
    decreases toward the true constant from above.  The returned value adds
    an estimate of the omitted tail sum_{k>k_max} t_k: under the HS measure
    the states with 1 - tr rho^2 <= s have measure ~ s^((N-1)^2), so
    E[p^k] ~ k^(-(N-1)^2) and, with c_k ~ (pi k)^(-1/2), t_k ~ k^(-alpha) for
    alpha = (N-1)^2 + 1/2 (for N = 2, E[p^k] -> 3/k exactly).  The tail is
    fitted as t_k ~ k^(-alpha) (a + b/k) to the last two terms (see
    :func:`_series_tail`) and reported as ``truncation_tail``; the last term
    is still reported as ``truncation_last_term``.  All purity moments come
    from one Hilbert-Schmidt Monte-Carlo batch of ``samples`` >= 2 states.
    The tail is linear in the last two term means, so 1/C is the sample mean
    of one polynomial F(p): the series with each of those two terms scaled
    by 1 + (its tail part) / (the term).  ``std_error`` carries the standard
    error of that mean through the reciprocal (delta method), so it covers
    the tail's sampling noise as well; the fit's bias stays uncovered.
    C_HS is formed first, so a dimension where it overflows fails before any draw.
    """
    inv_chs = 1.0 / c_hs(dim).value
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    p = _hs_purities(dim, samples, rng)
    coeff = series_coefficients(k_max)

    terms = np.empty(k_max + 1)
    p_pow = np.ones_like(p)
    for k in range(k_max + 1):
        if k > 0:
            p_pow = p_pow * p
        terms[k] = coeff[k] * float(p_pow.mean()) * inv_chs
    partial = np.cumsum(terms)
    tail, tail_parts = _series_tail(terms, (dim - 1) ** 2 + 0.5)
    # F(p) / (1/C_HS), so that its variance cannot underflow where 1/C_HS is tiny
    f_coeff = coeff.copy()
    f_coeff[-2:] *= 1.0 + np.asarray(tail_parts) / terms[-2:]
    _, se_ratio = mc_mean(np.polynomial.polynomial.polyval(p, f_coeff))

    inv_c = float(partial[k_max] + tail)
    estimate = NormalizationEstimate(
        dim=dim, value=1.0 / inv_c, method="series",
        std_error=se_ratio / (inv_c / inv_chs) / inv_c,
        terms_or_samples=k_max, truncation_last_term=float(terms[k_max]),
        truncation_tail=tail)
    if return_partial_sums:
        return estimate, partial
    return estimate


def c_g_quadrature(dim: int) -> NormalizationEstimate:
    """Superfidelity constant by the simplex Gauss rule (N = 2..5).

    The integrand is C_HS times the density, whose integral C_HS / C_G is of
    order one at every N, so the absolute tolerance 1e-9 is also relative.
    """
    if dim not in (2, 3, 4, 5):
        raise UnsupportedDimensionError(f"quadrature constants available for dim 2 to 5, not {dim}")
    chs = c_hs(dim).value
    ratio = simplex_quadrature(lambda lam: chs * density_g_unnormalized(lam), dim, 1e-9)
    return NormalizationEstimate(dim=dim, value=chs / ratio, method="quadrature")


def c_bures(dim: int) -> NormalizationEstimate:
    """Bures constant 2^(N^2-N) Gamma(N^2/2) / (pi^(N/2) prod_{j<=N} Gamma(j+1)); N <= 19.

    Sommers and Zyczkowski, J. Phys. A 36, 10083 (2003).  At N = 20 and
    above, log C exceeds log(float64 max) and
    :class:`UnsupportedDimensionError` is raised.
    """
    if dim < 2:
        raise UnsupportedDimensionError(f"need dim >= 2, got {dim}")
    lg = ((dim * dim - dim) * log(2.0) + lgamma(dim * dim / 2.0) - 0.5 * dim * log(pi)
          - sum(lgamma(j + 1) for j in range(1, dim + 1)))
    return _exact_constant("C_B", dim, lg)


# The one caller left is perfbench/worker.py:90; delete this alias with the
# next change to the benchmark.
c_bures_quadrature = c_bures


def normalized_density(measure: Measure | str, dim: int):
    """Normalized eigenvalue density for ``measure`` at dimension ``dim``.

    The constant is exact for Hilbert-Schmidt and Bures (any N) and for
    superfidelity (N = 2, 3); other superfidelity dimensions raise
    :class:`UnsupportedDimensionError`.
    """
    base, constant = {
        Measure.HILBERT_SCHMIDT: (density_hs_unnormalized, c_hs),
        Measure.SUPERFIDELITY: (density_g_unnormalized, c_g_exact),
        Measure.BURES: (density_bures_unnormalized, c_bures),
    }[Measure(measure)]
    const = constant(dim).value
    return lambda eigs: const * np.asarray(base(eigs))


# ---------------------------------------------------------------------------
# purity statistics under the Hilbert-Schmidt measure
# ---------------------------------------------------------------------------

def purity_mean_hs(dim: int) -> float:
    """E[tr rho^2] = 2N / (N^2 + 1)."""
    if dim < 2:
        raise UnsupportedDimensionError(f"need dim >= 2, got {dim}")
    return 2.0 * dim / (dim * dim + 1.0)


def purity_variance_hs(dim: int) -> float:
    """Var[tr rho^2] = 2 (N^2-1)^2 / ((N^2+1)^2 (N^2+2) (N^2+3))."""
    if dim < 2:
        raise UnsupportedDimensionError(f"need dim >= 2, got {dim}")
    n2 = dim * dim
    return 2.0 * (n2 - 1.0) ** 2 / ((n2 + 1.0) ** 2 * (n2 + 2.0) * (n2 + 3.0))


# ---------------------------------------------------------------------------
# qubit marginal under the superfidelity measure
# ---------------------------------------------------------------------------

def cdf_g2(t):
    """Eigenvalue CDF for one qubit under the superfidelity measure.

    F(t) = (2/pi) (sqrt(t(1-t)) (1-2t) + arcsin sqrt(t)); evaluated through
    the identity arcsin sqrt(t) = pi/4 + arcsin(2t-1)/2 so that F(0) = 0,
    F(1/2) = 1/2 and F(1) = 1 hold exactly in floating point.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("cdf_g2 is defined on [0, 1]")
    val = 0.5 + (2.0 / pi) * (np.sqrt(arr * (1.0 - arr)) * (1.0 - 2.0 * arr)
                              + 0.5 * np.arcsin(2.0 * arr - 1.0))
    return _maybe_scalar(np.clip(val, 0.0, 1.0))


def pdf_g2_marginal(t):
    """Eigenvalue PDF for one qubit: (2/pi) (2t-1)^2 / sqrt(t(1-t)) on (0, 1)."""
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("pdf_g2_marginal is defined on (0, 1)")
    if np.any(arr == 0.0) or np.any(arr == 1.0):
        raise SingularityError("pdf_g2_marginal diverges at the endpoints (integrably)")
    return _maybe_scalar((2.0 / pi) * (2.0 * arr - 1.0) ** 2 / np.sqrt(arr * (1.0 - arr)))


# ---------------------------------------------------------------------------
# qutrit density grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGrid:
    """Normalized qutrit eigenvalue density sampled on a barycentric lattice.

    Lattice points are (i/R, j/R, 1-(i+j)/R) for i + j <= R.  Points where
    the density diverges are flagged and carry NaN instead of a value: the
    three pure corners for the superfidelity measure, the whole simplex
    boundary for Bures.
    """

    measure: Measure
    resolution: int
    lambda1: np.ndarray
    lambda2: np.ndarray
    density: np.ndarray
    singular: np.ndarray


def density_grid_qutrit(resolution: int,
                        measure: Measure | str = Measure.SUPERFIDELITY) -> DensityGrid:
    """Evaluate the normalized qutrit eigenvalue density on a barycentric grid.

    The density is evaluated ``_GRID_BLOCK`` lattice points at a time, so
    the scratch stays bounded beyond the 25 B per point of the result.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    measure = Measure(measure)

    r = np.arange(resolution + 1)
    ii, jj = np.nonzero(np.add.outer(r, r) <= resolution)  # i-major order
    kk = resolution - ii - jj
    if measure is Measure.BURES:
        singular = (ii == 0) | (jj == 0) | (kk == 0)
    else:
        singular = (ii == resolution) | (jj == resolution) | (kk == resolution)

    density = np.full(len(ii), np.nan)
    f = normalized_density(measure, 3)
    for a in range(0, len(ii), _GRID_BLOCK):
        ok = ~singular[a:a + _GRID_BLOCK]
        # all three coordinates as k/resolution so permuted lattice points carry
        # bitwise-identical triples (the densities then match exactly)
        lam = np.stack([ii[a:a + _GRID_BLOCK][ok], jj[a:a + _GRID_BLOCK][ok],
                        kk[a:a + _GRID_BLOCK][ok]], axis=-1) / resolution
        density[a:a + _GRID_BLOCK][ok] = f(lam)
    return DensityGrid(measure=measure, resolution=resolution, lambda1=ii / resolution,
                       lambda2=jj / resolution, density=density, singular=singular)


def _lattice(grid: DensityGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lattice indices (i, j) of a grid's points and its (R+1, R+1) array.

    The array holds the density at [i, j] and NaN off the triangle.
    """
    res = grid.resolution
    i = np.rint(grid.lambda1 * res).astype(int)
    j = np.rint(grid.lambda2 * res).astype(int)
    full = np.full((res + 1, res + 1), np.nan)
    full[i, j] = grid.density
    return i, j, full


# Fit f(u) = a u^(-1/2) + b + c u on rows u = h, 2h, 3h; columns are the
# basis evaluated with a scaled as a*h^(-1/2) and c as c*h.
_EDGE_BASIS_INV = np.linalg.inv(np.array([
    [1.0, 1.0, 1.0],
    [1.0 / sqrt(2.0), 1.0, 2.0],
    [1.0 / sqrt(3.0), 1.0, 3.0],
]))


def grid_integral(grid: DensityGrid) -> float:
    """Riemann sum of a density grid with boundary-margin extrapolation.

    Interior lattice points contribute plainly.  For each of the three
    simplex edges, the density along the first three interior rows is fitted
    per station to a one-dimensional profile a u^(-1/2) + b + c u in the edge
    distance u; the missing mass is then |zeta(1/2)| a sqrt(h) for the
    inverse-sqrt part (strip plus all row-discretization deficits), b h / 2
    and c h^2 / 8 for the regular part (its missing half cell).  The linear
    term keeps a normal gradient from being misread as a singularity.  This
    recovers the boundary mass that pointwise samples cannot see, which for
    the Bures measure is substantial (~24% of the total at resolution 400).
    The qutrit grids integrate to:

    ==========  ======  ======  ======
    resolution  HS      Bures   G
    ==========  ======  ======  ======
    40          1.3215  1.0681  1.3892
    100         1.0316  1.0440  1.0491
    200         1.0043  1.0192  1.0079
    400         1.0005  1.0074  1.0011
    ==========  ======  ======  ======

    The fit breaks down on coarse grids, so resolutions below 100 raise
    ``ValueError``: at 99 the G total is already 1.0504, more than 5% off.
    """
    res = grid.resolution
    if res < _GRID_INTEGRAL_MIN_RESOLUTION:
        raise ValueError(f"grid_integral needs resolution >= {_GRID_INTEGRAL_MIN_RESOLUTION}, "
                         f"got {res}")
    h = 1.0 / res
    _, _, full = _lattice(grid)

    ii, jj = np.meshgrid(np.arange(res + 1), np.arange(res + 1), indexing="ij")
    interior = (ii >= 1) & (jj >= 1) & (ii + jj <= res - 1)
    plain = float(np.nansum(np.where(interior, full, 0.0)) * h * h)

    k = np.arange(1, res - 3)  # stations whose three rows are all interior
    edges = [
        np.stack([full[1, k], full[2, k], full[3, k]]),                            # l1 = 0
        np.stack([full[k, 1], full[k, 2], full[k, 3]]),                            # l2 = 0
        np.stack([full[k, res - 1 - k], full[k, res - 2 - k], full[k, res - 3 - k]]),  # l3 = 0
    ]
    corr = 0.0
    sqrt_h = sqrt(h)
    for rows in edges:
        coef = _EDGE_BASIS_INV @ np.nan_to_num(rows)
        a = coef[0] * sqrt_h
        b = coef[1]
        c = coef[2] / h
        corr += float(np.sum(_ZETA_HALF * a * sqrt_h + 0.5 * b * h + c * h * h / 8.0) * h)
    return plain + corr
