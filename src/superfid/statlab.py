"""Statistical verification toolkit.

Monte-Carlo summaries with standard errors, one- and two-sample
Kolmogorov-Smirnov tests, Pearson chi-square goodness of fit (on intervals and
on the qutrit eigenvalue simplex), and the fixed Gauss rule over the
eigenvalue simplex used as the numerical oracle for normalization constants.

The quadrature convention is the plain Lebesgue integral over unordered
simplex coordinates: for N=2, integral over lambda in (0,1) with
(lambda, 1-lambda); for N=3, over the triangle {lambda_1, lambda_2 >= 0,
lambda_1 + lambda_2 <= 1}; likewise over the first N-1 coordinates up to
N=5.  This is the convention under which the Hilbert-Schmidt eigenvalue
density integrates to 1/C_HS (1/3 for N=2, 1/1680 for N=3).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov
from scipy.stats import chi2 as chi2_dist

from .errors import QuadratureError
from .qstate import Measure
from .rng import RngStream

__all__ = [
    "SampleBatch", "GofResult", "mc_mean", "mc_variance",
    "ks_test", "ks_test_two_sample", "chi_square_gof", "chi_square_gof_simplex",
    "simplex_quadrature", "numeric_cdf",
]


@dataclass(frozen=True)
class SampleBatch:
    """Eigenvalue/purity records from one sampling run."""

    measure: Measure
    dim: int
    seed: int
    eigen_records: np.ndarray = field(repr=False)   # (n, dim), sorted descending
    purity_records: np.ndarray = field(repr=False)  # (n,)

    def __post_init__(self):
        if self.eigen_records.ndim != 2 or self.eigen_records.shape[0] == 0:
            raise ValueError("eigen_records must be a nonempty (n, dim) array")
        if self.eigen_records.shape != (len(self.purity_records), self.dim):
            raise ValueError("eigen_records / purity_records shape mismatch")
        p = self.purity_records
        if p.min() < 1.0 / self.dim - 1e-9 or p.max() > 1.0 + 1e-9:
            raise ValueError(f"purities outside [1/N, 1]: [{p.min()}, {p.max()}]")

    def __len__(self) -> int:
        return len(self.purity_records)


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float
    bins_or_n: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value outside [0, 1]: {self.p_value}")


# ---------------------------------------------------------------------------
# Monte-Carlo summaries
# ---------------------------------------------------------------------------

def mc_mean(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (sample stdev / sqrt(n))."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError(f"need at least 2 values, got {n}")
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def mc_variance(values: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its (asymptotic) standard error.

    Var(s^2) ~ (m4 - s^4) / n with m4 the fourth central moment.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 4:
        raise ValueError(f"need at least 4 values, got {n}")
    s2 = values.var(ddof=1)
    centered = values - values.mean()
    m4 = np.mean(centered ** 4)
    se = np.sqrt(max(m4 - s2 * s2, 0.0) / n)
    return float(s2), float(se)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def _check_cdf_monotone(cdf, lo: float, hi: float):
    grid = np.linspace(lo, hi, 1000)
    vals = np.asarray(cdf(grid), dtype=float)
    if np.any(np.diff(vals) < -1e-12):
        raise ValueError("cdf is not monotone on the sample range")


def ks_test(samples: np.ndarray, cdf) -> GofResult:
    """One-sample KS test with the asymptotic Kolmogorov p-value."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 50:
        raise ValueError(f"need at least 50 samples, got {n}")
    _check_cdf_monotone(cdf, samples[0], samples[-1])
    f = np.asarray(cdf(samples), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = max(d_plus, d_minus)
    p = float(kolmogorov(np.sqrt(n) * d))
    return GofResult(statistic=float(d), p_value=min(max(p, 0.0), 1.0), bins_or_n=n)


def ks_test_two_sample(a: np.ndarray, b: np.ndarray) -> GofResult:
    """Two-sample KS test with the asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size < 50 or b.size < 50:
        raise ValueError("need at least 50 samples in each batch")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    p = float(kolmogorov(np.sqrt(n_eff) * d))
    return GofResult(statistic=d, p_value=min(max(p, 0.0), 1.0),
                     bins_or_n=min(a.size, b.size))


# ---------------------------------------------------------------------------
# chi-square goodness of fit
# ---------------------------------------------------------------------------

def _merge_small_bins(counts: np.ndarray, expected: np.ndarray, min_expected: float):
    """Pool adjacent bins until every pooled bin has expected >= min_expected."""
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= min_expected:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0.0:
        if merged_e:
            merged_c[-1] += acc_c
            merged_e[-1] += acc_e
        else:
            merged_c.append(acc_c)
            merged_e.append(acc_e)
    return np.array(merged_c), np.array(merged_e)


def _pearson(counts: np.ndarray, expected: np.ndarray) -> GofResult:
    if len(counts) < 2:
        raise ValueError("fewer than 2 bins remain after merging; test is degenerate")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    p = float(chi2_dist.sf(stat, dof))
    return GofResult(statistic=stat, p_value=p, bins_or_n=len(counts))


def chi_square_gof(samples: np.ndarray, density, bins: int,
                   support: tuple[float, float], min_expected: float = 5.0) -> GofResult:
    """Pearson chi-square test of 1-D samples against an unnormalized density.

    Each bin's mass comes from the sin^2 Gauss rule of
    :func:`simplex_quadrature` (so integrable inverse-square-root endpoint
    singularities are fine); if its two orders differ by more than 1e-9 of the
    total mass, :class:`QuadratureError` is raised.  Bins with expected count
    below ``min_expected`` are pooled with their neighbours.
    """
    samples = np.asarray(samples, dtype=float)
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    lo, hi = support
    if samples.min() < lo or samples.max() > hi:
        raise ValueError("samples fall outside the stated support")
    edges = np.linspace(lo, hi, bins + 1)
    left, width = edges[:-1, None], np.diff(edges)[:, None]
    coarse, masses = ((np.asarray(density(left + width * s), dtype=float) * width) @ w
                      for s, _, w in _SIN2_RULES)
    total = masses.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"density integral over support is not finite/positive: {total}")
    gap = np.max(np.abs(masses - coarse))
    if not gap <= 1e-9 * total:
        raise QuadratureError(f"bin masses of the two quadrature orders differ by {gap:.2e}",
                              partial_estimate=float(total))
    expected = samples.size * masses / total
    counts, _ = np.histogram(samples, bins=edges)
    counts, expected = _merge_small_bins(counts.astype(float), expected, min_expected)
    return _pearson(counts, expected)


# ----- qutrit-simplex variant -----

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(6)
_GAUSS_X = 0.5 * (_GAUSS_X + 1.0)
_GAUSS_W = 0.5 * _GAUSS_W


def _triangle_quad(density, tri: np.ndarray) -> float:
    """Integral over one triangle via a Duffy-mapped 6x6 tensor Gauss rule."""
    u = _GAUSS_X[:, None]
    v = _GAUSS_X[None, :]
    w = (_GAUSS_W[:, None] * _GAUSS_W[None, :]) * (1.0 - u)
    s = u
    t = v * (1.0 - u)
    p0, p1, p2 = tri
    x = p0[0] + s * (p1[0] - p0[0]) + t * (p2[0] - p0[0])
    y = p0[1] + s * (p1[1] - p0[1]) + t * (p2[1] - p0[1])
    area2 = abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1]))
    lam = np.stack([x, y, 1.0 - x - y], axis=-1)
    return float(np.sum(w * density(lam)) * area2)


def _clip_cell_to_triangle(x0, x1, y0, y1):
    """Clip the square [x0,x1]x[y0,y1] against x + y <= 1; return polygon vertices."""
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    out = []
    n = len(poly)
    for i in range(n):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % n]
        p_in = px + py <= 1.0 + 1e-15
        q_in = qx + qy <= 1.0 + 1e-15
        if p_in:
            out.append((px, py))
        if p_in != q_in:
            # intersection with x + y = 1 along segment p->q
            t = (1.0 - px - py) / ((qx - px) + (qy - py))
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def chi_square_gof_simplex(eigs: np.ndarray, density, grid: int = 12,
                           rng: RngStream | None = None,
                           min_expected: float = 5.0) -> GofResult:
    """Chi-square test of qutrit eigenvalue samples against a symmetric density.

    ``eigs`` is an (n, 3) array of simplex points (any order); each row is
    put into a uniformly random order (seeded, so the test is deterministic)
    and binned by its first two coordinates on a ``grid`` x ``grid`` partition
    of the triangle.  Expected masses come from exact cell-clipped quadrature
    of ``density`` (a callable on (..., 3) arrays), normalized over the
    simplex, so the test needs no normalization constant.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 2 or eigs.shape[1] != 3:
        raise ValueError("eigs must be an (n, 3) array")
    gen = (rng or RngStream(0)).generator()

    n = eigs.shape[0]
    # random exchangeable reordering of each row
    order = np.argsort(gen.random((n, 3)), axis=1)
    shuffled = np.take_along_axis(eigs, order, axis=1)
    x, y = shuffled[:, 0], shuffled[:, 1]

    h = 1.0 / grid
    masses = np.zeros((grid, grid))
    for i in range(grid):
        for j in range(grid):
            if (i + j) * h >= 1.0 - 1e-15:
                continue
            poly = _clip_cell_to_triangle(i * h, (i + 1) * h, j * h, (j + 1) * h)
            if len(poly) < 3:
                continue
            acc = 0.0
            for k in range(1, len(poly) - 1):
                tri = np.array([poly[0], poly[k], poly[k + 1]])
                acc += _triangle_quad(density, tri)
            masses[i, j] = acc
    total = masses.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("density integral over the simplex is not finite/positive")

    ix = np.minimum((x / h).astype(int), grid - 1)
    iy = np.minimum((y / h).astype(int), grid - 1)
    counts = np.zeros((grid, grid))
    np.add.at(counts, (ix, iy), 1.0)

    keep = masses.ravel() > 0
    expected = n * masses.ravel()[keep] / total
    observed = counts.ravel()[keep]
    idx = np.argsort(-expected)  # pool small-expectation cells together at the tail
    counts_m, expected_m = _merge_small_bins(observed[idx], expected[idx], min_expected)
    return _pearson(counts_m, expected_m)


# ---------------------------------------------------------------------------
# simplex quadrature
# ---------------------------------------------------------------------------

def _sin2_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule in phi for integrals over s = sin^2 phi in [0, 1].

    Returns sin^2 phi, cos^2 phi and the weights times ds/dphi = sin 2phi.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    phi = 0.25 * np.pi * (x + 1.0)
    return np.sin(phi) ** 2, np.cos(phi) ** 2, 0.25 * np.pi * w * np.sin(2.0 * phi)


_SIN2_RULES = [_sin2_rule(n) for n in (32, 48)]  # coarse, fine


def _stick_breaking_rule(parts: int, rule) -> tuple[np.ndarray, np.ndarray]:
    """Points (m, parts) and weights (m,) of the product rule on the unit simplex.

    Each coordinate takes the fraction sin^2 phi of the stick the previous ones
    left, the last takes the rest; the Jacobian is the stick length at each break.
    """
    s, c, w = rule
    lam, rest, wts = np.empty((1, 0)), np.ones(1), np.ones(1)
    for _ in range(parts - 1):
        lam = np.column_stack([np.repeat(lam, len(s), axis=0), np.outer(rest, s).ravel()])
        wts = np.outer(wts * rest, w).ravel()
        rest = np.outer(rest, c).ravel()
    return np.column_stack([lam, rest]), wts


def _simplex_rule(f, dim: int, rule) -> float:
    # one lambda_1 node per call of f bounds memory: 48^3 points at dim 5
    inner, inner_w = _stick_breaking_rule(dim - 1, rule)
    total = 0.0
    for s1, c1, w1 in zip(*rule):
        lam = np.column_stack([np.full(len(inner), s1), c1 * inner])
        total += w1 * c1 ** (dim - 2) * float(np.sum(inner_w * f(lam)))
    return total


def simplex_quadrature(f, dim: int, tolerance: float = 1e-9) -> float:
    """Integral of ``f(lambda)`` over the unordered eigenvalue simplex, dim 2 to 5.

    ``f`` maps (m, dim) stacks of points to m values.  A product Gauss-Legendre
    rule in the nested angles lambda_1 = sin^2 phi_1, lambda_2 = cos^2 phi_1
    sin^2 phi_2, ... removes the 1/sqrt boundary singularities of the Bures and
    superfidelity densities.  Returns the 48-node value; raises
    :class:`QuadratureError` (carrying it) if it is not finite or differs from
    the 32-node value by more than ``tolerance``.
    """
    if dim not in (2, 3, 4, 5):
        raise ValueError(f"simplex_quadrature supports dim 2 to 5, got {dim}")
    coarse, fine = (_simplex_rule(f, dim, rule) for rule in _SIN2_RULES)
    if not (np.isfinite(fine) and abs(fine - coarse) <= tolerance):
        raise QuadratureError(f"32- and 48-node rules give {coarse:.17g} and {fine:.17g}, "
                              f"more than {tolerance:.2e} apart", partial_estimate=float(fine))
    return float(fine)


def numeric_cdf(density, support: tuple[float, float], n_grid: int = 2000):
    """Normalized CDF of a 1-D density by cumulative quadrature.

    Returns a vectorized callable built on a theta-graded grid (dense near
    both endpoints), accurate for densities with integrable inverse-sqrt
    endpoint singularities.
    """
    lo, hi = support
    width = hi - lo
    theta = np.linspace(0.0, np.pi / 2, n_grid + 1)
    xg = lo + width * np.sin(theta) ** 2

    gx, gw = np.polynomial.legendre.leggauss(8)
    t0, t1 = theta[:-1], theta[1:]
    mid = 0.5 * (t0 + t1)[:, None] + 0.5 * (t1 - t0)[:, None] * gx[None, :]
    wts = 0.5 * (t1 - t0)[:, None] * gw[None, :]
    xs = lo + width * np.sin(mid) ** 2
    vals = density(xs) * width * np.sin(2.0 * mid)
    seg = np.sum(vals * wts, axis=1)

    cum = np.concatenate([[0.0], np.cumsum(seg)])
    cum /= cum[-1]

    def cdf(x):
        return np.interp(np.asarray(x, dtype=float), xg, cum, left=0.0, right=1.0)

    return cdf
