"""Statistical verification toolkit.

Monte-Carlo summaries with standard errors, one- and two-sample
Kolmogorov-Smirnov tests (a 1-D law is tested against its closed-form CDF),
Pearson chi-square goodness of fit on the qutrit eigenvalue simplex, and the
fixed Gauss rule over the eigenvalue simplex used as the numerical oracle for
normalization constants.  Every integral here is one Gauss-Legendre rule in
phi with s = sin^2 phi, at 32 and 48 nodes, and fails closed with
:class:`QuadratureError` when the two orders disagree.  The only random draw
here is the chi-square test's row shuffle, read from block 0 of its own
kind of the :class:`RngStream` it is given (``GOF_SHUFFLE_KIND``).

The quadrature convention is the plain Lebesgue integral over unordered
simplex coordinates: for N=2, integral over lambda in (0,1) with
(lambda, 1-lambda); for N=3, over the triangle {lambda_1, lambda_2 >= 0,
lambda_1 + lambda_2 <= 1}; likewise over the first N-1 coordinates up to
N=5.  This is the convention under which the Hilbert-Schmidt eigenvalue
density integrates to 1/C_HS (1/3 for N=2, 1/1680 for N=3).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .rng import GOF_SHUFFLE_KIND, RngStream, check_stream

__all__ = [
    "GofResult", "mc_mean", "mc_variance",
    "ks_test", "ks_test_two_sample", "chi_square_gof_simplex", "simplex_quadrature",
]


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
    from scipy.special import kolmogorov  # deferred: scipy.special is slow to import
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
    from scipy.special import kolmogorov  # deferred: scipy.special is slow to import
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
# checked sin^2 Gauss cell masses
# ---------------------------------------------------------------------------

def _sin2_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule in phi for integrals over s = sin^2 phi in [0, 1].

    Returns sin^2 phi, cos^2 phi and the weights times ds/dphi = sin 2phi.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    phi = 0.25 * np.pi * (x + 1.0)
    return np.sin(phi) ** 2, np.cos(phi) ** 2, 0.25 * np.pi * w * np.sin(2.0 * phi)


_SIN2_RULES = [_sin2_rule(n) for n in (32, 48)]  # coarse, fine
# Cells per density call, so the fine rule's 2304 nodes per cell keep the
# scratch near 1 MB.
_CELL_CHUNK = 4


def _simplex_cell_masses(density, grid: int) -> np.ndarray:
    """Checked (grid, grid) masses of a qutrit ``density`` on the cells of side h = 1/grid.

    Cells with i + j < grid - 1 are whole squares, those with i + j = grid - 1
    the half below the diagonal, the rest empty.  Both shapes map from the unit
    square by lambda_1 = h (i + u), lambda_2 = h (j + (1 - t u) v), t = 0 or 1,
    with Jacobian h^2 (1 - t u); on the cut cells lambda_3 = h (1 - u)(1 - v),
    so every node stays inside the open simplex.  ``density`` is called on
    ``_CELL_CHUNK`` cells at a time, which bounds the scratch; each mass is
    the same whatever the chunk.

    Returns the masses of the fine rule.  Raises ``ValueError`` if their total
    is not finite and positive, and :class:`QuadratureError` if any mass moves
    by more than 1e-9 of the total between the two orders.
    """
    h = 1.0 / grid
    r = np.arange(grid)
    cell_i, cell_j = np.nonzero(np.add.outer(r, r) < grid)

    def cell_masses(rule):
        s, c, w = rule
        u, cu, v, cv = s[:, None], c[:, None], s[None, :], c[None, :]
        ww = np.outer(w, w)
        cells = np.zeros((grid, grid))
        for a in range(0, len(cell_i), _CELL_CHUNK):
            i, j = cell_i[a:a + _CELL_CHUNK], cell_j[a:a + _CELL_CHUNK]
            cut = (i + j == grid - 1)[:, None, None]
            shrink = np.where(cut, cu, 1.0)
            x = h * (i[:, None, None] + u)
            y = h * (j[:, None, None] + shrink * v)
            z = np.where(cut, h * cu * cv, 1.0 - x - y)
            f = np.asarray(density(np.stack(np.broadcast_arrays(x, y, z), axis=-1)),
                           dtype=float)
            cells[i, j] = h * h * np.sum(f * shrink * ww, axis=(1, 2))
        return cells

    coarse, masses = (cell_masses(rule) for rule in _SIN2_RULES)
    total = masses.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError(f"density integral is not finite/positive: {total}")
    gap = np.max(np.abs(masses - coarse))
    if not gap <= 1e-9 * total:
        raise QuadratureError(f"masses of the two quadrature orders differ by {gap:.2e}",
                              partial_estimate=float(total))
    return masses


# ---------------------------------------------------------------------------
# chi-square goodness of fit
# ---------------------------------------------------------------------------

_MIN_EXPECTED = 5.0  # cells expecting fewer counts are pooled with their neighbours


def _merge_small_bins(counts: np.ndarray, expected: np.ndarray):
    """Pool adjacent bins until every pooled bin has expected >= _MIN_EXPECTED."""
    merged_c, merged_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= _MIN_EXPECTED:
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
    from scipy.special import chdtrc  # deferred: scipy.special is slow to import
    if len(counts) < 2:
        raise ValueError("fewer than 2 bins remain after merging; test is degenerate")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    p = float(chdtrc(dof, stat))  # the chi-square survival function
    return GofResult(statistic=stat, p_value=p, bins_or_n=len(counts))


def chi_square_gof_simplex(eigs: np.ndarray, density, grid: int = 12, *,
                           rng: RngStream) -> GofResult:
    """Chi-square test of qutrit eigenvalue samples against a symmetric density.

    ``eigs`` is an (n, 3) array of simplex points (any order); each row is
    put into a uniformly random order, read from the front of
    ``rng.block(GOF_SHUFFLE_KIND, 0)`` so that the test is deterministic,
    and binned by its first two coordinates on a ``grid`` x ``grid``
    partition of the triangle.
    Expected masses come from a tensor sin^2 Gauss rule on every cell of
    ``density`` (a callable on (..., 3) arrays), normalized over the simplex,
    so the test needs no normalization constant; if the rule's two orders
    differ by more than 1e-9 of the total mass, :class:`QuadratureError` is
    raised.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 2 or eigs.shape[1] != 3:
        raise ValueError("eigs must be an (n, 3) array")
    check_stream(rng)
    gen = rng.block(GOF_SHUFFLE_KIND, 0)

    n = eigs.shape[0]
    # random exchangeable reordering of each row
    order = np.argsort(gen.random((n, 3)), axis=1)
    shuffled = np.take_along_axis(eigs, order, axis=1)
    x, y = shuffled[:, 0], shuffled[:, 1]

    masses = _simplex_cell_masses(density, grid)
    h = 1.0 / grid
    ix = np.minimum((x / h).astype(int), grid - 1)
    iy = np.minimum((y / h).astype(int), grid - 1)
    counts = np.zeros((grid, grid))
    np.add.at(counts, (ix, iy), 1.0)

    keep = masses.ravel() > 0
    expected = n * masses.ravel()[keep] / masses.sum()
    observed = counts.ravel()[keep]
    idx = np.argsort(-expected)  # pool small-expectation cells together at the tail
    counts_m, expected_m = _merge_small_bins(observed[idx], expected[idx])
    return _pearson(counts_m, expected_m)


# ---------------------------------------------------------------------------
# simplex quadrature
# ---------------------------------------------------------------------------

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
