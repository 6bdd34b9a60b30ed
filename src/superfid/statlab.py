"""Statistical verification toolkit.

Monte-Carlo summaries with standard errors, one- and two-sample
Kolmogorov-Smirnov tests (a 1-D law is tested against its closed-form CDF),
Pearson chi-square goodness of fit on the qutrit eigenvalue simplex, and the
fixed Gauss rule over the eigenvalue simplex used as the numerical oracle for
normalization constants.  The scalar special functions these need (the
Kolmogorov and chi-square survival functions, and the Hurwitz zeta of the
series constant's tail) are closed forms in pure Python, so the package runs
on numpy alone.  Every integral here is one Gauss-Legendre rule in
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
from math import erfc, exp, factorial, frexp, fsum, inf, isnan, log, pi, sqrt

import numpy as np

from .errors import QuadratureError
from .rng import GOF_SHUFFLE_KIND, RngStream, check_stream

__all__ = [
    "GofResult", "mc_mean", "mc_variance",
    "ks_test", "ks_test_two_sample", "chi_square_gof_simplex", "simplex_quadrature",
    "kolmogorov_sf", "chi2_sf", "hurwitz_zeta",
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
# special functions
# ---------------------------------------------------------------------------

_SQRT_PI = sqrt(pi)


def _sum_until_negligible(term) -> float:
    """fsum of ``term(k)``, k = 1, 2, ..., up to the first below 1e-18 of the first."""
    terms = [term(1)]
    while terms[-1] != 0.0 and abs(terms[-1]) >= 1e-18 * abs(terms[0]):
        terms.append(term(len(terms) + 1))
    return fsum(terms)


def kolmogorov_sf(x: float) -> float:
    """Survival function of the Kolmogorov distribution, P(K > x).

    Above 0.6 it is the alternating series 2 sum_k (-1)^(k-1) e^(-2 k^2 x^2),
    below the Jacobi-theta form 1 - sqrt(2 pi)/x sum_k e^(-(2k-1)^2 pi^2/(8 x^2)).
    Against 50-digit values on x in [0.05, 3] the result is within 1.5e-16
    absolute; with the switch at 1, the theta form's cancellation just below
    1 would cost 2.3e-16.
    """
    x = float(x)
    if not x > 0.0:
        return 1.0
    if x >= 0.6:
        u = 2.0 * x * x
        return 2.0 * _sum_until_negligible(lambda k: (-1) ** (k - 1) * exp(-k * k * u))
    v = pi * pi / (8.0 * x * x)
    return 1.0 - sqrt(2.0 * pi) / x * _sum_until_negligible(lambda k: exp(-(2 * k - 1) ** 2 * v))


def _sqrt_residual(y: float, z: float) -> float:
    """y - z^2 exactly for z = sqrt(y) rounded (Dekker's exact product)."""
    c = 134217729.0 * z   # 2^27 + 1 splits z into two 26-bit halves
    hi = c - (c - z)
    lo = z - hi
    p = z * z
    return (y - p) - (((hi * hi - p) + 2.0 * hi * lo) + lo * lo)


def chi2_sf(dof: int, x: float) -> float:
    """Survival function of the chi-square law with integer ``dof`` >= 1.

    With y = x/2 and m = dof // 2 it is a finite sum of positive terms:
    e^-y sum_{k<m} y^k / k! for even dof, and erfc(sqrt y) +
    e^-y (2 sqrt(y/pi)) sum_{k<m} y^k / ((3/2)(5/2)...(k+1/2)) for odd dof.
    The sum is formed exactly in integers by Horner's rule and e^-y as 2^j
    equal factors of at least e^-512 (so that none underflows), and the
    product is rounded once.  erfc is moved by its first-order change from
    the rounded sqrt y to the exact one, which at dof = 1 is ~y ulp.  Against
    50-digit values over dof 1..200 wherever they are >= 1e-300, the result
    is within 3 ulp.  Where even the bound (m + 1) y^(m+1) e^-y on the sum
    underflows, the sum is skipped: the result is erfc(sqrt y), or 0 for even dof.
    """
    if int(dof) != dof or dof < 1:
        raise ValueError(f"dof must be an integer >= 1, got {dof}")
    dof, x = int(dof), float(x)
    if isnan(x):
        return x
    if x <= 0.0:
        return 1.0
    if x == inf:
        return 0.0
    y, m, odd = 0.5 * x, dof // 2, dof % 2
    head, pre = 0.0, 1.0
    if odd:
        z = sqrt(y)
        head = erfc(z) - exp(-y) * _sqrt_residual(y, z) / (z * _SQRT_PI)
        pre = 2.0 * z / _SQRT_PI
    if m == 0 or (y > 1.0 and (m + 1) * log(y) + log(m + 1) - y < -800.0):
        return head
    # s = 1 + (y/a)(1 + (y/(a+1))(1 + ...)), a = 1 or 3/2, as num/den; y = p/q
    p, q = y.as_integer_ratio()
    num = den = 1
    for j in range(m - 1, 0, -1):
        d = 2 * j + odd   # 2 (a + j - 1)
        num, den = den * q * d + 2 * num * p, den * q * d
    n = 1 << max(0, frexp(y)[1] - 9)   # y/n < 512
    en, ed = exp(-y / n).as_integer_ratio()
    pn, pd = pre.as_integer_ratio()
    return head + num * pn * en ** n / (den * pd * ed ** n)


# B_2j / (2j)! for j = 1..10, the Euler-Maclaurin correction coefficients
_BERNOULLI_OVER_FACTORIAL = [num / (den * factorial(2 * j)) for j, (num, den) in enumerate(
    [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
     (43867, 798), (-174611, 330)], start=1)]
_ZETA_DIRECT_TERMS = 12


def hurwitz_zeta(s: float, q: float) -> float:
    """Hurwitz zeta sum_{k>=0} (q + k)^(-s) for s > 1 and q > 0.

    Euler-Maclaurin: the first 12 terms directly, then with a = q + 12 the
    integral a^(1-s)/(s-1), a^(-s)/2 and ten Bernoulli corrections
    B_2j/(2j)! s(s+1)...(s+2j-2) a^(1-s-2j), summed by ``fsum``.  Against
    100-digit values at s = (N-1)^2 + 1/2 and s + 1 for N = 2..15 and
    q = 2..61, wherever the value is a normal float, it is within 1.9e-16
    relative.
    """
    if not s > 1.0 or not q > 0.0:
        raise ValueError(f"need s > 1 and q > 0, got s={s}, q={q}")
    a = q + _ZETA_DIRECT_TERMS
    terms = [(q + k) ** -s for k in range(_ZETA_DIRECT_TERMS)]
    terms += [a ** (1.0 - s) / (s - 1.0), 0.5 * a ** -s]
    rising = s * a ** (-s - 1.0)   # s (s+1) ... (s+2j-2) a^(1-s-2j)
    for j, b in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        terms.append(b * rising)
        rising *= (s + 2 * j - 1) * (s + 2 * j) / (a * a)
    return fsum(terms)


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
    p = kolmogorov_sf(sqrt(n) * d)
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
    p = kolmogorov_sf(sqrt(n_eff) * d)
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
    if len(counts) < 2:
        raise ValueError("fewer than 2 bins remain after merging; test is degenerate")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    p = chi2_sf(dof, stat)
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
