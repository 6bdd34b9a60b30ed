"""Built-in verification suites: the one implementation of every claim.

Each suite runs a battery of deterministic (seeded) checks against the
closed-form values, bounds, and distributional claims implemented by the
package.  Sample sizes grow with ``scale``; at scale 1 they suit interactive
use (``superfid verify``), and ``tests/test_acceptance.py`` runs every check
at scale 20, where each size is at least its acceptance size.

``run_suite("all", ...)`` runs the sampler suite on one helper thread while
the calling thread runs the other three; their heavy numpy calls release the
GIL, so on two cores ``all`` takes about as long as its three caller-side
suites.  Every suite draws only from its own streams, so the output does not
depend on scheduling.  Every draw comes from its stream's keyed blocks, so
no two draws share a generator: where a check needs several stacks of
states (pairs, triples), it draws one stack from one stream and splits it.
States come from :func:`~superfid.samplers.sample_batch`, except HS matrices
without spectra and HS purities, and this module's own draws (Haar
unitaries, tangent directions, inverse-CDF uniforms) read block 0 of
``VERIFY_KIND`` of their stream.  HS purities (the density suite's
Monte-Carlo and series constants, the purity suite's moments) are drawn
from keyed blocks split between the drawing thread and a helper of its own,
which does not change their values either, and each block is reduced where
it was drawn (:func:`~superfid.samplers.reduce_hs_purities`), so no check
holds its purities; the G qubit purities are reduced block by block too.
The density suite builds its two qutrit grids one at a time, and the
triangle check evaluates d_G on slices of its stacks.  The sampler-suite
helper's working sets are bounded by blocks (Bures states, simplex cells),
so its allocations peak below 6 MB at scale 1 (``tracemalloc`` reads
~5.2 MB for a first run in a fresh process, envelope audit included, and
~3.7 MB warm, on a helper thread with numpy 2.4), which bounds what its own
malloc arena adds to the peak RSS.  Warm, the caller-side suites peak at
~6.3 MB (metric), ~5.1 MB (density) and ~1.7 MB (purity).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import isfinite, pi, sqrt

import numpy as np

from . import eigendensities as ed
from . import samplers as sm
from . import similarity as si
from . import statlab as st
from .cli import SUITE_NAMES
from .qstate import (Measure, _dagger, check_density_matrix, haar_unitary_batch,
                     random_tangent_batch)
from .rng import VERIFY_KIND, RngStream


_SLICE = 1024   # states per dist_g call of the triangle check


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail):
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def _hs_stacks(dim: int, count: int, stacks: int, rng: RngStream):
    """``stacks`` stacks of ``count`` Hilbert-Schmidt states: one draw from ``rng``, split.

    The draw's blocks are copied into one array per stack as they come, so no
    array holds the whole draw.
    """
    out = [np.empty((count, dim, dim), dtype=complex) for _ in range(stacks)]
    start = 0
    for block in sm._hs_blocks(dim, stacks * count, rng):
        stop = start + len(block)
        for k, stack in enumerate(out):   # the block's rows that fall in stack k
            lo, hi = max(start, k * count), min(stop, (k + 1) * count)
            if lo < hi:
                stack[lo - k * count:hi - k * count] = block[lo - start:hi - start]
        start = stop
    return out


def _tangent_lines(dim: int, count: int, rng: RngStream):
    """``count`` mixed states and unit tangent directions at them, from one stream.

    The states are Hilbert-Schmidt draws pulled 20 % toward I/N; the
    mixedness floor keeps the FD stencil inside its O(h^2) regime.  The
    states come from the HS sampler's blocks and the tangents from
    ``rng.block(VERIFY_KIND, 0)``, a block of another kind.
    """
    rho = 0.8 * sm.sample_hs_batch(dim, count, rng) + 0.2 * np.eye(dim) / dim
    return rho, random_tangent_batch(dim, count, rng.block(VERIFY_KIND, 0))


# ---------------------------------------------------------------------------
# metric suite
# ---------------------------------------------------------------------------

def _metric_checks(seed: int, scale: float = 1.0) -> list[CheckResult]:
    out = []
    n_pairs = max(50, int(300 * scale))

    a, b = _hs_stacks(2, n_pairs, 2, RngStream(seed, 1))
    gap = np.abs(si.fidelity(a, b) - si.superfidelity(a, b))
    out.append(_result("metric", "fidelity-equals-superfidelity-qubits",
                       gap.max() <= 1e-9, f"max |F-G| = {gap.max():.2e} over {n_pairs} pairs"))

    worst = -np.inf
    for dim in (3, 4, 5):
        a, b = _hs_stacks(dim, n_pairs, 2, RngStream(seed, dim))
        worst = max(worst, float(np.max(si.fidelity(a, b) - si.superfidelity(a, b))))
    out.append(_result("metric", "fidelity-below-superfidelity",
                       worst <= 1e-9, f"max F-G = {worst:.2e} for N=3,4,5"))

    worst_slack = -np.inf
    worst_self = 0.0
    for dim in (2, 3, 4):
        stacks = _hs_stacks(dim, max(200, int(3000 * scale)), 3, RngStream(seed, 10 + dim))
        for start in range(0, len(stacks[0]), _SLICE):   # bounds dist_g's temporaries
            x, y, z = (stack[start:start + _SLICE] for stack in stacks)
            viol = si.dist_g(x, z) - si.dist_g(x, y) - si.dist_g(y, z)
            worst_slack = max(worst_slack, float(viol.max()))
            worst_self = max(worst_self, float(np.max(si.dist_g(x, x))))
    out.append(_result("metric", "triangle-inequality",
                       worst_slack <= 1e-12, f"max violation = {worst_slack:.2e}"))
    out.append(_result("metric", "zero-self-distance",
                       worst_self <= 1e-10, f"max d_G(rho,rho) = {worst_self:.2e}"))

    a, b = _hs_stacks(4, n_pairs, 2, RngStream(seed, 20))
    sym_g = np.max(np.abs(np.asarray(si.superfidelity(a, b)) - si.superfidelity(b, a)))
    sym_f = np.max(np.abs(np.asarray(si.fidelity(a, b)) - si.fidelity(b, a)))
    out.append(_result("metric", "symmetry",
                       max(sym_g, sym_f) <= 1e-12,
                       f"max asymmetry G {sym_g:.2e}, F {sym_f:.2e}"))

    u = haar_unitary_batch(3, 50, RngStream(seed, 21).block(VERIFY_KIND, 0))
    a, b = _hs_stacks(3, 50, 2, RngStream(seed, 22))
    g0 = si.superfidelity(a, b)
    g1 = si.superfidelity(u @ a @ _dagger(u), u @ b @ _dagger(u))
    worst_u = float(np.max(np.abs(g0 - g1)))
    out.append(_result("metric", "unitary-invariance",
                       worst_u <= 1e-10, f"max |G(U.U^,U.U^) - G| = {worst_u:.2e}"))

    n_lines = max(10, int(30 * scale))
    worst_fd = 0.0
    medians = []  # median FD error ratio for h -> h/2; 4 at second order
    for dim in (2, 3):
        rho, drho = _tangent_lines(dim, n_lines, RngStream(seed, 30 + dim))
        analytic = si.line_element_g(rho, drho)
        err, coarse, fine = (np.abs(si.fd_second_derivative(si._dist_g_squared, rho, drho, h)
                                    - analytic)
                             for h in (1e-3, 1e-2, 5e-3))
        worst_fd = max(worst_fd, float(err.max()))
        resolved = coarse > 1e-12
        medians.append(float(np.median(coarse[resolved] / fine[resolved])))
    out.append(_result("metric", "line-element-fd-match",
                       worst_fd <= 1e-4, f"max |FD - analytic| = {worst_fd:.2e}"))
    out.append(_result("metric", "line-element-fd-second-order",
                       all(2.5 <= m <= 6.0 for m in medians),
                       f"median error ratio h->h/2: N=2 {medians[0]:.2f}, N=3 {medians[1]:.2f}"))

    rho, drho = _tangent_lines(2, n_lines, RngStream(seed, 40))
    worst_eq = float(np.max(np.abs(si.line_element_g(rho, drho)
                                   - si.line_element_bprime(rho, drho))))
    out.append(_result("metric", "qubit-line-elements-coincide",
                       worst_eq <= 1e-8, f"max |g - bprime| = {worst_eq:.2e} (N=2)"))
    return out


# ---------------------------------------------------------------------------
# density suite
# ---------------------------------------------------------------------------

def _density_checks(seed: int, scale: float = 1.0) -> list[CheckResult]:
    out = []
    val = st.simplex_quadrature(ed.density_g_unnormalized, 2, 1e-9)
    out.append(_result("density", "qubit-g-normalization",
                       abs(val - pi / (2 * sqrt(2))) <= 1e-6,
                       f"integral = {val:.9f}, pi/(2 sqrt 2) = {pi / (2 * sqrt(2)):.9f}"))
    val = st.simplex_quadrature(ed.density_bures_unnormalized, 2, 1e-9)
    out.append(_result("density", "qubit-bures-normalization",
                       abs(val - pi / 2) <= 1e-6, f"integral = {val:.9f}"))
    val = st.simplex_quadrature(ed.density_hs_unnormalized, 2, 1e-11)
    out.append(_result("density", "qubit-hs-normalization",
                       abs(val - 1 / 3) <= 1e-10, f"integral = {val:.12f}"))
    val = st.simplex_quadrature(ed.density_hs_unnormalized, 3, 1e-11)
    out.append(_result("density", "qutrit-hs-normalization",
                       abs(val * 1680 - 1) <= 1e-8, f"1/integral = {1 / val:.6f}"))
    val = st.simplex_quadrature(ed.density_g_unnormalized, 3, 1e-10)
    c3 = ed.c_g_exact(3).value
    out.append(_result("density", "qutrit-g-normalization",
                       abs(val * c3 - 1) <= 1e-3,
                       f"1/integral = {1 / val:.4f}, closed form = {c3:.4f}"))

    lam = np.linspace(0.01, 0.99, 99)
    pts = np.stack([lam, 1 - lam], axis=-1)
    g_norm = ed.normalized_density(Measure.SUPERFIDELITY, 2)(pts)
    b_norm = ed.normalized_density(Measure.BURES, 2)(pts)
    gap = np.max(np.abs(g_norm - b_norm))
    out.append(_result("density", "qubit-g-measure-equals-bures",
                       gap <= 1e-10, f"max pointwise gap = {gap:.2e}"))

    # away from the sqrt endpoints, where the h = 1e-5 stencil resolves the pdf
    t = np.linspace(0.05, 0.95, 501)
    h = 1e-5
    fd = (np.asarray(ed.cdf_g2(t + h)) - np.asarray(ed.cdf_g2(t - h))) / (2 * h)
    gap = np.max(np.abs(fd - np.asarray(ed.pdf_g2_marginal(t))))
    out.append(_result("density", "qubit-pdf-is-cdf-derivative",
                       gap <= 1e-6, f"max |pdf - dCDF| = {gap:.2e}"))

    grid = np.linspace(0.0, 1.0, 10_001)
    mono = np.all(np.diff(np.asarray(ed.cdf_g2(grid))) >= -1e-15)
    out.append(_result("density", "qubit-cdf-monotone", mono, "10^4-point grid"))

    ok = True
    details = []
    for dim in (2, 3):
        bound = ed.c_g_jensen_bound(dim).value
        exact = ed.c_g_exact(dim).value
        ok &= exact <= bound
        details.append(f"N={dim}: {exact:.4g} <= {bound:.4g}")
    for dim in (4, 5):
        bound = ed.c_g_jensen_bound(dim).value
        est = ed.c_g_monte_carlo(dim, max(20_000, int(10 ** 5 * scale)), RngStream(seed, 50 + dim))
        ok &= est.value <= bound + 3 * est.std_error
        details.append(f"N={dim}: {est.value:.4g} (3SE {3 * est.std_error:.2g}) <= {bound:.4g}")
    out.append(_result("density", "jensen-upper-bound", ok, "; ".join(details)))

    est, partial = ed.c_g_series(2, 20, RngStream(seed, 60), samples=max(20_000, int(10 ** 5 * scale)),
                                 return_partial_sums=True)
    mono = np.all(np.diff(partial) > 0)
    k0 = 1.0 / partial[0]
    out.append(_result("density", "series-monotone-partial-sums",
                       mono and abs(k0 - ed.c_hs(2).value) < 1e-9,
                       f"k=0 estimate = C_HS = {k0:.4f}, partial sums increasing: {mono}"))
    rel = abs(est.value / ed.c_g_exact(2).value - 1.0)
    out.append(_result("density", "series-estimate-within-1pct", rel <= 0.01,
                       f"k_max=20 estimate {est.value:.4f}, rel error {rel:.1e} vs closed form"))

    res = 400  # the acceptance resolution; boundary extrapolation holds from ~200 up
    measures = (Measure.SUPERFIDELITY, Measure.BURES)
    totals, symmetric = [], True
    for measure in measures:   # one grid at a time
        grid = ed.density_grid_qutrit(res, measure)
        totals.append(ed.grid_integral(grid))
        symmetric = symmetric and _permutation_symmetric(grid)
        del grid
    out.append(_result("density", "qutrit-grid-integrates-to-one",
                       all(abs(t - 1.0) <= 0.02 for t in totals),
                       "; ".join(f"{m.value}@res{res}: {t:.4f}"
                                 for m, t in zip(measures, totals))))
    out.append(_result("density", "qutrit-grid-permutation-symmetric", symmetric,
                       f"g, bures@res{res}: equal values at permuted lattice points"))
    return out


def _permutation_symmetric(grid: ed.DensityGrid) -> bool:
    """Whether a qutrit grid holds one value (or NaN) at all permutations of each point.

    The swaps of (i, j) and of (j, k), k = R - i - j, generate all six
    permutations of the lattice indices: the first transposes the grid's
    (R+1, R+1) array, the second reverses its row i over j = 0 .. R - i.
    """
    full = ed._lattice(grid)
    res = grid.resolution
    return (np.array_equal(full, full.T, equal_nan=True)
            and all(np.array_equal(row[:res + 1 - i], row[res - i::-1], equal_nan=True)
                    for i, row in enumerate(full)))


# ---------------------------------------------------------------------------
# sampler suite
# ---------------------------------------------------------------------------

def _sampler_checks(seed: int, scale: float = 1.0) -> list[CheckResult]:
    out = []
    n = max(5000, int(20_000 * scale))

    def lambda_max_cdf(x):
        # lambda_max on [1/2, 1] under the qubit density (2t - 1)^2 / sqrt(t (1 - t))
        # of both G and Bures (density/qubit-g-measure-equals-bures)
        return 2 * np.asarray(ed.cdf_g2(x)) - 1

    _, eigs, _ = sm.sample_batch(Measure.HILBERT_SCHMIDT, 2, n, RngStream(seed, 70))
    res = st.ks_test(eigs[:, 0], lambda x: (2 * np.asarray(x) - 1) ** 3)
    out.append(_result("sampler", "hs-qubit-eigenvalue-law",
                       res.p_value > 0.01, f"KS p = {res.p_value:.4f}"))

    _, eigs, _ = sm.sample_batch(Measure.BURES, 2, n, RngStream(seed, 71))
    res = st.ks_test(eigs[:, 0], lambda_max_cdf)
    out.append(_result("sampler", "bures-qubit-eigenvalue-law",
                       res.p_value > 0.01, f"KS p = {res.p_value:.4f}"))

    u = RngStream(seed, 72).block(VERIFY_KIND, 0).random(n)
    lam = np.asarray(sm.invert_cdf_g2(u))
    res = st.ks_test(lam, ed.cdf_g2)
    out.append(_result("sampler", "g-qubit-inverse-cdf-law",
                       res.p_value > 0.01, f"KS p = {res.p_value:.4f}"))

    _, eg, _ = sm.sample_batch(Measure.SUPERFIDELITY, 2, n, RngStream(seed, 73))
    _, eb, _ = sm.sample_batch(Measure.BURES, 2, n, RngStream(seed, 74))
    res = st.ks_test_two_sample(eg[:, 0], eb[:, 0])
    out.append(_result("sampler", "g-qubit-matches-bures",
                       res.p_value > 0.01, f"two-sample KS p = {res.p_value:.4f}"))
    median = ed.cdf_g2(0.5)
    res = st.ks_test(eg[:, 0], lambda_max_cdf)
    out.append(_result("sampler", "g-qubit-lambda-max-law", median == 0.5 and res.p_value > 0.01,
                       f"F_G,2(1/2) = {median!r}, KS p = {res.p_value:.4f} vs reflected F_G,2"))

    # stream 75 is unused: the audit draws nothing, so this line depends on neither seed nor scale
    audit = sm.audit_sup_density_ratio(3)
    out.append(_result("sampler", "envelope-audit-qutrit", audit.passed,
                       f"max ratio {audit.max_ratio:.12f} vs bound {audit.bound:.12f}"))

    count = max(2000, int(5000 * scale))
    _, eigs, rep = sm.sample_batch(Measure.SUPERFIDELITY, 3, count, RngStream(seed, 76))
    target = ed.normalized_density(Measure.SUPERFIDELITY, 3)
    res = st.chi_square_gof_simplex(eigs, target, grid=12, rng=RngStream(seed, 77))
    out.append(_result("sampler", "rejection-gof-qutrit",
                       res.p_value > 0.01,
                       f"chi2 p = {res.p_value:.4f}, acceptance rate {rep.empirical_rate:.3f}"))

    c3 = sm.rejection_constant_c(3)
    alt = ed.c_g_jensen_bound(3).value / ed.c_bures(3).value * sm.sup_density_ratio_unnormalized(3)
    out.append(_result("sampler", "rejection-constant-factorization", abs(c3 / alt - 1.0) <= 1e-6,
                       f"c(3) = {c3:.6f}, (jensen/C_B)*sup = {alt:.6f}"))
    cs = [sm.rejection_constant_c(dim) for dim in range(3, 9)]
    out.append(_result("sampler", "rejection-constant-grows", all(np.diff(cs) > 0),
                       "c(N) for N=3..8: " + ", ".join(f"{c:.3g}" for c in cs)))

    ok = True
    for measure in Measure:
        for dim in (2, 3, 4):
            mats, eigs, _ = sm.sample_batch(measure, dim, 50, RngStream(seed, 80 + dim),
                                            keep_matrices=True)
            check_density_matrix(mats)
            ok &= abs(eigs.sum(axis=-1) - 1).max() < 1e-9
    out.append(_result("sampler", "sampled-states-valid", ok,
                       "density-matrix invariants of every drawn matrix"))

    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    rot = haar_unitary_batch(3, 1, RngStream(seed, 90).block(VERIFY_KIND, 0))[0] @ psi
    m = max(4000, int(10_000 * scale))
    mats, _, _ = sm.sample_batch(Measure.BURES, 3, m, RngStream(seed, 91), keep_matrices=True)
    ev_fixed = np.real(np.einsum("i,nij,j->n", psi.conj(), mats, psi))
    ev_rot = np.real(np.einsum("i,nij,j->n", rot.conj(), mats, rot))
    res = st.ks_test_two_sample(ev_fixed, ev_rot)
    out.append(_result("sampler", "unitary-invariance-of-measure",
                       res.p_value > 0.01, f"two-sample KS p = {res.p_value:.4f}"))
    return out


# ---------------------------------------------------------------------------
# purity suite
# ---------------------------------------------------------------------------

def _hs_purity_moments(dim: int, count: int, rng: RngStream, order: int = 2,
                       squared: bool = False) -> st.Moments:
    """The :class:`~superfid.statlab.Moments` of ``count`` HS purities p, or of p^2.

    Each block is reduced on the thread that drew it, so nothing of size
    ``count`` is held.
    """
    def moments(start, p):
        return st.Moments.of(np.square(p, out=p) if squared else p, order)
    return st.Moments.merge(sm.reduce_hs_purities(dim, count, rng, moments))


def _purity_checks(seed: int, scale: float = 1.0,
                   dims: tuple[int, ...] = (2, 3)) -> list[CheckResult]:
    out = []
    n = max(50_000, int(200_000 * scale))
    for dim in dims:
        moments = _hs_purity_moments(dim, n, RngStream(seed, 100 + dim), order=4)
        mean, se_m = moments.mean_se()
        var, se_v = moments.variance_se()
        ok = (abs(mean - ed.purity_mean_hs(dim)) <= 3 * se_m
              and abs(var - ed.purity_variance_hs(dim)) <= 3 * se_v)
        out.append(_result("purity", f"hs-purity-moments-n{dim}", ok,
                           f"mean {mean:.5f} (expect {ed.purity_mean_hs(dim):.5f} "
                           f"+- {3 * se_m:.1e}), var {var:.6f} "
                           f"(expect {ed.purity_variance_hs(dim):.6f} +- {3 * se_v:.1e})"))

    mean, se, _ = ed._reciprocal_radical_mean(2, n, RngStream(seed, 110))
    target = 3 * pi / (2 * sqrt(2))
    out.append(_result("purity", "reciprocal-radical-expectation",
                       abs(mean - target) <= 3 * se,
                       f"E[1/sqrt(1-purity)] = {mean:.5f}, expect {target:.5f} +- {3 * se:.1e}"))

    _, blocks = sm.sample_blocks(Measure.SUPERFIDELITY, 2, n, RngStream(seed, 111))
    mean, se = st.Moments.merge(st.Moments.of(np.sum(eigs ** 2, axis=-1))
                                for _, eigs in blocks).mean_se()
    g2 = ed.normalized_density(Measure.SUPERFIDELITY, 2)
    quad = st.simplex_quadrature(lambda lam: np.sum(lam ** 2, axis=-1) * g2(lam), 2, 1e-9)
    ok = abs(mean - quad) <= 3 * se and mean > ed.purity_mean_hs(2)
    out.append(_result("purity", "g-qubit-mean-purity", ok,
                       f"mean {mean:.5f}, quadrature {quad:.5f}, HS mean 0.8"))

    count = max(10_000, int(30_000 * scale))
    _, eigs, _ = sm.sample_batch(Measure.SUPERFIDELITY, 3, count, RngStream(seed, 112))
    pg3 = np.sum(eigs ** 2, axis=-1)
    mean, se = st.mc_mean(pg3)
    z = (mean - ed.purity_mean_hs(3)) / se
    out.append(_result("purity", "g-qutrit-purity-exceeds-hs",
                       z > 5.0, f"mean {mean:.5f} vs HS 0.6, z = {z:.1f}"))

    moment, se = _hs_purity_moments(2, n, RngStream(seed, 113), squared=True).mean_se()
    target = ed.purity_mean_hs(2) ** 2 + ed.purity_variance_hs(2)
    out.append(_result("purity", "hs-second-purity-moment",
                       abs(moment - target) <= 3 * se,
                       f"E[p^2] = {moment:.6f}, expect {target:.6f} +- {3 * se:.1e}"))
    return out


_SUITE_FUNCS = {
    "metric": _metric_checks,
    "density": _density_checks,
    "sampler": _sampler_checks,
    "purity": _purity_checks,
}


def _run_one(name: str, seed: int, scale: float, dim: int | None) -> list[CheckResult]:
    # looked up at call time, so that wrappers installed in _SUITE_FUNCS apply
    if name == "purity" and dim is not None:
        return _SUITE_FUNCS[name](seed, scale, dims=(dim,))
    return _SUITE_FUNCS[name](seed, scale)


def _outcome(name: str, seed: int, scale: float, dim: int | None):
    """A suite's results, or the exception it raised (re-raised in suite order)."""
    try:
        return _run_one(name, seed, scale, dim)
    except BaseException as exc:
        return exc


def run_suite(suite: str, seed: int, scale: float = 1.0,
              dim: int | None = None) -> list[CheckResult]:
    """Run one named suite (or ``all``); returns per-check results.

    ``scale`` (finite and > 0) grows the sample sizes.  ``dim`` restricts
    the purity suite to one dimension; the other suites sweep their fixed
    dimension sets regardless.

    ``all`` runs the sampler suite, the longest, on one helper thread while
    the calling thread runs metric, density and purity; a single suite runs
    on the calling thread alone.  Each suite draws only from its own
    ``RngStream(seed, k)`` streams, so the results do not depend on
    scheduling: they come back in ``SUITE_NAMES`` order, and the exception
    of the first failing suite in that order is raised, as a serial run
    would raise it.  The helper is joined before this returns or raises.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    if dim is not None and dim < 2:
        raise ValueError("dim must be >= 2")
    if not (isfinite(scale) and scale > 0):
        raise ValueError("scale must be finite and > 0")
    if suite != "all":
        return _run_one(suite, seed, scale, dim)

    outcomes = {}   # suite name -> its results or the exception it raised

    def run_sampler():
        outcomes["sampler"] = _outcome("sampler", seed, scale, dim)

    # a daemon, so that an interrupted run can exit without waiting for it
    helper = threading.Thread(target=run_sampler, name="superfid-verify-sampler", daemon=True)
    helper.start()
    try:
        for name in ("metric", "density", "purity"):
            outcomes[name] = _outcome(name, seed, scale, dim)
            if isinstance(outcomes[name], BaseException):
                break
    finally:
        helper.join()
    results = []
    for name in (s for s in SUITE_NAMES if s != "all"):
        outcome = outcomes[name]
        if isinstance(outcome, BaseException):
            raise outcome
        results.extend(outcome)
    return results
