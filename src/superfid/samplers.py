"""Random density-matrix generators for three measures.

* Hilbert-Schmidt: rho = G G^dag / tr(G G^dag) with G Ginibre.  Purities
  alone come from the Dumitriu-Edelman bidiagonal model, without matrices.
* Bures: rho proportional to (I + U) G G^dag (I + U^dag) with U Haar.
* superfidelity measure: exact inverse-CDF construction for qubits;
  for N >= 3, rejection sampling with Bures proposals.  The acceptance ratio
  uses unnormalized eigenvalue densities, whose supremum

      sqrt(l_1 ... l_N) prod_{i<j} (l_i + l_j) / sqrt(1 - sum l_i^2)

  is attained at the maximally mixed point; that claim is audited numerically
  (random probes plus local polish) before any rejection run, failing closed.

Each single-state function returns row 0 of its ``*_batch`` variant drawn
from the same stream; the batch variants vectorize over the sample index and
feed the statistics layer.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, log, pi

import numpy as np
from scipy import optimize

from .eigendensities import _g_radicand, cdf_g2
from .errors import EnvelopeAuditError, InvalidDimensionError, SamplingBudgetError
from .qstate import (Measure, _as_generator, _maybe_scalar, clamp_spectrum, ginibre_batch,
                     haar_unitary_batch)
from .rng import RngStream
from .statlab import SampleBatch

__all__ = [
    "RejectionReport", "EnvelopeAudit",
    "sample_hs", "sample_hs_batch", "hs_purity_batch",
    "sample_bures", "sample_bures_batch",
    "invert_cdf_g2", "sample_g_qubit", "sample_g_qubit_batch",
    "sup_density_ratio_unnormalized", "audit_sup_density_ratio",
    "rejection_constant_c", "log_rejection_constant_c",
    "sample_g_rejection", "sample_g_rejection_batch",
    "sample_batch",
]

DEFAULT_MAX_PROPOSALS = 10_000        # per accepted sample, N <= 4 default budget
_BLOCK = 4096                         # states per block: rejection proposals, HS purities
_NEWTON_STEPS = 6                     # inverse CDF: 4 reach round-off from the starter
_AUDIT_GATE_PROBES = 20_000
_AUDIT_GATE_SEED = 1597463007
_audit_gate_cache: dict[int, "EnvelopeAudit"] = {}


@dataclass(frozen=True)
class RejectionReport:
    """Bookkeeping for one rejection-sampling run."""

    proposed: int
    accepted: int
    bound_constant: float
    empirical_rate: float

    def __post_init__(self):
        if self.accepted > self.proposed:
            raise ValueError("accepted exceeds proposed")
        if self.bound_constant <= 0:
            raise ValueError("bound constant must be positive")
        if not 0.0 <= self.empirical_rate <= 1.0:
            raise ValueError("empirical rate outside [0, 1]")

    @staticmethod
    def from_counts(proposed: int, accepted: int, bound: float) -> "RejectionReport":
        rate = accepted / proposed if proposed else 0.0
        return RejectionReport(proposed=proposed, accepted=accepted,
                               bound_constant=bound, empirical_rate=rate)

    def merged(self, other: "RejectionReport") -> "RejectionReport":
        return RejectionReport.from_counts(self.proposed + other.proposed,
                                           self.accepted + other.accepted,
                                           self.bound_constant)


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def _eig_records(rhos: np.ndarray) -> np.ndarray:
    """Descending, clamped, renormalized eigenvalues of a (n, N, N) stack."""
    return clamp_spectrum(np.linalg.eigvalsh(rhos)[..., ::-1].copy())


def sample_hs(dim: int, rng) -> np.ndarray:
    """One Hilbert-Schmidt distributed density matrix."""
    return sample_hs_batch(dim, 1, rng)[0]


def sample_hs_batch(dim: int, count: int, rng) -> np.ndarray:
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    g = ginibre_batch(dim, count, _as_generator(rng))
    w = g @ np.swapaxes(g.conj(), -2, -1)
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return w / tr[:, None, None]


def hs_purity_batch(dim: int, count: int, rng) -> np.ndarray:
    """Purities of ``count`` Hilbert-Schmidt states without forming any matrix.

    For beta = 2 the spectrum of G G^dag (G an N x N Ginibre matrix) is that
    of W = B B^T with B lower bidiagonal and independent entries: diagonal
    a_k ~ chi_{2(N-k)} / sqrt 2 and subdiagonal b_k ~ chi_{2(N-1-k)} / sqrt 2
    (Dumitriu and Edelman, J. Math. Phys. 43, 5830 (2002)).  So a_k^2 and
    b_k^2 are Gamma(N - k) and Gamma(N - 1 - k) variates, W is tridiagonal
    with diagonal d_k = a_k^2 + b_{k-1}^2 and off-diagonal a_k b_k, and the
    purity tr W^2 / (tr W)^2 is elementwise in 2N - 1 gamma draws per state.

    The draws are made ``_BLOCK`` states at a time, so memory is O(block)
    plus the 8 B per state of the result.  The generator fills sequentially
    and each purity depends only on its own draws, so the values and the
    generator's final position equal those of one whole batch drawn from the
    same stream.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gen = _as_generator(rng)
    shape = np.concatenate([np.arange(dim, 0, -1), np.arange(dim - 1, 0, -1)]).astype(float)
    out = np.empty(count)
    for start in range(0, count, _BLOCK):
        x = gen.standard_gamma(shape, size=(min(_BLOCK, count - start), 2 * dim - 1))
        a2, b2 = x[:, :dim], x[:, dim:]
        d = a2.copy()
        d[:, 1:] += b2
        tr2 = np.sum(d * d, axis=-1) + 2.0 * np.sum(a2[:, :-1] * b2, axis=-1)
        out[start:start + len(x)] = tr2 / np.sum(d, axis=-1) ** 2
    return out


def sample_bures(dim: int, rng) -> np.ndarray:
    """One Bures-distributed density matrix."""
    return sample_bures_batch(dim, 1, rng)[0]


def sample_bures_batch(dim: int, count: int, rng) -> np.ndarray:
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    gen = _as_generator(rng)
    u = haar_unitary_batch(dim, count, gen)
    g = ginibre_batch(dim, count, gen)
    a = (np.eye(dim) + u) @ g
    w = a @ np.swapaxes(a.conj(), -2, -1)
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return w / tr[:, None, None]


# ---------------------------------------------------------------------------
# qubit sampler: exact CDF inversion
# ---------------------------------------------------------------------------

def invert_cdf_g2(u):
    """Inverse of :func:`superfid.eigendensities.cdf_g2`, element by element.

    With t = sin^2(psi/4) the CDF on [0, 1/2] is (psi + sin psi) / 2pi, so
    F(t) = v is Kepler's equation psi + sin psi = 2 pi v on [0, pi].  Only
    v = min(u, 1 - u) is solved, since F(1 - t) = 1 - F(t); u > 1/2 returns
    cos^2(psi/4) = 1 - sin^2(psi/4) without cancellation.  Newton starts from
    the larger of the end behaviours psi ~ pi v and pi - psi ~ cbrt(6 pi (1 - 2v));
    psi + sin psi is concave, so after the first step every iterate lies at
    or below the root, and a fixed step count converges for each element
    alone.  u = 1/2, where the derivative vanishes, is snapped; u = 0 and 1
    come out exact because psi underflows to 0.  Any |cdf_g2(t) - u| > 3e-8
    raises (fail closed).
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all((u_arr >= 0.0) & (u_arr <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    v = np.minimum(u_arr, 1.0 - u_arr)
    psi = np.maximum(pi * v, pi - np.cbrt(6.0 * pi * (1.0 - 2.0 * v)))
    # np.square, not ** 2: a NumPy scalar's power can differ from the array
    # loop in the last bit, and scalar and batch results must agree bitwise
    for _ in range(_NEWTON_STEPS):
        psi = psi - (psi + np.sin(psi) - 2.0 * pi * v) / (2.0 * np.square(np.cos(0.5 * psi)))
    t = np.where(u_arr > 0.5, np.square(np.cos(0.25 * psi)), np.square(np.sin(0.25 * psi)))
    t = np.where(u_arr == 0.5, 0.5, t)
    if np.any(np.abs(cdf_g2(t) - u_arr) > 3e-8):
        raise RuntimeError("inverse CDF residual exceeds 3e-8; qubit sampling aborted")
    return _maybe_scalar(t)


def sample_g_qubit_batch(count: int, rng, keep_matrices: bool = True):
    """Qubit states under the superfidelity measure: inverse CDF + Haar rotation.

    Returns ``(matrices, eigs)`` where ``eigs`` is (count, 2) descending;
    ``matrices`` is None when not requested.
    """
    gen = _as_generator(rng)
    u = gen.random(count)
    small = np.asarray(invert_cdf_g2(np.minimum(u, 1.0 - u)))
    eigs = np.stack([1.0 - small, small], axis=-1)
    matrices = None
    if keep_matrices:
        haar = haar_unitary_batch(2, count, gen)
        # diagonal (F^-1(u), 1 - F^-1(u)), as the inverse CDF orders it
        diag = np.where((u > 0.5)[:, None], eigs, eigs[:, ::-1])
        matrices = (haar * diag[:, None, :]) @ np.swapaxes(haar.conj(), -2, -1)
        matrices = 0.5 * (matrices + np.swapaxes(matrices.conj(), -2, -1))
    return matrices, eigs


def sample_g_qubit(rng) -> np.ndarray:
    """One qubit state distributed with the superfidelity measure."""
    matrices, _ = sample_g_qubit_batch(1, rng, keep_matrices=True)
    return matrices[0]


# ---------------------------------------------------------------------------
# rejection sampler for N >= 3
# ---------------------------------------------------------------------------

def _log_ratio_g_over_bures(eigs: np.ndarray) -> np.ndarray:
    """log of the unnormalized density ratio; -inf on the simplex boundary."""
    eigs = np.asarray(eigs, dtype=float)
    n = eigs.shape[-1]
    i, j = np.triu_indices(n, k=1)
    radicand = _g_radicand(eigs)
    with np.errstate(divide="ignore"):
        val = (0.5 * np.sum(np.log(eigs), axis=-1)
               + np.sum(np.log(eigs[..., i] + eigs[..., j]), axis=-1)
               - 0.5 * np.log(radicand))
    return np.where(radicand <= 0.0, -np.inf, val)


def density_ratio_g_over_bures(eigs: np.ndarray):
    """Unnormalized ratio sqrt(prod l) prod_{i<j}(l_i + l_j) / sqrt(1 - sum l^2)."""
    return _maybe_scalar(np.exp(_log_ratio_g_over_bures(eigs)))


def sup_density_ratio_unnormalized(dim: int) -> float:
    """Supremum of the unnormalized G/Bures density ratio over the simplex.

    Closed-form value at the maximally mixed point,
    N^(-N/2) (2/N)^(N(N-1)/2) / sqrt(1 - 1/N); validity as a global bound is
    checked by :func:`audit_sup_density_ratio`.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    lg = (-dim / 2.0) * log(dim) + (dim * (dim - 1) / 2.0) * log(2.0 / dim) \
        - 0.5 * np.log1p(-1.0 / dim)
    return float(exp(lg))


@dataclass(frozen=True)
class EnvelopeAudit:
    """Result of the numerical check that the envelope bound really is a sup."""

    dim: int
    bound: float
    max_ratio: float
    argmax: np.ndarray
    probes: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.bound + self.tolerance


def audit_sup_density_ratio(dim: int, rng: RngStream | None = None,
                            probes: int = 10 ** 5,
                            tolerance: float = 1e-9) -> EnvelopeAudit:
    """Probe the density ratio over random simplex points, then polish locally.

    Draws ``probes`` uniform simplex points, evaluates the ratio, then runs
    Nelder-Mead ascent from the three best probes and from the maximally
    mixed point.  The envelope is declared valid when no point beats the
    closed-form bound by more than ``tolerance``.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    gen = (rng or RngStream(20_24, dim)).generator()
    bound = sup_density_ratio_unnormalized(dim)

    lam = gen.dirichlet(np.ones(dim), size=probes)
    ratios = np.exp(_log_ratio_g_over_bures(lam))
    best_idx = int(np.argmax(ratios))
    max_ratio = float(ratios[best_idx])
    argmax = lam[best_idx]

    def neg_ratio(x):
        w = np.exp(x - x.max())
        lam_x = w / w.sum()
        return -float(np.exp(_log_ratio_g_over_bures(lam_x)))

    starts = [lam[k] for k in np.argsort(-ratios)[:3]]
    starts.append(np.full(dim, 1.0 / dim))
    for start in starts:
        x0 = np.log(np.clip(start, 1e-12, None))
        res = optimize.minimize(neg_ratio, x0, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-14,
                                         "maxiter": 2000})
        if -res.fun > max_ratio:
            max_ratio = -float(res.fun)
            w = np.exp(res.x - res.x.max())
            argmax = w / w.sum()

    return EnvelopeAudit(dim=dim, bound=bound, max_ratio=max_ratio,
                         argmax=argmax, probes=probes, tolerance=tolerance)


def _audit_gate(dim: int):
    audit = _audit_gate_cache.get(dim)
    if audit is None:
        audit = audit_sup_density_ratio(dim, RngStream(_AUDIT_GATE_SEED, dim),
                                        probes=_AUDIT_GATE_PROBES)
        _audit_gate_cache[dim] = audit
    if not audit.passed:
        raise EnvelopeAuditError(
            f"envelope audit failed for dim {dim}: ratio {audit.max_ratio} "
            f"exceeds bound {audit.bound}; rejection sampling aborted")


def log_rejection_constant_c(dim: int) -> float:
    """log of the diagnostic rejection constant (normalized-density bound)."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    n2 = dim * dim
    return (0.5 * log((n2 - dim) / (n2 + 1.0)) + lgamma(n2) + (dim / 2.0) * log(pi)
            - sum(lgamma(i) for i in range(1, dim + 1))
            - (dim * (dim - 1) / 2.0) * log(2.0)
            - lgamma(n2 / 2.0) - (n2 / 2.0) * log(dim))


def rejection_constant_c(dim: int) -> float:
    """Bound constant relating the normalized G and Bures eigenvalue densities.

    Diagnostic only: the sampler itself works with unnormalized ratios, which
    needs no knowledge of C_N^G.  Grows rapidly with N (the method degrades
    for large dimensions).
    """
    return float(exp(log_rejection_constant_c(dim)))


def sample_g_rejection_batch(dim: int, count: int, rng,
                             max_proposals: int | None = None,
                             keep_matrices: bool = False):
    """Vectorized rejection sampling from the superfidelity measure, N >= 3.

    Proposes Bures states and accepts with probability ratio/bound.  The
    total proposal budget is ``count * max_proposals``; exhausting it raises
    :class:`SamplingBudgetError` carrying the partial report.

    ``max_proposals`` defaults to 10^4 per accepted sample for N <= 4.  The
    expected number of proposals per sample grows roughly like the bound
    constant c(N) (~432 at N = 5, ~10^5 at N = 7), so for N >= 5 the budget
    must be chosen explicitly.

    Returns ``(matrices_or_None, eigs, report)``.
    """
    if dim < 3:
        raise InvalidDimensionError("rejection sampler is for dim >= 3; qubits use the exact sampler")
    if max_proposals is None:
        if dim > 4:
            raise ValueError(
                "for dim >= 5 pass max_proposals explicitly; acceptance degrades "
                f"rapidly (expect roughly {rejection_constant_c(dim):.3g} proposals per sample)")
        max_proposals = DEFAULT_MAX_PROPOSALS
    if max_proposals < 1:
        raise ValueError("max_proposals must be >= 1")
    _audit_gate(dim)

    gen = _as_generator(rng)
    log_bound = log(sup_density_ratio_unnormalized(dim))
    budget = count * max_proposals
    proposed = 0
    taken_eigs = []
    taken_mats = []
    accepted = 0

    while accepted < count:
        if proposed >= budget:
            report = RejectionReport.from_counts(proposed, accepted,
                                                 exp(log_bound))
            raise SamplingBudgetError(
                f"budget of {budget} proposals exhausted with {accepted}/{count} accepted",
                report=report)
        m = min(_BLOCK, budget - proposed)
        rhos = sample_bures_batch(dim, m, gen)
        eigs = _eig_records(rhos)
        log_ratio = _log_ratio_g_over_bures(eigs)
        if np.any(log_ratio > log_bound + 1e-9):
            raise EnvelopeAuditError(
                "proposal density ratio exceeded the envelope bound; aborting")
        u = gen.random(m)
        with np.errstate(divide="ignore"):
            acc = np.log(u) <= log_ratio - log_bound
        take = np.flatnonzero(acc)
        overshoot = accepted + take.size - count
        if overshoot > 0:
            # trim the tail, counting only proposals up to the last kept accept
            take = take[: take.size - overshoot]
            proposed += int(take[-1]) + 1 if take.size else 0
        else:
            proposed += m
        accepted += take.size
        if take.size:
            taken_eigs.append(eigs[take])
            if keep_matrices:
                taken_mats.append(rhos[take])

    report = RejectionReport.from_counts(proposed, accepted, exp(log_bound))
    eigs = np.concatenate(taken_eigs, axis=0)
    mats = np.concatenate(taken_mats, axis=0) if keep_matrices else None
    return mats, eigs, report


def sample_g_rejection(dim: int, rng, max_proposals: int | None = None):
    """One state from the superfidelity measure by rejection; returns (rho, report)."""
    mats, _, report = sample_g_rejection_batch(dim, 1, rng,
                                               max_proposals=max_proposals,
                                               keep_matrices=True)
    return mats[0], report


# ---------------------------------------------------------------------------
# unified batch front end
# ---------------------------------------------------------------------------

def sample_batch(measure: Measure | str, dim: int, count: int, rng: RngStream,
                 max_proposals: int | None = None,
                 keep_matrices: bool = False):
    """Sample ``count`` states and summarize them as a :class:`SampleBatch`.

    Returns ``(batch, matrices_or_None, rejection_report_or_None)``.
    """
    measure = Measure(measure)
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")

    report = None
    if measure is not Measure.SUPERFIDELITY:
        draw = sample_hs_batch if measure is Measure.HILBERT_SCHMIDT else sample_bures_batch
        mats = draw(dim, count, rng)
        eigs = _eig_records(mats)
        if not keep_matrices:
            mats = None
    elif dim == 2:
        mats, eigs = sample_g_qubit_batch(count, rng, keep_matrices=keep_matrices)
    else:
        mats, eigs, report = sample_g_rejection_batch(
            dim, count, rng, max_proposals=max_proposals, keep_matrices=keep_matrices)

    purities = np.sum(eigs ** 2, axis=-1)
    batch = SampleBatch(measure=measure, dim=dim, seed=rng.seed,
                        eigen_records=eigs, purity_records=purities)
    return batch, mats, report
