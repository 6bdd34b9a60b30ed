"""Random density-matrix generators for three measures.

* Hilbert-Schmidt: rho = G G^dag / tr(G G^dag) with G Ginibre.  Purities
  alone come from the Dumitriu-Edelman bidiagonal model, without matrices.
* Bures: rho proportional to (I + U) G G^dag (I + U^dag) with U Haar.
* superfidelity measure: exact inverse-CDF construction for qubits;
  for N >= 3, a rejection sampler (induced beta-Laguerre proposals).  The
  proposals have eigenvalue density prod l_i^(-s) Delta^2 with
  s = 3 / (4 (N - 1)), drawn from the same bidiagonal model as the
  purities.  The acceptance ratio uses unnormalized eigenvalue densities,
  whose supremum

      (l_1 ... l_N)^s / sqrt(1 - sum l_i^2)

  is attained at the maximally mixed point.  Before any rejection run,
  :func:`audit_sup_density_ratio` checks that claim, failing closed, by a
  deterministic scan of every curve that can hold the supremum:

  - near the boundary the ratio tends to 0: prod l -> 0 there, and within
    eps of a vertex the ratio is O(eps^(s (N - 1) - 1/2)) = O(eps^(1/4));
  - at an interior critical point s / l_i + l_i / R = mu, R = 1 - sum l^2,
    a quadratic in l_i, so the point has at most two distinct coordinates.

  So the supremum lies on a two-value family, k coordinates t / k and
  N - k coordinates (1 - t) / (N - k) for some k <= N / 2 and t in (0, 1).
  Each proposal's ratio comes from the trace, determinant and e_2 of its
  tridiagonal matrix, and only accepted proposals are diagonalized.

Every sampler draws a stack of ``count`` states and vectorizes over the
sample index; one state is a batch of one.  Every sampler takes only an
:class:`RngStream` and has one block kind (declared in :mod:`superfid.rng`):
block b of its output draws everything it needs from ``rng.block(kind, b)``
alone, in a fixed order, so a value depends only on (seed, stream, kind, b,
block size).  A shorter run gives the whole blocks of a longer one as a
prefix, and the HS purities' blocks can be split between the calling thread
and one helper thread without changing a value (:func:`reduce_hs_purities`).

:func:`sample_blocks` is the one state front end: it routes a measure and a
dimension to a sampler and returns ``(report_or_None, blocks)``, a stream of
``(matrices_or_None, eigs)`` blocks in row order.  HS, Bures and qubit G
blocks are each drawn and diagonalized only when they are reached, so a
consumer that writes each block before it takes the next holds O(block)
states whatever the count.  The rejection sampler (G at N >= 3) is the
exception: its report holds totals that a writer prints before the rows, so
it draws every state first and its held arrays are handed out in blocks.
:func:`sample_batch` gathers those blocks into plain arrays,
``(matrices_or_None, eigs, report_or_None)``.  HS matrices without spectra
(:func:`sample_hs_batch`) and HS purities have functions of their own: the
purities come block by block to a reduction (:func:`reduce_hs_purities`), or
whole (:func:`hs_purity_batch`).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import exp, lgamma, log, log1p, pi

import numpy as np

from .eigendensities import cdf_g2
from .errors import (EnvelopeAuditError, InvalidDimensionError, InverseCDFError,
                     SamplingBudgetError)
from .qstate import (Measure, _dagger, _maybe_scalar, clamp_spectrum, ginibre_batch,
                     haar_unitary_batch)
from .rng import BURES_KIND as _BURES_KIND
from .rng import G_QUBIT_KIND as _G_QUBIT_KIND
from .rng import G_REJECTION_KIND as _G_REJECTION_KIND
from .rng import HS_KIND as _HS_KIND
from .rng import HS_PURITY_KIND as _HS_PURITY_KIND
from .rng import RngStream, check_stream

__all__ = [
    "RejectionReport", "EnvelopeAudit",
    "sample_hs_batch", "hs_purity_batch", "reduce_hs_purities", "invert_cdf_g2",
    "sup_density_ratio_unnormalized", "audit_sup_density_ratio",
    "rejection_constant_c", "log_rejection_constant_c",
    "sample_g_rejection_batch",
    "sample_blocks", "sample_batch",
]

DEFAULT_MAX_PROPOSALS = 10_000        # per accepted sample; ~2.1 are needed at any N
_BLOCK = 4096                         # states per block: HS, rejection proposals, qubit G
_BURES_BLOCK = 1024                   # Bures states per block: ~6 such stacks are ~1 MB at N = 3
_GRAM_CHUNK = 512                     # states per product of _normalized_gram: ~128 kB at N = 4
_NEWTON_STEPS = 6                     # inverse CDF: 4 reach round-off from the starter
_AUDIT_LOGITS = np.linspace(-37.0, 37.0, 2049)   # t = 1 / (1 + e^-x) within 8.5e-17 of 0 and 1
_AUDIT_GOLDEN_STEPS = 50              # shrink a 2-step bracket by 0.618^50 = 3.6e-11
_GOLDEN = 0.5 * (5.0 ** 0.5 - 1.0)
_ENVELOPE_TOLERANCE = 1e-9            # log-ratio excess over the bound that counts as round-off
_audit_gate_cache: dict[int, "EnvelopeAudit"] = {}
_audit_gate_lock = threading.Lock()


@dataclass(frozen=True)
class RejectionReport:
    """Bookkeeping for one rejection-sampling run."""

    proposed: int
    accepted: int
    bound_constant: float

    @property
    def empirical_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0


# ---------------------------------------------------------------------------
# batch plumbing
# ---------------------------------------------------------------------------

def _check_stream(rng: RngStream, count: int) -> None:
    check_stream(rng)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")


def _blocks(rng: RngStream, kind: int, count: int, size: int):
    """``(start, stop, rng.block(kind, b))`` for each block b of ``size`` states of ``count``.

    ``rng`` and ``count`` are checked at the call, each generator is made as
    its block is reached.
    """
    _check_stream(rng, count)
    return ((start, min(start + size, count), rng.block(kind, b))
            for b, start in enumerate(range(0, count, size)))


def _haar_rotated(diag: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """U diag(d) U^dag for a (n, N) stack of spectra, U Haar, Hermitian-symmetrized.

    The samplers call it once per block, with the block's generator, after
    the block's other draws.
    """
    haar = haar_unitary_batch(diag.shape[-1], len(diag), gen)
    mats = (haar * diag[:, None, :]) @ _dagger(haar)
    return 0.5 * (mats + _dagger(mats))


def _laguerre_tridiagonal(dim: int, count: int, s: float, gen: np.random.Generator,
                          out: np.ndarray | None = None):
    """``count`` draws of the tridiagonal W = B B^T of the induced measure.

    B is N x N lower bidiagonal with independent entries: a_k^2 ~ Gamma(N - s - k)
    on the diagonal and b_k^2 ~ Gamma(N - 1 - k) below it (Dumitriu and
    Edelman, J. Math. Phys. 43, 5830 (2002), at beta = 2).  W / tr W then has
    eigenvalue density proportional to prod l_i^(-s) Delta^2: the induced
    measure with N - s degrees of freedom (Zyczkowski and Sommers, J. Phys. A
    34, 7111 (2001)); s = 0 is Hilbert-Schmidt.

    Returns the (2N - 1, count) block z of the variables in path order
    a_1^2, b_1^2, a_2^2, ..., a_N^2, one contiguous row per variable, so
    that the invariants of :func:`_trace_and_e2` are row adds.  W has
    diagonal z_0, z_1 + z_2, z_3 + z_4, ... and squared off-diagonal
    z_0 z_1, z_2 z_3, ...  Each row is one ``standard_gamma`` call, so a run
    drawn in blocks has other values than the same run drawn whole.  With
    ``out``, a (2N - 1, count) array, the rows are drawn into it.
    """
    z = np.empty((2 * dim - 1, count)) if out is None else out
    for i, row in enumerate(z):
        gen.standard_gamma(dim - (i + 1) // 2 - (s if i % 2 == 0 else 0.0), out=row)
    return z


def _trace_and_e2(z: np.ndarray, e2: np.ndarray | None = None):
    """tr W and e_2(W), the sum of W's 2 x 2 principal minors, from a path block z.

    With tr W = sum z_i and tr W^2 = sum z_i^2 + 2 sum z_i z_{i+1},
    e_2(W) = ((tr W)^2 - tr W^2) / 2 is the sum of z_i z_j over the pairs
    j >= i + 2 that are not adjacent on the path.  Every term is positive, so
    e_2 has no cancellation, and 1 - sum l^2 = 2 e_2 / (tr W)^2 for the
    spectrum l of W / tr W.  Both results have shape (count,).

    Given a row ``e2`` to write e_2 into, nothing is allocated and z is
    consumed: tr W accumulates in z[0], and each product goes to the row
    z[j - 2] that the running prefix sum has just read for the last time.
    Both forms do the same operations in the same order, so they agree bitwise.
    :func:`hs_purity_batch` uses the in-place form: the other one's
    per-block temporaries overlap between its two threads as they happen to
    be scheduled, which moved its traced peak by up to ~130 kB.
    """
    in_place = e2 is not None
    prefix = z[0] if in_place else z[0].copy()
    e2 = np.multiply(z[2], prefix, out=e2)
    for j in range(3, len(z)):
        prefix += z[j - 2]
        e2 += np.multiply(z[j], prefix, out=z[j - 2] if in_place else None)
    prefix += z[-2]
    prefix += z[-1]
    return prefix, e2


def _normalized_gram(a: np.ndarray) -> np.ndarray:
    """a a^dag / tr(a a^dag) for a (n, N, N) stack, exactly Hermitian, written over a.

    The product is formed ``_GRAM_CHUNK`` states at a time, so its scratch
    is that of a chunk, not of the stack.  It leaves ~1e-18 imaginary parts
    on the diagonal and lets w_ij and conj(w_ji) differ in the last bit, so
    before normalizing, the upper triangle is overwritten in place with the
    conjugate of the lower one and the diagonal's imaginary part is zeroed.
    Neither the trace's real part nor ``eigvalsh`` (lower triangle, real
    diagonal) reads what changed, so spectra are unchanged.
    """
    for start in range(0, len(a), _GRAM_CHUNK):
        chunk = a[start:start + _GRAM_CHUNK]
        chunk[...] = chunk @ _dagger(chunk)
    w = a
    for i in range(w.shape[-1]):
        w[:, i, i + 1:] = w[:, i + 1:, i].conj()
        w.imag[:, i, i] = 0.0
    w /= np.trace(w, axis1=-2, axis2=-1).real[:, None, None]
    return w


def _with_spectra(blocks, keep_matrices: bool):
    """``(matrices_or_None, eigs)`` for each block of states: descending, clamped spectra."""
    for mats in blocks:
        eigs = clamp_spectrum(np.linalg.eigvalsh(mats)[..., ::-1].copy())
        yield (mats if keep_matrices else None), eigs


def _hs_blocks(dim: int, count: int, rng: RngStream):
    """``count`` HS states, one ``_BLOCK`` block at a time.

    Block b draws its Ginibre matrices from ``rng.block(_HS_KIND, b)``.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    return (_normalized_gram(ginibre_batch(dim, stop - start, gen))
            for start, stop, gen in _blocks(rng, _HS_KIND, count, _BLOCK))


def sample_hs_batch(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """``count`` Hilbert-Schmidt states G G^dag / tr(G G^dag), G Ginibre, without spectra.

    The matrices of :func:`sample_batch`'s HS states, bit for bit, filled in
    block by block, so the scratch is O(block) beyond the result.
    """
    out = np.empty((count, dim, dim), dtype=complex)
    start = 0
    for block in _hs_blocks(dim, count, rng):
        out[start:start + len(block)] = block
        start += len(block)
    return out


def reduce_hs_purities(dim: int, count: int, rng: RngStream, reduce) -> list:
    """``reduce(start, p)`` for the purities p of each block of ``count`` HS states.

    For beta = 2 the spectrum of G G^dag (G an N x N Ginibre matrix) is that
    of the tridiagonal W of :func:`_laguerre_tridiagonal` at s = 0, so the
    purity 1 - 2 e_2(W) / (tr W)^2 (:func:`_trace_and_e2`) is a few row
    operations on 2N - 1 gamma draws per state.

    Block b of ``_BLOCK`` states, whose first state is ``start``, draws from
    ``rng.block(_HS_PURITY_KIND, b)``.  Its purities are handed to
    ``reduce`` in a scratch row that the thread's next block overwrites, so
    ``reduce`` may change them in place but must return a result that does
    not refer to them.  Returns the results in block order.  When there are
    two blocks or more, the odd blocks are drawn and reduced on one helper
    thread while the calling thread takes the even ones; ``standard_gamma``
    releases the GIL.  Each thread reuses one (2N, ``_BLOCK``) scratch
    allocated here before the helper starts and draws in place, so memory is
    that scratch, what ``reduce`` allocates, and the results.  The helper is
    joined before this returns or raises, and an exception it raised is
    raised here.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    _check_stream(rng, count)
    blocks = -(-count // _BLOCK)
    results = [None] * blocks
    scratch = np.empty((min(blocks, 2), 2 * dim, _BLOCK))

    def run(first: int, z: np.ndarray):
        for b in range(first, blocks, 2):
            start = b * _BLOCK
            n = min(_BLOCK, count - start)
            p = z[-1, :n]
            trace, e2 = _trace_and_e2(
                _laguerre_tridiagonal(dim, n, 0.0, rng.block(_HS_PURITY_KIND, b),
                                      out=z[:-1, :n]), p)
            # 1 - 2 e2 / (trace * trace), in place and in that order
            e2 *= 2.0
            np.multiply(trace, trace, out=trace)
            e2 /= trace
            np.subtract(1.0, e2, out=e2)
            results[b] = reduce(start, p)

    if blocks < 2:
        for z in scratch:   # none when count is 0
            run(0, z)
        return results
    errors = []

    def run_odd_blocks():
        try:
            run(1, scratch[1])
        except BaseException as exc:   # raised again on the calling thread
            errors.append(exc)

    # a daemon, so that an interrupted run can exit without waiting for it
    helper = threading.Thread(target=run_odd_blocks, name="superfid-hs-purity", daemon=True)
    helper.start()
    try:
        run(0, scratch[0])
    finally:
        helper.join()
    if errors:
        raise errors[0]
    return results


def hs_purity_batch(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Purities of ``count`` Hilbert-Schmidt states without forming any matrix.

    The blocks of :func:`reduce_hs_purities`, copied into the result: memory
    is their scratch plus the 8 B per state of the result.
    """
    out = np.empty(max(count, 0))   # reduce_hs_purities checks count

    def copy(start: int, p: np.ndarray):
        out[start:start + len(p)] = p

    reduce_hs_purities(dim, count, rng, copy)
    return out


def _bures_block(dim: int, count: int, gen: np.random.Generator) -> np.ndarray:
    a = haar_unitary_batch(dim, count, gen)
    a += np.eye(dim)
    return _normalized_gram(a @ ginibre_batch(dim, count, gen))


def _bures_blocks(dim: int, count: int, rng: RngStream):
    """``count`` Bures states A A^dag / tr(A A^dag), A = (I + U) G, U Haar, G Ginibre.

    One ``_BURES_BLOCK`` block at a time: block b draws its unitaries, then
    its Ginibre matrices, from ``rng.block(_BURES_KIND, b)``.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    return (_bures_block(dim, stop - start, gen)
            for start, stop, gen in _blocks(rng, _BURES_KIND, count, _BURES_BLOCK))


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
    raises :class:`InverseCDFError` (fail closed).
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
        raise InverseCDFError("inverse CDF residual exceeds 3e-8; qubit sampling aborted")
    return _maybe_scalar(t)


def _g_qubit_block(count: int, gen: np.random.Generator, keep_matrices: bool):
    u = gen.random(count)
    small = invert_cdf_g2(np.minimum(u, 1.0 - u))
    eigs = np.empty((count, 2))
    eigs[:, 0] = 1.0 - small
    eigs[:, 1] = small
    if not keep_matrices:
        return None, eigs
    # diagonal (F^-1(u), 1 - F^-1(u)), as the inverse CDF orders it
    return _haar_rotated(np.where((u > 0.5)[:, None], eigs, eigs[:, ::-1]), gen), eigs


def _g_qubit_blocks(count: int, rng: RngStream, keep_matrices: bool):
    """Qubit states under the superfidelity measure: inverse CDF + Haar rotation.

    ``(matrices_or_None, eigs)`` one ``_BLOCK`` block at a time, ``eigs``
    descending.  Block b draws its uniforms, then its rotations
    (:func:`_haar_rotated`), from ``rng.block(_G_QUBIT_KIND, b)``, so the
    spectra do not depend on ``keep_matrices``.
    """
    return (_g_qubit_block(stop - start, gen, keep_matrices)
            for start, stop, gen in _blocks(rng, _G_QUBIT_KIND, count, _BLOCK))


# ---------------------------------------------------------------------------
# rejection sampler for N >= 3
# ---------------------------------------------------------------------------

def _induced_exponent(dim: int) -> float:
    """Exponent s of the rejection proposal prod l_i^(-s) Delta^2.

    The G/proposal ratio (prod l)^s / sqrt(1 - sum l^2) is bounded iff
    s >= 1 / (2 (N - 1)); near a vertex it then falls like eps^(s (N-1) - 1/2).
    s = 3 / (4 (N - 1)) makes that eps^(1/4), so the supremum sits in the
    interior with a margin, and the acceptance rate stays near 0.48.
    """
    return 0.75 / (dim - 1)


def _log_ratio_from_invariants(dim: int, log_prod: np.ndarray,
                               radicand: np.ndarray) -> np.ndarray:
    """log of the rejection ratio (prod l)^s / sqrt(1 - sum l^2); -inf on the boundary.

    Takes log prod l and the radicand 1 - sum l^2.  The audit feeds it from
    the closed-form invariants of its two-value families
    (:func:`_family_invariants`), the sampler from the invariants of the
    proposal's tridiagonal matrix, without eigenvalues.
    The numerator vanishes on the boundary, so the ratio is 0 at a vertex,
    where the radicand is 0.  The radicand is replaced by 1 there before its
    log is taken, which keeps -inf + inf (a NaN and a RuntimeWarning) out of
    the arithmetic.
    """
    interior = radicand > 0.0
    val = _induced_exponent(dim) * log_prod - 0.5 * np.log(np.where(interior, radicand, 1.0))
    return np.where(interior, val, -np.inf)


def _log_prod(z: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """log prod l = sum log a_k^2 - N log T for the spectra l of W / T, T = tr W.

    Exact to round-off, since det W = prod a_k^2; -inf where an a_k^2 is 0.
    """
    with np.errstate(divide="ignore"):
        return np.sum(np.log(z[0::2]), axis=0) - (len(z) + 1) // 2 * np.log(trace)


def _log_ratio_of_tridiagonal(z: np.ndarray):
    """tr W and the log rejection ratio of W / tr W for each column of a path block z.

    No eigenvalues are needed: log prod l comes from :func:`_log_prod`, and
    1 - sum l^2 = 2 e_2(W) / T^2 (:func:`_trace_and_e2`).
    """
    trace, e2 = _trace_and_e2(z)
    return trace, _log_ratio_from_invariants((len(z) + 1) // 2, _log_prod(z, trace),
                                             2.0 * e2 / (trace * trace))


def _log_envelope_bound(dim: int) -> float:
    """log of the rejection ratio at the maximally mixed point, -s N log N - 1/2 log(1 - 1/N).

    That this value is the supremum is checked by :func:`audit_sup_density_ratio`.
    """
    return -_induced_exponent(dim) * dim * log(dim) - 0.5 * log1p(-1.0 / dim)


def sup_density_ratio_unnormalized(dim: int) -> float:
    """Supremum of the unnormalized G/Bures density ratio over the simplex.

    Closed-form value at the maximally mixed point,
    N^(-N/2) (2/N)^(N(N-1)/2) / sqrt(1 - 1/N).  Together with
    :func:`rejection_constant_c` it describes the paper's Bures-relative
    rejection construction; the sampler itself uses induced proposals.
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

    @property
    def passed(self) -> bool:
        with np.errstate(divide="ignore"):
            return bool(np.log(self.max_ratio) <= np.log(self.bound) + _ENVELOPE_TOLERANCE)


def _family_values(dim: int, k, x):
    """The values a = t / k and b = (1 - t) / (N - k) of a two-value family, t = 1 / (1 + e^-x).

    t and 1 - t are each formed from the logit x without cancellation, so a
    grid in x reaches as close to either end of t in (0, 1) as round-off allows.
    """
    return 1.0 / (k * (1.0 + np.exp(-x))), 1.0 / ((dim - k) * (1.0 + np.exp(x)))


def _family_invariants(dim: int, k, a, b):
    """log prod l and 1 - sum l^2 at the point with k coordinates a and N - k coordinates b.

    1 - sum l^2 = sum_{i != j} l_i l_j when the coordinates sum to 1, and
    each of its three terms here is >= 0, so it has no cancellation.
    """
    j = dim - k
    return (k * np.log(a) + j * np.log(b),
            k * (k - 1) * a * a + 2 * k * j * a * b + j * (j - 1) * b * b)


def _family_log_ratio(dim: int, k, x):
    """The log rejection ratio on family k at the logits x."""
    return _log_ratio_from_invariants(dim, *_family_invariants(dim, k, *_family_values(dim, k, x)))


def audit_sup_density_ratio(dim: int) -> EnvelopeAudit:
    """Scan the rejection ratio over every curve that can hold its supremum.

    The ratio is (prod l)^s / sqrt(1 - sum l^2) of the sampler's induced
    proposals, and the bound its closed-form value at the maximally mixed
    point.  Family k = 1 .. floor(N / 2) is the curve of points with k
    coordinates t / k and N - k coordinates (1 - t) / (N - k); k > N / 2
    repeats family N - k, and every family passes through I / N at t = k / N.
    Each family is scanned on ``_AUDIT_LOGITS`` plus its maximally mixed
    point, scored with the sampler's own :func:`_log_ratio_from_invariants`,
    and its best grid point is refined by a golden-section search between
    the grid points beside it.  No random numbers are drawn.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    k = np.arange(1, dim // 2 + 1)[:, None]
    x = np.sort(np.concatenate([np.broadcast_to(_AUDIT_LOGITS, (len(k), len(_AUDIT_LOGITS))),
                                np.log(k / (dim - k))], axis=1), axis=1)
    score = _family_log_ratio(dim, k, x)
    rows = np.arange(len(k))
    best = np.argmax(score, axis=1)
    lo = x[rows, np.maximum(best - 1, 0)]
    hi = x[rows, np.minimum(best + 1, x.shape[1] - 1)]
    k = k[:, 0]
    for _ in range(_AUDIT_GOLDEN_STEPS):
        inner = np.stack([hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)])
        left, right = _family_log_ratio(dim, k, inner)
        keep_left = left >= right   # the maximum lies in [lo, inner[1]]
        lo, hi = np.where(keep_left, lo, inner[0]), np.where(keep_left, inner[1], hi)
    mid = 0.5 * (lo + hi)
    candidates = np.concatenate([x[rows, best], mid])
    scores = np.concatenate([score[rows, best], _family_log_ratio(dim, k, mid)])
    top = int(np.argmax(scores))   # a NaN score is taken first, and fails the audit
    family = k[top % len(k)]
    a, b = _family_values(dim, family, candidates[top])
    return EnvelopeAudit(dim=dim, bound=exp(_log_envelope_bound(dim)),
                         max_ratio=float(np.exp(scores[top])),
                         argmax=np.concatenate([np.full(family, a), np.full(dim - family, b)]))


def _audit_gate(dim: int):
    """Raise unless the envelope audit at ``dim`` passes; each dim is audited once.

    The lock makes threads that reach a cold cache together wait for one audit.
    """
    with _audit_gate_lock:
        audit = _audit_gate_cache.get(dim)
        if audit is None:
            audit = audit_sup_density_ratio(dim)
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

    Diagnostic of the paper's construction with Bures proposals: it bounds
    their expected number per accepted sample and grows rapidly with N
    (~6.7 at N = 3, ~432 at N = 5, ~10^5 at N = 7).  The sampler uses
    induced proposals instead and never needs C_N^G.
    """
    return float(exp(log_rejection_constant_c(dim)))


def _induced_spectra(z: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Descending, clamped spectra of W / tr W for the columns of a path block z.

    ``eigvalsh`` has an absolute error of ~1e-16, which leaves the smallest
    eigenvalue with up to ~1e-8 relative error.  So it is taken as
    prod l / prod_{i<N} l_i instead, with the exact log prod l of
    :func:`_log_prod`: it then has the relative accuracy of the others.
    """
    a2, b2 = z[0::2].T, z[1::2].T
    dim = a2.shape[-1]
    k = np.arange(dim)
    w = np.zeros((len(a2), dim, dim))
    w[:, k, k] = a2
    w[:, k[1:], k[1:]] += b2
    w[:, k[1:], k[:-1]] = w[:, k[:-1], k[1:]] = np.sqrt(a2[:, :-1] * b2)
    lam = np.linalg.eigvalsh(w)[:, ::-1] / trace[:, None]
    lam[:, -1] = np.exp(_log_prod(z, trace) - np.sum(np.log(lam[:, :-1]), axis=-1))
    return clamp_spectrum(lam)


def sample_g_rejection_batch(dim: int, count: int, rng: RngStream,
                             max_proposals: int = DEFAULT_MAX_PROPOSALS,
                             keep_matrices: bool = False):
    """Vectorized rejection sampling from the superfidelity measure, N >= 3.

    Proposes spectra from the induced measure prod l^(-s) Delta^2 with
    s = 3 / (4 (N - 1)), as tridiagonal matrices W (:func:`_laguerre_tridiagonal`),
    and accepts with probability ratio / bound, where the ratio is
    (prod l)^s / sqrt(1 - sum l^2) and the bound its value at the maximally
    mixed point.  The ratio comes from the invariants of W, without
    eigenvalues (:func:`_log_ratio_of_tridiagonal`).  Every ratio is checked
    against the bound, and only accepted proposals pay a dense ``eigvalsh``.
    The acceptance rate is C_s / (C_N^G M_s), about 0.48 at every N (0.4755
    at N = 3), with C_s the induced measure's constant and M_s the bound.

    The total proposal budget is ``count * max_proposals``, with
    ``DEFAULT_MAX_PROPOSALS`` per sample by default at every N; exhausting it
    raises :class:`SamplingBudgetError` carrying the partial report.
    Proposal block b of ``_BLOCK`` draws its gammas, then its uniforms, then
    with ``keep_matrices`` the Haar rotations of the rows it accepts, from
    ``rng.block(_G_REJECTION_KIND, b)``, so the eigenvalues do not depend
    on ``keep_matrices``.

    Returns ``(matrices_or_None, eigs, report)``.
    """
    if dim < 3:
        raise InvalidDimensionError("rejection sampler is for dim >= 3; qubits use the exact sampler")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if max_proposals < 1:
        raise ValueError("max_proposals must be >= 1")
    budget = count * max_proposals
    blocks = _blocks(rng, _G_REJECTION_KIND, budget, _BLOCK)
    _audit_gate(dim)

    log_bound = _log_envelope_bound(dim)
    eigs = np.empty((count, dim))
    mats = np.empty((count, dim, dim), dtype=complex) if keep_matrices else None
    proposed = accepted = 0
    for start, stop, gen in blocks:
        z = _laguerre_tridiagonal(dim, stop - start, _induced_exponent(dim), gen)
        trace, log_ratio = _log_ratio_of_tridiagonal(z)
        if not np.all(log_ratio <= log_bound + _ENVELOPE_TOLERANCE):   # a NaN fails too
            raise EnvelopeAuditError(
                "proposal density ratio exceeded the envelope bound; aborting")
        u = gen.random(stop - start)
        with np.errstate(divide="ignore"):
            take = np.flatnonzero(np.log(u) <= log_ratio - log_bound)[:count - accepted]
        if take.size:
            new = slice(accepted, accepted + take.size)
            eigs[new] = _induced_spectra(z[:, take], trace[take])
            if keep_matrices:
                mats[new] = _haar_rotated(eigs[new], gen)
            accepted += take.size
        if accepted == count:
            # the last block: count only proposals up to the last kept accept
            proposed = start + int(take[-1]) + 1
            break
        proposed = stop

    report = RejectionReport(proposed, accepted, exp(log_bound))
    if accepted < count:
        raise SamplingBudgetError(
            f"budget of {budget} proposals exhausted with {accepted}/{count} accepted",
            report=report)
    return mats, eigs, report


# ---------------------------------------------------------------------------
# unified batch front end
# ---------------------------------------------------------------------------

def sample_blocks(measure: Measure | str, dim: int, count: int, rng: RngStream,
                  max_proposals: int = DEFAULT_MAX_PROPOSALS,
                  keep_matrices: bool = False):
    """``count`` states of ``measure`` at dimension ``dim``: ``(report_or_None, blocks)``.

    ``blocks`` yields ``(matrices_or_None, eigs)`` in row order, one
    sampler block at a time: the (n, N, N) states when ``keep_matrices``
    and their descending, clamped (n, N) spectra.  The arguments are
    checked here, and for HS, Bures and qubit G each block is drawn (and
    diagonalized) only when it is reached.  G at N >= 3 has a
    :class:`RejectionReport` whose totals a writer needs before the rows,
    so :func:`sample_g_rejection_batch` runs here, and ``blocks`` hands out
    ``_BLOCK``-row views of the arrays it returned; the other samplers have
    no report.
    """
    measure = Measure(measure)
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if measure is Measure.SUPERFIDELITY and dim > 2:
        mats, eigs, report = sample_g_rejection_batch(dim, count, rng,
                                                      max_proposals=max_proposals,
                                                      keep_matrices=keep_matrices)
        return report, ((None if mats is None else mats[start:start + _BLOCK],
                         eigs[start:start + _BLOCK]) for start in range(0, count, _BLOCK))
    if measure is Measure.SUPERFIDELITY:
        return None, _g_qubit_blocks(count, rng, keep_matrices)
    states = _hs_blocks if measure is Measure.HILBERT_SCHMIDT else _bures_blocks
    return None, _with_spectra(states(dim, count, rng), keep_matrices)


def sample_batch(measure: Measure | str, dim: int, count: int, rng: RngStream,
                 max_proposals: int = DEFAULT_MAX_PROPOSALS,
                 keep_matrices: bool = False):
    """The states of :func:`sample_blocks` as ``(matrices_or_None, eigs, report_or_None)``.

    The blocks are gathered into (count, N, N) and (count, N) arrays.
    """
    report, blocks = sample_blocks(measure, dim, count, rng, max_proposals, keep_matrices)
    eigs = np.empty((count, dim))
    mats = np.empty((count, dim, dim), dtype=complex) if keep_matrices else None
    start = 0
    for block_mats, block_eigs in blocks:
        stop = start + len(block_eigs)
        eigs[start:stop] = block_eigs
        if keep_matrices:
            mats[start:stop] = block_mats
        start = stop
    return mats, eigs, report
