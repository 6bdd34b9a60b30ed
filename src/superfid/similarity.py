"""Similarity measures and the metrics they induce on density matrices.

Implements fidelity F(rho, sigma) = [tr|sqrt(rho) sqrt(sigma)|]^2, superfidelity
G(rho, sigma) = tr(rho sigma) + sqrt(1 - tr rho^2) sqrt(1 - tr sigma^2), the
distance d_G = sqrt(2 - 2G), and the analytic line elements of d_G^2 and of
d_B'^2 = 2(1 - F) together with a finite-difference oracle for cross-checking
them.

Every function takes one (N, N) matrix or a (..., N, N) stack per argument
and returns a float for one matrix, an array of shape (...) for a stack.
``fidelity``, ``superfidelity`` and ``dist_g`` broadcast their two
arguments against each other; the line elements and the finite difference
take a state and a direction of the same shape.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidDimensionError, InvalidStateError, SingularityError, StepSizeError
from .qstate import (EIGENVALUE_FLOOR, _dagger, _maybe_scalar, check_density_matrix,
                     check_tangent)

PURITY_RADICAND_CLIP = -1e-12   # tolerated negative noise in 1 - tr rho^2
DEFAULT_FD_STEP = 1e-3
FD_SHRINK_ATTEMPTS = 4


def _check_pair_dims(rho: np.ndarray, sigma: np.ndarray):
    if rho.shape[-1] != sigma.shape[-1]:
        raise InvalidDimensionError(
            f"dimension mismatch: {rho.shape[-1]} vs {sigma.shape[-1]}")


def _hs_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # tr(a b) for Hermitian a, b equals Re sum_ij a_ij conj(b_ij): the dot
    # product of the entries read as (re, im) pairs of floats
    a = np.ascontiguousarray(a).view(float)
    b = np.ascontiguousarray(b).view(float)
    return np.einsum("...ij,...ij->...", a, b)


def _radicand(p: np.ndarray) -> np.ndarray:
    r = 1.0 - p
    bad = r < PURITY_RADICAND_CLIP
    if np.any(bad):
        raise InvalidStateError(f"purity exceeds 1 beyond tolerance: 1 - tr rho^2 = {np.min(r):.3e}")
    return np.clip(r, 0.0, None)


def superfidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """G(rho, sigma) = tr(rho sigma) + sqrt(1 - tr rho^2) sqrt(1 - tr sigma^2)."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    _check_pair_dims(rho, sigma)
    t = _hs_inner(rho, sigma)
    r1 = _radicand(_hs_inner(rho, rho))
    r2 = _radicand(_hs_inner(sigma, sigma))
    return _maybe_scalar(t + np.sqrt(r1) * np.sqrt(r2))


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)[..., None, :]) @ _dagger(vecs)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity via two Hermitian eigendecompositions.

    F = (sum_i sqrt(mu_i))^2 where mu_i are the eigenvalues of
    sqrt(rho) sigma sqrt(rho); tiny negative mu_i are clamped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    _check_pair_dims(rho, sigma)
    s = _sqrtm_psd(rho)
    m = s @ sigma @ s
    m = 0.5 * (m + _dagger(m))
    mu = np.linalg.eigvalsh(m)
    if np.min(mu) < 10 * EIGENVALUE_FLOOR:
        raise InvalidStateError(f"fidelity intermediate eigenvalue {np.min(mu):.3e} too negative")
    mu = np.clip(mu, 0.0, None)
    # below numerical rank the sqrt would amplify O(eps) noise to O(1e-8)
    mu = np.where(mu < 1e-14 * mu[..., -1:], 0.0, mu)
    f = np.sum(np.sqrt(mu), axis=-1) ** 2
    return _maybe_scalar(np.clip(f, 0.0, 1.0))


def _dist_g_squared(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    # 2 - 2G rationalized as 2[(1-T)^2 - r1 r2] / [(1-T) + sqrt(r1 r2)] to
    # avoid cancellation: bitwise-equal inputs give exactly zero.
    t = _hs_inner(rho, sigma)
    r1 = _radicand(_hs_inner(rho, rho))
    r2 = _radicand(_hs_inner(sigma, sigma))
    u = 1.0 - t
    num = u * u - r1 * r2
    den = u + np.sqrt(r1 * r2)
    num = np.clip(num, 0.0, None)
    return np.where(den > 0.0, 2.0 * num / np.where(den > 0.0, den, 1.0), 0.0)


def dist_g(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """Superfidelity distance d_G = sqrt(2 - 2 G(rho, sigma))."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    _check_pair_dims(rho, sigma)
    return _maybe_scalar(np.sqrt(_dist_g_squared(rho, sigma)))


# ---------------------------------------------------------------------------
# line elements
# ---------------------------------------------------------------------------

def _eigenbasis_tangent(rho: np.ndarray, drho: np.ndarray):
    rho = check_density_matrix(rho)
    drho = check_tangent(drho)
    if rho.shape != drho.shape:
        raise InvalidDimensionError(
            f"dimension mismatch: rho {rho.shape}, drho {drho.shape}")
    evals, vecs = np.linalg.eigh(rho)
    return evals, _dagger(vecs) @ drho @ vecs


def line_element_g(rho: np.ndarray, drho: np.ndarray) -> float | np.ndarray:
    """Squared line element of d_G at ``rho`` in direction ``drho``.

    In the eigenbasis of rho with eigenvalues lambda_i:

        (sum_i lambda_i <i|drho|i>)^2 / (1 - sum_i lambda_i^2)
        + sum_i <i|drho^2|i>.

    Requires non-pure states (1 - tr rho^2 > 1e-10); the value is quadratic
    in ``drho`` and non-negative.
    """
    evals, d = _eigenbasis_tangent(rho, drho)
    r = 1.0 - np.sum(evals ** 2, axis=-1)
    if np.any(r <= 1e-10):
        raise SingularityError("line element of d_G diverges at pure states")
    diag = np.real(np.diagonal(d, axis1=-2, axis2=-1))
    first = np.sum(evals * diag, axis=-1) ** 2 / r
    second = np.sum(np.abs(d) ** 2, axis=(-2, -1))
    return _maybe_scalar(first + second)


def line_element_bprime(rho: np.ndarray, drho: np.ndarray) -> float | np.ndarray:
    """Squared line element of d_B'^2 = 2(1 - F):  sum_ij |<i|drho|j>|^2 / (lambda_i + lambda_j)."""
    evals, d = _eigenbasis_tangent(rho, drho)
    denom = evals[..., :, None] + evals[..., None, :]
    num = np.abs(d) ** 2
    tiny = denom <= 1e-12
    if np.any(num[tiny] > 1e-24):
        raise SingularityError(
            "line element of d_B' diverges: drho has weight on a kernel pair of rho")
    safe = np.where(tiny, 1.0, denom)
    return _maybe_scalar(np.sum(np.where(tiny, 0.0, num / safe), axis=(-2, -1)))


def fd_second_derivative(metric_sq: Callable[[np.ndarray, np.ndarray], np.ndarray],
                         rho: np.ndarray,
                         drho: np.ndarray,
                         h: float = DEFAULT_FD_STEP) -> float | np.ndarray:
    """Central-difference curvature of a squared distance along a tangent line.

    Evaluates f(t) = metric_sq(rho, rho + t drho) and returns

        [f(h) - 2 f(0) + f(-h)] / (2 h^2),

    i.e. half the raw second difference, which for f(t) = q t^2 recovers the
    quadratic coefficient q.  With ``metric_sq = dist_g**2`` this converges to
    :func:`line_element_g` at rate O(h^2); with 2(1 - fidelity) it converges
    to :func:`line_element_bprime`.  For a stack, ``metric_sq`` must take
    (..., N, N) stacks and return one value per matrix.

    Where ``rho + h drho`` or ``rho - h drho`` leaves the PSD cone, that
    matrix's step is halved, up to four times, while the other matrices keep
    theirs; if any is still outside, :class:`StepSizeError` is raised.
    """
    rho = check_density_matrix(rho)
    drho = check_tangent(drho)
    if rho.shape != drho.shape:
        raise InvalidDimensionError("dimension mismatch between rho and drho")
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")

    h = np.full(rho.shape[:-2], float(h))
    for _ in range(FD_SHRINK_ATTEMPTS + 1):
        step = h[..., None, None] * drho
        plus = rho + step
        minus = rho - step
        lo = np.minimum(np.linalg.eigvalsh(plus)[..., 0], np.linalg.eigvalsh(minus)[..., 0])
        outside = lo < EIGENVALUE_FLOOR
        if not np.any(outside):
            break
        h = np.where(outside, 0.5 * h, h)
    else:
        raise StepSizeError(
            f"rho +/- h*drho leaves the PSD cone even at h = {np.min(h[outside]):.3e}")

    f0 = np.asarray(metric_sq(rho, rho), dtype=float)
    fp = np.asarray(metric_sq(rho, plus), dtype=float)
    fm = np.asarray(metric_sq(rho, minus), dtype=float)
    return _maybe_scalar(0.5 * (fp - 2.0 * f0 + fm) / (h * h))
