"""Core linear-algebra primitives for random density matrices.

States, unitaries, and tangent directions are plain complex ``numpy`` arrays;
the functions here validate the defining invariants instead of wrapping the
arrays in classes.  All random constructions take an :class:`~superfid.rng.RngStream`
(or a ``numpy`` Generator derived from one) and are pure functions of it.

Conventions
-----------
* density matrix: Hermitian (1e-12), unit trace (1e-12), eigenvalues >= -1e-10;
* eigenvalue vector: point on the probability simplex, sorted descending;
* Ginibre matrix: i.i.d. complex Gaussian entries with E|g_ij|^2 = 1
  (real and imaginary parts each N(0, 1/2)).
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidDimensionError, InvalidStateError
from .rng import RngStream

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
UNITARITY_ATOL = 1e-10


class Measure(str, Enum):
    """Probability measure on density matrices."""

    HILBERT_SCHMIDT = "hs"
    BURES = "bures"
    SUPERFIDELITY = "g"


def _maybe_scalar(x: np.ndarray):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if x.ndim == 0 else x


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
# Every comparison with NaN is false, so each check below first rejects
# non-finite entries explicitly.

def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise InvalidStateError(f"{name} has non-finite entries")


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidDimensionError(f"{name} must be a square matrix, got shape {rho.shape}")
    if rho.shape[0] < 1:
        raise InvalidDimensionError(f"{name} has dimension 0")
    _check_finite(rho, name)
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_ATOL:
        raise InvalidStateError(f"{name} is not Hermitian within {HERMITICITY_ATOL}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > max(TRACE_ATOL, 1e-13 * rho.shape[0]):
        raise InvalidStateError(f"{name} has trace {tr}, expected 1")
    evals = np.linalg.eigvalsh(rho)
    if evals[0] < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"{name} has eigenvalue {evals[0]:.3e} below the PSD floor {EIGENVALUE_FLOOR}")
    return rho


def check_unitary(u: np.ndarray, name: str = "u") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidDimensionError(f"{name} must be square, got shape {u.shape}")
    _check_finite(u, name)
    delta = u @ u.conj().T - np.eye(u.shape[0])
    if np.max(np.abs(delta)) > UNITARITY_ATOL:
        raise InvalidStateError(f"{name} is not unitary within {UNITARITY_ATOL}")
    return u


def check_tangent(drho: np.ndarray, name: str = "drho") -> np.ndarray:
    """Validate a tangent direction: Hermitian and traceless."""
    drho = np.asarray(drho, dtype=complex)
    if drho.ndim != 2 or drho.shape[0] != drho.shape[1]:
        raise InvalidDimensionError(f"{name} must be square, got shape {drho.shape}")
    _check_finite(drho, name)
    if np.max(np.abs(drho - drho.conj().T)) > HERMITICITY_ATOL:
        raise InvalidStateError(f"{name} is not Hermitian within {HERMITICITY_ATOL}")
    scale = max(1.0, float(np.max(np.abs(drho))))
    if abs(np.trace(drho)) > TRACE_ATOL * scale:
        raise InvalidStateError(f"{name} is not traceless: trace = {np.trace(drho)}")
    return drho


def check_eigenvalue_vector(eigs: np.ndarray, name: str = "eigs") -> np.ndarray:
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size < 1:
        raise InvalidDimensionError(f"{name} must be a nonempty vector")
    _check_finite(eigs, name)
    if np.any(eigs < -TRACE_ATOL) or np.any(eigs > 1 + TRACE_ATOL):
        raise InvalidStateError(f"{name} has entries outside [0, 1]: {eigs}")
    if abs(eigs.sum() - 1.0) > TRACE_ATOL * max(1, eigs.size):
        raise InvalidStateError(f"{name} sums to {eigs.sum()}, expected 1")
    if np.any(np.diff(eigs) > 0):
        raise InvalidStateError(f"{name} is not sorted descending")
    return eigs


# ---------------------------------------------------------------------------
# random-matrix primitives
# ---------------------------------------------------------------------------

def ginibre(dim: int, rng) -> np.ndarray:
    """Square complex Ginibre matrix with unit entry variance."""
    return ginibre_batch(dim, 1, rng)[0]


def ginibre_batch(dim: int, count: int, rng) -> np.ndarray:
    """Stack of ``count`` independent Ginibre matrices, shape (count, dim, dim)."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    gen = _as_generator(rng)
    z = gen.standard_normal((count, dim, dim, 2))
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def _qr_phase_fixed(g: np.ndarray) -> np.ndarray:
    # QR is unique once diag(R) is made real positive; that choice turns a
    # Ginibre input into a Haar unitary.
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d /= np.abs(d)
    return q * d[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return haar_unitary_batch(dim, 1, rng)[0]


def haar_unitary_batch(dim: int, count: int, rng) -> np.ndarray:
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return _qr_phase_fixed(ginibre_batch(dim, count, rng))


def compose_state(eigs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Build U diag(eigs) U^dagger; the result has spectrum ``eigs``."""
    eigs = check_eigenvalue_vector(eigs)
    u = check_unitary(u)
    if u.shape[0] != eigs.size:
        raise InvalidDimensionError(
            f"dimension mismatch: eigs has {eigs.size}, unitary is {u.shape[0]}x{u.shape[0]}")
    rho = (u * eigs) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, sorted descending.

    Negative numerical noise in [-1e-10, 0) is clamped to zero and the vector
    renormalized to unit sum; anything more negative raises.
    """
    rho = check_density_matrix(rho)
    evals = np.linalg.eigvalsh(rho)[::-1]
    return clamp_spectrum(evals)


def clamp_spectrum(evals: np.ndarray) -> np.ndarray:
    """Apply the clamping policy to descending eigenvalues along the last axis.

    Accepts one vector or an (n, N) stack.  Values in [-1e-10, 0) are set to
    zero and each vector is renormalized to unit sum; anything below the
    floor, or non-finite, anywhere in the input raises :class:`InvalidStateError`.
    """
    evals = np.asarray(evals, dtype=float)
    _check_finite(evals, "spectrum")
    if evals.min() < EIGENVALUE_FLOOR:
        raise InvalidStateError(
            f"eigenvalue {evals.min():.3e} below the PSD floor {EIGENVALUE_FLOOR}")
    clamped = np.clip(evals, 0.0, None)
    return clamped / clamped.sum(axis=-1, keepdims=True)


def purity(rho: np.ndarray) -> float:
    """tr rho^2 = sum of squared eigenvalues, in [1/N, 1]."""
    rho = check_density_matrix(rho)
    return float(np.real(np.sum(rho * rho.conj())))


def random_tangent(dim: int, rng, norm: float = 1.0) -> np.ndarray:
    """Random Hermitian traceless direction with Frobenius norm ``norm``.

    GUE-distributed before projection; used to probe line elements.
    """
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    g = ginibre(dim, rng)
    h = (g + g.conj().T) / 2.0
    h -= np.trace(h).real / dim * np.eye(dim)
    h_norm = np.linalg.norm(h)
    if h_norm == 0.0:  # measure-zero draw
        h = np.diag(np.linspace(1, -1, dim) - np.mean(np.linspace(1, -1, dim)))
        h_norm = np.linalg.norm(h)
    return h * (norm / h_norm)
