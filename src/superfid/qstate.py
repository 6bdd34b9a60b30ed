"""Core linear-algebra primitives for random density matrices.

States, unitaries, and tangent directions are plain complex ``numpy`` arrays;
the functions here validate the defining invariants instead of wrapping the
arrays in classes.  All random constructions return (count, N, N) stacks,
take a ``numpy`` Generator (in the package, always a keyed block of an
:class:`~superfid.rng.RngStream`) and read it from front to back; anything
else raises ``TypeError``.

Conventions
-----------
* density matrix: Hermitian (1e-12), unit trace (1e-12), eigenvalues >= -1e-10;
* spectrum: point on the probability simplex, sorted descending;
* Ginibre matrix: i.i.d. complex Gaussian entries with E|g_ij|^2 = 1
  (real and imaginary parts each N(0, 1/2)).
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidDimensionError, InvalidStateError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


class Measure(str, Enum):
    """Probability measure on density matrices."""

    HILBERT_SCHMIDT = "hs"
    BURES = "bures"
    SUPERFIDELITY = "g"


def _maybe_scalar(x: np.ndarray):
    """A 0-d result as a Python float; arrays pass through."""
    return float(x) if x.ndim == 0 else x


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
# Every comparison with NaN is false, so each check below first rejects
# non-finite entries explicitly.  The matrix checks take one (N, N) matrix or
# a (..., N, N) stack, and raise if any matrix in the stack fails.

def _check_finite(x: np.ndarray, name: str) -> None:
    if not np.isfinite(x).all():
        raise InvalidStateError(f"{name} has non-finite entries")


def _dagger(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose over the last two axes."""
    return np.swapaxes(x.conj(), -2, -1)


def _check_hermitian(x, name: str) -> np.ndarray:
    """``x`` as a complex array of square Hermitian matrices with finite entries."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2] or x.shape[-1] < 1:
        raise InvalidDimensionError(
            f"{name} must be a nonempty square matrix, got shape {x.shape}")
    _check_finite(x, name)
    if np.any(np.abs(x - _dagger(x)) > HERMITICITY_ATOL):
        raise InvalidStateError(f"{name} is not Hermitian within {HERMITICITY_ATOL}")
    return x


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity; return as complex array.

    ``rho`` is one (N, N) matrix or a (..., N, N) stack of them.
    """
    rho = _check_hermitian(rho, name)
    tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = np.abs(tr - 1.0) > max(TRACE_ATOL, 1e-13 * rho.shape[-1])
    if np.any(bad):
        raise InvalidStateError(f"{name} has trace {tr[bad][0]}, expected 1")
    lowest = np.linalg.eigvalsh(rho)[..., 0]
    if np.any(lowest < EIGENVALUE_FLOOR):
        raise InvalidStateError(
            f"{name} has eigenvalue {np.min(lowest):.3e} below the PSD floor {EIGENVALUE_FLOOR}")
    return rho


def check_tangent(drho: np.ndarray, name: str = "drho") -> np.ndarray:
    """Validate a tangent direction, or a (..., N, N) stack: Hermitian and traceless."""
    drho = _check_hermitian(drho, name)
    tr = np.trace(drho, axis1=-2, axis2=-1)
    scale = np.maximum(1.0, np.max(np.abs(drho), axis=(-2, -1)))
    bad = np.abs(tr) > TRACE_ATOL * scale
    if np.any(bad):
        raise InvalidStateError(f"{name} is not traceless: trace = {tr[bad][0]}")
    return drho


# ---------------------------------------------------------------------------
# random-matrix primitives
# ---------------------------------------------------------------------------

def ginibre_batch(dim: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` independent Ginibre matrices, shape (count, dim, dim)."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    if not isinstance(gen, np.random.Generator):
        raise TypeError(f"expected numpy Generator, got {type(gen)!r}")
    z = gen.standard_normal((count, dim, dim, 2))
    # each (re, im) pair of normals read in place as one complex entry, and scaled in place
    g = z.view(complex)[..., 0]
    g /= np.sqrt(2.0)
    return g


def _qr_phase_fixed(g: np.ndarray) -> np.ndarray:
    # QR is unique once diag(R) is made real positive; that choice turns a
    # Ginibre input into a Haar unitary.
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d /= np.abs(d)
    return q * d[..., None, :]


def haar_unitary_batch(dim: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` Haar unitaries via phase-fixed QR of Ginibre matrices."""
    if dim < 1:
        raise InvalidDimensionError(f"dim must be >= 1, got {dim}")
    return _qr_phase_fixed(ginibre_batch(dim, count, gen))


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


def random_tangent_batch(dim: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` random Hermitian traceless directions of unit Frobenius norm.

    GUE-distributed before projection; used to probe line elements.  The
    tangent space at N = 1 is {0}, so ``dim`` must be >= 2.  Returns shape
    (count, dim, dim).
    """
    if dim < 2:
        raise InvalidDimensionError(f"tangent directions need dim >= 2, got {dim}")
    g = ginibre_batch(dim, count, gen)
    h = (g + _dagger(g)) / 2.0
    h -= (np.trace(h, axis1=-2, axis2=-1).real / dim)[:, None, None] * np.eye(dim)
    return h / np.linalg.norm(h, axis=(-2, -1))[:, None, None]
