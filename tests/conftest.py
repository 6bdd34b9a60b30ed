import tracemalloc

import numpy as np
from hypothesis import settings

from superfid import RngStream, sample_hs_batch

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_state(dim: int, seed: int, mixedness: float = 0.0) -> np.ndarray:
    """One Hilbert-Schmidt state, optionally pulled toward I/N."""
    rho = sample_hs_batch(dim, 1, RngStream(seed))[0]
    if mixedness:
        rho = (1 - mixedness) * rho + mixedness * np.eye(dim) / dim
    return rho


def basis_state(dim: int, k: int) -> np.ndarray:
    """Projector |k><k|."""
    rho = np.zeros((dim, dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


def traced_peak(fn, *args) -> int:
    """Peak traced allocation, in bytes, while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
