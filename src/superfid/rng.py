"""Reproducible random-number streams.

Every sampling routine in the package takes an :class:`RngStream` keyed by a
64-bit master seed plus a stream index.  Identical ``(seed, stream)`` pairs
reproduce identical value sequences, and distinct stream indices give
statistically independent streams, so separate draws (the checks of one
``verify`` suite, say) need not share a sequence.  ``superfid sample`` draws
from stream 0 of its seed.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
SEED_ENV_VAR = "SUPERFID_SEED"


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (master seed, stream index)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator; repeated calls replay the same sequence."""
        ss = np.random.SeedSequence(entropy=self.seed & 0xFFFFFFFFFFFFFFFF,
                                    spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    """Master seed from the SUPERFID_SEED environment variable, else ``default``."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
