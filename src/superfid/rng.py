"""Reproducible random-number streams.

Every sampling routine in the package takes an :class:`RngStream` keyed by a
64-bit master seed plus a stream index.  Identical ``(seed, stream)`` pairs
reproduce identical value sequences, and distinct stream indices give
statistically independent streams, so separate draws (the checks of one
``verify`` suite, say) need not share a sequence.  ``superfid sample`` draws
from stream 0 of its seed.

A stream has two families of generators.  :meth:`RngStream.block` is keyed
by a block kind and a block index as well: block ``b`` of kind ``k`` is a
PCG64 generator seeded from ``SeedSequence(seed, spawn_key=(stream, k, b))``,
so its values depend only on (seed, stream, kind, block), not on which
blocks were drawn before it or on which thread draws it.  Every sampler
fills its output block by block from these, one kind per sampler, so it can
split the blocks between threads, stop early or draw a prefix, and give the
same values.  The blocks use PCG64 because it fills ``standard_gamma`` rows
faster than Philox; seeding one costs ~15 us.  :meth:`RngStream.generator`
is one Philox sequence, independent of every block, which only code outside
the samplers reads from front to back: the envelope audit and ``statlab``'s
simplex test, which take an :class:`RngStream`, and ``verify``, which hands
it to the ``qstate`` primitives (Haar unitaries, tangent directions) and to
its inverse-CDF check.  The ``qstate`` primitives take only a numpy
Generator (a block or this sequence); every other randomized function takes
only an :class:`RngStream` (:func:`check_stream`).
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

    def _seed_sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed & 0xFFFFFFFFFFFFFFFF,
                                      spawn_key=(self.stream, *key))

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator; repeated calls replay the same sequence."""
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def block(self, kind: int, index: int) -> np.random.Generator:
        """Fresh PCG64 generator of block ``index`` of kind ``kind`` in this stream."""
        return np.random.Generator(np.random.PCG64(self._seed_sequence(kind, index)))


def check_stream(rng) -> None:
    """Raise ``TypeError`` unless ``rng`` is an :class:`RngStream`."""
    if not isinstance(rng, RngStream):
        raise TypeError(f"expected RngStream, got {type(rng)!r}")


def seed_from_env(default: int = DEFAULT_SEED) -> int:
    """Master seed from the SUPERFID_SEED environment variable, else ``default``."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
