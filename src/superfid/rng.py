"""Reproducible random-number streams.

Every sampling routine in the package takes an :class:`RngStream` keyed by a
64-bit master seed plus a stream index.  Identical ``(seed, stream)`` pairs
reproduce identical value sequences, and distinct stream indices give
statistically independent streams, so separate draws (the checks of one
``verify`` suite, say) need not share a sequence.  ``superfid sample`` draws
from stream 0 of its seed.

A stream has one family of generators, its keyed blocks:
:meth:`RngStream.block` is keyed by a block kind and a block index as well,
and block ``b`` of kind ``k`` is a PCG64 generator seeded from
``SeedSequence(seed, spawn_key=(stream, k, b))``.  Its values depend only on
(seed, stream, kind, block), not on which blocks were drawn before it or on
which thread draws it.  Every kind is declared here, once.  Kinds 0-4 are
the samplers', one per sampler: each fills its output block by block, so it
can split the blocks between threads, stop early or draw a prefix, and give
the same values.  Kinds 6 and 7 belong to the readers outside the samplers,
and each reads block 0 of its kind from the front: ``statlab``'s
simplex-test shuffle, and ``verify``'s own draws (Haar unitaries, tangent
directions, inverse-CDF uniforms).  Kind 5 is retired: it keyed the envelope
audit's probes, and the audit now draws nothing.  Kinds 6 and 7 keep their
numbers, since the kind keys every byte they give.  The blocks use PCG64
because it fills ``standard_gamma`` rows faster than Philox; seeding one
costs ~15 us.  The ``qstate`` primitives take only a numpy Generator, a
block; every other randomized function takes only an :class:`RngStream`
(:func:`check_stream`).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
SEED_ENV_VAR = "SUPERFID_SEED"

# RngStream.block kinds: one per sampler, then one per reader outside the samplers (5 is retired)
HS_PURITY_KIND, HS_KIND, BURES_KIND, G_QUBIT_KIND, G_REJECTION_KIND = range(5)
GOF_SHUFFLE_KIND = 6    # chi_square_gof_simplex's row shuffle
VERIFY_KIND = 7         # verify's own draws


@dataclass(frozen=True)
class RngStream:
    """Random stream keyed by (master seed, stream index), drawn from in keyed blocks."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def block(self, kind: int, index: int) -> np.random.Generator:
        """Fresh PCG64 generator of block ``index`` of kind ``kind`` in this stream."""
        seq = np.random.SeedSequence(entropy=self.seed & 0xFFFFFFFFFFFFFFFF,
                                     spawn_key=(self.stream, kind, index))
        return np.random.Generator(np.random.PCG64(seq))


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
