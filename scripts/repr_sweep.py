#!/usr/bin/env python3
"""Compare the CLI's float writer with ``repr`` on many values; exit 1 on any mismatch.

    PYTHONPATH=src python scripts/repr_sweep.py [--values N] [--seed S]

``superfid.cli._repr_pairs`` finds ``repr``'s digits with numpy and leaves
to ``repr`` itself only the values outside its range.  This script feeds it
N values (default 10^7) in ``cli._REPR_CHUNK`` slices, drawn in equal shares
from ten families:

- ``uniform``: uniform on [0, 1), the eigenvalues and purities of ``sample``;
- ``signed``: uniform on (-1, 1), the matrix entries of ``--full-matrix``;
- ``log-uniform``: |v| log-uniform on [1e-5, 1) with random signs, so every
  decimal exponent of the kernel's range gets values;
- ``grid``: i / m for random m <= 10^4, the barycentric points of ``grid``;
- ``short``: random decimals of 1 to 16 digits, read with ``float``;
- ``bits``: random 64-bit patterns, nan, inf and subnormals among them;
- ``range-bits``: random signs and 52-bit mantissas with the exponents
  2^-14 .. 2^-1, which cover the kernel's range 1e-4 <= |v| < 1;
- ``near-edges``: the doubles within 40 steps of ±1e-4, 1e-3, 0.01, 0.1
  and 1, and of short decimals, where a carry is likeliest;
- ``dyadic``: odd multiples of 2^-p for p <= 60, among them the only
  values whose digits end in an exact tie;
- ``zeros``: 0.0 and -0.0 between values of ``signed``, as the imaginary
  parts of a ``--full-matrix`` diagonal lie between its other entries.

It prints one line per family (values, values left to ``repr``, mismatches)
and the first few mismatches, if any.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from superfid import cli

FAMILIES = ("uniform", "signed", "log-uniform", "grid", "short", "bits", "range-bits",
            "near-edges", "dyadic", "zeros")


def _draw(family: str, n: int, gen: np.random.Generator) -> np.ndarray:
    if family == "uniform":
        return gen.random(n)
    if family == "signed":
        return gen.uniform(-1.0, 1.0, n)
    if family == "log-uniform":
        return 10.0 ** gen.uniform(-5.0, 0.0, n) * gen.choice([-1.0, 1.0], n)
    if family == "grid":
        m = gen.integers(1, 10_001, n)
        return gen.integers(0, m + 1) / m
    if family == "short":
        digits = gen.integers(1, 17, n)
        mantissa = gen.integers(0, 10 ** digits.astype(np.int64))
        return np.array([float(f"{v}e-{p}") for v, p in
                         zip(mantissa.tolist(), (digits + gen.integers(0, 4, n)).tolist())])
    if family == "bits":
        return gen.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    if family == "range-bits":
        exponent = gen.integers(1023 - 14, 1023, n, dtype=np.uint64)
        mantissa = gen.integers(0, 2 ** 52, n, dtype=np.uint64)
        sign = gen.integers(0, 2, n, dtype=np.uint64)
        return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)
    if family == "near-edges":
        centres = np.concatenate([[1e-4, 1e-3, 0.01, 0.1, 1.0],
                                  gen.integers(1, 10 ** 4, 64) / 10.0 ** gen.integers(1, 9, 64)])
        base = gen.choice(centres, n) * gen.choice([-1.0, 1.0], n)
        steps = gen.integers(-40, 41, n)
        return (base.view(np.int64) + steps).view(np.float64)
    if family == "dyadic":
        p = gen.integers(1, 61, n)
        odd = 2 * gen.integers(0, 2 ** (p - 1).clip(max=52)) + 1
        return np.ldexp(odd.astype(np.float64), -p.astype(np.int32))
    if family == "zeros":
        zeros = np.where(gen.random(n) < 0.5, 0.0, -0.0)
        return np.where(gen.random(n) < 0.5, zeros, gen.uniform(-1.0, 1.0, n))
    raise ValueError(f"unknown family {family!r}")


def sweep(family: str, n: int, gen: np.random.Generator, show: int = 5):
    """(values, left to repr, mismatches) over ``n`` values of ``family``."""
    fallback = mismatches = 0
    for start in range(0, n, cli._REPR_CHUNK):
        x = _draw(family, min(cli._REPR_CHUNK, n - start), gen)
        pairs = cli._repr_pairs(x)
        got = ("%s%s" * len(x)) % tuple(pairs.ravel().tolist())
        fallback += int(np.count_nonzero(pairs[:, 0] == ""))
        if got == ("%r" * len(x)) % tuple(x.tolist()):
            continue
        for v, (prefix, digits) in zip(x.tolist(), pairs.tolist()):
            if f"{prefix}{digits}" != repr(v):
                mismatches += 1
                if mismatches <= show:
                    print(f"  mismatch: repr {v!r}, kernel {prefix}{digits}")
    return n, fallback, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=10 ** 7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    gen = np.random.default_rng(args.seed)
    total = bad = 0
    for family in FAMILIES:
        n, fallback, mismatches = sweep(family, -(-args.values // len(FAMILIES)), gen)
        print(f"{family:12s} values={n} repr_fallback={fallback} mismatches={mismatches}",
              flush=True)
        total += n
        bad += mismatches
    print(f"total values={total} mismatches={bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
