"""Calibration kernel: a fixed piece of work that tracks the machine's speed.

On a shared virtual machine the whole machine runs up to 1.8x slower or
faster in phases that last from seconds to minutes, so raw wall times of the
same code spread widely between runs.  The worker times this kernel right
before and right after every command, in the same process; a command's
wall time divided by the kernel's time around it no longer moves with those
phases.  ``REFERENCE_S`` turns that ratio back into seconds: it is about
the kernel's median time on the 2-vCPU Xeon virtual machine the benchmark
was written on, and fixed, so that figures stay comparable between commits.

The kernel touches no superfid code, so a change to the program cannot move
it.  It mixes the kinds of work the workloads do, in parts of similar
length: batched small-matrix linear algebra, Python bytecode, float
formatting, elementwise passes over an array, and page faults on freshly
mapped memory, as large allocations make them.  It maps 4 MiB at a time and
keeps little else, so that it does not raise the worker's peak RSS.
"""
from __future__ import annotations

import mmap
import time

import numpy as np

REFERENCE_S = 0.090
FAULT_BLOCK_PAGES = 1024


class Kernel:
    """The kernel's inputs, made once per process from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(20110713)
        self.batch = rng.standard_normal((2048, 3, 3))
        self.values = rng.random(12_500)
        self.array = rng.random(50_000)
        self.out = np.empty_like(self.array)

    def run(self) -> None:
        for _ in range(4):
            q, _ = np.linalg.qr(self.batch)
            np.linalg.eigvalsh(q @ q.transpose(0, 2, 1) + np.eye(3))
        x = 0
        for i in range(250_000):
            x += i * i
        "\n".join(",".join(repr(float(v)) for v in self.values[i:i + 5])
                  for i in range(0, len(self.values), 5))
        for _ in range(300):
            np.multiply(self.array, 1.0001, out=self.out)
            np.add(self.out, 0.5, out=self.out)
            self.out.sum()
        for _ in range(4):
            with mmap.mmap(-1, FAULT_BLOCK_PAGES * mmap.PAGESIZE) as block:
                block[::mmap.PAGESIZE] = b"\1" * FAULT_BLOCK_PAGES

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
