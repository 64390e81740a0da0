"""How fast the host runs right now, from a fixed numpy kernel.

A shared virtual machine can change speed by up to a third for minutes
at a time, which would swamp any change worth measuring. Timed end-to-end
metrics are therefore scaled by ``NOMINAL_S / median kernel time``, with
the kernel timed between a run's operations on as many processes as the
workload keeps busy. A single-process workload times it in its own
process: the two vCPUs slow down independently, and a worker would
measure the other one. The kernel is the benchmark's own code, so a
change to the program does not move it.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

NOMINAL_S = 1.0


def kernel_s(_=None) -> float:
    """Wall time of a kernel mixing the program's kinds of work: strided
    einsums over conv-sized arrays, chains of small dense matmuls, and
    argsorts with Python-level looping."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 8, 34, 34))
    wc = rng.standard_normal((16, 8))
    a = rng.standard_normal((50, 64))
    m = rng.standard_normal((64, 64)) * 0.1
    v = rng.standard_normal(4000)
    started = time.perf_counter()
    for _ in range(27):
        for ki in range(4):
            for kj in range(4):
                np.einsum("bchw,oc->bohw",
                          x[:, :, ki:ki + 32:2, kj:kj + 32:2], wc)
    for _ in range(12000):
        a = np.tanh(np.maximum(a @ m, 0.0) @ m.T)
    for i in range(3000):
        np.argsort(v + i)
        sum(range(300))
    return time.perf_counter() - started


class Reference:
    """Kernel timings in this process, or on ``procs`` worker processes
    running it at once."""

    def __init__(self, procs: int):
        self.procs = procs
        self.samples: list[float] = []
        self._pool = (ProcessPoolExecutor(procs, mp_context=get_context("spawn"))
                      if procs > 1 else None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def sample(self) -> None:
        if self._pool is None:
            self.samples.append(kernel_s())
        else:
            self.samples.append(statistics.fmean(
                self._pool.map(kernel_s, range(self.procs))))

    def slowdown(self) -> float:
        """Median kernel time over its nominal time (> 1: a slow host)."""
        return statistics.median(self.samples) / NOMINAL_S
