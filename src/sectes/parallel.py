"""One process pool for the package's independent tasks.

Ensemble members, their inverse-validation classifiers and bench jobs
share no state, so each group of them maps over worker processes. Every
task carries its own seed and results come back in input order, so a
pooled run returns exactly what the in-process run returns.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_threads() -> int:
    """Threads one BLAS product may use, as BLAS libraries read it when
    they load: the first positive one of these variables, else one per
    usable CPU."""
    for key in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(key, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return usable_cpus()


def serial_map(fn, *iterables) -> list:
    """``map`` run in this process, as a list."""
    return list(map(fn, *iterables))


@contextmanager
def task_map(tasks: int, workers: int | None = None):
    """Yield ``map(fn, *iterables) -> list`` over min(tasks, workers)
    worker processes. ``workers`` defaults to the usable CPUs divided by
    the BLAS threads per process: workers keep the caller's BLAS thread
    count (BLAS results can depend on it), so more would compete for the
    same CPUs, and with BLAS unpinned the map stays in this process.

    The map also runs in this process when this process is itself a
    multiprocessing worker, so pools never nest. Workers are forked
    (where the platform can fork; elsewhere the map stays in this
    process): they start in milliseconds with the caller's modules
    loaded, and a script without a ``__main__`` guard is not re-run in
    them. ``fn`` must be a module-level function. The pool is shut down
    on every exit path.
    """
    n = min(tasks, workers or usable_cpus() // blas_threads())
    if (n <= 1 or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield serial_map
        return
    with ProcessPoolExecutor(n, multiprocessing.get_context("fork")) as pool:
        yield lambda fn, *iterables: list(pool.map(fn, *iterables))
