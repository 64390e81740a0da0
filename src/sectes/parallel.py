"""One process pool for the package's independent tasks.

Ensemble members, their inverse-validation classifiers and bench jobs
share no state, so they run on worker processes: bench jobs as one map,
an ensemble's tasks submitted one by one as their inputs become ready.
Every task carries its own seed and results are placed by task, not by
arrival, so a pooled run returns exactly what the in-process run
returns.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor
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


class InlineExecutor(Executor):
    """An executor that runs each task in this process as it is
    submitted, so tasks run in submission order and every future it
    returns is already done."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


@contextmanager
def task_pool(tasks: int, workers: int | None = None):
    """Yield an :class:`~concurrent.futures.Executor` over min(tasks,
    workers) worker processes. ``workers`` defaults to the usable CPUs
    divided by the BLAS threads per process: workers keep the caller's
    BLAS thread count (BLAS results can depend on it), so more would
    compete for the same CPUs, and with BLAS unpinned the tasks stay in
    this process (an :class:`InlineExecutor`).

    Tasks also stay in this process when this process is itself a
    multiprocessing worker, so pools never nest. Workers are forked
    (where the platform can fork; elsewhere tasks stay in this process):
    they start in milliseconds with the caller's modules loaded, and a
    script without a ``__main__`` guard is not re-run in them. Task
    functions must be module-level. On every exit path the pool cancels
    the tasks not yet started, waits for the running ones and shuts down.
    """
    n = min(tasks, workers or usable_cpus() // blas_threads())
    if (n <= 1 or multiprocessing.parent_process() is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        yield InlineExecutor()
        return
    pool = ProcessPoolExecutor(n, multiprocessing.get_context("fork"))
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@contextmanager
def task_map(tasks: int, workers: int | None = None):
    """Yield ``map(fn, *iterables) -> list`` over a :func:`task_pool`."""
    with task_pool(tasks, workers) as pool:
        yield lambda fn, *iterables: list(pool.map(fn, *iterables))
