"""Warm-worker compile farm: a process pool that outlives compilations.

The paper's implementation overhead is dominated by per-task startup:
every function master is a fresh Lisp process that must "download a
portion of a large core image" before any useful work.  A process pool
built per compilation has the same pathology — a new
``ProcessPoolExecutor`` per dispatch.

:class:`WarmPoolBackend` removes it:

- the executor starts lazily on first use and **stays alive across
  compilations** (explicit :meth:`shutdown`, or use the backend as a
  context manager);
- a worker parses only the window its task carries: it starts with an
  empty phase-1 memo (a forked worker drops the one it inherited), so
  no worker reads a module's parse;
- tasks are dispatched in §4.3 cost-balanced batches
  (:func:`repro.parallel.schedule.batch_tasks_by_cost`), so tiny
  functions share one IPC round-trip instead of paying one each;
- a crashed worker (``BrokenProcessPool``) costs only the executor it
  broke: that one is discarded and the next dispatch starts a fresh
  one.  Which tasks run again is not the pool's decision but the
  supervisor's (:mod:`repro.parallel.supervisor`).
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from concurrent.futures.process import BrokenProcessPool
from typing import Iterator, List, Optional

from ..driver.function_master import (
    FunctionTask,
    FunctionTaskResult,
    clear_phase1_cache,
    run_compile_batch,
)
from .schedule import batch_tasks_by_cost


class WarmPoolBackend:
    """A persistent multiprocessing farm satisfying ``ExecutionBackend``."""

    #: LPT batches per worker a dispatch is packed into, balanced by
    #: each task's ``cost_hint``
    batches_per_worker = 2

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is None:
            max_workers = max(1, (os.cpu_count() or 2) - 1)
        if max_workers < 1:
            raise ValueError(f"need at least one worker, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        #: guards pool creation/teardown — the compile service may reach
        #: the farm from several threads (dispatcher, drain, telemetry);
        #: without the lock two racing _ensure_pool calls would each
        #: spawn an executor and leak one.
        self._pool_lock = threading.Lock()
        self._last_effective_workers: Optional[int] = None

    # -- ExecutionBackend protocol ------------------------------------

    @property
    def worker_count(self) -> int:
        return self._max_workers

    @property
    def effective_worker_count(self) -> int:
        if self._last_effective_workers is None:
            return self._max_workers
        return self._last_effective_workers

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        """Yield results batch-by-batch as the farm completes them.

        A worker that dies raises ``BrokenProcessPool`` here, after the
        executor it broke has been discarded (the next dispatch starts a
        fresh one).  Whatever this dispatch had not yielded yet is lost
        to it; the supervisor decides what runs again.
        """
        if not tasks:
            return
        chunks = batch_tasks_by_cost(
            [task.cost_hint for task in tasks],
            min(len(tasks), self._max_workers * self.batches_per_worker),
        )
        self._last_effective_workers = min(self._max_workers, len(chunks))
        pool = self._ensure_pool()
        try:
            # submit itself raises BrokenProcessPool when the pool died
            # between calls (e.g. a worker crashed while idle).
            futures = [
                pool.submit(run_compile_batch, [tasks[i] for i in chunk])
                for chunk in chunks
            ]
            for future in concurrent.futures.as_completed(futures):
                yield from future.result()
        except BrokenProcessPool:
            self._discard_pool(pool)
            raise

    # -- pool lifecycle -----------------------------------------------

    @property
    def is_warm(self) -> bool:
        """True when a live executor is being kept across calls."""
        return self._pool is not None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    initializer=clear_phase1_cache,
                )
            return self._pool

    def _discard_pool(self, broken) -> None:
        """Drop the executor ``broken``.  Dispatches on several threads
        share one executor, and one that sees the crash late must not
        tear down the fresh executor another has started since."""
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
        broken.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the farm.  The next dispatch lazily restarts it."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "WarmPoolBackend":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown()
        return False
