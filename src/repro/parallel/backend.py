"""Execution backends for the parallel compiler.

A backend answers one question: given N independent function-master
tasks, run them and yield their results as they finish.  The paper's
host was an Ethernet network of diskless SUN workstations reached
through UNIX heavyweight processes; ours are local OS processes
(:class:`repro.parallel.warm_pool.WarmPoolBackend`), an in-process serial
executor for tests, leased remote agents, or the discrete-event cluster
simulator for timing studies (:mod:`repro.cluster`).

Every backend offers exactly one task-running surface,
:meth:`ExecutionBackend.run_tasks_streaming`; a fault-attributing
backend may add ``run_tasks_events`` (a start/result/failure stream the
supervisor prefers).  Every consumer — driver, service, node agent,
chaos wrapper — reaches a backend through :func:`stream_task_results`,
so section masters can recombine results while slower functions are
still compiling.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Protocol

from ..driver.function_master import FunctionTask, FunctionTaskResult


class ExecutionBackend(Protocol):
    """Runs function-master tasks; order of results is unspecified."""

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterable[FunctionTaskResult]:
        """Yield results as they complete."""
        ...  # pragma: no cover - protocol

    @property
    def worker_count(self) -> int:
        """Workers the backend was configured with."""
        ...  # pragma: no cover - protocol

    @property
    def effective_worker_count(self) -> int:
        """Workers that could actually run concurrently in the most
        recent dispatch (a pool of 8 given 3 tasks used 3) — the
        denominator speedup/efficiency metrics must divide by."""
        ...  # pragma: no cover - protocol


def stream_task_results(
    backend, tasks: List[FunctionTask]
) -> Iterator[FunctionTaskResult]:
    """Stream results from any backend — the one place a backend's
    task-running surface is touched.  ``run_tasks_streaming`` may return
    any iterable (a generator, or a plain list); a backend is never
    asked to run zero tasks."""
    if tasks:
        yield from backend.run_tasks_streaming(tasks)
