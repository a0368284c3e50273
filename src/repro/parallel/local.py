"""The in-process execution backend.

:class:`SerialBackend` runs every function master in the calling
process, in order — the backend for tests, debugging and the
supervisor's last-resort fallback.  The real thing, one OS process per
concurrent function master, is
:class:`repro.parallel.warm_pool.WarmPoolBackend`.
"""

from __future__ import annotations

from typing import Iterator, List

from ..driver.function_master import (
    FunctionTask,
    FunctionTaskResult,
    run_compile_task,
)


class SerialBackend:
    """Runs every task in-process, in order (tests and debugging)."""

    worker_count = 1
    effective_worker_count = 1

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        for task in tasks:
            yield from run_compile_task(task)
