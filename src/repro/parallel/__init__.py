"""Parallel execution backends and scheduling strategies."""

from .backend import ExecutionBackend, stream_task_results
from .fault_schedule import FaultSchedule
from .fault_tolerance import ChaosBackend, FunctionMasterFailure
from .local import SerialBackend
from .parallel_make import (
    MakeCycleError,
    MakeResult,
    MakeTarget,
    simulate_parallel_make,
)
from .schedule import (
    Assignment,
    batch_tasks_by_cost,
    fcfs_assignment,
    grouped_lpt_assignment,
    lines_and_nesting_cost,
    one_function_per_processor,
    window_cost_hint,
)
from .supervisor import SupervisedBackend, WorkerHealthTracker
from .warm_pool import WarmPoolBackend

__all__ = [
    "Assignment",
    "ChaosBackend",
    "FaultSchedule",
    "ExecutionBackend",
    "FunctionMasterFailure",
    "MakeCycleError",
    "SupervisedBackend",
    "WorkerHealthTracker",
    "MakeResult",
    "MakeTarget",
    "SerialBackend",
    "WarmPoolBackend",
    "batch_tasks_by_cost",
    "fcfs_assignment",
    "grouped_lpt_assignment",
    "lines_and_nesting_cost",
    "one_function_per_processor",
    "simulate_parallel_make",
    "stream_task_results",
    "window_cost_hint",
]
