"""Shared experiment runner for the figure benchmarks.

Compiling a synthetic program is deterministic, so its work profile is
computed once per (size class, function count) and cached for the whole
test session.  Timing measurements then come from the cluster simulator,
which is itself deterministic — every benchmark run regenerates exactly
the same figures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from ..cluster.cluster import ClusterSimulation, TimingReport
from ..cluster.costs import ClusterCostModel
from ..driver.results import WorkProfile
from ..driver.sequential import SequentialCompiler
from ..parallel.schedule import (
    Assignment,
    CostEstimator,
    fcfs_assignment,
    grouped_lpt_assignment,
    lines_and_nesting_cost,
    one_function_per_processor,
)
from ..workloads.synthetic import synthetic_program
from ..workloads.user_program import user_program


@functools.lru_cache(maxsize=None)
def profile_for(size_class: str, n_functions: int) -> WorkProfile:
    """Real compilation of S_n; cached per session."""
    source = synthetic_program(size_class, n_functions)
    result = SequentialCompiler().compile(source)
    return result.profile


@functools.lru_cache(maxsize=None)
def user_program_profile() -> WorkProfile:
    result = SequentialCompiler().compile(user_program())
    return result.profile


@dataclass
class MeasuredPair:
    """Sequential and parallel timings for one workload configuration."""

    size_class: str
    n_functions: int
    sequential: TimingReport
    parallel: TimingReport
    workers: int

    @property
    def speedup(self) -> float:
        return self.sequential.elapsed / self.parallel.elapsed


def measure_pair(
    size_class: str,
    n_functions: int,
    costs: Optional[ClusterCostModel] = None,
    processors: Optional[int] = None,
) -> MeasuredPair:
    """Measure S_n sequentially and in parallel.

    With ``processors`` unset, the paper's default applies: one
    workstation per function.
    """
    profile = profile_for(size_class, n_functions)
    sim = ClusterSimulation(costs)
    sequential = sim.run_sequential(profile)
    if processors is None:
        assignment = one_function_per_processor(profile.functions)
    else:
        assignment = fcfs_assignment(profile.functions, processors)
    parallel = sim.run_parallel(profile, assignment)
    workers = min(len(profile.functions), assignment.processors)
    return MeasuredPair(
        size_class=size_class,
        n_functions=n_functions,
        sequential=sequential,
        parallel=parallel,
        workers=workers,
    )


def measure_user_program(
    processors: int,
    costs: Optional[ClusterCostModel] = None,
    strategy: str = "grouped",
    estimator: CostEstimator = lines_and_nesting_cost,
) -> MeasuredPair:
    """The §4.3 experiment: the user program on p processors."""
    profile = user_program_profile()
    sim = ClusterSimulation(costs)
    sequential = sim.run_sequential(profile)
    if strategy == "grouped":
        assignment = grouped_lpt_assignment(
            profile.functions, processors, estimator
        )
    elif strategy == "fcfs":
        assignment = fcfs_assignment(profile.functions, processors, estimator)
    elif strategy == "one-per-processor":
        assignment = one_function_per_processor(profile.functions)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    parallel = sim.run_parallel(profile, assignment)
    workers = min(len(profile.functions), assignment.processors)
    return MeasuredPair(
        size_class="user",
        n_functions=len(profile.functions),
        sequential=sequential,
        parallel=parallel,
        workers=workers,
    )
