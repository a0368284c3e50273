"""Task scheduling strategies for the parallel compiler.

The paper "adopt[s] a simple first-come-first-served strategy that
distributes the tasks over the available processors" (§3.3) and later
improves it for the user program with a cost heuristic: "a combination of
lines of code and loop nesting can serve as approximation of the
compilation time that is the basis for the scheduler to perform load
balancing, and since the master process parses the program to determine
the partitioning, this information is readily available" (§4.3).

Both strategies are implemented here, as pure functions from function
reports to an :class:`Assignment`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from ..driver.results import FunctionReport

#: Estimates the relative compile cost of a function before compiling it.
CostEstimator = Callable[[FunctionReport], float]


@dataclass
class Assignment:
    """Which machine compiles which functions, in what order.

    ``per_machine[m]`` is the ordered list of indices into the profile's
    function list that machine ``m`` compiles back-to-back.
    """

    per_machine: List[List[int]] = field(default_factory=list)

    @property
    def processors(self) -> int:
        return len(self.per_machine)

    def machine_of(self, function_index: int) -> int:
        for machine, tasks in enumerate(self.per_machine):
            if function_index in tasks:
                return machine
        raise KeyError(f"function {function_index} not assigned")

def lines_and_nesting_cost(report: FunctionReport) -> float:
    """The paper's §4.3 heuristic: lines of code combined with loop
    nesting.  ``loop_weight`` is instruction count scaled by 4**depth, so
    blending it with raw lines captures both size and nest depth."""
    return report.source_lines + 0.05 * report.loop_weight


#: the words that open and close a block of a function body
_BLOCK_WORDS = re.compile(r"\b(?:(for|while)|if|end)\b")


def window_cost_hint(window: str) -> float:
    """The §4.3 estimate computed *before* compilation, from a function's
    text — "readily available" since the master splits the program: its
    lines plus 0.05 x each line weighted 4**(loops around it), mirroring
    :func:`lines_and_nesting_cost` without a parse."""
    weight = depth = last = 0
    blocks: List[int] = []  # per open block: 1 for a loop
    for match in _BLOCK_WORDS.finditer(window):
        weight += window.count("\n", last, match.start()) * 4 ** depth
        last = match.start()
        if match[0] != "end":
            blocks.append(1 if match[1] else 0)
            depth += blocks[-1]
        elif blocks:
            depth -= blocks.pop()
    weight += window.count("\n", last) * 4 ** depth
    return window.count("\n") + 1 + 0.05 * weight


def batch_tasks_by_cost(
    costs: Sequence[float], batches: int
) -> List[List[int]]:
    """Group task indices into at most ``batches`` cost-balanced chunks.

    Reuses the §4.3 LPT grouping: heaviest estimate first onto the
    lightest chunk, each chunk kept in source order, empty chunks
    dropped.  Backends submit each chunk as one worker round-trip, so
    tiny functions stop paying one IPC hop apiece.
    """
    if batches < 1:
        raise ValueError(f"need at least one batch, got {batches}")
    if not costs:
        return []
    assignment = grouped_lpt_assignment(
        list(costs), batches, estimator=float
    )
    return [chunk for chunk in assignment.per_machine if chunk]


def one_function_per_processor(reports: List[FunctionReport]) -> Assignment:
    """The paper's default: as many processors as functions."""
    return Assignment(per_machine=[[i] for i in range(len(reports))])


def fcfs_assignment(
    reports: List[FunctionReport],
    processors: int,
    estimator: CostEstimator = lines_and_nesting_cost,
) -> Assignment:
    """First-come-first-served onto ``processors`` machines.

    Tasks are dispatched in source order; each goes to the machine that
    frees up earliest (per the estimator) — which is what a FCFS queue of
    ready workstations converges to.
    """
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    loads = [0.0] * processors
    assignment = Assignment(per_machine=[[] for _ in range(processors)])
    for index, report in enumerate(reports):
        target = min(range(processors), key=lambda m: (loads[m], m))
        assignment.per_machine[target].append(index)
        loads[target] += estimator(report)
    return assignment


def grouped_lpt_assignment(
    reports: List[FunctionReport],
    processors: int,
    estimator: CostEstimator = lines_and_nesting_cost,
) -> Assignment:
    """Load-balanced grouping (§4.3): longest-processing-time-first.

    Small functions are grouped onto shared processors so that "the same
    speedup can be observed using fewer processors".
    """
    if processors < 1:
        raise ValueError(f"need at least one processor, got {processors}")
    order = sorted(
        range(len(reports)),
        key=lambda i: (-estimator(reports[i]), i),
    )
    loads = [0.0] * processors
    assignment = Assignment(per_machine=[[] for _ in range(processors)])
    for index in order:
        target = min(range(processors), key=lambda m: (loads[m], m))
        assignment.per_machine[target].append(index)
        loads[target] += estimator(reports[index])
    # Keep each machine's queue in source order (deterministic artifacts).
    for tasks in assignment.per_machine:
        tasks.sort()
    return assignment
