"""Processor-sharing resources: the Ethernet and everything like it.

A :class:`SharedResource` serves any number of concurrent tasks; capacity
is divided equally among active tasks, optionally scaled by an efficiency
curve — Ethernet loses goodput as concurrent senders collide ("multiple
processors attempt to access the network, increasing the chance of a
collision", §3.3).  Completion events are recomputed whenever the active
set changes, the textbook PS-queue construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .events import Simulator


@dataclass
class _Task:
    task_id: int
    remaining: float
    done: Callable[[], None]


def ethernet_efficiency(alpha: float) -> Callable[[int], float]:
    """CSMA/CD-flavored degradation: eff(n) = 1 / (1 + alpha*(n-1))."""

    def efficiency(active: int) -> float:
        return 1.0 / (1.0 + alpha * max(0, active - 1))

    return efficiency


class SharedResource:
    """A capacity shared equally among its active tasks."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        efficiency: Optional[Callable[[int], float]] = None,
    ):
        if rate <= 0:
            raise ValueError(f"resource {name!r} needs a positive rate")
        self.sim = sim
        self.name = name
        self.rate = rate
        self.efficiency = efficiency or (lambda active: 1.0)
        self._tasks: Dict[int, _Task] = {}
        self._ids = itertools.count()
        self._last_update = 0.0
        self._epoch = 0  # invalidates stale completion events
        self.busy_time = 0.0  # integral of (resource busy) over time
        self.total_demand_served = 0.0

    # -- public API -----------------------------------------------------------

    def submit(self, demand: float, done: Callable[[], None]) -> None:
        """Add a task needing ``demand`` units; ``done`` fires on finish."""
        if demand <= 0:
            # Zero-cost step: complete immediately (still asynchronously).
            self.sim.schedule(0.0, done)
            return
        self._settle()
        task = _Task(next(self._ids), demand, done)
        self._tasks[task.task_id] = task
        self.total_demand_served += demand
        self._reschedule()

    def per_task_rate(self) -> float:
        active = len(self._tasks)
        if active == 0:
            return 0.0
        return self.rate * self.efficiency(active) / active

    # -- internals ---------------------------------------------------------------

    def _settle(self) -> None:
        """Account for progress since the last membership change."""
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._tasks:
            return
        rate = self.per_task_rate()
        self.busy_time += elapsed
        for task in self._tasks.values():
            task.remaining -= rate * elapsed

    def _reschedule(self) -> None:
        """Arrange a wake-up at the next task completion."""
        self._epoch += 1
        if not self._tasks:
            return
        rate = self.per_task_rate()
        next_remaining = min(t.remaining for t in self._tasks.values())
        delay = max(0.0, next_remaining / rate)
        epoch = self._epoch

        def wake():
            if epoch != self._epoch:
                return  # superseded by a later membership change
            self._complete_due()

        self.sim.schedule(delay, wake)

    def _complete_due(self) -> None:
        self._settle()
        tolerance = 1e-7 * self.rate + 1e-9
        finished = [
            t for t in self._tasks.values() if t.remaining <= tolerance
        ]
        if not finished and self._tasks:
            # Floating-point settling left the due task marginally short;
            # it *was* scheduled to finish now, so finish it (guarantees
            # progress and keeps the queue livelock-free).
            least = min(self._tasks.values(), key=lambda t: t.remaining)
            finished = [least]
        for task in finished:
            del self._tasks[task.task_id]
        self._reschedule()
        for task in finished:
            task.done()
