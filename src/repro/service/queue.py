"""Weighted fair-share job queue for the compile service.

The scheduling unit is the *function task*, not the job: when several
modules are being compiled at once, their per-function tasks are
interleaved onto the shared pool so one huge module cannot monopolize
the farm — the paper's §4.3 observation that small functions should
share processors, replayed across whole jobs.  The interleaving is
driven by the same cost estimate the paper's scheduler uses ("lines of
code and loop nesting", §4.3): every task carries its ``cost_hint`` —
the static :func:`~repro.parallel.schedule.window_cost_hint` — and
dispatching a task advances its tenant's *virtual time* by ``cost /
weight`` (stride scheduling).  Only the dispatch *order* depends on the
cost, never any result.  The next task always comes from the tenant
with the least virtual time, so:

- tenants receive pool share proportional to their weights;
- a tenant burning huge tasks accumulates virtual time quickly and
  yields the next slots to tenants with small tasks — a tiny job lands
  in the very next wave, bounded by one wave's latency, never by the
  huge job's total runtime;
- within one tenant, the same accounting runs per *job*, so a tenant's
  own tiny job overtakes its huge one too.

Priority classes are strict: while any ``interactive`` task is pending,
no ``normal`` or ``batch`` task is dispatched (and so on down).  Within
a class, fair share applies.  All tie-breaks use arrival sequence
numbers, so the dispatch order is a pure function of the enqueue
history — seeded tests replay it exactly.  An idle tenant's virtual
time is forgotten once it can no longer differ from the floor it would
re-activate at, so a long-lived service keeps no entry per tenant ever
seen.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..driver.function_master import FunctionTask

#: Strict-priority classes, most urgent first.
PRIORITY_CLASSES: Tuple[str, ...] = ("interactive", "normal", "batch")


def priority_index(priority: str) -> int:
    """Validate and rank a priority-class name."""
    try:
        return PRIORITY_CLASSES.index(priority)
    except ValueError:
        raise ValueError(
            f"unknown priority {priority!r}; "
            f"choose from {list(PRIORITY_CLASSES)}"
        ) from None


@dataclass(frozen=True)
class QueuedTask:
    """One function task waiting for a pool slot."""

    job_id: str
    tenant: str
    priority: int  # index into PRIORITY_CLASSES
    task: FunctionTask
    cost: float
    seq: int  # global arrival order (tie-break and determinism anchor)


class _JobQueue:
    """Per-job FIFO plus the job-level fair-share account."""

    __slots__ = ("tenant", "priority", "seq", "vtime", "tasks")

    def __init__(self, tenant: str, priority: int, seq: int, vtime: float):
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.vtime = vtime
        self.tasks: Deque[QueuedTask] = deque()


class FairShareQueue:
    """Two-level (tenant, then job) weighted stride scheduler.

    Thread-safe; every method takes the internal lock.  Dispatch order
    is deterministic given the enqueue history: selection ties break on
    names and arrival sequence numbers, never on wall clock or hashing.
    """

    #: weight of a tenant ``tenant_weights`` does not name
    default_weight: float = 1.0
    #: floor of a task's cost, so no task advances virtual time by ~0
    min_cost: float = 1.0

    def __init__(self, tenant_weights: Optional[Dict[str, float]] = None):
        self._lock = threading.Lock()
        #: the configured weights (``--tenant-weight``), nothing else
        self._weights: Dict[str, float] = dict(tenant_weights or {})
        for weight in self._weights.values():
            if weight <= 0:
                raise ValueError(
                    f"tenant weight must be positive, got {weight}"
                )
        #: insertion-ordered so iteration (and thus selection scans) are
        #: reproducible regardless of string hash randomization.
        self._jobs: "OrderedDict[str, _JobQueue]" = OrderedDict()
        #: virtual time per tenant with a queued job, or idle above the
        #: floor; an idle tenant at or under it is forgotten
        self._tenant_vtime: Dict[str, float] = {}
        #: virtual time of the most recent dispatch — the floor newly
        #: activating tenants/jobs start from, so an idle tenant neither
        #: banks credit nor gets punished for having been idle.
        self._vfloor = 0.0
        self._seq = 0

    # -- enqueue -------------------------------------------------------

    def enqueue(
        self,
        job_id: str,
        tenant: str,
        priority: int,
        tasks: Sequence[FunctionTask],
    ) -> int:
        """Add a job's tasks (in compile order); returns tasks queued."""
        if not 0 <= priority < len(PRIORITY_CLASSES):
            raise ValueError(f"priority index out of range: {priority}")
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                # Activation: start from the dispatch floor, keeping any
                # higher personal vtime (re-activation cannot reset debt).
                tenant_vtime = max(
                    self._tenant_vtime.get(tenant, 0.0), self._vfloor
                )
                self._tenant_vtime[tenant] = tenant_vtime
                job = _JobQueue(tenant, priority, self._seq, tenant_vtime)
                self._jobs[job_id] = job
            elif job.tenant != tenant:
                raise ValueError(
                    f"job {job_id!r} already enqueued for tenant "
                    f"{job.tenant!r}, not {tenant!r}"
                )
            count = 0
            for task in tasks:
                job.tasks.append(
                    QueuedTask(
                        job_id=job_id,
                        tenant=tenant,
                        priority=priority,
                        task=task,
                        cost=max(float(task.cost_hint), self.min_cost),
                        seq=self._seq,
                    )
                )
                self._seq += 1
                count += 1
            if not job.tasks:
                del self._jobs[job_id]
            return count

    # -- dispatch ------------------------------------------------------

    def next_wave(self, max_tasks: int) -> List[QueuedTask]:
        """Select up to ``max_tasks`` tasks for one dispatch wave.

        Selection repeats: take the best-priority class with pending
        tasks, the least-virtual-time tenant in it, that tenant's
        least-virtual-time job, and the job's next task in compile
        order.  Task keys are unique within the wave — a task whose
        key collides with one already selected stays queued (its whole
        job is deferred to the next wave, preserving per-job task
        order), because the shared pool routes results back to jobs by
        (section, function) and the supervisor dedupes by the same key.
        """
        if max_tasks < 1:
            raise ValueError(f"need at least one task, got {max_tasks}")
        with self._lock:
            wave: List[QueuedTask] = []
            used_keys: set = set()
            blocked: set = set()
            while len(wave) < max_tasks:
                choice = self._select(blocked)
                if choice is None:
                    break
                job_id, job = choice
                head = job.tasks[0]
                if head.task.key in used_keys:
                    blocked.add(job_id)
                    continue
                job.tasks.popleft()
                wave.append(head)
                used_keys.add(head.task.key)
                weight = self._weights.get(job.tenant, self.default_weight)
                self._vfloor = self._tenant_vtime[job.tenant]
                self._tenant_vtime[job.tenant] += head.cost / weight
                job.vtime += head.cost
                if not job.tasks:
                    del self._jobs[job_id]
            self._forget_idle_tenants()
            return wave

    def _forget_idle_tenants(self) -> None:
        """Drop the vtime of every tenant with no queued job whose vtime
        is at most ``L = min(floor, every queued tenant's vtime)``.

        Exact: every later floor is some queued tenant's vtime at a
        dispatch, and every later queued vtime is a present one grown or
        ``max(v, floor)`` at an activation, so by induction neither goes
        below ``L`` (strict priority classes may move the floor down,
        never that far).  A forgotten tenant therefore re-activates at
        ``max(0, floor) == max(v, floor) == floor``, as a remembered one
        would.  Runs once per wave, over the jobs and the remembered
        tenants."""
        queued = {job.tenant for job in self._jobs.values()}
        bound = min(
            [self._vfloor] + [self._tenant_vtime[t] for t in queued]
        )
        for tenant in [
            t for t, v in self._tenant_vtime.items()
            if v <= bound and t not in queued
        ]:
            del self._tenant_vtime[tenant]

    def _select(self, blocked: set) -> Optional[Tuple[str, _JobQueue]]:
        """The (job_id, job) the scheduler picks next, or None."""
        best_priority = None
        for job_id, job in self._jobs.items():
            if job_id in blocked or not job.tasks:
                continue
            if best_priority is None or job.priority < best_priority:
                best_priority = job.priority
        if best_priority is None:
            return None
        chosen: Optional[Tuple[str, _JobQueue]] = None
        chosen_rank = None
        for job_id, job in self._jobs.items():
            if (
                job_id in blocked
                or not job.tasks
                or job.priority != best_priority
            ):
                continue
            rank = (
                self._tenant_vtime[job.tenant],
                job.tenant,
                job.vtime,
                job.seq,
            )
            if chosen_rank is None or rank < chosen_rank:
                chosen, chosen_rank = (job_id, job), rank
        return chosen

    # -- maintenance ---------------------------------------------------

    def discard_job(self, job_id: str) -> int:
        """Drop a job's remaining tasks (cancellation); returns count."""
        with self._lock:
            job = self._jobs.pop(job_id, None)
            if job is None:
                return 0
            return len(job.tasks)

    def has_pending(self) -> bool:
        with self._lock:
            return bool(self._jobs)

    def pending_tasks(self) -> int:
        with self._lock:
            return sum(len(job.tasks) for job in self._jobs.values())
