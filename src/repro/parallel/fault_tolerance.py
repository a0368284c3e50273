"""Deterministic fault injection for the function-master farm.

The paper's §5.2 is a lament about exactly this: "it is hard to make a
parallel program reliable ... the application code becomes unwieldy as it
tries to account for all possible failures in the child processes and
their host processors."  The careful master that accounts for them is
:class:`repro.parallel.supervisor.SupervisedBackend` (retries,
deadlines, hedging, quarantine, poison isolation); this module is the
other half, the faults to be careful about:

- :class:`FunctionMasterFailure` is how one attempt's death (injected
  or real) is reported to the supervisor;
- :class:`ChaosBackend` is the fault suite — clean crashes, hangs
  (slow tasks), corrupt result payloads, whole-worker death, and poison
  tasks that crash on every worker — over a set of *simulated named
  workers*, so the supervisor's health tracking and quarantine logic
  can be exercised end-to-end.  Its rates, budgets, hang time and
  counts live in the one seeded
  :class:`~repro.parallel.fault_schedule.FaultSchedule` it is given.

Because function masters are pure (same task -> same object code), retry
is always safe: the section master cannot tell a first-try result from a
third-try result, and the final download module stays bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterator, List, Optional, Tuple

from ..driver.function_master import FunctionTask
from .backend import ExecutionBackend, stream_task_results
from .fault_schedule import FaultSchedule


class FunctionMasterFailure(Exception):
    """One function master died (injected or real).

    ``worker`` names the workstation the attempt ran on when the backend
    knows it (the fault suite's simulated workers always do; real pools
    usually don't) — the supervisor uses it for health attribution and
    for counting *distinct-worker* failures toward poison detection.
    """

    def __init__(
        self, task: FunctionTask, reason: str, worker: Optional[str] = None
    ):
        self.task = task
        self.reason = reason
        self.worker = worker
        at = f" on {worker}" if worker else ""
        super().__init__(
            f"function master {task.section_name}.{task.function_name} "
            f"failed{at}: {reason}"
        )


class ChaosBackend:
    """The full fault suite: crashes, hangs, corruption, death, poison.

    Wraps an inner backend with a set of *simulated named workers*
    (``w0`` .. ``wN-1``).  Every (task, attempt) pair is assigned a
    worker and one decision per fault kind from ``schedule`` (a
    :class:`~repro.parallel.fault_schedule.FaultSchedule`, which holds
    every rate, budget and count) — a pure function of ``(seed, kind,
    task key, attempt)``, so the injected pattern is identical no matter
    how a supervisor interleaves retries, hedges, or timeouts around it,
    and arming one kind never moves another's schedule.

    Fault kinds (the §5.2 failure taxonomy):

    - **crash**: the attempt raises :class:`FunctionMasterFailure`
      attributed to its worker — a killed Lisp process;
    - **hang**: the attempt sleeps ``schedule.delay`` before compiling —
      an overloaded or wedged workstation.  The result still arrives,
      just late, which is exactly what deadline enforcement and
      straggler hedging must absorb;
    - **corrupt**: the attempt succeeds but one byte of its ``code``
      flips *after* the function master sealed its payload digest — a
      damaged IPC message.  Like a result that really crossed a
      boundary, the damaged one holds no object graph;
    - **worker death** (``dead_workers``): every attempt assigned to a
      dead worker fails — a rebooted host.  Combined with the
      supervisor's quarantine this exercises graceful degradation;
    - **poison** (``poison``): the named tasks crash on *every* worker —
      the task itself is bad, not the host.  Workers are rotated across
      attempts so distinct-worker poison detection triggers.

    Death and poison crashes count as ``schedule.fired["crash"]`` too.
    The one surface is :meth:`run_tasks_events`: like a fabric hub, a
    farm that reports faults is read by the supervisor alone.  The
    supervisor may call :meth:`exclude_workers` with its current
    quarantine set; excluded workers receive no further attempts (unless
    every worker is excluded, in which case assignment falls back to the
    full set — mirroring a master with nowhere left to send work).
    """

    #: how a hang waits; a test sets it on the instance
    sleep = staticmethod(time.sleep)

    def __init__(
        self,
        inner: ExecutionBackend,
        schedule: FaultSchedule,
        workers: int = 4,
        dead_workers: Tuple[str, ...] = (),
        poison: Tuple[Tuple[str, str], ...] = (),
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.inner = inner
        self.schedule = schedule
        self.worker_names = tuple(f"w{i}" for i in range(workers))
        self.dead_workers = frozenset(dead_workers)
        self.poison = frozenset(poison)
        self._excluded: frozenset = frozenset()

    @property
    def worker_count(self) -> int:
        return len(self.worker_names)

    @property
    def effective_worker_count(self) -> int:
        return self.inner.effective_worker_count

    def exclude_workers(self, names) -> None:
        """Stop assigning attempts to ``names`` (the supervisor's
        quarantine set).  Passing an empty set re-admits everyone."""
        self._excluded = frozenset(names)

    def _assign_worker(self, key: str, attempt: int) -> str:
        """Rotate each task over the non-excluded workers, starting at a
        key-derived offset — deterministic, and guarantees consecutive
        attempts of one task land on *distinct* workers."""
        available = [
            w for w in self.worker_names if w not in self._excluded
        ] or list(self.worker_names)
        start = int(self.schedule.roll("worker", key, 0) * (1 << 32))
        return available[(start + attempt) % len(available)]

    # -- execution ----------------------------------------------------

    def run_tasks_events(self, tasks: List[FunctionTask]) -> Iterator[tuple]:
        """Incremental event stream: yields ``("start", task)`` when an
        attempt begins, then ``("result", r)`` / ``("failure", f)`` as it
        plays out, in task order.  Failures arrive the moment they
        happen, and start events let per-task deadlines measure the
        attempt itself rather than the queueing in front of it."""
        schedule = self.schedule
        for task in tasks:
            key = f"{task.section_name}.{task.function_name}"
            attempt = schedule.take("attempt", key)
            worker = self._assign_worker(key, attempt)
            yield ("start", task)

            crash = None  # why this attempt dies before it starts
            if task.key in self.poison:
                crash = f"poison task crashed (attempt {attempt + 1})"
            elif worker in self.dead_workers:
                crash = f"worker {worker} is dead"
            if crash is not None:
                schedule.record("crash")
            elif schedule.fires("crash", key, attempt):
                crash = f"injected crash on attempt {attempt + 1}"
            if crash is not None:
                yield (
                    "failure",
                    FunctionMasterFailure(task, crash, worker=worker),
                )
                continue
            if schedule.fires("hang", key, attempt):
                self.sleep(schedule.delay)
            try:
                results = list(stream_task_results(self.inner, [task]))
            except FunctionMasterFailure as failure:
                failure.worker = failure.worker or worker
                yield ("failure", failure)
                continue
            except Exception as error:  # a real child-process death
                yield (
                    "failure",
                    FunctionMasterFailure(task, repr(error), worker=worker),
                )
                continue
            corrupt = bool(results) and schedule.fires(
                "corrupt", key, attempt
            )
            for result in results:
                if corrupt and result.code:  # a refusal has none to flip
                    # Flip a byte *after* the digest was sealed (the
                    # copy has the bytes and no graph): different code
                    # would link — unless validation catches it.
                    code = bytearray(result.code)
                    code[len(code) // 2] ^= 0xFF
                    result = replace(result, code=bytes(code))
                result.worker = worker
                yield ("result", result)
