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
  can be exercised end-to-end.

Because function masters are pure (same task -> same object code), retry
is always safe: the section master cannot tell a first-try result from a
third-try result, and the final download module stays bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterator, List, Optional, Tuple

from ..driver.function_master import FunctionTask, FunctionTaskResult
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
    worker and one draw per fault class from the shared
    :class:`~repro.parallel.fault_schedule.FaultSchedule` — a pure
    function of ``(seed, class, task key, attempt)``, so the injected
    pattern is identical no matter how a supervisor interleaves
    retries, hedges, or timeouts around it, and arming one class never
    moves another's schedule.

    Fault classes (the §5.2 failure taxonomy):

    - **crash** (``crash_rate``): the attempt raises
      :class:`FunctionMasterFailure` attributed to its worker — a killed
      Lisp process;
    - **hang** (``hang_rate``/``hang_delay``): the attempt sleeps before
      compiling — an overloaded or wedged workstation.  The result still
      arrives, just late, which is exactly what deadline enforcement and
      straggler hedging must absorb;
    - **corrupt** (``corrupt_rate``): the attempt succeeds but one byte
      of its ``code`` flips *after* the function master sealed its
      payload digest — a damaged IPC message.  Like a result that
      really crossed a boundary, the damaged one holds no object graph;
    - **worker death** (``dead_workers``): every attempt assigned to a
      dead worker fails — a rebooted host.  Combined with the
      supervisor's quarantine this exercises graceful degradation;
    - **poison** (``poison``): the named tasks crash on *every* worker —
      the task itself is bad, not the host.  Workers are rotated across
      attempts so distinct-worker poison detection triggers.

    The supervisor may call :meth:`exclude_workers` with its current
    quarantine set; excluded workers receive no further attempts (unless
    every worker is excluded, in which case assignment falls back to the
    full set — mirroring a master with nowhere left to send work).
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        workers: int = 4,
        seed: int = 0,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        hang_delay: float = 0.25,
        corrupt_rate: float = 0.0,
        dead_workers: Tuple[str, ...] = (),
        poison: Tuple[Tuple[str, str], ...] = (),
        max_failures_per_task: Optional[int] = None,
        max_hangs_per_task: int = 1,
        max_corruptions_per_task: int = 1,
        sleep=time.sleep,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        for name, rate in (
            ("crash_rate", crash_rate),
            ("hang_rate", hang_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.inner = inner
        self.worker_names = tuple(f"w{i}" for i in range(workers))
        self.schedule = FaultSchedule(seed)
        self.crash_rate = crash_rate
        self.hang_rate = hang_rate
        self.hang_delay = hang_delay
        self.corrupt_rate = corrupt_rate
        self.dead_workers = frozenset(dead_workers)
        self.poison = frozenset(poison)
        self.max_failures_per_task = max_failures_per_task
        self.max_hangs_per_task = max_hangs_per_task
        self.max_corruptions_per_task = max_corruptions_per_task
        self._sleep = sleep
        self._excluded: frozenset = frozenset()
        #: telemetry, per fault class
        self.injected_crashes = 0
        self.injected_hangs = 0
        self.injected_corruptions = 0

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
        plays out, in task order.  This is the supervisor's preferred
        dispatch surface — failures arrive the moment they happen instead
        of poisoning the whole stream with an exception, and start events
        let per-task deadlines measure the attempt itself rather than the
        queueing in front of it."""
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
            elif schedule.fires(
                "crash", key, attempt, self.crash_rate,
                self.max_failures_per_task,
            ):
                crash = f"injected crash on attempt {attempt + 1}"
            if crash is not None:
                self.injected_crashes += 1
                yield (
                    "failure",
                    FunctionMasterFailure(task, crash, worker=worker),
                )
                continue
            if schedule.fires(
                "hang", key, attempt, self.hang_rate, self.max_hangs_per_task
            ):
                self.injected_hangs += 1
                self._sleep(self.hang_delay)
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
                "corrupt", key, attempt, self.corrupt_rate,
                self.max_corruptions_per_task,
            )
            if corrupt:
                self.injected_corruptions += 1
            for result in results:
                if corrupt:
                    # Flip a byte *after* the digest was sealed (the
                    # copy has the bytes and no graph): different code
                    # would link — unless validation catches it.
                    code = bytearray(result.code)
                    code[len(code) // 2] ^= 0xFF
                    result = replace(result, code=bytes(code))
                result.worker = worker
                yield ("result", result)

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        """Yield survivors incrementally; raise the first failure at the
        end of the stream (per-task exception, partial progress kept)."""
        first_failure: Optional[FunctionMasterFailure] = None
        for kind, payload in self.run_tasks_events(tasks):
            if kind == "result":
                yield payload
            elif kind == "failure" and first_failure is None:
                first_failure = payload
        if first_failure is not None:
            raise first_failure
