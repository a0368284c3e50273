"""Supervised task execution: deadlines, hedging, quarantine, isolation.

The paper's §5.2 observes that on a network of autonomous workstations
"it is hard to make a parallel program reliable": the master must survive
crashed Lisp processes, rebooted hosts, *and* arbitrarily slow nodes —
first-come-first-served dispatch means one wedged workstation can hold a
whole section hostage.  :class:`SupervisedBackend` packages the careful
master the paper wished for, around any execution backend:

1. **Per-task deadlines.**  Each attempt gets a deadline derived from the
   §4.3 cost estimate (``max(floor, multiplier * cost_hint)``, or a fixed
   ``task_timeout``).  Backends that emit ``("start", task)`` events have
   the deadline armed when the attempt actually begins, so queueing
   behind other tasks never counts against it; other backends measure
   from dispatch.  An attempt that misses its deadline is abandoned
   (an event stream offering ``abandon(task)`` is told: it frees what
   the attempt held and names who held it) and resubmitted; if its late
   result shows up anyway, first-result-wins applies and the duplicate
   is dropped.

2. **Straggler hedging.**  Once ``hedge_after`` of the wave has resolved,
   laggards get a duplicate attempt launched alongside the original.
   Function masters are pure — same task, same object code — so whichever
   attempt finishes first is kept and the other deduped by task key.

3. **Worker health and quarantine.**  Failures are attributed to the
   worker that produced them (or to the farm as a whole when the backend
   can't say — once for a dispatch whose stream dies, however many tasks
   it held).  ``quarantine_after`` consecutive failures put a worker in
   timed quarantine with exponentially backed-off re-admission.  When
   *every* worker the backend names (``worker_names``) is quarantined —
   or it names none: a fleet with no live node — dispatch gracefully
   degrades to the fallback (default: an in-process
   :class:`~repro.parallel.local.SerialBackend`) instead of failing the
   build.

4. **Poison-task isolation.**  A task that fails on ``poison_threshold``
   distinct workers (or exhausts ``max_attempts``) is pulled out of the
   farm and compiled in-process once, to capture the real traceback.  If
   even that fails, the function is surfaced as a stubbed, per-function
   diagnostic while the rest of the module still compiles.

5. **Result validation.**  Function masters seal a payload digest —
   the SHA-256 of the encoded object code — before it crosses the IPC
   boundary; the supervisor re-hashes the bytes on receipt.  A mismatch
   is treated as an attempt failure — a corrupted payload is re-run,
   never linked.

The supervisor consumes dispatches through whatever incremental surface
the inner backend offers (``run_tasks_events``, else streaming),
feeding an event queue from daemon dispatch threads so the consuming
section master keeps recombining while stragglers are hedged.  It is
the one recovery policy: a backend reports what happened to a task, the
supervisor decides — a pool's faults and a fleet's
(:class:`~repro.fabric.hub.FabricHub` reports them as events;
``RemoteBackend`` is this class over a hub) take the same path, and
INTERNALS.md §Supervision tabulates event → decision → counter.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..asmlink.objformat import ObjectFunction
from ..driver.function_master import (
    FunctionTask,
    FunctionTaskResult,
    attach_assembly,
    result_payload_digest,
    run_function_master,
)
from ..driver.results import FunctionReport
from .backend import stream_task_results
from .fault_tolerance import FunctionMasterFailure
from .local import SerialBackend

#: pseudo-worker for failures the backend can't attribute to a host —
#: health recorded against it tracks the farm as a whole.
FARM = "<farm>"

#: sentinel distinguishing "no entry" from "entry with no deadline yet"
_MISSING = object()


@dataclass
class _WorkerHealth:
    consecutive_failures: int = 0
    quarantined_until: float = 0.0
    spells: int = 0


class WorkerHealthTracker:
    """Per-worker consecutive-failure counting with timed quarantine.

    ``quarantine_after`` consecutive failures start a quarantine spell of
    ``backoff_base * 2**(spells-1)`` seconds (capped at ``backoff_cap``) —
    a worker that keeps misbehaving after re-admission is benched for
    exponentially longer.  Any success resets the consecutive count.

    The three are class constants; a test that needs another value sets
    it on the instance (``backend.health.quarantine_after = 100``).
    """

    quarantine_after: int = 2
    backoff_base: float = 0.25
    backoff_cap: float = 30.0

    def __init__(self):
        self._workers: Dict[str, _WorkerHealth] = {}

    def record_success(self, worker: str) -> None:
        health = self._workers.get(worker)
        if health is None:
            return
        if health.spells:
            health.consecutive_failures = 0
        else:
            # Never benched: reset, the entry equals a fresh one, so it
            # goes — a fleet's churned node names do not pile up.
            self._workers.pop(worker, None)

    def record_failure(self, worker: str, now: float) -> bool:
        """Record one failure; returns True when this failure *starts* a
        new quarantine spell."""
        health = self._workers.setdefault(worker, _WorkerHealth())
        health.consecutive_failures += 1
        if (
            health.consecutive_failures >= self.quarantine_after
            and health.quarantined_until <= now
        ):
            health.spells += 1
            pause = min(
                self.backoff_base * (2 ** (health.spells - 1)),
                self.backoff_cap,
            )
            health.quarantined_until = now + pause
            health.consecutive_failures = 0
            return True
        return False

    def quarantined(self, now: float) -> frozenset:
        return frozenset(
            name
            for name, health in self._workers.items()
            if health.quarantined_until > now
        )

    def all_quarantined(self, now: float, workers) -> bool:
        """True when none of ``workers`` — the names health is recorded
        against — is admissible: every one is benched, there are none
        (the backend has no capacity), or the farm pseudo-worker is
        quarantined (unattributed failures piled up)."""
        benched = self.quarantined(now)
        return FARM in benched or not set(workers) - benched


class SupervisedBackend:
    """Wrap any backend with deadlines, hedging, quarantine, isolation.

    Parameters
    ----------
    task_timeout:
        Fixed per-attempt deadline in seconds.  ``None`` (default)
        derives the deadline from the task's cost hint as
        ``max(timeout_floor, timeout_multiplier * cost_hint)``; ``0``
        disables deadlines entirely.
    hedge_after:
        Fraction of the wave that must be resolved before laggards get
        duplicate attempts.  ``None`` disables hedging.
    max_attempts:
        Farm attempts per task (including hedges) before isolation.
    poison_threshold:
        Failures on this many *distinct* workers flag a task as poison.
    fallback:
        Backend used once every worker is quarantined (default: a fresh
        in-process :class:`SerialBackend`).
    isolation_runner:
        Callable used to compile a poison task in-process (default:
        :func:`run_function_master`); injectable for tests.
    clock:
        Monotonic time source; injectable for tests.

    The wrapper is transparent: unknown attributes (``worker_count``
    and ``effective_worker_count`` among them) delegate to the inner
    backend, and ``self.counts`` / ``self.health`` persist across
    compiles so the driver can snapshot per-compile deltas.

    The class constants below are values no caller varies; a test that
    needs another sets it on the instance (``backend.timeout_floor =
    1.0``), as it does the health tracker's.
    """

    #: derived deadline: ``max(timeout_floor, timeout_multiplier *
    #: cost_hint)`` seconds
    timeout_floor: float = 10.0
    timeout_multiplier: float = 0.05
    #: seconds an attempt must have run before it is hedged — keeps the
    #: no-fault overhead at zero for fast waves
    hedge_min_age: float = 1.0

    def __init__(
        self,
        inner,
        task_timeout: Optional[float] = None,
        hedge_after: Optional[float] = 0.75,
        max_attempts: int = 3,
        poison_threshold: int = 3,
        fallback=None,
        isolation_runner=None,
        clock=time.monotonic,
    ):
        if max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {max_attempts}")
        if poison_threshold < 1:
            raise ValueError(
                f"poison threshold must be positive, got {poison_threshold}"
            )
        if hedge_after is not None and not 0.0 < hedge_after <= 1.0:
            raise ValueError(
                f"hedge_after must be in (0, 1] or None, got {hedge_after}"
            )
        self.inner = inner
        self.task_timeout = task_timeout
        self.hedge_after = hedge_after
        self.max_attempts = max_attempts
        self.poison_threshold = poison_threshold
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.isolation_runner = (
            isolation_runner
            if isolation_runner is not None
            else run_function_master
        )
        self.clock = clock
        #: over the supervisor's lifetime: ``timeouts``,
        #: ``hedges_launched``, ``hedges_won``, ``retries``,
        #: ``quarantines``, ``poisoned_tasks``, ``degradations``,
        #: ``corrupt_payloads``, ``late_duplicates``
        self.counts: Counter = Counter()
        self.health = WorkerHealthTracker()

    def __getattr__(self, name: str):
        # Only reached for attributes SupervisedBackend itself lacks; the
        # __dict__ lookup avoids recursing before __init__ ran.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def timeout_for(self, task: FunctionTask) -> Optional[float]:
        """Seconds this task's attempts may run, or None for no deadline."""
        if self.task_timeout is not None:
            return self.task_timeout if self.task_timeout > 0 else None
        return max(
            self.timeout_floor,
            self.timeout_multiplier * max(float(task.cost_hint), 1.0),
        )

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        return _SupervisedRun(self, list(tasks)).run()


@dataclass
class _TaskState:
    task: FunctionTask
    attempts: int = 0
    failures: List[Tuple[Optional[str], str]] = field(default_factory=list)
    distinct_workers: Set[str] = field(default_factory=set)
    resolved: bool = False
    isolating: bool = False
    hedged: bool = False
    #: dispatch id -> deadline (monotonic seconds) or None
    active: Dict[int, Optional[float]] = field(default_factory=dict)
    last_started: float = 0.0


@dataclass
class _Dispatch:
    id: int
    kind: str  # "wave" | "retry" | "hedge" | "fallback"
    keys: Set[tuple]
    abandoned: Set[tuple] = field(default_factory=set)
    failed: Set[tuple] = field(default_factory=set)
    #: keys whose attempt the backend reported as actually started
    started: Set[tuple] = field(default_factory=set)
    #: deadlines armed on the backend's "start" event instead of at
    #: dispatch, so queueing behind other tasks doesn't count
    arm_on_start: bool = False
    #: the backend's event stream; one that offers ``abandon(task)``
    #: frees what an expired attempt holds and names who held it
    stream: object = None
    error: Optional[BaseException] = None


class _SupervisedRun:
    """One streaming run: an event loop in the consuming thread fed by
    daemon dispatch threads.  All supervision state is touched only from
    the consumer side; dispatch threads just push events."""

    def __init__(self, sup: SupervisedBackend, tasks: List[FunctionTask]):
        self.sup = sup
        self.counts = sup.counts
        self.health = sup.health
        self.tasks = tasks
        self.states: Dict[tuple, _TaskState] = {
            task.key: _TaskState(task=task) for task in tasks
        }
        self.dispatches: Dict[int, _Dispatch] = {}
        self.events: "queue.Queue" = queue.Queue()
        self._next_id = 0

    # -- dispatch side ------------------------------------------------

    def _dispatch_thread(self, dispatch: _Dispatch, tasks, backend) -> None:
        put = self.events.put
        try:
            events = getattr(backend, "run_tasks_events", None)
            if events is not None:
                dispatch.stream = events(tasks)
                for kind, payload in dispatch.stream:
                    put((dispatch.id, kind, payload))
            else:
                for result in stream_task_results(backend, tasks):
                    put((dispatch.id, "result", result))
        except FunctionMasterFailure as failure:
            put((dispatch.id, "failure", failure))
        except BaseException as error:  # keep the real reason for the sweep
            put((dispatch.id, "broken", error))
        finally:
            put((dispatch.id, "done", None))

    def _launch(self, tasks: List[FunctionTask], kind: str) -> None:
        now = self.sup.clock()
        if kind != "fallback":
            # A backend that names no workers has the farm as its one.
            workers = getattr(self.sup.inner, "worker_names", (FARM,))
            if self.health.all_quarantined(now, workers):
                kind = "fallback"
                self.counts["degradations"] += 1
        if kind == "fallback":
            backend = self.sup.fallback
        else:
            backend = self.sup.inner
            exclude = getattr(backend, "exclude_workers", None)
            if exclude is not None:
                exclude(self.health.quarantined(now) - {FARM})
        dispatch = _Dispatch(
            id=self._next_id, kind=kind, keys={t.key for t in tasks}
        )
        dispatch.arm_on_start = kind != "fallback" and hasattr(
            backend, "run_tasks_events"
        )
        self._next_id += 1
        self.dispatches[dispatch.id] = dispatch
        for task in tasks:
            state = self.states[task.key]
            state.attempts += 1
            if kind == "fallback" or dispatch.arm_on_start:
                # fallback: the last resort must be allowed to finish.
                # arm_on_start: the deadline is armed when the backend
                # reports the attempt actually began, so time queued
                # behind other tasks doesn't count against it.
                deadline = None
            else:
                seconds = self.sup.timeout_for(task)
                deadline = None if seconds is None else now + seconds
            state.active[dispatch.id] = deadline
            state.last_started = now
        thread = threading.Thread(
            target=self._dispatch_thread,
            args=(dispatch, list(tasks), backend),
            daemon=True,
        )
        thread.start()

    # -- consumer side ------------------------------------------------

    def run(self) -> Iterator[FunctionTaskResult]:
        if not self.tasks:
            return
        self._launch(self.tasks, "wave")
        while any(not s.resolved for s in self.states.values()):
            self._maybe_hedge()
            try:
                dispatch_id, kind, payload = self.events.get(
                    timeout=self._next_wake()
                )
            except queue.Empty:
                yield from self._expire(self.sup.clock())
                continue
            dispatch = self.dispatches.get(dispatch_id)
            if dispatch is None:
                continue
            if kind == "start":
                self._on_start(dispatch, payload)
            elif kind == "result":
                yield from self._on_result(dispatch, payload)
            elif kind == "failure":
                yield from self._on_failure(dispatch, payload)
            elif kind == "broken":
                dispatch.error = payload
            elif kind == "done":
                yield from self._on_done(dispatch)
            yield from self._expire(self.sup.clock())

    def _next_wake(self) -> Optional[float]:
        """Seconds until the earliest deadline or hedge-age wakeup; None
        blocks until the next event."""
        wakes: List[float] = []
        for state in self.states.values():
            if state.resolved:
                continue
            wakes.extend(
                deadline
                for deadline in state.active.values()
                if deadline is not None
            )
        if self._hedge_threshold_met():
            for state in self.states.values():
                if self._hedge_candidate(state, ignore_age=True):
                    wakes.append(state.last_started + self.sup.hedge_min_age)
        if not wakes:
            return None
        return max(0.01, min(wakes) - self.sup.clock())

    def _on_start(self, dispatch: _Dispatch, task: FunctionTask) -> None:
        """The backend reports an attempt actually began: arm the real
        per-attempt deadline now (arm-on-start dispatches launch with no
        deadline so queueing doesn't eat the budget)."""
        dispatch.started.add(task.key)
        state = self.states.get(task.key)
        if state is None or state.resolved:
            return
        if dispatch.kind != "fallback" and dispatch.id in state.active:
            now = self.sup.clock()
            seconds = self.sup.timeout_for(state.task)
            if seconds is not None:
                state.active[dispatch.id] = now + seconds
            state.last_started = now

    def _on_result(
        self, dispatch: _Dispatch, result: FunctionTaskResult
    ) -> Iterator[FunctionTaskResult]:
        state = self.states.get(result.key)
        if state is None:
            return  # a result for a task we never dispatched
        if result_payload_digest(result) != result.payload_digest:
            self.counts["corrupt_payloads"] += 1
            yield from self._attempt_failed(
                dispatch, result.key, result.worker, "corrupt result payload"
            )
            return
        if dispatch.kind != "fallback":
            if result.worker:
                self.health.record_success(result.worker)
            self.health.record_success(FARM)
        if state.resolved:  # first result won already
            self.counts["late_duplicates"] += 1
            return
        self._resolve(state, dispatch)
        yield result

    def _resolve(self, state: _TaskState, dispatch: Optional[_Dispatch]) -> None:
        state.resolved = True
        state.active.clear()
        if dispatch is not None and dispatch.kind == "hedge":
            self.counts["hedges_won"] += 1

    def _on_failure(
        self, dispatch: _Dispatch, failure: FunctionMasterFailure
    ) -> Iterator[FunctionTaskResult]:
        yield from self._attempt_failed(
            dispatch, failure.task.key, failure.worker, failure.reason
        )

    def _attempt_failed(
        self,
        dispatch: _Dispatch,
        tkey: tuple,
        worker: Optional[str],
        reason: str,
        blame: bool = True,
    ) -> Iterator[FunctionTaskResult]:
        state = self.states.get(tkey)
        if state is None or state.resolved or tkey in dispatch.failed:
            return
        dispatch.failed.add(tkey)
        state.active.pop(dispatch.id, None)
        state.failures.append((worker, reason))
        state.distinct_workers.add(worker or f"?{len(state.failures)}")
        if blame and dispatch.kind != "fallback":
            if self.health.record_failure(worker or FARM, self.sup.clock()):
                self.counts["quarantines"] += 1
        yield from self._next_move(state)

    def _next_move(self, state: _TaskState) -> Iterator[FunctionTaskResult]:
        if state.resolved or state.isolating:
            return
        if state.active:
            return  # another attempt is still in flight
        if (
            len(state.distinct_workers) >= self.sup.poison_threshold
            or state.attempts >= self.sup.max_attempts
        ):
            yield from self._isolate(state)
        else:
            self.counts["retries"] += 1
            self._launch([state.task], "retry")

    def _on_done(self, dispatch: _Dispatch) -> Iterator[FunctionTaskResult]:
        """A dispatch's stream ended.  Each task it still held spends the
        attempt it was launched with, but the farm is blamed once for the
        whole stream, however many tasks it held: one worker crash takes
        a pool's executor and every task on it, and must not bench the
        farm on its own."""
        self.dispatches.pop(dispatch.id, None)
        reason = "dispatch finished without a result"
        if dispatch.error is not None:
            reason = f"dispatch crashed: {dispatch.error!r}"
        blame = True
        for tkey in dispatch.keys:
            state = self.states.get(tkey)
            if state is None or state.resolved:
                continue
            if tkey in dispatch.failed or tkey in dispatch.abandoned:
                continue
            if dispatch.id in state.active:
                yield from self._attempt_failed(
                    dispatch, tkey, None, reason, blame
                )
                blame = False

    def _expire(self, now: float) -> Iterator[FunctionTaskResult]:
        suspects: Set[int] = set()
        for tkey, state in self.states.items():
            if state.resolved or state.isolating:
                continue
            expired = [
                dispatch_id
                for dispatch_id, deadline in state.active.items()
                if deadline is not None and deadline <= now
            ]
            if not expired:
                continue
            for dispatch_id in expired:
                state.active.pop(dispatch_id, None)
                dispatch = self.dispatches.get(dispatch_id)
                worker = None
                if dispatch is not None:
                    dispatch.abandoned.add(tkey)
                    suspects.add(dispatch_id)
                    abandon = getattr(dispatch.stream, "abandon", None)
                    if abandon is not None:
                        worker = abandon(state.task)
                self.counts["timeouts"] += 1
                state.failures.append((worker, "deadline expired"))
                if dispatch is None or dispatch.kind != "fallback":
                    if self.health.record_failure(worker or FARM, now):
                        self.counts["quarantines"] += 1
            yield from self._next_move(state)
        for dispatch_id in suspects:
            self._arm_queued(dispatch_id, now)

    def _arm_queued(self, dispatch_id: int, now: float) -> None:
        """A deadline fired inside an arm-on-start dispatch, so its worker
        thread may be wedged mid-attempt.  Arm deadlines for the tasks
        still queued behind it (never started, so still unarmed) — if the
        thread stays stuck they time out and get retried individually
        instead of waiting forever for a start event."""
        dispatch = self.dispatches.get(dispatch_id)
        if dispatch is None or not dispatch.arm_on_start:
            return
        for tkey in dispatch.keys:
            state = self.states.get(tkey)
            if state is None or state.resolved or tkey in dispatch.started:
                continue
            if state.active.get(dispatch_id, _MISSING) is None:
                seconds = self.sup.timeout_for(state.task)
                if seconds is not None:
                    state.active[dispatch_id] = now + seconds

    # -- hedging ------------------------------------------------------

    def _hedge_threshold_met(self) -> bool:
        if self.sup.hedge_after is None:
            return False
        total = len(self.states)
        if total < 2:
            return False
        resolved = sum(1 for s in self.states.values() if s.resolved)
        return resolved / total >= self.sup.hedge_after

    def _hedge_candidate(self, state: _TaskState, ignore_age: bool = False) -> bool:
        if (
            state.resolved
            or state.isolating
            or state.hedged
            or not state.active
            or state.attempts >= self.sup.max_attempts
        ):
            return False
        if ignore_age:
            return True
        age = self.sup.clock() - state.last_started
        return age >= self.sup.hedge_min_age

    def _maybe_hedge(self) -> None:
        if not self._hedge_threshold_met():
            return
        laggards = [
            state
            for state in self.states.values()
            if self._hedge_candidate(state)
        ]
        if not laggards:
            return
        for state in laggards:
            state.hedged = True
        self.counts["hedges_launched"] += len(laggards)
        self._launch([state.task for state in laggards], "hedge")

    # -- poison isolation ---------------------------------------------

    def _isolate(self, state: _TaskState) -> Iterator[FunctionTaskResult]:
        state.isolating = True
        self.counts["poisoned_tasks"] += 1
        task = state.task
        name = f"{task.section_name}.{task.function_name}"
        attempts = len(state.failures)
        reasons = "; ".join(
            dict.fromkeys(reason for _, reason in state.failures)
        )
        try:
            result = self.sup.isolation_runner(task)
        except BaseException:
            trace = traceback.format_exc().rstrip()
            result = self._stub_result(task)
            result.report.failed = 1
            message = (
                f"error: {name}: poison task isolated after {attempts} "
                f"failed farm attempt(s) ({reasons}); in-process compile "
                f"failed:\n{trace}"
            )
        else:
            message = (
                f"warning: {name}: isolated after {attempts} failed farm "
                f"attempt(s) ({reasons}); compiled in-process"
            )
        result.report.poisoned = 1
        result.diagnostics.insert(0, message)
        self._resolve(state, None)
        yield result

    def _stub_result(self, task: FunctionTask) -> FunctionTaskResult:
        """Placeholder result for a task whose in-process compile failed:
        empty object code plus a zeroed report, so the section still
        recombines and the rest of the module links."""
        return attach_assembly(
            ObjectFunction(
                name=task.function_name, section_name=task.section_name
            ),
            FunctionReport(
                section_name=task.section_name,
                name=task.function_name,
                source_lines=0,
                ir_instructions=0,
                loop_weight=0,
                work_units=0,
                bundles=0,
                pipelined_loops=0,
            ),
        )
