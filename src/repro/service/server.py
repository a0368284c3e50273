"""The compile service: admission, job lifecycle, shared-pool dispatch.

Architecture (one process, many threads)::

    submit ──▶ admission control ──▶ job queue (per-priority FIFO)
                 │ bounded depth           │
                 │ per-tenant cap          ▼
                 ▼                   runner threads (max_running)
               reject                 one ParallelCompiler per job
                                      phase 1 + cache serve + phase 4
                                           │ cache-miss tasks
                                           ▼
                                  FairShareQueue (tenant/job stride)
                                           │ waves of ≤ 2 × workers
                                           ▼
                                  dispatcher thread ─▶ ONE shared
                                  supervised farm (warm pool or
                                  fleet) ─▶ results routed back
                                  to their jobs by (section, function)

Every job is an ordinary :class:`~repro.driver.master.ParallelCompiler`
compile, run in a runner thread over a per-job backend that detours its
cache-miss tasks through the shared fair-share queue instead of a
private pool.  Per-job state (WorkProfile, combiner, diagnostics)
therefore stays isolated by construction; only pool slots and the
artifact cache are shared.  The shared backend is used exclusively by
the dispatcher thread, one wave at a time, through the same
``run_tasks_streaming`` surface every other caller uses, and it always
runs under :class:`~repro.parallel.supervisor.SupervisedBackend`:
supervision (retries, deadlines, hedging, quarantine) applies per wave
across all tenants' tasks.  A wave is twice the workers the backend has
*now* — a fleet's count moves as nodes come and go.

Backpressure is explicit: a full queue or a tenant over its in-flight
cap raises :class:`AdmissionError` (the socket protocol maps it to an
``ok: false`` reply with a ``reason``) — the service never buffers
unboundedly and never silently drops a job.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Tuple

from ..driver.function_master import FunctionTask, FunctionTaskResult
from ..driver.master import ParallelCompiler
from ..fabric.wire import LineServer, refusal, serve_requests
from ..lang.diagnostics import CompileError
from ..options import CompileOptions
from ..metrics.job_gantt import JobSpan, render_job_gantt
from ..parallel.backend import stream_task_results
from ..parallel.supervisor import SupervisedBackend
from .queue import FairShareQueue, QueuedTask, priority_index

#: job lifecycle states (terminal: done/failed/cancelled)
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
_TERMINAL = frozenset(("done", "failed", "cancelled"))


class AdmissionError(Exception):
    """The service refused a job at the door (explicit backpressure)."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason  # "closed" | "backpressure" | "tenant-cap"


class JobCancelled(Exception):
    """Raised inside a job's compile when its cancellation is observed."""


class ServiceDispatchError(Exception):
    """The shared pool failed a wave; the affected jobs fail with this."""


#: terminal jobs whose reply stays queryable (evicted oldest first)
KEEP_FINISHED = 256


@dataclass
class JobRecord:
    """Everything the service tracks about one compile job."""

    job_id: str
    tenant: str
    priority: str
    source: str
    filename: str
    options: CompileOptions
    submit_seq: int
    state: str = "queued"
    submitted_at: float = 0.0  # monotonic, relative to service start
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    #: a ``done`` job's reply, built once at finish (``report`` is
    #: ``CompilationResult.to_dict()``); the compile itself is not kept
    #: and ``source`` is emptied
    digest: Optional[str] = None
    report: Optional[dict] = None
    diagnostics: Optional[str] = None
    cancel_requested: bool = False
    tasks_total: int = 0
    tasks_done: int = 0
    cache_served: int = 0
    events: List[dict] = field(default_factory=list)
    #: results (or control messages) routed back from the dispatcher
    inbox: "queue_mod.Queue" = field(default_factory=queue_mod.Queue)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL

    def summary(self, detail: bool = False) -> dict:
        """The job document: an overview row, or with ``detail`` the
        full reply of ``status --job`` / ``wait``."""
        data = {
            "job": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "filename": self.filename,
            "submitted_at": round(self.submitted_at, 6),
            "started_at": (
                round(self.started_at, 6)
                if self.started_at is not None
                else None
            ),
            "finished_at": (
                round(self.finished_at, 6)
                if self.finished_at is not None
                else None
            ),
            "tasks_total": self.tasks_total,
            "tasks_done": self.tasks_done,
            "cache_served": self.cache_served,
            "error": self.error,
        }
        if detail and self.report is not None:
            data["digest"] = self.digest
            data["report"] = self.report
            data["diagnostics"] = self.diagnostics
        return data


class _JobBackend:
    """The backend handed to a job's ParallelCompiler: enqueue the
    cache-miss tasks into the shared fair-share queue, then yield results
    as the dispatcher routes them back.  It is no supervisor: the shared
    pool's counters aggregate every tenant's jobs."""

    effective_worker_count = 1

    def __init__(self, service: "CompileService", job: JobRecord):
        self._service = service
        self._job = job

    @property
    def worker_count(self) -> int:
        return self._service.worker_count

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        self.effective_worker_count = min(self.worker_count, len(tasks))
        self._service._submit_tasks(self._job, tasks)
        received = 0
        while received < len(tasks):
            kind, payload = self._job.inbox.get()
            if kind == "result":
                received += 1
                yield payload
            elif kind == "cancel":
                raise JobCancelled(self._job.job_id)
            else:  # "error"
                raise ServiceDispatchError(payload)


class CompileService:
    """A long-lived, multi-tenant compile service over one shared pool.

    ``backend`` may be any :class:`~repro.parallel.backend
    .ExecutionBackend` — typically a
    :class:`~repro.parallel.warm_pool.WarmPoolBackend` or a fleet's
    ``RemoteBackend``; one that is not already a
    :class:`~repro.parallel.supervisor.SupervisedBackend` runs under a
    fresh one, the service's one recovery policy.
    The backend (and cache) is *borrowed*: the service never shuts it
    down.  Watch-mode speculation only warms the artifact cache, so it
    is on exactly when there is one.
    """

    def __init__(
        self,
        backend,
        cache=None,
        *,
        max_queued: int = 32,
        max_running: int = 4,
        per_tenant_inflight: int = 8,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        if max_queued < 1:
            raise ValueError(f"max_queued must be positive, got {max_queued}")
        if max_running < 1:
            raise ValueError(
                f"max_running must be positive, got {max_running}"
            )
        if per_tenant_inflight < 1:
            raise ValueError(
                "per_tenant_inflight must be positive, "
                f"got {per_tenant_inflight}"
            )
        if not isinstance(backend, SupervisedBackend):
            backend = SupervisedBackend(backend)
        self._backend = backend
        self._cache = cache
        self.max_queued = max_queued
        self.max_running = max_running
        self.per_tenant_inflight = per_tenant_inflight

        self.fair_queue = FairShareQueue(tenant_weights)
        self._cond = threading.Condition()
        self._jobs: "OrderedDict[str, JobRecord]" = OrderedDict()
        self._job_ids = itertools.count(1)
        self._submit_seq = itertools.count()
        self._accepting = True
        self._closing = False
        self._closed = False
        self._t0 = time.monotonic()
        #: seeded, so ``status`` always carries all eight keys
        self.counts: Counter = Counter(
            submitted=0, rejected=0, done=0, failed=0, cancelled=0,
            waves=0, tasks_dispatched=0, busy_worker_seconds=0.0,
        )
        self._speculation = None
        if cache is not None:
            from ..predict.watch import SpeculationManager

            self._speculation = SpeculationManager(self)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="warpcc-dispatcher", daemon=True
        )
        self._runners = [
            threading.Thread(
                target=self._runner_loop,
                name=f"warpcc-runner-{i}",
                daemon=True,
            )
            for i in range(max_running)
        ]
        self._dispatcher.start()
        for runner in self._runners:
            runner.start()

    @property
    def worker_count(self) -> int:
        """Workers behind the shared backend now (a fleet's count moves
        as nodes come and go): what sizes a wave, a job's effective
        workers, the busy-time bill and ``status``."""
        return max(1, self._backend.worker_count)

    # -- clock ---------------------------------------------------------

    def _now(self) -> float:
        """Monotonic seconds since the service started."""
        return time.monotonic() - self._t0

    # -- submission / admission ----------------------------------------

    def submit(
        self,
        source: str,
        *,
        tenant: str = "default",
        filename: str = "<input>",
        priority: str = "normal",
        options: CompileOptions = CompileOptions(),
    ) -> str:
        """Admit one compile job; returns its id or raises
        :class:`AdmissionError` (explicit backpressure, never buffering
        beyond the configured bounds)."""
        priority_index(priority)  # validate early, outside the lock
        with self._cond:
            if not self._accepting:
                raise AdmissionError(
                    "service is shutting down", reason="closed"
                )
            queued = sum(
                1 for job in self._jobs.values() if job.state == "queued"
            )
            if queued >= self.max_queued:
                self.counts["rejected"] += 1
                raise AdmissionError(
                    f"queue full ({queued} job(s) queued, "
                    f"max {self.max_queued}); retry later",
                    reason="backpressure",
                )
            inflight = sum(
                1
                for job in self._jobs.values()
                if job.tenant == tenant and not job.terminal
            )
            if inflight >= self.per_tenant_inflight:
                self.counts["rejected"] += 1
                raise AdmissionError(
                    f"tenant {tenant!r} already has {inflight} job(s) "
                    f"in flight (cap {self.per_tenant_inflight})",
                    reason="tenant-cap",
                )
            job = JobRecord(
                job_id=f"j{next(self._job_ids)}",
                tenant=tenant,
                priority=priority,
                source=source,
                filename=filename,
                options=options,
                submit_seq=next(self._submit_seq),
                submitted_at=self._now(),
            )
            self._jobs[job.job_id] = job
            self.counts["submitted"] += 1
            self._event(job, "queued")
            self._cond.notify_all()
            return job.job_id

    def _event(self, job: JobRecord, name: str, **extra) -> None:
        """Append one lifecycle event (caller holds the lock)."""
        record = {
            "seq": len(job.events),
            "time": round(self._now(), 6),
            "event": name,
            "job": job.job_id,
        }
        record.update(extra)
        job.events.append(record)

    # -- job runners ---------------------------------------------------

    def _next_startable(self) -> Optional[JobRecord]:
        """Best queued job: priority class first, then submission order
        (caller holds the lock)."""
        best: Optional[JobRecord] = None
        for job in self._jobs.values():
            if job.state != "queued":
                continue
            if best is None or (
                priority_index(job.priority),
                job.submit_seq,
            ) < (priority_index(best.priority), best.submit_seq):
                best = job
        return best

    def _runner_loop(self) -> None:
        while True:
            with self._cond:
                job = self._next_startable()
                while job is None and not self._closing:
                    self._cond.wait()
                    job = self._next_startable()
                if job is None:
                    return
                if job.cancel_requested:
                    self._finish(job, "cancelled")
                    continue
                job.state = "running"
                job.started_at = self._now()
                self._event(job, "started")
                self._cond.notify_all()
            self._run_job(job)

    def _run_job(self, job: JobRecord) -> None:
        compiler = ParallelCompiler(
            _JobBackend(self, job), job.options, cache=self._cache
        )
        try:
            result = compiler.compile(job.source, filename=job.filename)
        except JobCancelled:
            with self._cond:
                self._finish(job, "cancelled")
        except CompileError as error:
            with self._cond:
                job.error = "\n".join(
                    d.render() for d in error.diagnostics
                )
                self._finish(job, "failed")
        except ServiceDispatchError as error:
            with self._cond:
                job.error = f"pool dispatch failed: {error}"
                self._finish(job, "failed")
        except Exception as error:  # noqa: BLE001 - job isolation barrier
            with self._cond:
                job.error = f"{type(error).__name__}: {error}"
                self._finish(job, "failed")
        else:
            report = result.to_dict()  # built once, outside the lock
            with self._cond:
                # A cancel that raced the last result loses: the work is
                # done and bit-identical, so completing wins.
                job.digest = result.digest
                job.report = report
                job.diagnostics = result.diagnostics_text
                job.cache_served = result.profile.counts.get(
                    "artifact_cache.hits", 0
                )
                self._finish(job, "done", digest=result.digest)

    def _finish(self, job: JobRecord, state: str, **extra) -> None:
        """Move a job to a terminal state (caller holds the lock)."""
        if job.terminal:
            return
        job.state = state
        job.finished_at = self._now()
        job.source = ""
        self.counts[state] += 1
        self._event(job, state, **extra)
        self._evict_finished()
        self._cond.notify_all()

    def _evict_finished(self) -> None:
        terminal = [
            job_id
            for job_id, job in self._jobs.items()
            if job.terminal
        ]
        excess = len(terminal) - KEEP_FINISHED
        for job_id in terminal[:max(0, excess)]:
            del self._jobs[job_id]

    # -- shared-pool dispatcher ----------------------------------------

    def _submit_tasks(self, job: JobRecord, tasks: List[FunctionTask]) -> None:
        """Called from a job thread: feed its tasks to the fair queue."""
        with self._cond:
            if job.cancel_requested:
                raise JobCancelled(job.job_id)
            job.tasks_total = len(tasks)
            self.fair_queue.enqueue(
                job.job_id,
                job.tenant,
                priority_index(job.priority),
                tasks,
            )
            self._event(job, "tasks_queued", tasks=len(tasks))
            self._cond.notify_all()

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self.fair_queue.has_pending():
                    active = any(
                        not job.terminal for job in self._jobs.values()
                    )
                    if self._closing and not active:
                        return
                    self._cond.wait()
                workers = self.worker_count
                wave = self.fair_queue.next_wave(2 * workers)
            if wave:
                self._run_wave(wave, workers)

    def _run_wave(self, wave: List[QueuedTask], workers: int) -> None:
        tasks = [queued.task for queued in wave]
        route: Dict[Tuple[str, str], QueuedTask] = {
            queued.task.key: queued for queued in wave
        }
        wave_start = self._now()
        error: Optional[BaseException] = None
        try:
            for result in stream_task_results(self._backend, tasks):
                self._route_result(route, result, wave_start)
        except BaseException as exc:  # noqa: BLE001 - isolate wave failure
            error = exc
        wave_end = self._now()
        with self._cond:
            self.counts["waves"] += 1
            self.counts["tasks_dispatched"] += len(tasks)
            self.counts["busy_worker_seconds"] += (
                wave_end - wave_start
            ) * min(len(tasks), workers)
            if route:
                # Keys never routed: the wave died (pool failure) or the
                # backend under-delivered.  Fail every involved job.
                message = (
                    repr(error)
                    if error is not None
                    else f"backend returned no result for {sorted(route)}"
                )
                for job_id in {queued.job_id for queued in route.values()}:
                    job = self._jobs.get(job_id)
                    if job is not None and not job.terminal:
                        job.inbox.put(("error", message))
                self._cond.notify_all()

    def _route_result(
        self,
        route: Dict[Tuple[str, str], QueuedTask],
        result: FunctionTaskResult,
        wave_start: float,
    ) -> None:
        key = result.key
        with self._cond:
            queued = route.pop(key, None)
            if queued is None:
                return  # late duplicate or unknown — drop
            job = self._jobs.get(queued.job_id)
            if job is None or job.terminal or job.cancel_requested:
                return  # a cancelled job's sentinel is already queued
            job.tasks_done += 1
            # the job's event log is its one record of its tasks: the
            # Gantt chart draws each from its wave start to ``time``
            self._event(
                job,
                "function_done",
                function=f"{key[0]}.{key[1]}",
                start=round(wave_start, 6),
            )
            job.inbox.put(("result", result))
            self._cond.notify_all()

    # -- queries -------------------------------------------------------

    def _job(self, job_id: str) -> JobRecord:
        """The job by id (caller holds the lock)."""
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job

    def job(self, job_id: str) -> JobRecord:
        with self._cond:
            return self._job(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobRecord:
        """Block until the job reaches a terminal state."""
        with self._cond:
            job = self._job(job_id)
            if not self._cond.wait_for(lambda: job.terminal, timeout):
                raise TimeoutError(
                    f"job {job_id} still {job.state} after {timeout}s"
                )
            return job

    def events_since(
        self,
        job_id: str,
        index: int,
        timeout: Optional[float] = None,
    ) -> Tuple[List[dict], bool]:
        """(new events after ``index``, job-is-terminal) — blocks until
        there is something new, the job ends, or ``timeout`` passes."""
        with self._cond:
            job = self._job(job_id)
            self._cond.wait_for(
                lambda: len(job.events) > index or job.terminal, timeout
            )
            return list(job.events[index:]), job.terminal

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs cancel immediately; running jobs
        are interrupted at their next dispatch boundary (results already
        computed are discarded).  Returns False for terminal jobs."""
        with self._cond:
            job = self._job(job_id)
            if job.terminal:
                return False
            self._cancel(job)
            return True

    def _cancel(self, job: JobRecord) -> None:
        """Mark a live job cancelled: a queued one finishes now, a
        running one is told through its inbox (caller holds the lock)."""
        job.cancel_requested = True
        self.fair_queue.discard_job(job.job_id)
        if job.state == "queued":
            self._finish(job, "cancelled")
        else:
            job.inbox.put(("cancel", None))
        self._cond.notify_all()

    def jobs_summary(self) -> List[dict]:
        with self._cond:
            return [job.summary() for job in self._jobs.values()]

    # -- watch-mode speculation ----------------------------------------

    @property
    def speculation(self):
        """The SpeculationManager, or None on a service with no
        artifact cache (speculation's only effect is to warm one)."""
        return self._speculation

    def watch_update(
        self,
        source: str,
        *,
        watch: str = "default",
        filename: str = "<watch>",
        options: CompileOptions = CompileOptions(),
    ) -> dict:
        """One watch-mode edit: fingerprint-diff the module against the
        watch key's previous snapshot and (maybe) launch a speculative
        ``batch``-priority job under the speculation tenant.  Returns
        the outcome document; never raises for speculation failures."""
        if self._speculation is None:
            return {
                "watch": watch,
                "speculation": False,
                "job": None,
                "dirty": 0,
                "functions": [],
                "superseded": False,
                "reason": "speculation-disabled",
            }
        return self._speculation.update(
            source, watch=watch, filename=filename, options=options
        )

    def service_stats(self) -> dict:
        with self._cond:
            elapsed = self._now()
            stats = dict(self.counts)
            stats["busy_worker_seconds"] = round(
                stats["busy_worker_seconds"], 6
            )
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            stats.update(
                {
                    "elapsed": round(elapsed, 6),
                    "workers": self.worker_count,
                    "jobs": counts,
                    "pending_tasks": self.fair_queue.pending_tasks(),
                    "utilization": round(self.pool_utilization(), 4),
                    "accepting": self._accepting,
                }
            )
            # what the shared backend's supervisor did about failures
            stats["supervision"] = dict(self._backend.counts)
            fleet_stats = getattr(self._backend, "fleet_stats", None)
            if fleet_stats is not None:
                stats["fabric"] = fleet_stats()
            if self._speculation is not None:
                stats["speculation"] = self._speculation.stats()
            return stats

    def pool_utilization(self) -> float:
        """Busy worker-seconds over elapsed capacity (0 when idle)."""
        elapsed = self._now()
        if elapsed <= 0:
            return 0.0
        return min(
            1.0,
            self.counts["busy_worker_seconds"]
            / (self.worker_count * elapsed),
        )

    def gantt(
        self, job_id: Optional[str] = None, width: int = 72
    ) -> str:
        """Per-job Gantt over the shared pool's slots (see
        :mod:`repro.metrics.job_gantt`), drawn from the ``function_done``
        events of the jobs the service still holds."""
        with self._cond:
            spans = [
                JobSpan(
                    job_id=job.job_id,
                    label=event["function"],
                    start=event["start"],
                    end=event["time"],
                )
                for job in self._jobs.values()
                if job_id is None or job.job_id == job_id
                for event in job.events
                if event["event"] == "function_done"
            ]
        return render_job_gantt(
            spans, width=width, slots=self.worker_count
        )

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> None:
        """Stop admitting; wait until every accepted job is terminal."""
        with self._cond:
            self._accepting = False
            self._cond.notify_all()
            if not self._cond.wait_for(
                lambda: all(job.terminal for job in self._jobs.values()),
                timeout,
            ):
                raise TimeoutError("drain timed out")

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: optionally drain and stop the worker
        threads; the borrowed backend keeps running."""
        if self._closed:
            return
        with self._cond:
            self._accepting = False
            if not drain:
                for job in list(self._jobs.values()):
                    if not job.terminal and not job.cancel_requested:
                        self._cancel(job)
            self._cond.notify_all()
        self.drain(timeout=timeout)
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=10)
        for runner in self._runners:
            runner.join(timeout=10)
        self._closed = True

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close(drain=exc_type is None)
        return False


# ---------------------------------------------------------------------------
# JSON-lines socket protocol.
#
# One request per line; the reply is one JSON line, except "wait" with
# "stream": true, which sends one {"event": ...} line per job event
# before the final {"ok": true, ...} line.  Errors are answered by the
# endpoint's one policy (repro.fabric.wire).
# ---------------------------------------------------------------------------

PROTOCOL_VERSION = 1


def _request_options(request: dict) -> CompileOptions:
    """A request's ``opt_level`` / ``cells`` as the options its job keeps."""
    return CompileOptions(
        opt_level=int(request.get("opt_level", 2)),
        cell_count=int(request.get("cells", 10)),
    )


class ServiceSocketServer:
    """``warpcc serve``: the service's verbs behind the JSON-lines
    endpoint (:class:`~repro.fabric.wire.LineServer`).

    Binds localhost by default (the service trusts its peers exactly as
    much as any local compiler invocation).  ``port=0`` picks a free
    ephemeral port; read :attr:`address` after construction.
    """

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.verbs = {
            "ping": self._ping,
            "submit": self._submit,
            "status": self._status,
            "wait": self._wait,
            "watch": self._watch,
            "cancel": self._cancel,
            "shutdown": self._shutdown,
        }
        self.endpoint = LineServer(
            host, port, partial(serve_requests, verbs=self.verbs)
        )
        self._shutdown_drain = True

    @property
    def address(self) -> str:
        return self.endpoint.address

    def request_shutdown(self, drain: bool = True) -> None:
        """Ask the serve loop to stop (callable from handler threads)."""
        self._shutdown_drain = drain
        threading.Thread(target=self.endpoint.shutdown, daemon=True).start()

    def serve_until_shutdown(self) -> None:
        """Serve requests until a ``shutdown`` op (or KeyboardInterrupt),
        then drain the service and close everything."""
        try:
            self.endpoint.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.endpoint.server_close()
            self.service.close(drain=self._shutdown_drain)

    # -- verbs: request -> one reply, or an iterator of them -----------

    def _ping(self, request: dict) -> dict:
        return {"ok": True, "service": "warpcc", "protocol": PROTOCOL_VERSION}

    def _submit(self, request: dict) -> dict:
        try:
            job_id = self.service.submit(
                request["source"],
                tenant=request.get("tenant", "default"),
                filename=request.get("filename", "<input>"),
                priority=request.get("priority", "normal"),
                options=_request_options(request),
            )
        except AdmissionError as error:
            return refusal(error, error.reason)
        return {"ok": True, "job": job_id, "state": "queued"}

    def _status(self, request: dict) -> dict:
        service = self.service
        job_id = request.get("job")
        if job_id is None:
            reply = {
                "ok": True,
                "stats": service.service_stats(),
                "jobs": service.jobs_summary(),
            }
        else:
            try:
                job = service.job(job_id)
            except KeyError as error:
                return refusal(error, "unknown-job")
            reply = {"ok": True, "job": job.summary(detail=True)}
        if request.get("gantt"):
            reply["gantt"] = service.gantt(
                job_id, width=int(request.get("width", 72))
            )
        return reply

    def _wait(self, request: dict) -> Iterator[dict]:
        service = self.service
        job_id = request.get("job")
        try:
            if request.get("stream"):
                index = 0
                terminal = False
                while not terminal:
                    events, terminal = service.events_since(
                        job_id, index, timeout=0.5
                    )
                    for event in events:
                        yield {"ok": True, "event": event}
                    index += len(events)
            job = service.wait(job_id, timeout=request.get("timeout"))
        except KeyError as error:
            yield refusal(error, "unknown-job")
        except TimeoutError as error:
            yield refusal(error, "timeout")
        else:
            yield {"ok": True, "job": job.summary(detail=True)}

    def _watch(self, request: dict) -> dict:
        source = request.get("source")
        if source is None:
            return refusal("watch requires a source field", "bad-request")
        outcome = self.service.watch_update(
            source,
            watch=str(request.get("watch", "default")),
            filename=request.get("filename", "<watch>"),
            options=_request_options(request),
        )
        return {"ok": True, **outcome}

    def _cancel(self, request: dict) -> dict:
        try:
            cancelled = self.service.cancel(request.get("job"))
        except KeyError as error:
            return refusal(error, "unknown-job")
        return {"ok": True, "cancelled": cancelled}

    def _shutdown(self, request: dict) -> Iterator[dict]:
        drain = bool(request.get("drain", True))
        yield {"ok": True, "draining": drain}  # answered before stopping
        self.request_shutdown(drain)
