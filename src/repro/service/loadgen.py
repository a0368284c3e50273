"""Seeded open-loop load generator for the compile service.

Open loop means arrivals do not wait for completions: the generator
draws a Poisson arrival schedule, a tenant, a priority, and a workload
size for every job up front from one seeded RNG, then submits on that
schedule regardless of how the service is keeping up — which is what
exposes queueing behavior (admission rejections, p95 latency growth)
that closed-loop drivers structurally cannot see.

The plan (:func:`plan_load`) is a pure function of the spec, so two
runs with the same seed submit byte-identical modules in the same
order at the same offsets; only service timing varies.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..options import CompileOptions
from ..workloads.kernels import synthetic_function
from ..workloads.sizes import SIZE_CLASSES, lines_for
from ..workloads.synthetic import synthetic_program
from .server import AdmissionError, CompileService


@dataclass
class LoadSpec:
    """What to throw at the service."""

    seed: int = 0
    jobs: int = 16
    #: mean arrival rate (jobs/second); exponential inter-arrivals
    arrival_rate: float = 6.0
    #: tenant name -> sampling weight (who submits)
    tenants: Dict[str, float] = field(
        default_factory=lambda: {"alice": 1.0, "bob": 1.0}
    )
    #: size class -> sampling weight (how big the module is)
    size_mix: Dict[str, float] = field(
        default_factory=lambda: {"tiny": 0.6, "small": 0.3, "medium": 0.1}
    )
    #: size class -> functions per module
    functions_by_size: Dict[str, int] = field(
        default_factory=lambda: {
            "tiny": 6,
            "small": 4,
            "medium": 2,
            "large": 2,
            "huge": 1,
        }
    )
    #: priority class -> sampling weight
    priority_mix: Dict[str, float] = field(
        default_factory=lambda: {"normal": 1.0}
    )
    options: CompileOptions = CompileOptions()

    def validate(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival rate must be positive, got {self.arrival_rate}"
            )
        for size in self.size_mix:
            if size not in SIZE_CLASSES:
                raise KeyError(f"unknown size class {size!r}")


@dataclass(frozen=True)
class PlannedJob:
    """One pre-drawn arrival."""

    index: int
    at: float  # seconds after the run starts
    tenant: str
    priority: str
    size_class: str
    n_functions: int
    module_name: str
    source: str


def _weighted_choice(rng: random.Random, mix: Dict[str, float]) -> str:
    names = sorted(mix)
    weights = [mix[name] for name in names]
    return rng.choices(names, weights=weights, k=1)[0]


def plan_load(spec: LoadSpec) -> List[PlannedJob]:
    """Draw the full arrival schedule (deterministic in the seed)."""
    spec.validate()
    rng = random.Random(spec.seed)
    plan: List[PlannedJob] = []
    clock = 0.0
    for index in range(spec.jobs):
        clock += rng.expovariate(spec.arrival_rate)
        tenant = _weighted_choice(rng, spec.tenants)
        priority = _weighted_choice(rng, spec.priority_mix)
        size_class = _weighted_choice(rng, spec.size_mix)
        n_functions = spec.functions_by_size.get(size_class, 2)
        module_name = f"load_{spec.seed}_{index}_{size_class}"
        plan.append(
            PlannedJob(
                index=index,
                at=clock,
                tenant=tenant,
                priority=priority,
                size_class=size_class,
                n_functions=n_functions,
                module_name=module_name,
                source=synthetic_program(
                    size_class, n_functions, module_name=module_name
                ),
            )
        )
    return plan


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = -(-q * len(sorted_values) // 1)  # ceil(q * n)
    rank = min(len(sorted_values), max(1, int(rank)))
    return sorted_values[rank - 1]


@dataclass
class LoadReport:
    """Throughput/latency outcome of one load-generation run."""

    spec_seed: int
    jobs_planned: int
    jobs_completed: int
    jobs_failed: int
    jobs_rejected: int
    elapsed: float
    throughput: float  # completed jobs / second
    latency_p50: float
    latency_p95: float
    latency_mean: float
    queue_wait_p50: float
    queue_wait_p95: float
    pool_utilization: float
    workers: int
    per_tenant_completed: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.spec_seed,
            "jobs_planned": self.jobs_planned,
            "jobs_completed": self.jobs_completed,
            "jobs_failed": self.jobs_failed,
            "jobs_rejected": self.jobs_rejected,
            "elapsed_s": round(self.elapsed, 6),
            "throughput_jobs_per_s": round(self.throughput, 4),
            "latency_p50_s": round(self.latency_p50, 6),
            "latency_p95_s": round(self.latency_p95, 6),
            "latency_mean_s": round(self.latency_mean, 6),
            "queue_wait_p50_s": round(self.queue_wait_p50, 6),
            "queue_wait_p95_s": round(self.queue_wait_p95, 6),
            "pool_utilization": round(self.pool_utilization, 4),
            "workers": self.workers,
            "per_tenant_completed": dict(
                sorted(self.per_tenant_completed.items())
            ),
        }


def run_load(
    service: CompileService,
    spec: LoadSpec,
    *,
    time_scale: float = 1.0,
    wait_timeout: Optional[float] = 300.0,
) -> LoadReport:
    """Drive ``service`` with the spec's arrival schedule and measure.

    ``time_scale`` compresses the schedule (0.5 = twice as fast) so
    benchmarks can sweep offered load without changing the seed's draw
    sequence.  Rejected submissions (admission control) are counted and
    skipped — open loop never retries.
    """
    plan = plan_load(spec)
    start = time.monotonic()
    submitted: List[tuple] = []  # (PlannedJob, job_id)
    rejected = 0
    for planned in plan:
        target = start + planned.at * time_scale
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            job_id = service.submit(
                planned.source,
                tenant=planned.tenant,
                filename=f"{planned.module_name}.w2",
                priority=planned.priority,
                options=spec.options,
            )
        except AdmissionError:
            rejected += 1
            continue
        submitted.append((planned, job_id))

    latencies: List[float] = []
    queue_waits: List[float] = []
    per_tenant: Dict[str, int] = {}
    failed = 0
    for planned, job_id in submitted:
        job = service.wait(job_id, timeout=wait_timeout)
        if job.state != "done":
            failed += 1
            continue
        latencies.append(job.finished_at - job.submitted_at)
        if job.started_at is not None:
            queue_waits.append(job.started_at - job.submitted_at)
        per_tenant[planned.tenant] = per_tenant.get(planned.tenant, 0) + 1
    elapsed = time.monotonic() - start

    latencies.sort()
    queue_waits.sort()
    return LoadReport(
        spec_seed=spec.seed,
        jobs_planned=len(plan),
        jobs_completed=len(latencies),
        jobs_failed=failed,
        jobs_rejected=rejected,
        elapsed=elapsed,
        throughput=len(latencies) / elapsed if elapsed > 0 else 0.0,
        latency_p50=_percentile(latencies, 0.50),
        latency_p95=_percentile(latencies, 0.95),
        latency_mean=(
            statistics.fmean(latencies) if latencies else 0.0
        ),
        queue_wait_p50=_percentile(queue_waits, 0.50),
        queue_wait_p95=_percentile(queue_waits, 0.95),
        pool_utilization=service.pool_utilization(),
        workers=service.worker_count,
        per_tenant_completed=per_tenant,
    )


# ---------------------------------------------------------------------------
# Edit-session replay: the watch-mode speculation benchmark workload.
#
# A seeded "user" edits one module repeatedly: each step mutates one
# function (cumulatively, like a real editing session), optionally
# streams the new source as a watch update, pauses while speculation
# runs, then submits interactively — the submit-to-done latency is what
# speculation is supposed to collapse into cache hits.  The plan is a
# pure function of the spec, so speculation-on and speculation-off runs
# replay byte-identical sources in the same order.
# ---------------------------------------------------------------------------


@dataclass
class EditSessionSpec:
    """One seeded editing session over a single synthetic module."""

    seed: int = 0
    edits: int = 8
    functions: int = 4
    size_class: str = "small"
    options: CompileOptions = CompileOptions()
    module_name: Optional[str] = None

    def validate(self) -> None:
        if self.edits < 1:
            raise ValueError(f"need at least one edit, got {self.edits}")
        if self.functions < 1:
            raise ValueError(
                f"need at least one function, got {self.functions}"
            )
        if self.size_class not in SIZE_CLASSES:
            raise KeyError(f"unknown size class {self.size_class!r}")

    @property
    def name(self) -> str:
        if self.module_name is not None:
            return self.module_name
        return f"edit_{self.seed}_{self.size_class}"


@dataclass(frozen=True)
class EditStep:
    """The module text after one edit."""

    index: int
    function: str  # name of the function this step mutated
    source: str


def _insert_before_return(function_text: str, statement: str) -> str:
    """Insert one statement line just above the function's return."""
    lines = function_text.split("\n")
    for position in range(len(lines) - 1, -1, -1):
        stripped = lines[position].lstrip()
        if stripped.startswith("return"):
            pad = lines[position][: len(lines[position]) - len(stripped)]
            lines.insert(position, f"{pad}{statement}")
            return "\n".join(lines)
    raise ValueError("function text has no return statement")


def plan_edit_session(spec: EditSessionSpec) -> List[EditStep]:
    """Draw the full session (deterministic in the seed): each step
    picks a function and appends a fresh statement to it, so every
    step's fingerprint differs from the last in exactly one function."""
    spec.validate()
    rng = random.Random(spec.seed)
    lines = lines_for(spec.size_class)
    bodies = [
        synthetic_function(f"f{i + 1}", lines)
        for i in range(spec.functions)
    ]
    steps: List[EditStep] = []
    for index in range(spec.edits):
        target = rng.randrange(spec.functions)
        constant = round(rng.uniform(0.001, 0.999), 6)
        bodies[target] = _insert_before_return(
            bodies[target], f"x := x + {constant};"
        )
        body = "\n".join(bodies)
        source = (
            f"module {spec.name}\n"
            f"section sec1 (cells 0..0)\n"
            f"{body}\n"
            f"end\n"
            f"end\n"
        )
        steps.append(
            EditStep(index=index, function=f"f{target + 1}", source=source)
        )
    return steps


@dataclass
class EditSessionReport:
    """Interactive latency outcome of one replayed edit session."""

    spec_seed: int
    edits: int
    completed: int
    failed: int
    speculate: bool
    interactive_p50: float
    interactive_p95: float
    interactive_mean: float
    tasks_total: int
    cache_served: int
    digests: List[str] = field(default_factory=list)
    speculation: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.spec_seed,
            "edits": self.edits,
            "completed": self.completed,
            "failed": self.failed,
            "speculate": self.speculate,
            "interactive_p50_s": round(self.interactive_p50, 6),
            "interactive_p95_s": round(self.interactive_p95, 6),
            "interactive_mean_s": round(self.interactive_mean, 6),
            "tasks_total": self.tasks_total,
            "cache_served": self.cache_served,
            "speculation": dict(self.speculation),
        }


def replay_edit_session(
    service: CompileService,
    spec: EditSessionSpec,
    *,
    speculate: bool = True,
    tenant: str = "editor",
    settle_timeout: Optional[float] = 120.0,
    wait_timeout: Optional[float] = 300.0,
) -> EditSessionReport:
    """Replay the session against ``service`` and measure interactive
    submit-to-done latency.

    With ``speculate=True`` each edit is streamed as a watch update
    first, and the "think time" before the interactive submit lasts
    until the speculative job settles (a user pausing long enough for
    speculation to finish — the best case the bench is guarding).  With
    ``speculate=False`` the same sources are submitted cold.
    """
    steps = plan_edit_session(spec)
    latencies: List[float] = []
    digests: List[str] = []
    failed = 0
    tasks_total = 0
    cache_served = 0
    for step in steps:
        filename = f"{spec.name}.w2"
        if speculate:
            outcome = service.watch_update(
                step.source,
                watch=spec.name,
                filename=filename,
                options=spec.options,
            )
            job_id = outcome.get("job")
            if job_id is not None:
                try:
                    service.wait(job_id, timeout=settle_timeout)
                except (KeyError, TimeoutError):
                    pass  # speculation is best-effort; submit anyway
        try:
            job_id = service.submit(
                step.source,
                tenant=tenant,
                filename=filename,
                priority="interactive",
                options=spec.options,
            )
        except AdmissionError:
            failed += 1
            continue
        job = service.wait(job_id, timeout=wait_timeout)
        if job.state != "done":
            failed += 1
            continue
        latencies.append(job.finished_at - job.submitted_at)
        digests.append(job.digest)
        tasks_total += job.tasks_total
        cache_served += job.cache_served
    latencies.sort()
    manager = getattr(service, "speculation", None)
    return EditSessionReport(
        spec_seed=spec.seed,
        edits=len(steps),
        completed=len(digests),
        failed=failed,
        speculate=speculate,
        interactive_p50=_percentile(latencies, 0.50),
        interactive_p95=_percentile(latencies, 0.95),
        interactive_mean=(
            statistics.fmean(latencies) if latencies else 0.0
        ),
        tasks_total=tasks_total,
        cache_served=cache_served,
        digests=digests,
        speculation=manager.stats() if manager is not None else {},
    )
