"""Compile-service benchmarks: seeded open-loop load over the shared
warm pool.

The service's claim is operational, not raw-speed: N concurrent jobs
from several tenants share ONE warm farm and ONE artifact cache with
fair-share interleaving, and under a seeded open-loop arrival schedule
the job-latency distribution stays sane — small jobs are bounded by a
wave of queueing delay, not by whatever huge module arrived first.

Results land in ``benchmarks/out/BENCH_service.json`` (p50/p95 job
latency, queue wait, pool utilization, per-tenant completions) — the
trajectory point CI archives for the service smoke job.
"""

import json
import platform

from repro.parallel.warm_pool import WarmPoolBackend
from repro.service import CompileService, LoadSpec, plan_load, run_load

WORKERS = 2

SPEC = LoadSpec(
    seed=42,
    jobs=12,
    arrival_rate=30.0,
    tenants={"alice": 1.0, "bob": 1.0},
    size_mix={"tiny": 0.7, "small": 0.3},
    functions_by_size={"tiny": 3, "small": 2},
)


def test_open_loop_load_meets_latency_and_utilization_bars(results_dir):
    backend = WarmPoolBackend(max_workers=WORKERS)
    try:
        with CompileService(
            backend, max_running=4, max_queued=SPEC.jobs
        ) as service:
            report = run_load(service, SPEC, time_scale=0.2)
    finally:
        backend.shutdown()

    summary = dict(
        report.to_dict(),
        arrival_rate_jobs_per_s=SPEC.arrival_rate,
        size_mix=SPEC.size_mix,
        python=platform.python_version(),
    )
    (results_dir / "BENCH_service.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    (results_dir / "service_load.txt").write_text(
        f"{report.jobs_planned} jobs, seed {SPEC.seed}, "
        f"{WORKERS} worker(s), 2 tenants\n"
        f"completed/failed/rejected: {report.jobs_completed}/"
        f"{report.jobs_failed}/{report.jobs_rejected}\n"
        f"job latency p50/p95:   {report.latency_p50:.3f}s / "
        f"{report.latency_p95:.3f}s\n"
        f"queue wait p50/p95:    {report.queue_wait_p50:.3f}s / "
        f"{report.queue_wait_p95:.3f}s\n"
        f"throughput:            {report.throughput:.2f} jobs/s\n"
        f"pool utilization:      {report.pool_utilization:.1%}\n"
    )
    print(f"\nservice load: p50 {report.latency_p50:.3f}s, "
          f"p95 {report.latency_p95:.3f}s, "
          f"utilization {report.pool_utilization:.1%}, "
          f"{report.jobs_completed}/{report.jobs_planned} completed")

    # The guards.  Every planned job must finish (the queue is sized to
    # admit the whole schedule), the percentiles must be ordered and
    # positive, and the shared pool must have been meaningfully busy —
    # an idle pool would mean the dispatcher serialized the jobs.
    assert report.jobs_completed == report.jobs_planned
    assert report.jobs_failed == 0 and report.jobs_rejected == 0
    assert 0 < report.latency_p50 <= report.latency_p95
    assert report.latency_p95 < 60.0
    assert 0.0 < report.pool_utilization <= 1.0
    # both tenants got service (fair share, not starvation)
    assert set(report.per_tenant_completed) == {"alice", "bob"}
    planned_tenants = {job.tenant for job in plan_load(SPEC)}
    assert planned_tenants == {"alice", "bob"}


def test_fair_share_bounds_small_job_latency_behind_huge_one(results_dir):
    """The monopolization guard, measured: a burst of tiny jobs
    arriving just after a huge module must not wait for the huge
    module to finish."""
    huge_spec = LoadSpec(
        seed=7,
        jobs=5,
        arrival_rate=1000.0,  # effectively simultaneous
        tenants={"heavy": 1.0, "light": 1.0},
        size_mix={"large": 0.2, "tiny": 0.8},
        functions_by_size={"large": 4, "tiny": 2},
    )
    backend = WarmPoolBackend(max_workers=WORKERS)
    try:
        with CompileService(
            backend, max_running=5, max_queued=8
        ) as service:
            report = run_load(service, huge_spec, time_scale=0.01)
            jobs_seen = {
                event["job"]
                for row in service.jobs_summary()
                for event in service.job(row["job"]).events
                if event["event"] == "function_done"
            }
    finally:
        backend.shutdown()

    assert report.jobs_completed == report.jobs_planned
    # tiny jobs' p50 must be well under the whole run's makespan: they
    # were interleaved, not queued behind the large module
    assert report.latency_p50 < report.elapsed
    assert len(jobs_seen) >= 2  # the pool really was shared
    (results_dir / "service_fairness.txt").write_text(
        f"{huge_spec.jobs} near-simultaneous jobs "
        f"(large + tiny mix), {WORKERS} worker(s)\n"
        f"p50 {report.latency_p50:.3f}s, p95 {report.latency_p95:.3f}s, "
        f"makespan {report.elapsed:.3f}s\n"
        f"jobs interleaved on pool: {len(jobs_seen)}\n"
    )
