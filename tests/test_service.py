"""The in-process compile service: concurrency, admission, lifecycle."""

import threading

import pytest

from repro.cache import ArtifactCache
from repro.driver.sequential import SequentialCompiler
from repro.parallel.backend import stream_task_results
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.service import AdmissionError, CompileService
from repro.workloads.synthetic import synthetic_program


def _module(name, body="send(v * 2.0);"):
    return (
        f"module {name}\n"
        "section s (cells 0..0)\n"
        "  function main()\n"
        "  var v: float; k: int;\n"
        "  begin\n"
        f"    for k := 1 to 3 do receive(v); {body} end;\n"
        "  end\n"
        "end\n"
        "end\n"
    )


class GateBackend:
    """Serial backend whose dispatch blocks until the gate opens —
    lets tests hold jobs in 'running' while probing admission."""

    def __init__(self):
        self.inner = SerialBackend()
        self.gate = threading.Event()
        self.worker_count = 1

    def run_tasks_streaming(self, tasks):
        self.gate.wait(timeout=30.0)
        yield from stream_task_results(self.inner, tasks)


class ShutdownProbe(SerialBackend):
    def __init__(self):
        super().__init__()
        self.shutdowns = 0

    def shutdown(self):
        self.shutdowns += 1


def _wait_for(predicate, timeout=10.0):
    done = threading.Event()

    def poll():
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                done.set()
                return
            time.sleep(0.01)

    thread = threading.Thread(target=poll, daemon=True)
    thread.start()
    assert done.wait(timeout), "condition never became true"


class TestConcurrentJobs:
    def test_four_jobs_two_tenants_bit_identical(self):
        """The acceptance bar: N concurrent jobs through the shared
        pool produce digests identical to solo sequential compiles."""
        sources = {
            f"mt_{size}_{i}": synthetic_program(
                size, 3, module_name=f"mt_{size}_{i}"
            )
            for i, size in enumerate(["tiny", "small", "tiny", "small"])
        }
        expected = {
            name: SequentialCompiler().compile(source).digest
            for name, source in sources.items()
        }
        with CompileService(SerialBackend(), max_running=4) as service:
            jobs = {}
            for index, (name, source) in enumerate(sources.items()):
                jobs[name] = service.submit(
                    source,
                    tenant="alice" if index % 2 == 0 else "bob",
                    filename=f"{name}.w2",
                )
            for name, job_id in jobs.items():
                job = service.wait(job_id, timeout=60.0)
                assert job.state == "done", job.error
                assert job.digest == expected[name]

    def test_work_profiles_are_isolated_per_job(self):
        """Concurrent jobs must not bleed counters or function reports
        into each other's profiles."""
        a = synthetic_program("tiny", 4, module_name="iso_a")
        b = synthetic_program("small", 2, module_name="iso_b")
        with CompileService(SerialBackend(), max_running=2) as service:
            ja = service.submit(a, tenant="alice", filename="iso_a.w2")
            jb = service.submit(b, tenant="bob", filename="iso_b.w2")
            ra = service.wait(ja, timeout=60.0).report
            rb = service.wait(jb, timeout=60.0).report
        assert ra["module"] == "iso_a" and rb["module"] == "iso_b"
        assert len(ra["profile"]["functions"]) == 4
        assert len(rb["profile"]["functions"]) == 2
        a_names = {f["name"] for f in ra["profile"]["functions"]}
        b_names = {f["name"] for f in rb["profile"]["functions"]}
        assert not (a_names & b_names & {"<crossed>"})
        assert a_names.isdisjoint(b_names) or a_names != b_names

    def test_shared_cache_serves_repeat_submission(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        source = _module("cached_mod")
        with CompileService(SerialBackend(), cache) as service:
            first = service.wait(
                service.submit(source, tenant="alice"), timeout=60.0
            )
            second = service.wait(
                service.submit(source, tenant="bob"), timeout=60.0
            )
        assert first.state == "done" and second.state == "done"
        assert second.digest == first.digest
        assert second.cache_served >= 1

    def test_a_job_queues_one_task_per_cache_miss(self, tmp_path):
        """One task, one function, one result: what a job hands the fair
        queue — ``tasks_total``, and the results it waits for — is the
        functions the cache could not serve."""
        source = synthetic_program("tiny", 3)
        edited = source.replace("x * 2.0", "x * 3.0", 1)  # f1 only
        cache = ArtifactCache(str(tmp_path / "cache"))
        with CompileService(SerialBackend(), cache) as service:
            cold, warm, one_edit = (
                service.wait(service.submit(text), timeout=60.0)
                for text in (source, source, edited)
            )
        assert [job.state for job in (cold, warm, one_edit)] == ["done"] * 3
        assert (cold.tasks_total, cold.cache_served) == (3, 0)
        assert (warm.tasks_total, warm.cache_served) == (0, 3)
        assert (one_edit.tasks_total, one_edit.cache_served) == (1, 2)
        assert one_edit.tasks_done == 1
        assert one_edit.digest == SequentialCompiler().compile(edited).digest

    def test_supervised_backend_composes_unchanged(self):
        source = _module("supervised_mod")
        expected = SequentialCompiler().compile(source).digest
        backend = SupervisedBackend(SerialBackend())
        with CompileService(backend) as service:
            job = service.wait(service.submit(source), timeout=60.0)
        assert job.state == "done"
        assert job.digest == expected


class TestWaveSizing:
    def test_waves_follow_a_fleet_that_grows(self):
        """``serve --fabric-port`` starts before its nodes: the service
        reads the backend's worker count at every wave, so once a node
        of three workers joins, waves hold six tasks — and status, the
        busy-time bill and a job's effective workers count three."""
        from repro.fabric import FabricHub, RemoteBackend, WorkerNodeAgent

        class ThreeWorkers(SerialBackend):
            worker_count = 3

        source = synthetic_program("tiny", 8, module_name="grow")
        with FabricHub(lease_ttl=5.0, heartbeat_interval=0.5) as hub:
            with CompileService(RemoteBackend(hub)) as service:
                assert service.service_stats()["workers"] == 1
                agent = WorkerNodeAgent(
                    hub.address, ThreeWorkers(), node_id="late"
                ).start()
                try:
                    assert hub.wait_for_nodes(1, timeout=10.0)
                    assert service.service_stats()["workers"] == 3
                    job = service.wait(service.submit(source), timeout=60.0)
                    stats = service.service_stats()
                finally:
                    agent.stop()
        assert job.state == "done", job.error
        assert job.digest == SequentialCompiler().compile(source).digest
        assert job.report["profile"]["workers_used"] == 3
        assert (stats["waves"], stats["tasks_dispatched"]) == (2, 8)


class TestAdmission:
    def test_backpressure_rejects_when_queue_full(self):
        backend = GateBackend()
        service = CompileService(backend, max_queued=1, max_running=1)
        try:
            running = service.submit(_module("bp_run"), tenant="a")
            _wait_for(lambda: service.job(running).state == "running")
            service.submit(_module("bp_q1"), tenant="a")
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(_module("bp_q2"), tenant="a")
            assert excinfo.value.reason == "backpressure"
            assert service.stats["rejected"] == 1
        finally:
            backend.gate.set()
            service.close()

    def test_per_tenant_inflight_cap(self):
        backend = GateBackend()
        service = CompileService(
            backend, max_queued=8, max_running=1, per_tenant_inflight=1
        )
        try:
            service.submit(_module("cap_a1"), tenant="alice")
            with pytest.raises(AdmissionError) as excinfo:
                service.submit(_module("cap_a2"), tenant="alice")
            assert excinfo.value.reason == "tenant-cap"
            # other tenants are unaffected by alice's cap
            service.submit(_module("cap_b1"), tenant="bob")
        finally:
            backend.gate.set()
            service.close()

    def test_submit_after_close_is_rejected(self):
        service = CompileService(SerialBackend())
        service.close()
        with pytest.raises(AdmissionError) as excinfo:
            service.submit(_module("late"))
        assert excinfo.value.reason == "closed"


class TestLifecycle:
    def test_cancel_queued_job(self):
        backend = GateBackend()
        service = CompileService(backend, max_running=1)
        try:
            running = service.submit(_module("cq_run"))
            _wait_for(lambda: service.job(running).state == "running")
            queued = service.submit(_module("cq_wait"))
            assert service.cancel(queued) is True
            assert service.job(queued).state == "cancelled"
        finally:
            backend.gate.set()
            service.close()
        assert service.wait(running).state == "done"

    def test_cancel_running_job(self):
        backend = GateBackend()
        service = CompileService(backend, max_running=1)
        try:
            job_id = service.submit(_module("cr_run"))
            _wait_for(lambda: service.job(job_id).state == "running")
            assert service.cancel(job_id) is True
            backend.gate.set()
            job = service.wait(job_id, timeout=30.0)
            assert job.state == "cancelled"
        finally:
            backend.gate.set()
            service.close()

    def test_cancel_terminal_job_is_noop(self):
        with CompileService(SerialBackend()) as service:
            job_id = service.submit(_module("ct_done"))
            service.wait(job_id, timeout=60.0)
            assert service.cancel(job_id) is False

    def test_compile_error_fails_only_that_job(self):
        bad = (
            "module broken\nsection s (cells 0..0)\n"
            "function main() begin undeclared := 1; end\nend\nend\n"
        )
        with CompileService(SerialBackend(), max_running=2) as service:
            bad_id = service.submit(bad, tenant="alice")
            good_id = service.submit(_module("still_fine"), tenant="bob")
            bad_job = service.wait(bad_id, timeout=60.0)
            good_job = service.wait(good_id, timeout=60.0)
        assert bad_job.state == "failed"
        assert "undeclared" in bad_job.error
        assert good_job.state == "done"

    def test_close_drains_queued_work(self):
        service = CompileService(SerialBackend(), max_running=2)
        ids = [
            service.submit(_module(f"drain_{i}"), tenant=f"t{i % 2}")
            for i in range(4)
        ]
        service.close(drain=True)
        for job_id in ids:
            assert service.job(job_id).state == "done"

    def test_borrowed_backend_is_never_shut_down(self):
        backend = ShutdownProbe()
        service = CompileService(backend)
        service.wait(service.submit(_module("borrowed")), timeout=60.0)
        service.close()
        assert service.owns_backend is False
        assert backend.shutdowns == 0

    def test_events_trace_job_lifecycle(self):
        with CompileService(SerialBackend()) as service:
            job_id = service.submit(_module("ev_mod"))
            service.wait(job_id, timeout=60.0)
            events, terminal = service.events_since(job_id, 0, timeout=0)
        assert terminal is True
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert names[-1] == "done"
        assert "started" in names and "function_done" in names

    def test_gantt_attributes_slots_to_jobs(self):
        with CompileService(SerialBackend(), max_running=2) as service:
            ja = service.submit(
                synthetic_program("tiny", 3, module_name="g_a"),
                tenant="alice",
            )
            jb = service.submit(
                synthetic_program("tiny", 3, module_name="g_b"),
                tenant="bob",
            )
            service.wait(ja, timeout=60.0)
            service.wait(jb, timeout=60.0)
            chart = service.gantt()
            utilization = service.pool_utilization()
        assert "slot 0" in chart
        assert ja in chart and jb in chart
        assert 0.0 <= utilization <= 1.0


def _stable(report):
    """A job report without what legitimately differs between two
    compiles of the same source: wall-clock fields and the per-process
    phase-1 memo counters."""
    volatile = ("phase1_cache_hits", "phase1_cache_misses", "phase1_mode")

    def scrub(value):
        if isinstance(value, dict):
            return {
                key: scrub(item)
                for key, item in value.items()
                if not key.endswith("_ms") and key not in volatile
            }
        if isinstance(value, list):
            return [scrub(item) for item in value]
        return value

    return scrub(report)


class TestFinishedJobRetention:
    """A finished job keeps its reply, not its compile (ROADMAP aim 3:
    a server that runs for days holds bounded memory)."""

    @staticmethod
    def _live(*types):
        import gc

        gc.collect()
        return sum(isinstance(obj, types) for obj in gc.get_objects())

    def test_finished_jobs_hold_no_compile(self):
        from repro.asmlink.download import DownloadModule
        from repro.asmlink.objformat import ObjectFunction
        from repro.driver.master import ParallelCompiler
        from repro.driver.results import CompilationResult

        heavy = (DownloadModule, ObjectFunction, CompilationResult)
        sources = [
            synthetic_program("tiny", 2 + index % 3, module_name=f"keep{index}")
            for index in range(20)
        ]
        direct = ParallelCompiler(backend=SerialBackend()).compile(sources[-1])
        expected = (
            direct.digest, _stable(direct.to_dict()), direct.diagnostics_text
        )
        del direct
        before = self._live(*heavy)
        with CompileService(
            SerialBackend(), max_running=2, per_tenant_inflight=20
        ) as service:
            ids = [service.submit(source) for source in sources]
            jobs = [service.wait(job_id, timeout=60.0) for job_id in ids]
            assert all(job.state == "done" for job in jobs)
            assert self._live(*heavy) == before
            assert all(job.source == "" for job in jobs)
            # what `wait` and `status --job` serve
            detail = jobs[-1].summary(detail=True)
        assert (
            detail["digest"], _stable(detail["report"]), detail["diagnostics"]
        ) == expected
        assert jobs[-1].digest == detail["report"]["digest"]

    def test_terminal_jobs_are_bounded(self, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "KEEP_FINISHED", 4)
        with CompileService(SerialBackend()) as service:
            for index in range(10):
                job_id = service.submit(_module(f"bounded{index}"))
                service.wait(job_id, timeout=60.0)
                rows = service.jobs_summary()
                assert len(rows) <= 4
                assert rows[-1]["job"] == job_id
            assert [row["job"] for row in rows] == ["j7", "j8", "j9", "j10"]

    def test_job_after_the_span_bound_still_draws(self, monkeypatch):
        from repro.service import server

        monkeypatch.setattr(server, "MAX_SPANS", 5)
        with CompileService(SerialBackend()) as service:
            for index in range(4):
                job_id = service.submit(
                    synthetic_program("tiny", 3, module_name=f"span{index}")
                )
                service.wait(job_id, timeout=60.0)
            assert len(service.spans) == 5
            chart = service.gantt(job_id)
            overview = service.gantt()
        assert "slot 0" in chart and job_id in chart
        assert job_id in overview and "j1 " not in overview

    def test_overview_rows_carry_no_digest(self):
        import json

        with CompileService(SerialBackend()) as service:
            job_id = service.submit(
                synthetic_program("small", 4, module_name="overview")
            )
            job = service.wait(job_id, timeout=60.0)
            rows = service.jobs_summary()
        assert len(job.digest) == 64  # the hash of the encoded module
        assert "digest" not in rows[0] and "report" not in rows[0]
        assert len(json.dumps(rows[0])) < 2048
        assert job.summary(detail=True)["digest"] == job.digest
