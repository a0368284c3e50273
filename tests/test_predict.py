"""Predictive compilation: watch-mode speculation, and the one static
cost a task carries into the service.

The invariant every test here circles: speculation warms caches and
costs reorder *scheduling* (dispatch order, batch packing, deadlines),
but neither can change a compile result.  Digests with speculation on
must be bit-identical to digests with it off, across every seed we can
afford.
"""

import threading
import time

import pytest

from repro.cache import ArtifactCache
from repro.driver.sequential import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.parallel.backend import stream_task_results
from repro.parallel.local import SerialBackend
from repro.parallel.schedule import window_cost_hint
from repro.predict import SPECULATION_TENANT
from repro.predict import watch as watch_module
from repro.service import CompileService
from repro.workloads.synthetic import synthetic_program

from helpers import wrap_function

SOURCE = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(4)
    )
)


class GateBackend:
    """Serial backend whose dispatch blocks until the gate opens."""

    worker_count = 1
    effective_worker_count = 1

    def __init__(self):
        self.inner = SerialBackend()
        self.gate = threading.Event()
        #: (file name, function) of every task that reached the backend,
        #: in dispatch order — what starvation tests assert on
        self.dispatched = []

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            # the file name is the second half of the memo entry's key
            self.dispatched.append((task.phase1_key[1], task.function_name))
        self.gate.wait(timeout=30.0)
        yield from stream_task_results(self.inner, tasks)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition never became true")


# ---------------------------------------------------------------------------
# the one cost a task carries


class SpyFarm:
    """An in-process farm that keeps every task it was handed."""

    worker_count = effective_worker_count = 1

    def __init__(self):
        self.tasks = []

    def run_tasks_streaming(self, tasks):
        self.tasks.extend(tasks)
        return SerialBackend().run_tasks_streaming(tasks)


class TestOneEstimatePerTask:
    """A task's cost is a fact of the task: the master writes the static
    §4.3 estimate into its ``cost_hint``, and the service passes it on
    untouched to every scheduler below."""

    def test_one_estimate_reaches_the_farm_and_the_deadline(self):
        farm = SpyFarm()
        deadlines = []
        with CompileService(farm) as service:
            supervisor = service._backend
            supervisor.timeout_floor = 1.0  # below every hint's share
            supervisor.timeout_multiplier = 10.0
            derive = supervisor.timeout_for

            def timeout_for(task):
                deadlines.append((task.key, task.cost_hint, derive(task)))
                return deadlines[-1][2]

            supervisor.timeout_for = timeout_for
            job = service.wait(service.submit(SOURCE), timeout=60.0)
        assert job.state == "done", job.error
        assert job.digest == SequentialCompiler().compile(SOURCE).digest
        hints = {t.key: window_cost_hint(t.window) for t in farm.tasks}
        assert sorted(hints) == [("s", f"f{i}") for i in range(4)]
        assert {t.key: t.cost_hint for t in farm.tasks} == hints
        assert sorted(key for key, _, _ in deadlines) == sorted(hints)
        for key, hint, seconds in deadlines:
            assert hint == hints[key]
            assert seconds == pytest.approx(10.0 * hint)


# ---------------------------------------------------------------------------
# watch-mode speculation


def _watch_service(tmp_path, **kwargs):
    cache = ArtifactCache(str(tmp_path / "cache"))
    return CompileService(SerialBackend(), cache, **kwargs)


class TestWatchSpeculation:
    def test_update_speculates_then_submit_hits_cache(self, tmp_path):
        source = synthetic_program("tiny", 3, module_name="w_warm")
        with _watch_service(tmp_path) as service:
            outcome = service.watch_update(source, watch="w")
            assert outcome["reason"] == "speculating"
            assert outcome["dirty"] == 3
            spec = service.wait(outcome["job"], timeout=60.0)
            assert spec.state == "done"
            assert spec.tenant == SPECULATION_TENANT
            job = service.wait(
                service.submit(source, priority="interactive"),
                timeout=60.0,
            )
            assert job.state == "done"
            assert job.cache_served == 3
            assert job.digest == spec.digest

    def test_clean_update_does_nothing(self, tmp_path):
        source = synthetic_program("tiny", 2, module_name="w_clean")
        with _watch_service(tmp_path) as service:
            first = service.watch_update(source, watch="w")
            service.wait(first["job"], timeout=60.0)
            second = service.watch_update(source, watch="w")
            assert second["reason"] == "clean"
            assert second["job"] is None
            assert service.speculation.stats()["clean"] == 1

    def test_only_changed_functions_are_dirty(self, tmp_path):
        base = synthetic_program("tiny", 3, module_name="w_dirty")
        edited = base.replace("return", "x := x + 0.125;\n    return", 1)
        assert edited != base
        with _watch_service(tmp_path) as service:
            service.wait(
                service.watch_update(base, watch="w")["job"], timeout=60.0
            )
            outcome = service.watch_update(edited, watch="w")
            assert outcome["reason"] == "speculating"
            assert outcome["dirty"] == 1
            assert outcome["functions"] == ["sec1.f1"]

    def test_parse_error_keeps_previous_snapshot(self, tmp_path):
        source = synthetic_program("tiny", 2, module_name="w_broken")
        with _watch_service(tmp_path) as service:
            service.wait(
                service.watch_update(source, watch="w")["job"], timeout=60.0
            )
            broken = service.watch_update(
                source[: len(source) // 2], watch="w"
            )
            assert broken["reason"] == "parse-error"
            assert broken["job"] is None
            # the good snapshot survived: re-sending it is clean
            again = service.watch_update(source, watch="w")
            assert again["reason"] == "clean"

    def test_newer_edit_supersedes_inflight_job(self, tmp_path):
        backend = GateBackend()
        cache = ArtifactCache(str(tmp_path / "cache"))
        service = CompileService(backend, cache)
        try:
            v1 = synthetic_program("tiny", 2, module_name="w_super")
            v2 = v1.replace("return", "x := x + 0.5;\n    return", 1)
            first = service.watch_update(v1, watch="w")
            assert first["reason"] == "speculating"
            second = service.watch_update(v2, watch="w")
            assert second["superseded"] is True
            assert service.speculation.stats()["superseded"] == 1
            assert service.job(first["job"]).cancel_requested
        finally:
            backend.gate.set()
            service.close()

    def test_inflight_cap_suppresses(self, tmp_path):
        backend = GateBackend()
        service = CompileService(backend, ArtifactCache(str(tmp_path)))
        service.speculation.max_inflight = 1
        try:
            a = service.watch_update(
                synthetic_program("tiny", 2, module_name="w_cap_a"),
                watch="a",
            )
            assert a["reason"] == "speculating"
            b = service.watch_update(
                synthetic_program("tiny", 2, module_name="w_cap_b"),
                watch="b",
            )
            assert b["reason"] == "inflight-cap"
            assert service.speculation.stats()["suppressed"] == 1
        finally:
            backend.gate.set()
            service.close()

    def test_queue_headroom_protects_admission(self, tmp_path):
        backend = GateBackend()
        service = CompileService(
            backend,
            ArtifactCache(str(tmp_path)),
            max_queued=2,
            max_running=1,
        )
        assert service.speculation.queue_headroom == 2
        try:
            running = service.submit(
                synthetic_program("tiny", 1, module_name="w_hr_run"),
                tenant="alice",
            )
            _wait_for(lambda: service.job(running).state == "running")
            service.submit(
                synthetic_program("tiny", 1, module_name="w_hr_q"),
                tenant="alice",
            )
            outcome = service.watch_update(
                synthetic_program("tiny", 1, module_name="w_hr_spec")
            )
            assert outcome["reason"] == "queue-headroom"
            # the headroom the manager refused to consume is still there
            service.submit(
                synthetic_program("tiny", 1, module_name="w_hr_real"),
                tenant="bob",
            )
        finally:
            backend.gate.set()
            service.close()

    def test_cache_alone_turns_speculation_on(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        with CompileService(SerialBackend(), cache) as service:
            outcome = service.watch_update(
                synthetic_program("tiny", 2, module_name="w_on")
            )
            assert outcome["reason"] == "speculating"
            assert service.wait(outcome["job"], timeout=60.0).state == "done"
            stats = service.service_stats()
        assert stats["speculation"]["launched"] == 1

    def test_watch_table_forgets_least_recently_updated(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(watch_module, "MAX_WATCHES", 3)
        source = synthetic_program("tiny", 2, module_name="w_bound")
        with _watch_service(tmp_path) as service:
            for key in ("k0", "k1", "k2", "k3"):  # MAX_WATCHES + 1 keys
                outcome = service.watch_update(source, watch=key)
                assert outcome["dirty"] == 2
                if outcome["job"] is not None:
                    service.wait(outcome["job"], timeout=60.0)
            assert service.speculation.stats()["watches"] == 3
            # k0 was forgotten: its snapshot is empty again, so every
            # function is dirty and the artifact cache serves them all
            again = service.watch_update(source, watch="k0")
            assert again["reason"] == "speculating"
            assert again["dirty"] == 2
            job = service.wait(again["job"], timeout=60.0)
            assert job.cache_served == 2
            # k2 is still remembered, so its repeat is clean
            assert service.watch_update(source, watch="k2")["reason"] == (
                "clean"
            )
            assert service.speculation.stats()["watches"] == 3

    def test_watch_with_a_live_job_is_never_forgotten(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(watch_module, "MAX_WATCHES", 1)
        backend = GateBackend()
        service = CompileService(backend, ArtifactCache(str(tmp_path)))
        try:
            live = service.watch_update(
                synthetic_program("tiny", 1, module_name="w_pin_a"),
                watch="a",
            )
            assert live["reason"] == "speculating"
            service.watch_update(
                synthetic_program("tiny", 1, module_name="w_pin_b"),
                watch="b",
            )
            assert service.speculation.stats()["watches"] == 2
        finally:
            backend.gate.set()
            service.close()

    def test_speculation_disabled_reports_reason(self):
        with CompileService(SerialBackend()) as service:
            outcome = service.watch_update(
                synthetic_program("tiny", 1, module_name="w_off")
            )
        assert outcome["speculation"] is False
        assert outcome["reason"] == "speculation-disabled"
        assert service.speculation is None

    def test_speculation_never_starves_real_tenants(self, tmp_path):
        """With the gate closed, a speculative job and a real job both
        queue their tasks; batch priority means every real task must
        dispatch before any speculative one once the gate opens."""
        backend = GateBackend()
        service = CompileService(
            backend, ArtifactCache(str(tmp_path)), max_running=4
        )
        try:
            real = service.submit(
                synthetic_program("tiny", 3, module_name="w_starve_real"),
                tenant="alice",
                priority="normal",
                filename="<real>",
            )
            # first real wave is at the (closed) gate; the dispatcher is
            # parked, so everything below piles up behind it in the queue
            _wait_for(lambda: len(backend.dispatched) >= 1)
            spec = service.watch_update(
                synthetic_program("tiny", 3, module_name="w_starve_spec"),
                filename="<speculative>",
            )
            assert spec["reason"] == "speculating"
            backend.gate.set()
            assert service.wait(real, timeout=60.0).state == "done"
            service.wait(spec["job"], timeout=60.0)
            order = [filename for filename, _ in backend.dispatched]
            assert "<real>" in order and "<speculative>" in order
            last_real = max(
                i for i, f in enumerate(order) if f == "<real>"
            )
            first_spec = min(
                i for i, f in enumerate(order) if f == "<speculative>"
            )
            assert last_real < first_spec, order
        finally:
            backend.gate.set()
            service.close()

    def test_watch_and_submit_digests_identical(self, tmp_path):
        """The acceptance invariant, single-seed edition."""
        source = synthetic_program("small", 3, module_name="w_ident")
        with _watch_service(tmp_path) as spec_service:
            outcome = spec_service.watch_update(source)
            spec_service.wait(outcome["job"], timeout=60.0)
            warm = spec_service.wait(
                spec_service.submit(source), timeout=60.0
            )
        with CompileService(SerialBackend()) as cold_service:
            cold = cold_service.wait(
                cold_service.submit(source), timeout=60.0
            )
        assert warm.state == "done" and cold.state == "done"
        assert warm.digest == cold.digest


# ---------------------------------------------------------------------------
# the determinism sweep (satellite: 200 seeds, speculation on/off)


class TestDeterminismSweep:
    def test_200_seed_speculation_on_off_digests_identical(self, tmp_path):
        """Compile 200 generated programs through (a) a bare service and
        (b) a speculating service that watch-speculated first.
        Every digest pair must match bit-for-bit."""
        config = config_for_size_class("tiny")
        programs = [generate_program(seed, config) for seed in range(200)]
        mismatches = []
        with CompileService(SerialBackend(), max_queued=256) as bare:
            with _watch_service(tmp_path, max_queued=256) as speculative:
                for program in programs:
                    outcome = speculative.watch_update(
                        program.source, watch=f"seed{program.seed}"
                    )
                    if outcome["job"] is not None:
                        speculative.wait(outcome["job"], timeout=120.0)
                    on = speculative.wait(
                        speculative.submit(program.source),
                        timeout=120.0,
                    )
                    off = bare.wait(
                        bare.submit(program.source), timeout=120.0
                    )
                    if (
                        on.state != "done"
                        or off.state != "done"
                        or on.digest != off.digest
                    ):
                        mismatches.append(program.seed)
        assert mismatches == [], (
            f"speculation changed digests for seeds {mismatches[:10]}"
        )
