"""Predictive compilation: the learned cost model, the pluggable cost
seam, winning-attempt observation, and watch-mode speculation.

The invariant every test here circles: prediction reorders *scheduling*
(dispatch order, batch packing, deadlines) and warms caches, but can
never change a compile result.  Digests with the model on must be
bit-identical to digests with it off, across every seed we can afford.
"""

import dataclasses
import threading
import time

import pytest

from repro import CompileOptions
from repro.cache import ArtifactCache
from repro.driver.function_master import FunctionTask, run_compile_task
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.parallel.backend import stream_task_results
from repro.parallel.local import SerialBackend
from repro.parallel.schedule import provided_task_costs
from repro.parallel.supervisor import SupervisedBackend
from repro.predict import (
    SPECULATION_TENANT,
    CostObservation,
    LearnedCostModel,
    ObservationStore,
    SpeculationManager,
    task_fingerprint,
)
from repro.service import CompileService, FairShareQueue
from repro.workloads.synthetic import synthetic_program

from helpers import wrap_function

SOURCE = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(4)
    )
)


class RecordingBackend:
    """Serial backend that keeps every task it compiled."""

    worker_count = 1
    effective_worker_count = 1

    def __init__(self):
        self.tasks = []

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            self.tasks.append(task)
            yield from run_compile_task(task)


class GateBackend:
    """Serial backend whose dispatch blocks until the gate opens."""

    worker_count = 1
    effective_worker_count = 1

    def __init__(self):
        self.inner = SerialBackend()
        self.gate = threading.Event()
        #: (section, function) of every task that reached the backend,
        #: in dispatch order — what starvation tests assert on
        self.dispatched = []

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            self.dispatched.append((task.filename, task.function_name))
        self.gate.wait(timeout=30.0)
        yield from stream_task_results(self.inner, tasks)


class SlowOnce:
    """First attempt at ``slow_name`` sleeps; retries compile fast."""

    worker_count = 1
    effective_worker_count = 1

    def __init__(self, slow_name, delay):
        self.slow_name = slow_name
        self.delay = delay
        self.attempts = {}

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            seen = self.attempts.get(task.function_name, 0)
            self.attempts[task.function_name] = seen + 1
            if task.function_name == self.slow_name and seen == 0:
                time.sleep(self.delay)
            yield from run_compile_task(task)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition never became true")


def _recorded_tasks(source=SOURCE):
    """Compile ``source`` once, returning the real FunctionTasks."""
    backend = RecordingBackend()
    ParallelCompiler(backend=backend).compile(source)
    return backend.tasks


# ---------------------------------------------------------------------------
# the cost model


class TestCostModel:
    def test_ewma_folds_and_window_trims(self, tmp_path):
        model = LearnedCostModel(
            ObservationStore(str(tmp_path)), alpha=0.5, window=3
        )
        obs = None
        for value in (1.0, 2.0, 3.0, 4.0):
            obs = model.observe("fp", value)
        # EWMA: 1 -> 1.5 -> 2.25 -> 3.125
        assert obs.ewma_s == pytest.approx(3.125)
        assert obs.samples == [2.0, 3.0, 4.0]
        assert obs.count == 4
        assert obs.max_s == 4.0

    def test_estimates_persist_across_instances(self, tmp_path):
        first = LearnedCostModel(ObservationStore(str(tmp_path)))
        first.observe("fp", 2.0)
        first.observe("fp", 2.0)
        second = LearnedCostModel(ObservationStore(str(tmp_path)))
        assert second.estimate_seconds("fp") == pytest.approx(2.0)

    def test_min_samples_gates_estimates(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)), min_samples=2)
        model.observe("fp", 1.0)
        assert model.estimate_seconds("fp") is None
        model.observe("fp", 1.0)
        assert model.estimate_seconds("fp") == pytest.approx(1.0)
        assert model.estimate_seconds("never-seen") is None

    def test_percentile_is_nearest_rank(self, tmp_path):
        model = LearnedCostModel(
            ObservationStore(str(tmp_path)), min_samples=1, window=10
        )
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
            model.observe("fp", value)
        assert model.percentile_seconds("fp", 0.9) == pytest.approx(9.0)
        assert model.percentile_seconds("fp", 0.5) == pytest.approx(5.0)
        assert model.percentile_seconds("fp", 1.0) == pytest.approx(10.0)

    def test_unfingerprintable_task_falls_back_to_hint(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        bogus = FunctionTask("not a module", "<t>", "s", "f", cost_hint=7.5)
        assert model.cost_for(bogus) == 7.5
        assert model.fallbacks == 1
        model.observe_task(bogus, 1.0)  # ... and observing it is a no-op
        assert model.recorded == 0

    def test_learned_cost_is_in_hint_units(self, tmp_path):
        """After calibration, a task observed at 2x another's seconds
        costs ~2x in hint units — regardless of their static hints."""
        tasks = _recorded_tasks()
        assert len(tasks) >= 2
        fast, slow = tasks[0], tasks[1]
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        for _ in range(4):
            model.observe_task(fast, 0.010)
            model.observe_task(slow, 0.020)
        cost_fast = model.cost_for(fast)
        cost_slow = model.cost_for(slow)
        assert model.learned >= 2
        assert cost_slow == pytest.approx(2.0 * cost_fast, rel=0.05)
        # unseen tasks still pay their static hint, same currency
        unseen = tasks[2]
        assert model.cost_for(unseen) == float(unseen.cost_hint)

    def test_same_content_shares_history_across_modules(self, tmp_path):
        """Fingerprints key on content: the same function body in a
        renamed file hits the same observation entry."""
        tasks_a = _recorded_tasks()
        backend = RecordingBackend()
        ParallelCompiler(backend=backend).compile(
            SOURCE, filename="elsewhere.w2"
        )
        tasks_b = backend.tasks
        fp_a = task_fingerprint(tasks_a[0])
        fp_b = task_fingerprint(
            next(
                t for t in tasks_b
                if t.function_name == tasks_a[0].function_name
            )
        )
        assert fp_a is not None and fp_a == fp_b

    def test_invalid_knobs_rejected(self, tmp_path):
        store = ObservationStore(str(tmp_path))
        with pytest.raises(ValueError):
            LearnedCostModel(store, alpha=0.0)
        with pytest.raises(ValueError):
            LearnedCostModel(store, window=0)
        with pytest.raises(ValueError):
            LearnedCostModel(store, min_samples=0)

    def test_snapshot_reports_calibration(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        model.observe("fp", 0.5, hint=10.0)
        model.observe("fp", 0.5, hint=10.0)
        snap = model.snapshot()
        assert snap["recorded"] == 2
        assert snap["hints_per_second"] == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# the pluggable cost-provider seam (satellite: refactor of ast_cost_hint
# consumers)


class TestTaskFingerprint:
    @pytest.mark.parametrize(
        "options",
        (
            CompileOptions(),
            CompileOptions(opt_level=1, cell_count=4),
            CompileOptions(unroll_budget=8, ii_budget=1),
        ),
        ids=("default", "o1_cells4", "u8_i1"),
    )
    def test_it_is_the_key_the_master_serves_under(self, tmp_path, options):
        """An observation is keyed by what the artifact is cached under:
        the task's own options, whole — nothing is guessed."""
        from repro.driver.phases import phase1_parse_and_check
        from repro.driver.section_master import StreamingSectionCombiner

        source = synthetic_program("medium", 2)
        cache = ArtifactCache(tmp_path)
        compiler = ParallelCompiler(options=options, cache=cache)
        compiler.compile(source, "s2.w2")
        parsed = phase1_parse_and_check(source, "s2.w2")
        tasks = compiler._build_tasks(parsed, source, "s2.w2")
        _, served_under = compiler._serve_from_cache(
            parsed, tasks, StreamingSectionCombiner(parsed.module.sections)
        )
        assert len(tasks) == 2 and all(t.options is options for t in tasks)
        for task in tasks:
            key = served_under[(task.section_name, task.function_name)]
            assert task_fingerprint(task) == key
            assert cache._entry_path(key).exists()
        others = {
            task_fingerprint(dataclasses.replace(t, options=CompileOptions(cell_count=7)))
            for t in tasks
        }
        assert not others & set(served_under.values())


class TestObservationStoreForm:
    """An observation is facts — a JSON header, no body, no pickle."""

    def test_observations_round_trip_bit_for_bit(self, tmp_path):
        obs = CostObservation(
            fingerprint="f" * 64, count=3, ewma_s=0.1 + 0.2, last_s=1e-6,
            max_s=2.5, hint=7.0, samples=[0.30000000000000004, 1e-6, 2.5],
        )
        ObservationStore(tmp_path).put(obs.fingerprint, obs)
        back = ObservationStore(tmp_path).get(obs.fingerprint)
        assert back == obs and type(back.samples) is list
        assert [type(v) for v in back.samples] == [float] * 3
        data = ObservationStore(tmp_path)._entry_path(obs.fingerprint).read_bytes()
        assert b'"tier": "observe"' in data and b"ewma_s" in data

    def test_a_pickled_or_mistyped_entry_is_a_counted_miss(self, tmp_path):
        import pickle

        from repro.cache.store import seal_entry

        store = ObservationStore(tmp_path)
        obs = CostObservation(fingerprint="f" * 64, count=1, samples=[0.5])
        good = dataclasses.asdict(obs)
        for index, data in enumerate(
            (
                seal_entry("observe", 1, {}, pickle.dumps(obs)),  # the parent's
                seal_entry("observe", 2, dict(good, count="1"), b""),
                seal_entry("observe", 2, dict(good, samples=[0.5, None]), b""),
                seal_entry("observe", 2, dict(good, surprise=0), b""),
            ),
            start=1,
        ):
            store._write(obs.fingerprint, data)
            assert store.get(obs.fingerprint) is None
            assert store.stats.corrupt == index
        # ... and the model carries on from nothing, as for any miss
        model = LearnedCostModel(store)
        store._write(obs.fingerprint, seal_entry("observe", 2, dict(good, count=None), b""))
        assert model.observe(obs.fingerprint, 0.25).count == 1


class TestCostProviderSeam:
    def test_none_provider_is_the_static_hint(self):
        tasks = _recorded_tasks()
        assert provided_task_costs(tasks, None) == [
            float(t.cost_hint) for t in tasks
        ]

    def test_provider_values_used_and_errors_fall_back(self):
        tasks = _recorded_tasks()

        def flaky(task):
            if task.function_name == tasks[0].function_name:
                raise RuntimeError("no estimate")
            return 42.0

        costs = provided_task_costs(tasks, flaky)
        assert costs[0] == float(tasks[0].cost_hint)
        assert all(c == 42.0 for c in costs[1:])

    def test_queue_task_cost_provider_and_floor(self):
        task = FunctionTask("", "<t>", "s", "f", cost_hint=5.0)
        assert FairShareQueue().task_cost(task) == 5.0
        provided = FairShareQueue(cost_provider=lambda t: 9.0)
        assert provided.task_cost(task) == 9.0
        floored = FairShareQueue(cost_provider=lambda t: 0.0)
        assert floored.task_cost(task) == 1.0  # min_cost floor
        broken = FairShareQueue(
            cost_provider=lambda t: (_ for _ in ()).throw(ValueError())
        )
        assert broken.task_cost(task) == 5.0

    def test_supervisor_timeout_uses_provider(self):
        task = FunctionTask("", "<t>", "s", "f", cost_hint=100.0)
        plain = SupervisedBackend(
            SerialBackend(), timeout_floor=1.0, timeout_multiplier=0.01
        )
        assert plain.timeout_for(task) == pytest.approx(1.0)
        informed = SupervisedBackend(
            SerialBackend(),
            timeout_floor=1.0,
            timeout_multiplier=0.01,
            cost_provider=lambda t: 1000.0,
        )
        assert informed.timeout_for(task) == pytest.approx(10.0)

    def test_backend_digests_unchanged_by_provider(self):
        """Costs reorder batches; results must be bit-identical."""
        from repro.parallel.warm_pool import WarmPoolBackend

        expected = SequentialCompiler().compile(SOURCE).digest
        with WarmPoolBackend(max_workers=2) as backend:
            # reverse the relative order the packer sees
            backend.cost_provider = lambda task: 1.0 / max(
                task.cost_hint, 1.0
            )
            result = ParallelCompiler(backend=backend).compile(SOURCE)
        assert result.digest == expected


# ---------------------------------------------------------------------------
# winning-attempt observation (satellite: hedged/retried attempts must
# record the attempt that actually delivered)


class TestWinningAttemptObservation:
    def test_exactly_one_observation_per_task(self):
        observed = []
        backend = SupervisedBackend(
            SerialBackend(),
            cost_observer=lambda task, s: observed.append(
                (task.function_name, s)
            ),
        )
        ParallelCompiler(backend=backend).compile(SOURCE)
        names = [name for name, _ in observed]
        assert sorted(names) == [f"f{i}" for i in range(4)]
        assert all(seconds >= 0.0 for _, seconds in observed)

    def test_retry_observes_the_winning_attempt_only(self):
        """f3's first attempt hangs past its deadline; the retry wins.
        The observation must be the retry's wall clock, not the sum."""
        observed = {}
        inner = SlowOnce("f3", delay=1.2)
        backend = SupervisedBackend(
            inner,
            task_timeout=0.2,
            hedge_after=None,
            max_attempts=3,
            cost_observer=lambda task, s: observed.setdefault(
                task.function_name, []
            ).append(s),
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest
        assert inner.attempts["f3"] == 2
        assert len(observed["f3"]) == 1
        # the winning retry compiled instantly; observing the launch-to-
        # delivery of the *first* attempt would read >= 1.2s
        assert observed["f3"][0] < 1.0

    def test_observer_errors_do_not_fail_the_compile(self):
        def explode(task, seconds):
            raise RuntimeError("observer bug")

        backend = SupervisedBackend(SerialBackend(), cost_observer=explode)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest

    def test_service_records_observations_end_to_end(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path / "obs")))
        with CompileService(SerialBackend(), cost_model=model) as service:
            job = service.wait(
                service.submit(synthetic_program("tiny", 3)), timeout=60.0
            )
        assert job.state == "done"
        assert model.recorded == 3
        assert service.service_stats()["cost_model"]["recorded"] == 3


# ---------------------------------------------------------------------------
# watch-mode speculation


def _watch_service(tmp_path, **kwargs):
    cache = ArtifactCache(str(tmp_path / "cache"))
    model = LearnedCostModel(ObservationStore(str(tmp_path / "obs")))
    defaults = dict(cost_model=model, speculation=True)
    defaults.update(kwargs)
    return CompileService(SerialBackend(), cache, **defaults)


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
        service = CompileService(backend, cache, speculation=True)
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
        service = CompileService(backend, speculation=True)
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
            backend, max_queued=2, max_running=1, speculation=True
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

    def test_speculation_disabled_reports_reason(self):
        with CompileService(SerialBackend()) as service:
            outcome = service.watch_update(
                synthetic_program("tiny", 1, module_name="w_off")
            )
        assert outcome["speculation"] is False
        assert outcome["reason"] == "speculation-disabled"
        assert service.speculation is None

    def test_speculation_never_starves_real_tenants(self):
        """With the gate closed, a speculative job and a real job both
        queue their tasks; batch priority means every real task must
        dispatch before any speculative one once the gate opens."""
        backend = GateBackend()
        service = CompileService(backend, max_running=4, speculation=True)
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
        (b) a predict+speculation service that watch-speculated first.
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
