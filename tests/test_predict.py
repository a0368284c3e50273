"""Predictive compilation: the learned cost model, the one estimate a
task carries, winning-attempt observation, and watch-mode speculation.

The invariant every test here circles: prediction reorders *scheduling*
(dispatch order, batch packing, deadlines) and warms caches, but can
never change a compile result.  Digests with the model on must be
bit-identical to digests with it off, across every seed we can afford.
"""

import copy
import dataclasses
import threading
import time
from collections import Counter

import pytest

from repro import CompileOptions
from repro.cache import ArtifactCache
from repro.driver.function_master import FunctionTask, run_compile_task
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.parallel.backend import stream_task_results
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.predict import (
    SPECULATION_TENANT,
    CostObservation,
    LearnedCostModel,
    ObservationStore,
    SpeculationManager,
    task_fingerprint,
)
from repro.predict import watch as watch_module
from repro.predict.observe import CALIBRATION_KEY
from repro.service import CompileService, FairShareQueue
from repro.workloads.synthetic import synthetic_program

from helpers import function_tasks, wrap_function

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
        #: (file name, function) of every task that reached the backend,
        #: in dispatch order — what starvation tests assert on
        self.dispatched = []

    def run_tasks_streaming(self, tasks):
        for task in tasks:
            # the file name is the second half of the memo entry's key
            self.dispatched.append((task.phase1_key[1], task.function_name))
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
        """An observation is its EWMA, its count and its hint — nothing
        else is kept per sample."""
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        model.alpha = 0.5
        obs = None
        for value in (1.0, 2.0, 3.0, 4.0):
            obs = model.observe("fp", value, hint=3.0)
        # EWMA: 1 -> 1.5 -> 2.25 -> 3.125
        assert obs == CostObservation("fp", count=4, ewma_s=3.125, hint=3.0)
        assert ObservationStore(str(tmp_path)).get("fp") == obs

    def test_estimates_persist_across_instances(self, tmp_path):
        first = LearnedCostModel(ObservationStore(str(tmp_path)))
        first.observe("fp", 2.0)
        first.observe("fp", 2.0)
        second = LearnedCostModel(ObservationStore(str(tmp_path)))
        assert second.estimate_seconds("fp") == pytest.approx(2.0)

    def test_min_samples_gates_estimates(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        assert model.min_samples == 2
        model.observe("fp", 1.0)
        assert model.estimate_seconds("fp") is None
        model.observe("fp", 1.0)
        assert model.estimate_seconds("fp") == pytest.approx(1.0)
        assert model.estimate_seconds("never-seen") is None

    def test_unfingerprintable_task_falls_back_to_hint(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        bogus = FunctionTask("s", "f", "not a window", [], cost_hint=7.5)
        assert model.cost_for(bogus) == 7.5
        assert model.counts["fallbacks"] == 1
        model.observe_task(bogus, 1.0)  # ... and observing it is a no-op
        assert model.counts["recorded"] == 0

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
        assert model.counts["learned"] >= 2
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

    def test_snapshot_reports_calibration(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path)))
        model.observe("fp", 0.5, hint=10.0)
        model.observe("fp", 0.5, hint=10.0)
        snap = model.snapshot()
        assert snap["recorded"] == 2
        assert snap["hints_per_second"] == pytest.approx(20.0)

    def test_memo_is_bounded_and_the_store_stays_the_record(self):
        """A days-long server observes ever new fingerprints: the memo
        stays at its cap, and what it forgot is read back from the
        store, so every estimate is a fresh model's."""
        store = DictStore()
        model = LearnedCostModel(store)
        fingerprints = [f"{i:064x}" for i in range(10_000)]
        for i, fingerprint in enumerate(fingerprints):
            model.observe(fingerprint, 0.001 * (i % 7 + 1), hint=i % 5 + 1)
            if i % 3 == 0:
                model.observe(fingerprint, 0.002, hint=i % 5 + 1)
        assert len(model._memo) == LearnedCostModel.memo_entries
        fresh = LearnedCostModel(store)
        for fingerprint in fingerprints:
            assert model.estimate_seconds(fingerprint) == (
                fresh.estimate_seconds(fingerprint)
            )
        assert model._hints_per_second() == fresh._hints_per_second()
        assert len(model._memo) == LearnedCostModel.memo_entries


class DictStore:
    """The two calls the model makes of its store, over a dict of
    copies: ten thousand entries on disk would take seconds."""

    def __init__(self):
        self.entries = {}

    def get(self, fingerprint):
        return copy.deepcopy(self.entries.get(fingerprint))

    def put(self, fingerprint, obs):
        self.entries[fingerprint] = copy.deepcopy(obs)


# ---------------------------------------------------------------------------
# a task's fingerprint, and the one cost it carries


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
        tasks = list(
            function_tasks(source, "s2.w2", options=options, memo=True).values()
        )
        _, served_under = compiler._serve_from_cache(
            parsed, StreamingSectionCombiner(parsed.module.sections),
            Counter(),
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
            fingerprint="f" * 64, count=3, ewma_s=0.1 + 0.2, hint=7.0
        )
        ObservationStore(tmp_path).put(obs.fingerprint, obs)
        back = ObservationStore(tmp_path).get(obs.fingerprint)
        assert back == obs
        assert [type(v) for v in (back.count, back.ewma_s, back.hint)] == [
            int, float, float
        ]
        data = ObservationStore(tmp_path)._entry_path(obs.fingerprint).read_bytes()
        assert b'"tier": "observe"' in data and b"ewma_s" in data

    def test_a_pickled_or_mistyped_entry_is_a_counted_miss(self, tmp_path):
        import pickle

        from repro.cache.store import seal_entry

        store = ObservationStore(tmp_path)
        obs = CostObservation(fingerprint="f" * 64, count=1, ewma_s=0.5)
        good = dataclasses.asdict(obs)
        for index, data in enumerate(
            (
                seal_entry("observe", 1, {}, pickle.dumps(obs)),  # a pickle
                seal_entry("observe", 2, dict(good, samples=[0.5]), b""),  # windowed
                seal_entry("observe", 3, dict(good, count="1"), b""),
                seal_entry("observe", 3, dict(good, ewma_s=None), b""),
                seal_entry("observe", 3, dict(good, surprise=0), b""),
            ),
            start=1,
        ):
            store._write(obs.fingerprint, data)
            assert store.get(obs.fingerprint) is None
            assert store.counts["corrupt"] == index
        # ... and the model carries on from nothing, as for any miss
        model = LearnedCostModel(store)
        store._write(obs.fingerprint, seal_entry("observe", 3, dict(good, count=None), b""))
        assert model.observe(obs.fingerprint, 0.25).count == 1


class TestCostProviderSeam:
    """Every scheduler reads the one cost a task carries: ``cost_hint``,
    the static hint or the estimate written in before enqueueing."""

    def test_queue_task_cost_provider_and_floor(self):
        def queued_cost(hint):
            queue = FairShareQueue()
            queue.enqueue("j", "t", 1, [FunctionTask("s", "f", "", [], hint)])
            return queue.next_wave(1)[0].cost

        assert queued_cost(5.0) == 5.0
        assert queued_cost(9.0) == 9.0
        assert queued_cost(0.0) == 1.0  # the min_cost floor

    def test_supervisor_timeout_uses_provider(self):
        backend = SupervisedBackend(SerialBackend())
        backend.timeout_floor, backend.timeout_multiplier = 1.0, 0.01
        plain = FunctionTask("s", "f", "", [], cost_hint=100.0)
        assert backend.timeout_for(plain) == pytest.approx(1.0)
        informed = dataclasses.replace(plain, cost_hint=1000.0)
        assert backend.timeout_for(informed) == pytest.approx(10.0)

    def test_backend_digests_unchanged_by_provider(self):
        """Costs reorder batches; results must be bit-identical."""
        from repro.parallel.warm_pool import WarmPoolBackend

        expected = SequentialCompiler().compile(SOURCE).digest
        with WarmPoolBackend(max_workers=2) as pool:

            class Reversed:
                """Reverses the relative order the packer sees."""

                worker_count = effective_worker_count = 2

                def run_tasks_streaming(self, tasks):
                    return pool.run_tasks_streaming([
                        dataclasses.replace(
                            task, cost_hint=1.0 / max(task.cost_hint, 1.0)
                        )
                        for task in tasks
                    ])

            result = ParallelCompiler(backend=Reversed()).compile(SOURCE)
        assert result.digest == expected


class CountingModel(LearnedCostModel):
    """A model whose estimate of ``f<i>`` is ``100 + i``, counting how
    often each task is asked about."""

    def __init__(self, store):
        super().__init__(store)
        self.asked = {}

    def cost_for(self, task):
        self.asked[task.key] = self.asked.get(task.key, 0) + 1
        return 100.0 + int(task.function_name[1:])

    __call__ = cost_for  # counted however the model is asked


class SpyFarm:
    """An in-process farm that keeps every task it was handed."""

    worker_count = effective_worker_count = 1

    def __init__(self):
        self.tasks = []

    def run_tasks_streaming(self, tasks):
        self.tasks.extend(tasks)
        return SerialBackend().run_tasks_streaming(tasks)


class TestOneEstimatePerTask:
    """A task's cost is a fact of the task: the service asks its model
    once, where the task enters the queue, and every scheduler below
    reads the estimate it carries."""

    ESTIMATES = {("s", f"f{i}"): 100.0 + i for i in range(4)}

    def _compile(self, tmp_path, backend):
        """Compile SOURCE through a service over ``backend``; returns the
        model and every deadline the supervisor derived, as
        ``(task key, cost_hint, seconds)``."""
        model = CountingModel(ObservationStore(str(tmp_path / "obs")))
        deadlines = []
        with CompileService(backend, cost_model=model) as service:
            supervisor = service._backend
            supervisor.timeout_floor = 1.0  # below every estimate's share
            supervisor.health.quarantine_after = 100  # retries stay on it
            derive = supervisor.timeout_for

            def timeout_for(task):
                deadlines.append((task.key, task.cost_hint, derive(task)))
                return deadlines[-1][2]

            supervisor.timeout_for = timeout_for
            job = service.wait(service.submit(SOURCE), timeout=60.0)
        assert job.state == "done", job.error
        assert job.digest == SequentialCompiler().compile(SOURCE).digest
        return model, deadlines

    def test_one_estimate_reaches_the_farm_and_the_deadline(self, tmp_path):
        farm = SpyFarm()
        model, deadlines = self._compile(tmp_path, farm)
        assert model.asked == {key: 1 for key in self.ESTIMATES}
        assert len(farm.tasks) == 4
        assert {t.key: t.cost_hint for t in farm.tasks} == self.ESTIMATES
        assert sorted(key for key, _, _ in deadlines) == sorted(self.ESTIMATES)
        for key, hint, seconds in deadlines:
            assert hint == self.ESTIMATES[key]
            assert seconds == pytest.approx(0.05 * hint)

    def test_once_however_many_attempts(self, tmp_path):
        """Every task crashes once and is retried: still one estimate
        each, and the retry carries it too."""
        farm = ChaosBackend(
            SpyFarm(), FaultSchedule(1, {"crash": 1.0}, {"crash": 1})
        )
        model, deadlines = self._compile(tmp_path, farm)
        assert farm.schedule.fired["crash"] == 4
        assert model.asked == {key: 1 for key in self.ESTIMATES}
        assert {t.key: t.cost_hint for t in farm.inner.tasks} == self.ESTIMATES
        for key in self.ESTIMATES:
            assert [hint for k, hint, _ in deadlines if k == key] == [
                self.ESTIMATES[key]
            ] * 2

    def test_a_zero_node_fleet_degrades_with_the_estimates(self, tmp_path):
        from repro.fabric import FabricHub, RemoteBackend

        fallback = SpyFarm()
        with FabricHub(fallback=fallback) as hub:
            backend = RemoteBackend(hub)
            model, _ = self._compile(tmp_path, backend)
        assert backend.counts["degradations"] >= 1
        assert model.asked == {key: 1 for key in self.ESTIMATES}
        assert {t.key: t.cost_hint for t in fallback.tasks} == self.ESTIMATES

    def test_an_estimate_never_feeds_its_own_calibration(self, tmp_path):
        task = _recorded_tasks()[0]
        estimated = dataclasses.replace(task, cost_hint=1e6)
        records = []
        for name, observed in (("plain", task), ("estimated", estimated)):
            store = ObservationStore(str(tmp_path / name))
            model = LearnedCostModel(store)
            model.observe_task(observed, 0.01)
            model.observe_task(observed, 0.02)
            records.append(
                (store.get(CALIBRATION_KEY), store.get(task_fingerprint(task)))
            )
        assert records[0] == records[1]
        # the calibration pairs the seconds with the static hint
        assert records[1][1].hint == max(task.cost_hint, 1.0)
        assert records[1][0].ewma_s == pytest.approx(
            records[1][1].hint * (0.75 / 0.01 + 0.25 / 0.02)
        )


# ---------------------------------------------------------------------------
# winning-attempt observation (satellite: hedged/retried attempts must
# record the attempt that actually delivered)


class TestWinningAttemptObservation:
    def test_exactly_one_observation_per_task(self):
        observed = []
        backend = SupervisedBackend(SerialBackend())
        backend.cost_observer = lambda task, s: observed.append(
            (task.function_name, s)
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
            inner, task_timeout=0.2, hedge_after=None, max_attempts=3
        )
        backend.cost_observer = lambda task, s: observed.setdefault(
            task.function_name, []
        ).append(s)
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

        backend = SupervisedBackend(SerialBackend())
        backend.cost_observer = explode
        par =ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest

    def test_service_records_observations_end_to_end(self, tmp_path):
        model = LearnedCostModel(ObservationStore(str(tmp_path / "obs")))
        with CompileService(SerialBackend(), cost_model=model) as service:
            job = service.wait(
                service.submit(synthetic_program("tiny", 3)), timeout=60.0
            )
        assert job.state == "done"
        assert model.counts["recorded"] == 3
        assert service.service_stats()["cost_model"]["recorded"] == 3


# ---------------------------------------------------------------------------
# watch-mode speculation


def _watch_service(tmp_path, **kwargs):
    cache = ArtifactCache(str(tmp_path / "cache"))
    model = LearnedCostModel(ObservationStore(str(tmp_path / "obs")))
    defaults = dict(cost_model=model)
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
            assert service.cost_model is None
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
