"""The supervision layer: deadlines, hedging, quarantine, poison isolation.

The §5.2 reliability problem, solved for real this time: a hung worker
is abandoned at its deadline, stragglers are hedged with duplicate
attempts (first result wins, duplicates deduped), unhealthy workers are
quarantined with exponential backoff, a fully-quarantined farm degrades
to in-process compilation, and a task that fails everywhere is isolated,
compiled in-process for its true traceback, and surfaced as a diagnostic
while the rest of the module still compiles.
"""

import os
import time

import pytest

from repro.driver.function_master import run_compile_task
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import (
    FARM,
    SupervisedBackend,
    SupervisionStats,
    WorkerHealthTracker,
)
from repro.parallel.warm_pool import WarmPoolBackend

from helpers import wrap_function

SOURCE = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(6)
    )
)

TWO_SECTIONS = """
module supmod
section a (cells 0..0)
  function a1(x: float) : float begin return x + 1.0; end
  function a2(x: float) : float begin return x * 2.0; end
  function a3(x: float) : float begin return x - 3.0; end
end
section b (cells 1..1)
  function b1(x: float) : float begin return x / 4.0; end
  function b2(x: float) : float begin return x + 5.0; end
end
end
"""


def chaos(workers=4, seed=0, **kwargs) -> ChaosBackend:
    return ChaosBackend(SerialBackend(), workers=workers, seed=seed, **kwargs)


def supervised(inner=None, **kwargs) -> SupervisedBackend:
    return SupervisedBackend(
        inner if inner is not None else SerialBackend(), **kwargs
    )


class SlowOnce:
    """Serial backend whose *first* attempt at ``slow_name`` sleeps —
    a single wedged workstation, deterministic and per-test."""

    worker_count = 1
    effective_worker_count = 1

    def __init__(self, slow_name: str, delay: float):
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


class TestTransparency:
    def test_no_fault_supervised_is_bit_identical(self):
        backend = supervised()
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        # every counter, each this compile's delta, all zero
        assert par.profile.supervision == vars(SupervisionStats())
        assert "supervision:" not in "\n".join(par.report_lines())

    def test_unsupervised_profile_not_marked(self):
        par = ParallelCompiler(backend=SerialBackend()).compile(SOURCE)
        assert par.profile.supervision == {}
        assert "supervision:" not in "\n".join(par.report_lines())

    def test_report_line_carries_counters(self):
        """Per compile, not per supervisor lifetime, and only what
        happened: each task's one corruption is spent by the first
        compile, so the second over the same supervisor reports none."""
        backend = supervised(
            chaos(seed=2, corrupt_rate=1.0), hedge_after=None
        )
        compiler = ParallelCompiler(backend=backend)
        first = compiler.compile(SOURCE)
        second = compiler.compile(SOURCE)
        assert first.profile.supervision == vars(backend.supervision)
        assert first.profile.supervision["corrupt_payloads"] == 6
        (line,) = [
            line for line in first.report_lines()
            if line.startswith("supervision:")
        ]
        assert "6 retries" in line and line.endswith(", 6 corrupt payloads")
        assert " 0 " not in line  # the nonzero counters only
        assert second.profile.supervision == vars(SupervisionStats())
        assert "supervision:" not in "\n".join(second.report_lines())

    def test_delegates_inner_attributes(self):
        inner = WarmPoolBackend(max_workers=1)
        wrapped = supervised(inner)
        assert wrapped.is_warm is False
        assert wrapped.dispatches == 0
        wrapped.shutdown()
        with pytest.raises(AttributeError):
            wrapped.definitely_not_an_attribute

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            supervised(max_attempts=0)
        with pytest.raises(ValueError):
            supervised(poison_threshold=0)
        with pytest.raises(ValueError):
            supervised(hedge_after=1.5)

    def test_timeout_derivation(self):
        from repro.driver.function_master import FunctionTask

        task = FunctionTask("", "<t>", "s", "f", cost_hint=1000.0)
        assert supervised(task_timeout=2.5).timeout_for(task) == 2.5
        assert supervised(task_timeout=0).timeout_for(task) is None
        derived = supervised(
            timeout_floor=1.0, timeout_multiplier=0.01
        ).timeout_for(task)
        assert derived == pytest.approx(10.0)
        floored = supervised(
            timeout_floor=60.0, timeout_multiplier=0.01
        ).timeout_for(task)
        assert floored == pytest.approx(60.0)


class TestDeadlines:
    def test_hung_task_is_abandoned_and_rerun_without_duplicates(self):
        # f5's first attempt sleeps 1s; its 0.2s deadline expires, the
        # retry compiles instantly.  The combiner raises on duplicate
        # section entries, so a clean compile proves dedup worked.
        inner = SlowOnce("f5", delay=1.0)
        backend = supervised(
            inner, task_timeout=0.2, hedge_after=None, max_attempts=3
        )
        start = time.monotonic()
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        wall = time.monotonic() - start
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert backend.supervision.timeouts >= 1
        assert inner.attempts["f5"] == 2
        assert wall < 10.0

    def test_hang_injected_by_chaos_is_absorbed(self):
        inner = chaos(seed=1, hang_rate=1.0, hang_delay=0.8)
        backend = supervised(
            inner, task_timeout=0.15, hedge_after=None, max_attempts=4
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert backend.supervision.timeouts >= 1
        assert inner.injected_hangs >= 1


class TestHedging:
    def test_straggler_gets_hedged_and_first_result_wins(self):
        inner = SlowOnce("f5", delay=0.8)
        backend = supervised(
            inner,
            task_timeout=0,  # deadlines off: hedging alone must save us
            hedge_after=0.5,
            hedge_min_age=0.0,
            max_attempts=3,
        )
        start = time.monotonic()
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        wall = time.monotonic() - start
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert backend.supervision.hedges_launched >= 1
        assert backend.supervision.hedges_won >= 1
        # the hedge resolved f5 well before the original woke up
        assert wall < 0.8 + 5.0
        # the late original result was deduped, not double-combined
        assert inner.attempts["f5"] == 2

    def test_hedging_disabled_waits_for_the_straggler(self):
        inner = SlowOnce("f5", delay=0.4)
        backend = supervised(inner, task_timeout=0, hedge_after=None)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest
        assert backend.supervision.hedges_launched == 0
        assert inner.attempts["f5"] == 1

    def test_second_result_for_a_resolved_task_is_counted_never_yielded(self):
        """One task, one result: whatever else arrives under a resolved
        task's key is a late duplicate.  (The combiner raises on a
        duplicate, so a clean compile proves none was yielded.)"""

        class Twice(SerialBackend):
            def run_tasks_streaming(self, tasks):
                for task in tasks:
                    yield from run_compile_task(task) * 2

        backend = supervised(
            ChaosBackend(Twice(), workers=2, seed=0), hedge_after=None
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest
        # all six were doubled; the run ends at the last task's first result
        assert backend.supervision.late_duplicates == 5


class TestHealthTracker:
    def test_quarantine_after_consecutive_failures(self):
        tracker = WorkerHealthTracker(quarantine_after=2, backoff_base=10.0)
        assert tracker.record_failure("w0", now=0.0) is False
        assert tracker.record_failure("w0", now=1.0) is True
        assert tracker.quarantined(now=5.0) == {"w0"}
        assert tracker.quarantined(now=20.0) == frozenset()

    def test_success_resets_consecutive_count(self):
        tracker = WorkerHealthTracker(quarantine_after=2)
        tracker.record_failure("w0", now=0.0)
        tracker.record_success("w0")
        assert tracker.record_failure("w0", now=1.0) is False

    def test_backoff_doubles_per_spell_and_caps(self):
        tracker = WorkerHealthTracker(
            quarantine_after=1, backoff_base=1.0, backoff_cap=3.0
        )
        assert tracker.record_failure("w0", now=0.0) is True
        assert tracker.quarantined(now=0.5) == {"w0"}
        # re-admitted at t=1; second spell lasts 2s
        assert tracker.record_failure("w0", now=1.5) is True
        assert tracker.quarantined(now=3.0) == {"w0"}
        # third spell would be 4s but caps at 3
        assert tracker.record_failure("w0", now=4.0) is True
        assert tracker.quarantined(now=6.5) == {"w0"}
        assert tracker.quarantined(now=7.5) == frozenset()

    def test_all_quarantined_by_capacity_or_farm(self):
        tracker = WorkerHealthTracker(quarantine_after=1, backoff_base=10.0)
        tracker.record_failure("w0", now=0.0)
        assert tracker.all_quarantined(1.0, ("w0", "w1")) is False
        tracker.record_failure("w1", now=0.0)
        assert tracker.all_quarantined(1.0, ("w0", "w1")) is True
        # a benched name that left the farm bounds nothing ...
        assert tracker.all_quarantined(1.0, ("w1", "w2")) is False
        # ... and a farm with no worker at all has no capacity
        assert tracker.all_quarantined(1.0, ()) is True
        farm_only = WorkerHealthTracker(quarantine_after=1, backoff_base=10.0)
        farm_only.record_failure(FARM, now=0.0)
        assert farm_only.all_quarantined(1.0, ("w0", "w1")) is True


class TestQuarantineAndDegradation:
    def test_dead_farm_degrades_to_serial_bit_identical(self):
        # Every simulated worker is dead: both get quarantined and the
        # build must fall back to in-process compilation — and still be
        # bit-identical to the sequential compiler (the degradation
        # ladder's bottom rung is a correct compiler, not an error).
        inner = chaos(workers=2, seed=0, dead_workers=("w0", "w1"))
        backend = supervised(
            inner,
            quarantine_after=1,
            quarantine_backoff=30.0,
            max_attempts=4,
            poison_threshold=5,
            hedge_after=None,
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert backend.supervision.quarantines >= 2
        assert backend.supervision.degradations >= 1
        assert par.profile.supervision["degradations"] >= 1

    def test_quarantined_workers_are_excluded_from_dispatch(self):
        inner = chaos(workers=3, seed=0, dead_workers=("w1",))
        backend = supervised(
            inner,
            quarantine_after=1,
            quarantine_backoff=30.0,
            max_attempts=4,
            hedge_after=None,
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest
        # once w1 got quarantined the supervisor told the backend
        assert "w1" in inner._excluded


class TestPoisonIsolation:
    def test_poison_task_isolated_in_process_and_module_still_identical(self):
        # The task crashes on every farm worker but compiles fine
        # in-process: the function is flagged poisoned, its *real*
        # object code is used, and the module matches the sequential
        # compiler bit for bit.
        inner = chaos(workers=4, seed=0, poison=(("s", "f2"),))
        backend = supervised(
            inner, max_attempts=5, poison_threshold=3, hedge_after=None
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert [f.name for f in par.profile.poisoned_functions()] == ["f2"]
        assert par.profile.failed_functions() == []
        assert backend.supervision.poisoned_tasks == 1
        assert "[poisoned: isolated in-process]" in "\n".join(
            par.report_lines()
        )
        assert "isolated after" in par.diagnostics_text

    def test_poison_task_that_fails_in_process_becomes_a_stub(self):
        def isolation(task):
            if task.function_name == "f2":
                raise RuntimeError("genuinely broken function")
            return run_compile_task(task)[0]

        inner = chaos(workers=4, seed=0, poison=(("s", "f2"),))
        backend = supervised(
            inner,
            max_attempts=5,
            poison_threshold=3,
            hedge_after=None,
            isolation_runner=isolation,
        )
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        # the build completes: healthy functions are bit-identical
        seq_objects = {o.name: o.digest_text() for o in seq.objects}
        for obj in par.objects:
            if obj.name != "f2":
                assert obj.digest_text() == seq_objects[obj.name]
        assert [f.name for f in par.profile.failed_functions()] == ["f2"]
        assert "[POISONED: no object code]" in "\n".join(par.report_lines())
        # the in-process traceback is surfaced as a diagnostic
        assert "genuinely broken function" in par.diagnostics_text
        assert "RuntimeError" in par.diagnostics_text

    def test_distinct_worker_threshold_triggers_isolation(self):
        inner = chaos(workers=4, seed=0, poison=(("s", "f1"),))
        backend = supervised(
            inner, max_attempts=10, poison_threshold=2, hedge_after=None
        )
        ParallelCompiler(backend=backend).compile(SOURCE)
        # two distinct workers sufficed; no need to burn all 10 attempts
        assert backend.supervision.poisoned_tasks == 1
        assert backend.supervision.retries <= 2


class TestResultValidation:
    def test_corrupt_payload_is_detected_and_rerun(self):
        inner = chaos(seed=2, corrupt_rate=1.0, max_corruptions_per_task=1)
        backend = supervised(inner, max_attempts=3, hedge_after=None)
        compiler = ParallelCompiler(backend=backend)
        par = compiler.compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert inner.injected_corruptions == 6
        assert backend.supervision.corrupt_payloads == 6
        assert par.profile.supervision["corrupt_payloads"] == 6
        # The retried results linked through the runner, not a
        # fallback: every section was clean by the time it combined.
        assert compiler.last_phase4_stats.mode == "parallel"

    def test_payload_digest_travels_with_results(self):
        import hashlib

        from repro.driver.function_master import (
            FunctionTask,
            result_payload_digest,
        )

        results = run_compile_task(FunctionTask(SOURCE, "<t>", "s", "f0"))
        assert results[0].payload_digest == result_payload_digest(results[0])
        assert (
            results[0].payload_digest
            == hashlib.sha256(results[0].code).hexdigest()
        )


class TestSeededChaosEndToEnd:
    """The acceptance scenario: crashes + hangs + corruption + one poison
    function, all seeded.  Healthy functions stay bit-identical to the
    sequential compiler; the poison function surfaces as a diagnostic
    stub; the run stays bounded.  CI sweeps WARPCC_CHAOS_SEED and
    WARPCC_CHAOS_FAULT over a crash/hang/corrupt matrix."""

    @staticmethod
    def rates_for(fault):
        """Fault rates of one WARPCC_CHAOS_FAULT matrix leg."""
        rates = {
            "crash_rate": 0.0,
            "hang_rate": 0.0,
            "corrupt_rate": 0.0,
        }
        if fault in ("crash", "mixed"):
            rates["crash_rate"] = 0.3
        if fault in ("hang", "mixed"):
            rates["hang_rate"] = 0.3
        if fault in ("corrupt", "mixed"):
            rates["corrupt_rate"] = 0.25
        return rates

    @classmethod
    def _config(cls):
        seed = int(os.environ.get("WARPCC_CHAOS_SEED", "0"))
        return seed, cls.rates_for(os.environ.get("WARPCC_CHAOS_FAULT", "mixed"))

    def test_chaos_run_completes_with_poison_diagnostic(self):
        seed, rates = self._config()

        def isolation(task):
            if task.function_name == "a3":
                raise RuntimeError("poison function is genuinely broken")
            return run_compile_task(task)[0]

        inner = chaos(
            workers=4,
            seed=seed,
            hang_delay=0.15,
            poison=(("a", "a3"),),
            **rates,
        )
        backend = supervised(
            inner,
            task_timeout=1.0,
            max_attempts=4,
            poison_threshold=3,
            isolation_runner=isolation,
        )
        start = time.monotonic()
        par = ParallelCompiler(backend=backend).compile(TWO_SECTIONS)
        wall = time.monotonic() - start
        seq = SequentialCompiler().compile(TWO_SECTIONS)

        # no task may block longer than task-timeout x max-attempts;
        # give the whole 5-task run a generous multiple of that bound
        assert wall < 1.0 * 4 * 5

        seq_objects = {o.name: o.digest_text() for o in seq.objects}
        for obj in par.objects:
            if obj.name != "a3":
                assert obj.digest_text() == seq_objects[obj.name]
        assert [f.name for f in par.profile.failed_functions()] == ["a3"]
        assert backend.supervision.poisoned_tasks == 1
        assert "poison function is genuinely broken" in par.diagnostics_text
        supervision_line = [
            line for line in par.report_lines() if line.startswith("supervision:")
        ]
        assert supervision_line and "1 poisoned tasks" in supervision_line[0]

    def test_chaos_injection_is_deterministic_under_a_seed(self):
        seed, rates = self._config()

        def run_once():
            inner = chaos(workers=4, seed=seed, hang_delay=0.05, **rates)
            backend = supervised(
                inner,
                task_timeout=2.0,
                max_attempts=6,
                hedge_after=None,  # hedging varies attempts with timing
            )
            result = ParallelCompiler(backend=backend).compile(TWO_SECTIONS)
            return (
                result.digest,
                inner.injected_crashes,
                inner.injected_corruptions,
            )

        first = run_once()
        second = run_once()
        assert first == second
        assert first[0] == SequentialCompiler().compile(TWO_SECTIONS).digest


class TestChaosCli:
    def test_chaos_poison_partial_failure_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mod.w"
        path.write_text(TWO_SECTIONS)
        # a3 is poison AND broken in-process: source-level breakage is
        # not simulable from the CLI, so poison a healthy function and
        # expect a *successful* isolation (exit 0, poisoned mark).
        code = main(
            [
                "compile",
                str(path),
                "--parallel",
                "--jobs",
                "1",
                "--no-cache",
                "--chaos",
                "5",
                "--chaos-poison",
                "a.a3",
                "--task-timeout",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "[poisoned: isolated in-process]" in out
        assert "supervision:" in out

    def test_plain_parallel_compile_isolates_and_counts_poison(
        self, tmp_path, capsys
    ):
        """No switch turns supervision on: ``compile --parallel`` is
        supervised, and its ``--json`` report carries the compile's
        supervision counters, the isolated poison task among them."""
        import json

        from repro.cli import main

        path = tmp_path / "mod.w"
        path.write_text(TWO_SECTIONS)
        code = main(
            [
                "compile", str(path), "--parallel", "--jobs", "1",
                "--no-cache", "--chaos", "5", "--chaos-poison", "a.a3",
                "--json",
            ]
        )
        profile = json.loads(capsys.readouterr().out)["profile"]
        assert code == 0
        assert profile["supervision"]["poisoned_tasks"] == 1
        assert profile["supervision"]["retries"] >= 2
        assert [f["name"] for f in profile["functions"] if f["poisoned"]] == [
            "a3"
        ]
        with pytest.raises(SystemExit):
            main(["compile", str(path), "--parallel", "--supervised"])
