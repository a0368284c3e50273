"""Fault-tolerant parallel compilation (the §5.2 reliability problem)."""

import pytest

from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend

from helpers import collect_events, function_tasks, plain_retry as retrying, wrap_function

SOURCE = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(6)
    )
)


def flaky(rate: float, seed: int = 7, crash_budget=None) -> ChaosBackend:
    """A farm whose only fault is a clean crash, ``crash_budget`` times
    per task at most (None: unbounded)."""
    return ChaosBackend(
        SerialBackend(),
        FaultSchedule(seed, {"crash": rate}, budgets={"crash": crash_budget}),
    )


def build_tasks(source=SOURCE):
    return list(function_tasks(source, "<t>").values())


class TestFlakyBackend:
    """A farm that only crashes cleanly; named for the wrapper these
    cases were written against, so their test ids stay."""

    def test_zero_rate_is_transparent(self):
        backend = SupervisedBackend(flaky(0.0))
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest

    def test_failures_are_deterministic(self):
        # Same seed, same supervised compile: same crashes, same retries.
        counters = []
        for _ in range(2):
            inner = flaky(0.5, seed=3)
            backend = retrying(inner, max_attempts=8)
            ParallelCompiler(backend=backend).compile(SOURCE)
            counters.append(
                (inner.schedule.fired["crash"], backend.counts["retries"])
            )
        assert counters[0] == counters[1]
        assert counters[0][0] > 0

    def test_invalid_rate_rejected(self):
        for kind in ("crash", "hang", "corrupt"):
            with pytest.raises(ValueError):
                ChaosBackend(SerialBackend(), FaultSchedule(0, {kind: -0.1}))


class TestRetryingBackend:
    """Plain retry through the supervisor; named for the wrapper these
    cases were written against, so their test ids stay."""

    def test_recovers_from_transient_failures(self):
        # Each task fails at most twice; three attempts always suffice.
        inner = flaky(0.9, seed=11, crash_budget=2)
        backend = retrying(inner, max_attempts=3)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert inner.schedule.fired["crash"] > 0
        assert backend.counts["retries"] == inner.schedule.fired["crash"]
        assert backend.counts["poisoned_tasks"] == 0

    def test_budget_exhaustion_reports_full_attempt_history(self):
        # A task that used up its farm attempts is compiled in-process;
        # its diagnostic names every attempt, not just the last one.
        backend = retrying(flaky(1.0, seed=2), max_attempts=3)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert par.digest == SequentialCompiler().compile(SOURCE).digest
        assert backend.counts["poisoned_tasks"] == 6
        assert all(report.poisoned for report in par.profile.functions)
        f0 = [
            line for line in par.diagnostics_text.splitlines()
            if line.startswith("warning: s.f0:")
        ]
        assert f0 == [
            "warning: s.f0: isolated after 3 failed farm attempt(s) "
            "(injected crash on attempt 1; injected crash on attempt 2; "
            "injected crash on attempt 3); compiled in-process"
        ]

    def test_wraps_plain_backend_without_partial_api(self):
        backend = retrying(SerialBackend(), max_attempts=2)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        seq = SequentialCompiler().compile(SOURCE)
        assert par.digest == seq.digest
        assert backend.counts["retries"] == 0

    def test_catches_real_exceptions_per_task(self):
        class ExplodingBackend:
            worker_count = effective_worker_count = 1

            def __init__(self):
                self.calls = 0

            def run_tasks_streaming(self, tasks):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("child process killed")
                return SerialBackend().run_tasks_streaming(tasks)

        backend = retrying(ExplodingBackend(), max_attempts=3)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert len(par.profile.functions) == 6
        assert backend.counts["retries"] == 6
        assert not par.profile.failed_functions()

    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            SupervisedBackend(SerialBackend(), max_attempts=-1)

    def test_retried_results_arrive_in_any_order_but_combine_correctly(self):
        inner = flaky(0.6, seed=5, crash_budget=1)
        backend = retrying(inner, max_attempts=2)
        par = ParallelCompiler(backend=backend).compile(SOURCE)
        assert inner.schedule.fired["crash"] > 0
        names = [f.name for f in par.profile.functions]
        assert names == [f"f{i}" for i in range(6)]  # source order restored


class TestChaosBackend:
    def chaos(self, seed=0, rates=None, delay=0.25, **kwargs):
        return ChaosBackend(
            SerialBackend(), FaultSchedule(seed, rates, delay=delay), **kwargs
        )

    def test_decisions_are_a_pure_function_of_the_seed(self):
        a = self.chaos(workers=4, seed=9, rates={"crash": 0.4})
        b = self.chaos(workers=4, seed=9, rates={"crash": 0.4})
        _, fail_a = collect_events(a, build_tasks())
        _, fail_b = collect_events(b, build_tasks())
        assert [f.task.function_name for f in fail_a] == [
            f.task.function_name for f in fail_b
        ]
        assert [f.worker for f in fail_a] == [f.worker for f in fail_b]

    def test_decisions_are_order_independent(self):
        # Chaos decisions depend only on (seed, task, attempt), not on a
        # shared RNG: reversing submission order must not
        # change which tasks crash — the property that keeps injection
        # deterministic under supervisor retries and hedges.
        forward = self.chaos(workers=4, seed=9, rates={"crash": 0.4})
        backward = self.chaos(workers=4, seed=9, rates={"crash": 0.4})
        _, fail_f = collect_events(forward, build_tasks())
        _, fail_b = collect_events(backward, list(reversed(build_tasks())))
        assert sorted(f.task.function_name for f in fail_f) == sorted(
            f.task.function_name for f in fail_b
        )

    def test_dead_worker_attempts_always_fail(self):
        backend = self.chaos(workers=1, seed=0, dead_workers=("w0",))
        results, failures = collect_events(backend, build_tasks())
        assert results == []
        assert len(failures) == 6
        assert all(f.worker == "w0" for f in failures)

    def test_poison_task_fails_on_distinct_workers(self):
        backend = self.chaos(workers=4, seed=0, poison=(("s", "f1"),))
        workers = set()
        for _ in range(3):
            _, failures = collect_events(backend, build_tasks()[1:2])
            assert len(failures) == 1
            workers.add(failures[0].worker)
        assert len(workers) == 3  # rotation guarantees distinct hosts

    def test_results_carry_worker_attribution(self):
        backend = self.chaos(workers=4, seed=0)
        results, failures = collect_events(backend, build_tasks())
        assert failures == []
        assert all(r.worker in backend.worker_names for r in results)

    def test_excluded_workers_receive_no_attempts(self):
        backend = self.chaos(workers=4, seed=0)
        backend.exclude_workers({"w0", "w1"})
        results, _ = collect_events(backend, build_tasks())
        assert all(r.worker in ("w2", "w3") for r in results)

    def test_corruption_breaks_the_payload_digest(self):
        from repro.driver.function_master import result_payload_digest

        backend = self.chaos(workers=4, seed=0, rates={"corrupt": 1.0})
        results, _ = collect_events(backend, build_tasks())
        assert backend.schedule.fired["corrupt"] == 6
        assert all(
            result_payload_digest(r) != r.payload_digest for r in results
        )
        # What a transit can do: bytes changed, nothing else.
        assert all(type(r.code) is bytes for r in results)

    def test_hang_delays_but_still_delivers(self):
        naps = []
        backend = self.chaos(workers=4, seed=0, rates={"hang": 1.0}, delay=0.01)
        backend.sleep = naps.append
        results, failures = collect_events(backend, build_tasks())
        assert failures == []
        assert len(results) == 6
        assert naps == [0.01] * 6
        assert backend.schedule.fired["hang"] == 6

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            self.chaos(rates={"crash": 1.5})
        with pytest.raises(ValueError):
            self.chaos(workers=0)
