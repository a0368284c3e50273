"""Fault schedules — ChaosBackend's and the fabric transport's — are a
pure function of the seed.

Every fault decision is drawn from an RNG derived from ``(seed, task
key, attempt)`` — sha256-hashed, so the schedule cannot depend on how a
caller interleaves dispatch.  These tests pin that contract: the same
seed must replay the *identical* fault schedule on every replay of the
event stream (``run_tasks_events``), under a supervisor, and regardless
of task submission order.
"""

import itertools
import pathlib
import re

import pytest

from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fabric.chaos import ChaosTransport
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend

from helpers import collect_events, function_tasks, wrap_function
from test_supervisor import TWO_SECTIONS, TestSeededChaosEndToEnd

SOURCE = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(8)
    )
)


def chaos(seed: int = 13) -> ChaosBackend:
    return ChaosBackend(
        SerialBackend(),
        FaultSchedule(
            seed, {"crash": 0.4, "hang": 0.3, "corrupt": 0.3}, delay=0.0
        ),
        workers=3,
    )


def fired(backend):
    """(crashes, hangs, corruptions) injected so far."""
    return tuple(
        backend.schedule.fired[kind] for kind in ("crash", "hang", "corrupt")
    )


def build_tasks(source=SOURCE):
    return list(function_tasks(source, "<t>").values())


def schedule_via_events(backend, tasks):
    """(fault telemetry, per-task outcome) after one dispatch read as
    the full event stream."""
    results, failures = collect_events(backend, tasks)
    return _schedule(backend, results, failures)


def _schedule(backend, results, failures):
    return {
        "fired": fired(backend),
        "results": sorted(
            (r.section_name, r.function_name, r.worker) for r in results
        ),
        "failures": sorted(
            (f.task.section_name, f.task.function_name, f.worker)
            for f in failures
        ),
    }


class TestScheduleDeterminism:
    def test_events_replay_is_bitwise_identical(self):
        tasks = build_tasks()

        def trace(backend):
            events = []
            for kind, payload in backend.run_tasks_events(list(tasks)):
                if kind == "start":
                    events.append(("start", payload.function_name))
                elif kind == "result":
                    events.append(
                        ("result", payload.function_name, payload.worker)
                    )
                else:
                    events.append(
                        ("failure", payload.task.function_name, payload.worker)
                    )
            return events, fired(backend)

        assert trace(chaos()) == trace(chaos())

    def test_schedule_is_submission_order_independent(self):
        tasks = build_tasks()
        forward = chaos()
        reverse = chaos()
        f_results, f_failures = collect_events(forward, list(tasks))
        r_results, r_failures = collect_events(
            reverse, list(reversed(tasks))
        )
        key = lambda r: (r.section_name, r.function_name, r.worker)
        fkey = lambda f: (f.task.section_name, f.task.function_name, f.worker)
        assert sorted(map(key, f_results)) == sorted(map(key, r_results))
        assert sorted(map(fkey, f_failures)) == sorted(map(fkey, r_failures))

    def test_different_seeds_give_different_schedules(self):
        tasks = build_tasks()
        a = schedule_via_events(chaos(seed=1), list(tasks))
        b = schedule_via_events(chaos(seed=2), list(tasks))
        assert a != b


class TestSupervisedReplay:
    @pytest.mark.parametrize("seed", (3, 11, 29))
    def test_supervised_compile_digest_reproduces_under_seed(self, seed):
        """The full supervised-chaos pipeline, run twice with one seed,
        injects the same faults and produces the sequential digest."""

        def compile_once():
            inner = chaos(seed)
            # Deadlines off (task_timeout=0), hedging off, and
            # quarantine effectively off: attempt counts then depend
            # only on the seeded crash schedule, not on wall-clock
            # under CI load, so the telemetry comparison below is
            # sound.  (Quarantine's backoff expiry is wall-clock: a
            # slow run can bench all workers at once and degrade to
            # the fallback, which bypasses the chaos layer and drops
            # injections.)
            backend = SupervisedBackend(
                inner,
                task_timeout=0,
                hedge_after=None,
                max_attempts=6,
                poison_threshold=6,
            )
            backend.health.quarantine_after = 100
            result = ParallelCompiler(backend=backend).compile(SOURCE)
            return result.digest, fired(inner)

        digest_a, faults_a = compile_once()
        digest_b, faults_b = compile_once()
        assert digest_a == digest_b
        assert faults_a == faults_b
        assert digest_a == SequentialCompiler().compile(SOURCE).digest


class TestFabricPlanDeterminism:
    """The transport plan numbers a task's result sends by the task's
    identity — the part of the hub's id before ``#`` — so a retry that
    rides in a later wave, under a new serial, is still attempt n+1 of
    the same task."""

    IDENTITIES = [f"s.f{i}@{i:08x}" for i in range(12)]

    class Link:
        def send(self, frame):
            pass

        def close(self):
            pass

    def kills(self, seed, order, first_serial):
        """(identity, attempt) of every send the plan kills when each
        entry of ``order`` is one result send, under serials that
        depend on the interleaving."""
        schedule = FaultSchedule(seed, {"kill": 0.5})
        serial = itertools.count(first_serial)
        attempts, killed = {}, []
        for identity in order:
            attempt = attempts[identity] = attempts.get(identity, -1) + 1
            frame = {"op": "result", "id": f"{identity}#{next(serial)}"}
            try:
                # a fresh connection each time
                ChaosTransport(self.Link(), schedule).send(frame)
            except ConnectionResetError:
                killed.append((identity, attempt))
        assert schedule.fired["kill"] == len(killed)
        return sorted(killed)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_same_seed_same_kills_whatever_the_interleaving(self, seed):
        grouped = [i for i in self.IDENTITIES for _ in range(3)]
        woven = list(reversed(self.IDENTITIES)) * 3
        kills = self.kills(seed, grouped, first_serial=0)
        assert kills == self.kills(seed, woven, first_serial=700)
        assert kills, "the seed kills nothing"
        # the budget bounds kills per *task*: one each, however many
        # waves (serials) its attempts were spread over
        identities = [identity for identity, _ in kills]
        assert len(identities) == len(set(identities))

    def test_different_seeds_kill_differently(self):
        order = self.IDENTITIES * 3
        assert self.kills(1, order, 0) != self.kills(2, order, 0)


def ci_chaos_matrix():
    """(fault, seed) for every leg of ci.yml's seeded-chaos job."""
    workflow = pathlib.Path(__file__).parent.parent / ".github/workflows/ci.yml"
    job = workflow.read_text().split("\n  chaos:\n")[1].split("\n    steps:")[0]
    faults, seeds = (
        re.search(rf"^\s+{axis}: \[(.*)\]$", job, re.MULTILINE)
        .group(1)
        .split(", ")
        for axis in ("fault", "seed")
    )
    return [(fault, int(seed)) for fault in faults for seed in seeds]


class TestCIMatrixCoverage:
    @pytest.mark.parametrize("fault,seed", ci_chaos_matrix())
    def test_ci_seed_injects_every_armed_fault_class(self, fault, seed):
        """A matrix leg that injects nothing of its class tests nothing:
        every CI seed must fire each armed class at least once on the
        program the chaos job compiles (the poison task aside, whose
        crashes are unconditional)."""
        rates = TestSeededChaosEndToEnd.rates_for(fault)
        inner = ChaosBackend(
            SerialBackend(), FaultSchedule(seed, rates, delay=0.0), workers=4
        )
        backend = SupervisedBackend(
            inner, task_timeout=0, hedge_after=None, max_attempts=6
        )
        result = ParallelCompiler(backend=backend).compile(TWO_SECTIONS)
        assert result.digest == SequentialCompiler().compile(TWO_SECTIONS).digest
        armed = [kind for kind, rate in rates.items() if rate > 0]
        assert armed
        for kind in armed:
            assert inner.schedule.fired[kind] >= 1, (
                f"{fault}/seed {seed}: no {kind} fault"
            )

    def test_ci_matrix_crashes_some_healthy_task_twice(self):
        """Crashes are unbounded per task in the chaos job, so the
        matrix must hold a seed that exercises it: one healthy task
        crashed on two workers before its third attempt succeeds."""
        repeated = []
        for seed in sorted({seed for _, seed in ci_chaos_matrix()}):
            inner = ChaosBackend(
                SerialBackend(), FaultSchedule(seed, {"crash": 0.3})
            )
            failures = collect_events(inner, build_tasks(TWO_SECTIONS))[1]
            retry = [f.task for f in failures]
            failures = collect_events(inner, retry)[1]
            if failures:
                repeated.append(seed)
        assert repeated, "no CI seed crashes a task on two attempts running"
