"""One fault plan: every seeded schedule injects what it always did.

``tests/fixtures/fault_schedules.json`` was recorded when each chaos
layer still kept its own rates, budgets and counters, by a script that
last ran on the tree of commit ``aee195c`` (it imported the per-layer
classes, so it went with them).  Each test here replays the fixture's
inputs through the one :class:`FaultSchedule` — a supervised farm's
:class:`ChaosBackend`, a worker node's :class:`ChaosTransport` and the
cache server's response hook — and must reproduce every event, frame
fate and count exactly.  The rest checks what the one plan adds: it
refuses an unknown kind or an out-of-range rate wherever a fault is
injected, and one lock keeps every count when threads share it.
"""

import json
import pathlib
import sys
import threading

import pytest

from repro.cache.store import ArtifactCache, seal_entry
from repro.cli.serve import _CHAOS_FAULTS
from repro.fabric.chaos import ChaosTransport
from repro.fabric.netcache import CacheServiceServer
from repro.fabric.node import WorkerNodeAgent
from repro.fabric.wire import unpack_bytes
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend

from helpers import function_tasks

FIXTURE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "fault_schedules.json")
    .read_text()
)


def _ids(runs, *fields):
    return ["-".join(str(run[field]) for field in fields) for run in runs]


def _record_events(backend, tasks):
    events = []
    for kind, payload in backend.run_tasks_events(list(tasks)):
        task = payload.task if kind == "failure" else payload
        worker = None if kind == "start" else payload.worker
        events.append(
            [kind, f"{task.section_name}.{task.function_name}", worker]
        )
    return events


@pytest.fixture(scope="module")
def tasks():
    source = FIXTURE["source"]
    return list(function_tasks(source, "<t>").values())


@pytest.mark.parametrize(
    "run", FIXTURE["chaos_backend"],
    ids=_ids(FIXTURE["chaos_backend"], "farm", "seed"),
)
def test_chaos_backend_replays_the_pinned_events(run, tasks):
    schedule = FaultSchedule(
        run["seed"], run["rates"], budgets={"crash": run["crash_budget"]}
    )
    backend = ChaosBackend(
        SerialBackend(),
        schedule,
        workers=run["workers"],
        poison=tuple(tuple(key) for key in run["poison"]),
    )
    backend.sleep = lambda seconds: None
    assert [_record_events(backend, tasks) for _ in range(3)] == run["calls"]
    assert {kind: schedule.fired[kind] for kind in run["fired"]} == run["fired"]


class _RecordingConnection:
    def __init__(self):
        self.log = []

    def send(self, frame):
        self.log.append("send")

    def send_raw(self, data):
        self.log.append("raw")

    def close(self):
        self.log.append("close")

    def recv(self):
        return None


def _frame_fates(schedule):
    """Each fixture frame's fate; a reset connection is replaced, as a
    reconnecting node's is."""
    conn = _RecordingConnection()
    transport = ChaosTransport(conn, schedule)
    fates = []
    for frame in FIXTURE["frames"]:
        before, delays = len(conn.log), schedule.fired["delay"]
        try:
            transport.send(frame)
        except ConnectionResetError:
            fates.append(
                "truncated" if "raw" in conn.log[before:] else "killed"
            )
            conn = _RecordingConnection()
            transport = ChaosTransport(conn, schedule)
            continue
        sends = conn.log[before:].count("send")
        if sends == 0:
            fates.append("dropped")
        elif schedule.fired["delay"] > delays:
            fates.append("delayed+duplicated" if sends == 2 else "delayed")
        else:
            fates.append("duplicated" if sends == 2 else "sent")
    return fates


@pytest.mark.parametrize(
    "run", FIXTURE["transport"],
    ids=_ids(FIXTURE["transport"], "family", "seed"),
)
def test_transport_replays_the_pinned_frame_fates(run):
    assert _CHAOS_FAULTS[run["family"]] == run["rates"]
    schedule = FaultSchedule(run["seed"], run["rates"], delay=0.0)
    assert _frame_fates(schedule) == run["fates"]
    assert {kind: schedule.fired[kind] for kind in run["fired"]} == run["fired"]


@pytest.mark.parametrize(
    "run", FIXTURE["cache"], ids=_ids(FIXTURE["cache"], "family", "seed")
)
def test_cache_hook_replays_the_pinned_decisions(run, tmp_path):
    schedule = FaultSchedule(run["seed"], run["rates"])
    with CacheServiceServer(tmp_path) as server:
        stored = {}
        for index, key in enumerate(FIXTURE["cache_keys"]):
            stored[key] = seal_entry(
                ArtifactCache.SUBDIR, ArtifactCache.SCHEMA, {},
                f"body {index}".encode(),
            )
            server.store.put_bytes(key, stored[key])
        server.chaos = schedule
        fates = []
        for _ in range(3):
            for key in FIXTURE["cache_keys"]:
                reply = server.verbs["cache-get"]({"op": "cache-get", "key": key})
                if not reply["ok"]:
                    fates.append("fail")
                elif unpack_bytes(reply) != stored[key]:
                    fates.append("corrupt")
                else:
                    fates.append("ok")
    assert fates == run["fates"]
    assert {kind: schedule.fired[kind] for kind in run["fired"]} == run["fired"]


class TestRefusals:
    """A bad plan is refused wherever a fault is injected."""

    BAD = (
        ({"crash": 1.5}, "rate"),
        ({"kill": -0.1}, "rate"),
        ({"cache-corrupt": 2.0}, "rate"),
        ({"crash_rate": 0.1}, "unknown fault kind"),
        ({"node-kill": 0.4}, "unknown fault kind"),
    )

    @pytest.mark.parametrize("rates,message", BAD)
    def test_farm(self, rates, message):
        with pytest.raises(ValueError, match=message):
            ChaosBackend(SerialBackend(), FaultSchedule(0, rates))

    @pytest.mark.parametrize("rates,message", BAD)
    def test_fabric_transport(self, rates, message):
        with pytest.raises(ValueError, match=message):
            WorkerNodeAgent("127.0.0.1:1", chaos=FaultSchedule(0, rates))

    @pytest.mark.parametrize("rates,message", BAD)
    def test_cache_hook(self, rates, message, tmp_path):
        with CacheServiceServer(tmp_path) as server:
            with pytest.raises(ValueError, match=message):
                server.chaos = FaultSchedule(0, rates)

    def test_unknown_budget_kind_and_unknown_question(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule(0, budgets={"crashes": 2})
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSchedule(0).fires("kil", "s.f", 0)

    def test_every_cli_family_names_known_kinds(self):
        for rates in _CHAOS_FAULTS.values():
            FaultSchedule(0, rates)


class TestOneLock:
    THREADS, DECISIONS = 8, 2000

    @staticmethod
    def _run_threads(targets):
        """Run ``targets`` on threads that switch as often as the
        interpreter allows, so an unlocked read-modify-write would lose
        updates; every thread must finish."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target) for target in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def _race(self, decide):
        start = threading.Barrier(self.THREADS)

        def worker(index):
            start.wait()
            for n in range(self.DECISIONS):
                decide(index, n)

        self._run_threads(
            [lambda index=index: worker(index) for index in range(self.THREADS)]
        )

    def test_eight_threads_lose_no_fault_count(self):
        schedule = FaultSchedule(5, {"crash": 1.0, "delay": 1.0})
        self._race(lambda i, n: schedule.fires("crash", "s.f", n))
        self._race(lambda i, n: schedule.fires("delay", f"k{n % 7}", i))
        total = self.THREADS * self.DECISIONS
        assert schedule.fired == {"crash": total, "delay": total}

    def test_eight_threads_share_one_budget_and_one_attempt_counter(self):
        schedule = FaultSchedule(5, {"kill": 1.0}, budgets={"kill": 100})
        fired = []
        attempts = []
        self._race(lambda i, n: fired.append(schedule.fires("kill", "s.f", n)))
        self._race(lambda i, n: attempts.append(schedule.take("attempt", "k")))
        assert fired.count(True) == schedule.fired["kill"] == 100
        assert sorted(attempts) == list(range(self.THREADS * self.DECISIONS))

    def test_concurrent_farm_dispatches_number_attempts_once(self, tasks):
        """A supervisor's wave, retry and hedge threads share one farm:
        every attempt of a task gets its own number, every fault one
        count."""
        schedule = FaultSchedule(3, {"crash": 0.5})
        backend = ChaosBackend(SerialBackend(), schedule)
        failures = []

        def dispatch():
            for kind, payload in backend.run_tasks_events(list(tasks)):
                if kind == "failure":
                    failures.append(payload)

        self._run_threads([dispatch] * 8)
        keys = [f"{task.section_name}.{task.function_name}" for task in tasks]
        # attempts 0..7 of each task, each crashing on its own draw,
        # whichever thread ran it
        expected = sum(
            schedule.roll("crash", key, attempt) < 0.5
            for key in keys
            for attempt in range(8)
        )
        assert len(failures) == schedule.fired["crash"] == expected > 0
        for key in keys:
            assert schedule.take("attempt", key) == 8
