"""Fabric hub: leases, heartbeats, and exact reports of what happened to
each task — with every recovery decision read off the one counter set,
``RemoteBackend(hub).counts``."""

import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.driver.function_master import (
    phase1_cached,
    phase1_key,
    run_function_master,
)
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fabric import FabricHub, RemoteBackend, WorkerNodeAgent
from repro.fabric.wire import (
    FABRIC_SECRET_ENV,
    PROTOCOL_VERSION,
    Connection,
    decode_task,
    encode_result,
    encode_task,
)
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.service import CompileService

from helpers import function_task

SOURCE = """
module hub_mod
section s (cells 0..1)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
  function double_it()
  var x: float;
  begin
    receive(x); send(x + x);
  end
  function third()
  var y: float;
  begin
    receive(y); send(y * 3.0);
  end
end
end
"""

FUNCTIONS = ("main", "double_it", "third")


def _tasks():
    return [
        function_task(SOURCE, "s", name, filename="hub_mod.w2")
        for name in FUNCTIONS
    ]


def _sequential_digest():
    return SequentialCompiler().compile(SOURCE).digest


def _consume(backend):
    """Run the three tasks through ``backend`` on a thread; returns the
    list its results land in, and the thread."""
    results = []
    consumer = threading.Thread(
        target=lambda: results.extend(backend.run_tasks_streaming(_tasks())),
        daemon=True,
    )
    consumer.start()
    return results, consumer


class FakeNode:
    """A scripted peer speaking the node protocol — the test decides
    exactly which frames to send and when to vanish."""

    def __init__(self, address, node_id="fake", workers=4, timeout=10.0):
        host, _, port = address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        sock.settimeout(timeout)
        self.conn = Connection(sock)
        self.conn.send(
            {
                "op": "register", "node": node_id, "workers": workers,
                "protocol": PROTOCOL_VERSION,
            }
        )
        welcome = self.conn.recv()
        assert welcome and welcome.get("ok"), welcome

    def recv_task(self):
        while True:
            frame = self.conn.recv()
            assert frame is not None, "hub closed the connection"
            if frame.get("op") == "task":
                return frame
            if frame.get("op") == "shutdown":
                raise AssertionError("hub shut down mid-test")

    def heartbeat(self):
        self.conn.send({"op": "heartbeat"})

    def answer(self, frame, function_name=None):
        """Send a sealed result for task ``frame`` — of the function it
        names, or of ``function_name`` whatever the task was."""
        task = decode_task(frame)
        if function_name is not None:
            task.function_name = function_name
        self.conn.send(encode_result(run_function_master(task), frame["id"]))

    def vanish(self):
        """Die abruptly: no goodbye — the crash case."""
        self.conn.close()


@pytest.fixture
def hub():
    with FabricHub(lease_ttl=1.0, heartbeat_interval=0.2) as h:
        yield h


class TestRegistration:
    def test_agents_register_and_count_workers(self, hub):
        agents = [
            WorkerNodeAgent(
                hub.address, SerialBackend(), node_id=f"n{i}"
            ).start()
            for i in range(2)
        ]
        try:
            assert hub.wait_for_nodes(2, timeout=10.0)
            assert hub.live_node_count() == 2
            assert hub.total_workers() == 2
            assert RemoteBackend(hub).worker_count == 2
            assert hub.node_ids() == ["n0", "n1"]
        finally:
            for agent in agents:
                agent.stop()

    def test_silent_node_loses_its_lease(self, hub):
        node = FakeNode(hub.address, node_id="mute")
        assert hub.wait_for_nodes(1, timeout=10.0)
        deadline = time.monotonic() + 10.0
        while hub.live_node_count() and time.monotonic() < deadline:
            time.sleep(0.05)  # no heartbeats: the lease must expire
        assert hub.live_node_count() == 0
        assert hub.counts["nodes_lost"] == 1
        node.vanish()

    def test_heartbeats_keep_a_lease_alive(self, hub):
        node = FakeNode(hub.address, node_id="beater")
        assert hub.wait_for_nodes(1, timeout=10.0)
        for _ in range(10):  # 2+ lease lifetimes
            node.heartbeat()
            time.sleep(0.2)
        assert hub.live_node_count() == 1
        assert hub.counts["nodes_lost"] == 0
        node.vanish()

    def test_reconnecting_node_supersedes_its_stale_lease(self, hub):
        first = FakeNode(hub.address, node_id="same")
        assert hub.wait_for_nodes(1, timeout=10.0)
        second = FakeNode(hub.address, node_id="same")
        deadline = time.monotonic() + 10.0
        while (
            hub.counts["nodes_registered"] < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert hub.live_node_count() == 1
        assert hub.counts["nodes_registered"] == 2
        first.vanish()
        second.vanish()


    @pytest.mark.parametrize("spoken", [{"protocol": 99}, {}])
    def test_a_register_of_another_protocol_gets_no_lease(self, hub, spoken):
        """Its task entries would not open on either side: refused
        before a lease, so no task frame ever reaches it."""
        host, _, port = hub.address.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=10.0)
        sock.settimeout(0.5)
        conn = Connection(sock)
        conn.send({"op": "register", "node": "stale", "workers": 4, **spoken})
        refusal = conn.recv()
        assert refusal["ok"] is False
        assert refusal["reason"] == "protocol-mismatch"
        result = ParallelCompiler(backend=RemoteBackend(hub)).compile(SOURCE)
        assert result.digest == _sequential_digest()
        assert hub.counts["nodes_registered"] == 0
        assert hub.counts["tasks_dispatched"] == 0
        with pytest.raises(socket.timeout):  # nothing was sent its way
            conn.recv()
        conn.close()

    def test_a_refused_agent_pauses_instead_of_spinning(self, hub, monkeypatch):
        monkeypatch.setattr("repro.fabric.node.PROTOCOL_VERSION", 99)
        agent = WorkerNodeAgent(hub.address, SerialBackend(), node_id="stale")
        agent.connect_cap = 0.4
        agent.start()
        try:
            time.sleep(1.0)
            # one try per connect_cap
            assert 1 <= agent.counts["sessions"] <= 4
            assert hub.counts["nodes_registered"] == 0
        finally:
            agent.stop()


def _serve(fake, behave):
    """Answer ``fake``'s task frames with ``behave(frame)`` on a thread;
    returns the list the frames are recorded in."""
    received = []

    def loop():
        for frame in iter(fake.conn.recv, None):
            if frame.get("op") == "task":
                received.append(frame)
                behave(frame)

    threading.Thread(target=loop, daemon=True).start()
    return received


def _bounce(fake):
    return lambda frame: fake.conn.send(
        {"op": "task-failed", "id": frame["id"], "error": "boom"}
    )


class TestSchedulingAndFailure:
    def test_remote_compile_matches_sequential(self, hub):
        agents = [
            WorkerNodeAgent(
                hub.address, SerialBackend(), node_id=f"n{i}"
            ).start()
            for i in range(2)
        ]
        try:
            assert hub.wait_for_nodes(2, timeout=10.0)
            backend = RemoteBackend(hub)
            result = ParallelCompiler(backend=backend).compile(SOURCE)
            assert result.digest == _sequential_digest()
            assert hub.counts["tasks_dispatched"] == len(FUNCTIONS)
            assert backend.counts == {}
        finally:
            for agent in agents:
                agent.stop()

    def test_dead_node_requeues_exactly_its_unacked_tasks(self, hub):
        """The acceptance invariant: the accepted result is the
        completion.  A node that vanishes has each task it had not
        answered reported failed and re-run exactly once, and every
        result it managed to send before dying completed its task (no
        lost, no duplicated results)."""
        fake = FakeNode(hub.address, node_id="doomed", workers=4)
        assert hub.wait_for_nodes(1, timeout=10.0)
        backend = RemoteBackend(hub)
        results, consumer = _consume(backend)

        frames = [fake.recv_task() for _ in range(3)]
        # one identity per task, whatever the attempt: name@digest#serial
        assert {f["id"].partition("@")[0] for f in frames} == {
            f"s.{name}" for name in FUNCTIONS
        }
        # Answer two tasks, then crash with the third untouched.
        fake.answer(frames[0])
        fake.answer(frames[1])
        fake.vanish()

        consumer.join(timeout=60.0)
        assert not consumer.is_alive(), "wave never completed"
        # Exactly one result per function: nothing lost, nothing doubled.
        assert sorted(r.function_name for r in results) == sorted(FUNCTIONS)
        assert sorted(str(r.worker) for r in results) == [
            "None", "node:doomed", "node:doomed",
        ]
        # Exactly the unanswered task was retried, and — no other fleet
        # — on the local fallback; nothing was compiled twice.
        assert backend.counts == dict(retries=1, degradations=1)
        assert hub.counts["tasks_dispatched"] == 3
        assert hub.counts["nodes_lost"] == 1

    def test_slow_node_answering_a_requeued_task_is_deduplicated(self):
        """Slow, not dead: two tasks outlive their deadline and are
        re-run locally while the node's third is still open; the node's
        late answer to one of them must not be linked twice."""
        with FabricHub(lease_ttl=30.0, heartbeat_interval=0.2) as hub:
            # one worker: two tasks in flight, the third waits its turn
            fake = FakeNode(hub.address, node_id="slow", workers=1)
            assert hub.wait_for_nodes(1, timeout=10.0)
            backend = RemoteBackend(hub)
            backend.timeout_floor = 1.0
            backend.health.quarantine_after = 1
            backend.health.backoff_base = 30.0
            results, consumer = _consume(backend)

            held = [fake.recv_task(), fake.recv_task()]
            last = fake.recv_task()  # sent once a held one was taken back
            deadline = time.monotonic() + 30.0
            while len(results) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)  # both held tasks re-run locally
            fake.answer(held[0])  # late: the first result won already
            fake.answer(last)

            consumer.join(timeout=60.0)
            assert not consumer.is_alive(), "wave never completed"
            assert sorted(r.function_name for r in results) == sorted(FUNCTIONS)
            assert backend.counts == dict(
                timeouts=2, retries=2, quarantines=1, degradations=2,
                late_duplicates=1,
            )
            assert hub.counts["tasks_dispatched"] == 3
            assert hub.counts["nodes_lost"] == 0
            fake.vanish()

    def test_a_result_keyed_for_another_function_completes_nothing(self, hub):
        """A node answers every task with a well-sealed result of the
        first function, and with protocol 1's ack: each mis-keyed result
        is a counted corrupt frame and a failed attempt, the ack is no
        verb, a task out of attempts is compiled in-process, and the
        module is the sequential compiler's."""
        fake = FakeNode(hub.address, node_id="confused", workers=4)
        assert hub.wait_for_nodes(1, timeout=10.0)

        def misanswer(frame):
            fake.answer(frame, function_name=FUNCTIONS[0])
            fake.conn.send({"op": "task-done", "id": frame["id"]})

        _serve(fake, misanswer)
        backend = RemoteBackend(hub)
        backend.health.quarantine_after = 100  # the attempt budget alone
        result = ParallelCompiler(backend=backend).compile(SOURCE)
        assert result.digest == _sequential_digest()
        # two tasks, refused on the fleet until their attempts ran out
        assert hub.counts["corrupt_frames"] == 2 * backend.max_attempts
        assert backend.counts == dict(
            retries=2 * (backend.max_attempts - 1), poisoned_tasks=2
        )
        assert sorted(
            report.name for report in result.profile.functions
            if report.poisoned
        ) == sorted(FUNCTIONS[1:])
        fake.vanish()

    def test_zero_nodes_degrades_to_the_local_pool(self, hub):
        backend = RemoteBackend(hub)
        result = ParallelCompiler(backend=backend).compile(SOURCE)
        assert result.digest == _sequential_digest()
        assert backend.counts == dict(degradations=1)
        assert hub.counts["tasks_dispatched"] == 0

    def test_a_node_that_fails_twice_is_quarantined_until_readmission(self):
        """Two consecutive failures bench a node: while the spell lasts
        it is sent no task frame (the healthy node takes the fleet's
        work), and after it the node is sent work again."""
        with FabricHub(lease_ttl=30.0, heartbeat_interval=0.2) as hub:
            flaky = FakeNode(hub.address, node_id="flaky", workers=4)
            behave = [_bounce(flaky)]
            received = _serve(flaky, lambda frame: behave[0](frame))
            steady = WorkerNodeAgent(
                hub.address, SerialBackend(), node_id="steady"
            ).start()
            try:
                assert hub.wait_for_nodes(2, timeout=10.0)
                backend = RemoteBackend(hub)
                backend.health.quarantine_after = 2
                backend.health.backoff_base = 1.5
                compiler = ParallelCompiler(backend=backend)
                assert compiler.compile(SOURCE).digest == _sequential_digest()
                bounced = len(received)
                assert bounced >= 2
                assert backend.counts == dict(
                    retries=bounced, quarantines=1
                )
                dispatched = hub.counts["tasks_dispatched"]

                # benched: the whole next compile goes to the other node
                assert compiler.compile(SOURCE).digest == _sequential_digest()
                assert len(received) == bounced
                assert hub.counts["tasks_dispatched"] == (
                    dispatched + len(FUNCTIONS)
                )

                # re-admitted (and mended): it is sent work again
                behave[0] = flaky.answer
                time.sleep(1.6)
                assert compiler.compile(SOURCE).digest == _sequential_digest()
                assert len(received) > bounced
                assert backend.counts == dict(
                    retries=bounced, quarantines=1
                )
                assert hub.counts["nodes_lost"] == 0
            finally:
                steady.stop()
                flaky.vanish()

    def test_a_heartbeating_node_that_never_answers_loses_its_tasks(self, hub):
        """Wedged but alive: the lease never expires, and no timeout is
        configured — the deadline derived from each task's cost takes
        the tasks back, frees the node's slots and blames the node."""
        fake = FakeNode(hub.address, node_id="wedged", workers=4)
        beating = threading.Event()

        def beat():
            while not beating.wait(0.2):
                fake.heartbeat()

        threading.Thread(target=beat, daemon=True).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            backend = RemoteBackend(hub)
            assert backend.task_timeout is None
            backend.timeout_floor = 0.5  # the derived deadline, sooner
            backend.health.quarantine_after = 1
            backend.health.backoff_base = 30.0
            result = ParallelCompiler(backend=backend).compile(SOURCE)
            assert result.digest == _sequential_digest()
            assert backend.counts == dict(
                timeouts=3, retries=3, quarantines=1, degradations=3
            )
            assert backend.health.quarantined(time.monotonic()) == {
                "node:wedged"
            }
            assert hub.counts["nodes_lost"] == 0
            assert hub.live_node_count() == 1
            assert hub._nodes["wedged"].inflight == {}
        finally:
            beating.set()
            fake.vanish()

    def test_losing_every_node_mid_wave_finishes_on_the_pool_in_parallel(self):
        """The fleet dies holding the wave: what it held, and what was
        still waiting for a slot, is rescued on the local pool by as
        many dispatches as there are tasks — a pool of two runs two at
        once (the hub used to rescue one task at a time)."""

        class Pool:
            worker_count = effective_worker_count = 2

            def __init__(self):
                self.lock = threading.Lock()
                self.running = self.peak = 0

            def run_tasks_streaming(self, tasks):
                with self.lock:
                    self.running += 1
                    self.peak = max(self.peak, self.running)
                time.sleep(0.3)  # hold the slot long enough to be seen
                yield from SerialBackend().run_tasks_streaming(tasks)
                with self.lock:
                    self.running -= 1

        pool = Pool()
        with FabricHub(
            lease_ttl=1.0, heartbeat_interval=0.2, fallback=pool
        ) as hub:
            # one worker: two tasks in flight, the third never sent
            fake = FakeNode(hub.address, node_id="gone", workers=1)
            assert hub.wait_for_nodes(1, timeout=10.0)
            backend = RemoteBackend(hub)
            results, consumer = _consume(backend)
            fake.recv_task(), fake.recv_task()
            fake.vanish()
            consumer.join(timeout=60.0)
            assert not consumer.is_alive(), "wave never completed"
            assert sorted(r.function_name for r in results) == sorted(FUNCTIONS)
            assert pool.peak >= 2
            # two failures blamed on the node (benched, moot), the
            # unsent task's on the farm
            assert backend.counts == dict(
                retries=3, quarantines=1, degradations=3
            )
            assert hub.counts["tasks_dispatched"] == 2

    def test_node_joining_mid_stream_is_used_next_wave(self, hub):
        backend = RemoteBackend(hub)
        assert backend.worker_count == 1  # floor, not zero
        agent = WorkerNodeAgent(
            hub.address, SerialBackend(), node_id="late"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            result = ParallelCompiler(backend=backend).compile(SOURCE)
            assert result.digest == _sequential_digest()
            assert hub.counts["tasks_dispatched"] == len(FUNCTIONS)
        finally:
            agent.stop()

    def test_empty_wave_is_a_noop(self, hub):
        assert list(RemoteBackend(hub).run_tasks_streaming([])) == []


class TestNodeAgent:
    def test_concurrent_tasks_are_each_counted_once(self):
        """The agent's counters are bumped from its session's pool
        threads: N tasks through one agent, eight at a time, read
        exactly N — completed and failed alike."""

        class Link:
            def send(self, frame):
                pass

        class Canned:
            worker_count = 8

            def __init__(self, result):
                self.result = result

            def run_tasks_streaming(self, tasks):
                return [self.result]

        task = _tasks()[0]
        agent = WorkerNodeAgent(
            "127.0.0.1:1", Canned(run_function_master(task)), node_id="n"
        )
        good = encode_task(task, "s.main@0#0")
        unopenable = dict(good, sha256="0" * 64)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # preempt between any two bytecodes
        try:
            with ThreadPoolExecutor(Canned.worker_count) as pool:
                for i in range(300):
                    frame = unopenable if i % 3 == 0 else good
                    pool.submit(agent._run_task, Link(), frame)
        finally:
            sys.setswitchinterval(switch)
        assert agent.counts["tasks_completed"] == 200
        assert agent.counts["tasks_failed"] == 100


class TestComposition:
    def test_supervised_backend_composes_unchanged(self, hub):
        agents = [
            WorkerNodeAgent(
                hub.address, SerialBackend(), node_id=f"n{i}"
            ).start()
            for i in range(2)
        ]
        try:
            assert hub.wait_for_nodes(2, timeout=10.0)
            backend = SupervisedBackend(
                RemoteBackend(hub), hedge_after=None
            )
            result = ParallelCompiler(backend=backend).compile(SOURCE)
            assert result.digest == _sequential_digest()
        finally:
            for agent in agents:
                agent.stop()

    def test_serve_supervised_tunes_the_fleets_one_supervisor(self, hub):
        """``serve --fabric-port``: its supervision flags land on the
        supervisor the fleet already has — nothing is stacked on it —
        and it still degrades to the hub's fallback."""
        from repro.cli import build_parser, stack

        args = build_parser().parse_args(
            ["serve", "--task-timeout", "7", "--hedge-after", "0.5"]
        )
        fleet = RemoteBackend(hub)
        assert (fleet.task_timeout, fleet.hedge_after) == (None, None)
        backend = stack.build_backend(args, fleet)
        assert backend is fleet and backend.inner is hub
        assert (backend.task_timeout, backend.hedge_after) == (7.0, 0.5)
        result = ParallelCompiler(backend=backend).compile(SOURCE)
        assert result.digest == _sequential_digest()
        assert backend.counts == dict(degradations=1)
        # a pool is wrapped, as before
        pool = SerialBackend()
        wrapped = stack.build_backend(args, pool)
        assert wrapped.inner is pool and wrapped.task_timeout == 7.0

    def test_compile_service_composes_unchanged(self, hub):
        agent = WorkerNodeAgent(
            hub.address, SerialBackend(), node_id="svc"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            with CompileService(RemoteBackend(hub)) as service:
                job_id = service.submit(SOURCE, tenant="alice")
                job = service.wait(job_id, timeout=60.0)
                assert job.state == "done"
                assert job.digest == _sequential_digest()
        finally:
            agent.stop()


class TestAuthentication:
    """With WARPCC_FABRIC_SECRET set the hub challenges registrations:
    no lease — and therefore no task payload — for a peer that cannot
    prove the secret."""

    def test_shared_secret_fleet_compiles(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        with FabricHub(lease_ttl=1.0, heartbeat_interval=0.2) as hub:
            agent = WorkerNodeAgent(
                hub.address, SerialBackend(), node_id="authed"
            ).start()
            try:
                assert hub.wait_for_nodes(1, timeout=10.0)
                backend = RemoteBackend(hub)
                result = ParallelCompiler(backend=backend).compile(SOURCE)
                assert result.digest == _sequential_digest()
                assert backend.counts["degradations"] == 0
            finally:
                agent.stop()

    def test_peer_without_secret_never_gains_a_lease(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        with FabricHub(lease_ttl=1.0, heartbeat_interval=0.2) as hub:
            host, _, port = hub.address.rpartition(":")
            sock = socket.create_connection((host, int(port)), timeout=10.0)
            sock.settimeout(10.0)
            conn = Connection(sock)
            conn.send(
                {
                    "op": "register", "node": "intruder", "workers": 4,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            challenge = conn.recv()
            assert challenge is not None
            assert challenge.get("op") == "challenge"  # not a welcome
            conn.send({"op": "auth", "hmac": "0" * 64})
            rejection = conn.recv()
            assert rejection is not None
            assert not rejection.get("ok")
            assert rejection.get("reason") == "unauthenticated"
            assert hub.live_node_count() == 0
            assert hub.counts["nodes_registered"] == 0
            assert hub.counts["corrupt_frames"] == 0  # a refusal, not noise
            conn.close()


class TestHubRestart:
    def test_agent_outlives_the_hub_and_rejoins_its_successor(self):
        """Restarting 'warpcc serve' must not tear down the fleet: the
        plain shutdown frame ends the session, and the agent's
        reconnect loop finds the successor hub on the same port."""
        first = FabricHub(lease_ttl=1.0, heartbeat_interval=0.2)
        port = int(first.address.rpartition(":")[2])
        agent = WorkerNodeAgent(
            first.address, SerialBackend(), node_id="persistent"
        )
        agent.connect_attempts = 16
        agent.start()
        second = None
        try:
            assert first.wait_for_nodes(1, timeout=10.0)
            first.close()  # hub restart, not fleet retirement
            second = FabricHub(
                port=port, lease_ttl=1.0, heartbeat_interval=0.2
            )
            assert second.wait_for_nodes(1, timeout=30.0)
            assert second.node_ids() == ["persistent"]
        finally:
            agent.stop()
            first.close()
            if second is not None:
                second.close()

    def test_retire_fleet_stops_the_agents(self):
        hub = FabricHub(lease_ttl=1.0, heartbeat_interval=0.2)
        agent = WorkerNodeAgent(
            hub.address, SerialBackend(), node_id="retiree"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            hub.close(retire_fleet=True)
            agent._thread.join(timeout=10.0)
            assert not agent._thread.is_alive(), "agent ignored retirement"
        finally:
            agent.stop()


class TestWaveCleanup:
    def test_authoritative_error_purges_the_wave_state(self, hub):
        """A task nothing can compile is bounded: the node bounces it
        until its attempts run out, the in-process compile's error is
        the authoritative one (the function is stubbed around its
        traceback), and the hub holds no attempt of the finished wave (a
        long-running serve process would otherwise leak one per failed
        compile)."""
        fake = FakeNode(hub.address, node_id="bouncer")
        assert hub.wait_for_nodes(1, timeout=10.0)
        received = _serve(fake, _bounce(fake))
        # the master's own tree holds no such function
        phase1_cached(SOURCE, "hub_mod.w2")
        bad = replace(
            _tasks()[0], function_name="missing",
            phase1_key=phase1_key(SOURCE, "hub_mod.w2"),
        )
        backend = RemoteBackend(hub)
        backend.health.quarantine_after = 100
        (result,) = backend.run_tasks_streaming([bad])
        assert len(received) == backend.max_attempts
        assert result.report.failed == 1 and result.report.poisoned == 1
        assert "in-process compile failed" in result.diagnostics[0]
        assert "node reported: boom" in result.diagnostics[0]
        assert backend.counts == dict(
            retries=backend.max_attempts - 1, poisoned_tasks=1
        )
        assert hub._attempts == {}, "finished wave leaked its attempts"
        assert not hub._pending
        fake.vanish()
