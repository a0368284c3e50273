"""The fabric hub: lease-based scheduling of tasks onto worker nodes.

The hub is the master's view of the fleet.  Worker-node agents connect,
register (gaining a *lease*), and renew the lease with heartbeats; the
hub assigns function-master tasks to the least-loaded live node and
tracks, per node, exactly which tasks are in flight.  The failure rules
are few and absolute:

- a task is complete when a result frame for it opens, verifies and is
  keyed for that task's function — the result is the completion;
- a node whose connection drops, whose frames stop parsing, or whose
  lease expires is *lost*: every task it held with no accepted result
  is re-queued, once each, onto the surviving fleet;
- first result per task wins, identical to the supervisor's hedging
  rule, so a "lost" node that was merely slow can never double-link a
  function;
- a result failing digest validation, or keyed for another function, is
  dropped, counted, and its task re-queued — corruption costs a retry,
  never a wrong artifact;
- a task that keeps bouncing (re-queue budget exhausted, or a compile
  error on the node) is executed on the hub's *local fallback* backend,
  which is authoritative: its result — or its exception — is final;
- zero live nodes degrades the whole wave to the local fallback.

:class:`RemoteBackend` wraps the hub in the standard
``run_tasks_streaming`` surface, so everything that consumes an
execution backend — the driver, the supervisor, the compile service,
the fuzz oracle — schedules onto the fleet unchanged.
"""

from __future__ import annotations

import hmac
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from ..driver.function_master import FunctionTask, FunctionTaskResult
from ..parallel.backend import stream_task_results
from ..parallel.local import SerialBackend
from .wire import (
    PROTOCOL_VERSION,
    AuthenticationError,
    Connection,
    LineServer,
    ProtocolError,
    WireCorruption,
    decode_result,
    encode_task,
    fabric_secret,
    hmac_tag,
    refusal,
    replies_to,
)

#: Lease/heartbeat defaults: a node missing ~3 heartbeats is lost.
DEFAULT_HEARTBEAT_INTERVAL = 2.0
DEFAULT_LEASE_TTL = 7.0

#: Times a task is re-queued onto the fleet before the local fallback
#: takes it (a task that kills every node it touches must not take the
#: whole fleet down with it — the poison rule, one level up).
DEFAULT_MAX_REQUEUES = 2

#: In-flight tasks per node, as a multiple of its worker count; keeps a
#: node's pipeline full without letting one node hoard the queue.
INFLIGHT_FACTOR = 2


@dataclass
class FabricStats:
    """Counters over one hub's lifetime."""

    nodes_registered: int = 0
    nodes_lost: int = 0
    waves: int = 0
    degraded_waves: int = 0
    tasks_dispatched: int = 0
    tasks_requeued: int = 0
    tasks_local_fallback: int = 0
    results_deduped: int = 0
    corrupt_frames: int = 0

    def copy(self) -> "FabricStats":
        return FabricStats(**self.__dict__)


class _Wave:
    """One ``run_tasks_streaming`` call's worth of tasks."""

    def __init__(self, wave_id: int, task_ids: Set[str]):
        self.id = wave_id
        self.open_tasks: Set[str] = set(task_ids)
        self.queue: "queue.Queue" = queue.Queue()


class _TaskState:
    __slots__ = ("task_id", "task", "wave", "requeues", "node_id", "assigned_at", "done")

    def __init__(self, task_id: str, task: FunctionTask, wave: _Wave):
        self.task_id = task_id
        self.task = task
        self.wave = wave
        self.requeues = 0
        self.node_id: Optional[str] = None
        self.assigned_at: Optional[float] = None
        self.done = False


class _Node:
    __slots__ = ("node_id", "conn", "workers", "expires_at", "inflight", "alive")

    def __init__(self, node_id: str, conn, workers: int, expires_at: float):
        self.node_id = node_id
        self.conn = conn
        self.workers = workers
        self.expires_at = expires_at
        self.inflight: Dict[str, _TaskState] = {}
        self.alive = True


class FabricHub:
    """Central scheduler for a fleet of worker-node agents."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fallback=None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        task_timeout: Optional[float] = None,
    ):
        if lease_ttl <= heartbeat_interval:
            raise ValueError(
                f"lease_ttl ({lease_ttl}) must exceed the heartbeat "
                f"interval ({heartbeat_interval}) or every node flaps"
            )
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.max_requeues = max_requeues
        self.task_timeout = task_timeout
        self.stats = FabricStats()

        self._lock = threading.RLock()
        self._fleet_changed = threading.Condition(self._lock)
        self._nodes: Dict[str, _Node] = {}
        self._pending: Deque[_TaskState] = deque()
        self._tasks: Dict[str, _TaskState] = {}
        self._next_wave = 0
        self._closed = False

        self._local_queue: "queue.Queue" = queue.Queue()
        self.endpoint = LineServer(host, port, self._serve_connection).start(
            "fabric-hub-server"
        )
        self._monitor_stop = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="fabric-hub-monitor", daemon=True
        )
        self._monitor_thread.start()
        self._local_thread = threading.Thread(
            target=self._local_loop, name="fabric-hub-local", daemon=True
        )
        self._local_thread.start()

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        return self.endpoint.address

    def close(self, retire_fleet: bool = False) -> None:
        """Stop the hub.  Agents treat the plain ``shutdown`` as
        end-of-session and reconnect with backoff (a hub restart must
        not require touching every machine); ``retire_fleet=True``
        marks it a fleet retirement, telling every agent to exit."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            nodes = list(self._nodes.values())
            self._nodes.clear()
        self._monitor_stop.set()
        self.endpoint.close()
        self._local_queue.put(None)
        for node in nodes:
            try:
                node.conn.send({"op": "shutdown", "retire": retire_fleet})
            except Exception:  # noqa: BLE001 - node may already be gone
                pass
            node.conn.close()
        self._monitor_thread.join(timeout=5.0)
        self._local_thread.join(timeout=5.0)

    def __enter__(self) -> "FabricHub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fleet introspection -------------------------------------------

    def live_node_count(self) -> int:
        with self._lock:
            return sum(1 for n in self._nodes.values() if n.alive)

    def total_workers(self) -> int:
        with self._lock:
            return sum(n.workers for n in self._nodes.values() if n.alive)

    def node_ids(self) -> List[str]:
        with self._lock:
            return sorted(n.node_id for n in self._nodes.values() if n.alive)

    def wait_for_nodes(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` nodes hold live leases (startup sync)."""
        deadline = time.monotonic() + timeout
        with self._fleet_changed:
            while self.live_node_count() < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._fleet_changed.wait(remaining)
        return True

    # -- node connections ----------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        """One node's session: ``register`` (the only verb a peer has
        before it holds a lease), then the lease loop.  The endpoint
        answers a :class:`ProtocolError` raised here and closes the
        connection when this returns."""
        node: Optional[_Node] = None
        reason = "disconnected"

        def register(frame: dict) -> dict:
            nonlocal node
            if frame.get("protocol") != PROTOCOL_VERSION:
                # Its task entries would not open here, nor ours there.
                return refusal(
                    f"hub speaks fabric protocol {PROTOCOL_VERSION}, "
                    f"peer {frame.get('protocol')!r}",
                    "protocol-mismatch",
                )
            self._authenticate(conn)
            node = self._register(conn, frame)
            return {
                "op": "welcome",
                "ok": True,
                "node": node.node_id,
                "protocol": PROTOCOL_VERSION,
                "lease_ttl": self.lease_ttl,
                "heartbeat_interval": self.heartbeat_interval,
            }

        verbs = {"register": register}
        try:
            while node is None:
                frame = conn.recv()
                if frame is None:
                    return
                for reply in replies_to(frame, verbs):
                    conn.send(reply)
            self._pump()
            while True:
                frame = conn.recv()
                if frame is None:
                    return
                self._renew(node)
                op = frame.get("op")
                if op == "heartbeat":
                    continue
                if op == "result":
                    self._on_result(node, frame)
                elif op == "task-failed":
                    self._on_task_failed(frame)
                elif op == "goodbye":
                    reason = "goodbye"
                    return
                # unknown ops are ignored (forward compatibility)
        except ProtocolError as exc:
            reason = exc.reason
            # a failed challenge is a refusal, not line noise
            if not isinstance(exc, AuthenticationError):
                with self._lock:
                    self.stats.corrupt_frames += 1
            raise
        except OSError:
            reason = "io-error"
        finally:
            if node is not None:
                self._lose_node(node.node_id, reason, expect=node)

    def _authenticate(self, conn: Connection) -> None:
        """Challenge-response proof of the shared secret, when one is
        configured.  Runs *before* registration: a peer that cannot
        answer never gains a lease, so no task payload (which carries
        tenant source text) is ever sent to an unauthenticated socket.
        Without a secret the fabric is open — trusted networks only."""
        secret = fabric_secret()
        if secret is None:
            return
        nonce = os.urandom(16).hex()
        conn.send({"op": "challenge", "nonce": nonce})
        reply = conn.recv()
        tag = (
            reply.get("hmac")
            if reply is not None and reply.get("op") == "auth"
            else None
        )
        if not isinstance(tag, str) or not hmac.compare_digest(
            tag, hmac_tag(nonce.encode("ascii"), secret)
        ):
            raise AuthenticationError(
                "challenge response does not prove the fabric secret"
            )

    def _register(self, conn: Connection, frame: dict) -> _Node:
        node_id = str(frame.get("node") or f"node-{id(conn):x}")
        workers = max(1, int(frame.get("workers", 1)))
        with self._lock:
            stale = self._nodes.get(node_id)
        if stale is not None:
            # A reconnecting agent beat the hub to noticing its old
            # connection died; the old lease is superseded, its
            # unfinished tasks re-queue now.
            self._lose_node(node_id, "superseded", expect=stale)
        with self._fleet_changed:
            node = _Node(
                node_id, conn, workers, time.monotonic() + self.lease_ttl
            )
            self._nodes[node_id] = node
            self.stats.nodes_registered += 1
            self._fleet_changed.notify_all()
        return node

    def _renew(self, node: _Node) -> None:
        with self._lock:
            node.expires_at = time.monotonic() + self.lease_ttl

    def _lose_node(self, node_id: str, reason: str, expect: Optional[_Node] = None) -> None:
        """Expire a node's lease and re-queue its unfinished tasks."""
        with self._fleet_changed:
            node = self._nodes.get(node_id)
            if node is None or (expect is not None and node is not expect):
                return  # already superseded by a fresh registration
            del self._nodes[node_id]
            node.alive = False
            self.stats.nodes_lost += 1
            for state in node.inflight.values():
                if state.done:
                    continue
                state.node_id = None
                state.requeues += 1
                self._pending.append(state)
                self.stats.tasks_requeued += 1
            node.inflight.clear()
            self._fleet_changed.notify_all()
        node.conn.close()
        self._pump()

    # -- frame handlers ------------------------------------------------

    def _on_result(self, node: _Node, frame: dict) -> None:
        task_id = str(frame.get("id", ""))
        with self._lock:
            state = self._tasks.get(task_id)
        try:
            result = decode_result(frame)
            if state is not None and result.key != state.task.key:
                raise WireCorruption(
                    f"task {task_id} is {state.task.key}, "
                    f"its result is keyed {result.key}"
                )
        except WireCorruption:
            # Validated at the crossing: a corrupt or mis-keyed result
            # costs this attempt, never a wrong artifact.  Re-queue the
            # task.
            with self._lock:
                self.stats.corrupt_frames += 1
            self._requeue_task(task_id)
            return
        self._complete_task(task_id, result, worker=f"node:{node.node_id}")

    def _complete_task(
        self, task_id: str, result: FunctionTaskResult, worker: str
    ) -> None:
        """The result is the completion: hand it to the wave, free the
        task's slot, close the wave when it was the last."""
        with self._lock:
            state = self._tasks.get(task_id)
            if state is None:
                return  # wave already finished or task unknown
            if state.done:
                # First result won already (a re-queued task's original
                # owner turned out to be slow, not dead).
                self.stats.results_deduped += 1
                return
            state.done = True
            if result.worker is None:
                result.worker = worker
            for node in self._nodes.values():
                node.inflight.pop(task_id, None)
            wave = state.wave
            # Queued under the lock: "done" must not overtake a result.
            wave.queue.put(("result", result))
            wave.open_tasks.discard(task_id)
            if not wave.open_tasks:
                for tid in list(self._tasks):
                    if self._tasks[tid].wave is wave:
                        del self._tasks[tid]
                wave.queue.put(("done", None))
        self._pump()

    def _on_task_failed(self, frame: dict) -> None:
        """The node's compiler raised.  The local fallback is
        authoritative: it reproduces the canonical error (or quietly
        succeeds, if the node was the problem)."""
        task_id = str(frame.get("id", ""))
        with self._lock:
            state = self._tasks.get(task_id)
            if state is None or state.done:
                return
            for node in self._nodes.values():
                node.inflight.pop(task_id, None)
            self._dispatch_local(state)

    def _requeue_task(self, task_id: str) -> None:
        with self._lock:
            state = self._tasks.get(task_id)
            if state is None or state.done:
                return
            for node in self._nodes.values():
                node.inflight.pop(task_id, None)
            state.node_id = None
            state.requeues += 1
            self._pending.append(state)
            self.stats.tasks_requeued += 1
        self._pump()

    # -- scheduling ----------------------------------------------------

    def submit_wave(self, tasks: List[FunctionTask]) -> _Wave:
        with self._lock:
            wave_id = self._next_wave
            self._next_wave += 1
            states = []
            task_ids = set()
            for index, task in enumerate(tasks):
                task_id = f"w{wave_id}.{index}"
                task_ids.add(task_id)
                states.append((task_id, task))
            wave = _Wave(wave_id, task_ids)
            for task_id, task in states:
                state = _TaskState(task_id, task, wave)
                self._tasks[task_id] = state
                self._pending.append(state)
            self.stats.waves += 1
        self._pump()
        return wave

    def _pump(self) -> None:
        """Assign pending tasks to live nodes (or the local fallback)."""
        while True:
            to_send: List[Tuple[_Node, dict]] = []
            with self._lock:
                live = [n for n in self._nodes.values() if n.alive]
                while self._pending:
                    state = self._pending[0]
                    if state.done:
                        self._pending.popleft()
                        continue
                    if state.requeues > self.max_requeues or not live:
                        self._pending.popleft()
                        self._dispatch_local(state)
                        continue
                    node = min(
                        live, key=lambda n: (len(n.inflight) / n.workers, n.node_id)
                    )
                    if len(node.inflight) >= node.workers * INFLIGHT_FACTOR:
                        break  # fleet saturated; completions re-pump
                    self._pending.popleft()
                    state.node_id = node.node_id
                    state.assigned_at = time.monotonic()
                    node.inflight[state.task_id] = state
                    to_send.append((node, encode_task(state.task, state.task_id)))
                    self.stats.tasks_dispatched += 1
            if not to_send:
                return
            lost = []
            for node, frame in to_send:
                try:
                    node.conn.send(frame)
                except Exception:  # noqa: BLE001 - any send failure kills the lease
                    lost.append(node)
            if not lost:
                return
            for node in lost:
                self._lose_node(node.node_id, "send-failed", expect=node)
            # _lose_node re-queued the failed sends; loop to reassign.

    def _dispatch_local(self, state: _TaskState) -> None:
        """Hand a task to the fallback runner (caller holds the lock)."""
        self.stats.tasks_local_fallback += 1
        self._local_queue.put(state)

    def _local_loop(self) -> None:
        while True:
            state = self._local_queue.get()
            if state is None:
                return
            if state.done:
                continue
            try:
                (result,) = stream_task_results(self.fallback, [state.task])
            except Exception as exc:  # noqa: BLE001 - authoritative failure
                wave = state.wave
                with self._lock:
                    state.done = True
                    wave.open_tasks.discard(state.task_id)
                    if not wave.open_tasks:
                        # Same sweep _complete_task does: the wave is
                        # over (its consumer gets the error), so its
                        # task states must not outlive it.
                        for tid in list(self._tasks):
                            if self._tasks[tid].wave is wave:
                                del self._tasks[tid]
                wave.queue.put(("error", exc))
                continue
            self._complete_task(state.task_id, result, worker="local-fallback")

    # -- lease monitor -------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = max(0.02, min(self.heartbeat_interval / 2.0, self.lease_ttl / 4.0))
        while not self._monitor_stop.wait(tick):
            now = time.monotonic()
            expired: List[_Node] = []
            timed_out: List[str] = []
            with self._lock:
                for node in self._nodes.values():
                    if node.alive and now > node.expires_at:
                        expired.append(node)
                        continue
                    if self.task_timeout is not None:
                        for state in node.inflight.values():
                            if (
                                state.assigned_at is not None
                                and now - state.assigned_at > self.task_timeout
                            ):
                                timed_out.append(state.task_id)
            for node in expired:
                self._lose_node(node.node_id, "lease-expired", expect=node)
            for task_id in timed_out:
                self._requeue_task(task_id)
            self._pump()


class RemoteDispatchError(RuntimeError):
    """The fabric could not complete a wave (stall, not a compile error
    — compile errors re-raise as themselves via the local fallback)."""


class RemoteBackend:
    """The fleet behind the standard execution-backend surface.

    Degrades gracefully: a wave submitted while zero nodes hold live
    leases runs entirely on the hub's local fallback backend, and nodes
    lost mid-wave shed their unfinished tasks back through the hub.
    """

    def __init__(self, hub: FabricHub, progress_timeout: float = 300.0):
        self.hub = hub
        self.progress_timeout = progress_timeout
        self._last_effective: Optional[int] = None

    @property
    def worker_count(self) -> int:
        return max(1, self.hub.total_workers())

    @property
    def effective_worker_count(self) -> int:
        if self._last_effective is None:
            return self.worker_count
        return self._last_effective

    def run_tasks_streaming(
        self, tasks: List[FunctionTask]
    ) -> Iterator[FunctionTaskResult]:
        if not tasks:
            return
        fleet = self.hub.total_workers()
        self._last_effective = min(len(tasks), max(1, fleet))
        if self.hub.live_node_count() == 0:
            # Zero live nodes: the compile must still succeed, at local
            # speed.  Counted so operators can see the degradation.
            with self.hub._lock:
                self.hub.stats.degraded_waves += 1
            yield from stream_task_results(self.hub.fallback, tasks)
            return
        wave = self.hub.submit_wave(tasks)
        last_progress = time.monotonic()
        while True:
            try:
                kind, payload = wave.queue.get(timeout=0.25)
            except queue.Empty:
                if time.monotonic() - last_progress > self.progress_timeout:
                    raise RemoteDispatchError(
                        f"fabric made no progress for {self.progress_timeout}s "
                        f"({len(wave.open_tasks)} tasks still open)"
                    )
                continue
            last_progress = time.monotonic()
            if kind == "result":
                yield payload
            elif kind == "done":
                return
            elif kind == "error":
                raise payload
