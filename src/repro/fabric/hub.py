"""The fabric hub: lease-based assignment of tasks to worker nodes.

The hub is the master's view of the fleet.  Worker-node agents connect,
register (gaining a *lease*), and renew the lease with heartbeats; the
hub sends each function-master task to the least-loaded live node and
knows, per node, exactly which tasks it holds.  It *reports* what
happens to a task and decides nothing — no retry budget, no deadline,
no thread that compiles.  Every decision is
:class:`~repro.parallel.supervisor.SupervisedBackend`'s, over the
optional surface :class:`~repro.parallel.fault_tolerance.ChaosBackend`
exercises (``*``: a :class:`FabricStats` counter, the rest
``SupervisionStats``; INTERNALS.md §Supervision has the long form):

====================================  =========================  ===============
the hub reports                       the supervisor             counter
====================================  =========================  ===============
result that verifies, keyed for task  first per task wins        —
result for a task answered already    drops it                   late_duplicates
failure: frame corrupt or mis-keyed   blames the node, retries   corrupt_frames*
failure: node answered task-failed    blames the node, retries   retries
failure: node lost, per task it held  blames the node, retries   nodes_lost*
failure: no live node for the task    blames the farm, retries   retries
abandon(task): who held it            deadline: blames, retries  timeouts
exclude_workers: no frame to a node   benches a failing node     quarantines
worker_names empty: no live node      runs on ``hub.fallback``   degradations
—                                     out of attempts: compiles  poisoned_tasks
                                      in-process, never cached
====================================  =========================  ===============

``run_tasks_events`` yields ``("start", task)`` when the task frame is
sent, then one ``("result", r)`` stamped ``worker="node:<id>"`` or one
``("failure", FunctionMasterFailure)`` per task.  :class:`RemoteBackend`
is that supervisor over a hub, so everything that consumes an execution
backend — driver, compile service, fuzz oracle — schedules onto the
fleet unchanged.
"""

from __future__ import annotations

import hmac
import itertools
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..driver.function_master import FunctionTask
from ..parallel.fault_tolerance import FunctionMasterFailure
from ..parallel.supervisor import SupervisedBackend
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

#: In-flight tasks per node, as a multiple of its worker count; keeps a
#: node's pipeline full without letting one node hoard the queue.
INFLIGHT_FACTOR = 2


@dataclass
class FabricStats:
    """Counters over one hub's lifetime (what was done about any of it
    is in the supervisor's ``SupervisionStats``)."""

    nodes_registered: int = 0
    nodes_lost: int = 0
    waves: int = 0
    tasks_dispatched: int = 0
    corrupt_frames: int = 0

    def copy(self) -> "FabricStats":
        return FabricStats(**self.__dict__)


class _Attempt:
    """One task of one wave.  ``id`` is ``<identity>#<n>``: the identity
    (function name and task digest) is the same for every attempt at a
    task, which is what a transport fault budget is keyed by."""

    __slots__ = ("id", "task", "frame", "wave", "node", "abandoned")

    def __init__(self, task: FunctionTask, wave: "_Wave", serial: int):
        self.task = task
        self.wave = wave
        self.frame = encode_task(task, "")
        self.id = self.frame["id"] = (
            f"{task.section_name}.{task.function_name}"
            f"@{self.frame['sha256'][:8]}#{serial}"
        )
        self.node: Optional[_Node] = None
        self.abandoned = False


class _Wave:
    """One ``run_tasks_events`` call: iterating it yields the events of
    its attempts, each of which ends in exactly one result or failure
    unless the consumer takes it back first (:meth:`abandon`)."""

    def __init__(self, hub: "FabricHub", tasks: List[FunctionTask]):
        self.hub = hub
        self.events: "queue.SimpleQueue" = queue.SimpleQueue()
        self.attempts = {
            task.key: _Attempt(task, self, next(hub._serials)) for task in tasks
        }
        self.open = len(self.attempts)

    def __iter__(self) -> Iterator[tuple]:
        try:
            # None follows the last open attempt's last event.
            yield from iter(self.events.get, None)
        finally:
            self.hub._forget(self)

    def abandon(self, task: FunctionTask) -> Optional[str]:
        """The consumer stopped waiting for ``task`` (a deadline): free
        its slot and name the node that held it.  Its answer, should it
        come while the wave is open, is still reported."""
        with self.hub._lock:
            attempt = self.attempts.get(task.key)
            if attempt is None or not self.hub._close(attempt, None):
                return None
        self.hub._pump()
        return attempt.node.name if attempt.node is not None else None


class _Node:
    __slots__ = ("node_id", "name", "conn", "workers", "expires_at", "inflight")

    def __init__(self, node_id: str, conn, workers: int, expires_at: float):
        self.node_id = node_id
        self.name = f"node:{node_id}"
        self.conn = conn
        self.workers = workers
        self.expires_at = expires_at
        self.inflight: Dict[str, _Attempt] = {}


class FabricHub:
    """Central assigner for a fleet of worker-node agents."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        fallback=None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ):
        if lease_ttl <= heartbeat_interval:
            raise ValueError(
                f"lease_ttl ({lease_ttl}) must exceed the heartbeat "
                f"interval ({heartbeat_interval}) or every node flaps"
            )
        #: where :class:`RemoteBackend` degrades to (None: in-process);
        #: the hub itself runs nothing
        self.fallback = fallback
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = heartbeat_interval
        self.stats = FabricStats()
        self.effective_worker_count = 1

        self._lock = threading.RLock()
        self._fleet_changed = threading.Condition(self._lock)
        self._nodes: Dict[str, _Node] = {}
        self._pending: Deque[_Attempt] = deque()
        #: attempt id -> attempt, while a frame for it would be routed
        self._attempts: Dict[str, _Attempt] = {}
        self._serials = itertools.count()
        self._excluded: frozenset = frozenset()

        self.endpoint = LineServer(host, port, self._serve_connection).start(
            "fabric-hub-server"
        )
        self._monitor_stop = threading.Event()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="fabric-hub-monitor", daemon=True
        )
        self._monitor_thread.start()

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
            if self._monitor_stop.is_set():
                return  # closed already
            self._monitor_stop.set()
            nodes = list(self._nodes.values())
        self.endpoint.close()
        for node in nodes:
            try:
                node.conn.send({"op": "shutdown", "retire": retire_fleet})
            except Exception:  # noqa: BLE001 - node may already be gone
                pass
            self._lose_node(node, "hub closed")  # what it held is reported
        self._monitor_thread.join(timeout=5.0)

    def __enter__(self) -> "FabricHub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- fleet introspection -------------------------------------------

    def live_node_count(self) -> int:
        return len(self._nodes)

    def total_workers(self) -> int:
        with self._lock:
            return sum(n.workers for n in self._nodes.values())

    def node_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._nodes)

    def fleet_stats(self) -> dict:
        """The counters plus ``live_nodes`` (``warpcc status``)."""
        with self._lock:
            return {"live_nodes": len(self._nodes), **vars(self.stats)}

    def wait_for_nodes(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` nodes hold live leases (startup sync)."""
        with self._fleet_changed:
            return self._fleet_changed.wait_for(
                lambda: len(self._nodes) >= count, timeout
            )

    # -- the supervisor's surface --------------------------------------

    @property
    def worker_count(self) -> int:
        return max(1, self.total_workers())  # floor, not zero

    @property
    def worker_names(self) -> Tuple[str, ...]:
        """What health is recorded against: the live nodes.  None at
        all tells the supervisor there is no fleet to dispatch to."""
        with self._lock:
            return tuple(node.name for node in self._nodes.values())

    def exclude_workers(self, names) -> None:
        """Send no task frame to ``names`` (the supervisor's quarantine
        set); an empty set re-admits everyone."""
        with self._lock:
            self._excluded = frozenset(names)
        self._pump()

    def run_tasks_events(self, tasks: List[FunctionTask]) -> _Wave:
        wave = _Wave(self, tasks)
        with self._lock:
            self.stats.waves += 1
            self.effective_worker_count = min(len(tasks), self.worker_count)
            for attempt in wave.attempts.values():
                self._attempts[attempt.id] = attempt
                self._pending.append(attempt)
        self._pump()
        return wave

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
                with self._lock:
                    node.expires_at = time.monotonic() + self.lease_ttl
                op = frame.get("op")
                if op == "result":
                    self._on_result(node, frame)
                elif op == "task-failed":
                    self._fail(
                        str(frame.get("id", "")), node,
                        f"node reported: {frame.get('error')}",
                    )
                elif op == "goodbye":
                    reason = "goodbye"
                    return
                # heartbeats renewed the lease above; unknown ops are
                # ignored (forward compatibility)
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
                self._lose_node(node, reason)

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
            # connection died: the old lease is superseded and what it
            # held is reported failed now.
            self._lose_node(stale, "superseded")
        with self._fleet_changed:
            node = _Node(
                node_id, conn, workers, time.monotonic() + self.lease_ttl
            )
            self._nodes[node_id] = node
            self.stats.nodes_registered += 1
            self._fleet_changed.notify_all()
        return node

    def _lose_node(self, node: _Node, reason: str) -> None:
        """End a node's lease and report every task it still held."""
        with self._fleet_changed:
            if self._nodes.get(node.node_id) is not node:
                return  # lost already, or superseded by a fresh lease
            del self._nodes[node.node_id]
            if not self._monitor_stop.is_set():  # close() loses no node
                self.stats.nodes_lost += 1
            for attempt in list(node.inflight.values()):
                self._close(
                    attempt, self._failure(attempt, f"node lost: {reason}")
                )
            self._fleet_changed.notify_all()
        node.conn.close()
        self._pump()

    # -- attempts: every open one ends exactly once --------------------

    @staticmethod
    def _failure(attempt: _Attempt, reason: str) -> tuple:
        worker = attempt.node.name if attempt.node is not None else None
        return "failure", FunctionMasterFailure(attempt.task, reason, worker)

    def _close(self, attempt: _Attempt, event: Optional[tuple]) -> bool:
        """An open attempt stops counting (caller holds the lock): its
        slot is free, ``event`` goes to its wave, and the wave's end
        marker follows its last.  No event is the consumer taking the
        attempt back: a late answer is still routed while the wave is
        open.  False when it had stopped counting already."""
        if attempt.abandoned or attempt.id not in self._attempts:
            return False
        wave = attempt.wave
        if event is None:
            attempt.abandoned = True
        else:
            del self._attempts[attempt.id]
            wave.events.put(event)
        if attempt.node is not None:
            attempt.node.inflight.pop(attempt.id, None)
        wave.open -= 1
        if not wave.open:
            wave.events.put(None)
        return True

    def _fail(self, attempt_id: str, node: _Node, reason: str) -> None:
        """``node`` could not finish the attempt it was sent."""
        with self._lock:
            attempt = self._attempts.get(attempt_id)
            if attempt is not None and attempt.node is node:
                self._close(attempt, self._failure(attempt, reason))
        self._pump()

    def _forget(self, wave: _Wave) -> None:
        """The wave's consumer is gone: nothing of it is routed again."""
        with self._lock:
            for attempt in wave.attempts.values():
                if self._attempts.pop(attempt.id, None) and attempt.node:
                    attempt.node.inflight.pop(attempt.id, None)
        self._pump()

    def _on_result(self, node: _Node, frame: dict) -> None:
        attempt_id = str(frame.get("id", ""))
        with self._lock:
            attempt = self._attempts.get(attempt_id)
        try:
            result = decode_result(frame)
            if attempt is not None and result.key != attempt.task.key:
                raise WireCorruption(
                    f"task {attempt_id} is {attempt.task.key}, "
                    f"its result is keyed {result.key}"
                )
        except WireCorruption as exc:
            # Validated at the crossing: a corrupt or mis-keyed result
            # costs this attempt, never a wrong artifact.
            with self._lock:
                self.stats.corrupt_frames += 1
            self._fail(attempt_id, node, f"corrupt result frame: {exc}")
            return
        if attempt is None:
            return  # its wave is over
        result.worker = node.name
        with self._lock:
            if (
                not self._close(attempt, ("result", result))
                and attempt.wave.open
                and attempt.id in self._attempts
            ):
                # Slow, not dead: an abandoned attempt answered while
                # its consumer still listens, who decides what a late
                # answer is worth.
                attempt.wave.events.put(("result", result))
        self._pump()

    # -- assignment ----------------------------------------------------

    def _pump(self) -> None:
        """Send pending tasks to the least-loaded admissible nodes."""
        to_send: List[Tuple[_Node, dict]] = []
        with self._lock:
            nodes = [
                node
                for node in self._nodes.values()
                if node.name not in self._excluded
            ]
            while self._pending:
                attempt = self._pending[0]
                if attempt.abandoned or attempt.id not in self._attempts:
                    self._pending.popleft()
                    continue
                if not nodes:
                    self._pending.popleft()
                    self._close(attempt, self._failure(attempt, "no live node"))
                    continue
                node = min(
                    nodes, key=lambda n: (len(n.inflight) / n.workers, n.node_id)
                )
                if len(node.inflight) >= node.workers * INFLIGHT_FACTOR:
                    break  # fleet saturated; completions re-pump
                self._pending.popleft()
                attempt.node = node
                node.inflight[attempt.id] = attempt
                attempt.wave.events.put(("start", attempt.task))
                to_send.append((node, attempt.frame))
                self.stats.tasks_dispatched += 1
        for node, frame in to_send:
            try:
                node.conn.send(frame)
            except Exception:  # noqa: BLE001 - any send failure kills the lease
                self._lose_node(node, "send-failed")

    # -- lease monitor -------------------------------------------------

    def _monitor_loop(self) -> None:
        tick = max(0.02, min(self.heartbeat_interval / 2.0, self.lease_ttl / 4.0))
        while not self._monitor_stop.wait(tick):
            now = time.monotonic()
            with self._lock:
                expired = [n for n in self._nodes.values() if now > n.expires_at]
            for node in expired:
                self._lose_node(node, "lease-expired")


class RemoteBackend(SupervisedBackend):
    """The fleet behind the standard execution-backend surface: the
    supervisor's run loop over the hub's events, degrading to
    ``hub.fallback`` (under ``warpcc serve``, the local pool).  Hedging
    is off until a caller tunes it on — ``warpcc serve`` does, with its
    ``--hedge-after``; a worker node's own pool runs bare, so this is
    the one policy for every task the fleet runs."""

    def __init__(self, hub: FabricHub):
        super().__init__(hub, hedge_after=None, fallback=hub.fallback)
