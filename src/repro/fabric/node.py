"""The worker-node agent: one machine's pool, leased to the hub.

``warpcc worker --connect HOST:PORT`` runs one of these.  The agent
connects with capped exponential backoff + jitter (a fleet restarting
together must not stampede the hub), registers its local backend's
worker count, then serves tasks: each incoming task frame is decoded —
digest-checked — executed on the local backend, and its result sent
back: the result frame is the completion.  Heartbeats ride a dedicated
thread so a node busy compiling still renews its lease.

The agent is deliberately stateless between connections: if the hub
drops it (lease expiry, protocol error, hub restart — including the
hub's own ``shutdown`` frame, which just ends the session) it simply
reconnects and re-registers, so restarting ``warpcc serve`` never
requires touching the fleet.  Only a ``shutdown`` frame flagged
``retire`` (``FabricHub.close(retire_fleet=True)``) makes the agent
exit for good.  Any task whose result didn't reach the hub is reported
lost by the hub's lease machinery and re-run by its supervisor — the
agent never tracks that, which is what keeps the failure model simple
enough to trust.

When the hub requires a shared secret (``WARPCC_FABRIC_SECRET``), it
answers registration with a ``challenge`` frame; the agent proves the
secret with an HMAC over the nonce before the lease is granted.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..parallel.backend import stream_task_results
from ..parallel.fault_schedule import FaultSchedule
from ..parallel.local import SerialBackend
from .chaos import ChaosTransport
from .wire import (
    PROTOCOL_VERSION,
    Connection,
    ProtocolError,
    connect_with_backoff,
    decode_task,
    encode_result,
    fabric_secret,
    hmac_tag,
    parse_address,
)


def default_node_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerNodeAgent:
    """Registers a local execution backend with a fabric hub.

    The connect policy is class constants no caller varies; a test sets
    one on the instance before :meth:`start`.
    """

    #: connects tried per round before the agent pauses and retries
    connect_attempts: int = 8
    #: first backoff step and its cap, seconds; the cap is also the
    #: pause after a failed round or an explicit rejection
    connect_base: float = 0.05
    connect_cap: float = 2.0
    #: serve again after a session ends (only a retirement stops it)
    reconnect: bool = True

    def __init__(
        self,
        address: str,
        backend=None,
        *,
        node_id: Optional[str] = None,
        chaos: Optional[FaultSchedule] = None,
    ):
        self.host, self.port = parse_address(address, "hub")
        self.backend = backend if backend is not None else SerialBackend()
        self.node_id = node_id or default_node_id()
        self.chaos = chaos
        #: ``tasks_completed`` / ``tasks_refused`` (answered with a
        #: refused window) / ``tasks_failed``, bumped from the
        #: session's pool threads under ``_counts``, and ``sessions``
        self.counts: Counter = Counter()
        self._counts = threading.Lock()
        self._stop = threading.Event()
        self._conn: Optional[Connection] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "WorkerNodeAgent":
        """Run the agent on a daemon thread (tests, embedded fleets)."""
        self._thread = threading.Thread(
            target=self.run_forever,
            name=f"fabric-node-{self.node_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        conn = self._conn
        if conn is not None:
            try:
                conn.send({"op": "goodbye", "node": self.node_id})
            except Exception:  # noqa: BLE001 - already gone is fine
                pass
            conn.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def run_forever(self) -> None:
        """Serve until stopped; reconnects with backoff on any failure."""
        while not self._stop.is_set():
            try:
                conn = connect_with_backoff(
                    self.host,
                    self.port,
                    attempts=self.connect_attempts,
                    base=self.connect_base,
                    cap=self.connect_cap,
                )
            except OSError:
                if not self.reconnect or self._stop.is_set():
                    return
                self._stop.wait(self.connect_cap)
                continue
            if self.chaos is not None:
                conn = ChaosTransport(conn, self.chaos)
            self._conn = conn
            try:
                self._serve(conn)
            except (OSError, ProtocolError, ConnectionError):
                pass  # hub gone or chaos killed the link: reconnect
            finally:
                self._conn = None
                conn.close()
            if not self.reconnect:
                return

    # -- one connection's session --------------------------------------

    def _serve(self, conn) -> None:
        self.counts["sessions"] += 1
        conn.send(
            {
                "op": "register",
                "node": self.node_id,
                "workers": self.backend.worker_count,
                "protocol": PROTOCOL_VERSION,
            }
        )
        welcome = conn.recv()
        if welcome is not None and welcome.get("op") == "challenge":
            secret = fabric_secret()
            if secret is None:
                # The hub requires a secret this agent wasn't given;
                # pause before the reconnect loop tries again so a
                # misconfigured agent doesn't hammer the hub.
                self._stop.wait(self.connect_cap)
                return
            nonce = str(welcome.get("nonce", ""))
            conn.send(
                {
                    "op": "auth",
                    "node": self.node_id,
                    "hmac": hmac_tag(nonce.encode("ascii"), secret),
                }
            )
            welcome = conn.recv()
        if welcome is None or not welcome.get("ok"):
            if welcome is not None:
                # Explicit rejection (failed auth, bad register, another
                # protocol): retrying immediately can't help, so don't
                # spin.
                self._stop.wait(self.connect_cap)
            return
        interval = float(welcome.get("heartbeat_interval", 2.0))
        session_over = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(conn, interval, session_over),
            name=f"fabric-node-{self.node_id}-hb",
            daemon=True,
        )
        heartbeat.start()
        pool = ThreadPoolExecutor(
            max_workers=max(1, self.backend.worker_count),
            thread_name_prefix=f"fabric-node-{self.node_id}",
        )
        try:
            while not self._stop.is_set():
                frame = conn.recv()
                if frame is None:
                    return
                op = frame.get("op")
                if op == "task":
                    pool.submit(self._run_task, conn, frame)
                elif op == "shutdown":
                    # The hub going away ends this *session*, not the
                    # agent: the reconnect loop retries with backoff so
                    # a restarted hub finds its fleet waiting.  Only an
                    # explicit fleet retirement stops the agent.
                    if frame.get("retire"):
                        self._stop.set()
                    return
                elif frame.get("ok") is False:
                    return  # hub rejected us; reconnect fresh
        finally:
            session_over.set()
            pool.shutdown(wait=False)

    def _heartbeat_loop(self, conn, interval: float, session_over: threading.Event) -> None:
        while not session_over.wait(interval):
            try:
                conn.send({"op": "heartbeat", "node": self.node_id})
            except Exception:  # noqa: BLE001 - dead link ends the session
                return

    def _run_task(self, conn, frame: dict) -> None:
        task_id = str(frame.get("id", ""))
        try:
            (result,) = stream_task_results(self.backend, [decode_task(frame)])
        except Exception as exc:  # noqa: BLE001 - report, don't die
            # A task that does not open (WireCorruption) or does not
            # compile: the hub's supervisor decides what that costs.
            with self._counts:
                self.counts["tasks_failed"] += 1
            failed = {"op": "task-failed", "id": task_id, "error": repr(exc)}
            try:
                conn.send(failed)
            except Exception:  # noqa: BLE001 - the lease machinery covers it
                pass
            return
        try:
            conn.send(encode_result(result, task_id))
        except (OSError, ConnectionError, ProtocolError):
            # Link died under the result: the hub reports the task lost.
            return
        counted = "tasks_refused" if result.refused else "tasks_completed"
        with self._counts:
            self.counts[counted] += 1
