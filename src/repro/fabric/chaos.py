"""Seeded, deterministic fault injection for the fabric's transport.

Same schedule as :class:`repro.parallel.fault_tolerance.ChaosBackend`
(:mod:`repro.parallel.fault_schedule`): every fault decision is a pure
function of ``(seed, kind, key, attempt)``, so a given seed produces the
same kills, drops, and corruptions no matter how threads interleave — a
failing seed from CI replays locally, exactly.

:class:`FabricChaos` is the persistent *plan*: it owns the per-task
attempt counters and per-fault budgets, and wraps each (re)connection a
:class:`~repro.fabric.node.WorkerNodeAgent` makes in a
:class:`ChaosTransport`.  Both are keyed by the task's *identity* — the
part of the hub's id before ``#``, the same for every attempt at a task
— and persist across reconnects: a task whose result send killed the
connection once is allowed through on the retry (a new wave, a new
serial, the same identity), so seeded kills exercise the retry path
without livelocking the fleet.

:class:`CacheChaos` does the same for the network cache tier: corrupt
response blobs and transport failures, which the client must convert to
counted misses — never a failed compile.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from ..parallel.fault_schedule import FaultSchedule
from .wire import Connection, encode_frame


class FabricChaos:
    """A seeded fault plan shared by every connection an agent makes."""

    def __init__(
        self,
        seed: int = 0,
        *,
        kill_rate: float = 0.0,
        heartbeat_drop_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_s: float = 0.05,
        duplicate_rate: float = 0.0,
        truncate_rate: float = 0.0,
        max_kills_per_task: int = 1,
        max_truncations_per_task: int = 1,
    ):
        self.schedule = FaultSchedule(seed)
        self.kill_rate = kill_rate
        self.heartbeat_drop_rate = heartbeat_drop_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self.duplicate_rate = duplicate_rate
        self.truncate_rate = truncate_rate
        self.max_kills_per_task = max_kills_per_task
        self.max_truncations_per_task = max_truncations_per_task
        self._lock = threading.Lock()
        self.kills_injected = 0
        self.heartbeats_dropped = 0
        self.frames_delayed = 0
        self.frames_duplicated = 0
        self.frames_truncated = 0

    def wrap(self, conn: Connection) -> "ChaosTransport":
        return ChaosTransport(conn, self)


class ChaosTransport:
    """A :class:`Connection` whose sends misbehave on schedule.

    Faults fire on the *sending* side — exactly where a flaky NIC,
    a kernel OOM-kill, or a mid-write power loss would land — so the
    receiving hub exercises its real EOF / truncated-frame / duplicate
    handling rather than a simulation of it.
    """

    def __init__(self, conn: Connection, plan: FabricChaos):
        self._conn = conn
        self._plan = plan

    # Reads and everything else delegate untouched.
    def recv(self) -> Optional[dict]:
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()

    def send(self, frame: dict) -> None:
        plan = self._plan
        schedule = plan.schedule
        op = frame.get("op")
        if op == "heartbeat":
            with plan._lock:
                drop = schedule.fires(
                    "heartbeat-drop", "hb", schedule.take("heartbeat", "hb"),
                    plan.heartbeat_drop_rate,
                )
                if drop:
                    plan.heartbeats_dropped += 1
            if drop:
                return  # silently lost; the lease must expire
            self._conn.send(frame)
            return
        if op != "result":
            self._conn.send(frame)
            return

        key = str(frame.get("id", "?")).partition("#")[0]
        with plan._lock:
            attempt = schedule.take("attempt", key)
            kill = schedule.fires(
                "kill", key, attempt, plan.kill_rate, plan.max_kills_per_task
            )
            if kill:
                plan.kills_injected += 1
            truncate = not kill and schedule.fires(
                "truncate", key, attempt, plan.truncate_rate,
                plan.max_truncations_per_task,
            )
            if truncate:
                plan.frames_truncated += 1
            delay = schedule.fires("delay", key, attempt, plan.delay_rate)
            duplicate = schedule.fires(
                "duplicate", key, attempt, plan.duplicate_rate
            )

        if kill:
            # Node dies before the result is sent: drop the connection
            # without sending.  The hub reports the task lost.
            self._conn.close()
            raise ConnectionResetError(f"chaos: node killed before {key}")
        if truncate:
            # Half a frame then a dead socket: the hub's reader must
            # reject the partial line, never parse it.
            data = encode_frame(frame)
            try:
                self._conn.send_raw(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            self._conn.close()
            raise ConnectionResetError(f"chaos: frame truncated for {key}")
        if delay:
            with plan._lock:
                plan.frames_delayed += 1
            time.sleep(plan.delay_s)
        self._conn.send(frame)
        if duplicate:
            with plan._lock:
                plan.frames_duplicated += 1
            self._conn.send(frame)


class CacheChaos:
    """Seeded corruption/failure plan for the network cache tier."""

    def __init__(
        self,
        seed: int = 0,
        *,
        corrupt_rate: float = 0.0,
        fail_rate: float = 0.0,
        max_corruptions_per_key: int = 1,
    ):
        self.schedule = FaultSchedule(seed)
        self.corrupt_rate = corrupt_rate
        self.fail_rate = fail_rate
        self.max_corruptions_per_key = max_corruptions_per_key
        self._lock = threading.Lock()
        self.responses_corrupted = 0
        self.requests_failed = 0

    def should_fail(self, key: str) -> bool:
        with self._lock:
            if self.schedule.fires("cache-fail", key, 0, self.fail_rate):
                self.requests_failed += 1
                return True
        return False

    def maybe_corrupt(self, key: str, blob: bytes) -> bytes:
        """Deterministically scribble on a response blob (bounded per key,
        so the retry after the client rejects it can succeed)."""
        with self._lock:
            # Each corruption already served is this key's next attempt.
            corrupt = bool(blob) and self.schedule.fires(
                "cache-corrupt", key, self.schedule.count("cache-corrupt", key),
                self.corrupt_rate, self.max_corruptions_per_key,
            )
            if corrupt:
                self.responses_corrupted += 1
        if not corrupt:
            return blob
        scribbled = bytearray(blob)
        scribbled[len(scribbled) // 2] ^= 0xFF
        return bytes(scribbled)
