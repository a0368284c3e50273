"""Seeded, deterministic fault injection for the fabric's transport.

A :class:`~repro.fabric.node.WorkerNodeAgent` given a
:class:`~repro.parallel.fault_schedule.FaultSchedule` (``chaos=``)
wraps each connection it makes in a :class:`ChaosTransport`.  The
schedule holds the rates, budgets, delay and counts; the transport only
asks it whether a fault fires.  Every decision is a pure function of
``(seed, kind, key, attempt)``, so a given seed produces the same kills,
drops, and corruptions no matter how threads interleave — a failing
seed from CI replays locally, exactly.

A result's decisions are keyed by the task's *identity* — the part of
the hub's id before ``#``, the same for every attempt at a task — and
the schedule outlives reconnects: a task whose result send killed the
connection once is allowed through on the retry (a new wave, a new
serial, the same identity), so seeded kills exercise the retry path
without livelocking the fleet.

The cache tier's faults (``cache-fail``, ``cache-corrupt``) are drawn
from the same kind of schedule, by the cache server's response hook
(:class:`~repro.fabric.netcache.CacheServiceServer`'s ``chaos``).
"""

from __future__ import annotations

import time
from typing import Optional

from ..parallel.fault_schedule import FaultSchedule
from .wire import Connection, encode_frame


class ChaosTransport:
    """A :class:`Connection` whose sends misbehave on schedule.

    Faults fire on the *sending* side — exactly where a flaky NIC,
    a kernel OOM-kill, or a mid-write power loss would land — so the
    receiving hub exercises its real EOF / truncated-frame / duplicate
    handling rather than a simulation of it.
    """

    def __init__(self, conn: Connection, schedule: FaultSchedule):
        self._conn = conn
        self._schedule = schedule

    # Reads and everything else delegate untouched.
    def recv(self) -> Optional[dict]:
        return self._conn.recv()

    def close(self) -> None:
        self._conn.close()

    def send(self, frame: dict) -> None:
        schedule = self._schedule
        op = frame.get("op")
        if op == "heartbeat":
            beat = schedule.take("heartbeat", "hb")
            if not schedule.fires("heartbeat-drop", "hb", beat):
                self._conn.send(frame)
            return  # a dropped beat is silently lost; the lease expires
        if op != "result":
            self._conn.send(frame)
            return

        key = str(frame.get("id", "?")).partition("#")[0]
        attempt = schedule.take("attempt", key)
        if schedule.fires("kill", key, attempt):
            # Node dies before the result is sent: drop the connection
            # without sending.  The hub reports the task lost.
            self._conn.close()
            raise ConnectionResetError(f"chaos: node killed before {key}")
        if schedule.fires("truncate", key, attempt):
            # Half a frame then a dead socket: the hub's reader must
            # reject the partial line, never parse it.
            data = encode_frame(frame)
            try:
                self._conn.send_raw(data[: max(1, len(data) // 2)])
            except OSError:
                pass
            self._conn.close()
            raise ConnectionResetError(f"chaos: frame truncated for {key}")
        delay = schedule.fires("delay", key, attempt)
        duplicate = schedule.fires("duplicate", key, attempt)
        if delay:
            time.sleep(schedule.delay)
        self._conn.send(frame)
        if duplicate:
            self._conn.send(frame)
