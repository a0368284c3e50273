#!/usr/bin/env python3
"""Record what every seeded fault schedule injects, as a test fixture.

    PYTHONPATH=src python scripts/pin_fault_schedules.py \\
        > tests/fixtures/fault_schedules.json

The fixture was written by this script on the tree where each chaos
layer still held its own rates, budgets and counters
(``ChaosBackend(crash_rate=...)``, ``FabricChaos``, ``CacheChaos``);
the classes it imports are gone since every rate moved into one
``FaultSchedule``.  ``tests/test_fault_plan.py`` replays the same inputs
through the one schedule and must reproduce the file exactly, so a
refactor of the fault plan can never move a seeded CI leg.

It records, for inputs it also writes into the fixture:

``chaos_backend``  three successive ``run_tasks_events`` calls over one
                   8-task list, per CI chaos family x seed (3, 20, 27),
                   plus the CLI's and the fuzz oracle's farms: the event
                   stream ``(kind, task key, worker)`` and the counts;
``transport``      one fixed sequence of register, heartbeat and result
                   frames sent through a recording connection, per
                   ``warpcc worker --chaos-fault`` family x seed
                   (0, 1, 2): what became of each frame;
``cache``          three reads of each of 20 keys through the cache
                   server's verbs, per seed: ok, fail or corrupt.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

from repro.cache.store import ArtifactCache, seal_entry
from repro.cli.serve import _CHAOS_FAULTS
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.fabric.chaos import CacheChaos, ChaosTransport, FabricChaos
from repro.fabric.netcache import CacheServiceServer
from repro.fabric.wire import unpack_bytes
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend

SOURCE = (
    "module m\nsection s (cells 0..0)\n"
    + "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(8)
    )
    + "\nend\nend\n"
)

#: test_supervisor.TestSeededChaosEndToEnd.rates_for, per CI family
CI_FAMILIES = {
    "crash": {"crash": 0.3},
    "hang": {"hang": 0.3},
    "corrupt": {"corrupt": 0.25},
    "mixed": {"crash": 0.3, "hang": 0.3, "corrupt": 0.25},
}

#: farm name -> (workers, rates, crash budget, poison keys, seeds)
FARMS = {
    **{
        family: (4, rates, None, [], [3, 20, 27])
        for family, rates in CI_FAMILIES.items()
    },
    "cli": (
        4, {"crash": 0.2, "hang": 0.2, "corrupt": 0.1}, None,
        [["s", "f3"]], [0, 5],
    ),
    "oracle": (
        3, {"crash": 0.25, "hang": 0.15, "corrupt": 0.15}, 2, [], [7, 99],
    ),
}

#: the frames one transport sends: a register, then three rounds of
#: twelve results (new serial each round), a heartbeat every other one
IDENTITIES = [f"s.f{i}@{i:08x}" for i in range(12)]


def frames():
    out = [{"op": "register", "node": "n"}]
    serial = 0
    for _ in range(3):
        for index, identity in enumerate(IDENTITIES):
            if index % 2 == 0:
                out.append({"op": "heartbeat", "node": "n"})
            out.append({"op": "result", "id": f"{identity}#{serial}"})
            serial += 1
    return out


CACHE_KEYS = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(20)]
CACHE_PLANS = {
    "mixed": {"cache-fail": 0.3, "cache-corrupt": 0.5},
    "corrupt-cache-response": {"cache-corrupt": 1.0},
}


def build_tasks():
    return ParallelCompiler(backend=SerialBackend())._build_tasks(
        phase1_parse_and_check(SOURCE), SOURCE, "<t>"
    )


def record_events(backend, tasks):
    events = []
    for kind, payload in backend.run_tasks_events(list(tasks)):
        if kind == "start":
            events.append([kind, f"{payload.section_name}."
                           f"{payload.function_name}", None])
        elif kind == "result":
            events.append([kind, f"{payload.section_name}."
                           f"{payload.function_name}", payload.worker])
        else:
            events.append([kind, f"{payload.task.section_name}."
                           f"{payload.task.function_name}", payload.worker])
    return events


def chaos_backend_runs():
    tasks = build_tasks()
    runs = []
    for farm, (workers, rates, crash_budget, poison, seeds) in FARMS.items():
        for seed in seeds:
            backend = ChaosBackend(
                SerialBackend(),
                workers=workers,
                seed=seed,
                crash_rate=rates.get("crash", 0.0),
                hang_rate=rates.get("hang", 0.0),
                corrupt_rate=rates.get("corrupt", 0.0),
                max_failures_per_task=crash_budget,
                poison=tuple(tuple(key) for key in poison),
                sleep=lambda seconds: None,
            )
            calls = [record_events(backend, tasks) for _ in range(3)]
            runs.append({
                "farm": farm,
                "seed": seed,
                "workers": workers,
                "rates": rates,
                "crash_budget": crash_budget,
                "poison": poison,
                "calls": calls,
                "fired": {
                    "crash": backend.injected_crashes,
                    "hang": backend.injected_hangs,
                    "corrupt": backend.injected_corruptions,
                },
            })
    return runs


class RecordingConnection:
    """What a transport did with one frame: sends, raw bytes, a close."""

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


def send_all(make_transport, delayed):
    """Each frame's fate; a reset connection is replaced by a new one,
    as a reconnecting node's is."""
    conn = RecordingConnection()
    transport = make_transport(conn)
    fates = []
    for frame in frames():
        before, delays = len(conn.log), delayed()
        try:
            transport.send(frame)
        except ConnectionResetError:
            fates.append("truncated" if "raw" in conn.log[before:]
                         else "killed")
            conn = RecordingConnection()
            transport = make_transport(conn)
            continue
        sends = conn.log[before:].count("send")
        if sends == 0:
            fates.append("dropped")
        elif delayed() > delays:
            fates.append("delayed+duplicated" if sends == 2 else "delayed")
        else:
            fates.append("duplicated" if sends == 2 else "sent")
    return fates


RATE_NAMES = {
    "kill_rate": "kill",
    "heartbeat_drop_rate": "heartbeat-drop",
    "truncate_rate": "truncate",
    "delay_rate": "delay",
    "duplicate_rate": "duplicate",
}


def transport_runs():
    runs = []
    for family, rates in _CHAOS_FAULTS.items():
        for seed in (0, 1, 2):
            plan = FabricChaos(seed, delay_s=0.0, **rates)
            fates = send_all(
                lambda conn: ChaosTransport(conn, plan),
                lambda: plan.frames_delayed,
            )
            runs.append({
                "family": family,
                "seed": seed,
                "rates": {RATE_NAMES[k]: v for k, v in rates.items()},
                "fates": fates,
                "fired": {
                    "kill": plan.kills_injected,
                    "heartbeat-drop": plan.heartbeats_dropped,
                    "truncate": plan.frames_truncated,
                    "delay": plan.frames_delayed,
                    "duplicate": plan.frames_duplicated,
                },
            })
    return runs


def cache_reads(server, stored):
    fates = []
    for _ in range(3):
        for key in CACHE_KEYS:
            reply = server.verbs["cache-get"]({"op": "cache-get", "key": key})
            if not reply["ok"]:
                fates.append("fail")
            elif unpack_bytes(reply) != stored[key]:
                fates.append("corrupt")
            else:
                fates.append("ok")
    return fates


def cache_runs():
    runs = []
    for family, rates in CACHE_PLANS.items():
        for seed in (0, 1, 2):
            with tempfile.TemporaryDirectory() as tmp:
                plan = CacheChaos(
                    seed,
                    corrupt_rate=rates.get("cache-corrupt", 0.0),
                    fail_rate=rates.get("cache-fail", 0.0),
                )
                with CacheServiceServer(tmp, chaos=plan) as server:
                    stored = {}
                    for index, key in enumerate(CACHE_KEYS):
                        stored[key] = seal_entry(
                            ArtifactCache.SUBDIR, ArtifactCache.SCHEMA,
                            {}, f"body {index}".encode(),
                        )
                        server.store.put_bytes(key, stored[key])
                    fates = cache_reads(server, stored)
                runs.append({
                    "family": family,
                    "seed": seed,
                    "rates": rates,
                    "fates": fates,
                    "fired": {
                        "cache-fail": plan.requests_failed,
                        "cache-corrupt": plan.responses_corrupted,
                    },
                })
    return runs


def main() -> int:
    fixture = {
        "source": SOURCE,
        "frames": frames(),
        "cache_keys": CACHE_KEYS,
        "chaos_backend": chaos_backend_runs(),
        "transport": transport_runs(),
        "cache": cache_runs(),
    }
    json.dump(fixture, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
