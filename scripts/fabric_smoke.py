#!/usr/bin/env python
"""CI smoke test for the distributed compile fabric, end to end.

Starts an in-process :class:`FabricHub`, leases it two real ``warpcc
worker`` subprocesses, and compiles a batch of modules through the
remote fabric.  Every digest is checked against a direct in-process
sequential compile — distribution changes *where* work runs, never
*what* it produces.  A second pass SIGKILLs one worker mid-compile and
requires the batch to finish anyway, with the same digests, proving the
lease/re-queue path against a real process death (not a simulated one).

Exits non-zero (with a diagnostic) on any mismatch, lost task, or
timeout.  Usage::

    PYTHONPATH=src python scripts/fabric_smoke.py [--modules N]
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.driver.master import ParallelCompiler  # noqa: E402
from repro.driver.sequential import SequentialCompiler  # noqa: E402
from repro.fabric import FabricHub, RemoteBackend  # noqa: E402
from repro.workloads.synthetic import synthetic_program  # noqa: E402


def start_worker(address: str, node_id: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--connect", address, "--workers", "1", "--node-id", node_id,
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def check(label: str, got: str, want: str) -> None:
    if got != want:
        print(f"FAIL {label}: digest {got} != expected {want}")
        sys.exit(1)
    print(f"  ok {label}: {got[:16]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--modules", type=int, default=4)
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    modules = [
        (f"smoke_{i}", synthetic_program(
            "small" if i % 2 else "tiny", 2 + i, module_name=f"smoke_{i}"
        ))
        for i in range(args.modules)
    ]
    expected = {
        name: SequentialCompiler().compile(source).digest
        for name, source in modules
    }

    with FabricHub(lease_ttl=4.0, heartbeat_interval=1.0) as hub:
        workers = [
            start_worker(hub.address, f"smoke-node-{i}") for i in range(2)
        ]
        try:
            if not hub.wait_for_nodes(2, timeout=60.0):
                print("FAIL: workers never registered")
                return 1
            print(f"fabric up: nodes {hub.node_ids()} on {hub.address}")
            backend = RemoteBackend(hub)

            print("pass 1: healthy 2-node fleet")
            for name, source in modules:
                result = ParallelCompiler(backend=backend).compile(source)
                check(name, result.digest, expected[name])
            if backend.counts["degradations"]:
                print("FAIL: healthy pass ran degraded")
                return 1

            print("pass 2: SIGKILL one worker mid-compile")
            victim = workers[0]
            # a healthy pass takes ~0.14 s on a 2-core host
            killer = threading.Timer(0.05, victim.send_signal, [signal.SIGKILL])
            killer.start()
            deadline = time.monotonic() + args.timeout
            for name, source in modules:
                result = ParallelCompiler(backend=backend).compile(source)
                check(f"{name}@kill", result.digest, expected[name])
                if time.monotonic() > deadline:
                    print("FAIL: timed out")
                    return 1
            killer.join()
            try:  # the signal is asynchronous: reap, don't poll
                victim.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                print("FAIL: victim survived SIGKILL?")
                return 1
            lost, supervision = hub.counts["nodes_lost"], backend.counts
            print(
                f"hub stats: lost={lost} "
                f"retried={supervision['retries']} "
                f"late-duplicates={supervision['late_duplicates']} "
                f"in-process={supervision['poisoned_tasks']}"
            )
            if lost < 1:
                print("FAIL: the killed worker was never declared lost")
                return 1
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.terminate()
            for worker in workers:
                try:
                    worker.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    worker.kill()

    print("fabric smoke: all digests identical across fleet shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
