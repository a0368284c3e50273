"""Distributed fabric scaling guard (real wall-clock on this machine).

Open-loop: one module with many functions compiled through the remote
fabric, first against one ``warpcc worker`` subprocess, then against
two.  Remote workers are separate Python processes, so two of them hold
two GILs — the second node must buy real wall-clock, or the fabric's
dispatch overhead has regressed past its value.

A third leg SIGKILLs one of the two workers mid-run and requires the
compile to finish anyway with the sequential reference digest — the
robustness half of the scaling claim, priced in the same report.

Results land in ``benchmarks/out/BENCH_fabric.json``, the trajectory
point CI archives.
"""

import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fabric import FabricHub, RemoteBackend
from repro.workloads.synthetic import synthetic_program

REPO = pathlib.Path(__file__).resolve().parent.parent

SIZE, FUNCTIONS = "medium", 8
SOURCE = synthetic_program(SIZE, FUNCTIONS, module_name="fabric_bench")
ROUNDS = 3


def _start_worker(address: str, node_id: str) -> subprocess.Popen:
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


def _stop_workers(workers) -> None:
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        try:
            worker.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            worker.kill()


def _timed_rounds(compiler, reference: str):
    walls = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = compiler.compile(SOURCE)
        walls.append(time.perf_counter() - start)
        assert result.digest == reference
    return walls


def _fleet_walls(node_count: int, reference: str):
    with FabricHub(lease_ttl=4.0, heartbeat_interval=1.0) as hub:
        workers = [
            _start_worker(hub.address, f"bench-node-{i}")
            for i in range(node_count)
        ]
        try:
            assert hub.wait_for_nodes(node_count, timeout=60.0)
            compiler = ParallelCompiler(backend=RemoteBackend(hub))
            compiler.compile(SOURCE)  # warm the workers' phase-1 caches
            return _timed_rounds(compiler, reference)
        finally:
            _stop_workers(workers)


def test_fabric_scaling_and_node_kill(results_dir):
    clear_phase1_cache()
    reference = SequentialCompiler().compile(SOURCE).digest

    one_node = _fleet_walls(1, reference)
    two_node = _fleet_walls(2, reference)

    # Node-kill leg: two workers, one dies mid-compile, the run must
    # finish with the reference digest.
    with FabricHub(lease_ttl=4.0, heartbeat_interval=1.0) as hub:
        workers = [
            _start_worker(hub.address, f"kill-node-{i}") for i in range(2)
        ]
        try:
            assert hub.wait_for_nodes(2, timeout=60.0)
            backend = RemoteBackend(hub)
            compiler = ParallelCompiler(backend=backend)
            compiler.compile(SOURCE)  # warm
            killer = threading.Timer(
                0.1, workers[0].send_signal, [signal.SIGKILL]
            )
            killer.start()
            start = time.perf_counter()
            result = compiler.compile(SOURCE)
            kill_wall = time.perf_counter() - start
            killer.join()
            assert result.digest == reference
            kill_nodes_lost = hub.counts["nodes_lost"]
            kill_retries = backend.counts["retries"]
        finally:
            _stop_workers(workers)

    one_median = statistics.median(one_node)
    two_median = statistics.median(two_node)
    summary = {
        "workload": f"{FUNCTIONS} x f_{SIZE}",
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "cores": os.cpu_count() or 1,
        "one_node_walls_s": [round(w, 6) for w in one_node],
        "two_node_walls_s": [round(w, 6) for w in two_node],
        "one_node_median_s": round(one_median, 6),
        "two_node_median_s": round(two_median, 6),
        "speedup_2_over_1": round(one_median / two_median, 4),
        "node_kill_completed": True,
        "node_kill_wall_s": round(kill_wall, 6),
        "node_kill_nodes_lost": kill_nodes_lost,
        "node_kill_retries": kill_retries,
    }
    (results_dir / "BENCH_fabric.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    print(
        f"\nfabric scaling: 1 node {one_median:.3f}s, 2 nodes "
        f"{two_median:.3f}s ({summary['speedup_2_over_1']:.2f}x); "
        f"node-kill round {kill_wall:.3f}s "
        f"({kill_retries} task(s) retried)"
    )
    assert kill_nodes_lost >= 1
    # The scaling guard needs real cores: worker nodes are separate
    # processes, so on a multicore host the second node must buy
    # wall-clock.  On a 1-2 core box parallel processes just time-slice;
    # there the guard degrades to "the fabric must not make two nodes
    # *slower* than one beyond dispatch noise".
    if (os.cpu_count() or 1) >= 4:
        assert two_median <= one_median * 0.95, (
            f"2 nodes ({two_median:.3f}s) failed to beat 1 node "
            f"({one_median:.3f}s)"
        )
    else:
        assert two_median <= one_median * 1.25, (
            f"2 nodes ({two_median:.3f}s) regressed past dispatch noise "
            f"vs 1 node ({one_median:.3f}s) on a {os.cpu_count()}-core host"
        )
