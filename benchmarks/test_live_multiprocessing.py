"""Live sanity check: the multiprocessing backend on the real machine.

The cluster simulator reproduces the 1989 numbers; this bench checks the
claim that matters today — with one OS process per function master, the
parallel compiler genuinely finishes sooner on a multi-core host.
"""

import os
import time

import pytest

from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program

SOURCE = synthetic_program("medium", 6)


def compile_parallel():
    # A farm owned by this one compile: the cold path.
    with WarmPoolBackend(max_workers=min(6, os.cpu_count() or 1)) as backend:
        return ParallelCompiler(backend=backend).compile(SOURCE)


def test_live_multiprocessing_speedup(benchmark, results_dir):
    start = time.perf_counter()
    sequential = SequentialCompiler().compile(SOURCE)
    sequential_wall = time.perf_counter() - start

    parallel = benchmark.pedantic(compile_parallel, rounds=3, iterations=1)
    parallel_wall = benchmark.stats.stats.min

    assert parallel.digest == sequential.digest  # correctness first
    ratio = sequential_wall / parallel_wall
    (results_dir / "live_multiprocessing.txt").write_text(
        f"sequential wall: {sequential_wall:.3f}s\n"
        f"parallel wall (best of 3): {parallel_wall:.3f}s\n"
        f"real speedup: {ratio:.2f}x on {os.cpu_count()} cores\n"
    )
    print(f"\nreal speedup: {ratio:.2f}x on {os.cpu_count()} cores")

    if (os.cpu_count() or 1) >= 4:
        # On a multicore host the parallel compiler must genuinely win.
        assert ratio > 1.2
    else:  # pragma: no cover - tiny CI boxes
        pytest.skip("not enough cores for a meaningful live comparison")
