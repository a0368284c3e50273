"""``warpcc bench SIZE N``: the paper's S_n experiment for one point —
compile, replay both compilers on the simulated workstation network,
print speedup and overhead decomposition; ``--backend serial|warm``
measures the real execution backends on this host instead."""

from __future__ import annotations

import contextlib
import sys
import tempfile
import time

from ..cluster.cluster import ClusterSimulation
from ..driver.master import ParallelCompiler
from ..driver.results import render_counts
from ..driver.sequential import SequentialCompiler
from ..metrics.overhead import compute_overhead
from ..parallel.schedule import fcfs_assignment, one_function_per_processor
from ..workloads.sizes import SIZE_CLASSES
from ..workloads.synthetic import synthetic_program
from . import options, stack


def register(sub):
    parser = sub.add_parser(
        "bench", help="one point of the paper's S_n experiment"
    )
    parser.add_argument(
        "size", choices=sorted(SIZE_CLASSES), help="function size class"
    )
    parser.add_argument("functions", type=int, help="number of functions")
    parser.add_argument(
        "--processors", type=int, default=None,
        help="workstations (default: one per function)",
    )
    parser.add_argument(
        "--backend", choices=("sim", "serial", "warm"),
        default="sim",
        help="'sim' replays the 1988 cluster model; 'serial' and 'warm' "
        "(the multiprocess farm: round 1 is its cold start, later "
        "rounds run warm; with --processors 1 it is the serial backend) "
        "measure real wall-clock on this machine",
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="compilations per live backend (default 2; the second run "
        "shows the warm farm's amortization)",
    )
    options.caches(parser)
    parser.set_defaults(run=run)
    return parser


def run(args) -> int:
    source = synthetic_program(args.size, args.functions)
    if args.backend != "sim":
        return _run_live(args, source)
    result = SequentialCompiler().compile(source)
    sim = ClusterSimulation()
    sequential = sim.run_sequential(result.profile)
    if args.processors is None:
        assignment = one_function_per_processor(result.profile.functions)
    else:
        assignment = fcfs_assignment(
            result.profile.functions, args.processors
        )
    parallel = sim.run_parallel(result.profile, assignment)
    workers = min(len(result.profile.functions), assignment.processors)
    overhead = compute_overhead(sequential, parallel, workers)
    print(f"workload: {args.functions} x f_{args.size} "
          f"on {assignment.processors} workstation(s)")
    print(f"sequential elapsed: {sequential.elapsed:10.1f} virtual s")
    print(f"parallel elapsed:   {parallel.elapsed:10.1f} virtual s")
    print(f"speedup:            {sequential.elapsed / parallel.elapsed:10.2f}")
    print(f"total overhead:     {overhead.relative_total:9.1f}% of parallel time")
    print(f"system overhead:    {overhead.relative_system:9.1f}%")
    print(f"implementation:     {overhead.relative_implementation:9.1f}%")
    return 0


def _run_live(args, source: str) -> int:
    """Real wall-clock bench of the execution backends on this host."""
    if args.repeat < 1:
        print("warpcc: --repeat must be at least 1", file=sys.stderr)
        return 2
    if args.processors is not None and args.processors < 1:
        print("warpcc: --processors must be at least 1", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sequential = SequentialCompiler().compile(source)
    sequential_wall = time.perf_counter() - start

    # The one worker-count rule, fed from bench's own two flags.
    args.workers = 1 if args.backend == "serial" else args.processors
    backend = stack.build_backend(args)
    with contextlib.ExitStack() as cleanup:
        if not (args.no_cache or args.cache_dir):
            args.cache_dir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="warpcc-bench-cache-")
            )
        caches = stack.open_caches(args, "artifact cache")
        compiler = ParallelCompiler(
            backend=backend, cache=caches.get("artifact cache")
        )

        walls = []
        result = None
        try:
            for _ in range(args.repeat):
                start = time.perf_counter()
                result = compiler.compile(source)
                walls.append(time.perf_counter() - start)
        finally:
            stack.shutdown_backend(backend)

        matches = result.digest == sequential.digest
        print(f"workload: {args.functions} x f_{args.size} "
              f"via {args.backend} backend "
              f"({result.profile.workers_used} worker(s) used)")
        print(f"sequential wall:    {sequential_wall:10.3f} s")
        for round_no, wall in enumerate(walls, start=1):
            print(f"parallel wall #{round_no}:  {wall:10.3f} s")
        best = min(walls)
        print(f"best speedup:       {sequential_wall / best:10.2f}x")
        for label, store in caches.items():
            print(f"{label}: {render_counts(stack.cache_counts(store))}")
        print(f"download identical to sequential: {'yes' if matches else 'NO'}")
        return 0 if matches else 1
