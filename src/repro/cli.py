"""``warpcc`` — command-line driver for the Warp parallel compiler.

Subcommands:

- ``warpcc compile FILE``: compile a module, print the compilation
  report; ``--parallel`` uses the master/section/function-master
  hierarchy with one OS process per function master.
- ``warpcc run FILE --inputs 1,2,3``: compile and execute the program on
  the simulated Warp array.
- ``warpcc bench SIZE N``: the paper's S_n experiment for one point —
  compile, replay both compilers on the simulated workstation network,
  print speedup and overhead decomposition.
- ``warpcc search FILE``: optimization-variant search — compile the
  module under every config in the variant space, score each function's
  variants by simulated cycle count in warpsim, ship the verified
  per-function winners (also reachable as ``warpcc compile --search``).
- ``warpcc serve``: run the multi-tenant compile service (one shared
  warm pool + artifact cache, fair-share scheduling across tenants).
- ``warpcc submit FILE`` / ``warpcc status``: client side of the
  service — submit modules, stream progress, inspect the shared pool.
- ``warpcc watch FILE``: stream edits to a ``serve --predict`` service
  so the changed functions are speculatively precompiled before the
  next submit (watch mode; results land in the ordinary caches).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .asmlink.download import module_digest
from .cluster.cluster import ClusterSimulation
from .driver.master import ParallelCompiler
from .driver.sequential import SequentialCompiler
from .lang.diagnostics import CompileError
from .machine.warp_array import WarpArrayModel
from .metrics.overhead import compute_overhead
from .parallel.local import SerialBackend
from .parallel.schedule import one_function_per_processor
from .parallel.warm_pool import WarmPoolBackend
from .warpsim.array_runner import run_module
from .workloads.sizes import SIZE_CLASSES
from .workloads.synthetic import synthetic_program


def _add_search_tuning_arguments(parser) -> None:
    """The variant-search knobs, shared by ``warpcc search`` and
    ``warpcc compile --search``."""
    parser.add_argument(
        "--space", default=None, metavar="KEY,KEY,...",
        help="variant space as comma-separated config keys, e.g. "
        "'o2u0i0,o2u64i0,o2u0i1' (default: the stock lattice; the "
        "reference config o2u0i0 is always included first)",
    )
    parser.add_argument(
        "--inputs", action="append", default=None, metavar="V,V,...",
        help="one recorded scoring input set (comma-separated floats); "
        "repeat for several sets.  Default: seeded synthetic inputs",
    )
    parser.add_argument(
        "--input-seed", type=int, default=0,
        help="seed for the synthetic scoring inputs (default 0)",
    )
    parser.add_argument(
        "--input-sets", type=int, default=2, dest="input_set_count",
        help="how many synthetic input sets to score on (default 2)",
    )
    parser.add_argument(
        "--input-width", type=int, default=4,
        help="values per synthetic input set (default 4)",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=2_000_000,
        help="per-run simulation ceiling; a variant that exceeds it is "
        "disqualified (default 2000000)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warpcc",
        description="Parallel compiler for the Warp systolic array "
        "(PLDI 1989 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile a module")
    compile_cmd.add_argument("file", help="source file (or '-' for stdin)")
    compile_cmd.add_argument(
        "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2)
    )
    compile_cmd.add_argument(
        "--parallel", action="store_true",
        help="use the parallel compiler (master hierarchy)",
    )
    compile_cmd.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for --parallel (default: cores-1)",
    )
    compile_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory for --parallel: the artifact, parse and "
        "link tiers live under it "
        "(default: $WARPCC_CACHE_DIR or ~/.cache/warpcc)",
    )
    compile_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent caches (function artifacts, "
        "per-function parses, linked sections and modules)",
    )
    compile_cmd.add_argument(
        "--cache-url", default=None, metavar="HOST:PORT",
        help="network artifact-cache tier (see 'warpcc cache-server'); "
        "read-through/write-behind in front of the local cache, and "
        "any cache-tier failure degrades to local-only "
        "(default: $WARPCC_CACHE_URL)",
    )
    compile_cmd.add_argument(
        "--supervised", action="store_true",
        help="wrap the backend in the supervision layer (deadlines, "
        "straggler hedging, worker quarantine, poison-task isolation); "
        "implies --parallel",
    )
    compile_cmd.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fixed per-attempt deadline for --supervised (default: "
        "derived from each task's cost estimate; 0 disables deadlines)",
    )
    compile_cmd.add_argument(
        "--hedge-after", type=float, default=0.75, metavar="FRACTION",
        help="launch duplicate attempts for stragglers once this "
        "fraction of the wave has finished (0 disables hedging)",
    )
    compile_cmd.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="farm attempts per task before in-process isolation",
    )
    compile_cmd.add_argument(
        "--poison-threshold", type=int, default=3, metavar="N",
        help="failures on this many distinct workers flag a task as "
        "poison and isolate it in-process",
    )
    compile_cmd.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="inject deterministic faults (crashes, hangs, corrupt "
        "payloads) seeded by SEED; implies --supervised and --parallel",
    )
    compile_cmd.add_argument(
        "--chaos-poison", default=None, metavar="SECTION.FUNCTION",
        help="with --chaos: make this task crash on every worker",
    )
    compile_cmd.add_argument(
        "--cells", type=int, default=10, help="cells in the target array"
    )
    compile_cmd.add_argument(
        "--emit",
        choices=("report", "digest", "driver", "binary"),
        default="report",
    )
    compile_cmd.add_argument(
        "--json", action="store_true",
        help="print the compilation report as one JSON document "
        "(job digest, per-function metrics, cache/supervisor counters) "
        "instead of the text report",
    )
    compile_cmd.add_argument(
        "-o", "--output", default=None,
        help="output path for --emit binary (default: <module>.warp)",
    )
    compile_cmd.add_argument(
        "--search", action="store_true",
        help="run the optimization-variant search instead of a single "
        "compile (see 'warpcc search'); honors --cells, --jobs, "
        "--cache-dir/--no-cache, --json, --emit report|digest, and "
        "the search tuning flags below",
    )
    _add_search_tuning_arguments(compile_cmd)

    search_cmd = sub.add_parser(
        "search",
        help="variant search: compile k configs per function, let "
        "warpsim pick the fastest semantically-identical winner",
    )
    search_cmd.add_argument("file", help="source file (or '-' for stdin)")
    search_cmd.add_argument("--cells", type=int, default=10)
    search_cmd.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the per-config compiles "
        "(default: in-process serial)",
    )
    search_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory for the artifact and variant-score tiers "
        "(default: $WARPCC_CACHE_DIR or ~/.cache/warpcc)",
    )
    search_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable both the artifact cache and the variant-score "
        "store (every variant is compiled and re-simulated)",
    )
    _add_search_tuning_arguments(search_cmd)
    search_cmd.add_argument(
        "--emit", choices=("report", "digest"), default="report"
    )
    search_cmd.add_argument(
        "--json", action="store_true",
        help="print the search report as one JSON document (winners, "
        "cycle counts, verification status, per-function metrics)",
    )

    run_cmd = sub.add_parser("run", help="compile and simulate a module")
    run_cmd.add_argument("file")
    run_cmd.add_argument(
        "--inputs", default="",
        help="comma-separated input stream, e.g. 1.0,2.5,3",
    )
    run_cmd.add_argument(
        "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2)
    )
    run_cmd.add_argument("--cells", type=int, default=10)
    run_cmd.add_argument(
        "--max-cycles", type=int, default=5_000_000
    )

    disasm_cmd = sub.add_parser(
        "disasm", help="disassemble a binary download module"
    )
    disasm_cmd.add_argument("file", help="a .warp file")

    bench_cmd = sub.add_parser(
        "bench", help="one point of the paper's S_n experiment"
    )
    bench_cmd.add_argument(
        "size", choices=sorted(SIZE_CLASSES), help="function size class"
    )
    bench_cmd.add_argument("functions", type=int, help="number of functions")
    bench_cmd.add_argument(
        "--processors", type=int, default=None,
        help="workstations (default: one per function)",
    )
    bench_cmd.add_argument(
        "--backend", choices=("sim", "serial", "warm"),
        default="sim",
        help="'sim' replays the 1988 cluster model; 'serial' and 'warm' "
        "(the multiprocess farm: round 1 is its cold start, later "
        "rounds run warm) measure real wall-clock on this machine",
    )
    bench_cmd.add_argument(
        "--repeat", type=int, default=2,
        help="compilations per live backend (default 2; the second run "
        "shows the warm farm's amortization)",
    )
    bench_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="artifact-cache directory for the live backends (default: "
        "a fresh temporary directory, so round 1 is cold and round 2+ "
        "are warm-cache by construction)",
    )
    bench_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent function-level artifact cache",
    )

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through every "
        "pipeline variant, mismatches minimized into the corpus",
    )
    fuzz_cmd.add_argument(
        "--seed", type=int, default=0,
        help="base RNG seed; iteration i uses seed+i (default 0)",
    )
    fuzz_cmd.add_argument(
        "--iterations", type=int, default=50,
        help="programs to generate and check (default 50)",
    )
    fuzz_cmd.add_argument(
        "--size-class", default="small", choices=sorted(SIZE_CLASSES),
        help="generated-program size preset (default small)",
    )
    fuzz_cmd.add_argument(
        "--minimize", action="store_true",
        help="delta-debug the first mismatch and write the reduced "
        "reproducer into the corpus",
    )
    fuzz_cmd.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop cleanly after this much wall-clock (for CI boxes)",
    )
    fuzz_cmd.add_argument(
        "--pipelines", default=None, metavar="A,B,...",
        help="comma-separated pipeline subset, or 'all' (default: every "
        "in-process variant; 'all' adds the warm multiprocess pool)",
    )
    fuzz_cmd.add_argument(
        "--corpus-dir", default="tests/corpus", metavar="DIR",
        help="where --minimize writes reproducers (default tests/corpus)",
    )
    fuzz_cmd.add_argument("--cells", type=int, default=10)
    fuzz_cmd.add_argument(
        "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2)
    )
    fuzz_cmd.add_argument(
        "--no-semantics", action="store_true",
        help="skip the execute-vs-reference-interpreter leg",
    )
    fuzz_cmd.add_argument(
        "--keep-going", action="store_true",
        help="collect every mismatch instead of stopping at the first",
    )
    fuzz_cmd.add_argument(
        "--inject-miscompile", default=None, metavar="PIPELINE:FUNCTION",
        help="TESTING ONLY: perturb the named pipeline's digest when the "
        "module defines FUNCTION, to exercise catch/minimize/corpus",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the multi-tenant compile service over one shared "
        "warm pool (JSON-lines protocol; see 'warpcc submit')",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None,
        help="warm-pool worker processes (default: cores-1)",
    )
    serve_cmd.add_argument(
        "--max-queued", type=int, default=32,
        help="admission bound: queued jobs beyond this are rejected "
        "with explicit backpressure (default 32)",
    )
    serve_cmd.add_argument(
        "--max-running", type=int, default=4,
        help="concurrent compile jobs (default 4)",
    )
    serve_cmd.add_argument(
        "--per-tenant", type=int, default=8, metavar="N",
        help="per-tenant in-flight job cap (default 8)",
    )
    serve_cmd.add_argument(
        "--tenant-weight", action="append", default=[],
        metavar="TENANT=WEIGHT",
        help="fair-share weight for a tenant (repeatable; default 1.0)",
    )
    serve_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared artifact-cache directory "
        "(default: $WARPCC_CACHE_DIR or ~/.cache/warpcc)",
    )
    serve_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared artifact cache",
    )
    serve_cmd.add_argument(
        "--supervised", action="store_true",
        help="wrap the shared pool in the supervision layer "
        "(deadlines, hedging, quarantine, poison isolation)",
    )
    serve_cmd.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fixed per-attempt deadline for --supervised",
    )
    serve_cmd.add_argument(
        "--hedge-after", type=float, default=0.75, metavar="FRACTION",
        help="straggler hedging threshold for --supervised (0 disables)",
    )
    serve_cmd.add_argument(
        "--fabric-port", type=int, default=None, metavar="PORT",
        help="also run a fabric hub on this port (0: pick a free port) "
        "and schedule compile tasks onto registered 'warpcc worker' "
        "nodes; the local pool remains the fallback when zero nodes "
        "hold live leases.  Export WARPCC_FABRIC_SECRET (same value on "
        "every hub/worker/cache process) to require authenticated "
        "registration and HMAC-tagged payloads; without it the port is "
        "unauthenticated — trusted networks only",
    )
    serve_cmd.add_argument(
        "--cache-url", default=None, metavar="HOST:PORT",
        help="network artifact-cache tier shared by every node "
        "(default: $WARPCC_CACHE_URL)",
    )
    serve_cmd.add_argument(
        "--predict", action="store_true",
        help="learn per-function compile costs from observed wall-clock "
        "(persistent observation store under --cache-dir) and use them "
        "for fair-share ordering, LPT batch packing, and supervised "
        "deadlines; scheduling only — results are unchanged",
    )
    serve_cmd.add_argument(
        "--no-speculation", action="store_true",
        help="with --predict: keep the learned cost model but refuse "
        "'warpcc watch' speculative precompiles",
    )
    serve_cmd.add_argument(
        "--speculation-inflight", type=int, default=2, metavar="N",
        help="concurrent speculative watch jobs (default 2)",
    )
    serve_cmd.add_argument(
        "--speculation-headroom", type=int, default=2, metavar="N",
        help="refuse speculation unless the admission queue has at "
        "least this much free depth (default 2)",
    )

    worker_cmd = sub.add_parser(
        "worker",
        help="run a worker-node agent: register this machine's pool "
        "with a fabric hub and compile the tasks it leases us",
    )
    worker_cmd.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="fabric hub address (what 'warpcc serve --fabric-port' "
        "printed); export WARPCC_FABRIC_SECRET to match a hub that "
        "requires authentication",
    )
    worker_cmd.add_argument(
        "--workers", type=int, default=None,
        help="local warm-pool worker processes (default: cores-1)",
    )
    worker_cmd.add_argument(
        "--node-id", default=None,
        help="stable node identity (default: hostname-pid)",
    )
    worker_cmd.add_argument(
        "--serial", action="store_true",
        help="compile in-process instead of a warm pool (tests, "
        "single-core machines)",
    )
    worker_cmd.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="inject deterministic transport faults seeded by SEED "
        "(fault suite; see --chaos-fault)",
    )
    worker_cmd.add_argument(
        "--chaos-fault", default="mixed",
        choices=("node-kill", "heartbeat-drop", "truncate", "delay-dup",
                 "mixed"),
        help="which transport fault family --chaos injects",
    )

    cache_server_cmd = sub.add_parser(
        "cache-server",
        help="run the content-addressed network artifact-cache tier "
        "(clients: --cache-url HOST:PORT)",
    )
    cache_server_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    cache_server_cmd.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    cache_server_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="blob-store directory (default: $WARPCC_CACHE_DIR or "
        "~/.cache/warpcc)",
    )
    cache_server_cmd.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="LRU size bound for the blob store",
    )

    submit_cmd = sub.add_parser(
        "submit", help="submit a module to a running compile service"
    )
    submit_cmd.add_argument("file", help="source file (or '-' for stdin)")
    submit_cmd.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="service address (default: $WARPCC_SERVICE)",
    )
    submit_cmd.add_argument(
        "--tenant", default="default", help="tenant identity for fair share"
    )
    submit_cmd.add_argument(
        "--priority", default="normal",
        choices=("interactive", "normal", "batch"),
    )
    submit_cmd.add_argument(
        "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2)
    )
    submit_cmd.add_argument("--cells", type=int, default=10)
    submit_cmd.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting",
    )
    submit_cmd.add_argument(
        "--quiet", action="store_true",
        help="suppress the streamed per-function progress events",
    )
    submit_cmd.add_argument(
        "--json", action="store_true",
        help="print the final job document as JSON",
    )

    watch_cmd = sub.add_parser(
        "watch",
        help="stream a file's edits to the service so it precompiles "
        "the changed functions before you submit (speculative, "
        "batch-priority; requires 'warpcc serve --predict')",
    )
    watch_cmd.add_argument("file", help="source file to watch")
    watch_cmd.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="service address (default: $WARPCC_SERVICE)",
    )
    watch_cmd.add_argument(
        "--watch-key", default=None, metavar="NAME",
        help="watch identity on the server; edits under one key "
        "supersede each other (default: the file path)",
    )
    watch_cmd.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval for file changes (default 0.5)",
    )
    watch_cmd.add_argument(
        "--once", action="store_true",
        help="send the file's current contents once and exit "
        "(scripts, CI smoke)",
    )
    watch_cmd.add_argument(
        "-O", "--opt-level", type=int, default=2, choices=(0, 1, 2)
    )
    watch_cmd.add_argument("--cells", type=int, default=10)
    watch_cmd.add_argument(
        "--json", action="store_true",
        help="print each update's outcome document as JSON",
    )

    status_cmd = sub.add_parser(
        "status", help="inspect a running compile service"
    )
    status_cmd.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="service address (default: $WARPCC_SERVICE)",
    )
    status_cmd.add_argument(
        "--job", default=None, help="show one job instead of the overview"
    )
    status_cmd.add_argument(
        "--gantt", action="store_true",
        help="render shared-pool occupancy (slots x time, one glyph "
        "per job)",
    )
    status_cmd.add_argument(
        "--json", action="store_true", help="print the raw JSON reply"
    )
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _build_cache(args):
    """The artifact cache selected by --cache-dir / --no-cache, tiered
    behind a network cache when --cache-url / $WARPCC_CACHE_URL names
    one."""
    if args.no_cache:
        return None
    from .cache import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    import os

    cache_url = getattr(args, "cache_url", None) or os.environ.get(
        "WARPCC_CACHE_URL"
    )
    if cache_url:
        from .fabric import NetworkCacheClient, TieredCache

        cache = TieredCache(cache, NetworkCacheClient(cache_url))
    return cache


def _close_cache(cache) -> None:
    """Flush and close a tiered cache (plain stores have no close)."""
    closer = getattr(cache, "close", None)
    if closer is not None:
        closer()


def _cache_stats_line(cache) -> str:
    line = _tier_stats_line("artifact cache", cache)
    remote = getattr(cache, "remote", None)
    if remote is not None:
        state = "disabled" if remote.disabled else "live"
        line += (
            f"; network tier ({state}): {remote.remote_hits} hit(s), "
            f"{remote.remote_misses} miss(es), "
            f"{remote.remote_errors} error(s)"
        )
    return line


def _tier_stats_line(label: str, store) -> str:
    stats = store.stats
    return (
        f"{label}: {stats.hits} hit(s), {stats.misses} miss(es), "
        f"{store.size_bytes()} bytes on disk"
    )


def _tier_counters(store) -> dict:
    stats = store.stats
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "bytes_on_disk": store.size_bytes(),
    }


def _cmd_compile(args) -> int:
    if getattr(args, "search", False):
        # `warpcc compile --search` is the search subcommand with the
        # compile parser's shared flags; both parsers carry the search
        # tuning knobs via _add_search_tuning_arguments.
        return _cmd_search(args)
    source = _read_source(args.file)
    array = WarpArrayModel(cell_count=args.cells)
    if args.supervised or args.chaos is not None:
        args.parallel = True  # supervision wraps the parallel backend
    # One switch for the three on-disk tiers: --parallel with
    # --cache-dir / --no-cache.
    cache = _build_cache(args) if args.parallel else None
    parse_cache = link_cache = None
    if cache is not None:
        from .cache import LinkCache, ParseCache

        parse_cache = ParseCache(args.cache_dir)
        link_cache = LinkCache(args.cache_dir)
    try:
        if args.parallel:
            # Owned by this one compile and shut down with it: a warm
            # pool used once is the cold pool.
            backend = (
                WarmPoolBackend(args.jobs)
                if args.jobs is None or args.jobs > 1
                else SerialBackend()
            )
            if args.chaos is not None:
                from .parallel.fault_tolerance import ChaosBackend

                poison = ()
                if args.chaos_poison:
                    section, _, function = args.chaos_poison.partition(".")
                    poison = ((section, function or None),)
                # Chaos mode simulates a flaky farm around an in-process
                # executor: deterministic under the seed, demo-friendly.
                backend = ChaosBackend(
                    SerialBackend(),
                    workers=4,
                    seed=args.chaos,
                    crash_rate=0.2,
                    hang_rate=0.2,
                    hang_delay=0.2,
                    corrupt_rate=0.1,
                    poison=poison,
                )
            if args.supervised or args.chaos is not None:
                from .parallel.supervisor import SupervisedBackend

                backend = SupervisedBackend(
                    backend,
                    task_timeout=args.task_timeout,
                    hedge_after=(
                        args.hedge_after if args.hedge_after > 0 else None
                    ),
                    max_attempts=args.max_attempts,
                    poison_threshold=args.poison_threshold,
                )
            with ParallelCompiler(
                backend=backend, array=array, opt_level=args.opt_level,
                cache=cache, owns_backend=True,
                parse_cache=parse_cache, link_cache=link_cache,
            ) as compiler:
                result = compiler.compile(source, filename=args.file)
        else:
            result = SequentialCompiler(
                array=array, opt_level=args.opt_level
            ).compile(source, filename=args.file)
    except CompileError as error:
        if args.json:
            import json

            print(json.dumps({
                "ok": False,
                "diagnostics": [
                    diagnostic.render() for diagnostic in error.diagnostics
                ],
            }, indent=2))
        else:
            for diagnostic in error.diagnostics:
                print(diagnostic.render(), file=sys.stderr)
        _close_cache(cache)
        return 1

    # Compilation is done; flush any write-behind pushes to the network
    # cache tier before reporting.
    _close_cache(cache)

    if args.json:
        import json

        document = result.to_dict()
        document["ok"] = not result.profile.failed_functions()
        if cache is not None:
            document["artifact_cache"] = _tier_counters(cache)
            document["parse_cache"] = _tier_counters(parse_cache)
            document["link_cache"] = _tier_counters(link_cache)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if result.profile.failed_functions() else 0

    if result.diagnostics_text:
        print(result.diagnostics_text, file=sys.stderr)
    if args.emit == "digest":
        print(result.digest)
    elif args.emit == "binary":
        from .asmlink.encode import write_module

        path = args.output or f"{result.module_name}.warp"
        size = write_module(result.download, path)
        print(f"wrote {path}: {size} bytes, "
              f"{result.download.cells_used} cell(s)")
    elif args.emit == "driver":
        from .asmlink.iodriver import build_io_driver

        print(build_io_driver(result.download.cell_programs).describe())
    else:
        for line in result.report_lines():
            print(line)
        print(f"download module: {result.download.cells_used} cell(s), "
              f"{result.profile.download_words} words")
        if cache is not None:
            print(_cache_stats_line(cache))
            print(_tier_stats_line("parse cache", parse_cache))
            print(_tier_stats_line("link cache", link_cache))
    if result.profile.failed_functions():
        # Poison functions that could not even be compiled in-process:
        # the module is partial, signal it without hiding the rest.
        return 1
    return 0


def _cmd_search(args) -> int:
    import json

    from .search import VariantSpace, default_space, search_module
    from .warpsim.scoring import seeded_input_sets

    source = _read_source(args.file)
    array = WarpArrayModel(cell_count=args.cells)
    try:
        space = (
            VariantSpace.parse(args.space)
            if args.space
            else default_space()
        )
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    if args.inputs:
        input_sets = [_parse_inputs(text) for text in args.inputs]
    else:
        input_sets = seeded_input_sets(
            args.input_seed, width=args.input_width,
            sets=args.input_set_count,
        )

    cache = None
    variant_store = None
    if not args.no_cache:
        from .cache import ArtifactCache, VariantStore

        cache = ArtifactCache(args.cache_dir)
        variant_store = VariantStore(args.cache_dir)

    backend = (
        WarmPoolBackend(args.jobs)
        if args.jobs is not None and args.jobs > 1
        else SerialBackend()
    )
    try:
        outcome = search_module(
            source,
            filename=args.file,
            space=space,
            input_sets=input_sets,
            array=array,
            backend=backend,
            cache=cache,
            variant_store=variant_store,
            max_cycles=args.max_cycles,
        )
    except CompileError as error:
        if args.json:
            print(json.dumps({
                "ok": False,
                "diagnostics": [
                    diagnostic.render() for diagnostic in error.diagnostics
                ],
            }, indent=2))
        else:
            for diagnostic in error.diagnostics:
                print(diagnostic.render(), file=sys.stderr)
        return 1
    finally:
        shutdown = getattr(backend, "shutdown", None)
        if shutdown is not None:
            shutdown()

    result = outcome.result
    if args.json:
        document = result.to_dict()
        document["ok"] = not result.profile.failed_functions()
        document["search"] = {
            "verified": outcome.verified,
            "abstained": outcome.abstained,
            "space": outcome.space_keys,
            "input_digest": outcome.input_digest,
            "baseline_cycles": outcome.baseline_cycles,
            "module_cycles": outcome.module_cycles,
            "cycles_saved": outcome.cycles_saved,
            "winners": {
                f"{section}.{name}": key
                for (section, name), key in sorted(outcome.winners.items())
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if result.profile.failed_functions() else 0

    if result.diagnostics_text:
        print(result.diagnostics_text, file=sys.stderr)
    if args.emit == "digest":
        print(result.digest)
    else:
        for line in result.report_lines():
            print(line)
        if outcome.abstained:
            print(
                "search abstained (baseline failed to simulate: "
                f"{outcome.abstained}); shipping the standard compile"
            )
        elif not outcome.verified:
            print(
                "search winners failed whole-module verification; "
                "shipping the baseline"
            )
        print(f"download module: {result.download.cells_used} cell(s), "
              f"{result.profile.download_words} words")
        if cache is not None:
            print(_cache_stats_line(cache))
        if variant_store is not None:
            print(_tier_stats_line("variant store", variant_store))
    return 1 if result.profile.failed_functions() else 0


def _parse_inputs(text: str) -> List[float]:
    if not text.strip():
        return []
    return [float(part) for part in text.split(",") if part.strip()]


def _is_binary_module(path: str) -> bool:
    if path == "-":
        return False
    try:
        with open(path, "rb") as handle:
            return handle.read(4) == b"WARP"
    except OSError:
        return False


def _cmd_run(args) -> int:
    array = WarpArrayModel(cell_count=args.cells)
    if _is_binary_module(args.file):
        from .asmlink.encode import read_module

        download = read_module(args.file)
    else:
        source = _read_source(args.file)
        try:
            result = SequentialCompiler(
                array=array, opt_level=args.opt_level
            ).compile(source, filename=args.file)
        except CompileError as error:
            for diagnostic in error.diagnostics:
                print(diagnostic.render(), file=sys.stderr)
            return 1
        download = result.download
    outcome = run_module(
        download,
        _parse_inputs(args.inputs),
        array=array,
        max_cycles=args.max_cycles,
    )
    print("outputs:", " ".join(repr(v) for v in outcome.outputs))
    print(f"cycles: {outcome.cycles}")
    return 0


def _cmd_bench(args) -> int:
    source = synthetic_program(args.size, args.functions)
    if args.backend != "sim":
        return _cmd_bench_live(args, source)
    result = SequentialCompiler().compile(source)
    sim = ClusterSimulation()
    sequential = sim.run_sequential(result.profile)
    from .parallel.schedule import fcfs_assignment

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


def _cmd_bench_live(args, source: str) -> int:
    """Real wall-clock bench of the execution backends on this host."""
    import contextlib
    import tempfile
    import time

    if args.repeat < 1:
        print("warpcc: --repeat must be at least 1", file=sys.stderr)
        return 2
    if args.processors is not None and args.processors < 1:
        print("warpcc: --processors must be at least 1", file=sys.stderr)
        return 2

    start = time.perf_counter()
    sequential = SequentialCompiler().compile(source)
    sequential_wall = time.perf_counter() - start

    if args.backend == "serial":
        backend = SerialBackend()
    else:
        backend = WarmPoolBackend(max_workers=args.processors)

    with contextlib.ExitStack() as stack:
        cache = None
        if not args.no_cache:
            from .cache import ArtifactCache

            cache_dir = args.cache_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="warpcc-bench-cache-")
            )
            cache = ArtifactCache(cache_dir)
        compiler = ParallelCompiler(
            backend=backend, cache=cache, owns_backend=True
        )

        walls = []
        result = None
        try:
            for _ in range(args.repeat):
                start = time.perf_counter()
                result = compiler.compile(source)
                walls.append(time.perf_counter() - start)
        finally:
            compiler.close()

        matches = result.digest == sequential.digest
        print(f"workload: {args.functions} x f_{args.size} "
              f"via {args.backend} backend "
              f"({result.profile.workers_used} worker(s) used)")
        print(f"sequential wall:    {sequential_wall:10.3f} s")
        for round_no, wall in enumerate(walls, start=1):
            print(f"parallel wall #{round_no}:  {wall:10.3f} s")
        best = min(walls)
        print(f"best speedup:       {sequential_wall / best:10.2f}x")
        hits = result.profile.phase1_cache_hits()
        print(f"phase-1 cache hits: {hits:10d} "
              f"(saved {result.profile.redundant_parse_work_saved()} work units)")
        if cache is not None:
            print(_cache_stats_line(cache))
        print(f"download identical to sequential: {'yes' if matches else 'NO'}")
        return 0 if matches else 1


def _cmd_fuzz(args) -> int:
    from .fuzz.oracle import (
        ALL_PIPELINES,
        DifferentialOracle,
        OracleConfig,
        run_fuzz_campaign,
    )

    if args.pipelines is None:
        pipelines = None  # oracle default: every in-process variant
    elif args.pipelines.strip().lower() == "all":
        pipelines = ALL_PIPELINES
    else:
        pipelines = tuple(
            part.strip() for part in args.pipelines.split(",") if part.strip()
        )
    config_kwargs = dict(
        opt_level=args.opt_level,
        cell_count=args.cells,
        check_semantics=not args.no_semantics,
        inject_miscompile=args.inject_miscompile,
    )
    if pipelines is not None:
        config_kwargs["pipelines"] = pipelines
    config = OracleConfig(**config_kwargs)

    def progress(seed: int, report) -> None:
        if not report.ok:
            print(f"seed {seed}: MISMATCH", file=sys.stderr)
            for line in report.describe():
                print(f"  {line}", file=sys.stderr)

    with DifferentialOracle(config) as oracle:
        result = run_fuzz_campaign(
            seed=args.seed,
            iterations=args.iterations,
            size_class=args.size_class,
            oracle=oracle,
            time_budget=args.time_budget,
            on_iteration=progress,
            stop_on_failure=not args.keep_going,
        )
        print(
            f"fuzz: {result.iterations_run} iteration(s), "
            f"{len(result.failures)} mismatch(es), "
            f"{result.elapsed:.1f}s "
            f"[size={args.size_class} base-seed={args.seed}]"
        )
        if result.ok:
            return 0
        counts = ", ".join(
            f"{kind}={count}" for kind, count in sorted(
                result.kind_counts().items()
            )
        )
        print(f"mismatch kinds: {counts}")
        for failure in result.failures:
            print(
                f"reproduce: warpcc fuzz --seed {failure.seed} "
                f"--iterations 1 --size-class {args.size_class}"
            )
        if args.minimize:
            from .fuzz.reduce import DeltaReducer, write_corpus_entry

            failure = result.failures[0]
            reducer = DeltaReducer(
                oracle,
                inputs=failure.program.inputs(),
                seed=failure.seed,
            )
            reduction = reducer.reduce(failure.program.source)
            print(
                f"minimized: {reduction.function_count} function(s), "
                f"{reduction.statement_count} statement(s) after "
                f"{reduction.oracle_runs} oracle run(s)"
            )
            path = write_corpus_entry(
                args.corpus_dir,
                source=reduction.source,
                seed=failure.seed,
                size_class=args.size_class,
                kinds=reduction.kinds,
                pipelines=list(config.pipelines),
                inputs=failure.program.inputs(),
                notes=(
                    "minimized by warpcc fuzz --minimize; original "
                    f"mismatches: {'; '.join(failure.report.describe())}"
                ),
            )
            print(f"corpus entry written: {path}")
    return 1


def _parse_tenant_weights(entries: List[str]) -> dict:
    weights = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name.strip():
            raise ValueError(
                f"--tenant-weight expects TENANT=WEIGHT, got {entry!r}"
            )
        weights[name.strip()] = float(value)
    return weights


def _cmd_serve(args) -> int:
    from .service import CompileService, ServiceSocketServer
    from .service.client import ADDRESS_ENV

    try:
        weights = _parse_tenant_weights(args.tenant_weight)
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2

    pool = WarmPoolBackend(max_workers=args.workers)
    backend = pool
    hub = None
    if args.fabric_port is not None:
        from .fabric import FabricHub, RemoteBackend

        # The warm pool doubles as the hub's local fallback: zero live
        # worker nodes degrades to exactly the single-machine service.
        hub = FabricHub(
            host=args.host, port=args.fabric_port, fallback=pool
        )
        backend = RemoteBackend(hub)
    if args.supervised:
        from .parallel.supervisor import SupervisedBackend

        backend = SupervisedBackend(
            backend,
            task_timeout=args.task_timeout,
            hedge_after=(
                args.hedge_after if args.hedge_after > 0 else None
            ),
        )
    cost_model = None
    if args.predict:
        from .predict import CostModel, ObservationStore

        # The observation tier shares the cache directory layout (its
        # own subdir), so --cache-dir governs where learning persists.
        cost_model = CostModel(ObservationStore(args.cache_dir))
    cache = None
    try:
        cache = _build_cache(args)
        service = CompileService(
            backend,
            cache,
            max_queued=args.max_queued,
            max_running=args.max_running,
            per_tenant_inflight=args.per_tenant,
            tenant_weights=weights,
            cost_model=cost_model,
            speculation=args.predict and not args.no_speculation,
            speculation_inflight=args.speculation_inflight,
            speculation_headroom=args.speculation_headroom,
        )
        server = ServiceSocketServer(
            service, host=args.host, port=args.port
        )
        print(
            f"warpcc service on {server.address} "
            f"({service.worker_count} worker(s), "
            f"max {args.max_running} concurrent job(s)); "
            f"clients: warpcc submit --connect {server.address} "
            f"or export {ADDRESS_ENV}={server.address}",
            flush=True,
        )
        if hub is not None:
            print(
                f"warpcc fabric on {hub.address}; nodes: "
                f"warpcc worker --connect {hub.address}",
                flush=True,
            )
        if cost_model is not None:
            speculation_state = (
                "off" if args.no_speculation else "on"
            )
            print(
                f"predictive scheduling on (speculation "
                f"{speculation_state}); editors: "
                f"warpcc watch FILE --connect {server.address}",
                flush=True,
            )
        server.serve_until_shutdown()
        return 0
    finally:
        # The service borrows the backend (see driver ownership rules);
        # the process that built the pool tears it down.
        if hub is not None:
            hub.close()
        _close_cache(cache)
        pool.shutdown()


def _format_event(event: dict) -> str:
    name = event.get("event", "?")
    parts = [f"[{event.get('job', '?')}] {name}"]
    if "function" in event:
        parts.append(event["function"])
    if "tasks" in event:
        parts.append(f"({event['tasks']} task(s))")
    return " ".join(parts)


def _cmd_submit(args) -> int:
    import json

    from .service import ServiceClient, ServiceError, resolve_address

    source = _read_source(args.file)
    try:
        client = ServiceClient(resolve_address(args.connect))
        job_id = client.submit(
            source,
            tenant=args.tenant,
            filename=args.file,
            priority=args.priority,
            opt_level=args.opt_level,
            cells=args.cells,
        )
        if args.no_wait:
            print(job_id)
            return 0

        def on_event(event: dict) -> None:
            print(_format_event(event), file=sys.stderr)

        job = client.wait(
            job_id,
            stream=not args.quiet,
            on_event=None if args.quiet else on_event,
        )
    except ServiceError as error:
        print(f"warpcc: {error} [{error.reason}]", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"warpcc: service unreachable: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0 if job.get("state") == "done" else 1
    state = job.get("state")
    if state != "done":
        print(f"warpcc: job {job_id} {state}: {job.get('error')}",
              file=sys.stderr)
        diagnostics = job.get("diagnostics")
        if diagnostics:
            print(diagnostics, file=sys.stderr)
        return 1
    print(job["digest"])
    print(
        f"job {job_id}: {job['tasks_done']}/{job['tasks_total']} "
        f"function(s) compiled, {job['cache_served']} served from cache",
        file=sys.stderr,
    )
    return 0


def _describe_watch_outcome(outcome: dict) -> str:
    reason = outcome.get("reason", "?")
    if reason == "speculating":
        names = ", ".join(outcome.get("functions", ())) or "?"
        line = (
            f"speculating on {outcome.get('dirty', 0)} function(s) "
            f"[job {outcome.get('job', '?')}]: {names}"
        )
        if outcome.get("superseded"):
            line += f" (superseded {outcome['superseded']})"
        return line
    if reason == "clean":
        return "no function changed; nothing to do"
    if reason == "parse-error":
        return "module does not parse yet; waiting for the next edit"
    return f"speculation skipped [{reason}]"


def _cmd_watch(args) -> int:
    import json
    import time

    from .service import ServiceClient, ServiceError, resolve_address

    try:
        client = ServiceClient(resolve_address(args.connect))
    except ServiceError as error:
        print(f"warpcc: {error} [{error.reason}]", file=sys.stderr)
        return 2
    watch_key = args.watch_key or args.file

    def push(source: str) -> Optional[dict]:
        try:
            return client.watch_update(
                source,
                watch=watch_key,
                filename=args.file,
                opt_level=args.opt_level,
                cells=args.cells,
            )
        except ServiceError as error:
            print(f"warpcc: {error} [{error.reason}]", file=sys.stderr)
            return None
        except OSError as error:
            print(f"warpcc: service unreachable: {error}", file=sys.stderr)
            return None

    def report(outcome: dict) -> None:
        if args.json:
            print(json.dumps(outcome, sort_keys=True), flush=True)
        else:
            print(_describe_watch_outcome(outcome), flush=True)

    try:
        last = _read_source(args.file)
    except OSError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    outcome = push(last)
    if outcome is None:
        return 2
    report(outcome)
    if args.once:
        return 0

    print(
        f"watching {args.file} (interval {args.interval}s, ^C to stop)",
        file=sys.stderr,
        flush=True,
    )
    try:
        while True:
            time.sleep(max(args.interval, 0.05))
            try:
                current = _read_source(args.file)
            except OSError:
                continue  # editor mid-save; retry next tick
            if current == last:
                continue
            last = current
            outcome = push(current)
            if outcome is not None:
                report(outcome)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_status(args) -> int:
    import json

    from .service import ServiceClient, ServiceError, resolve_address

    try:
        client = ServiceClient(resolve_address(args.connect))
        reply = client.status(args.job, gantt=args.gantt)
    except ServiceError as error:
        print(f"warpcc: {error} [{error.reason}]", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"warpcc: service unreachable: {error}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if args.job is not None:
        job = reply["job"]
        print(f"job {job['job']}: {job['state']} "
              f"(tenant {job['tenant']}, priority {job['priority']})")
        print(f"  tasks: {job['tasks_done']}/{job['tasks_total']} done, "
              f"{job['cache_served']} from cache")
        if job.get("error"):
            print(f"  error: {job['error']}")
        if job.get("digest"):
            print(f"  digest: {job['digest'].splitlines()[0]} ...")
    else:
        stats = reply["stats"]
        print(
            f"service: {stats['submitted']} submitted, "
            f"{stats['done']} done, {stats['failed']} failed, "
            f"{stats['cancelled']} cancelled, "
            f"{stats['rejected']} rejected; "
            f"utilization {stats['utilization']:.0%} "
            f"over {stats['workers']} worker(s)"
        )
        for job in reply["jobs"]:
            print(f"  {job['job']}: {job['state']:9s} "
                  f"tenant={job['tenant']} "
                  f"{job['tasks_done']}/{job['tasks_total']} tasks")
    if args.gantt and reply.get("gantt"):
        print(reply["gantt"])
    return 0


def _cmd_disasm(args) -> int:
    from .asmlink.encode import FormatError, read_module

    try:
        module = read_module(args.file)
    except (FormatError, OSError) as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 1
    print(module_digest(module))
    return 0


#: Transport fault rates for each ``warpcc worker --chaos-fault``
#: family.  Seeded and deterministic (see repro.fabric.chaos); the CI
#: fabric-chaos matrix drives these from the command line.
_WORKER_CHAOS_FAULTS = {
    "node-kill": {"kill_rate": 0.4},
    "heartbeat-drop": {"heartbeat_drop_rate": 0.7},
    "truncate": {"truncate_rate": 0.4},
    "delay-dup": {"delay_rate": 0.3, "duplicate_rate": 0.3},
    "mixed": {
        "kill_rate": 0.2,
        "heartbeat_drop_rate": 0.2,
        "truncate_rate": 0.15,
        "delay_rate": 0.15,
        "duplicate_rate": 0.15,
    },
}


def _cmd_worker(args) -> int:
    from .fabric import FabricChaos, WorkerNodeAgent

    if args.serial:
        backend = SerialBackend()
    else:
        backend = WarmPoolBackend(max_workers=args.workers)
    chaos = None
    if args.chaos is not None:
        chaos = FabricChaos(
            args.chaos, **_WORKER_CHAOS_FAULTS[args.chaos_fault]
        )
    try:
        agent = WorkerNodeAgent(
            args.connect,
            backend,
            node_id=args.node_id,
            chaos=chaos,
        )
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    print(
        f"warpcc worker {agent.node_id}: {backend.worker_count} "
        f"worker(s) leased to {args.connect}",
        flush=True,
    )
    try:
        agent.run_forever()
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        shutdown = getattr(backend, "shutdown", None)
        if shutdown is not None:
            shutdown()


def _cmd_cache_server(args) -> int:
    import threading

    from .cache.store import DEFAULT_MAX_BYTES
    from .fabric import CacheServiceServer

    server = CacheServiceServer(
        args.cache_dir,
        host=args.host,
        port=args.port,
        max_bytes=args.max_bytes or DEFAULT_MAX_BYTES,
    )
    print(
        f"warpcc cache tier on {server.address} "
        f"({server.store.entry_count()} entr(ies) on disk); "
        f"clients: warpcc compile --cache-url {server.address} "
        f"or export WARPCC_CACHE_URL={server.address}",
        flush=True,
    )
    try:
        threading.Event().wait()  # serve until interrupted
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        server.close()


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "compile":
        return _cmd_compile(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "disasm":
        return _cmd_disasm(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "cache-server":
        return _cmd_cache_server(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "watch":
        return _cmd_watch(args)
    if args.command == "status":
        return _cmd_status(args)
    return _cmd_bench(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
