#!/usr/bin/env python3
"""The source-to-download-module benchmark.

Three ways to call it, from the root of the repository::

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --workload warm_edit  # one workload
    python3 benchmarks/e2e/run.py --smoke               # <30 s self-test
    python3 benchmarks/e2e/run.py --compare A.json B.json

Without ``--trace`` it runs each workload in fresh interpreters — the
untraced run ``--runs`` times with consecutive seeds, then one traced
run — prints every metric by name with its unit, and writes one result
JSON under ``benchmarks/out/e2e/``.

With ``--trace 0|1`` it is a single run of a single workload, the form
the benchmark contract calls: set up, measure whole rounds for
``--seconds``, check every output, and print as the last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics untraced, the per-layer metrics traced.

See README.md beside this file for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / "benchmarks" / "out" / "e2e"

#: a run may take this many times --seconds on the raw clock
RAW_CAP = 1.4

#: end-to-end metric -> the op kinds whose samples it is made of, where
#: a workload has such kinds (otherwise every kind)
KINDS_OF = {
    "compile_p50_s": "one_edit",
    "compile_p95_s": "one_edit",
    "fill_p50_s": "fill",
    "noedit_p50_s": "no_edit",
}


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# One run of one workload (the contract's form).
# ---------------------------------------------------------------------------


def per_layer_values(
    workload, recorder, ops, untraced_ops, rounds, spec, self_times, wall
):
    """Per-layer metrics of the traced rounds.  Seconds are self times
    and, like the counts, are per round, so runs of different length
    compare; shares are of the traced ops' wall clock."""
    import tracing
    from report import geomean, median
    from workloads import by_kind

    spans = recorder.spans
    selfs = Counter()
    for metrics in self_times.values():
        selfs.update(metrics)
    counts = recorder.counts
    # Layers a workload never enters read 0.
    values = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    for metric, seconds in selfs.items():
        values[metric] = seconds / rounds
    for name in (
        "lang.tokens", "ir.instructions", "opt.rounds", "opt.pass_runs",
        "opt.changes", "opt.instructions_visited", "opt.ir_after",
        "codegen.spill_slots", "codegen.modulo_attempts",
        "codegen.pipelined_loops", "codegen.ii_sum", "codegen.bundles",
        "cache.hits", "cache.misses", "driver.fallbacks", "parallel.tasks",
        "parallel.task_bytes", "parallel.result_bytes",
    ):
        values[name] = counts[name] / rounds

    def share(part, whole):
        return part / whole if whole else 0.0

    values["lang.tokens_per_s"] = share(
        counts["lang.tokens"], selfs.get("lang.lex_s", 0.0)
    )
    values["codegen.modulo_success_share"] = share(
        counts["codegen.modulo_successes"], counts["codegen.modulo_attempts"]
    )
    lookups = counts["cache.hits"] + counts["cache.misses"]
    values["cache.hit_share"] = share(counts["cache.hits"], lookups)
    values["driver.unattributed_share"] = share(
        selfs.get(tracing.UNATTRIBUTED, 0.0), wall
    )
    values["parallel.worker_front_s"] = (
        tracing.worker_front_seconds(spans, recorder.scale) / rounds
    )

    values.update(workload.layer_values(rounds))

    values["warpsim.verify_s"] = workload.verify_s
    values["warpsim.cycles_per_s"] = share(workload.sim_cycles, workload.verify_s)

    # Tracing overhead: traced against untraced wall, kind by kind.
    untraced, traced = by_kind(untraced_ops), by_kind(ops)
    ratios = [
        median(traced[kind]) / median(untraced[kind])
        for kind in traced
        if kind in untraced
    ]
    values["trace.overhead_share"] = geomean(ratios) - 1.0 if ratios else 0.0
    values["trace.spans"] = len(spans) / rounds
    return values


def run_leg(args, spec) -> int:
    clock_start = time.perf_counter()  # set-up includes importing repro
    for path in (ROOT / "src", ROOT / "tests"):
        if not path.is_dir():
            print(f"e2e: {path} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
        sys.path.insert(0, str(path))
    import tracing
    import workloads
    from report import describe, median, spread

    traced = args.trace == 1
    out = Path(args.out) if args.out else OUT
    out.mkdir(parents=True, exist_ok=True)
    scratch = out / f"tmp-{os.getpid()}"
    scratch.mkdir()
    host = host_info()
    workload = workloads.make(
        args.workload, args.seed, args.smoke, scratch, traced
    )
    recorder = None
    ops, untraced_ops, rounds = [], [], 0
    try:
        workload.set_up()
        if traced:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        # Like every timing here, in seconds of a host of nominal speed.
        setup_raw_s = time.perf_counter() - clock_start
        setup_s = setup_raw_s * workload.speed.factor_overall()

        # Whole rounds, for --seconds of a host of nominal speed: the
        # clock that decides when to stop is the ops' own scaled time, so
        # the amount of work in a run follows the compiler's speed and
        # not the host's mood.  The raw clock only caps a very slow day.
        started = time.perf_counter()
        while True:
            if traced:
                # Each traced round is paired with an untraced one run
                # just before it (wrappers installed but idle), so the
                # overhead figure survives a drifting host.
                untraced_ops.extend(workload.round())
                workload.recorder = recorder
            ops.extend(workload.round())
            workload.recorder = None
            rounds += 1
            elapsed = sum(op.wall for op in ops + untraced_ops)
            raw_elapsed = time.perf_counter() - started
            if (
                args.smoke
                or elapsed + elapsed / rounds > args.seconds
                or raw_elapsed + raw_elapsed / rounds > RAW_CAP * args.seconds
            ):
                break
    finally:
        workload.tear_down()
        shutil.rmtree(scratch, ignore_errors=True)
    host["loadavg_after"] = list(os.getloadavg())

    attempted = len(ops) + workload.checks_attempted
    failed = sum(not op.ok for op in ops) + workload.checks_failed
    layer_shares = {}
    if traced:
        declared = spec["per_layer"]
        self_times = tracing.self_times(recorder.spans, recorder.scale)
        walls = tracing.op_walls(recorder.spans, recorder.scale)
        values = per_layer_values(
            workload, recorder, ops, untraced_ops, rounds, spec,
            self_times, sum(walls.values()),
        )
        # Each layer's share of the wall clock of each kind of op.
        layer_shares = {
            kind: {m: seconds / walls[kind] for m, seconds in metrics.items()}
            for kind, metrics in self_times.items()
        }
        tracing.write_chrome_trace(
            recorder.spans, out / f"{args.workload}.seed{args.seed}.trace.json"
        )
    else:
        declared = spec["end_to_end"]
        values = workload.end_to_end(ops)
        values["setup_s"] = setup_s
    metrics = {
        metric["name"]: {
            "value": values[metric["name"]], "unit": metric["unit"]
        }
        for metric in declared
    }

    # Per-kind timings: median, quartiles and sample count, scaled to the
    # nominal host speed and as the clock read them.
    samples, kind_spread = {}, {}
    raw = workloads.by_kind(ops, "raw_wall")
    for kind, walls in workloads.by_kind(ops).items():
        samples[kind] = dict(describe(walls), raw_median=median(raw[kind]))
        kind_spread[kind] = spread(walls)
    noisy = {}
    if not traced:
        for metric in declared:
            kind = KINDS_OF.get(metric["name"])
            if kind is None or not metric["unit"] == "s":
                continue
            kinds = [kind] if kind in kind_spread else list(kind_spread)
            noisy[metric["name"]] = (
                max(kind_spread[k] for k in kinds) > metric["bound"]
            )
    host["speed_factor"] = workload.speed.factor_overall()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} ops={len(ops)} measured={elapsed:.1f}s "
          f"set-up={setup_raw_s:.1f}s host speed x{host['speed_factor']:.3f}")
    for kind, stats in samples.items():
        print(f"#   {kind:14} median {stats['median']:.4f} s  "
              f"[{stats['q1']:.4f} .. {stats['q3']:.4f}]  n={stats['n']}  "
              f"(raw median {stats['raw_median']:.4f} s)")
    for name, metric in metrics.items():
        flag = "  noisy" if noisy.get(name) else ""
        print(f"{name:30} {metric['value']:14.6g} {metric['unit']}"
              f"  (n={len(ops)} ops){flag}")
    for problem in workload.problems:
        print(f"# FAILED {problem}")

    summary = {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(
        summary,
        workload=args.workload, seed=args.seed, trace=args.trace,
        seconds=args.seconds, smoke=args.smoke, rounds=rounds,
        measured_s=elapsed, setup_raw_s=setup_raw_s,
        failed_share=failed / attempted,
        samples=samples, noisy=noisy, layer_shares=layer_shares,
        problems=workload.problems, host=host,
    )
    leg_path = out / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    with open(leg_path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each run in a fresh interpreter.
# ---------------------------------------------------------------------------


def run_all(args, spec) -> int:
    from report import describe, spread

    out = Path(args.out) if args.out else OUT
    out.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    result = {
        "claim": None,  # this benchmark measures; it claims no gain
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "smoke": args.smoke, "host": host_info(), "workloads": {},
    }
    status = 0

    def leg(workload: str, seed: int, trace: int) -> dict:
        nonlocal status
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--out", str(out),
        ] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(command, cwd=ROOT).returncode
        if code != 0:
            status = 1
        with open(out / f"{workload}.seed{seed}.trace{trace}.json",
                  encoding="utf-8") as handle:
            return json.load(handle)

    for workload in selected:
        untraced = [leg(workload, args.seed + i, 0) for i in range(args.runs)]
        traced = leg(workload, args.seed, 1)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in untraced]
            end_to_end[metric["name"]] = dict(
                describe(values), values=values, unit=metric["unit"],
                noisy=spread(values) > metric["bound"]
                or any(run["noisy"].get(metric["name"]) for run in untraced),
            )
        attempted = sum(run["attempted"] for run in untraced + [traced])
        failed = sum(run["failed"] for run in untraced + [traced])
        result["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "failed_share": failed / attempted,
            "samples": [run["samples"] for run in untraced],
            "trace_file": f"{workload}.seed{args.seed}.trace.json",
        }
    result["host"]["loadavg_after"] = list(os.getloadavg())
    path = out / f"e2e.seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, consecutive seeds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: a <30 s self-test")
    parser.add_argument("--out", default=None, metavar="DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from report import compare, load_spec

    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.trace is None:
        return run_all(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return run_leg(args, spec)


if __name__ == "__main__":
    sys.exit(main())
