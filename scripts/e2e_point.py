#!/usr/bin/env python3
"""Fold two end-to-end benchmark results into one trajectory point.

    python scripts/e2e_point.py PARENT.json CHANGE.json \\
        --claim compile_p50_s:cold_loopnest --parent-commit 5bc4c52 \\
        [--confirm PARENT2.json CHANGE2.json] > BENCH_<date>_e2e.json

``PARENT.json`` / ``CHANGE.json`` are the ``e2e.seed<N>.json`` files that
``python3 benchmarks/e2e/run.py --runs 10 --seed N`` writes on the parent
commit and on the change.  The point keeps each side's median, quartiles
and sample count per end-to-end metric and the traced run's per-layer
values, and drops the raw samples.  The claim is judged by the rule the
benchmark states: the change wins when it is better on at least nine
tenths of the pairs of runs (run *i* of one side against run *i* of the
other: the same seed) and the medians differ by more than the distance
between the parent's quartiles.  ``--confirm`` judges the same claim on a
second pair of results, measured on a seed not used during development.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summary(stats: dict) -> dict:
    return {key: stats[key] for key in ("median", "q1", "q3", "n")}


def judge(metric: dict, workload: str, parent: dict, change: dict) -> dict:
    """The claim's numbers on one pair of results."""
    name = metric["name"]
    base = parent["workloads"][workload]["end_to_end"][name]
    new = change["workloads"][workload]["end_to_end"][name]
    lower = metric["better"] == "lower"
    pairs = list(zip(base["values"], new["values"]))
    wins = sum((b > n) if lower else (n > b) for b, n in pairs)
    gain = base["median"] - new["median"] if lower else new["median"] - base["median"]
    ratio = base["median"] / new["median"] if lower else new["median"] / base["median"]
    return {
        "seed": change["seed"],
        "parent": summary(base),
        "change": summary(new),
        "speedup": round(ratio, 3),
        "pairs": len(pairs),
        "change_wins": wins,
        "parent_quartile_distance": base["q3"] - base["q1"],
        "holds": wins >= 0.9 * len(pairs) and gain > base["q3"] - base["q1"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", required=True, metavar="METRIC:WORKLOAD")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--confirm", nargs=2, metavar=("PARENT2", "CHANGE2"))
    args = parser.parse_args(argv)

    spec = load(REPO / "BENCHMARK.json")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metric_name, workload = args.claim.split(":")
    parent, change = load(args.parent), load(args.change)

    claim = dict(
        metric=metric_name, workload=workload,
        unit=metrics[metric_name]["unit"], better=metrics[metric_name]["better"],
        **judge(metrics[metric_name], workload, parent, change),
    )
    if args.confirm:
        claim["confirmation"] = judge(
            metrics[metric_name], workload, *map(load, args.confirm)
        )

    workloads = {}
    for name, after in change["workloads"].items():
        before = parent["workloads"][name]
        workloads[name] = {
            "failed_share": {
                "parent": before["failed_share"], "change": after["failed_share"]
            },
            "end_to_end": {
                metric: {
                    "unit": stats["unit"],
                    "parent": summary(before["end_to_end"][metric]),
                    "change": summary(stats),
                }
                for metric, stats in after["end_to_end"].items()
            },
            "per_layer": {
                metric: {
                    "unit": value["unit"],
                    "parent": before["per_layer"][metric]["value"],
                    "change": value["value"],
                }
                for metric, value in after["per_layer"].items()
            },
        }
    point = {
        "e2e_trajectory_point": 1,
        "claim": claim,
        "command": f"python3 benchmarks/e2e/run.py --runs {change['runs']} "
        f"--seed {change['seed']}",
        "parent_commit": args.parent_commit,
        "host": change["host"],
        "workloads": workloads,
    }
    json.dump(point, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
