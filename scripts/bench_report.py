#!/usr/bin/env python3
"""Aggregate the repo's BENCH_*.json trajectory points into one report.

Every landed perf PR leaves a ``BENCH_<date>_<topic>.json`` file at the
repo root (plus pytest-benchmark output for the original compile-speed
figures).  The files use a handful of schemas — pytest-benchmark,
paired warm/cold cache rounds, chaos overhead, service throughput — so
the dashboards kept diverging.  This script recognizes each schema by
its keys and renders everything into one committed markdown file,
``docs/BENCH_TRAJECTORY.md``:

    python scripts/bench_report.py            # rewrite docs/BENCH_TRAJECTORY.md
    python scripts/bench_report.py --check    # exit 1 if the doc is stale
    python scripts/bench_report.py --stdout   # print instead of writing

Run it after adding a new trajectory point; CI's bench-smoke job only
archives artifacts, the committed doc is what reviewers diff.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "BENCH_TRAJECTORY.md"

HEADER = """\
# Benchmark trajectory

One row per committed `BENCH_*.json` trajectory point (repo root).
Regenerate with `python scripts/bench_report.py`; CI's bench-smoke job
archives the raw per-run artifacts, this table is the reviewable
history.
"""


def _fmt_s(value: float) -> str:
    return f"{value * 1000:.1f} ms" if value < 1.0 else f"{value:.2f} s"


def render_pyperf(doc: dict) -> list[str]:
    """pytest-benchmark output: one row per benchmark, median + ops."""
    lines = [
        "| benchmark | median | mean | rounds |",
        "|---|---|---|---|",
    ]
    for bench in doc.get("benchmarks", []):
        stats = bench.get("stats", {})
        lines.append(
            f"| `{bench.get('name', '?')}` "
            f"| {_fmt_s(stats.get('median', 0.0))} "
            f"| {_fmt_s(stats.get('mean', 0.0))} "
            f"| {stats.get('rounds', '?')} |"
        )
    return lines


def render_paired(doc: dict) -> list[str]:
    """Paired warm-vs-baseline rounds (cache, phase1, phase4 legs)."""
    baseline_key = next(
        (
            key
            for key in (
                "cold_median_s",
                "full_parse_median_s",
                "full_relink_median_s",
            )
            if key in doc
        ),
        None,
    )
    baseline = doc.get(baseline_key, 0.0) if baseline_key else 0.0
    warm = doc.get("warm_cache_median_s", 0.0)
    advantage = baseline / warm if warm else 0.0
    rows = [
        ("workload", doc.get("workload", "?")),
        ("baseline median", _fmt_s(baseline)),
        ("warm median", _fmt_s(warm)),
        ("advantage", f"{advantage:.2f}x"),
        (
            "warm wins",
            f"{doc.get('warm_wins', '?')}/{doc.get('rounds', '?')} rounds",
        ),
    ]
    if "edit_misses" in doc:
        rows.append(
            (
                "1-function edit",
                f"{doc['edit_misses']} miss, {doc.get('edit_hits', 0)} hits",
            )
        )
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_chaos(doc: dict) -> list[str]:
    rows = [
        ("workload", doc.get("workload", "?")),
        ("bare median", _fmt_s(doc.get("bare_median_s", 0.0))),
        ("supervised median", _fmt_s(doc.get("supervised_median_s", 0.0))),
        ("overhead", f"{doc.get('overhead_ratio', 0.0):.2f}x"),
    ]
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_service(doc: dict) -> list[str]:
    rows = [
        ("jobs", f"{doc.get('jobs_completed', '?')} completed"),
        (
            "throughput",
            f"{doc.get('throughput_jobs_per_s', 0.0):.1f} jobs/s",
        ),
        ("latency p50", _fmt_s(doc.get("latency_p50_s", 0.0))),
        ("latency p95", _fmt_s(doc.get("latency_p95_s", 0.0))),
    ]
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_fabric(doc: dict) -> list[str]:
    """Distributed-fabric scaling + node-kill robustness point."""
    rows = [
        ("workload", doc.get("workload", "?")),
        ("host cores", str(doc.get("cores", "?"))),
        ("1 node median", _fmt_s(doc.get("one_node_median_s", 0.0))),
        ("2 node median", _fmt_s(doc.get("two_node_median_s", 0.0))),
        ("speedup 2/1", f"{doc.get('speedup_2_over_1', 0.0):.2f}x"),
        (
            "node-kill round",
            _fmt_s(doc.get("node_kill_wall_s", 0.0))
            # (points before PR 24 recorded the hub's own re-queue count)
            + f" ({doc.get('node_kill_retries', doc.get('node_kill_tasks_requeued', '?'))}"
            f" task(s) retried, digest identical)",
        ),
    ]
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_search(doc: dict) -> list[str]:
    """Variant-search point: cycle wins + warm-sweep advantage."""
    rows = [
        ("workload", doc.get("workload", "?")),
        ("config space", ", ".join(doc.get("space", []))),
        (
            "strict wins",
            f"{doc.get('search_wins', '?')}/{doc.get('search_seeds', '?')} "
            f"seeds",
        ),
        (
            "cycles saved",
            f"{doc.get('baseline_cycles_total', 0) - doc.get('searched_cycles_total', 0)} "
            f"({doc.get('cycles_saved_pct', 0.0):.1f}%)",
        ),
        ("cold sweep", _fmt_s(doc.get("cold_sweep_wall_s", 0.0))),
        (
            "warm sweep",
            _fmt_s(doc.get("warm_sweep_wall_s", 0.0))
            + f" ({doc.get('warm_advantage', 0.0):.2f}x, "
            f"{doc.get('warm_variants_simulated', '?')} re-sims)",
        ),
    ]
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_predict(doc: dict) -> list[str]:
    """Watch-mode speculation point: replayed edit-session p95s."""
    spec = doc.get("benchmarks", {}).get("edit_session_speculated", {})
    cold = doc.get("benchmarks", {}).get("edit_session_cold", {})
    rows = [
        (
            "workload",
            f"{spec.get('edits', '?')} replayed edits, seed "
            f"{spec.get('seed', '?')}",
        ),
        (
            "interactive p95 (speculated)",
            _fmt_s(spec.get("interactive_p95_s", 0.0)),
        ),
        ("interactive p95 (cold)", _fmt_s(cold.get("interactive_p95_s", 0.0))),
        (
            "advantage",
            f"{doc.get('speculation_advantage', 0.0):.2f}x "
            f"(bar: >{1 / doc.get('advantage_bar', 0.6):.2f}x)",
        ),
        (
            "cache-served submits",
            f"{spec.get('cache_served', '?')} task(s)",
        ),
        (
            "speculative jobs",
            f"{spec.get('speculation', {}).get('launched', '?')} launched",
        ),
    ]
    return ["| metric | value |", "|---|---|"] + [
        f"| {k} | {v} |" for k, v in rows
    ]


def render_e2e(doc: dict) -> list[str]:
    """End-to-end point (scripts/e2e_point.py): the claim, then parent
    and change medians per workload and end-to-end metric."""
    claim = doc["claim"]
    lines = [
        f"Claim: `{claim['metric']}` on `{claim['workload']}` "
        f"{claim['parent']['median']:.4g} → {claim['change']['median']:.4g} "
        f"{claim['unit']} ({claim['speedup']:.2f}x; change better in "
        f"{claim['change_wins']}/{claim['pairs']} pairs; parent quartiles "
        f"{claim['parent']['q1']:.4g}..{claim['parent']['q3']:.4g}) — "
        f"{'holds' if claim['holds'] else 'NOT MET'}.  "
        f"`{doc['command']}` on each side, parent `{doc['parent_commit']}`.",
    ]
    again = claim.get("confirmation")
    if again:
        lines.append(
            f"On seed {again['seed']}, not used during development: "
            f"{again['parent']['median']:.4g} → {again['change']['median']:.4g} "
            f"{claim['unit']} ({again['speedup']:.2f}x, "
            f"{again['change_wins']}/{again['pairs']} pairs) — "
            f"{'holds' if again['holds'] else 'NOT MET'}."
        )
    lines += [
        "",
        "| workload | metric | parent median | change median | change/parent |",
        "|---|---|---|---|---|",
    ]
    for name, workload in doc["workloads"].items():
        for metric, sides in workload["end_to_end"].items():
            before, after = sides["parent"]["median"], sides["change"]["median"]
            ratio = f"{after / before:.3f}" if before else "-"
            lines.append(
                f"| `{name}` | `{metric}` | {before:.6g} {sides['unit']} "
                f"| {after:.6g} {sides['unit']} | {ratio} |"
            )
    return lines


def render_one(doc: dict) -> list[str]:
    if "e2e_trajectory_point" in doc:
        return render_e2e(doc)
    if "speculation_advantage" in doc:
        return render_predict(doc)
    if "benchmarks" in doc and "machine_info" in doc:
        return render_pyperf(doc)
    if "node_kill_completed" in doc:
        return render_fabric(doc)
    if "search_wins" in doc:
        return render_search(doc)
    if "warm_cache_median_s" in doc:
        return render_paired(doc)
    if "overhead_ratio" in doc:
        return render_chaos(doc)
    if "throughput_jobs_per_s" in doc:
        return render_service(doc)
    # Unknown schema: dump the scalar fields so the point still shows.
    return ["| field | value |", "|---|---|"] + [
        f"| {k} | {v} |"
        for k, v in doc.items()
        if isinstance(v, (str, int, float, bool))
    ]


def build_report(paths: list[Path]) -> str:
    sections = [HEADER]
    for path in sorted(paths):
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            sections.append(f"## {path.name}\n\n*unreadable: {exc}*\n")
            continue
        body = "\n".join(render_one(doc))
        sections.append(f"## {path.name}\n\n{body}\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if docs/BENCH_TRAJECTORY.md is out of date",
    )
    parser.add_argument(
        "--stdout",
        action="store_true",
        help="print the report instead of writing the doc",
    )
    args = parser.parse_args(argv)

    points = sorted(REPO.glob("BENCH_*.json"))
    if not points:
        print("no BENCH_*.json trajectory points found", file=sys.stderr)
        return 1
    report = build_report(points)
    if args.stdout:
        print(report, end="")
        return 0
    if args.check:
        current = DOC.read_text() if DOC.exists() else ""
        if current != report:
            print(
                "docs/BENCH_TRAJECTORY.md is stale; "
                "run: python scripts/bench_report.py",
                file=sys.stderr,
            )
            return 1
        print("docs/BENCH_TRAJECTORY.md is up to date")
        return 0
    DOC.write_text(report)
    print(f"wrote {DOC.relative_to(REPO)} ({len(points)} trajectory points)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
