"""Statistics, the declared metrics, and ``--compare``.

``BENCHMARK.json`` at the root of the repository is the one place metric
names, units, directions and bounds are declared; everything here reads
them from it.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


median = statistics.median


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def describe(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# --compare A.json B.json
# ---------------------------------------------------------------------------


def worsening(metric: dict, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def verdict(metric: dict, base: List[float], new: List[float]) -> str:
    """``within``, ``regressed`` or ``unresolved`` for one metric on one
    workload, from every run of both sides."""
    bound = metric["bound"]
    worse = worsening(metric, median(base), median(new))
    lower = metric["better"] == "lower"
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    all_worse = (min(new) > max(base)) if lower else (max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not (all_better or all_worse):
        # The runs overlap and scatter more than the bound: the medians
        # cannot tell a regression from noise.
        return "unresolved"
    return "regressed" if worse > bound else "within"


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (end-to-end metric, workload); non-zero exit on
    any ``regressed``."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    spec = load_spec()
    regressed = 0
    print(f"base A = {path_a}\n new B = {path_b}")
    print(
        f"{'workload':14} {'metric':16} {'A median':>13} {'B median':>13} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            base = side_a["end_to_end"][metric["name"]]["values"]
            new = side_b["end_to_end"][metric["name"]]["values"]
            outcome = verdict(metric, base, new)
            regressed += outcome == "regressed"
            ratio = median(new) / median(base) if median(base) else math.nan
            print(
                f"{name:14} {metric['name']:16} {median(base):13.6g} "
                f"{median(new):13.6g} {ratio:7.3f} {metric['bound']:6.3f}  "
                f"{outcome} (n={len(base)}/{len(new)} {metric['unit']})"
            )
        # failed_share is absolute: any failed op is a regression.
        share_a, share_b = side_a["failed_share"], side_b["failed_share"]
        outcome = "regressed" if share_b > 0 else "within"
        regressed += outcome == "regressed"
        print(
            f"{name:14} {'failed_share':16} {share_a:13.6g} {share_b:13.6g} "
            f"{'':7} {0:6.3f}  {outcome}"
        )
    print(f"{regressed} regressed")
    return 1 if regressed else 0
