"""Builders shared by the figure benchmarks.

Each builder regenerates one of the paper's figures from (cached) real
compilations plus the deterministic cluster simulation, returning a
:class:`repro.metrics.series.Figure` ready to render and check.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.costs import ClusterCostModel
from repro.metrics.experiments import (
    MeasuredPair,
    measure_pair,
    measure_user_program,
    profile_for,
)
from repro.metrics.overhead import OverheadBreakdown, compute_overhead
from repro.metrics.series import Figure
from repro.workloads.sizes import FUNCTION_COUNTS, SIZE_CLASSES, SIZE_ORDER

#: Paper display names for the size classes.
PAPER_NAME = {
    "tiny": "f_tiny",
    "small": "f_small",
    "medium": "f_medium",
    "large": "f_large",
    "huge": "f_huge",
}


def pairs_for(size_class: str, costs: Optional[ClusterCostModel] = None):
    return {
        n: measure_pair(size_class, n, costs=costs) for n in FUNCTION_COUNTS
    }


def times_figure(size_class: str, figure_id: str) -> Figure:
    """Figures 3/4/5/12/13: elapsed + per-processor CPU, both compilers."""
    fig = Figure(
        figure_id,
        f"Execution times for {PAPER_NAME[size_class]}",
        "functions",
        "virtual seconds",
        xs=list(FUNCTION_COUNTS),
    )
    seq_elapsed = fig.new_series("elapsed seq")
    seq_cpu = fig.new_series("cpu seq")
    par_elapsed = fig.new_series("elapsed par")
    par_cpu = fig.new_series("cpu par")
    for n, pair in pairs_for(size_class).items():
        seq_elapsed.add(n, pair.sequential.elapsed)
        seq_cpu.add(n, pair.sequential.max_cpu)
        par_elapsed.add(n, pair.parallel.elapsed)
        par_cpu.add(n, pair.parallel.max_cpu)
    return fig


def speedup_vs_n_figure() -> Figure:
    """Figure 6: speedup over the sequential compiler, all sizes."""
    fig = Figure(
        "Figure 6",
        "Speedup over sequential compiler",
        "functions",
        "speedup (elapsed)",
        xs=list(FUNCTION_COUNTS),
    )
    for size in SIZE_ORDER:
        series = fig.new_series(PAPER_NAME[size])
        for n in FUNCTION_COUNTS:
            series.add(n, measure_pair(size, n).speedup)
    return fig


def speedup_vs_size_figure() -> Figure:
    """Figure 7: speedup versus function size (lines of code)."""
    fig = Figure(
        "Figure 7",
        "Speedup versus function size",
        "lines of code",
        "speedup (elapsed)",
        xs=[SIZE_CLASSES[s] for s in SIZE_ORDER],
    )
    for n in FUNCTION_COUNTS:
        series = fig.new_series(f"{n} function(s)")
        for size in SIZE_ORDER:
            series.add(SIZE_CLASSES[size], measure_pair(size, n).speedup)
    return fig


def overheads_for(size_class: str) -> Dict[int, OverheadBreakdown]:
    return {
        n: compute_overhead(pair.sequential, pair.parallel, pair.workers)
        for n, pair in pairs_for(size_class).items()
    }


def relative_overhead_figure(sizes: List[str], figure_id: str) -> Figure:
    """Figures 8/9/10: overheads as % of parallel elapsed time."""
    fig = Figure(
        figure_id,
        "Overheads as percentage of total time for "
        + " and ".join(PAPER_NAME[s] for s in sizes),
        "functions",
        "% of parallel elapsed",
        xs=list(FUNCTION_COUNTS),
    )
    for size in sizes:
        total = fig.new_series(f"rel. total overhead {PAPER_NAME[size]}")
        system = fig.new_series(f"rel. system overhead {PAPER_NAME[size]}")
        for n, ovh in overheads_for(size).items():
            total.add(n, ovh.relative_total)
            system.add(n, ovh.relative_system)
    return fig


def absolute_overhead_figure(sizes: List[str], figure_id: str) -> Figure:
    """Figures 14/15/16: absolute overhead times."""
    fig = Figure(
        figure_id,
        "Absolute overhead for " + " and ".join(PAPER_NAME[s] for s in sizes),
        "functions",
        "virtual seconds",
        xs=list(FUNCTION_COUNTS),
    )
    for size in sizes:
        total = fig.new_series(f"total overhead {PAPER_NAME[size]}")
        system = fig.new_series(f"system overhead {PAPER_NAME[size]}")
        for n, ovh in overheads_for(size).items():
            total.add(n, ovh.total_overhead)
            system.add(n, ovh.system_overhead)
    return fig


def user_program_figure() -> Figure:
    """Figure 11: user-program speedup for 2/3/5/9 processors."""
    fig = Figure(
        "Figure 11",
        "Speedup for a user program (mechanical engineering, 9 functions)",
        "processors",
        "speedup (elapsed)",
        xs=[2, 3, 5, 9],
    )
    grouped = fig.new_series("load-balanced grouping")
    for p in (2, 3, 5, 9):
        grouped.add(p, measure_user_program(p, strategy="grouped").speedup)
    fcfs = fig.new_series("one per processor (FCFS)")
    fcfs.add(
        9, measure_user_program(9, strategy="one-per-processor").speedup
    )
    return fig


def write_figure(results_dir, figure: Figure) -> str:
    text = figure.render()
    slug = "".join(
        ch if ch.isalnum() else "_" for ch in figure.figure_id.lower()
    ).strip("_")
    while "__" in slug:
        slug = slug.replace("__", "_")
    (results_dir / f"{slug or 'figure'}.txt").write_text(text + "\n")
    print("\n" + text)
    return text
