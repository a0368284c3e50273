"""Ablation: sequential-compiler memory pressure on/off.

The paper's explanation for negative system overhead (§4.2.3) and
superlinear user-program speedup (§4.3) is the sequential compiler's
memory appetite: "the sequential compiler processes a program that does
not fit into the local memory and system space of a single workstation.
Extensive garbage collection and swapping are the result."

This ablation turns the mechanism off (no retention, no GC/paging) and
up (heavy retention) and shows both paper phenomena appear and disappear
with it.
"""

import dataclasses

from figures_common import write_figure
from repro.cluster.cluster import ClusterSimulation
from repro.cluster.costs import ClusterCostModel
from repro.metrics.experiments import (
    measure_pair,
    measure_user_program,
    profile_for,
    user_program_profile,
)
from repro.metrics.overhead import compute_overhead
from repro.metrics.series import Figure


def no_pressure() -> ClusterCostModel:
    return ClusterCostModel(
        retained_fraction=0.0,
        held_object_memory_per_bundle=0.0,
        gc_coeff=0.0,
        paging_cpu_coeff=0.0,
        paging_words_per_excess_second=0.0,
    )


def heavy_pressure() -> ClusterCostModel:
    return ClusterCostModel(
        retained_fraction=1.0,
        held_object_memory_per_bundle=1.5,
        retained_cap=1e9,
        gc_coeff=0.6,
        gc_onset=0.45,
    )


def build_figure() -> Figure:
    fig = Figure(
        "Ablation: memory pressure",
        "Sequential memory pressure vs overhead decomposition",
        "configuration",
        "value",
        xs=["off", "default", "heavy"],
    )
    sys_overhead = fig.new_series("f_medium x2 system overhead (s)")
    user_p2 = fig.new_series("user program speedup @2")
    for label, costs in (
        ("off", no_pressure()),
        ("default", None),
        ("heavy", heavy_pressure()),
    ):
        pair = measure_pair("medium", 2, costs=costs)
        ovh = compute_overhead(pair.sequential, pair.parallel, pair.workers)
        sys_overhead.add(label, ovh.system_overhead)
        user_p2.add(
            label, measure_user_program(2, costs=costs).speedup
        )
    return fig


def test_memory_pressure_drives_negative_system_overhead(
    benchmark, results_dir
):
    fig = benchmark(build_figure)
    write_figure(results_dir, fig)

    sys_overhead = fig.series_named("f_medium x2 system overhead (s)")
    user_p2 = fig.series_named("user program speedup @2")

    # With the mechanism off, system overhead is strictly positive and
    # the 2-processor user-program speedup is sublinear.
    assert sys_overhead.points["off"] > 0
    assert user_p2.points["off"] < 2.0

    # More pressure -> lower system overhead, higher 2-way speedup.
    assert (
        sys_overhead.points["heavy"]
        < sys_overhead.points["default"]
        < sys_overhead.points["off"]
    )
    assert (
        user_p2.points["heavy"]
        > user_p2.points["default"]
        > user_p2.points["off"]
    )

    # Under heavy pressure the paper's phenomena appear outright:
    # negative system overhead and superlinear 2-processor speedup.
    assert sys_overhead.points["heavy"] < 0
    assert user_p2.points["heavy"] > 2.0
