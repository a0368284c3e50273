"""Ablation: Lisp process startup cost on/off.

§4.2.3 lists "startup time for lisp processes (portion of large core
image must be downloaded, and each lisp process has to interpret
initializing information)" as a major system-overhead contributor.  With
startup free, even tiny functions should parallelize.
"""

from figures_common import write_figure
from repro.cluster.costs import ClusterCostModel
from repro.metrics.experiments import measure_pair
from repro.metrics.series import Figure


def free_startup() -> ClusterCostModel:
    return ClusterCostModel(
        lisp_core_words=0.0,
        lisp_init_sec=0.0,
        c_process_start_sec=0.0,
        section_start_sec=0.0,
    )


def build_figure() -> Figure:
    fig = Figure(
        "Ablation: startup cost",
        "Lisp startup cost vs tiny/small speedup at n=8",
        "size class",
        "speedup (elapsed)",
        xs=["tiny", "small", "medium"],
    )
    default = fig.new_series("default startup")
    free = fig.new_series("free startup")
    for size in fig.xs:
        default.add(size, measure_pair(size, 8).speedup)
        free.add(size, measure_pair(size, 8, costs=free_startup()).speedup)
    return fig


def test_startup_cost_explains_tiny_slowdown(benchmark, results_dir):
    fig = benchmark(build_figure)
    write_figure(results_dir, fig)

    default = fig.series_named("default startup")
    free = fig.series_named("free startup")

    # With real startup costs, tiny functions lose; with free startup
    # they win (the slowdown is the startup, nothing else).
    assert default.points["tiny"] < 1.0
    assert free.points["tiny"] > 1.5

    # Every size benefits from cheaper startup.
    for size in fig.xs:
        assert free.points[size] > default.points[size]

    # The benefit shrinks as functions grow (startup amortizes).
    gain = {
        size: free.points[size] / default.points[size] for size in fig.xs
    }
    assert gain["tiny"] > gain["small"] > gain["medium"]
