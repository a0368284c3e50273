"""§4.2.2 comparison: Katseff's data-partitioned parallel assembler [9].

Paper: "the speedup reported is about 6 for a large program and 4 for a
small one; adding processors past 8 for the large program (5 for the
small one) yields no further decrease in elapsed time.  Since the amount
of computation per processor is larger in our system, we are able to use
more processors but also observe the dependence on the input size."
"""

from figures_common import write_figure
from repro import CompileOptions
from repro.asmlink.parallel_assembler import assemble_parallel
from repro.driver.phases import compile_one_function, phase1_parse_and_check
from repro.metrics.series import Figure
from repro.workloads.synthetic import synthetic_program

WORKERS = [1, 2, 4, 5, 8, 12, 16]


def _objects(size_class: str, n_functions: int):
    """The program's object functions as code generation leaves them —
    the input Katseff's assembler partitions."""
    parsed = phase1_parse_and_check(synthetic_program(size_class, n_functions))
    return [
        compile_one_function(
            parsed, section.name, function.name, CompileOptions()
        )[0]
        for section in parsed.module.sections
        for function in section.functions
    ]


def assembler_speedups(objects):
    base = assemble_parallel(objects, 1).critical_path_work
    return {
        w: base / assemble_parallel(objects, w).critical_path_work
        for w in WORKERS
    }


def build_figure() -> Figure:
    fig = Figure(
        "Katseff [9]",
        "Parallel assembler speedup (data partitioning)",
        "workers",
        "assembly speedup",
        xs=list(WORKERS),
    )
    large = fig.new_series("large program (16 functions)")
    for w, s in assembler_speedups(_objects("medium", 8) + _objects("small", 8)).items():
        large.add(w, s)
    small = fig.new_series("small program (4 functions)")
    for w, s in assembler_speedups(_objects("small", 4)).items():
        small.add(w, s)
    return fig


def test_katseff_parallel_assembler(benchmark, results_dir):
    fig = benchmark(build_figure)
    write_figure(results_dir, fig)

    large = fig.series_named("large program (16 functions)")
    small = fig.series_named("small program (4 functions)")

    # Both saturate: speedup grows then flattens.
    assert large.points[4] > large.points[2] > large.points[1]
    assert large.points[16] <= large.points[8] * 1.25
    assert large.points[16] == large.points[12]  # flat past ~8 workers
    assert small.points[16] <= small.points[4] * 1.05

    # The large program keeps scaling further than the small one.
    assert large.points[8] > small.points[8]
    # The small program is limited by its 4 partitions.
    assert small.points[16] <= 4.5
