"""The compile-time / code-quality trade-off (§6).

"Any strategy that reduces the compilation time benefits the users in two
ways: the actual compilation time is reduced, or the compiler can employ
more time consuming optimizations and thereby improve the quality of the
code generated."

This bench measures both sides on the same kernel: optimization level vs
(a) compile work and (b) simulated execution cycles of the generated
code.  Parallel compilation is what makes the -O2 column affordable.
"""

from figures_common import write_figure
from repro import CompileOptions
from repro.driver.sequential import SequentialCompiler
from repro.metrics.series import Figure
from repro.warpsim.array_runner import run_module

KERNEL = """
module tradeoff
section s (cells 0..0)
  function main()
  var i, k: int; v, acc: float; a: array[32] of float;
  begin
    for k := 1 to 4 do
      receive(v);
      for i := 0 to 31 do
        a[i] := v * 0.5 + i * (2.0 * 0.25);
      end;
      acc := 0.0;
      for i := 0 to 31 do
        acc := acc + a[i] * 1.5;
      end;
      send(acc);
    end;
  end
end
end
"""

INPUTS = [1.0, 2.0, 3.0, 4.0]


def build_figure() -> Figure:
    fig = Figure(
        "§6 trade-off",
        "Optimization level vs compile work and code quality",
        "opt level",
        "value",
        xs=[0, 1, 2],
    )
    work = fig.new_series("compile work (units)")
    cycles = fig.new_series("execution cycles")
    outputs = None
    for level in (0, 1, 2):
        compiler = SequentialCompiler(
            CompileOptions(opt_level=level, cell_count=1)
        )
        result = compiler.compile(KERNEL)
        run = run_module(result.download, list(INPUTS))
        if outputs is None:
            outputs = run.outputs
        assert run.outputs == outputs  # optimization never changes results
        work.add(level, float(result.profile.function_work()))
        cycles.add(level, float(run.cycles))
    return fig


def test_optimization_buys_code_quality_for_compile_time(
    benchmark, results_dir
):
    fig = benchmark(build_figure)
    write_figure(results_dir, fig)

    work = fig.series_named("compile work (units)")
    cycles = fig.series_named("execution cycles")

    # More optimization -> strictly more compile work...
    assert work.points[0] < work.points[1] < work.points[2]
    # ...and strictly faster generated code.
    assert cycles.points[0] > cycles.points[1] > cycles.points[2]
    # The -O2 (software-pipelined) code is substantially faster than -O0
    # (the accumulator recurrence bounds the win on this kernel).
    assert cycles.points[2] < 0.8 * cycles.points[0]
