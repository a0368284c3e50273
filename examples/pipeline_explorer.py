"""Look inside phase 3: software pipelining of a loop kernel.

Compiles the same function at -O1 (list scheduling only) and -O2
(iterative modulo scheduling + pipelined loop emission), prints the
schedules, and runs both on the array simulator to show identical results
at very different cycle counts.

Run:  python examples/pipeline_explorer.py
"""

from repro import CompileOptions, SequentialCompiler, run_module
from repro.driver.phases import compile_one_function, phase1_parse_and_check

SOURCE = """
module explorer
section s (cells 0..0)
  function main()
  var i, k: int; v, acc: float; a: array[32] of float;
  begin
    for k := 1 to 4 do
      receive(v);
      for i := 0 to 31 do
        a[i] := v * 0.5 + i;
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


def compile_at(opt_level: int):
    """The module, and ``main`` as code generation left it (blocks and
    labels, before its function master assembled it)."""
    options = CompileOptions(opt_level=opt_level, cell_count=1)
    main_obj, _ = compile_one_function(
        phase1_parse_and_check(SOURCE), "s", "main", options
    )
    return SequentialCompiler(options).compile(SOURCE), main_obj


def main() -> None:
    plain, plain_main = compile_at(1)
    pipelined, pipelined_main = compile_at(2)

    info = pipelined_main.info
    print(f"-O2 pipelined {info.pipelined_loops} loop(s); "
          f"initiation intervals: {info.initiation_intervals}")
    print(f"-O1 code size: {plain_main.bundle_count()} bundles")
    print(f"-O2 code size: {pipelined_main.bundle_count()} bundles "
          "(prologue/kernel/epilogue + fallback)\n")

    # Show one pipelined kernel: II bundles, multiple iterations in flight.
    for block in pipelined_main.blocks:
        if block.label.endswith(".pl.kernel"):
            print(f"kernel {block.label} (II = {len(block.bundles)}):")
            for index, bundle in enumerate(block.bundles):
                print(f"  cycle {index}: {bundle}")
            print()
            break

    plain_run = run_module(plain.download, list(INPUTS))
    pipe_run = run_module(pipelined.download, list(INPUTS))
    assert plain_run.outputs == pipe_run.outputs
    print("outputs (identical):", pipe_run.output_floats())
    print(f"-O1 cycles: {plain_run.cycles}")
    print(f"-O2 cycles: {pipe_run.cycles}  "
          f"({plain_run.cycles / pipe_run.cycles:.2f}x faster)")


if __name__ == "__main__":
    main()
