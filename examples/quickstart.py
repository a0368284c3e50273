"""Quickstart: compile a Warp program, run it, and go parallel.

Run:  python examples/quickstart.py
"""

from repro import ParallelCompiler, SequentialCompiler, run_module
from repro.parallel import SerialBackend, WarmPoolBackend

SOURCE = """
module quickstart
section pipeline (cells 0..1)
  function smooth(v: float) : float
  var w: array[4] of float; i: int; acc: float;
  begin
    for i := 0 to 3 do w[i] := v * 0.25; end;
    acc := 0.0;
    for i := 0 to 3 do acc := acc + w[i]; end;
    return acc;
  end
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 4 do
      receive(v);
      send(smooth(v) + 1.0);
    end;
  end
end
end
"""


def main() -> None:
    # 1. The sequential compiler: all four phases in one process.
    sequential = SequentialCompiler()
    result = sequential.compile(SOURCE)
    print("compiled module:", result.module_name)
    for line in result.report_lines():
        print(" ", line)

    # 2. Execute the download module on the simulated Warp array.
    #    Both cells of the section run the program, so smooth(+1) is
    #    applied twice to each input.
    outputs = run_module(result.download, [1.0, 2.0, 3.0, 4.0])
    print("array outputs:", outputs.output_floats())
    print("array cycles :", outputs.cycles)

    # 3. The parallel compiler: master / section masters / function
    #    masters.  Its output is bit-identical to the sequential one.
    parallel = ParallelCompiler(backend=SerialBackend())
    parallel_result = parallel.compile(SOURCE)
    assert parallel_result.digest == result.digest
    print("parallel compiler output identical:", True)

    # 4. On a multi-core machine, use one OS process per function master
    #    (the farm starts on first use and stops when the block exits):
    #       with WarmPoolBackend() as farm:
    #           ParallelCompiler(backend=farm).compile(SOURCE)
    print("process-pool backend available with",
          WarmPoolBackend().worker_count, "workers")


if __name__ == "__main__":
    main()
