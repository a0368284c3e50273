"""Ablation: procedure inlining improves parallel compilation (§5.1).

"The observation that parallel compilation is of marginal value when
compiling small functions supports our view that procedure inlining is an
important optimization ... the increase in size of each function operated
upon will also improve the speedup obtained by the parallel compiler."

We compile a module of four kernels that each call three tiny helpers,
(a) as written (16 small-ish tasks), and (b) after inlining with the
now-uncalled helpers dropped (4 fatter tasks), and compare the cluster
speedups.
"""

from figures_common import write_figure
from repro.asmlink.assembler import assembly_work_units
from repro.cluster.cluster import ClusterSimulation
from repro.codegen.compiler import compile_function
from repro.driver.phases import phase1_parse_and_check
from repro.driver.results import FunctionReport, WorkProfile
from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.ir.loops import loop_nest_weight
from repro.ir.lowering import lower_module
from repro.machine.warp_cell import WarpCellModel
from repro.metrics.series import Figure
from repro.opt.inline import inline_calls_in_module
from repro.parallel.schedule import one_function_per_processor
from repro.workloads.kernels import synthetic_function


def _helper(name: str, scale: str) -> str:
    return (
        f"  function {name}(v: float) : float\n"
        f"  var q: int; r: float;\n"
        f"  begin\n"
        f"    r := v;\n"
        f"    for q := 0 to 7 do r := r * {scale} + 1.0; end;\n"
        f"    return r;\n"
        f"  end"
    )


def _worker(index: int) -> str:
    return (
        f"  function work{index}(x: float, y: float) : float\n"
        f"  var i: int; acc: float;\n"
        f"  begin\n"
        f"    acc := 0.0;\n"
        f"    for i := 0 to 15 do\n"
        f"      acc := acc + x * {index + 1}.0;\n"
        f"    end;\n"
        f"    return h{index}a(acc) + h{index}b(acc + y);\n"
        f"  end"
    )


def _source() -> str:
    parts = []
    for index in range(4):
        parts.append(_helper(f"h{index}a", "0.5"))
        parts.append(_helper(f"h{index}b", "0.25"))
        parts.append(_worker(index))
    body = "\n".join(parts)
    return f"module inl\nsection s (cells 0..0)\n{body}\nend\nend\n"


def _profile(inline: bool) -> WorkProfile:
    parsed = phase1_parse_and_check(_source())
    module_ir = lower_module(parsed.module)
    cell = WarpCellModel()
    keep = {
        name: list(fns) for name, fns in module_ir.functions.items()
    }
    if inline:
        inline_calls_in_module(module_ir, threshold=200)
        # Helpers are dead once nothing calls them.
        called = {
            instr.callee
            for fn in module_ir.all_functions()
            for instr in fn.all_instructions()
            if instr.op is Opcode.CALL
        }
        keep = {
            name: [
                fn
                for fn in fns
                if fn.name in called or not fn.name.startswith("h")
            ]
            for name, fns in module_ir.functions.items()
        }

    profile = WorkProfile(
        parse_work=parsed.parse_work,
        sema_work=parsed.sema_work,
        source_lines=parsed.source_lines,
    )
    for section_name, fns in keep.items():
        for fn in fns:
            ir_size = fn.instruction_count()
            weight = loop_nest_weight(Cfg(fn))
            obj = compile_function(fn, cell, opt_level=2)
            profile.functions.append(
                FunctionReport(
                    section_name=section_name,
                    name=fn.name,
                    source_lines=max(4, ir_size // 4),
                    ir_instructions=ir_size,
                    loop_weight=weight,
                    work_units=obj.info.work_units,
                    bundles=obj.bundle_count(),
                    pipelined_loops=obj.info.pipelined_loops,
                    initiation_intervals=list(obj.info.initiation_intervals),
                )
            )
            profile.assembly_work += assembly_work_units(obj)
    profile.link_work = len(profile.functions)
    profile.download_words = sum(f.bundles for f in profile.functions) * 4
    return profile


def build_figure() -> Figure:
    sim = ClusterSimulation()
    fig = Figure(
        "Ablation: inlining",
        "Procedure inlining vs parallel-compilation speedup",
        "configuration",
        "value",
        xs=["as written", "inlined"],
    )
    speedups = fig.new_series("speedup (one function per processor)")
    tasks = fig.new_series("parallel tasks")
    for label, inline in (("as written", False), ("inlined", True)):
        profile = _profile(inline)
        seq = sim.run_sequential(profile)
        par = sim.run_parallel(
            profile, one_function_per_processor(profile.functions)
        )
        speedups.add(label, seq.elapsed / par.elapsed)
        tasks.add(label, len(profile.functions))
    return fig


def test_inlining_improves_parallel_speedup(benchmark, results_dir):
    fig = benchmark(build_figure)
    write_figure(results_dir, fig)

    speedups = fig.series_named("speedup (one function per processor)")
    tasks = fig.series_named("parallel tasks")

    # Inlining removes the helper tasks...
    assert tasks.points["inlined"] < tasks.points["as written"]
    # ...and the fatter remaining functions parallelize better.
    assert speedups.points["inlined"] > speedups.points["as written"]
