"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import List, Optional, Union

from repro import CompileOptions
from repro.driver.sequential import SequentialCompiler
from repro.ir.cfg import FunctionIR, ModuleIR
from repro.ir.lowering import lower_module
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.parser import parse_text
from repro.lang.sema import SemaResult, check_module
from repro.machine.warp_array import WarpArrayModel
from repro.warpsim.array_runner import RunResult, run_module

Number = Union[int, float]


def parse_ok(source: str):
    """Parse + check; assert no diagnostics; return (module, sema)."""
    sink = DiagnosticSink()
    module = parse_text(source, sink)
    assert not sink.has_errors, sink.render()
    sema = check_module(module, sink)
    assert not sink.has_errors, sink.render()
    return module, sema


def sema_errors(source: str) -> List[str]:
    """Parse + check; return rendered error messages (may be empty)."""
    sink = DiagnosticSink()
    module = parse_text(source, sink)
    if not sink.has_errors:
        check_module(module, sink)
    return [d.render() for d in sink.merged_in_source_order()]


def lower_ok(source: str) -> ModuleIR:
    module, _ = parse_ok(source)
    return lower_module(module)


def single_function_ir(source: str) -> FunctionIR:
    ir = lower_ok(source)
    functions = list(ir.all_functions())
    assert len(functions) == 1, f"expected 1 function, got {len(functions)}"
    return functions[0]


def wrap_function(body: str, cells: str = "0..0") -> str:
    """Wrap one function's text into a single-section module."""
    return f"module m\nsection s (cells {cells})\n{body}\nend\nend\n"


def plain_retry(inner, max_attempts: int = 3, **kwargs):
    """A :class:`SupervisedBackend` reduced to plain retry: no hedging,
    and neither quarantine nor the distinct-worker rule ends a task
    before its attempt budget does."""
    from repro.parallel.supervisor import SupervisedBackend

    kwargs.setdefault("hedge_after", None)
    kwargs.setdefault("poison_threshold", 100)
    backend = SupervisedBackend(inner, max_attempts=max_attempts, **kwargs)
    backend.health.quarantine_after = 100
    return backend


def collect_events(backend, tasks):
    """(results, failures) of one dispatch, collected from a
    fault-attributing backend's ``run_tasks_events`` stream."""
    results, failures = [], []
    for kind, payload in backend.run_tasks_events(tasks):
        if kind == "result":
            results.append(payload)
        elif kind == "failure":
            failures.append(payload)
    return results, failures


def compile_and_run(
    source: str,
    inputs: List[Number],
    opt_level: int = 2,
    cell_count: int = 10,
    max_cycles: int = 5_000_000,
) -> RunResult:
    """Compile with the sequential compiler and execute on the simulator."""
    compiler = SequentialCompiler(
        CompileOptions(opt_level=opt_level, cell_count=cell_count)
    )
    result = compiler.compile(source)
    return run_module(result.download, inputs, max_cycles=max_cycles)


def object_functions(source: str, options: CompileOptions = CompileOptions()):
    """Every function of ``source`` as code generation leaves it — the
    object graphs, blocks and labels and all — in source order."""
    from repro.driver.phases import compile_one_function, phase1_parse_and_check

    parsed = phase1_parse_and_check(source)
    return [
        compile_one_function(parsed, section.name, function.name, options)[0]
        for section in parsed.module.sections
        for function in section.functions
    ]


def function_tasks(
    source: str,
    filename: str = "<input>",
    options: CompileOptions = CompileOptions(),
    memo: bool = False,
):
    """The tasks the master builds for every function of ``source``, by
    ``(section, function)``: window plan tasks, or with ``memo`` tasks
    that name the master's checked parse (which this puts in the memo),
    as an in-process function master reads it."""
    from repro.driver.function_master import phase1_cached, phase1_key
    from repro.driver.master import function_tasks as build
    from repro.driver.phases import phase1_parallel

    if memo:
        parsed, _ = phase1_cached(source, filename)
        key = phase1_key(source, filename)
    else:
        parsed, key = phase1_parallel(source, filename, parse_windows=False), None
    tasks = build(parsed, parsed.module.all_functions(), options, key)
    return {task.key: task for task in tasks}


def function_task(source: str, section: str, function: str, **kwargs):
    """The master's task for one function of ``source`` (see
    :func:`function_tasks`)."""
    return function_tasks(source, **kwargs)[(section, function)]


def seal(obj):
    """``obj`` as a function master seals it: its assembled code in a
    result, beside the report its compile would have written."""
    from repro.driver.function_master import attach_assembly
    from repro.driver.results import FunctionReport

    report = FunctionReport(
        section_name=obj.section_name,
        name=obj.name,
        source_lines=0,
        ir_instructions=0,
        loop_weight=0,
        work_units=obj.info.work_units,
        bundles=obj.bundle_count(),
        pipelined_loops=obj.info.pipelined_loops,
        frame_words=obj.frame_words,
    )
    return attach_assembly(obj, report)


def compile_with_ir_transform(source: str, transform, opt_level: int = 2):
    """Compile ``source`` applying ``transform(module_ir)`` after lowering.

    Lets tests exercise optional transforms (unrolling, inlining) that the
    standard driver does not run, through the full backend + linker.
    """
    from repro.codegen.compiler import compile_function
    from repro.driver.phases import (
        phase1_parse_and_check,
        phase4_link_and_download,
    )
    from repro.ir.lowering import lower_module

    parsed = phase1_parse_and_check(source)
    module_ir = lower_module(parsed.module)
    transform(module_ir)
    array = WarpArrayModel()
    results = {
        name: [
            seal(compile_function(fn, array.cell, opt_level=opt_level))
            for fn in fns
        ]
        for name, fns in module_ir.functions.items()
    }
    module, _assembly, _link = phase4_link_and_download(
        parsed, results, array
    )
    return module


#: A one-cell module whose main echoes f(x) for each input — handy base
#: for semantics tests: fill in the body of `f`.
PIPELINE_TEMPLATE = """
module t
section s (cells 0..0)
  function f(x: float) : float
{body}
  function main()
  var v: float; k: int;
  begin
    for k := 1 to {count} do
      receive(v);
      send(f(v));
    end;
  end
end
end
"""


def echo_module(f_body: str, count: int) -> str:
    """A module applying `f` to `count` external inputs on one cell."""
    return PIPELINE_TEMPLATE.format(body=f_body, count=count)
