"""Software pipelining: modulo scheduling and pipelined-loop emission.

The decisive tests compare simulator output of O2-pipelined code against
O1 (list-scheduled) code — the pipelined loop must be a pure performance
transformation.
"""

import pytest

from repro.codegen.compiler import compile_function
from repro.codegen.modulo import (
    SchedEdge,
    find_modulo_schedule,
    machine_schedule_edges,
    recurrence_mii,
    resource_mii,
    try_modulo_schedule,
)
from repro.codegen.regalloc import allocate_registers
from repro.codegen.select import select_function
from repro.ir.cfg import Cfg
from repro.machine.resources import FUClass
from repro.machine.warp_cell import WarpCellModel
from repro.opt.dependence import build_dependence_graph
from repro.opt.pass_manager import PassManager

from helpers import compile_and_run, echo_module, single_function_ir, wrap_function


ACC_LOOP = wrap_function(
    "function f(x: float) : float\n"
    "var i: int; acc: float; a: array[32] of float;\n"
    "begin\n"
    "for i := 0 to 31 do\n"
    "  a[i] := x * 0.5 + i;\n"
    "end;\n"
    "acc := 0.0;\n"
    "for i := 0 to 31 do\n"
    "  acc := acc + a[i];\n"
    "end;\n"
    "return acc;\nend"
)


def body_ops_and_edges(src: str):
    cell = WarpCellModel()
    fn = single_function_ir(src)
    PassManager(2).run(fn, Cfg(fn))
    allocation = allocate_registers(fn, cell, Cfg(fn))
    selected = select_function(fn, allocation, cell)
    loop = Cfg(fn).loops.innermost_loops()[0]
    body_label = next(iter(loop.blocks - {loop.header}))
    body = next(b for b in selected if b.label == body_label)
    ops = body.ops[:-1]
    graph = build_dependence_graph(Cfg(fn), loop)
    edges = machine_schedule_edges(ops, graph)
    return ops, edges


class TestScheduleSearch:
    def test_resource_mii(self):
        ops, _ = body_ops_and_edges(ACC_LOOP)
        assert resource_mii(ops) >= 1

    def test_schedule_found_and_edges_satisfied(self):
        ops, edges = body_ops_and_edges(ACC_LOOP)
        schedule = find_modulo_schedule(ops, edges, max_ii=100)
        assert schedule is not None
        for e in edges:
            assert (
                schedule.times[e.sink] + schedule.ii * e.distance
                >= schedule.times[e.source] + e.delay
            )

    def test_modulo_reservation_one_op_per_fu_per_slot(self):
        ops, edges = body_ops_and_edges(ACC_LOOP)
        schedule = find_modulo_schedule(ops, edges, max_ii=100)
        slots = {}
        for index, t in enumerate(schedule.times):
            key = (ops[index].fu, t % schedule.ii)
            assert key not in slots, "two ops in one modulo slot"
            slots[key] = index

    def test_ii_at_least_two(self):
        ops, edges = body_ops_and_edges(ACC_LOOP)
        schedule = find_modulo_schedule(ops, edges, max_ii=100)
        assert schedule.ii >= 2

    def test_infeasible_max_ii_returns_none(self):
        ops, edges = body_ops_and_edges(ACC_LOOP)
        bound = recurrence_mii(len(ops), edges)
        assert bound > max(2, resource_mii(ops))  # the recurrence decides
        # Below the bound there is no schedule; at it, this body has one.
        assert find_modulo_schedule(ops, edges, max_ii=bound - 1) is None
        assert find_modulo_schedule(ops, edges, max_ii=bound).ii == bound
        # (a max_ii of 1 is always infeasible since search starts at 2)
        assert find_modulo_schedule(ops, edges, max_ii=1) is None

    def test_carried_accumulator_bounds_ii(self):
        """acc := acc + a[i]: the fadd recurrence forces II >= latency."""
        ops, edges = body_ops_and_edges(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 31 do acc := acc + 0.5; end; "
                "return acc; end"
            )
        )
        schedule = find_modulo_schedule(ops, edges, max_ii=100)
        from repro.ir.instructions import Opcode

        fadd_latency = WarpCellModel().spec_for(Opcode.ADD, "f").latency
        assert schedule.ii >= fadd_latency


class TestPipelinedCompilation:
    def test_pipeliner_fires_on_loops(self):
        fn = single_function_ir(ACC_LOOP)
        obj = compile_function(fn, WarpCellModel(), opt_level=2)
        assert obj.info.pipelined_loops >= 1
        assert all(ii >= 2 for ii in obj.info.initiation_intervals)

    def test_pipelined_blocks_present(self):
        fn = single_function_ir(ACC_LOOP)
        obj = compile_function(fn, WarpCellModel(), opt_level=2)
        labels = [b.label for b in obj.blocks]
        assert any(l.endswith(".pl.guard") for l in labels)
        assert any(l.endswith(".pl.kernel") for l in labels)
        assert any(l.endswith(".pl.epilogue") for l in labels)

    def test_opt_level_one_never_pipelines(self):
        fn = single_function_ir(ACC_LOOP)
        obj = compile_function(fn, WarpCellModel(), opt_level=1)
        assert obj.info.pipelined_loops == 0

    def test_kernel_length_is_ii(self):
        fn = single_function_ir(ACC_LOOP)
        obj = compile_function(fn, WarpCellModel(), opt_level=2)
        kernels = [b for b in obj.blocks if b.label.endswith(".pl.kernel")]
        assert kernels
        for kernel in kernels:
            assert len(kernel.bundles) in obj.info.initiation_intervals


class TestPipelinedSemantics:
    """O2 (pipelined) output must equal O1 (plain) output exactly."""

    def _compare(self, f_body: str, inputs):
        src = echo_module(f_body, len(inputs))
        plain = compile_and_run(src, inputs, opt_level=1)
        pipelined = compile_and_run(src, inputs, opt_level=2)
        assert plain.output_floats() == pipelined.output_floats()
        return plain, pipelined

    def test_array_sum(self):
        body = (
            "  var i: int; acc: float; a: array[16] of float;\n"
            "  begin\n"
            "    for i := 0 to 15 do a[i] := x + i; end;\n"
            "    acc := 0.0;\n"
            "    for i := 0 to 15 do acc := acc + a[i]; end;\n"
            "    return acc;\n"
            "  end"
        )
        plain, pipelined = self._compare(body, [1.0, 2.0])
        assert pipelined.cycles < plain.cycles  # pipelining must pay off

    def test_recurrence(self):
        body = (
            "  var i: int; t: float;\n"
            "  begin\n"
            "    t := x;\n"
            "    for i := 0 to 20 do t := t * 0.5 + 1.0; end;\n"
            "    return t;\n"
            "  end"
        )
        self._compare(body, [3.0, -1.0, 100.0])

    def test_stencil_with_carried_memory_dependence(self):
        body = (
            "  var i: int; a: array[24] of float;\n"
            "  begin\n"
            "    a[0] := x;\n"
            "    for i := 1 to 23 do a[i] := a[i - 1] * 0.9 + 1.0; end;\n"
            "    return a[23];\n"
            "  end"
        )
        self._compare(body, [2.0])

    def test_trip_count_below_stages_takes_fallback(self):
        # A 2-iteration loop: the guard must route to the original loop.
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := x;\n"
            "    for i := 0 to 1 do acc := acc + 1.0; end;\n"
            "    return acc;\n"
            "  end"
        )
        self._compare(body, [5.0])

    def test_induction_variable_used_after_loop(self):
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := x;\n"
            "    for i := 0 to 9 do acc := acc + 1.0; end;\n"
            "    return acc + i;\n"
            "  end"
        )
        # i == 10 after the loop in both compilations.
        src = echo_module(body, 1)
        result = compile_and_run(src, [0.0], opt_level=2)
        assert result.output_floats() == [20.0]

    def test_loop_with_io_pipelined_correctly(self):
        src = """
module t
section s (cells 0..0)
  function main()
  var k: int; v: float;
  begin
    for k := 0 to 9 do
      receive(v);
      send(v * 2.0 + 1.0);
    end;
  end
end
end
"""
        inputs = [float(i) for i in range(10)]
        plain = compile_and_run(src, inputs, opt_level=1)
        pipelined = compile_and_run(src, inputs, opt_level=2)
        assert plain.output_floats() == pipelined.output_floats()
        assert plain.output_floats() == [2.0 * i + 1.0 for i in range(10)]

    def test_negative_step_loop(self):
        body = (
            "  var i: int; acc: float; a: array[16] of float;\n"
            "  begin\n"
            "    for i := 0 to 15 do a[i] := x + i; end;\n"
            "    acc := 0.0;\n"
            "    for i := 15 to 0 by -1 do acc := acc + a[i]; end;\n"
            "    return acc;\n"
            "  end"
        )
        self._compare(body, [4.0])
