"""Corner cases across modules: CFG simplification guards, queue-pressure
execution, DES partial runs, phase-4 error paths, stats plumbing."""

import pytest

from repro import CompileOptions
from repro.asmlink.download import build_download_module
from repro.asmlink.iodriver import build_io_driver
from repro.cluster.events import Simulator
from repro.codegen.schedule import schedule_block
from repro.codegen.select import SelectedBlock
from repro.ir.builder import IRBuilder
from repro.ir.cfg import Cfg, FunctionIR
from repro.ir.printer import print_module
from repro.ir.values import IR_INT
from repro.machine.warp_array import WarpArrayModel
from repro.machine.warp_cell import WarpCellModel
from repro.opt.pass_manager import PassStats
from repro.opt.simplify import simplify_control_flow
from repro.driver.sequential import SequentialCompiler
from repro.warpsim.array_runner import run_module

from helpers import lower_ok, wrap_function


class TestSimplifyGuards:
    def test_empty_infinite_jump_loop_left_alone(self):
        fn = FunctionIR(name="spin", section_name="s")
        b = IRBuilder(fn)
        entry = b.new_block("entry")
        spin = b.new_block("spin")
        b.set_block(entry)
        b.jmp(spin)
        b.set_block(spin)
        b.jmp(spin)  # empty infinite loop: threading must not recurse
        fn.validate()
        simplify_control_flow(fn, Cfg(fn))
        fn.validate()
        assert any(block.name == "spin" for block in fn.blocks)

    def test_branch_with_equal_targets_becomes_jump(self):
        from repro.ir.instructions import Opcode

        fn = FunctionIR(name="t", section_name="s")
        b = IRBuilder(fn)
        entry = b.new_block("entry")
        target = b.new_block("target")
        b.set_block(entry)
        cond = b.li(1, IR_INT)
        b.br(cond, target, target)
        b.set_block(target)
        b.ret()
        simplify_control_flow(fn, Cfg(fn))
        assert fn.blocks[0].terminator.op is not Opcode.BR


class TestSchedulerEdges:
    def test_empty_block_schedules_to_zero_bundles(self):
        result = schedule_block(SelectedBlock(label="empty", ops=[]))
        assert result.block.bundles == []
        assert result.work_units == 0


class TestQueuePressure:
    def test_tiny_queue_capacity_still_correct(self):
        """With capacity-1 queues the producer stalls but nothing is lost."""
        source = """
module backpressure
section s (cells 0..1)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 6 do receive(v); send(v + 1.0); end;
  end
end
end
"""
        cell = WarpCellModel(queue_capacity=1)
        array = WarpArrayModel(cell_count=2, cell=cell)
        result = SequentialCompiler(CompileOptions(cell_count=2)).compile(source)
        outcome = run_module(result.download, [float(i) for i in range(6)],
                             array=array)
        assert outcome.output_floats() == [float(i) + 2.0 for i in range(6)]
        assert any(
            stats.stall_cycles > 0 for stats in outcome.cell_stats.values()
        )

    def test_leftover_input_reported(self):
        source = """
module eats_two
section s (cells 0..0)
  function main()
  var v: float;
  begin receive(v); receive(v); send(v); end
end
end
"""
        result = SequentialCompiler().compile(source)
        outcome = run_module(result.download, [1.0, 2.0, 3.0, 4.0])
        assert outcome.outputs == [2.0]
        assert outcome.leftover_input == 2


class TestSimulatorPartialRun:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1, 2]


class TestPhase4Errors:
    def test_io_driver_requires_cells(self):
        with pytest.raises(ValueError):
            build_io_driver({})

    def test_download_missing_section_program(self):
        with pytest.raises(KeyError, match="no linked program"):
            build_download_module("m", {"s": (0, 0)}, {})


class TestPrinterAndStats:
    def test_print_module_lists_sections_and_functions(self):
        ir = lower_ok(
            wrap_function(
                "function f(x: float) : float begin return x; end\n"
                "function g() begin end"
            )
        )
        text = print_module(ir)
        assert "module m" in text
        assert "func s.f" in text
        assert "func s.g" in text
        assert "cells 0..0" in text

    def test_pass_stats_merge(self):
        a, b = PassStats(), PassStats()
        a.record("p", changed=2, visited=10)
        b.record("p", changed=3, visited=20)
        b.record("q", changed=1, visited=5)
        b.rounds = 2
        a.merge(b)
        assert a.changes["p"] == 5
        assert a.instructions_visited == {"p": 30, "q": 5}
        assert a.rounds == 2
        assert a.total_changes == 6
