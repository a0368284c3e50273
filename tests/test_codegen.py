"""Code generation: register allocation, list scheduling, selection."""

import pytest

from repro.asmlink.objformat import Bundle
from repro.codegen.compiler import compile_function, replace_int_registers
from repro.codegen.regalloc import (
    RegisterPressureError,
    allocate_registers,
)
from repro.codegen.schedule import schedule_block
from repro.codegen.select import select_function
from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.machine.resources import FUClass, PhysReg
from repro.machine.warp_cell import WarpCellModel

from helpers import single_function_ir, wrap_function


SIMPLE = wrap_function(
    "function f(x: float, y: float) : float\n"
    "var a, b: float;\n"
    "begin a := x * y; b := x + y; return a - b; end"
)


def compiled(src: str, cell=None, opt_level: int = 2):
    fn = single_function_ir(src)
    return compile_function(fn, cell or WarpCellModel(), opt_level=opt_level)


class TestRegisterAllocation:
    def test_distinct_live_values_get_distinct_registers(self):
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        a_regs = set()
        for instr in fn.all_instructions():
            if instr.dest is not None:
                a_regs.add(allocation.reg_for(instr.dest))
        # a and b are simultaneously live -> different registers.
        assert len(a_regs) >= 2

    def test_banks_respected(self):
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        for vreg, preg in allocation.assignment.items():
            assert vreg.type == preg.bank

    def test_register_indices_within_bank(self):
        cell = WarpCellModel(int_registers=8, float_registers=8)
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, cell, Cfg(fn))
        for preg in allocation.assignment.values():
            assert 0 <= preg.index < 8

    def test_spilling_under_pressure(self):
        # 12 simultaneously live floats in a 6-register bank forces spills.
        decls = ", ".join(f"v{i}" for i in range(12))
        assigns = "\n".join(f"v{i} := x + {float(i)};" for i in range(12))
        total = " + ".join(f"v{i}" for i in range(12))
        src = wrap_function(
            f"function f(x: float) : float\nvar {decls}: float;\n"
            f"begin\n{assigns}\nreturn {total};\nend"
        )
        cell = WarpCellModel(int_registers=8, float_registers=6)
        fn = single_function_ir(src)
        allocation = allocate_registers(fn, cell, Cfg(fn))
        assert allocation.spill_slots > 0
        # Spilled code references the scratch frame arrays.
        assert any(a.name.startswith("<spill.") for a in fn.arrays)

    def test_impossible_pressure_raises(self):
        decls = ", ".join(f"v{i}" for i in range(8))
        assigns = "\n".join(f"v{i} := x + {float(i)};" for i in range(8))
        total = " + ".join(f"v{i}" for i in range(8))
        src = wrap_function(
            f"function f(x: float) : float\nvar {decls}: float;\n"
            f"begin\n{assigns}\nreturn {total};\nend"
        )
        cell = WarpCellModel(int_registers=4, float_registers=1)
        fn = single_function_ir(src)
        with pytest.raises(RegisterPressureError):
            allocate_registers(fn, cell, Cfg(fn), max_rounds=3)


class TestSelection:
    def test_one_machine_op_per_ir_instruction(self):
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        for sel, block in zip(selected, fn.blocks):
            assert len(sel.ops) == len(block.instructions)

    def test_functional_units_assigned_by_type(self):
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        ops = {op.op: op for sel in selected for op in sel.ops}
        assert ops[Opcode.MUL].fu is FUClass.FMUL
        assert ops[Opcode.ADD].fu is FUClass.FALU
        assert ops[Opcode.RET].fu is FUClass.SEQ

    def test_float_compare_routes_to_falu(self):
        src = wrap_function(
            "function f(x: float) : int begin return x < 2.0; end"
        )
        fn = single_function_ir(src)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        compares = [
            op for sel in selected for op in sel.ops if op.op is Opcode.CLT
        ]
        assert compares[0].fu is FUClass.FALU

    def test_int_compare_routes_to_ialu(self):
        src = wrap_function(
            "function f(n: int) : int begin return n < 2; end"
        )
        fn = single_function_ir(src)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        compares = [
            op for sel in selected for op in sel.ops if op.op is Opcode.CLT
        ]
        assert compares[0].fu is FUClass.IALU


class TestListScheduling:
    def _schedule(self, src: str):
        fn = single_function_ir(src)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        return [schedule_block(sel) for sel in selected]

    def test_every_op_scheduled_exactly_once(self):
        fn = single_function_ir(SIMPLE)
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        selected = select_function(fn, allocation, WarpCellModel())
        for sel in selected:
            result = schedule_block(sel)
            scheduled = [
                op for bundle in result.block.bundles for op in bundle.all_ops()
            ]
            assert len(scheduled) == len(sel.ops)

    def test_one_op_per_fu_per_cycle(self):
        for result in self._schedule(SIMPLE):
            for bundle in result.block.bundles:
                fus = [op.fu for op in bundle.all_ops()]
                assert len(fus) == len(set(fus))

    def test_independent_ops_packed_together(self):
        # x*y (FMUL) and x+y (FALU) are independent: same cycle.
        results = self._schedule(SIMPLE)
        block = results[0].block
        first = block.bundles[0]
        assert first.occupied(FUClass.FMUL)
        assert first.occupied(FUClass.FALU)

    def test_raw_latency_respected(self):
        src = wrap_function(
            "function f(x: float) : float\nvar a: float;\n"
            "begin a := x + 1.0; return a * 2.0; end"
        )
        results = self._schedule(src)
        block = results[0].block
        add_cycle = mul_cycle = None
        for cycle, bundle in enumerate(block.bundles):
            for op in bundle.all_ops():
                if op.op is Opcode.ADD:
                    add_cycle = cycle
                if op.op is Opcode.MUL:
                    mul_cycle = cycle
        falu_latency = WarpCellModel().spec_for(Opcode.ADD, "f").latency
        assert mul_cycle - add_cycle >= falu_latency

    def test_terminator_in_last_bundle(self):
        for result in self._schedule(SIMPLE):
            last = result.block.bundles[-1]
            assert any(
                op.op in (Opcode.RET, Opcode.JMP, Opcode.BR)
                for op in last.all_ops()
            )

    def test_drain_before_terminator(self):
        """Every result lands no later than the terminator bundle ends."""
        for result in self._schedule(SIMPLE):
            bundles = result.block.bundles
            end = len(bundles)  # terminator in bundle end-1
            for cycle, bundle in enumerate(bundles):
                for op in bundle.all_ops():
                    if op.dest is not None:
                        assert cycle + op.latency <= end

    def test_io_program_order_preserved(self):
        src = wrap_function(
            "function f()\nvar x: float;\n"
            "begin receive(x); send(x); receive(x); send(x); end"
        )
        results = self._schedule(src)
        io_ops = []
        for result in results:
            for cycle, bundle in enumerate(result.block.bundles):
                for op in bundle.all_ops():
                    if op.op in (Opcode.SEND, Opcode.RECV):
                        io_ops.append(op.op)
        assert io_ops == [Opcode.RECV, Opcode.SEND, Opcode.RECV, Opcode.SEND]


class TestCompileFunction:
    def test_produces_object_function(self):
        obj = compiled(SIMPLE)
        assert obj.name == "f"
        assert obj.section_name == "s"
        assert obj.return_bank == "f"
        assert len(obj.param_regs) == 2
        assert obj.bundle_count() > 0

    def test_reserved_scratch_registers_untouched(self):
        cell = WarpCellModel()
        obj = compiled(SIMPLE, cell)
        reserved = {
            PhysReg("i", cell.int_registers - 1),
            PhysReg("i", cell.int_registers - 2),
        }
        for block in obj.blocks:
            for bundle in block.bundles:
                for op in bundle.all_ops():
                    # Only pipeliner-emitted blocks may touch scratch.
                    if not block.label.endswith((".pl.guard", ".pl.kernel")):
                        assert op.dest not in reserved

    def test_opt_level_zero_compiles(self):
        obj = compiled(SIMPLE, opt_level=0)
        assert obj.bundle_count() > 0

    def test_higher_opt_not_larger(self):
        o0 = compiled(SIMPLE, opt_level=0)
        o2 = compiled(SIMPLE, opt_level=2)
        assert o2.bundle_count() <= o0.bundle_count()

    def test_work_units_accounted(self):
        obj = compiled(SIMPLE)
        assert obj.info.work_units > 0
        assert obj.info.schedule_cycles == obj.bundle_count()

    def test_replace_int_registers(self):
        cell = WarpCellModel()
        smaller = replace_int_registers(cell, 10)
        assert smaller.int_registers == 10
        assert smaller.float_registers == cell.float_registers
