"""Warp array simulator: language semantics end-to-end.

These tests are the compiler's oracle: compile a program, run it on the
simulated array, and compare against direct Python evaluation of the
source semantics.
"""

import pytest

from repro.asmlink.objformat import (
    AssembledFunction,
    Bundle,
    CellProgram,
    DownloadModule,
    MachineOp,
)
from repro.ir.instructions import Opcode
from repro.machine.resources import FUClass, PhysReg
from repro.machine.warp_array import WarpArrayModel
from repro.warpsim.array_runner import run_module
from repro.warpsim.cell_state import SimulationError
from repro.warpsim.queues import CellQueue

from helpers import compile_and_run, echo_module


class TestQueues:
    def test_fifo_order(self):
        q = CellQueue(4)
        for v in (1, 2, 3):
            q.push(v)
        assert [q.pop(), q.pop(), q.pop()] == [1, 2, 3]

    def test_capacity_enforced(self):
        q = CellQueue(1)
        q.push(1)
        assert q.is_full
        with pytest.raises(OverflowError):
            q.push(2)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            CellQueue(1).pop()

    def test_counters(self):
        q = CellQueue(4)
        q.push(1)
        q.push(2)
        q.pop()
        assert q.total_pushed == 2
        assert q.total_popped == 1


class TestScalarSemantics:
    def _f(self, body: str, inputs):
        return compile_and_run(echo_module(body, len(inputs)), inputs).output_floats()

    def test_arithmetic(self):
        out = self._f("begin return (x + 3.0) * 2.0 - 1.0; end", [1.0, 5.0])
        assert out == [7.0, 15.0]

    def test_division(self):
        out = self._f("begin return x / 4.0; end", [10.0])
        assert out == [2.5]

    def test_unary_minus(self):
        out = self._f("begin return -x; end", [3.5, -2.0])
        assert out == [-3.5, 2.0]

    def test_conditionals(self):
        body = (
            "  begin\n"
            "    if x > 0.0 then return 1.0; else return -1.0; end;\n"
            "  end"
        )
        assert self._f(body, [5.0, -5.0, 0.0]) == [1.0, -1.0, -1.0]

    def test_logical_operators(self):
        body = (
            "  var a, b: int;\n"
            "  begin\n"
            "    a := x > 1.0;\n"
            "    b := x < 3.0;\n"
            "    if a and b then return 1.0; end;\n"
            "    if a or b then return 2.0; end;\n"
            "    return 0.0;\n"
            "  end"
        )
        assert self._f(body, [2.0, 4.0]) == [1.0, 2.0]

    def test_while_loop(self):
        body = (
            "  var n: int; acc: float;\n"
            "  begin\n"
            "    n := 5;\n"
            "    acc := x;\n"
            "    while n > 0 do acc := acc * 2.0; n := n - 1; end;\n"
            "    return acc;\n"
            "  end"
        )
        assert self._f(body, [1.0]) == [32.0]

    def test_integer_truncated_division_and_mod(self):
        body = (
            "  var n: int;\n"
            "  begin\n"
            "    n := -7;\n"
            "    return (n / 2) * 100 + n % 2;\n"
            "  end"
        )
        # trunc(-7/2) = -3, -7 % 2 = -1 (C semantics)
        assert self._f(body, [0.0]) == [-301.0]

    def test_int_to_float_widening(self):
        body = (
            "  var n: int;\n"
            "  begin n := 3; return x + n; end"
        )
        assert self._f(body, [0.5]) == [3.5]


class TestArraysAndLoops:
    def _f(self, body: str, inputs):
        return compile_and_run(echo_module(body, len(inputs)), inputs).output_floats()

    def test_array_store_load(self):
        body = (
            "  var a: array[4] of float;\n"
            "  begin a[2] := x * 10.0; return a[2]; end"
        )
        assert self._f(body, [1.5]) == [15.0]

    def test_array_sum(self):
        body = (
            "  var a: array[8] of float; i: int; acc: float;\n"
            "  begin\n"
            "    for i := 0 to 7 do a[i] := i; end;\n"
            "    acc := 0.0;\n"
            "    for i := 0 to 7 do acc := acc + a[i]; end;\n"
            "    return acc + x;\n"
            "  end"
        )
        assert self._f(body, [0.0]) == [28.0]

    def test_nested_loop_matrix_flavor(self):
        body = (
            "  var i, j: int; acc: float;\n"
            "  begin\n"
            "    acc := 0.0;\n"
            "    for i := 1 to 3 do\n"
            "      for j := 1 to 3 do\n"
            "        acc := acc + i * j;\n"
            "      end;\n"
            "    end;\n"
            "    return acc;\n"
            "  end"
        )
        assert self._f(body, [0.0]) == [36.0]

    def test_loop_with_step(self):
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := 0.0;\n"
            "    for i := 0 to 10 by 3 do acc := acc + i; end;\n"
            "    return acc;\n"
            "  end"
        )
        assert self._f(body, [0.0]) == [0.0 + 3 + 6 + 9]

    def test_empty_loop_body_not_entered(self):
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := 7.0;\n"
            "    for i := 5 to 2 do acc := 0.0; end;\n"
            "    return acc;\n"
            "  end"
        )
        assert self._f(body, [0.0]) == [7.0]


class TestCalls:
    def test_call_with_return_value(self):
        src = """
module t
section s (cells 0..0)
  function square(v: float) : float begin return v * v; end
  function main()
  var x: float;
  begin receive(x); send(square(x) + square(x + 1.0)); end
end
end
"""
        out = compile_and_run(src, [2.0]).output_floats()
        assert out == [4.0 + 9.0]

    def test_callee_does_not_clobber_caller_registers(self):
        src = """
module t
section s (cells 0..0)
  function noisy(v: float) : float
  var a, b, c, d: float;
  begin
    a := v * 2.0; b := a + 1.0; c := b * 3.0; d := c - a;
    return d;
  end
  function main()
  var x, keep: float;
  begin
    receive(x);
    keep := x * 100.0;
    send(noisy(x) + keep);
  end
end
end
"""
        # noisy(2) = ((2*2)+1)*3 - 4 = 11; keep = 200
        out = compile_and_run(src, [2.0]).output_floats()
        assert out == [211.0]

    def test_call_chain(self):
        src = """
module t
section s (cells 0..0)
  function inc(v: float) : float begin return v + 1.0; end
  function twice(v: float) : float begin return inc(inc(v)); end
  function main()
  var x: float;
  begin receive(x); send(twice(x)); end
end
end
"""
        assert compile_and_run(src, [5.0]).output_floats() == [7.0]


class TestMultiCell:
    def test_two_cell_pipeline_applies_twice(self):
        src = """
module t
section s (cells 0..1)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do
      receive(v);
      send(v * 2.0);
    end;
  end
end
end
"""
        out = compile_and_run(src, [1.0, 2.0, 3.0]).output_floats()
        assert out == [4.0, 8.0, 12.0]

    def test_two_sections_different_programs(self):
        src = """
module t
section first (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 2 do receive(v); send(v + 10.0); end;
  end
end
section second (cells 1..1)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 2 do receive(v); send(v * 3.0); end;
  end
end
end
"""
        out = compile_and_run(src, [1.0, 2.0]).output_floats()
        assert out == [33.0, 36.0]

    def test_cell_reduces_stream(self):
        """Cell consumes 4 inputs, emits 1: systolic reduction."""
        src = """
module t
section s (cells 0..0)
  function main()
  var v, acc: float; k: int;
  begin
    acc := 0.0;
    for k := 1 to 4 do receive(v); acc := acc + v; end;
    send(acc);
  end
end
end
"""
        out = compile_and_run(src, [1.0, 2.0, 3.0, 4.0]).output_floats()
        assert out == [10.0]


class TestTraps:
    def test_deadlock_detected(self):
        src = """
module t
section s (cells 0..0)
  function main()
  var v: float;
  begin receive(v); receive(v); send(v); end
end
end
"""
        with pytest.raises(SimulationError, match="deadlock"):
            compile_and_run(src, [1.0])  # second receive starves

    def test_division_by_zero_traps(self):
        src = """
module t
section s (cells 0..0)
  function main()
  var v: float;
  begin receive(v); send(v / (v - v)); end
end
end
"""
        with pytest.raises(SimulationError, match="arithmetic trap"):
            compile_and_run(src, [1.0])

    def test_cycle_limit(self):
        src = """
module t
section s (cells 0..0)
  function main()
  var n: int;
  begin
    n := 1;
    while n > 0 do n := 1; end;
  end
end
end
"""
        with pytest.raises(SimulationError, match="did not finish"):
            compile_and_run(src, [], max_cycles=2000)

    def test_stats_collected(self):
        result = compile_and_run(
            echo_module("  begin return x; end", 1), [1.0]
        )
        stats = result.cell_stats[0]
        assert stats.bundles_executed > 0


INF = float("inf")
R0, F0 = PhysReg("i", 0), PhysReg("f", 0)


def _op(opcode, dest=None, operands=()):
    """``LI`` on the integer ALU, ``CALL`` (of ``f``) and ``RET`` on the
    sequencer."""
    fu = FUClass.IALU if opcode == Opcode.LI else FUClass.SEQ
    callee = "f" if opcode == Opcode.CALL else None
    return MachineOp(
        op=opcode, fu=fu, latency=1, dest=dest, operands=operands,
        callee=callee,
    )


def _run_main_and_f(main, f, f_params):
    """A one-cell module of ``main`` and ``f``, one op a bundle."""

    def function(name, ops, params=()):
        bundles = []
        for op in ops:
            bundles.append(Bundle())
            bundles[-1].add(op)
        return AssembledFunction(
            name=name, section_name="s", bundles=bundles,
            param_regs=list(params),
        )

    program = CellProgram(
        section_name="s",
        functions={
            "main": function("main", main),
            "f": function("f", f, f_params),
        },
        entry="main",
        frame_bases={"main": 0, "f": 16},
        data_words=32,
    )
    module = DownloadModule(module_name="t", cell_programs={0: program})
    return run_module(module, [], array=WarpArrayModel(cell_count=1))


class TestUnconvertibleValues:
    """A value its register cannot hold (``inf`` into an ``int``) traps
    wherever it is converted: write-back, a call's parameters, a
    return value."""

    def test_write_back(self):
        src = """
module t
section s (cells 0..0)
  function main()
  var n: int;
  begin receive(n); send(n); end
end
end
"""
        with pytest.raises(
            SimulationError,
            match="cannot convert float infinity to integer in 'main'",
        ):
            compile_and_run(src, [INF])

    def test_call_parameter(self):
        with pytest.raises(
            SimulationError,
            match="cannot convert float infinity to integer in 'f'",
        ):
            _run_main_and_f(
                [
                    _op(Opcode.LI, F0, (INF,)),
                    _op(Opcode.CALL, operands=(F0,)),
                    _op(Opcode.RET),
                ],
                [_op(Opcode.RET)], (R0,),
            )

    def test_return_value(self):
        with pytest.raises(
            SimulationError,
            match="cannot convert float infinity to integer in 'f'",
        ):
            _run_main_and_f(
                [_op(Opcode.CALL, R0), _op(Opcode.RET)],
                [_op(Opcode.LI, F0, (INF,)), _op(Opcode.RET, operands=(F0,))],
                (),
            )
