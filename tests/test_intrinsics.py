"""Hardware intrinsics: abs, sqrt, min, max."""

import math

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.warpsim.cell_state import SimulationError

from helpers import compile_and_run, echo_module, sema_errors, single_function_ir, wrap_function


class TestSemantics:
    def _f(self, expr: str, inputs):
        body = f"  begin return {expr}; end"
        return compile_and_run(echo_module(body, len(inputs)), inputs).output_floats()

    def test_abs_float(self):
        assert self._f("abs(x)", [-3.5, 2.0]) == [3.5, 2.0]

    def test_sqrt(self):
        out = self._f("sqrt(x)", [9.0, 2.0])
        assert out[0] == 3.0
        assert out[1] == math.sqrt(2.0)

    def test_sqrt_of_int_widens(self):
        body = (
            "  var n: int;\n"
            "  begin n := 16; return sqrt(n) + x; end"
        )
        out = compile_and_run(echo_module(body, 1), [0.5]).output_floats()
        assert out == [4.5]

    def test_min_max_float(self):
        assert self._f("min(x, 2.0) + max(x, 10.0)", [5.0]) == [12.0]

    def test_min_max_int(self):
        body = (
            "  var a, b: int;\n"
            "  begin a := -3; b := 7; return min(a, b) * 100 + max(a, b); end"
        )
        out = compile_and_run(echo_module(body, 1), [0.0]).output_floats()
        assert out == [-293.0]

    def test_abs_int(self):
        body = (
            "  var n: int;\n"
            "  begin n := -9; return abs(n) + x; end"
        )
        assert compile_and_run(echo_module(body, 1), [0.5]).output_floats() == [9.5]

    def test_nested_intrinsics(self):
        assert self._f("sqrt(abs(min(x, -16.0)))", [-4.0]) == [4.0]

    def test_sqrt_negative_traps(self):
        with pytest.raises(SimulationError, match="arithmetic trap"):
            self._f("sqrt(x)", [-1.0])

    def test_intrinsics_inside_pipelined_loop(self):
        body = (
            "  var i: int; acc: float; a: array[16] of float;\n"
            "  begin\n"
            "    for i := 0 to 15 do a[i] := abs(x - i); end;\n"
            "    acc := 0.0;\n"
            "    for i := 0 to 15 do acc := acc + min(a[i], 4.0); end;\n"
            "    return acc;\n"
            "  end"
        )
        src = echo_module(body, 1)
        expected = sum(min(abs(8.0 - i), 4.0) for i in range(16))
        for level in (0, 1, 2):
            out = compile_and_run(src, [8.0], opt_level=level).output_floats()
            assert out == [expected]


class TestSemaChecks:
    def test_arity_checked(self):
        errs = sema_errors(
            wrap_function("function f(x: float) : float begin return min(x); end")
        )
        assert any("takes 2 argument" in e for e in errs)

    def test_redefining_intrinsic_rejected(self):
        errs = sema_errors(
            wrap_function("function sqrt(x: float) : float begin return x; end")
        )
        assert any("redefines a hardware intrinsic" in e for e in errs)

    def test_sqrt_returns_float(self):
        errs = sema_errors(
            wrap_function(
                "function f()\nvar n: int;\nbegin n := sqrt(4.0); end"
            )
        )
        assert any("cannot assign float to int" in e for e in errs)

    def test_abs_preserves_int_type(self):
        errs = sema_errors(
            wrap_function(
                "function f()\nvar n: int;\nbegin n := abs(-3); end"
            )
        )
        assert errs == []


class TestCompilerIntegration:
    def test_constant_folding(self):
        from repro.opt.pass_manager import PassManager
        from repro.ir.values import Const

        fn = single_function_ir(
            wrap_function(
                "function f() : float begin return sqrt(16.0) + abs(-2.0) "
                "+ min(1.0, 2.0) + max(3.0, 4.0); end"
            )
        )
        PassManager(2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert rets[0].operands[0] == Const(4.0 + 2.0 + 1.0 + 4.0, "f")

    def test_sqrt_negative_not_folded(self):
        from repro.opt.fold import fold_constants

        fn = single_function_ir(
            wrap_function("function f() : float begin return sqrt(-1.0); end")
        )
        fold_constants(fn, Cfg(fn))
        assert Opcode.SQRT in [i.op for i in fn.all_instructions()]

    def test_sqrt_issues_on_multiplier_unit(self):
        from repro.machine.resources import FUClass
        from repro.machine.warp_cell import WarpCellModel

        spec = WarpCellModel().spec_for(Opcode.SQRT, "f")
        assert spec.fu is FUClass.FMUL
        assert spec.latency > 5

    def test_sqrt_not_hoisted_by_licm(self):
        """sqrt traps on negatives: LICM must not speculate it."""
        from repro.opt.licm import hoist_loop_invariants

        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 3 do acc := acc + sqrt(x); end; "
                "return acc; end"
            )
        )
        hoist_loop_invariants(fn, Cfg(fn))
        nest = Cfg(fn).loops
        loop_ops = [
            i.op
            for name in nest.all_loops()[0].blocks
            for i in fn.block_named(name).instructions
        ]
        assert Opcode.SQRT in loop_ops

    def test_min_max_hoisted_by_licm(self):
        from repro.opt.licm import hoist_loop_invariants

        fn = single_function_ir(
            wrap_function(
                "function f(x: float, y: float) : float\n"
                "var i: int; acc: float;\n"
                "begin for i := 0 to 3 do acc := acc + min(x, y); end; "
                "return acc; end"
            )
        )
        assert hoist_loop_invariants(fn, Cfg(fn)) >= 1
