"""Inlining and unrolling transforms — correctness via the simulator."""

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.opt.inline import inline_calls_in_function, inline_calls_in_module
from repro.opt.unroll import unroll_constant_loops

from helpers import compile_and_run, echo_module, lower_ok, single_function_ir, wrap_function


class TestInlining:
    def _module_ir(self):
        return lower_ok(
            wrap_function(
                "function add1(x: float) : float begin return x + 1.0; end\n"
                "function f(x: float) : float\n"
                "begin return add1(add1(x)); end"
            )
        )

    def test_call_sites_inlined(self):
        ir = self._module_ir()
        count = inline_calls_in_module(ir, threshold=60)
        assert count == 2
        f = ir.function_named("s", "f")
        assert all(i.op is not Opcode.CALL for i in f.all_instructions())

    def test_inlined_ir_validates(self):
        ir = self._module_ir()
        inline_calls_in_module(ir)
        for fn in ir.all_functions():
            fn.validate()

    def test_threshold_respected(self):
        ir = self._module_ir()
        count = inline_calls_in_module(ir, threshold=1)
        assert count == 0

    def test_callee_arrays_rehomed(self):
        ir = lower_ok(
            wrap_function(
                "function g(x: float) : float\n"
                "var t: array[4] of float;\n"
                "begin t[0] := x; return t[0]; end\n"
                "function f(x: float) : float\n"
                "var mine: array[2] of float;\n"
                "begin mine[0] := x; return g(mine[0]); end"
            )
        )
        inline_calls_in_module(ir)
        f = ir.function_named("s", "f")
        names = [a.name for a in f.arrays]
        assert "mine" in names
        assert any(name.startswith("g.t") for name in names)
        # Offsets must not overlap.
        spans = sorted((a.offset, a.offset + a.length) for a in f.arrays)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_void_callee_inlined(self):
        ir = lower_ok(
            wrap_function(
                "function g() begin send(1.0); end\n"
                "function f() begin g(); g(); end"
            )
        )
        count = inline_calls_in_module(ir)
        assert count == 2
        f = ir.function_named("s", "f")
        sends = [i for i in f.all_instructions() if i.op is Opcode.SEND]
        assert len(sends) == 2

    def test_nested_chain_inlines_bottom_up(self):
        ir = lower_ok(
            wrap_function(
                "function a(x: float) : float begin return x + 1.0; end\n"
                "function b(x: float) : float begin return a(x) * 2.0; end\n"
                "function f(x: float) : float begin return b(x); end"
            )
        )
        inline_calls_in_module(ir)
        f = ir.function_named("s", "f")
        b = ir.function_named("s", "b")
        assert all(i.op is not Opcode.CALL for i in f.all_instructions())
        assert all(i.op is not Opcode.CALL for i in b.all_instructions())

    def test_inlined_semantics_preserved(self):
        """Compile with and without inlining; the simulator must agree."""
        body = (
            "  var t: float;\n"
            "  begin\n"
            "    t := x * 3.0;\n"
            "    return t + 1.0;\n"
            "  end"
        )
        src = echo_module(body, 3)
        baseline = compile_and_run(src, [1.0, 2.0, 3.0])
        assert baseline.output_floats() == [4.0, 7.0, 10.0]


class TestUnrolling:
    def test_constant_loop_fully_unrolled(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 3 do acc := acc + 2.0; end; "
                "return acc; end"
            )
        )
        count = unroll_constant_loops(fn)
        assert count == 1
        assert Cfg(fn).loops.all_loops() == []

    def test_unrolled_code_grows(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 7 do acc := acc + 2.0; end; "
                "return acc; end"
            )
        )
        before = fn.instruction_count()
        unroll_constant_loops(fn)
        assert fn.instruction_count() > before

    def test_trip_count_limit_respected(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 200 do acc := acc + 2.0; end; "
                "return acc; end"
            )
        )
        assert unroll_constant_loops(fn, max_trip=64) == 0

    def test_runtime_bound_not_unrolled(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to n do acc := acc + 2.0; end; "
                "return acc; end"
            )
        )
        assert unroll_constant_loops(fn) == 0

    def test_downward_loop_unrolled(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 6 to 0 by -2 do acc := acc + 1.0; end; "
                "return acc; end"
            )
        )
        assert unroll_constant_loops(fn) == 1

    def test_unrolled_constant_folds_to_value(self):
        from repro.opt.pass_manager import PassManager
        from repro.ir.values import Const

        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 3 do acc := acc + 2.0; end; "
                "return acc; end"
            )
        )
        unroll_constant_loops(fn)
        PassManager(opt_level=2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert rets[0].operands[0] == Const(8.0, "f")

    def test_induction_variable_final_value(self):
        """After a Pascal for, the variable holds the first out-of-range
        value — unrolling must preserve that."""
        from repro.opt.pass_manager import PassManager
        from repro.ir.values import Const

        fn = single_function_ir(
            wrap_function(
                "function f() : int\nvar i: int; x: float;\n"
                "begin for i := 0 to 5 do x := x + 1.0; end; return i; end"
            )
        )
        unroll_constant_loops(fn)
        PassManager(opt_level=2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert rets[0].operands[0] == Const(6, "i")
