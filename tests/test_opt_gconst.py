"""Global constant propagation across blocks, branches, and loops."""

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.ir.values import Const, IR_INT
from repro.opt.gconst import propagate_constants_globally
from repro.opt.pass_manager import PassManager

from helpers import compile_and_run, echo_module, single_function_ir, wrap_function


def ops_of(fn):
    return [i.op for i in fn.all_instructions()]


class TestCrossBlockPropagation:
    def test_constant_flows_through_branch_join(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar k: int;\nbegin\n"
                "k := 7;\n"
                "if n > 0 then n := n + 1; else n := n - 1; end;\n"
                "return k;\nend"
            )
        )
        PassManager(2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert rets[0].operands[0] == Const(7, IR_INT)

    def test_agreeing_arms_propagate(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar k: int;\nbegin\n"
                "if n > 0 then k := 5; else k := 5; end;\n"
                "return k;\nend"
            )
        )
        PassManager(2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert rets[0].operands[0] == Const(5, IR_INT)

    def test_disagreeing_arms_do_not_propagate(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar k: int;\nbegin\n"
                "if n > 0 then k := 5; else k := 6; end;\n"
                "return k;\nend"
            )
        )
        PassManager(2).run(fn, Cfg(fn))
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert not isinstance(rets[0].operands[0], Const)

    def test_loop_redefined_value_varies(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar i, k: int;\nbegin\n"
                "k := 1;\n"
                "for i := 0 to n do k := k * 2; end;\n"
                "return k;\nend"
            )
        )
        propagate_constants_globally(fn, Cfg(fn))
        # k varies around the loop; the return must still read a register.
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert not isinstance(rets[0].operands[0], Const)

    def test_loop_invariant_constant_propagates_into_body(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar i, k, acc: int;\nbegin\n"
                "k := 3;\n"
                "for i := 0 to n do acc := acc + k; end;\n"
                "return acc;\nend"
            )
        )
        changes = propagate_constants_globally(fn, Cfg(fn))
        assert changes >= 1
        body = fn.block_named("for.body")
        adds = [i for i in body.instructions if i.op is Opcode.ADD]
        assert any(
            Const(3, IR_INT) in a.operands for a in adds
        )

    def test_whole_branch_deleted_when_condition_constant(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : int\nvar k: int;\nbegin\n"
                "k := 2;\n"
                "if k > 10 then return 1; end;\n"
                "return 0;\nend"
            )
        )
        PassManager(2).run(fn, Cfg(fn))
        assert Opcode.BR not in ops_of(fn)
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert len(rets) == 1
        assert rets[0].operands[0] == Const(0, IR_INT)


class TestSemanticsPreserved:
    def test_end_to_end_with_constants_through_control_flow(self):
        body = (
            "  var k: int; scale: float;\n"
            "  begin\n"
            "    k := 4;\n"
            "    if x > 0.0 then scale := 2.0; else scale := 2.0; end;\n"
            "    return x * scale + k;\n"
            "  end"
        )
        src = echo_module(body, 3)
        for level in (0, 1, 2):
            out = compile_and_run(src, [1.0, -1.0, 0.5], opt_level=level)
            assert out.output_floats() == [6.0, 2.0, 5.0]
