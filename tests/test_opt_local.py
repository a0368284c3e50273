"""Local optimization passes: folding, copy propagation, CSE, DCE, CFG
simplification, and the pass manager."""

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Instr, Opcode
from repro.ir.values import Const, IR_FLOAT, IR_INT
from repro.opt.copyprop import propagate_copies
from repro.opt.cse import eliminate_common_subexpressions
from repro.opt.dce import eliminate_dead_code
from repro.opt.fold import fold_constants
from repro.opt.pass_manager import PassManager
from repro.opt.simplify import simplify_control_flow

from helpers import single_function_ir, wrap_function


def ops_of(fn):
    return [i.op for i in fn.all_instructions()]


def optimized(src: str, level: int = 2):
    fn = single_function_ir(src)
    stats = PassManager(opt_level=level).run(fn, Cfg(fn))
    return fn, stats


class TestConstantFolding:
    def test_folds_integer_arithmetic(self):
        fn, _ = optimized(
            wrap_function("function f() : int begin return 2 + 3 * 4; end")
        )
        ret = [i for i in fn.all_instructions() if i.op is Opcode.RET][0]
        assert ret.operands[0] == Const(14, IR_INT)

    def test_folds_float_arithmetic(self):
        fn, _ = optimized(
            wrap_function("function f() : float begin return 1.5 * 4.0; end")
        )
        ret = [i for i in fn.all_instructions() if i.op is Opcode.RET][0]
        assert ret.operands[0] == Const(6.0, IR_FLOAT)

    def test_multiply_by_one_removed(self):
        fn, _ = optimized(
            wrap_function(
                "function f(x: float) : float begin return x * 1.0; end"
            )
        )
        assert Opcode.MUL not in ops_of(fn)

    def test_add_zero_removed(self):
        fn, _ = optimized(
            wrap_function(
                "function f(n: int) : int begin return n + 0; end"
            )
        )
        assert Opcode.ADD not in ops_of(fn)

    def test_float_multiply_by_zero_not_folded(self):
        """0*x is unsound for floats (NaN, -0.0); must stay."""
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float begin return x * 0.0; end"
            )
        )
        fold_constants(fn, Cfg(fn))
        assert Opcode.MUL in ops_of(fn)

    def test_int_multiply_by_zero_folded(self):
        fn, _ = optimized(
            wrap_function("function f(n: int) : int begin return n * 0; end")
        )
        ret = [i for i in fn.all_instructions() if i.op is Opcode.RET][0]
        assert ret.operands[0] == Const(0, IR_INT)

    def test_division_by_zero_not_folded(self):
        fn = single_function_ir(
            wrap_function("function f() : int begin return 1 / 0; end")
        )
        fold_constants(fn, Cfg(fn))
        assert Opcode.DIV in ops_of(fn)

    def test_truncated_division_semantics(self):
        fn, _ = optimized(
            wrap_function("function f() : int begin return -7 / 2; end")
        )
        ret = [i for i in fn.all_instructions() if i.op is Opcode.RET][0]
        assert ret.operands[0] == Const(-3, IR_INT)  # trunc, not floor

    def test_comparison_folding(self):
        fn, _ = optimized(
            wrap_function("function f() : int begin return 3 < 5; end")
        )
        ret = [i for i in fn.all_instructions() if i.op is Opcode.RET][0]
        assert ret.operands[0] == Const(1, IR_INT)


class TestCopyPropagation:
    def test_propagates_through_local_copy(self):
        fn, _ = optimized(
            wrap_function(
                "function f(x: float) : float\nvar y: float;\n"
                "begin y := x; return y + y; end"
            )
        )
        adds = [i for i in fn.all_instructions() if i.op is Opcode.ADD]
        assert adds[0].operands[0] == adds[0].operands[1] == fn.param_regs[0]

    def test_self_moves_removed(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\nvar m: int;\n"
                "begin m := n; n := m; return n; end"
            )
        )
        propagate_copies(fn, Cfg(fn))
        for instr in fn.all_instructions():
            if instr.op is Opcode.MOV:
                assert instr.operands[0] != instr.dest

    def test_redefinition_invalidates_copy(self):
        fn, _ = optimized(
            wrap_function(
                "function f(n: int) : int\nvar m: int;\n"
                "begin m := n; n := n + 1; return m + n; end"
            )
        )
        # m must still be the OLD n: result = n + (n+1), checked by the
        # simulator tests; here we just check the pass converges validly.
        fn.validate()


class TestCSE:
    def test_repeated_expression_shared(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float, y: float) : float\nvar a, b: float;\n"
                "begin a := x * y; b := x * y; return a + b; end"
            )
        )
        before = len([i for i in fn.all_instructions() if i.op is Opcode.MUL])
        eliminate_common_subexpressions(fn, Cfg(fn))
        after = len([i for i in fn.all_instructions() if i.op is Opcode.MUL])
        assert before == 2 and after == 1

    def test_commutative_match(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float, y: float) : float\nvar a, b: float;\n"
                "begin a := x + y; b := y + x; return a + b; end"
            )
        )
        eliminate_common_subexpressions(fn, Cfg(fn))
        adds = [i for i in fn.all_instructions() if i.op is Opcode.ADD]
        # a+b must survive; one of x+y / y+x eliminated.
        assert len(adds) == 2

    def test_store_invalidates_loads_of_same_array(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar a: array[4] of int; x, y: int;\n"
                "begin x := a[0]; a[0] := 7; y := a[0]; x := x + y; end"
            )
        )
        loads_before = len(
            [i for i in fn.all_instructions() if i.op is Opcode.LOAD]
        )
        eliminate_common_subexpressions(fn, Cfg(fn))
        loads_after = len(
            [i for i in fn.all_instructions() if i.op is Opcode.LOAD]
        )
        assert loads_before == loads_after == 2

    def test_store_to_other_array_preserves_load(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar a: array[4] of int; b: array[4] of int; "
                "x, y: int;\n"
                "begin x := a[0]; b[0] := 7; y := a[0]; x := x + y; end"
            )
        )
        eliminate_common_subexpressions(fn, Cfg(fn))
        loads = [i for i in fn.all_instructions() if i.op is Opcode.LOAD]
        assert len(loads) == 1

    def test_self_referencing_computation_not_recorded(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int) : int\n"
                "begin n := n + 1; n := n + 1; return n; end"
            )
        )
        eliminate_common_subexpressions(fn, Cfg(fn))
        adds = [i for i in fn.all_instructions() if i.op is Opcode.ADD]
        assert len(adds) == 2  # n+1 twice is NOT the same value


class TestDCE:
    def test_unused_computation_removed(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\nvar dead: float;\n"
                "begin dead := x * 3.0; return x; end"
            )
        )
        eliminate_dead_code(fn, Cfg(fn))
        assert Opcode.MUL not in ops_of(fn)

    def test_stores_never_removed(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar a: array[4] of int;\nbegin a[0] := 1; end"
            )
        )
        eliminate_dead_code(fn, Cfg(fn))
        assert Opcode.STORE in ops_of(fn)

    def test_sends_never_removed(self):
        fn = single_function_ir(
            wrap_function("function f() begin send(1.0); end")
        )
        eliminate_dead_code(fn, Cfg(fn))
        assert Opcode.SEND in ops_of(fn)

    def test_transitively_dead_chain_removed(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\nvar a, b, c: float;\n"
                "begin a := x + 1.0; b := a * 2.0; c := b - 3.0; return x; end"
            )
        )
        eliminate_dead_code(fn, Cfg(fn))
        # Everything except the return should be gone.
        assert ops_of(fn) == [Opcode.RET]

    def test_loop_carried_value_kept(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 3 do acc := acc + 1.0; end; "
                "return acc; end"
            )
        )
        eliminate_dead_code(fn, Cfg(fn))
        assert Opcode.ADD in ops_of(fn)  # the accumulator survives


class TestSimplifyCFG:
    def test_constant_branch_becomes_jump(self):
        fn = single_function_ir(
            wrap_function(
                "function f() : int begin if 1 < 2 then return 1; end; "
                "return 0; end"
            )
        )
        PassManager(opt_level=2).run(fn, Cfg(fn))
        assert Opcode.BR not in ops_of(fn)

    def test_unreachable_else_removed(self):
        fn, _ = optimized(
            wrap_function(
                "function f() : int begin if 0 > 1 then return 1; "
                "else return 2; end; return 3; end"
            )
        )
        rets = [i for i in fn.all_instructions() if i.op is Opcode.RET]
        assert len(rets) == 1
        assert rets[0].operands[0] == Const(2, IR_INT)

    def test_straight_line_blocks_merged(self):
        fn, _ = optimized(
            wrap_function(
                "function f(n: int) : int begin if 1 = 1 then n := n + 1; "
                "end; return n; end"
            )
        )
        assert len(fn.blocks) == 1


class TestPassManager:
    def test_level0_does_nothing(self):
        src = wrap_function(
            "function f() : int begin return 2 + 3; end"
        )
        fn = single_function_ir(src)
        count_before = fn.instruction_count()
        stats = PassManager(opt_level=0).run(fn, Cfg(fn))
        assert fn.instruction_count() == count_before
        assert stats.work_units == 0

    def test_level2_reaches_fixpoint(self):
        fn, stats = optimized(
            wrap_function(
                "function f(x: float) : float\nvar a, b: float;\n"
                "begin a := x * 1.0; b := a + 0.0; return b; end"
            )
        )
        assert ops_of(fn) == [Opcode.RET]
        assert stats.rounds >= 2  # last round verifies the fixpoint

    def test_work_units_positive_and_accumulating(self):
        _, stats = optimized(
            wrap_function("function f(x: float) : float begin return x; end")
        )
        assert stats.work_units > 0
        assert set(stats.runs) == set(stats.instructions_visited)

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            PassManager(opt_level=3)

    def test_level1_single_round(self):
        fn = single_function_ir(
            wrap_function("function f() : int begin return 1 + 1; end")
        )
        stats = PassManager(opt_level=1).run(fn, Cfg(fn))
        assert stats.rounds == 1
