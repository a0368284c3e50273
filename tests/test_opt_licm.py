"""Loop-invariant code motion."""

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.opt.licm import hoist_loop_invariants
from repro.opt.pass_manager import PassManager

from helpers import compile_and_run, echo_module, single_function_ir, wrap_function


def loop_body_ops(fn):
    nest = Cfg(fn).loops
    ops = []
    for loop in nest.all_loops():
        for name in loop.blocks:
            ops.extend(i.op for i in fn.block_named(name).instructions)
    return ops


class TestHoisting:
    def test_invariant_multiply_hoisted(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float, y: float) : float\n"
                "var i: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + x * y; end;\n"
                "return acc;\nend"
            )
        )
        # The multiply is recomputed every iteration before LICM.
        assert Opcode.MUL in loop_body_ops(fn)
        moved = hoist_loop_invariants(fn, Cfg(fn))
        assert moved >= 1
        assert Opcode.MUL not in loop_body_ops(fn)
        fn.validate()

    def test_variant_computation_not_hoisted(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\n"
                "var i: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + x * i; end;\n"
                "return acc;\nend"
            )
        )
        hoist_loop_invariants(fn, Cfg(fn))
        assert Opcode.MUL in loop_body_ops(fn)  # depends on i

    def test_division_never_speculated(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float, y: float) : float\n"
                "var i: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + x / y; end;\n"
                "return acc;\nend"
            )
        )
        hoist_loop_invariants(fn, Cfg(fn))
        assert Opcode.DIV in loop_body_ops(fn)

    def test_loads_not_hoisted(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\n"
                "var i: int; acc: float; a: array[4] of float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + a[0]; end;\n"
                "a[0] := acc;\nend"
            )
        )
        hoist_loop_invariants(fn, Cfg(fn))
        assert Opcode.LOAD in loop_body_ops(fn)

    def test_chain_of_invariants_hoisted(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\n"
                "var i: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + (x * 2.0) * (x * 2.0 + 1.0); "
                "end;\n"
                "return acc;\nend"
            )
        )
        moved = hoist_loop_invariants(fn, Cfg(fn))
        assert moved >= 2
        body_ops = loop_body_ops(fn)
        assert body_ops.count(Opcode.MUL) == 0

    def test_nested_loop_invariant_leaves_inner(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\n"
                "var i, j: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 3 do\n"
                "  for j := 0 to 3 do acc := acc + x * 3.0; end;\n"
                "end;\n"
                "return acc;\nend"
            )
        )
        hoist_loop_invariants(fn, Cfg(fn))
        nest = Cfg(fn).loops
        inner = nest.innermost_loops()[0]
        inner_ops = [
            i.op
            for name in inner.blocks
            for i in fn.block_named(name).instructions
        ]
        assert Opcode.MUL not in inner_ops


class TestSemanticsPreserved:
    def test_zero_trip_loop_with_hoisting(self):
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := x;\n"
            "    for i := 5 to 2 do acc := acc + x * 3.0; end;\n"
            "    return acc;\n"
            "  end"
        )
        result = compile_and_run(echo_module(body, 2), [1.0, -4.0])
        assert result.output_floats() == [1.0, -4.0]

    def test_end_to_end_results_unchanged_by_licm(self):
        body = (
            "  var i: int; acc: float;\n"
            "  begin\n"
            "    acc := 0.0;\n"
            "    for i := 0 to 7 do acc := acc + (x + 1.0) * 2.0; end;\n"
            "    return acc;\n"
            "  end"
        )
        src = echo_module(body, 2)
        expected = [(v + 1.0) * 2.0 * 8 for v in (1.0, 2.5)]
        for level in (0, 1, 2):
            result = compile_and_run(src, [1.0, 2.5], opt_level=level)
            assert result.output_floats() == expected

    def test_pipeline_runs_licm(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\n"
                "var i: int; acc: float;\n"
                "begin\n"
                "for i := 0 to 9 do acc := acc + x * 5.0; end;\n"
                "return acc;\nend"
            )
        )
        stats = PassManager(opt_level=2).run(fn, Cfg(fn))
        assert stats.changes.get("loop-invariant-code-motion", 0) >= 1
