"""CFG analyses: dominators, natural loops, loop nests."""

import pytest

from repro.ir.builder import IRBuilder
from repro.ir.cfg import Cfg, FunctionIR
from repro.ir.instructions import Opcode
from repro.ir.loops import is_pipelinable, loop_nest_weight
from repro.ir.values import Const, IR_INT

from helpers import single_function_ir, wrap_function


def diamond_function() -> FunctionIR:
    """entry -> (left | right) -> join."""
    fn = FunctionIR(name="d", section_name="s")
    b = IRBuilder(fn)
    entry = b.new_block("entry")
    left = b.new_block("left")
    right = b.new_block("right")
    join = b.new_block("join")
    b.set_block(entry)
    cond = b.li(1, IR_INT)
    b.br(cond, left, right)
    b.set_block(left)
    b.jmp(join)
    b.set_block(right)
    b.jmp(join)
    b.set_block(join)
    b.ret()
    fn.validate()
    return fn


class TestDominators:
    def test_entry_dominates_everything(self):
        fn = diamond_function()
        dom = Cfg(fn).dominators
        for block in fn.blocks:
            assert dom.dominates("entry", block.name)

    def test_branch_arms_do_not_dominate_join(self):
        dom = Cfg(diamond_function()).dominators
        assert not dom.dominates("left", "join")
        assert not dom.dominates("right", "join")
        assert dom.idom["join"] == "entry"

    def test_self_domination(self):
        dom = Cfg(diamond_function()).dominators
        assert dom.dominates("left", "left")

    def test_loop_header_dominates_body(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i: int;\n"
                "begin for i := 0 to 3 do i := i; end; end"
            )
        )
        dom = Cfg(fn).dominators
        assert dom.dominates("for.header", "for.body")
        assert not dom.dominates("for.body", "for.header")

    def test_dominator_chain(self):
        fn = diamond_function()
        dom = Cfg(fn).dominators
        assert dom.dominators_of("join") == ["join", "entry"]


class TestLoops:
    def test_single_loop_detected(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i: int;\n"
                "begin for i := 0 to 3 do i := i; end; end"
            )
        )
        nest = Cfg(fn).loops
        assert len(nest.all_loops()) == 1
        loop = nest.all_loops()[0]
        assert loop.header == "for.header"
        assert "for.body" in loop

    def test_nested_loops(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i, j: int;\nbegin\n"
                "for i := 0 to 3 do\n"
                "  for j := 0 to 3 do j := j; end;\n"
                "end;\nend"
            )
        )
        nest = Cfg(fn).loops
        loops = nest.all_loops()
        assert len(loops) == 2
        assert nest.max_depth() == 2
        inner = [l for l in loops if l.is_innermost()]
        assert len(inner) == 1
        assert inner[0].depth == 2

    def test_sequential_loops_are_siblings(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i: int;\nbegin\n"
                "for i := 0 to 3 do i := i; end;\n"
                "for i := 0 to 3 do i := i; end;\nend"
            )
        )
        nest = Cfg(fn).loops
        assert len(nest.roots) == 2
        assert all(l.depth == 1 for l in nest.all_loops())

    def test_while_loop_detected(self):
        fn = single_function_ir(
            wrap_function(
                "function f(n: int)\nbegin while n > 0 do n := n - 1; end; end"
            )
        )
        nest = Cfg(fn).loops
        assert len(nest.all_loops()) == 1

    def test_no_loops(self):
        fn = single_function_ir(wrap_function("function f() begin end"))
        assert Cfg(fn).loops.all_loops() == []


class TestPipelinability:
    def _nest_of(self, body: str):
        fn = single_function_ir(wrap_function(body))
        return fn, Cfg(fn).loops

    def test_simple_counted_loop_is_pipelinable(self):
        fn, nest = self._nest_of(
            "function f()\nvar i: int; x: float;\n"
            "begin for i := 0 to 3 do x := x + 1.0; end; end"
        )
        loop = nest.all_loops()[0]
        assert is_pipelinable(Cfg(fn), loop)

    def test_loop_with_if_not_pipelinable(self):
        fn, nest = self._nest_of(
            "function f()\nvar i: int; x: float;\nbegin\n"
            "for i := 0 to 3 do\n"
            "  if x > 0.0 then x := x - 1.0; end;\n"
            "end;\nend"
        )
        inner = nest.innermost_loops()[0]
        assert not is_pipelinable(Cfg(fn), inner)

    def test_loop_with_call_not_pipelinable(self):
        from helpers import lower_ok

        ir = lower_ok(
            wrap_function(
                "function g() begin end\n"
                "function f()\nvar i: int;\n"
                "begin for i := 0 to 3 do g(); end; end"
            )
        )
        fn = ir.function_named("s", "f")
        nest = Cfg(fn).loops
        assert not is_pipelinable(Cfg(fn), nest.all_loops()[0])

    def test_outer_loop_not_pipelinable(self):
        fn, nest = self._nest_of(
            "function f()\nvar i, j: int;\nbegin\n"
            "for i := 0 to 3 do\n"
            "  for j := 0 to 3 do j := j; end;\n"
            "end;\nend"
        )
        outer = [l for l in nest.all_loops() if not l.is_innermost()][0]
        assert not is_pipelinable(Cfg(fn), outer)


class TestLoopWeight:
    def test_weight_grows_with_nesting(self):
        flat = single_function_ir(
            wrap_function(
                "function f()\nvar i: int;\n"
                "begin for i := 0 to 3 do i := i; end; end"
            )
        )
        nested = single_function_ir(
            wrap_function(
                "function f()\nvar i, j: int;\nbegin\n"
                "for i := 0 to 3 do\n"
                "  for j := 0 to 3 do j := j; end;\n"
                "end;\nend"
            )
        )
        assert loop_nest_weight(Cfg(nested)) > loop_nest_weight(Cfg(flat))
