"""Dataflow analyses: liveness, dependence graphs."""

import pytest

from repro.ir.cfg import Cfg
from repro.ir.instructions import Opcode
from repro.opt.dependence import (
    ANTI,
    IO,
    MEMORY,
    OUTPUT,
    TRUE,
    build_dependence_graph,
    classify_subscript,
    find_induction_register,
)
from repro.opt.dataflow import (
    facts_of,
    mask_of,
    solve_backward_masks,
    solve_backward_sets,
    unpack_solution,
)
from repro.opt.liveness import block_use_def, live_variables

from helpers import single_function_ir, wrap_function


LOOP_SRC = wrap_function(
    "function f(x: float) : float\n"
    "var i: int; acc: float; a: array[16] of float;\n"
    "begin\n"
    "for i := 0 to 15 do\n"
    "  a[i] := x * 2.0;\n"
    "  acc := acc + a[i];\n"
    "end;\n"
    "return acc;\nend"
)


class TestLiveness:
    def test_param_live_into_loop(self):
        fn = single_function_ir(LOOP_SRC)
        facts = live_variables(fn, Cfg(fn))
        x = fn.param_regs[0]
        assert x in facts.entry["for.body"]

    def test_dead_after_last_use(self):
        fn = single_function_ir(
            wrap_function(
                "function f(x: float) : float\nvar y: float;\n"
                "begin y := x + 1.0; return y; end"
            )
        )
        facts = live_variables(fn, Cfg(fn))
        # Nothing is live out of the exit block.
        exit_block = fn.blocks[-1]
        assert facts.exit[exit_block.name] == frozenset()

    def test_loop_carried_register_live_around_backedge(self):
        fn = single_function_ir(LOOP_SRC)
        facts = live_variables(fn, Cfg(fn))
        header = fn.block_named("for.header")
        # The accumulator is live on entry to the header (used after the
        # loop and redefined each iteration).
        live_in = facts.entry["for.header"]
        body_defs = {
            i.dest
            for i in fn.block_named("for.body").instructions
            if i.dest is not None
        }
        assert any(reg in live_in for reg in body_defs)


DIAMOND_SRC = wrap_function(
    "function f(n: int) : int\nvar t: int;\n"
    "begin\n"
    "if n > 0 then t := n * 2; else t := n - 1; end;\n"
    "while t > 0 do t := t - 3; end;\n"
    "return t;\nend"
)


class TestBitsetMatchesReferenceSets:
    """The bitset kernel must agree exactly with the frozenset solver
    on every CFG (branches, loops, unreachable-free diamonds)."""

    def _use_def(self, fn):
        gen, kill = {}, {}
        for block in fn.blocks:
            gen[block.name], kill[block.name] = block_use_def(block)
        return gen, kill

    @pytest.mark.parametrize("src", [LOOP_SRC, DIAMOND_SRC])
    def test_backward_equivalence(self, src):
        fn = single_function_ir(src)
        gen, kill = self._use_def(fn)
        index = {}
        names = [block.name for block in fn.blocks]
        entry_m, exit_m = solve_backward_masks(
            Cfg(fn),
            {name: mask_of(gen[name], index) for name in names},
            {name: mask_of(kill[name], index) for name in names},
        )
        fast = unpack_solution(entry_m, exit_m, list(index))
        slow = solve_backward_sets(fn, gen, kill)
        assert fast.entry == slow.entry
        assert fast.exit == slow.exit

    @pytest.mark.parametrize("src", [LOOP_SRC, DIAMOND_SRC])
    def test_live_variables_equals_reference_pipeline(self, src):
        fn = single_function_ir(src)
        gen, kill = self._use_def(fn)
        fast = live_variables(fn, Cfg(fn))
        slow = solve_backward_sets(fn, gen, kill)
        assert fast.entry == slow.entry
        assert fast.exit == slow.exit

    def test_mask_roundtrip(self):
        index = {}
        facts = ["a", "b", "c", "d"]
        mask = mask_of(facts, index)
        assert mask == 0b1111
        assert facts_of(mask, list(index)) == frozenset(facts)
        assert mask_of(["b", "e"], index) == 0b10010
        assert facts_of(0, list(index)) == frozenset()


def loop_and_graph(src: str):
    fn = single_function_ir(src)
    loop = Cfg(fn).loops.innermost_loops()[0]
    graph = build_dependence_graph(Cfg(fn), loop)
    assert graph is not None
    return fn, loop, graph


class TestInduction:
    def test_finds_induction_register_and_step(self):
        fn = single_function_ir(LOOP_SRC)
        loop = Cfg(fn).loops.innermost_loops()[0]
        result = find_induction_register(Cfg(fn), loop)
        assert result is not None
        _reg, step = result
        assert step == 1

    def test_negative_step(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i: int; x: float;\n"
                "begin for i := 9 to 0 by -3 do x := x + 1.0; end; end"
            )
        )
        loop = Cfg(fn).loops.innermost_loops()[0]
        _reg, step = find_induction_register(Cfg(fn), loop)
        assert step == -3


class TestDependenceGraph:
    def test_accumulator_has_carried_true_dependence(self):
        _fn, _loop, graph = loop_and_graph(
            wrap_function(
                "function f() : float\nvar i: int; acc: float;\n"
                "begin for i := 0 to 7 do acc := acc + 1.0; end; "
                "return acc; end"
            )
        )
        carried_true = [
            e for e in graph.edges if e.kind == TRUE and e.distance == 1
        ]
        assert carried_true

    def test_same_index_store_load_distance_zero(self):
        _fn, _loop, graph = loop_and_graph(LOOP_SRC)
        mem = [e for e in graph.edges if e.kind == MEMORY]
        assert any(e.distance == 0 for e in mem)

    def test_offset_subscripts_give_exact_distance(self):
        _fn, _loop, graph = loop_and_graph(
            wrap_function(
                "function f()\nvar i: int; a: array[32] of float;\n"
                "begin for i := 1 to 30 do a[i] := a[i - 1] + 1.0; end; end"
            )
        )
        mem = [e for e in graph.edges if e.kind == MEMORY]
        assert any(e.distance == 1 for e in mem)

    def test_disjoint_strided_accesses_independent(self):
        """a[i] and a[i+1] with step 2 never collide: no memory edge."""
        _fn, _loop, graph = loop_and_graph(
            wrap_function(
                "function f()\nvar i: int; a: array[34] of float;\n"
                "begin for i := 0 to 31 by 2 do a[i + 1] := a[i] * 2.0; "
                "end; end"
            )
        )
        mem = [e for e in graph.edges if e.kind == MEMORY]
        assert mem == []

    def test_io_operations_chained(self):
        _fn, _loop, graph = loop_and_graph(
            wrap_function(
                "function f()\nvar i: int; x: float;\n"
                "begin for i := 0 to 7 do receive(x); send(x * 2.0); end; end"
            )
        )
        io = [e for e in graph.edges if e.kind == IO]
        assert any(e.distance == 0 for e in io)
        assert any(e.distance == 1 for e in io)  # order across iterations

    def test_anti_and_output_edges_present(self):
        _fn, _loop, graph = loop_and_graph(
            wrap_function(
                "function f() : float\nvar i: int; t: float;\n"
                "begin for i := 0 to 7 do t := t * 0.5; end; return t; end"
            )
        )
        kinds = {e.kind for e in graph.edges}
        assert ANTI in kinds
        assert OUTPUT in kinds


class TestSubscriptClassification:
    def test_constant_subscript(self):
        fn = single_function_ir(
            wrap_function(
                "function f()\nvar i: int; a: array[4] of float;\n"
                "begin for i := 0 to 3 do a[0] := a[0] + 1.0; end; end"
            )
        )
        loop = Cfg(fn).loops.innermost_loops()[0]
        body = fn.block_named(next(iter(loop.blocks - {loop.header})))
        stores = [i for i in body.instructions if i.op is Opcode.STORE]
        induction, _step = find_induction_register(Cfg(fn), loop)
        sub = classify_subscript(body, stores[0].operands[0], induction)
        assert sub.kind == "const"
        assert sub.offset == 0
