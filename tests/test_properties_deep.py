"""Deeper property-based tests: allocator soundness, dominators, loops."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.regalloc import allocate_registers
from repro.ir.builder import IRBuilder
from repro.ir.cfg import Cfg, FunctionIR
from repro.ir.instructions import Opcode
from repro.ir.values import IR_INT
from repro.machine.warp_cell import WarpCellModel
from repro.opt.liveness import live_variables
from repro.opt.pass_manager import PassManager

from helpers import parse_ok, single_function_ir
from test_properties import random_program


# ---------------------------------------------------------------------------
# Register allocation: no two simultaneously-live values share a register
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(source=random_program())
def test_allocator_never_aliases_live_values(source):
    module, _ = parse_ok(source)
    from repro.ir.lowering import lower_module

    ir = lower_module(module)
    for fn in ir.all_functions():
        PassManager(2).run(fn, Cfg(fn))
        allocation = allocate_registers(fn, WarpCellModel(), Cfg(fn))
        facts = live_variables(fn, Cfg(fn))
        for block in fn.blocks:
            # Walk backwards: ``live_after`` is what is live after ``instr``.
            live_after = set(facts.exit[block.name])
            for instr in reversed(block.instructions):
                live = [r for r in live_after if r in allocation.assignment]
                mapped = {allocation.assignment[r] for r in live}
                assert len(mapped) == len(live), (
                    f"aliased registers in {fn.name} at block {block.name}"
                )
                if instr.dest is not None:
                    live_after.discard(instr.dest)
                live_after.update(instr.uses())


@settings(max_examples=15, deadline=None)
@given(source=random_program())
def test_allocator_sound_under_extreme_pressure(source):
    """Even with 4 registers per bank (forcing heavy spills), allocation
    must terminate and remain alias-free."""
    module, _ = parse_ok(source)
    from repro.ir.lowering import lower_module

    tight = WarpCellModel(int_registers=6, float_registers=4)
    ir = lower_module(module)
    for fn in ir.all_functions():
        PassManager(2).run(fn, Cfg(fn))
        allocation = allocate_registers(fn, tight, Cfg(fn))
        for preg in allocation.assignment.values():
            limit = 6 if preg.bank == "i" else 4
            assert preg.index < limit


# ---------------------------------------------------------------------------
# Dominators: checked against the brute-force removal definition
# ---------------------------------------------------------------------------


@st.composite
def random_cfg(draw):
    """A random function CFG with 2-8 blocks of empty bodies."""
    n = draw(st.integers(2, 8))
    fn = FunctionIR(name="g", section_name="s")
    builder = IRBuilder(fn)
    blocks = [builder.new_block(f"b{i}") for i in range(n)]
    for i, block in enumerate(blocks):
        builder.set_block(block)
        kind = draw(st.integers(0, 2))
        if kind == 0 or i == n - 1:
            builder.ret()
        elif kind == 1:
            target = draw(st.integers(0, n - 1))
            builder.jmp(blocks[target])
        else:
            cond = builder.li(1, IR_INT)
            t1 = draw(st.integers(0, n - 1))
            t2 = draw(st.integers(0, n - 1))
            builder.br(cond, blocks[t1], blocks[t2])
    fn.remove_unreachable_blocks()
    fn.validate()
    return fn


def _reachable_without(fn: FunctionIR, removed: str) -> set:
    """Blocks reachable from entry without passing through ``removed``."""
    block_map = fn.block_map()
    if fn.entry.name == removed:
        return set()
    seen = {fn.entry.name}
    stack = [fn.entry.name]
    while stack:
        name = stack.pop()
        for succ in block_map[name].successors():
            if succ != removed and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


@settings(max_examples=200, deadline=None)
@given(fn=random_cfg())
def test_dominators_match_bruteforce_removal(fn):
    dom = Cfg(fn).dominators
    names = [b.name for b in fn.blocks]
    for a in names:
        unreachable_without_a = set(names) - _reachable_without(fn, a)
        for b in names:
            # a dominates b iff removing a cuts b from the entry.
            expected = b in unreachable_without_a or a == b
            assert dom.dominates(a, b) == expected, (a, b)


@settings(max_examples=200, deadline=None)
@given(fn=random_cfg())
def test_loops_have_dominating_headers(fn):
    dom = Cfg(fn).dominators
    nest = Cfg(fn).loops
    for loop in nest.all_loops():
        assert loop.header in loop.blocks
        for name in loop.blocks:
            assert dom.dominates(loop.header, name)


@settings(max_examples=200, deadline=None)
@given(fn=random_cfg())
def test_loop_bodies_reach_back_to_header(fn):
    """Every block of a natural loop can reach the header within it."""
    block_map = fn.block_map()
    nest = Cfg(fn).loops
    for loop in nest.all_loops():
        for start in loop.blocks:
            seen = {start}
            stack = [start]
            found = start == loop.header
            while stack and not found:
                name = stack.pop()
                for succ in block_map[name].successors():
                    if succ == loop.header:
                        found = True
                        break
                    if succ in loop.blocks and succ not in seen:
                        seen.add(succ)
                        stack.append(succ)
            assert found, f"{start} cannot reach header {loop.header}"


# ---------------------------------------------------------------------------
# Digest and printer determinism
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(source=random_program())
def test_ir_printer_deterministic(source):
    from repro.ir.printer import print_module
    from repro.ir.lowering import lower_module

    module, _ = parse_ok(source)
    first = print_module(lower_module(module))
    second = print_module(lower_module(module))
    assert first == second
