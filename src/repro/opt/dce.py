"""Global dead-code elimination driven by liveness.

An instruction is dead if it has no side effects and its destination is
not live immediately after it.  Removing one exposes the next — its
operands may have had no other reader — so the pass runs to a fixpoint,
on the liveness bitsets themselves: a register's bit is its id, each
block is swept backwards once per solve, and a dead instruction's
operands never enter the live set, so a dead chain inside a block goes
in one sweep and only a chain that crosses blocks costs another solve.
"""

from __future__ import annotations

from ..ir.cfg import Cfg, FunctionIR
from ..ir.instructions import SIDE_EFFECTS, TERMINATORS
from ..ir.values import VReg
from .dataflow import solve_backward_masks
from .liveness import liveness_masks

_PINNED = SIDE_EFFECTS | TERMINATORS


def eliminate_dead_code(function: FunctionIR, cfg: Cfg) -> int:
    """Remove dead instructions; returns how many were removed."""
    gen, kill = liveness_masks(function)
    bits = [1 << i for i in range(function.next_vreg_id)]
    removed = 0
    stale = True
    while stale:
        # The sweep below leaves every block's gen/kill those of the
        # instructions it kept.  With no gen changed the solution still
        # holds and everything dead under it is gone.  (A block's live-in
        # is the wrong test: a dead use in a loop keeps its register in
        # the block's own live-out through the back edge, so live-in
        # stands still while the true solution shrinks.)
        stale = False
        _, live_out = solve_backward_masks(cfg, gen, kill)
        for block in function.blocks:
            out = live_out[block.name]
            block_gen = block_kill = 0
            keep = []
            for instr in reversed(block.instructions):
                dest = instr.dest
                if dest is not None:
                    bit = bits[dest.id]
                    if (
                        not (block_gen | out & ~block_kill) & bit
                        and instr.op not in _PINNED
                    ):
                        continue
                    block_gen &= ~bit
                    block_kill |= bit
                for operand in instr.operands:
                    if operand.__class__ is VReg:
                        block_gen |= bits[operand.id]
                keep.append(instr)
            if len(keep) != len(block.instructions):
                removed += len(block.instructions) - len(keep)
                keep.reverse()
                block.instructions = keep
            if block_gen != gen[block.name]:
                gen[block.name] = block_gen
                stale = True
            kill[block.name] = block_kill
    return removed
