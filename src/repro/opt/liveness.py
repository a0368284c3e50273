"""Live-variable analysis over virtual registers.

Backward problem: a register is live at a point if some path from that
point reads it before any write.  Used by dead-code elimination and by the
register allocator's live-interval construction.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.values import VReg
from .dataflow import (
    BlockFacts,
    MaskFacts,
    solve_backward_masks,
    unpack_solution,
)


def block_use_def(block: BasicBlock) -> Tuple[FrozenSet[VReg], FrozenSet[VReg]]:
    """(use, def) sets for a block: use = read before any write within it."""
    uses = set()
    defs = set()
    for instr in block.instructions:
        for reg in instr.uses():
            if reg not in defs:
                uses.add(reg)
        if instr.dest is not None:
            defs.add(instr.dest)
    return frozenset(uses), frozenset(defs)


def liveness_masks(function: FunctionIR) -> Tuple[MaskFacts, MaskFacts]:
    """Each block's gen/kill bitsets, bit ``reg.id`` for register ``reg``.

    Returns ``(gen, kill)``: per block name the upward-exposed uses and
    the definitions — what :func:`solve_backward_masks` takes.  Lowering
    numbers a function's registers densely (``0 <= reg.id <
    next_vreg_id``), so the id is the bit and no register is hashed.
    """
    gen: MaskFacts = {}
    kill: MaskFacts = {}
    for block in function.blocks:
        uses = defs = 0
        for instr in block.instructions:
            for operand in instr.operands:
                if operand.__class__ is VReg:
                    bit = 1 << operand.id
                    if not defs & bit:
                        uses |= bit
            if instr.dest is not None:
                defs |= 1 << instr.dest.id
        gen[block.name] = uses
        kill[block.name] = defs
    return gen, kill


def live_variables(function: FunctionIR, cfg: Cfg) -> BlockFacts:
    """Solve liveness; ``entry``/``exit`` give live-in/live-out per block."""
    gen, kill = liveness_masks(function)
    entry_m, exit_m = solve_backward_masks(cfg, gen, kill)
    registers: List[Optional[VReg]] = [None] * function.next_vreg_id
    for block in function.blocks:
        for instr in block.instructions:
            for operand in instr.operands:
                if operand.__class__ is VReg:
                    registers[operand.id] = operand
            if instr.dest is not None:
                registers[instr.dest.id] = instr.dest
    return unpack_solution(entry_m, exit_m, registers)
