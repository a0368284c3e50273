"""Live-variable analysis over virtual registers.

Backward problem: a register is live at a point if some path from that
point reads it before any write.  Used by dead-code elimination and by the
register allocator's live-interval construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..ir.cfg import BasicBlock, FunctionIR
from ..ir.values import VReg
from .dataflow import (
    BlockFacts,
    MaskFacts,
    mask_of,
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


def liveness_masks(
    function: FunctionIR,
) -> Tuple[Dict[VReg, int], MaskFacts, MaskFacts]:
    """Number the registers and build each block's gen/kill bitsets.

    Returns ``(index, gen, kill)``: the bit index of every register read
    or written, and per block name the upward-exposed uses and the
    definitions — what :func:`solve_backward_masks` takes.  Registers
    are numbered once for the whole function and the sets are built
    directly as bitsets, so neither the construction nor the worklist
    solve allocates per-block frozensets.
    """
    index: Dict[VReg, int] = {}
    gen: MaskFacts = {}
    kill: MaskFacts = {}
    for block in function.blocks:
        # Collect use/def with small per-block sets first; only the final
        # per-block conversion touches the (wide) bitset ints.
        uses, defs = block_use_def(block)
        gen[block.name] = mask_of(uses, index)
        kill[block.name] = mask_of(defs, index)
    return index, gen, kill


def live_variables(function: FunctionIR) -> BlockFacts:
    """Solve liveness; ``entry``/``exit`` give live-in/live-out per block."""
    index, gen, kill = liveness_masks(function)
    entry_m, exit_m = solve_backward_masks(function, gen, kill)
    return unpack_solution(entry_m, exit_m, list(index))
