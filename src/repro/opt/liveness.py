"""Live-variable analysis over virtual registers.

Backward problem: a register is live at a point if some path from that
point reads it before any write.  Used by dead-code elimination and by the
register allocator's live-interval construction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from ..ir.cfg import BasicBlock, FunctionIR
from ..ir.instructions import Instr
from ..ir.values import VReg
from .dataflow import BlockFacts, solve_backward_masks, unpack_solution


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


def live_variables(function: FunctionIR) -> BlockFacts:
    """Solve liveness; ``entry``/``exit`` give live-in/live-out per block.

    Registers are numbered once for the whole function and the gen/kill
    sets are built directly as bitsets, so neither the construction nor
    the worklist solve allocates per-block frozensets.
    """
    index: Dict[VReg, int] = {}
    gen: Dict[str, int] = {}
    kill: Dict[str, int] = {}
    for block in function.blocks:
        # Collect use/def with small per-block sets first; only the final
        # per-block conversion touches the (wide) bitset ints.
        uses = set()
        defs = set()
        for instr in block.instructions:
            for reg in instr.uses():
                if reg not in defs:
                    uses.add(reg)
            if instr.dest is not None:
                defs.add(instr.dest)
        use_mask = 0
        for reg in uses:
            bit = index.get(reg)
            if bit is None:
                bit = index[reg] = len(index)
            use_mask |= 1 << bit
        def_mask = 0
        for reg in defs:
            bit = index.get(reg)
            if bit is None:
                bit = index[reg] = len(index)
            def_mask |= 1 << bit
        gen[block.name] = use_mask
        kill[block.name] = def_mask
    entry_m, exit_m = solve_backward_masks(function, gen, kill)
    return unpack_solution(entry_m, exit_m, list(index))


def iterate_live_out(
    block: BasicBlock, live_out: FrozenSet[VReg]
) -> Iterator[Tuple[Instr, Set[VReg]]]:
    """Yield ``(instr, live-after-instr)`` in *reverse* block order.

    Callers walking backwards (e.g. DCE) get, for each instruction, the set
    of registers live immediately after it.  It is one set, updated in
    place between yields: read it before the next one, copy it to keep it.
    """
    live = set(live_out)
    for instr in reversed(block.instructions):
        yield instr, live
        if instr.dest is not None:
            live.discard(instr.dest)
        live.update(instr.uses())
