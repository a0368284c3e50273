"""Control-flow simplification.

Three rewrites, applied to a fixpoint:

1. ``br`` on a constant condition becomes ``jmp`` (then unreachable blocks
   are removed);
2. a jump to a block that only jumps elsewhere is threaded through;
3. a block whose single successor has no other predecessors is merged into
   it.

Keeping the CFG minimal matters downstream: the software pipeliner only
fires on single-block loop bodies, and lowering's structural translation
leaves join blocks that would otherwise defeat it.
"""

from __future__ import annotations

from typing import Dict

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode
from ..ir.values import Const


def simplify_control_flow(function: FunctionIR, cfg: Cfg) -> int:
    """Returns changes; on a change ``cfg`` is stale (it keeps its own maps)."""
    changes = 0
    while True:
        # Only a folded branch or a threaded jump cuts an edge, so only
        # they can leave a block unreachable (on entry, any block may be).
        round_changes = _fold_constant_branches(function)
        if round_changes or not changes:
            round_changes += function.remove_unreachable_blocks()
        threaded = _thread_trivial_jumps(function)
        if threaded:
            round_changes += threaded + function.remove_unreachable_blocks()
        round_changes += _merge_straight_line(function)
        if round_changes == 0:
            return changes
        changes += round_changes


def _fold_constant_branches(function: FunctionIR) -> int:
    changes = 0
    for block in function.blocks:
        term = block.terminator
        if term is None or term.op is not Opcode.BR:
            continue
        cond = term.operands[0]
        if isinstance(cond, Const):
            target = term.labels[0] if cond.value else term.labels[1]
            block.instructions[-1] = Instr(Opcode.JMP, labels=(target,))
            changes += 1
        elif term.labels[0] == term.labels[1]:
            block.instructions[-1] = Instr(Opcode.JMP, labels=(term.labels[0],))
            changes += 1
    return changes


def _thread_trivial_jumps(function: FunctionIR) -> int:
    """Retarget edges that point at empty jump-only blocks."""
    block_map = function.block_map()

    def final_target(name: str) -> str:
        seen = {name}
        while True:
            block = block_map[name]
            term = block.terminator
            is_trivial = (
                len(block.instructions) == 1
                and term is not None
                and term.op is Opcode.JMP
            )
            if not is_trivial:
                return name
            nxt = term.labels[0]
            if nxt in seen:  # infinite empty loop; leave it alone
                return name
            seen.add(nxt)
            name = nxt

    changes = 0
    for block in function.blocks:
        term = block.terminator
        if term is None or not term.labels:
            continue
        new_labels = tuple(final_target(label) for label in term.labels)
        if new_labels != term.labels:
            block.instructions[-1] = Instr(
                term.op, operands=term.operands, labels=new_labels
            )
            changes += 1
    return changes


def _merge_straight_line(function: FunctionIR) -> int:
    """Merge ``a -> b`` when a's only successor is b and b's only pred is a;
    each merge updates the maps and restarts the scan at the first block."""
    changes = 0
    preds = function.predecessors()
    block_map = function.block_map()
    while True:
        merged = False
        for block in function.blocks:
            term = block.terminator
            if term is None or term.op is not Opcode.JMP:
                continue
            succ_name = term.labels[0]
            if succ_name == block.name:
                continue
            if preds[succ_name] != [block.name]:
                continue
            if succ_name == function.entry.name:
                continue
            succ = block_map.pop(succ_name)
            del preds[succ_name]
            for name in succ.successors():
                preds[name] = [
                    block.name if pred == succ_name else pred
                    for pred in preds[name]
                ]
            block.instructions = block.instructions[:-1] + succ.instructions
            function.blocks.remove(succ)
            merged = True
            changes += 1
            break
        if not merged:
            return changes
