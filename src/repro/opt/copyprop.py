"""Local copy and constant propagation.

Within each basic block, tracks which registers currently hold a copy of
another register or a constant (from ``mov``/``li``) and rewrites later
uses to the original value.  Redefinition of either side of a copy
invalidates it.  This pass is what exposes constants to the folder and
shared subexpressions to CSE.
"""

from __future__ import annotations

from typing import Dict, List

from ..ir.cfg import Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode
from ..ir.values import Const, VReg, Value


def propagate_copies(function: FunctionIR, cfg: Cfg) -> int:
    """Rewrite operands through local copies; returns number of changes."""
    changes = 0
    for block in function.blocks:
        changes += _propagate_block(block.instructions)
        changes += _remove_self_moves(block)
    return changes


def _remove_self_moves(block) -> int:
    """Delete ``mov x, x`` no-ops (left behind by propagation and CSE)."""
    before = len(block.instructions)
    block.instructions = [
        instr
        for instr in block.instructions
        if not (
            instr.op is Opcode.MOV
            and isinstance(instr.operands[0], VReg)
            and instr.operands[0] == instr.dest
        )
    ]
    return before - len(block.instructions)


def _propagate_block(instructions) -> int:
    #: register id -> the value it currently equals (Const or VReg)
    copies: Dict[int, Value] = {}
    #: register id -> ids of the registers recorded as its copies; one may
    #: since have lost the fact or been given another source
    copied_to: Dict[int, List[int]] = {}
    changes = 0
    for index, instr in enumerate(instructions):
        # Rewrite uses first (the instruction reads old values).
        for operand in instr.operands:
            # A copy fact never maps a register to itself, so one operand
            # with a fact is a change.
            if operand.__class__ is VReg and operand.id in copies:
                instr = instructions[index] = instr.with_operands(
                    tuple(
                        copies.get(v.id, v) if v.__class__ is VReg else v
                        for v in instr.operands
                    )
                )
                changes += 1
                break
        # Then update the copy map for the definition: drop the facts
        # about ``dest`` and the facts that name it as their source.
        dest = instr.dest
        if dest is not None:
            copies.pop(dest.id, None)
            for copy in copied_to.pop(dest.id, ()):
                if copies.get(copy) == dest:
                    del copies[copy]
            if instr.op is Opcode.MOV:
                source = instr.operands[0]
                if source != dest:
                    copies[dest.id] = source
                    if source.__class__ is VReg:
                        copied_to.setdefault(source.id, []).append(dest.id)
            elif instr.op is Opcode.LI:
                copies[dest.id] = instr.operands[0]
    return changes
