"""Local common-subexpression elimination.

Within a block, a pure computation with operands identical to an earlier
one is replaced by a copy of the earlier result.  Loads participate too:
a load is available until a store to the same array or a call (calls may
store through the callee — conservatively treated as clobbering all
arrays).  Commutative operations are keyed on sorted operands.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.cfg import Cfg, FunctionIR
from ..ir.instructions import COMMUTATIVE, Instr, Opcode
from ..ir.values import IR_FLOAT, VReg

_PURE = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.DIV,
    Opcode.MOD,
    Opcode.NEG,
    Opcode.ABS,
    Opcode.SQRT,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.NOT,
    Opcode.AND,
    Opcode.OR,
    Opcode.CEQ,
    Opcode.CNE,
    Opcode.CLT,
    Opcode.CLE,
    Opcode.CGT,
    Opcode.CGE,
    Opcode.ITOF,
    Opcode.FTOI,
}


def eliminate_common_subexpressions(function: FunctionIR, cfg: Cfg) -> int:
    changes = 0
    for block in function.blocks:
        changes += _cse_block(block.instructions)
    return changes


def _operand_key(value):
    if value.__class__ is VReg:
        # Ids are unique within a function: the id alone names it.
        return ("r", value.id)
    if value.type == IR_FLOAT:
        # 0.0 == -0.0, but x * 0.0 and x * -0.0 differ: the key also says
        # which zero it is, as the encoder's does.
        return ("c", value.type, value.value, float(value.value).hex())
    return ("c", value.type, value.value)


def _expr_key(instr: Instr):
    keys = [_operand_key(v) for v in instr.operands]
    if instr.op in COMMUTATIVE:
        keys.sort()
    array_name = instr.array.name if instr.array is not None else None
    return (instr.op, tuple(keys), array_name)


def _cse_block(instructions: List[Instr]) -> int:
    available: Dict[tuple, VReg] = {}
    #: register id -> expression keys that mention it (for invalidation)
    mentioned_by: Dict[int, List[tuple]] = {}
    #: register id -> expression keys recorded with it as their value; a
    #: key may since have left ``available`` or come back with another value
    held_by: Dict[int, List[tuple]] = {}
    #: array name -> load keys recorded against it
    loads_of: Dict[str, List[tuple]] = {}
    changes = 0

    def invalidate_register(reg: VReg) -> None:
        for key in mentioned_by.pop(reg.id, ()):
            available.pop(key, None)
        for key in held_by.pop(reg.id, ()):
            if available.get(key) == reg:
                del available[key]

    def invalidate_loads(keys) -> None:
        for key in keys:
            available.pop(key, None)

    for index, instr in enumerate(instructions):
        if instr.op is Opcode.STORE:
            invalidate_loads(loads_of.pop(instr.array.name, ()))
            continue
        if instr.op is Opcode.CALL:
            for keys in loads_of.values():
                invalidate_loads(keys)
            loads_of.clear()
            if instr.dest is not None:
                invalidate_register(instr.dest)
            continue

        new_fact = None
        if instr.op in _PURE or instr.op is Opcode.LOAD:
            key = _expr_key(instr)
            prior = available.get(key)
            if prior is not None and prior != instr.dest:
                instructions[index] = Instr(
                    Opcode.MOV, dest=instr.dest, operands=(prior,)
                )
                instr = instructions[index]
                changes += 1
            elif prior is None and instr.dest not in instr.uses():
                # Record the fact only after invalidating the old dest facts;
                # self-referencing computations (x = x + 1) are never recorded.
                new_fact = (key, instr)

        if instr.dest is not None:
            invalidate_register(instr.dest)
        if new_fact is not None:
            key, producer = new_fact
            available[key] = producer.dest
            held_by.setdefault(producer.dest.id, []).append(key)
            if producer.op is Opcode.LOAD:
                loads_of.setdefault(key[2], []).append(key)
            for reg in producer.uses():
                mentioned_by.setdefault(reg.id, []).append(key)
    return changes
