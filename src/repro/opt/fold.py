"""Constant folding and algebraic simplification (local optimization).

Instructions whose operands are all constants are folded into ``li``;
identity operations (``x+0``, ``x*1``, ``x-0``, ``x/1``) become moves.
``x*0`` folds to 0 for integers only: for floats NaN and signed zero make
it unsound.  Two of the float moves are unsound too, and still made (a
known defect, pinned in ``tests/test_signed_zero.py``): for ``x = -0.0``,
``x + 0.0`` and ``x - (-0.0)`` are ``0.0``, not ``x``.
"""

from __future__ import annotations

from ..ir.cfg import Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode, evaluate_constant
from ..ir.values import Const, IR_FLOAT, IR_INT, VReg

_FOLDABLE = {
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


def _coerced_result(value, ir_type: str):
    """Clamp a folded Python value onto the destination register type."""
    if ir_type == IR_INT:
        return int(value)
    return float(value)


def fold_constants(function: FunctionIR, cfg: Cfg) -> int:
    """Fold constant expressions in place; returns the number of changes."""
    changes = 0
    for block in function.blocks:
        for index, instr in enumerate(block.instructions):
            folded = _fold_instr(instr)
            if folded is not None:
                block.instructions[index] = folded
                changes += 1
    return changes


def _fold_instr(instr: Instr):
    """A replacement instruction, or None if no folding applies."""
    if instr.dest is None or instr.op not in _FOLDABLE:
        return None
    operands = instr.operands
    if all(isinstance(v, Const) for v in operands):
        result = evaluate_constant(instr.op, [v.value for v in operands])
        if result is None:
            return None
        value = _coerced_result(result, instr.dest.type)
        return Instr(
            Opcode.LI, dest=instr.dest, operands=(Const(value, instr.dest.type),)
        )
    return _algebraic(instr)


def _algebraic(instr: Instr):
    """Identity simplifications with one constant operand."""
    op = instr.op
    if len(instr.operands) != 2:
        return None
    left, right = instr.operands

    def mov(source):
        return Instr(Opcode.MOV, dest=instr.dest, operands=(source,))

    if op is Opcode.ADD:
        if _is_zero(right):
            return mov(left)
        if _is_zero(left):
            return mov(right)
    elif op is Opcode.SUB:
        if _is_zero(right):
            return mov(left)
    elif op is Opcode.MUL:
        if _is_one(right):
            return mov(left)
        if _is_one(left):
            return mov(right)
        if instr.dest.type == IR_INT and (_is_zero(left) or _is_zero(right)):
            return Instr(
                Opcode.LI, dest=instr.dest, operands=(Const(0, IR_INT),)
            )
    elif op is Opcode.DIV:
        if _is_one(right):
            return mov(left)
    elif op is Opcode.AND:
        if _is_zero(left) or _is_zero(right):
            return Instr(Opcode.LI, dest=instr.dest, operands=(Const(0, IR_INT),))
    elif op is Opcode.OR:
        if _is_zero(left):
            return Instr(Opcode.CNE, dest=instr.dest, operands=(right, Const(0, IR_INT)))
        if _is_zero(right):
            return Instr(Opcode.CNE, dest=instr.dest, operands=(left, Const(0, IR_INT)))
    return None


def _is_zero(value) -> bool:
    return isinstance(value, Const) and value.value == 0


def _is_one(value) -> bool:
    return isinstance(value, Const) and value.value == 1
