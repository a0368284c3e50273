"""Three-address IR instructions.

Every instruction has an opcode, an optional destination register, and a
tuple of operands.  Loads/stores carry a :class:`FrameArray` in addition to
the index operand.  Block terminators (``jmp``, ``br``, ``ret``) appear
only as the last instruction of a basic block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .values import Const, FrameArray, IR_FLOAT, IR_INT, Value, VReg


class Opcode(enum.Enum):
    # Arithmetic (typed by the destination register)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"  # integers only
    NEG = "neg"
    # Hardware intrinsics (the Warp cell has abs/min/max logic on both
    # ALUs and a square-root unit next to the multiplier)
    ABS = "abs"
    SQRT = "sqrt"
    MIN = "min"
    MAX = "max"
    # Logic on int 0/1 values
    NOT = "not"
    AND = "and"
    OR = "or"
    # Comparisons (destination is always int 0/1)
    CEQ = "ceq"
    CNE = "cne"
    CLT = "clt"
    CLE = "cle"
    CGT = "cgt"
    CGE = "cge"
    # Data movement
    MOV = "mov"
    LI = "li"  # load immediate
    ITOF = "itof"  # int -> float conversion
    FTOI = "ftoi"  # float -> int truncation (internal use)
    LOAD = "load"  # dest <- array[index]
    STORE = "store"  # array[index] <- value
    # Inter-cell systolic I/O
    SEND = "send"
    RECV = "recv"
    # Calls
    CALL = "call"
    # Terminators
    JMP = "jmp"
    BR = "br"  # conditional: (cond, true_label, false_label)
    RET = "ret"

    # Members are singletons: hash by identity, in C, not through
    # Enum.__hash__ (a Python-level hash of the name) on every set probe.
    __hash__ = object.__hash__


TERMINATORS = {Opcode.JMP, Opcode.BR, Opcode.RET}

COMMUTATIVE = {
    Opcode.ADD,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.CEQ,
    Opcode.CNE,
    Opcode.MIN,
    Opcode.MAX,
}

COMPARISONS = {Opcode.CEQ, Opcode.CNE, Opcode.CLT, Opcode.CLE, Opcode.CGT, Opcode.CGE}

#: Instructions with side effects that must never be removed or reordered
#: relative to one another.
SIDE_EFFECTS = {Opcode.SEND, Opcode.RECV, Opcode.CALL, Opcode.STORE}


@dataclass
class Instr:
    """One three-address instruction.

    ``operands`` holds :class:`Value` inputs.  ``array`` is set for
    LOAD/STORE.  ``labels`` holds successor block names for JMP/BR.
    ``callee`` is set for CALL.
    """

    op: Opcode
    dest: Optional[VReg] = None
    operands: Tuple[Value, ...] = ()
    array: Optional[FrameArray] = None
    labels: Tuple[str, ...] = ()
    callee: Optional[str] = None

    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def has_side_effects(self) -> bool:
        return self.op in SIDE_EFFECTS

    def uses(self) -> List[VReg]:
        """Virtual registers read by this instruction."""
        return [v for v in self.operands if v.__class__ is VReg]

    def with_operands(self, operands: Tuple[Value, ...]) -> "Instr":
        return Instr(
            self.op, self.dest, operands, self.array, self.labels, self.callee
        )

    def __str__(self) -> str:
        parts: List[str] = []
        if self.dest is not None:
            parts.append(f"{self.dest} = ")
        parts.append(self.op.value)
        if self.callee is not None:
            parts.append(f" {self.callee}")
        if self.array is not None:
            parts.append(f" {self.array}")
        if self.operands:
            parts.append(" " + ", ".join(str(v) for v in self.operands))
        if self.labels:
            parts.append(" -> " + ", ".join(self.labels))
        return "".join(parts)


def evaluate_constant(op: Opcode, values: List) -> Optional[object]:
    """Fold ``op`` applied to Python constant values; None if not foldable.

    Division by zero and modulo by zero are not folded — they are left to
    fail at simulation time exactly as the hardware would.
    """
    try:
        if op is Opcode.LI or op is Opcode.MOV:  # the commonest: first
            return values[0]
        if op is Opcode.ADD:
            return values[0] + values[1]
        if op is Opcode.SUB:
            return values[0] - values[1]
        if op is Opcode.MUL:
            return values[0] * values[1]
        if op is Opcode.DIV:
            if values[1] == 0:
                return None
            if isinstance(values[0], int) and isinstance(values[1], int):
                return _truncated_div(values[0], values[1])
            return values[0] / values[1]
        if op is Opcode.MOD:
            if values[1] == 0:
                return None
            return _truncated_mod(values[0], values[1])
        if op is Opcode.NEG:
            return -values[0]
        if op is Opcode.ABS:
            return abs(values[0])
        if op is Opcode.SQRT:
            import math

            if values[0] < 0:
                return None  # the square-root unit traps
            return math.sqrt(values[0])
        if op is Opcode.MIN:
            return min(values[0], values[1])
        if op is Opcode.MAX:
            return max(values[0], values[1])
        if op is Opcode.NOT:
            return 0 if values[0] else 1
        if op is Opcode.AND:
            return 1 if (values[0] and values[1]) else 0
        if op is Opcode.OR:
            return 1 if (values[0] or values[1]) else 0
        if op is Opcode.CEQ:
            return 1 if values[0] == values[1] else 0
        if op is Opcode.CNE:
            return 1 if values[0] != values[1] else 0
        if op is Opcode.CLT:
            return 1 if values[0] < values[1] else 0
        if op is Opcode.CLE:
            return 1 if values[0] <= values[1] else 0
        if op is Opcode.CGT:
            return 1 if values[0] > values[1] else 0
        if op is Opcode.CGE:
            return 1 if values[0] >= values[1] else 0
        if op is Opcode.ITOF:
            return float(values[0])
        if op is Opcode.FTOI:
            return int(values[0])
    except (OverflowError, ValueError):
        return None
    return None


def _truncated_div(a: int, b: int) -> int:
    """C-style truncated integer division (the Warp ALU semantics)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _truncated_mod(a: int, b: int) -> int:
    """C-style remainder: ``a - trunc(a/b)*b``."""
    return a - _truncated_div(a, b) * b
