"""The Warp cell model: functional units, latencies, registers, memory.

Latencies follow the flavor of the original hardware — single-cycle
integer ALU, deeply pipelined floating-point units, a two-cycle memory
port — without claiming cycle fidelity to the CMU/GE hardware.  Every
number here is a constructor parameter, so experiments can explore other
cell designs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..ir.instructions import Opcode
from ..ir.values import IR_FLOAT, IR_INT
from .resources import FUClass, OpSpec

#: (opcode, ir type) -> OpSpec for the default cell.  The IR type is the
#: destination type for computes, the element type for memory ops, and
#: IR_INT for control flow (which has no data type).
_DEFAULT_SPECS: Dict[Tuple[Opcode, str], OpSpec] = {
    # Integer ALU
    (Opcode.ADD, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.SUB, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.MUL, IR_INT): OpSpec(FUClass.IALU, 2),
    (Opcode.DIV, IR_INT): OpSpec(FUClass.IALU, 8),
    (Opcode.MOD, IR_INT): OpSpec(FUClass.IALU, 8),
    (Opcode.NEG, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.NOT, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.AND, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.OR, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.MOV, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.LI, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CEQ, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CNE, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CLT, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CLE, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CGT, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.CGE, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.FTOI, IR_INT): OpSpec(FUClass.FALU, 3),
    (Opcode.ABS, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.MIN, IR_INT): OpSpec(FUClass.IALU, 1),
    (Opcode.MAX, IR_INT): OpSpec(FUClass.IALU, 1),
    # Floating adder (and converter); comparisons on floats produce ints
    # but issue on the float adder.
    (Opcode.ADD, IR_FLOAT): OpSpec(FUClass.FALU, 5),
    (Opcode.SUB, IR_FLOAT): OpSpec(FUClass.FALU, 5),
    (Opcode.NEG, IR_FLOAT): OpSpec(FUClass.FALU, 2),
    (Opcode.MOV, IR_FLOAT): OpSpec(FUClass.FALU, 1),
    (Opcode.LI, IR_FLOAT): OpSpec(FUClass.FALU, 1),
    (Opcode.ITOF, IR_FLOAT): OpSpec(FUClass.FALU, 3),
    (Opcode.ABS, IR_FLOAT): OpSpec(FUClass.FALU, 2),
    (Opcode.MIN, IR_FLOAT): OpSpec(FUClass.FALU, 2),
    (Opcode.MAX, IR_FLOAT): OpSpec(FUClass.FALU, 2),
    # Floating multiplier / divider
    (Opcode.MUL, IR_FLOAT): OpSpec(FUClass.FMUL, 5),
    (Opcode.DIV, IR_FLOAT): OpSpec(FUClass.FMUL, 12),
    # The square-root unit sits beside the multiplier.
    (Opcode.SQRT, IR_FLOAT): OpSpec(FUClass.FMUL, 14),
    # Memory port
    (Opcode.LOAD, IR_INT): OpSpec(FUClass.MEM, 2),
    (Opcode.LOAD, IR_FLOAT): OpSpec(FUClass.MEM, 2),
    (Opcode.STORE, IR_INT): OpSpec(FUClass.MEM, 1),
    (Opcode.STORE, IR_FLOAT): OpSpec(FUClass.MEM, 1),
    # Inter-cell queues
    (Opcode.SEND, IR_INT): OpSpec(FUClass.IO, 1),
    (Opcode.SEND, IR_FLOAT): OpSpec(FUClass.IO, 1),
    (Opcode.RECV, IR_INT): OpSpec(FUClass.IO, 2),
    (Opcode.RECV, IR_FLOAT): OpSpec(FUClass.IO, 2),
    # Sequencer
    (Opcode.JMP, IR_INT): OpSpec(FUClass.SEQ, 1),
    (Opcode.BR, IR_INT): OpSpec(FUClass.SEQ, 1),
    (Opcode.RET, IR_INT): OpSpec(FUClass.SEQ, 1),
    (Opcode.CALL, IR_INT): OpSpec(FUClass.SEQ, 4),
}

#: Float comparisons issue on the FALU with a longer latency.
_FLOAT_COMPARE_SPEC = OpSpec(FUClass.FALU, 2)
_FLOAT_COMPARES = {
    Opcode.CEQ,
    Opcode.CNE,
    Opcode.CLT,
    Opcode.CLE,
    Opcode.CGT,
    Opcode.CGE,
}


@dataclass
class WarpCellModel:
    """Parameters of one processing element."""

    int_registers: int = 64
    float_registers: int = 64
    data_memory_words: int = 32 * 1024
    queue_capacity: int = 512
    specs: Dict[Tuple[Opcode, str], OpSpec] = field(
        default_factory=lambda: dict(_DEFAULT_SPECS)
    )

    def spec_for(self, op: Opcode, ir_type: str, operand_type: str = None) -> OpSpec:
        """The issue slot and latency for an operation.

        ``ir_type`` is the result type; ``operand_type`` lets float
        comparisons (int result, float inputs) route to the float adder.
        """
        if op in _FLOAT_COMPARES and operand_type == IR_FLOAT:
            return _FLOAT_COMPARE_SPEC
        key = (op, ir_type)
        if key in self.specs:
            return self.specs[key]
        fallback = (op, IR_INT)
        if fallback in self.specs:
            return self.specs[fallback]
        raise KeyError(f"no functional-unit spec for {op} ({ir_type})")

    def registers_in_bank(self, bank: str) -> int:
        if bank == "i":
            return self.int_registers
        if bank == "f":
            return self.float_registers
        raise ValueError(f"unknown register bank {bank!r}")
