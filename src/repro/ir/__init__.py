"""Three-address intermediate representation and CFG analyses."""

from .builder import IRBuilder
from .cfg import BasicBlock, Cfg, FunctionIR, ModuleIR
from .dominators import DominatorTree
from .instructions import (
    COMMUTATIVE,
    COMPARISONS,
    Instr,
    Opcode,
    SIDE_EFFECTS,
    TERMINATORS,
    evaluate_constant,
)
from .loops import Loop, LoopNest, find_loops, is_pipelinable, loop_nest_weight
from .lowering import LoweringError, ir_type_of, lower_function, lower_module
from .printer import print_function, print_module
from .values import (
    Const,
    FrameArray,
    IR_FLOAT,
    IR_INT,
    VReg,
    Value,
    const_int,
)

__all__ = [
    "BasicBlock",
    "COMMUTATIVE",
    "COMPARISONS",
    "Cfg",
    "Const",
    "DominatorTree",
    "FrameArray",
    "FunctionIR",
    "IRBuilder",
    "IR_FLOAT",
    "IR_INT",
    "Instr",
    "Loop",
    "LoopNest",
    "LoweringError",
    "ModuleIR",
    "Opcode",
    "SIDE_EFFECTS",
    "TERMINATORS",
    "VReg",
    "Value",
    "const_int",
    "evaluate_constant",
    "find_loops",
    "ir_type_of",
    "is_pipelinable",
    "loop_nest_weight",
    "lower_function",
    "lower_module",
    "print_function",
    "print_module",
]
