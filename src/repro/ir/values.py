"""IR values: virtual registers, constants, and array frame slots.

The IR is a conventional three-address code over an unbounded set of typed
virtual registers.  Scalars (parameters and scalar locals) are promoted to
virtual registers during lowering; arrays live in the cell's data memory
and are addressed through :class:`FrameArray` slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

#: Scalar IR types: 'i' (32-bit integer) and 'f' (floating point).
IR_INT = "i"
IR_FLOAT = "f"


@dataclass(frozen=True)
class VReg:
    """A typed virtual register, unique within one function."""

    id: int
    type: str  # IR_INT or IR_FLOAT

    def __hash__(self) -> int:
        # Registers are dict and set keys in every pass: hash by the id
        # (equal registers have equal ids), not through a (id, type) tuple.
        return self.id

    def __str__(self) -> str:
        return f"%{self.type}{self.id}"


@dataclass(frozen=True)
class Const:
    """An immediate operand."""

    value: Union[int, float]
    type: str

    def __str__(self) -> str:
        return f"#{self.value}"


#: Any operand of a three-address instruction.
Value = Union[VReg, Const]


@dataclass(frozen=True)
class FrameArray:
    """A statically allocated array in the cell's local data memory."""

    name: str
    element_type: str
    length: int
    offset: int  # word offset within the function's frame

    def __str__(self) -> str:
        return f"@{self.name}[{self.length}]"


def const_int(value: int) -> Const:
    return Const(int(value), IR_INT)
