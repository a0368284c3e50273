"""Functional-unit resources of a Warp processing element.

Each cell is a VLIW engine: one instruction (bundle) per cycle may issue
at most one operation per functional unit.  The paper's motivation for
expensive compilation is exactly this: "supercomputers with multiple
pipelined functional units ... give a compiler an opportunity to produce
good (and sometimes even optimal) code, but determining the appropriate
code sequence can be expensive" (§1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class FUClass(enum.Enum):
    """The six issue slots of a cell's wide instruction."""

    IALU = "ialu"  # integer ALU (also integer multiply/divide)
    FALU = "falu"  # floating adder / converter / comparator
    FMUL = "fmul"  # floating multiplier / divider
    MEM = "mem"  # local data-memory port
    IO = "io"  # inter-cell queue port
    SEQ = "seq"  # sequencer: branches, calls, returns

    # Members are singletons: hash by identity, in C, not through
    # Enum.__hash__ (a Python-level hash of the name) on every dict probe.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: The issue slots in their fixed order (digests, reservation-table rows).
FU_SLOTS = tuple(FUClass)


@dataclass(frozen=True)
class OpSpec:
    """Where an operation issues and how long its result takes."""

    fu: FUClass
    latency: int  # cycles until the result is readable / visible

    def __post_init__(self):
        if self.latency < 1:
            raise ValueError(f"latency must be >= 1, got {self.latency}")


@dataclass(frozen=True)
class PhysReg:
    """A physical register: bank 'i' (integer) or 'f' (floating)."""

    bank: str
    index: int

    def __hash__(self) -> int:
        # Equal registers have equal indexes: hash by the index, not
        # through a (bank, index) tuple, in the schedulers' edge builders.
        return self.index

    def __str__(self) -> str:
        return f"{self.bank}r{self.index}"
