"""Abstract syntax tree for the W2-like Warp source language.

The tree mirrors the paper's program structure (§3.1, Figure 1):

    Module
      Section (a group of Warp cells)
        Function
          declarations + statements

Sections execute independently on disjoint groups of processing elements;
functions within a section may call one another.  This structure is what
the parallel compiler partitions along.
Every node's ``span`` is its ``(start, end)`` offsets in the parsed text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .types import Type

Offsets = Tuple[int, int]

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class; ``type`` is filled in by semantic analysis."""

    span: Offsets
    type: Optional[Type] = field(default=None, init=False, compare=False)


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float = 0.0


@dataclass
class VarRef(Expr):
    name: str = ""


@dataclass
class IndexExpr(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class UnaryExpr(Expr):
    op: str = ""  # '-' or 'not'
    operand: Optional[Expr] = None


@dataclass
class BinaryExpr(Expr):
    op: str = ""  # + - * / % = <> < <= > >= and or
    left: Optional[Expr] = None
    right: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt:
    span: Offsets


@dataclass
class AssignStmt(Stmt):
    target: Optional[Expr] = None  # VarRef or IndexExpr
    value: Optional[Expr] = None


@dataclass
class IfStmt(Stmt):
    condition: Optional[Expr] = None
    then_body: List[Stmt] = field(default_factory=list)
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    """Counted loop ``for i := lo to hi by step do ... end`` (step defaults 1)."""

    var: str = ""
    low: Optional[Expr] = None
    high: Optional[Expr] = None
    step: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class WhileStmt(Stmt):
    condition: Optional[Expr] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class SendStmt(Stmt):
    """Enqueue a scalar onto the cell's output queue (systolic I/O)."""

    value: Optional[Expr] = None


@dataclass
class ReceiveStmt(Stmt):
    """Dequeue a scalar from the cell's input queue into an lvalue."""

    target: Optional[Expr] = None


@dataclass
class CallStmt(Stmt):
    call: Optional[CallExpr] = None


# --------------------------------------------------------------------------
# Declarations and program structure
# --------------------------------------------------------------------------


@dataclass
class VarDecl:
    name: str
    type: Type
    span: Offsets


@dataclass
class Param:
    name: str
    type: Type
    span: Offsets


@dataclass
class Function:
    name: str
    params: List[Param]
    return_type: Type  # VOID when no return value declared
    locals: List[VarDecl]
    body: List[Stmt]
    span: Offsets
    lines: int  # counted once by the parser

    def line_count(self) -> int:
        """Source lines covered by this function (the paper's LOC metric)."""
        return self.lines


@dataclass
class Section:
    """A section program: the code for one group of Warp cells."""

    name: str
    first_cell: int
    last_cell: int
    functions: List[Function]
    span: Offsets

    @property
    def cell_count(self) -> int:
        return self.last_cell - self.first_cell + 1

    def function_named(self, name: str) -> Optional[Function]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


@dataclass
class Module:
    """A complete Warp program: the unit of (parallel) compilation."""

    name: str
    sections: List[Section]
    span: Offsets

    def section_named(self, name: str) -> Optional[Section]:
        for section in self.sections:
            if section.name == name:
                return section
        return None

    def all_functions(self):
        """Yield ``(section, function)`` pairs in source order."""
        for section in self.sections:
            for fn in section.functions:
                yield section, fn

    def function_count(self) -> int:
        return sum(len(s.functions) for s in self.sections)
