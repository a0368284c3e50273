"""Basic blocks and the control-flowgraph (compiler phase 2 substrate).

A :class:`FunctionIR` owns an ordered list of named basic blocks; the CFG
edges are implied by each block's terminator labels.  Block order is
meaningful: it is the layout order used for code emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from .instructions import TERMINATORS, Instr, Opcode
from .values import FrameArray, IR_FLOAT, IR_INT, VReg


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator."""

    name: str
    instructions: List[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        instructions = self.instructions
        if instructions and instructions[-1].op in TERMINATORS:
            return instructions[-1]
        return None

    @property
    def body(self) -> List[Instr]:
        """Instructions excluding the terminator."""
        if self.terminator is not None:
            return self.instructions[:-1]
        return list(self.instructions)

    def successors(self) -> Tuple[str, ...]:
        instructions = self.instructions
        if instructions and instructions[-1].op in TERMINATORS:
            return instructions[-1].labels
        return ()

    def __str__(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(f"  {instr}" for instr in self.instructions)
        return "\n".join(lines)


@dataclass
class FunctionIR:
    """The IR of one source function: the unit of parallel compilation."""

    name: str
    section_name: str
    param_regs: List[VReg] = field(default_factory=list)
    return_type: Optional[str] = None  # IR type or None for void
    blocks: List[BasicBlock] = field(default_factory=list)
    arrays: List[FrameArray] = field(default_factory=list)
    next_vreg_id: int = 0
    source_lines: int = 0

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self.blocks[0]

    def block_named(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name!r} in function {self.name!r}")

    def block_map(self) -> Dict[str, BasicBlock]:
        return {block.name: block for block in self.blocks}

    def new_vreg(self, ir_type: str) -> VReg:
        reg = VReg(self.next_vreg_id, ir_type)
        self.next_vreg_id += 1
        return reg

    def predecessors(self) -> Dict[str, List[str]]:
        """Map from block name to the names of its CFG predecessors."""
        preds: Dict[str, List[str]] = {block.name: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block.name)
        return preds

    def all_instructions(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(block.instructions) for block in self.blocks)

    def frame_words(self) -> int:
        """Data-memory words needed for this function's arrays."""
        return sum(array.length for array in self.arrays)

    def remove_unreachable_blocks(self) -> int:
        """Drop blocks not reachable from entry; returns how many were cut."""
        if not self.blocks:
            return 0
        block_map = self.block_map()
        reachable = set()
        worklist = [self.blocks[0].name]
        while worklist:
            name = worklist.pop()
            if name in reachable:
                continue
            reachable.add(name)
            worklist.extend(block_map[name].successors())
        before = len(self.blocks)
        self.blocks = [b for b in self.blocks if b.name in reachable]
        return before - len(self.blocks)

    def validate(self) -> None:
        """Structural invariants; raises ValueError on violation."""
        if not self.blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate block names in {self.name!r}")
        block_map = self.block_map()
        for block in self.blocks:
            term = block.terminator
            if term is None:
                raise ValueError(
                    f"block {block.name!r} of {self.name!r} lacks a terminator"
                )
            for instr in block.instructions[:-1]:
                if instr.is_terminator():
                    raise ValueError(
                        f"terminator {instr} in the middle of block {block.name!r}"
                    )
            for label in term.labels:
                if label not in block_map:
                    raise ValueError(
                        f"block {block.name!r} jumps to unknown block {label!r}"
                    )
            if term.op is Opcode.BR and len(term.labels) != 2:
                raise ValueError(f"br needs two labels: {term}")
            if term.op is Opcode.JMP and len(term.labels) != 1:
                raise ValueError(f"jmp needs one label: {term}")


class Cfg:
    """One function's CFG facts for as long as the CFG keeps its shape:
    block order and index, block map, predecessors and successors, and
    (built on first read) dominators, loops and preheaders.  Whoever
    rewrites the blocks or their labels builds the next one; the map
    holds the blocks themselves, so editing instructions keeps it."""

    def __init__(self, function: FunctionIR):
        self.order = [block.name for block in function.blocks]
        self.index = {name: i for i, name in enumerate(self.order)}
        self.blocks = {block.name: block for block in function.blocks}
        self.succs = {block.name: block.successors() for block in function.blocks}
        self.preds: Dict[str, List[str]] = {name: [] for name in self.order}
        for name, succs in self.succs.items():
            for succ in succs:
                self.preds[succ].append(name)

    @cached_property
    def dominators(self):
        from .dominators import DominatorTree

        return DominatorTree(self)

    @cached_property
    def loops(self):
        from .loops import find_loops

        return find_loops(self)

    @cached_property
    def preheaders(self) -> Dict[str, BasicBlock]:
        """Loop header -> its preheader: the header's one predecessor
        outside the loop, if that ends in a ``jmp``."""
        found = {}
        for loop in self.loops.all_loops():
            outside = [p for p in self.preds[loop.header] if p not in loop.blocks]
            if len(outside) == 1:
                term = self.blocks[outside[0]].terminator
                if term is not None and term.op is Opcode.JMP:
                    found[loop.header] = self.blocks[outside[0]]
        return found


@dataclass
class ModuleIR:
    """IR for a whole module, grouped by section (mirrors the source)."""

    name: str
    #: section name -> (first_cell, last_cell)
    section_cells: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: section name -> list of FunctionIR in source order
    functions: Dict[str, List[FunctionIR]] = field(default_factory=dict)

    def all_functions(self) -> Iterator[FunctionIR]:
        for fns in self.functions.values():
            yield from fns

    def function_named(self, section: str, name: str) -> FunctionIR:
        for fn in self.functions.get(section, []):
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in section {section!r}")
