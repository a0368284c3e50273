"""Natural-loop detection and loop-nest analysis.

The Warp workloads are deeply nested loop kernels; the software pipeliner
(phase 3) targets *innermost* loops whose body is a single basic block.
This module finds natural loops from back edges, nests them, and classifies
which are pipelinable.  The loop-nest depth also feeds the load-balancing
heuristic of the parallel driver (paper §4.3: "a combination of lines of
code and loop nesting can serve as approximation of the compilation time").

The nest is found once per CFG shape, on the first read of a
:class:`~repro.ir.cfg.Cfg`'s ``loops``, which every reader takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .cfg import Cfg
from .instructions import Opcode


@dataclass
class Loop:
    """One natural loop: header block plus the set of body blocks."""

    header: str
    blocks: Set[str] = field(default_factory=set)
    parent: Optional["Loop"] = None
    children: List["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Nesting depth; an outermost loop has depth 1."""
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def is_innermost(self) -> bool:
        return not self.children

    def __contains__(self, block_name: str) -> bool:
        return block_name in self.blocks


@dataclass
class LoopNest:
    """All loops of one function, organized as a forest."""

    roots: List[Loop] = field(default_factory=list)
    by_header: Dict[str, Loop] = field(default_factory=dict)

    def all_loops(self) -> List[Loop]:
        result: List[Loop] = []
        stack = list(self.roots)
        while stack:
            loop = stack.pop()
            result.append(loop)
            stack.extend(loop.children)
        return result

    def innermost_loops(self) -> List[Loop]:
        return [loop for loop in self.all_loops() if loop.is_innermost()]

    def max_depth(self) -> int:
        return max((loop.depth for loop in self.all_loops()), default=0)


def find_loops(cfg: Cfg) -> LoopNest:
    """Detect natural loops from back edges and nest them by inclusion
    (read ``cfg.loops``, which calls this once)."""
    dom = cfg.dominators
    preds = cfg.preds

    # A back edge is (tail -> header) where header dominates tail.
    loops_by_header: Dict[str, Loop] = {}
    for name in cfg.order:
        for succ in cfg.succs[name]:
            if dom.dominates(succ, name):
                loop = loops_by_header.setdefault(succ, Loop(header=succ))
                _collect_loop_body(loop, name, preds)

    # Nest loops: sort by body size so parents (larger) are assigned last.
    loops = sorted(loops_by_header.values(), key=lambda l: len(l.blocks))
    for i, inner in enumerate(loops):
        for outer in loops[i + 1:]:
            if inner.header in outer.blocks and inner is not outer:
                inner.parent = outer
                outer.children.append(inner)
                break

    nest = LoopNest(
        roots=[l for l in loops if l.parent is None],
        by_header=loops_by_header,
    )
    # Keep children in deterministic (block layout) order.
    layout = cfg.index
    for loop in nest.all_loops():
        loop.children.sort(key=lambda l: layout[l.header])
    nest.roots.sort(key=lambda l: layout[l.header])
    return nest


def _collect_loop_body(loop: Loop, tail: str, preds: Dict[str, List[str]]) -> None:
    """Add to ``loop`` all blocks that reach ``tail`` without the header."""
    loop.blocks.add(loop.header)
    if tail in loop.blocks:
        return
    worklist = [tail]
    loop.blocks.add(tail)
    while worklist:
        name = worklist.pop()
        for pred in preds[name]:
            if pred not in loop.blocks:
                loop.blocks.add(pred)
                worklist.append(pred)


def is_pipelinable(cfg: Cfg, loop: Loop) -> bool:
    """True if phase 3 can software-pipeline this loop.

    Requirements (matching the original compiler's restrictions): the loop
    is innermost, its body is exactly one block besides the header, the
    body has no calls (calls break the modulo schedule), and control flow
    inside the body is straight-line.
    """
    if not loop.is_innermost():
        return False
    body_blocks = loop.blocks - {loop.header}
    if len(body_blocks) != 1:
        return False
    body = cfg.blocks[next(iter(body_blocks))]
    # The body must jump back to the header unconditionally.
    term = body.terminator
    if term is None or term.op is not Opcode.JMP or term.labels != (loop.header,):
        return False
    return all(instr.op is not Opcode.CALL for instr in body.instructions)


def loop_nest_weight(cfg: Cfg) -> int:
    """The scheduler's cost proxy: sum over blocks of 4**depth.

    Approximates how many times each instruction will be processed by the
    optimizer and how much the pipeliner will chew on it.  Used by the
    load-balancing heuristic (paper §4.3).
    """
    # A block's depth is its deepest loop's: shallow loops go first.
    depth_of: Dict[str, int] = {}
    for loop in sorted(cfg.loops.all_loops(), key=lambda l: l.depth):
        depth_of.update(dict.fromkeys(loop.blocks, loop.depth))
    weight = 0
    for block in cfg.blocks.values():
        weight += len(block.instructions) * (4 ** depth_of.get(block.name, 0))
    return weight
