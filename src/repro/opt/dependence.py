"""Loop dependence analysis for software pipelining.

Given an innermost, single-block loop body, builds the dependence graph
the modulo scheduler needs: edges between body instructions labelled with
a *kind* (true / anti / output / memory / io) and an *iteration distance*
(0 = same iteration, d>0 = the sink executes d iterations after the
source).

Array subscripts are classified against the loop induction variable with a
simple single-index-variable (SIV) test: subscripts of the form ``i + c``
with constant ``c`` lead to exact dependence distances; anything else is
treated conservatively.  This mirrors "computation of global dependencies"
in phase 2 of the paper's compiler (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.cfg import BasicBlock, Cfg
from ..ir.instructions import Instr, Opcode
from ..ir.loops import Loop
from ..ir.values import Const, VReg

#: Dependence kinds.
TRUE = "true"
ANTI = "anti"
OUTPUT = "output"
MEMORY = "memory"
IO = "io"

_SIDE_EFFECT_OPS = {Opcode.SEND, Opcode.RECV, Opcode.CALL}


@dataclass(frozen=True)
class DependenceEdge:
    """``sink`` must issue no earlier than ``distance`` iterations after
    ``source`` (plus a latency offset the scheduler computes)."""

    source: int  # index into the body instruction list
    sink: int
    kind: str
    distance: int


@dataclass
class DependenceGraph:
    """Dependence edges over one loop body's instruction list."""

    instructions: List[Instr]
    edges: List[DependenceEdge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._seen = {
            (e.source, e.sink, e.kind, e.distance) for e in self.edges
        }

    def add(self, source: int, sink: int, kind: str, distance: int) -> None:
        key = (source, sink, kind, distance)
        if key not in self._seen:
            self._seen.add(key)
            self.edges.append(DependenceEdge(source, sink, kind, distance))


@dataclass(frozen=True)
class Subscript:
    """Classification of an array index against the induction register."""

    kind: str  # 'affine' (i + offset), 'const', 'invariant', 'unknown'
    offset: int = 0  # for 'affine' and 'const'
    reg: Optional[VReg] = None  # for 'invariant'


def find_induction_register(cfg: Cfg, loop: Loop) -> Optional[Tuple[VReg, int]]:
    """The loop's induction register and its per-iteration step.

    Recognizes the pattern lowering emits: a header comparing ``var`` to a
    bound and a body ending with ``var := var + step``.  Returns None when
    the loop does not match (the pipeliner then falls back to list
    scheduling).
    """
    header = cfg.blocks[loop.header]
    term = header.terminator
    if term is None or term.op is not Opcode.BR:
        return None
    compare = None
    for instr in header.body:
        if instr.dest is not None and instr.dest == term.operands[0]:
            compare = instr
    if compare is None or compare.op not in (Opcode.CLE, Opcode.CGE):
        return None
    var = compare.operands[0]
    if not isinstance(var, VReg):
        return None

    body_blocks = loop.blocks - {loop.header}
    if len(body_blocks) != 1:
        return None
    body = cfg.blocks[next(iter(body_blocks))]
    # Find the trailing 'var := var + step' pattern:  add t, var, #s ; mov var, t
    step = _find_step(body, var)
    if step is None:
        return None
    return var, step


def _find_step(body: BasicBlock, var: VReg) -> Optional[int]:
    instructions = body.body
    add_dest: Optional[VReg] = None
    step: Optional[int] = None
    for instr in instructions:
        if (
            instr.op is Opcode.ADD
            and len(instr.operands) == 2
            and instr.operands[0] == var
            and isinstance(instr.operands[1], Const)
        ):
            add_dest = instr.dest
            step = int(instr.operands[1].value)
        elif (
            instr.op is Opcode.MOV
            and instr.dest == var
            and add_dest is not None
            and instr.operands[0] == add_dest
        ):
            return step
        elif instr.dest == var:
            add_dest = None  # var redefined some other way
            step = None
    return None


def classify_subscript(
    body: BasicBlock, index_value, induction: Optional[VReg]
) -> Subscript:
    """Classify an array index operand relative to the induction variable."""
    if isinstance(index_value, Const):
        return Subscript(kind="const", offset=int(index_value.value))
    if not isinstance(index_value, VReg):
        return Subscript(kind="unknown")
    if induction is not None and index_value == induction:
        return Subscript(kind="affine", offset=0)
    definitions = [i for i in body.instructions if i.dest == index_value]
    if len(definitions) != 1:
        # Defined outside the body (and not redefined inside): invariant.
        if not definitions:
            return Subscript(kind="invariant", reg=index_value)
        return Subscript(kind="unknown")
    if induction is None:
        return Subscript(kind="unknown")
    defining = definitions[0]
    if defining.op is Opcode.ADD and len(defining.operands) == 2:
        a, b = defining.operands
        if a == induction and isinstance(b, Const):
            return Subscript(kind="affine", offset=int(b.value))
        if b == induction and isinstance(a, Const):
            return Subscript(kind="affine", offset=int(a.value))
    if defining.op is Opcode.SUB and len(defining.operands) == 2:
        a, b = defining.operands
        if a == induction and isinstance(b, Const):
            return Subscript(kind="affine", offset=-int(b.value))
    return Subscript(kind="unknown")


def build_dependence_graph(cfg: Cfg, loop: Loop) -> Optional[DependenceGraph]:
    """Dependence graph for a pipelinable loop's body, or None if the loop
    shape is not analyzable."""
    body_blocks = loop.blocks - {loop.header}
    if len(body_blocks) != 1:
        return None
    body = cfg.blocks[next(iter(body_blocks))]
    instructions = body.body  # excludes the back-edge jump
    graph = DependenceGraph(instructions=instructions)

    induction_info = find_induction_register(cfg, loop)
    induction = induction_info[0] if induction_info else None
    step = induction_info[1] if induction_info else 1

    _register_dependences(graph, instructions)
    _memory_dependences(graph, body, instructions, induction, step)
    _io_dependences(graph, instructions)
    return graph


def _register_dependences(graph: DependenceGraph, instructions: List[Instr]) -> None:
    defs_of: Dict[VReg, List[int]] = {}
    uses_of: Dict[VReg, List[int]] = {}
    for i, instr in enumerate(instructions):
        if instr.dest is not None:
            defs_of.setdefault(instr.dest, []).append(i)
        for reg in instr.uses():
            uses_of.setdefault(reg, []).append(i)

    for reg, def_sites in defs_of.items():
        use_sites = uses_of.get(reg, [])
        # True deps: each use depends on the latest earlier def (distance 0)
        # or on the last def of the previous iteration (distance 1).
        last_def = def_sites[-1]
        for use in use_sites:
            earlier = [d for d in def_sites if d < use]
            if earlier:
                graph.add(earlier[-1], use, TRUE, 0)
            else:
                graph.add(last_def, use, TRUE, 1)
        # Anti deps: a def must wait for earlier reads of the old value.
        for use in use_sites:
            later_defs = [d for d in def_sites if d >= use]
            if later_defs:
                if later_defs[0] != use:
                    graph.add(use, later_defs[0], ANTI, 0)
            else:
                first_def = def_sites[0]
                graph.add(use, first_def, ANTI, 1)
        # Output deps between successive defs, wrapping across iterations.
        for a, b in zip(def_sites, def_sites[1:]):
            graph.add(a, b, OUTPUT, 0)
        graph.add(def_sites[-1], def_sites[0], OUTPUT, 1)


def _memory_dependences(
    graph: DependenceGraph,
    body: BasicBlock,
    instructions: List[Instr],
    induction: Optional[VReg],
    step: int,
) -> None:
    # Each subscript is classified once, not once per pair it is in.
    accesses = [
        (i, instr, classify_subscript(body, instr.operands[0], induction))
        for i, instr in enumerate(instructions)
        if instr.op in (Opcode.LOAD, Opcode.STORE)
    ]
    for x in range(len(accesses)):
        i, a, sub_a = accesses[x]
        for y in range(x + 1, len(accesses)):
            j, b, sub_b = accesses[y]
            if a.op is Opcode.LOAD and b.op is Opcode.LOAD:
                continue
            if a.array.name != b.array.name:
                continue
            _memory_pair(graph, step, i, sub_a, j, sub_b)


def _memory_pair(
    graph: DependenceGraph,
    step: int,
    i: int,
    sub_a: Subscript,
    j: int,
    sub_b: Subscript,
) -> None:
    if sub_a.kind == "affine" and sub_b.kind == "affine" and step != 0:
        delta = sub_a.offset - sub_b.offset  # a touches what b touches later
        if delta % step != 0:
            return  # provably independent
        d = delta // step
        if d == 0:
            graph.add(i, j, MEMORY, 0)
        elif d > 0:
            # a in iteration k touches the cell b touches in iteration k+d.
            graph.add(i, j, MEMORY, d)
        else:
            graph.add(j, i, MEMORY, -d)
        return
    if sub_a.kind == "const" and sub_b.kind == "const":
        if sub_a.offset != sub_b.offset:
            return
        graph.add(i, j, MEMORY, 0)
        graph.add(j, i, MEMORY, 1)
        return
    if (
        sub_a.kind == "invariant"
        and sub_b.kind == "invariant"
        and sub_a.reg == sub_b.reg
    ):
        graph.add(i, j, MEMORY, 0)
        graph.add(j, i, MEMORY, 1)
        return
    # Unknown subscripts: serialize within and across iterations.
    graph.add(i, j, MEMORY, 0)
    graph.add(j, i, MEMORY, 1)


def _io_dependences(graph: DependenceGraph, instructions: List[Instr]) -> None:
    """Sends, receives, and calls keep their program order (queues!)."""
    effects = [
        i for i, instr in enumerate(instructions) if instr.op in _SIDE_EFFECT_OPS
    ]
    for a, b in zip(effects, effects[1:]):
        graph.add(a, b, IO, 0)
    if len(effects) >= 1:
        graph.add(effects[-1], effects[0], IO, 1)
