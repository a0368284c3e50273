"""Global constant propagation (iterative dataflow over the CFG).

Local copy propagation only sees one block; this pass carries known
constants across branches, joins, and into loops, using the classic
three-level lattice (unvisited / known constant / varying) with a
worklist.  Combined with the folder and CFG simplification it deletes
whole never-taken branches — one more of the "more time consuming
optimizations" (§6) the parallel compiler makes affordable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..ir.cfg import BasicBlock, FunctionIR
from ..ir.instructions import Instr, Opcode, evaluate_constant
from ..ir.values import Const, IR_INT, VReg

Number = Union[int, float]
#: A state maps registers to definitely-known values; absence = varying.
State = Dict[VReg, Number]

#: Ops whose result is computable when every operand is known.
_EVALUATABLE = {
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
    Opcode.MOV,
    Opcode.LI,
    Opcode.ITOF,
    Opcode.FTOI,
}


def propagate_constants_globally(function: FunctionIR) -> int:
    """Rewrite register uses that are provably constant; returns changes."""
    in_states = _solve(function)
    changes = 0
    for block in function.blocks:
        state = dict(in_states.get(block.name, {}))
        for index, instr in enumerate(block.instructions):
            new_operands = tuple(
                Const(state[v], v.type)
                if isinstance(v, VReg) and v in state
                else v
                for v in instr.operands
            )
            if new_operands != instr.operands:
                block.instructions[index] = instr.with_operands(new_operands)
                instr = block.instructions[index]
                changes += 1
            _transfer(instr, state)
    return changes


def _solve(function: FunctionIR) -> Dict[str, State]:
    """Fixpoint of per-block entry states.

    Entry block starts with nothing known (parameters vary).  A block's
    entry state is the agreement (intersection on equal values) of every
    *visited* predecessor's exit state; unvisited predecessors are
    optimistically ignored until they get an exit state, and the worklist
    re-runs successors whenever an exit state shrinks.
    """
    preds = function.predecessors()
    block_map = function.block_map()
    in_states: Dict[str, State] = {function.entry.name: {}}
    out_states: Dict[str, State] = {}

    worklist: List[str] = [function.entry.name]
    queued = set(worklist)
    guard = 0
    guard_limit = 40 * max(1, len(function.blocks)) * (
        1 + function.instruction_count()
    )
    while worklist:
        guard += 1
        if guard > guard_limit:  # pragma: no cover - safety net
            raise RuntimeError("constant propagation failed to converge")
        name = worklist.pop(0)
        queued.discard(name)
        block = block_map[name]
        if name != function.entry.name:
            in_states[name] = _meet(
                [out_states[p] for p in preds[name] if p in out_states]
            )
        state = dict(in_states[name])
        for instr in block.instructions:
            _transfer(instr, state)
        if out_states.get(name) != state:
            out_states[name] = state
            for succ in block.successors():
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return in_states


def _meet(states: List[State]) -> State:
    if not states:
        return {}
    merged = dict(states[0])
    for state in states[1:]:
        for reg in list(merged):
            if reg not in state or state[reg] != merged[reg]:
                del merged[reg]
    return merged


def _transfer(instr: Instr, state: State) -> None:
    """Update ``state`` across one instruction."""
    dest = instr.dest
    if dest is None:
        return
    if instr.op in _EVALUATABLE:
        values = []
        known = True
        for operand in instr.operands:
            if isinstance(operand, Const):
                values.append(operand.value)
            elif isinstance(operand, VReg) and operand in state:
                values.append(state[operand])
            else:
                known = False
                break
        if known:
            result = evaluate_constant(instr.op, values)
            if result is not None:
                state[dest] = (
                    int(result) if dest.type == IR_INT else float(result)
                )
                return
    state.pop(dest, None)
