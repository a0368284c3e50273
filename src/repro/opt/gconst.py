"""Global constant propagation (iterative dataflow over the CFG).

Local copy propagation only sees one block; this pass carries known
constants across branches, joins, and into loops, using the classic
three-level lattice (unvisited / known constant / varying) with a
worklist.  Combined with the folder and CFG simplification it deletes
whole never-taken branches — one more of the "more time consuming
optimizations" (§6) the parallel compiler makes affordable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..ir.cfg import BasicBlock, FunctionIR
from ..ir.instructions import Opcode, evaluate_constant
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


#: One instruction as the fixpoint sees it: the register written (if any),
#: the opcode when its result is computable from known operands (else
#: None), and the operands with constants unwrapped to their values.
Row = Tuple[Optional[VReg], Optional[Opcode], Tuple[Union[VReg, Number], ...]]


def propagate_constants_globally(function: FunctionIR) -> int:
    """Rewrite register uses that are provably constant; returns changes."""
    in_states, decoded = _solve(function)
    changes = 0
    for block in function.blocks:
        rows = decoded.get(block.name)
        if rows is None:  # unreachable: the fixpoint never came here
            rows = _decode(block)
        changes += _transfer(rows, dict(in_states.get(block.name, {})), block)
    return changes


def _solve(
    function: FunctionIR,
) -> Tuple[Dict[str, State], Dict[str, List[Row]]]:
    """Fixpoint of per-block entry states, and the blocks as it decoded them.

    Entry block starts with nothing known (parameters vary).  A block's
    entry state is the agreement (intersection on equal values) of every
    *visited* predecessor's exit state; unvisited predecessors are
    optimistically ignored until they get an exit state, and the worklist
    re-runs successors whenever an exit state shrinks.  A block is
    revisited as the states around a loop descend, so it is decoded once,
    on its first visit, and every visit whose entry state changed runs
    over the rows (an unchanged entry state cannot change the exit state).
    """
    preds = function.predecessors()
    block_map = function.block_map()
    entry = function.entry.name
    rows: Dict[str, List[Row]] = {}
    in_states: Dict[str, State] = {entry: {}}
    out_states: Dict[str, State] = {}

    worklist: List[str] = [entry]
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
        if name == entry:
            state = in_states[name]
        else:
            state = _meet(
                [out_states[p] for p in preds[name] if p in out_states]
            )
        if name in out_states and state == in_states[name]:
            continue
        in_states[name] = state
        if name not in rows:
            rows[name] = _decode(block_map[name])
        state = dict(state)
        _transfer(rows[name], state)
        if out_states.get(name) != state:
            out_states[name] = state
            for succ in block_map[name].successors():
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)
    return in_states, rows


def _meet(states: List[State]) -> State:
    if not states:
        return {}
    merged = dict(states[0])
    for state in states[1:]:
        for reg in list(merged):
            if reg not in state or not _same(state[reg], merged[reg]):
                del merged[reg]
    return merged


def _same(a: Number, b: Number) -> bool:
    """One constant: 0.0 == -0.0, but they are told apart by their bits,
    as the encoder does."""
    return a == b and (a.__class__ is not float or a.hex() == b.hex())


def _decode(block: BasicBlock) -> List[Row]:
    return [
        (
            instr.dest,
            instr.op if instr.op in _EVALUATABLE else None,
            tuple(
                v.value if v.__class__ is Const else v for v in instr.operands
            ),
        )
        for instr in block.instructions
    ]


def _transfer(
    rows: List[Row], state: State, rewrite: Optional[BasicBlock] = None
) -> int:
    """Update ``state`` across the decoded instructions, in order.

    With ``rewrite`` (the block the rows were decoded from), each of its
    instructions that reads a register known before it is rewritten to
    read the constant instead; returns how many were.
    """
    changes = 0
    for index, (dest, op, operands) in enumerate(rows):
        if rewrite is not None and state:
            for operand in operands:
                if operand.__class__ is VReg and operand in state:
                    instr = rewrite.instructions[index]
                    rewrite.instructions[index] = instr.with_operands(
                        tuple(
                            Const(state[v], v.type)
                            if v.__class__ is VReg and v in state
                            else v
                            for v in instr.operands
                        )
                    )
                    changes += 1
                    break
        # A rewritten operand has the value the row looks up.
        if dest is None:
            continue
        if op is not None:
            values = []
            for operand in operands:
                if operand.__class__ is VReg:
                    operand = state.get(operand)
                    if operand is None:
                        break
                values.append(operand)
            else:
                result = evaluate_constant(op, values)
                if result is not None:
                    state[dest] = (
                        int(result) if dest.type == IR_INT else float(result)
                    )
                    continue
        state.pop(dest, None)
    return changes
