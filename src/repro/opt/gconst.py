"""Global constant propagation (iterative dataflow over the CFG).

Local copy propagation only sees one block; this pass carries known
constants across branches, joins, and into loops, using the classic
three-level lattice (unvisited / known constant / varying) with a
worklist.  Combined with the folder and CFG simplification it deletes
whole never-taken branches — one more of the "more time consuming
optimizations" (§6) the parallel compiler makes affordable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.instructions import Opcode, evaluate_constant
from ..ir.values import Const, IR_INT, VReg

Number = Union[int, float]
#: A state maps register ids to definitely-known values; absence = varying.
State = Dict[int, Number]

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


#: One instruction as the fixpoint sees it: the id of the register written
#: (if any), ``int`` or ``float`` to give a computed result that register's
#: type, the opcode when its result is computable from known operands
#: (else None), and the operands — a register as its id, a constant as a
#: one-element tuple of its value.
Row = Tuple[Optional[int], Callable, Optional[Opcode], Tuple[object, ...]]


def propagate_constants_globally(function: FunctionIR, cfg: Cfg) -> int:
    """Rewrite register uses that are provably constant; returns changes."""
    carried: Set[int] = set()
    rows = {block.name: _decode(block, carried) for block in function.blocks}
    slices = {name: _slice(block_rows, carried) for name, block_rows in rows.items()}
    in_states = _solve(function, cfg, slices, carried)
    changes = 0
    for block in function.blocks:
        changes += _transfer(
            rows[block.name], dict(in_states.get(block.name, {})), block
        )
    return changes


def _solve(
    function: FunctionIR, cfg: Cfg, slices: Dict[str, List[Row]], carried: Set[int]
) -> Dict[str, State]:
    """Fixpoint of per-block entry states.

    Entry block starts with nothing known (parameters vary).  A block's
    entry state is the agreement (intersection on equal values) of every
    *visited* predecessor's exit state; unvisited predecessors are
    optimistically ignored until they get an exit state, and the worklist
    re-runs successors whenever an exit state shrinks.  A visit whose
    entry state is unchanged is skipped (it cannot change the exit state).
    An exit state keeps only the ``carried`` registers — those some block
    reads before it writes them — because no other register's value on
    entry to a block is ever looked up — so a visit transfers only the
    block's ``slices`` row list, the rows those exit values depend on.
    """
    preds = cfg.preds
    entry = cfg.order[0]
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
        state = dict(state)
        _transfer(slices[name], state)
        state = {reg: value for reg, value in state.items() if reg in carried}
        if out_states.get(name) != state:
            out_states[name] = state
            for succ in cfg.succs[name]:
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
            if reg not in state or not _same(state[reg], merged[reg]):
                del merged[reg]
    return merged


def _same(a: Number, b: Number) -> bool:
    """One constant: 0.0 == -0.0, but they are told apart by their bits,
    as the encoder does."""
    return a == b and (a.__class__ is not float or a.hex() == b.hex())


def _decode(block: BasicBlock, carried: Set[int]) -> List[Row]:
    """The block's rows; adds the registers it reads before it writes
    them to ``carried``."""
    rows: List[Row] = []
    written = set()
    for instr in block.instructions:
        operands = tuple(
            [(v.value,) if v.__class__ is Const else v.id for v in instr.operands]
        )
        for operand in operands:
            if operand.__class__ is int and operand not in written:
                carried.add(operand)
        dest = instr.dest
        if dest is None:
            rows.append((None, int, None, operands))
            continue
        written.add(dest.id)
        convert = int if dest.type == IR_INT else float
        op = instr.op if instr.op in _EVALUATABLE else None
        rows.append((dest.id, convert, op, operands))
    return rows


def _slice(rows: List[Row], carried: Set[int]) -> List[Row]:
    """The rows the block's exit values of ``carried`` registers depend on:
    each one's last definition and, transitively, the rows that define
    what a computable one reads."""
    needed = set(carried)
    kept = []
    for row in reversed(rows):
        if row[0] in needed:
            kept.append(row)
            needed.discard(row[0])
            if row[2] is not None:
                needed.update(row[3])  # a constant's tuple never matches a dest
    kept.reverse()
    return kept


def _transfer(
    rows: List[Row], state: State, rewrite: Optional[BasicBlock] = None
) -> int:
    """Update ``state`` across the decoded instructions, in order.

    With ``rewrite`` (the block the rows were decoded from), each of its
    instructions that reads a register known before it is rewritten to
    read the constant instead; returns how many were.
    """
    changes = 0
    for index, (dest, convert, op, operands) in enumerate(rows):
        if rewrite is not None and state:
            for operand in operands:
                if operand.__class__ is int and operand in state:
                    instr = rewrite.instructions[index]
                    rewrite.instructions[index] = instr.with_operands(
                        tuple(
                            Const(state[v.id], v.type)
                            if v.__class__ is VReg and v.id in state
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
                if operand.__class__ is int:
                    operand = state.get(operand)
                    if operand is None:
                        break
                else:
                    operand = operand[0]
                values.append(operand)
            else:
                result = evaluate_constant(op, values)
                if result is not None:
                    state[dest] = convert(result)
                    continue
        state.pop(dest, None)
    return changes
