"""Loop unrolling for constant-trip-count innermost loops.

The paper's introduction names unrolling among the optimizations that
"increase the size of the program to be compiled and thereby make a bad
situation even worse" — i.e. it is both a code-quality lever and a
compile-time amplifier.  We implement full unrolling of innermost loops
with a single-block body and compile-time-constant bounds, and use it in
the ablation benchmarks to show how fatter functions shift the parallel
compiler's sweet spot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode
from ..ir.loops import is_pipelinable
from ..ir.values import Const, VReg

#: Refuse to unroll loops with more iterations than this.
DEFAULT_MAX_TRIP = 64


def unroll_constant_loops(
    function: FunctionIR, max_trip: int = DEFAULT_MAX_TRIP
) -> int:
    """Fully unroll eligible loops; returns the number of loops unrolled.

    Unrolls one loop per round and re-runs loop detection, because
    unrolling an inner loop can make its parent innermost.
    """
    unrolled = 0
    for _ in range(50):
        if not _unroll_one(function, max_trip):
            break
        function.validate()
        unrolled += 1
    return unrolled


def _unroll_one(function: FunctionIR, max_trip: int) -> bool:
    cfg = Cfg(function)
    for loop in cfg.loops.innermost_loops():
        if not is_pipelinable(cfg, loop):
            continue
        plan = _plan(function, loop, max_trip)
        if plan is not None:
            _apply(function, loop, *plan)
            return True
    return False


def _plan(function: FunctionIR, loop, max_trip: int) -> Optional[tuple]:
    """Find (var, low, high, step, trip, body) for a constant-bound loop.

    Matches exactly the shape lowering emits:

        preheader:  mov var, #low ; mov bound, #high ; jmp header
        header:     cond = cle/cge var, bound ; br cond -> body, exit
        body:       ... ; t = add var, #step ; mov var, t ; jmp header
    """
    header = function.block_named(loop.header)
    term = header.terminator
    if term is None or term.op is not Opcode.BR:
        return None
    header_body = header.body
    if len(header_body) != 1:
        return None
    compare = header_body[0]
    if compare.op not in (Opcode.CLE, Opcode.CGE) or compare.dest != term.operands[0]:
        return None
    var, bound = compare.operands
    if not isinstance(var, VReg) or not isinstance(bound, VReg):
        return None

    preds = function.predecessors()[loop.header]
    body_name = next(iter(loop.blocks - {loop.header}))
    outside = [p for p in preds if p not in loop.blocks]
    if len(outside) != 1 or set(preds) != {outside[0], body_name}:
        return None
    preheader = function.block_named(outside[0])
    low = _last_const_assignment(preheader, var)
    high = _last_const_assignment(preheader, bound)
    if low is None or high is None:
        return None

    body = function.block_named(body_name)
    instrs = body.body
    if len(instrs) < 2:
        return None
    add_instr, mov_instr = instrs[-2], instrs[-1]
    step = _match_step(add_instr, mov_instr, var)
    if step is None:
        return None
    if compare.op is Opcode.CLE and step <= 0:
        return None
    if compare.op is Opcode.CGE and step >= 0:
        return None
    # var and bound must not be redefined by the real body.
    payload = instrs[:-2]
    if any(i.dest in (var, bound) for i in payload):
        return None
    if step > 0:
        trip = max(0, (high - low) // step + 1) if high >= low else 0
    else:
        trip = max(0, (low - high) // (-step) + 1) if low >= high else 0
    if trip > max_trip:
        return None
    return var, low, step, trip, payload, body_name


def _last_const_assignment(block: BasicBlock, reg: VReg) -> Optional[int]:
    value: Optional[int] = None
    for instr in block.instructions:
        if instr.dest == reg:
            if instr.op in (Opcode.MOV, Opcode.LI) and isinstance(
                instr.operands[0], Const
            ):
                value = int(instr.operands[0].value)
            else:
                value = None
    return value


def _match_step(add_instr: Instr, mov_instr: Instr, var: VReg) -> Optional[int]:
    if (
        add_instr.op is Opcode.ADD
        and add_instr.operands[0] == var
        and isinstance(add_instr.operands[1], Const)
        and mov_instr.op is Opcode.MOV
        and mov_instr.dest == var
        and mov_instr.operands[0] == add_instr.dest
    ):
        return int(add_instr.operands[1].value)
    return None


def _apply(
    function: FunctionIR,
    loop,
    var: VReg,
    low: int,
    step: int,
    trip: int,
    payload: List[Instr],
    body_name: str,
) -> None:
    """Replace the loop with ``trip`` copies of the payload.

    The header becomes the unrolled straight-line block, jumping to the
    loop exit; each copy is prefixed with ``mov var, #value`` so uses of
    the induction variable see the right constant (the folder then
    propagates them).  Registers are *not* renamed: copies execute
    sequentially, so reuse is safe.
    """
    header = function.block_named(loop.header)
    exit_label = next(
        label for label in header.terminator.labels if label != body_name
    )
    unrolled: List[Instr] = []
    value = low
    for _ in range(trip):
        unrolled.append(
            Instr(Opcode.MOV, dest=var, operands=(Const(value, var.type),))
        )
        unrolled.extend(_copy(instr) for instr in payload)
        value += step
    # After a Pascal 'for', the variable holds the first out-of-range value.
    unrolled.append(Instr(Opcode.MOV, dest=var, operands=(Const(value, var.type),)))
    unrolled.append(Instr(Opcode.JMP, labels=(exit_label,)))
    header.instructions = unrolled
    function.blocks = [b for b in function.blocks if b.name != body_name]


def _copy(instr: Instr) -> Instr:
    return Instr(
        instr.op,
        dest=instr.dest,
        operands=instr.operands,
        array=instr.array,
        labels=instr.labels,
        callee=instr.callee,
    )
