"""Loop-invariant code motion.

Pulls pure computations whose operands do not change inside a loop out to
the loop's preheader.  This is one of the "more sophisticated
optimization algorithms" the paper argues parallel compilation buys time
for (§5.1) — and it directly helps the software pipeliner, which only
sees the loop body that remains.

Correctness conditions in this non-SSA IR (checked conservatively):

- the instruction is pure and non-trapping (no DIV/MOD — hoisting may
  execute them on iterations-zero trips, and the cell traps on divide by
  zero);
- every operand is a constant or a register with no definition anywhere
  in the loop;
- the destination register is defined exactly once in the whole function
  and used only inside the loop (the compiler's expression temporaries
  all satisfy this);
- the loop has a unique preheader: a single outside predecessor ending in
  an unconditional jump to the header.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.cfg import BasicBlock, FunctionIR
from ..ir.instructions import Instr, Opcode
from ..ir.loops import Loop, find_loops
from ..ir.values import VReg

#: Pure AND non-trapping: safe to execute speculatively in the preheader.
_HOISTABLE = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.NEG,
    Opcode.ABS,
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


def hoist_loop_invariants(function: FunctionIR) -> int:
    """Hoist invariant computations out of every loop; returns count."""
    # Facts for the whole pass: hoisting moves no terminator and adds or
    # removes no definition, so the loops, their preheaders and the
    # definition counts are found once.  Registers are indexed by id,
    # blocks by a bit of their layout position.
    loops = find_loops(function).all_loops()
    if not loops:
        return 0
    preds = function.predecessors()
    block_map = function.block_map()
    block_bit = {block.name: 1 << i for i, block in enumerate(function.blocks)}
    # Innermost first: their invariants may bubble outward next round.
    headed = [
        (loop, sum(block_bit[name] for name in loop.blocks), preheader)
        for loop in sorted(loops, key=lambda l: -l.depth)
        if (preheader := _preheader_of(preds, block_map, loop)) is not None
    ]
    defs_count = [0] * function.next_vreg_id
    for instr in function.all_instructions():
        if instr.dest is not None:
            defs_count[instr.dest.id] += 1
    total = 0
    # More rounds: hoisting into an outer loop's body can expose more
    # motion for the outer loop.
    for _ in range(10):
        # A fact for one round: hoisting moves uses between blocks.
        use_blocks = [0] * function.next_vreg_id
        for block in function.blocks:
            bit = block_bit[block.name]
            for instr in block.instructions:
                for operand in instr.operands:
                    if operand.__class__ is VReg:
                        use_blocks[operand.id] |= bit
        moved = sum(
            _hoist_from_loop(
                block_map, loop, loop_mask, preheader, defs_count, use_blocks
            )
            for loop, loop_mask, preheader in headed
        )
        if moved == 0:
            break
        total += moved
    return total


def _preheader_of(
    preds: Dict[str, List[str]], block_map: Dict[str, BasicBlock], loop: Loop
) -> Optional[BasicBlock]:
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) != 1:
        return None
    preheader = block_map[outside[0]]
    term = preheader.terminator
    if term is None or term.op is not Opcode.JMP:
        return None
    return preheader


def _hoist_from_loop(
    block_map: Dict[str, BasicBlock],
    loop: Loop,
    loop_mask: int,
    preheader: BasicBlock,
    defs_count: List[int],
    use_blocks: List[int],
) -> int:
    loop_blocks = [block_map[name] for name in sorted(loop.blocks)]
    # The static half of the test — a hoistable opcode, a single
    # definition, every use inside the loop (the hoisted def still
    # dominates them via the preheader) — cannot change while this loop is
    # worked on, so it is decided once; the rescans then look only at the
    # operands of these candidates, in block order.
    outside = ~loop_mask
    candidates = [
        (
            block,
            [
                instr for instr in block.instructions
                if instr.op in _HOISTABLE
                and defs_count[instr.dest.id] == 1
                and not use_blocks[instr.dest.id] & outside
            ],
        )
        for block in loop_blocks
    ]
    if not any(pending for _, pending in candidates):
        return 0
    defined_in_loop: Set[int] = set()
    for block in loop_blocks:
        for instr in block.instructions:
            if instr.dest is not None:
                defined_in_loop.add(instr.dest.id)

    moved = 0
    changed = True
    while changed:
        changed = False
        for block, pending in candidates:
            for position, instr in enumerate(pending):
                for operand in instr.operands:
                    if operand.__class__ is VReg and operand.id in defined_in_loop:
                        break
                else:
                    del pending[position]
                    del block.instructions[_index_of(block, instr)]
                    preheader.instructions.insert(
                        len(preheader.instructions) - 1, instr
                    )
                    # Its only definition has left the loop.
                    defined_in_loop.discard(instr.dest.id)
                    moved += 1
                    changed = True
                    break  # at most one hoist per block per scan
    return moved


def _index_of(block: BasicBlock, instr: Instr) -> int:
    for index, other in enumerate(block.instructions):
        if other is instr:
            return index
    raise ValueError(f"{instr} is not in block {block.name!r}")
