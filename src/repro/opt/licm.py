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

from typing import Dict, List, Set

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode
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


def hoist_loop_invariants(function: FunctionIR, cfg: Cfg) -> int:
    """Hoist invariant computations out of every loop; returns count."""
    # Facts for the whole pass: hoisting moves no terminator and adds or
    # removes no definition, so the definition counts hold, and so does
    # each block's static half of the test (a hoistable opcode, a single
    # definition), kept in instruction order beside the ids it defines; a
    # hoist moves its entries to the preheader.  Registers are indexed by
    # id, blocks by a bit of their layout position.
    block_bit = {name: 1 << i for i, name in enumerate(cfg.order)}
    # Innermost first: their invariants may bubble outward next round.
    headed = [
        (sorted(loop.blocks), sum(block_bit[name] for name in loop.blocks),
         cfg.preheaders[loop.header])
        for loop in sorted(cfg.loops.all_loops(), key=lambda l: -l.depth)
        if loop.header in cfg.preheaders
    ]
    if not headed:
        return 0
    defs_count = [0] * function.next_vreg_id
    defined: Dict[str, Set[int]] = {}
    for block in function.blocks:
        ids = defined[block.name] = set()
        for instr in block.instructions:
            if instr.dest is not None:
                defs_count[instr.dest.id] += 1
                ids.add(instr.dest.id)
    static = {
        block.name: [
            instr for instr in block.instructions
            if instr.op in _HOISTABLE and defs_count[instr.dest.id] == 1
        ]
        for block in function.blocks
    }
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
                cfg.blocks, names, loop_mask, preheader, static, defined,
                use_blocks,
            )
            for names, loop_mask, preheader in headed
        )
        if moved == 0:
            break
        total += moved
    return total


def _hoist_from_loop(
    block_map: Dict[str, BasicBlock],
    names: List[str],
    loop_mask: int,
    preheader: BasicBlock,
    static: Dict[str, List[Instr]],
    defined: Dict[str, Set[int]],
    use_blocks: List[int],
) -> int:
    # Of each block's static candidates, those with every use inside the
    # loop (the hoisted def still dominates them via the preheader); the
    # rescans then look only at their operands, blocks in name order.
    outside = ~loop_mask
    candidates = [
        (
            name,
            [
                instr for instr in static[name]
                if not use_blocks[instr.dest.id] & outside
            ],
        )
        for name in names
    ]
    if not any(pending for _, pending in candidates):
        return 0
    defined_in_loop: Set[int] = set().union(*[defined[name] for name in names])

    moved = 0
    changed = True
    while changed:
        changed = False
        for name, pending in candidates:
            for position, instr in enumerate(pending):
                for operand in instr.operands:
                    if operand.__class__ is VReg and operand.id in defined_in_loop:
                        break
                else:
                    del pending[position]
                    block = block_map[name]
                    del block.instructions[_index_of(block.instructions, instr)]
                    preheader.instructions.insert(
                        len(preheader.instructions) - 1, instr
                    )
                    del static[name][_index_of(static[name], instr)]
                    static[preheader.name].append(instr)
                    defined[name].discard(instr.dest.id)
                    defined[preheader.name].add(instr.dest.id)
                    # Its only definition has left the loop.
                    defined_in_loop.discard(instr.dest.id)
                    moved += 1
                    changed = True
                    break  # at most one hoist per block per scan
    return moved


def _index_of(instructions: List[Instr], instr: Instr) -> int:
    for index, other in enumerate(instructions):
        if other is instr:
            return index
    raise ValueError(f"{instr} is not in the list")
