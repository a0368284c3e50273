"""Register allocation: linear scan over the function's linearized IR.

Virtual registers get physical registers from the cell's two banks.  When
a bank is exhausted, the active interval that ends last is spilled to a
scratch region of the frame, its accesses are rewritten through
short-lived temporaries, and allocation restarts.  Allocation happens on
the IR, *before* scheduling; the scheduler then honors the anti and output
dependences that physical-register reuse introduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.cfg import BasicBlock, Cfg, FunctionIR
from ..ir.instructions import Instr, Opcode
from ..ir.values import Const, FrameArray, IR_FLOAT, IR_INT, VReg
from ..machine.resources import PhysReg
from ..machine.warp_cell import WarpCellModel
from ..opt.liveness import live_variables


class RegisterPressureError(Exception):
    """Raised when spilling cannot bring pressure under the bank size."""


@dataclass
class Interval:
    reg: VReg
    start: int
    end: int


@dataclass
class AllocationResult:
    """vreg -> physical register map plus spill bookkeeping."""

    assignment: Dict[VReg, PhysReg]
    spill_slots: int
    rounds: int
    work_units: int

    def reg_for(self, vreg: VReg) -> PhysReg:
        return self.assignment[vreg]


def allocate_registers(
    function: FunctionIR, cell: WarpCellModel, cfg: Cfg, max_rounds: int = 12
) -> AllocationResult:
    """Allocate physical registers, spilling as needed (modifies IR, but
    only inside blocks: ``cfg`` stays the function's)."""
    spill_slots = {"i": 0, "f": 0}
    work_units = 0
    for round_number in range(1, max_rounds + 1):
        intervals = _build_intervals(function, cfg)
        work_units += function.instruction_count() + len(intervals)
        assignment, spilled = _linear_scan(intervals, cell)
        if spilled is None:
            return AllocationResult(
                assignment=assignment,
                spill_slots=spill_slots["i"] + spill_slots["f"],
                rounds=round_number,
                work_units=work_units,
            )
        _rewrite_with_spill(function, spilled, spill_slots)
    raise RegisterPressureError(
        f"function {function.name!r} still over register pressure after "
        f"{max_rounds} spill rounds"
    )


def _build_intervals(function: FunctionIR, cfg: Cfg) -> List[Interval]:
    """Conservative hole-free live intervals over the block layout order."""
    facts = live_variables(function, cfg)
    positions: Dict[VReg, Tuple[int, int]] = {}

    def extend(reg: VReg, pos: int) -> None:
        if reg in positions:
            lo, hi = positions[reg]
            positions[reg] = (min(lo, pos), max(hi, pos))
        else:
            positions[reg] = (pos, pos)

    pos = 0
    for reg in function.param_regs:
        extend(reg, 0)
    for block in function.blocks:
        block_start = pos
        for reg in facts.entry[block.name]:
            extend(reg, block_start)
        for instr in block.instructions:
            if instr.dest is not None:
                extend(instr.dest, pos)
            for reg in instr.uses():
                extend(reg, pos)
            pos += 1
        block_end = pos - 1 if pos > block_start else block_start
        for reg in facts.exit[block.name]:
            extend(reg, block_end)

    intervals = [Interval(reg, lo, hi) for reg, (lo, hi) in positions.items()]
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.reg.id))
    return intervals


def _linear_scan(
    intervals: List[Interval], cell: WarpCellModel
) -> Tuple[Dict[VReg, PhysReg], Optional[VReg]]:
    """One scan; returns (assignment, vreg to spill or None)."""
    free: Dict[str, List[int]] = {
        "i": list(range(cell.int_registers - 1, -1, -1)),
        "f": list(range(cell.float_registers - 1, -1, -1)),
    }
    active: Dict[str, List[Interval]] = {"i": [], "f": []}
    assignment: Dict[VReg, PhysReg] = {}

    for interval in intervals:
        bank = interval.reg.type
        # Expire intervals that ended before this one starts.
        still_active = []
        for old in active[bank]:
            if old.end < interval.start:
                free[bank].append(assignment[old.reg].index)
            else:
                still_active.append(old)
        active[bank] = still_active

        if not free[bank]:
            # Spill the active interval (or this one) ending last.
            candidates = active[bank] + [interval]
            victim = max(candidates, key=lambda iv: (iv.end, iv.end - iv.start))
            return assignment, victim.reg
        index = free[bank].pop()
        assignment[interval.reg] = PhysReg(bank, index)
        active[bank].append(interval)
    return assignment, None


def _rewrite_with_spill(
    function: FunctionIR, victim: VReg, spill_slots: Dict[str, int]
) -> None:
    """Send ``victim`` to a frame slot; accesses go through fresh temps."""
    bank = victim.type
    slot = spill_slots[bank]
    spill_slots[bank] += 1
    array = _spill_array(function, bank, slot + 1)

    param_store: Optional[Instr] = None
    if victim in function.param_regs:
        # Store the incoming parameter to its slot on entry.
        param_store = Instr(
            Opcode.STORE,
            operands=(Const(slot, IR_INT), victim),
            array=array,
        )
        function.entry.instructions.insert(0, param_store)

    for block in function.blocks:
        rewritten: List[Instr] = []
        for instr in block.instructions:
            if instr is param_store:
                rewritten.append(instr)
                continue
            uses_victim = victim in instr.uses()
            defines_victim = instr.dest == victim
            if uses_victim:
                temp = function.new_vreg(bank)
                rewritten.append(
                    Instr(
                        Opcode.LOAD,
                        dest=temp,
                        operands=(Const(slot, IR_INT),),
                        array=array,
                    )
                )
                instr = instr.with_operands(
                    tuple(temp if v == victim else v for v in instr.operands)
                )
            if defines_victim:
                temp = function.new_vreg(bank)
                new_def = Instr(
                    instr.op,
                    dest=temp,
                    operands=instr.operands,
                    array=instr.array,
                    labels=instr.labels,
                    callee=instr.callee,
                )
                rewritten.append(new_def)
                rewritten.append(
                    Instr(
                        Opcode.STORE,
                        operands=(Const(slot, IR_INT), temp),
                        array=array,
                    )
                )
            else:
                rewritten.append(instr)
        block.instructions = rewritten


def _spill_array(function: FunctionIR, bank: str, needed_slots: int) -> FrameArray:
    """Get or grow the per-bank spill scratch array in the frame."""
    name = f"<spill.{bank}>"
    existing = next((a for a in function.arrays if a.name == name), None)
    if existing is not None and existing.length >= needed_slots:
        return existing
    if existing is not None:
        function.arrays.remove(existing)
    # Recompute offsets so the spill area sits after all user arrays.
    offset = 0
    rebuilt = []
    for array in function.arrays:
        rebuilt.append(
            FrameArray(array.name, array.element_type, array.length, offset)
        )
        offset += array.length
    grown = FrameArray(name, bank, needed_slots, offset)
    rebuilt.append(grown)
    # Remap instructions to the rebuilt FrameArray objects (offsets moved).
    by_name = {a.name: a for a in rebuilt}
    for block in function.blocks:
        for index, instr in enumerate(block.instructions):
            if instr.array is not None:
                block.instructions[index] = Instr(
                    instr.op,
                    dest=instr.dest,
                    operands=instr.operands,
                    array=by_name[instr.array.name],
                    labels=instr.labels,
                    callee=instr.callee,
                )
    function.arrays = rebuilt
    return grown
