"""Per-function code generation: the work a *function master* performs.

``compile_function`` is compiler phases 2+3 for one function: local
optimization, register allocation, instruction selection, software
pipelining of eligible loops, and list scheduling of everything else.  It
is deliberately self-contained — it needs the function's IR and the cell
model, nothing else — because this is the unit the parallel compiler
ships to another workstation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..asmlink.objformat import (
    Bundle,
    CodegenInfo,
    ObjectFunction,
    ScheduledBlock,
)
from ..ir.cfg import Cfg, FunctionIR
from ..ir.instructions import Opcode
from ..ir.loops import Loop, LoopNest, is_pipelinable
from ..ir.values import Const, VReg
from ..machine.resources import FUClass, PhysReg
from ..machine.warp_cell import WarpCellModel
from ..opt.dependence import build_dependence_graph, find_induction_register
from ..opt.pass_manager import PassManager
from ..opt.unroll import unroll_constant_loops
from .modulo import (
    PipelineFailure,
    PipelinedLoop,
    emit_pipelined_loop,
    find_modulo_schedule,
    machine_schedule_edges,
)
from .regalloc import allocate_registers
from .schedule import ScheduleResult, schedule_block
from .select import SelectedBlock, select_function

#: How many integer registers are held back from the allocator for the
#: pipeliner's trip counter and loop countdown.
RESERVED_INT_REGS = 2


def compile_function(
    function: FunctionIR,
    cell: WarpCellModel,
    opt_level: int = 2,
    unroll_budget: int = 0,
    ii_budget: int = 0,
    cfg: Optional[Cfg] = None,
) -> ObjectFunction:
    """Optimize, allocate, pipeline, and schedule one function.

    ``unroll_budget``/``ii_budget`` are the variant-search knobs: a
    positive unroll budget fully unrolls constant-trip loops up to that
    trip count before the optimization pipeline, and a positive II
    budget caps the modulo scheduler's initiation-interval search (an II
    budget of 1 disables pipelining outright, since the feasible floor
    is 2).  Both default to 0 — the standard pipeline, bit-identical to
    what every compile before the search layer produced.  ``cfg`` is the
    caller's :class:`Cfg` of ``function``, if it has one.
    """
    info = CodegenInfo()

    if unroll_budget > 0:
        # Before the pass pipeline: the unroller matches the exact CFG
        # shape lowering emits, which the optimizer may rewrite.
        if unroll_constant_loops(function, max_trip=unroll_budget):
            cfg = None
    if cfg is None:
        cfg = Cfg(function)

    pass_manager = PassManager(opt_level=opt_level)
    pass_stats = pass_manager.run(function, cfg)
    info.work_units += pass_stats.work_units
    cfg = pass_manager.cfg

    alloc_cell = replace_int_registers(cell, cell.int_registers - RESERVED_INT_REGS)
    allocation = allocate_registers(function, alloc_cell, cfg)
    info.work_units += allocation.work_units
    info.spill_slots = allocation.spill_slots

    selected = select_function(function, allocation, cell)

    pipelined: Dict[str, PipelinedLoop] = {}
    baselines: Dict[str, ScheduleResult] = {}
    if opt_level >= 2:
        pipelined = _pipeline_loops(
            cfg, selected, allocation, cell, info, baselines, ii_budget
        )

    blocks = _schedule_and_splice(
        cfg.loops, selected, pipelined, baselines, info
    )

    return_bank = function.return_type
    return ObjectFunction(
        name=function.name,
        section_name=function.section_name,
        blocks=blocks,
        param_regs=[allocation.reg_for(r) for r in function.param_regs],
        return_bank=return_bank,
        frame_words=function.frame_words(),
        info=info,
    )


def replace_int_registers(cell: WarpCellModel, count: int) -> WarpCellModel:
    """A copy of ``cell`` with a different integer-bank size."""
    return WarpCellModel(
        int_registers=count,
        float_registers=cell.float_registers,
        data_memory_words=cell.data_memory_words,
        queue_capacity=cell.queue_capacity,
        specs=cell.specs,
    )


# ---------------------------------------------------------------------------
# Pipelining orchestration
# ---------------------------------------------------------------------------


def _pipeline_loops(
    cfg: Cfg,
    selected: List[SelectedBlock],
    allocation,
    cell: WarpCellModel,
    info: CodegenInfo,
    baselines: Dict[str, ScheduleResult],
    ii_budget: int = 0,
) -> Dict[str, PipelinedLoop]:
    """Try to pipeline each eligible loop; returns {header label: loop}
    and leaves each body it list-schedules in ``baselines`` by label."""
    by_label = {block.label: block for block in selected}
    results: Dict[str, PipelinedLoop] = {}
    for loop in cfg.loops.innermost_loops():
        if not is_pipelinable(cfg, loop):
            continue
        result = _pipeline_one(
            cfg, loop, by_label, allocation, cell, info, baselines,
            ii_budget,
        )
        if result is not None:
            results[loop.header] = result
    return results


def _pipeline_one(
    cfg: Cfg,
    loop: Loop,
    by_label: Dict[str, SelectedBlock],
    allocation,
    cell: WarpCellModel,
    info: CodegenInfo,
    baselines: Dict[str, ScheduleResult],
    ii_budget: int = 0,
) -> Optional[PipelinedLoop]:
    header_ir = cfg.blocks[loop.header]
    # The pipelined path bypasses the header entirely, so the header must
    # contain nothing but the trip test.
    if len(header_ir.body) != 1:
        return None
    induction_info = find_induction_register(cfg, loop)
    if induction_info is None:
        return None
    var_vreg, step = induction_info
    compare = header_ir.body[0]
    bound_value = compare.operands[1]
    if isinstance(bound_value, VReg):
        bound_operand = allocation.reg_for(bound_value)
    elif isinstance(bound_value, Const):
        bound_operand = bound_value.value
    else:
        return None

    body_label = next(iter(loop.blocks - {loop.header}))
    body_block = by_label[body_label]
    ops = body_block.ops[:-1]  # drop the back-edge jump
    if not ops:
        return None

    ir_graph = build_dependence_graph(cfg, loop)
    if ir_graph is None:
        return None
    edges = machine_schedule_edges(ops, ir_graph)

    # Pipelining must beat the list-scheduled body to be worth the guard.
    baseline = baselines[body_label] = schedule_block(body_block)
    info.work_units += baseline.work_units
    max_ii = baseline.block.cycle_count - 1
    if ii_budget > 0:
        # Variant-search knob: cap the II search.  A budget below the
        # feasible floor (2) leaves the loop list-scheduled — sometimes
        # the measured win for short-trip loops, where prologue/epilogue
        # overhead outweighs the steady-state gain.
        max_ii = min(max_ii, ii_budget)

    labels = _pipeline_labels(loop.header, header_ir)
    induction = (allocation.reg_for(var_vreg), bound_operand, step)
    scratch = _scratch_registers(cell)

    floor = 2
    while floor <= max_ii:
        schedule = find_modulo_schedule(ops, edges, max_ii, floor)
        if schedule is None:
            return None
        info.work_units += schedule.work_units
        try:
            result = emit_pipelined_loop(
                ops, schedule, labels, induction, scratch, cell
            )
        except PipelineFailure:
            # Kernel overhead (countdown/branch) did not fit; a larger II
            # has more slack, so search again above this one.
            floor = schedule.ii + 1
            continue
        info.pipelined_loops += 1
        info.initiation_intervals.append(result.ii)
        return result
    return None


def _pipeline_labels(header: str, header_ir) -> Dict[str, str]:
    term = header_ir.terminator
    # BR labels: (taken -> body, not taken -> exit) per lowering.
    _body_label, exit_label = term.labels
    return {
        "guard": f"{header}.pl.guard",
        "prologue": f"{header}.pl.prologue",
        "kernel": f"{header}.pl.kernel",
        "epilogue": f"{header}.pl.epilogue",
        "fallback": header,
        "exit": exit_label,
    }


def _scratch_registers(cell: WarpCellModel) -> Tuple[PhysReg, PhysReg]:
    return (
        PhysReg("i", cell.int_registers - 2),
        PhysReg("i", cell.int_registers - 1),
    )


# ---------------------------------------------------------------------------
# Final layout
# ---------------------------------------------------------------------------


def _schedule_and_splice(
    nest: LoopNest,
    selected: List[SelectedBlock],
    pipelined: Dict[str, PipelinedLoop],
    baselines: Dict[str, ScheduleResult],
    info: CodegenInfo,
) -> List[ScheduledBlock]:
    """List-schedule ordinary blocks and weave pipelined regions in.

    A body in ``baselines`` is not scheduled again, but is charged again.
    """
    # Map: header label -> name of its loop's body block (skipped preds).
    body_of_header: Dict[str, str] = {}
    for loop in nest.all_loops():
        if loop.header in pipelined:
            body_of_header[loop.header] = next(
                iter(loop.blocks - {loop.header})
            )

    redirect = {header: f"{header}.pl.guard" for header in pipelined}

    blocks: List[ScheduledBlock] = []
    for sel in selected:
        result = baselines.get(sel.label) or schedule_block(sel)
        info.work_units += result.work_units
        scheduled = result.block
        # Entry edges into a pipelined loop go through its guard; the
        # fallback back edge (from the loop's own body) stays.
        is_back_edge_source = sel.label in body_of_header.values()
        if redirect and not is_back_edge_source:
            _retarget(scheduled, redirect)

        header_here = sel.label in pipelined
        if header_here:
            blocks.append(pipelined[sel.label].guard)
        blocks.append(scheduled)
        for header, body_label in body_of_header.items():
            if sel.label == body_label:
                region = pipelined[header]
                # The epilogue's exit may itself be a pipelined header.
                _retarget(region.epilogue, redirect)
                if region.prologue is not None:
                    blocks.append(region.prologue)
                blocks.append(region.kernel)
                blocks.append(region.epilogue)

    total = sum(len(b.bundles) for b in blocks)
    info.schedule_cycles = total
    return blocks


def _retarget(block: ScheduledBlock, mapping: Dict[str, str]) -> None:
    """Rewrite branch labels in a scheduled block per ``mapping``."""
    for bundle in block.bundles:
        seq = bundle.ops.get(FUClass.SEQ)
        if seq is None or not seq.labels:
            continue
        new_labels = tuple(mapping.get(label, label) for label in seq.labels)
        if new_labels != seq.labels:
            bundle.ops[FUClass.SEQ] = replace(seq, labels=new_labels)
