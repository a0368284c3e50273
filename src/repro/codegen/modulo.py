"""Software pipelining: iterative modulo scheduling of innermost loops.

This is phase 3's expensive centerpiece ("software pipelining and code
generation") and the reason Warp compilations took so long: for each
candidate loop the scheduler searches initiation intervals, maintains a
modulo reservation table, and — when it wins — rebuilds the loop as
guard + prologue + kernel + epilogue machine code.

Correctness without register renaming
-------------------------------------
We deliberately schedule *after* register allocation and encode every
register hazard (including loop-carried anti and output dependences on
physical registers) as edges the schedule must satisfy:

    t(sink) + II * distance >= t(source) + delay(edge)

A schedule satisfying all edges is executable with overlapped iterations
and *no* modulo variable expansion: a value is never overwritten before
its last read, because that very constraint is one of the edges.  The
price is a larger II for loops with long-lived values — the classic
trade-off this compiler makes in favor of simplicity, exactly the sort of
engineering choice the paper alludes to when it notes the compiler "was
never tuned for compilation speed".

The emitted structure (for a loop with S stages and T = trip - (S-1)):

    guard:     trip = (bound - var) / step + 1; br trip >= S ?
    prologue:  iterations 0 .. S-2 warm up ((S-1) * II bundles)
    kernel:    II bundles, executed T times (counter in a reserved reg)
    epilogue:  iterations trip-S+1 .. trip-1 drain, padded so every
               in-flight result lands before the loop exit runs
    fallback:  the original (list-scheduled) loop, taken when trip < S
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..asmlink.objformat import Bundle, MachineOp, ScheduledBlock
from ..ir.instructions import Opcode
from ..machine.resources import FU_SLOTS, FUClass, PhysReg
from ..machine.warp_cell import WarpCellModel
from ..opt.dependence import DependenceGraph, MEMORY, IO

#: Edge of the machine-level scheduling graph.
@dataclass(frozen=True)
class SchedEdge:
    source: int
    sink: int
    delay: int
    distance: int


@dataclass
class ModuloSchedule:
    """A feasible modulo schedule for one loop body."""

    ii: int
    times: List[int]  # issue time per body op
    stages: int
    work_units: int

    @property
    def span(self) -> int:
        return max(self.times) + 1 if self.times else 0


@dataclass
class PipelinedLoop:
    """Replacement machine code for one pipelined loop."""

    guard: ScheduledBlock
    prologue: Optional[ScheduledBlock]
    kernel: ScheduledBlock
    epilogue: ScheduledBlock
    ii: int
    stages: int
    work_units: int


class PipelineFailure(Exception):
    """Internal: this loop cannot profitably be pipelined."""


def machine_schedule_edges(
    ops: List[MachineOp], ir_graph: DependenceGraph
) -> List[SchedEdge]:
    """Scheduling edges: physical-register hazards recomputed here, plus
    the memory and I/O edges of the IR dependence graph (index-aligned —
    instruction selection is one-to-one)."""
    edges: List[SchedEdge] = []
    seen = set()

    def add(source: int, sink: int, delay: int, distance: int) -> None:
        key = (source, sink, delay, distance)
        if key not in seen:
            seen.add(key)
            edges.append(SchedEdge(source, sink, delay, distance))

    # Physical-register dependences with iteration distances.
    defs_of: Dict[PhysReg, List[int]] = {}
    uses_of: Dict[PhysReg, List[int]] = {}
    for i, op in enumerate(ops):
        if op.dest is not None:
            defs_of.setdefault(op.dest, []).append(i)
        for operand in op.operands:
            if isinstance(operand, PhysReg):
                uses_of.setdefault(operand, []).append(i)

    for reg, def_sites in defs_of.items():
        use_sites = uses_of.get(reg, [])
        last_def = def_sites[-1]
        first_def = def_sites[0]
        for use in use_sites:
            earlier = [d for d in def_sites if d < use]
            if earlier:
                add(earlier[-1], use, ops[earlier[-1]].latency, 0)
            else:
                add(last_def, use, ops[last_def].latency, 1)
            later = [d for d in def_sites if d >= use]
            if later:
                if later[0] != use:
                    add(use, later[0], 0, 0)  # anti, same iteration
            else:
                add(use, first_def, 0, 1)  # anti, next iteration
        for a, b in zip(def_sites, def_sites[1:]):
            add(a, b, ops[a].latency - ops[b].latency + 1, 0)
        add(
            last_def,
            first_def,
            ops[last_def].latency - ops[first_def].latency + 1,
            1,
        )

    # Memory and I/O edges from the IR-level analysis.
    for edge in ir_graph.edges:
        if edge.kind == MEMORY:
            src_op = ops[edge.source]
            delay = src_op.latency if src_op.op is Opcode.STORE else 0
            add(edge.source, edge.sink, delay, edge.distance)
        elif edge.kind == IO:
            add(edge.source, edge.sink, 1, edge.distance)
    return edges


def resource_mii(ops: List[MachineOp]) -> int:
    """Lower bound on II from functional-unit usage."""
    counts: Dict[FUClass, int] = {}
    for op in ops:
        counts[op.fu] = counts.get(op.fu, 0) + 1
    return max(counts.values(), default=1)


def recurrence_mii(
    n: int, edges: List[SchedEdge], start: int = 1
) -> Optional[int]:
    """Lower bound on II from the dependence cycles: the smallest
    ``II >= start`` at which the graph weighted ``delay - II*distance``
    has no positive cycle — max(start, RecMII), RecMII being the maximum
    over cycles of ceil(sum delay / sum distance).  None when a cycle of
    distance 0 has positive delay: no II satisfies it.

    A max-cycle-ratio walk: relax longest-path labels in sweeps over the
    edges.  A sweep that changes nothing proves the current II feasible;
    until then a cycle among the edges that last raised each label is a
    positive one, and II jumps to that cycle's ratio — a lower bound like
    every cycle's, so the walk never passes RecMII.
    """
    # Sorted by source: one sweep settles a body's forward distance-0 chains.
    rows = sorted((e.source, e.sink, e.delay, e.distance) for e in edges)
    ii = start
    while True:
        label = [0] * n
        raised_by: List[Optional[tuple]] = [None] * n  # row, per sink
        cycle: List[tuple] = []
        while not cycle:
            changed = False
            for row in rows:
                source, sink, delay, distance = row
                reach = label[source] + delay - ii * distance
                if reach > label[sink]:
                    label[sink] = reach
                    raised_by[sink] = row
                    changed = True
            if not changed:
                return ii
            cycle = _cycle_among(raised_by)
        distance = sum(row[3] for row in cycle)
        if distance == 0:
            return None
        ii = -(-sum(row[2] for row in cycle) // distance)


def _cycle_among(raised_by: List[Optional[tuple]]) -> List[tuple]:
    """One cycle of the graph sink -> ``raised_by[sink]`` -> its source,
    as edge rows; [] if there is none."""
    reached_from: List[Optional[int]] = [None] * len(raised_by)
    for root in range(len(raised_by)):
        node = root
        while raised_by[node] is not None and reached_from[node] is None:
            reached_from[node] = root
            node = raised_by[node][0]
        if raised_by[node] is not None and reached_from[node] == root:
            cycle = [raised_by[node]]
            while cycle[-1][0] != node:
                cycle.append(raised_by[cycle[-1][0]])
            return cycle
    return []


#: What :func:`schedule_plan` returns for a well-formed loop body.
SchedulePlan = Tuple[List[int], List[List[Tuple[int, int, int]]], List[int]]


def schedule_plan(
    ops: List[MachineOp], edges: List[SchedEdge]
) -> Optional[SchedulePlan]:
    """What placement needs that does not depend on II, computed once per
    loop: (topological order of the distance-0 subgraph, per sink its
    incoming edges as (source, delay, distance), per op its functional
    unit's reservation-table row).  None when the distance-0 subgraph has
    a cycle (malformed graph)."""
    n = len(ops)
    zero_succs: List[List[int]] = [[] for _ in range(n)]
    indegree = [0] * n
    preds: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for edge in edges:
        if edge.distance == 0:
            zero_succs[edge.source].append(edge.sink)
            indegree[edge.sink] += 1
        preds[edge.sink].append((edge.source, edge.delay, edge.distance))

    order: List[int] = [i for i in range(n) if indegree[i] == 0]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for sink in zero_succs[node]:
            indegree[sink] -= 1
            if indegree[sink] == 0:
                order.append(sink)
    if len(order) != n:
        return None
    return order, preds, [FU_SLOTS.index(op.fu) for op in ops]


def try_modulo_schedule(
    ops: List[MachineOp],
    edges: List[SchedEdge],
    ii: int,
    plan: Optional[SchedulePlan] = None,
) -> Optional[Tuple[List[int], int]]:
    """Greedy placement in zero-distance topological order, then a full
    verification of every edge; returns (times, work) or None.  ``plan``
    is :func:`schedule_plan` of the same ops and edges, for a caller that
    attempts more than one II."""
    plan = plan or schedule_plan(ops, edges)
    if plan is None:
        return None
    order, preds, rows = plan

    times: List[Optional[int]] = [None] * len(ops)
    # Modulo reservation table: one row of II slots per functional unit.
    reserved = bytearray(len(FU_SLOTS) * ii)
    work = len(edges)

    for node in order:
        earliest = 0
        for source, delay, distance in preds[node]:
            src_time = times[source]
            if src_time is not None:
                earliest = max(earliest, src_time + delay - ii * distance)
        row = rows[node] * ii
        for t in range(earliest, earliest + ii):
            work += 1
            if not reserved[row + t % ii]:
                reserved[row + t % ii] = 1
                times[node] = t
                break
        else:
            return None

    # Verify every edge, including loop-carried ones whose source was
    # placed after the sink in topological order.
    for sink, incoming in enumerate(preds):
        for source, delay, distance in incoming:
            if times[sink] + ii * distance < times[source] + delay:
                return None
    return times, work


def find_modulo_schedule(
    ops: List[MachineOp],
    edges: List[SchedEdge],
    max_ii: int,
    floor: int = 2,
) -> Optional[ModuloSchedule]:
    """The first II in ``floor .. max_ii`` that greedy placement accepts.

    The search starts at max(floor, ResMII, RecMII, 2): the kernel needs
    II >= 2 for its countdown to land before the kernel branch reads it,
    and an attempt ends by checking every edge, so none below RecMII can
    succeed — the chosen II is the one a climb from ResMII finds.
    ``work_units`` bills the simulated 1989 compiler, which does make that
    climb: the IIs skipped here are charged like any failed attempt.
    """
    climb_from = max(floor, resource_mii(ops), 2)
    if climb_from > max_ii:
        return None
    plan = schedule_plan(ops, edges)
    start = recurrence_mii(len(ops), edges, climb_from)
    if plan is None or start is None:
        return None
    # sum of II over climb_from .. start-1, each failed attempt len(ops)*II
    total_work = len(ops) * (start - climb_from) * (climb_from + start - 1) // 2
    for ii in range(start, max_ii + 1):
        result = try_modulo_schedule(ops, edges, ii, plan)
        if result is None:
            total_work += len(ops) * ii  # failed attempts are paid for too
            continue
        times, work = result
        stages = max(t // ii for t in times) + 1 if times else 1
        return ModuloSchedule(
            ii=ii, times=times, stages=stages, work_units=total_work + work
        )
    return None


# ---------------------------------------------------------------------------
# Code emission
# ---------------------------------------------------------------------------


def _bundle_rows(count: int) -> List[Bundle]:
    return [Bundle() for _ in range(count)]


def emit_pipelined_loop(
    ops: List[MachineOp],
    schedule: ModuloSchedule,
    labels: Dict[str, str],
    induction: Tuple[PhysReg, PhysReg, int],
    scratch: Tuple[PhysReg, PhysReg],
    cell: WarpCellModel,
) -> PipelinedLoop:
    """Build guard/prologue/kernel/epilogue blocks.

    ``labels`` must provide: 'guard', 'prologue', 'kernel', 'epilogue',
    'fallback' (the original header) and 'exit'.
    ``induction`` is (var reg, bound reg, step).
    ``scratch`` is two reserved integer registers (trip, counter).
    """
    ii, times, stages = schedule.ii, schedule.times, schedule.stages
    var, bound, step = induction
    trip_reg, counter_reg = scratch

    prologue = _emit_prologue(ops, times, ii, stages, labels)
    guard_labels = dict(labels)
    if prologue is None:
        guard_labels["prologue"] = None
    guard = _emit_guard(
        guard_labels, var, bound, step, stages, trip_reg, counter_reg, cell
    )
    kernel = _emit_kernel(ops, times, ii, labels, counter_reg, cell)
    epilogue = _emit_epilogue(ops, times, ii, stages, labels)
    return PipelinedLoop(
        guard=guard,
        prologue=prologue,
        kernel=kernel,
        epilogue=epilogue,
        ii=ii,
        stages=stages,
        work_units=schedule.work_units,
    )


def _seq_op(cell: WarpCellModel, op: Opcode, **kwargs) -> MachineOp:
    spec = cell.spec_for(op, "i")
    return MachineOp(op=op, fu=spec.fu, latency=spec.latency, **kwargs)


def _ialu(cell: WarpCellModel, op: Opcode, dest, operands) -> MachineOp:
    spec = cell.spec_for(op, "i")
    return MachineOp(
        op=op, fu=spec.fu, latency=spec.latency, dest=dest, operands=operands
    )


def _emit_guard(
    labels: Dict[str, str],
    var: PhysReg,
    bound: PhysReg,
    step: int,
    stages: int,
    trip_reg: PhysReg,
    counter_reg: PhysReg,
    cell: WarpCellModel,
) -> ScheduledBlock:
    """trip = (bound - var) / step + 1;  counter = trip - (stages - 1);
    br (trip >= stages) -> prologue (or kernel), fallback."""
    if step > 0:
        diff = _ialu(cell, Opcode.SUB, trip_reg, (bound, var))
    else:
        diff = _ialu(cell, Opcode.SUB, trip_reg, (var, bound))
    div = _ialu(cell, Opcode.DIV, trip_reg, (trip_reg, abs(step)))
    inc = _ialu(cell, Opcode.ADD, trip_reg, (trip_reg, 1))
    counter = _ialu(cell, Opcode.SUB, counter_reg, (trip_reg, stages - 1))
    compare = _ialu(cell, Opcode.CGE, trip_reg, (trip_reg, stages))
    first = labels["prologue"] if labels.get("prologue") else labels["kernel"]
    branch = _seq_op(
        cell,
        Opcode.BR,
        operands=(trip_reg,),
        labels=(first, labels["fallback"]),
    )
    # Sequential placement honoring latencies (executed once; keep simple).
    sequence = [diff, div, inc, counter, compare, branch]
    bundles: List[Bundle] = []
    ready = 0
    for op in sequence:
        start = max(ready, len(bundles))
        while len(bundles) < start + 1:
            bundles.append(Bundle())
        bundles[start].add(op)
        ready = start + op.latency
    # Pad so the branch is in the final bundle and all results landed.
    while len(bundles) < ready:
        bundles.append(Bundle())
    # The branch must be the last bundle: move it there.
    branch_bundle = next(b for b in bundles if b.occupied(FUClass.SEQ))
    if branch_bundle is not bundles[-1]:
        del branch_bundle.ops[FUClass.SEQ]
        bundles[-1].add(branch)
    return ScheduledBlock(labels["guard"], bundles)


def _emit_prologue(
    ops: List[MachineOp],
    times: List[int],
    ii: int,
    stages: int,
    labels: Dict[str, str],
) -> Optional[ScheduledBlock]:
    length = (stages - 1) * ii
    if length == 0:
        return None
    bundles = _bundle_rows(length)
    for iteration in range(stages - 1):
        for index, op in enumerate(ops):
            t = iteration * ii + times[index]
            if t < length:
                bundles[t].add(op)
    bundles[-1].ops.setdefault(
        FUClass.SEQ,
        MachineOp(
            op=Opcode.JMP, fu=FUClass.SEQ, latency=1, labels=(labels["kernel"],)
        ),
    )
    return ScheduledBlock(labels["prologue"], bundles)


def _emit_kernel(
    ops: List[MachineOp],
    times: List[int],
    ii: int,
    labels: Dict[str, str],
    counter_reg: PhysReg,
    cell: WarpCellModel,
) -> ScheduledBlock:
    bundles = _bundle_rows(ii)
    for index, op in enumerate(ops):
        bundles[times[index] % ii].add(op)
    # Countdown: placed in the first kernel cycle with a free integer slot
    # that lands (latency 1) before the branch reads it in cycle II-1.
    dec = _ialu(cell, Opcode.SUB, counter_reg, (counter_reg, 1))
    placed = False
    for cycle in range(ii - 1):
        if not bundles[cycle].occupied(FUClass.IALU):
            bundles[cycle].add(dec)
            placed = True
            break
    if not placed:
        raise PipelineFailure("no integer slot for the kernel countdown")
    if bundles[ii - 1].occupied(FUClass.SEQ):
        raise PipelineFailure("kernel branch slot occupied")
    bundles[ii - 1].add(
        _seq_op(
            cell,
            Opcode.BR,
            operands=(counter_reg,),
            labels=(labels["kernel"], labels["epilogue"]),
        )
    )
    return ScheduledBlock(labels["kernel"], bundles)


def _emit_epilogue(
    ops: List[MachineOp],
    times: List[int],
    ii: int,
    stages: int,
    labels: Dict[str, str],
) -> ScheduledBlock:
    """Drain iterations trip-(S-1) .. trip-1 and pad until every in-flight
    write has landed, so the loop exit sees a clean machine."""
    entries: List[Tuple[int, MachineOp]] = []
    for m in range(1, stages):  # m = trip - k
        for index, op in enumerate(ops):
            rel = times[index] - m * ii
            if rel >= 0:
                entries.append((rel, op))
    # Pad until every in-flight write has landed.  The final instance of a
    # stage-0 op issues in the last *kernel* round at kernel cycle t_i, so
    # its result lands (t_i + latency - II) cycles into the epilogue; later
    # instances (m >= 1) land at rel + latency.  Both are covered by
    # max(t_i + latency) - II.
    drain = max(
        [1] + [times[i] + op.latency - ii for i, op in enumerate(ops)]
    )
    bundles = _bundle_rows(drain)
    for rel, op in entries:
        bundles[rel].add(op)
    bundles[-1].ops.setdefault(
        FUClass.SEQ,
        MachineOp(
            op=Opcode.JMP, fu=FUClass.SEQ, latency=1, labels=(labels["exit"],)
        ),
    )
    return ScheduledBlock(labels["epilogue"], bundles)
