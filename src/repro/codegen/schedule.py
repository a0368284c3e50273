"""List scheduling: machine ops -> VLIW bundles, one block at a time.

Classic critical-path list scheduling under two kinds of constraints:

- **resources**: one operation per functional unit per cycle;
- **dependences**: RAW edges carry the producer's latency; WAR edges carry
  zero (registers are read at issue); WAW edges carry whatever keeps the
  later write landing later; memory and I/O edges keep program order; the
  block terminator drains — every result lands before control leaves the
  block, so blocks compose without cross-block hazard tracking.

The scheduler also counts its own work, which feeds the compile-cost
model of the cluster simulator: one unit per DAG edge, plus one per
candidate per cycle — an op that is ready and whose earliest cycle has
come is counted on every cycle it waits, whether or not its unit is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from ..asmlink.objformat import Bundle, MachineOp, ScheduledBlock
from ..ir.instructions import Opcode
from ..machine.resources import FUClass, PhysReg
from .select import SelectedBlock

_IO_OPS = {Opcode.SEND, Opcode.RECV}


@dataclass
class ScheduleResult:
    block: ScheduledBlock
    work_units: int


def schedule_block(selected: SelectedBlock) -> ScheduleResult:
    """Schedule one block's ops into bundles."""
    ops = selected.ops
    if not ops:
        return ScheduleResult(ScheduledBlock(selected.label, []), 0)
    edges = _build_edges(ops)
    placement, work = _list_schedule(ops, edges)
    bundles = _emit_bundles(ops, placement)
    return ScheduleResult(
        ScheduledBlock(selected.label, bundles), work + len(edges)
    )


def _build_edges(ops: List[MachineOp]) -> List[Tuple[int, int, int]]:
    """(source index, sink index, delay) dependence edges, program order."""
    edges: List[Tuple[int, int, int]] = []
    last_write: Dict[PhysReg, int] = {}
    reads_since_write: Dict[PhysReg, List[int]] = {}
    last_store: Dict[Optional[str], int] = {}
    loads_since_store: Dict[Optional[str], List[int]] = {}
    last_effect: Optional[int] = None
    terminator = len(ops) - 1 if ops[-1].op in (Opcode.JMP, Opcode.BR, Opcode.RET) else None

    for j, op in enumerate(ops):
        # Register RAW / WAR edges.
        for operand in op.operands:
            if isinstance(operand, PhysReg):
                producer = last_write.get(operand)
                if producer is not None:
                    edges.append((producer, j, ops[producer].latency))
                reads_since_write.setdefault(operand, []).append(j)
        if op.dest is not None:
            producer = last_write.get(op.dest)
            if producer is not None:  # WAW
                delay = ops[producer].latency - op.latency + 1
                edges.append((producer, j, delay))
            for reader in reads_since_write.get(op.dest, []):  # WAR
                if reader != j:
                    edges.append((reader, j, 0))
            last_write[op.dest] = j
            reads_since_write[op.dest] = []

        # Memory ordering, disambiguated by array identity.
        if op.op is Opcode.LOAD:
            producer = last_store.get(op.array_name)
            if producer is not None:
                edges.append((producer, j, ops[producer].latency))
            loads_since_store.setdefault(op.array_name, []).append(j)
        elif op.op is Opcode.STORE:
            producer = last_store.get(op.array_name)
            if producer is not None:
                edges.append((producer, j, 1))
            for reader in loads_since_store.get(op.array_name, []):
                edges.append((reader, j, 0))
            last_store[op.array_name] = j
            loads_since_store[op.array_name] = []

        # I/O and call ordering (queue operations keep program order).
        if op.op in _IO_OPS or op.op is Opcode.CALL:
            if last_effect is not None:
                edges.append((last_effect, j, 1))
            last_effect = j

        # Calls are full barriers: everything before completes first,
        # nothing after starts until the call's latency has elapsed.
        if op.op is Opcode.CALL:
            for i in range(j):
                edges.append((i, j, ops[i].latency))
            for k in range(j + 1, len(ops)):
                edges.append((j, k, op.latency))

    # Drain at the terminator: all results land before control leaves.
    if terminator is not None:
        for i in range(terminator):
            edges.append((i, terminator, max(0, ops[i].latency - 1)))
    return edges


def _list_schedule(
    ops: List[MachineOp], edges: List[Tuple[int, int, int]]
) -> Tuple[List[int], int]:
    """Returns (cycle per op, work units).

    Each cycle the candidates are the ops whose predecessors were all
    placed in earlier cycles and whose earliest cycle has come; each unit
    takes its highest candidate (ties by program order).  The work is the
    number of candidates, summed over the cycles: every one of them is
    examined once per cycle it waits.
    """
    n = len(ops)
    succs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    preds_left = [0] * n
    earliest = [0] * n
    for src, dst, delay in edges:
        succs[src].append((dst, delay))
        preds_left[dst] += 1

    # Priority: critical-path height (longest path to any leaf).
    height = [op.latency for op in ops]
    for i in range(n - 1, -1, -1):
        for dst, delay in succs[i]:
            height[i] = max(height[i], delay + height[dst])

    # Ready ops wait in ``pending`` by earliest cycle, and enter their
    # unit's queue (highest first) at the start of a cycle, never the one
    # in which they became ready.
    pending = [(0, i) for i in range(n) if preds_left[i] == 0]
    queues: Dict[FUClass, List[Tuple[int, int]]] = {}
    placed: List[Optional[int]] = [None] * n
    remaining = n
    waiting = 0
    cycle = 0
    work = 0
    guard = 0
    while remaining > 0:
        guard += 1
        if guard > 100000:
            raise RuntimeError("list scheduler failed to converge")
        while pending and pending[0][0] <= cycle:
            i = heappop(pending)[1]
            heappush(queues.setdefault(ops[i].fu, []), (-height[i], i))
            waiting += 1
        work += waiting
        for queue in queues.values():
            if not queue:
                continue
            i = heappop(queue)[1]
            waiting -= 1
            placed[i] = cycle
            remaining -= 1
            for dst, delay in succs[i]:
                if cycle + delay > earliest[dst]:
                    earliest[dst] = cycle + delay
                preds_left[dst] -= 1
                if preds_left[dst] == 0:
                    heappush(pending, (earliest[dst], dst))
        cycle += 1
    return placed, work


def _emit_bundles(ops: List[MachineOp], placement: List[int]) -> List[Bundle]:
    length = max(placement) + 1 if placement else 0
    bundles = [Bundle() for _ in range(length)]
    for index, cycle in enumerate(placement):
        bundles[cycle].add(ops[index])
    return bundles
