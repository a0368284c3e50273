"""One executing cell: its state and the engine that steps it a cycle.

Semantics (the contract the scheduler compiles against):

- all operand reads happen at issue, seeing the register file *after*
  write-backs due this cycle have landed;
- results land ``latency`` cycles later (write-back); data memory
  behaves the same way (stores land after the store latency);
- a bundle issues atomically: if any of its receives would block on an
  empty queue or any send on a full queue, the whole bundle stalls;
- branches take effect at the next cycle;
- a call saves the register file, transfers to the callee, and keeps the
  sequencer busy for the call latency; return restores the caller.

The program is decoded once, when the cell is built (:mod:`.decode`).
A pending write is ``(list, index, value)`` in the bucket of the cycle it
is due; ``next_due`` is the earliest, so a cycle with nothing due does no
write-back work.  A bucket lands in schedule order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from ..asmlink.objformat import CellProgram
from ..ir.instructions import evaluate_constant
from ..machine.warp_cell import WarpCellModel
from .decode import (
    BINARY, BRANCH, CALL, EVALUATE, JUMP, LOAD, MOVE, RECV, SEND, STORE,
    DecodedFunction, decode_program,
)
from .queues import CellQueue

Number = Union[int, float]

#: ``next_due`` when nothing is pending, ``busy_until`` once halted:
#: later than any cycle.
_NEVER = sys.maxsize

#: :meth:`CellState.step`'s result bits.
PROGRESS, HALTED = 1, 2


class SimulationError(Exception):
    """The program did something the hardware would trap on."""


@dataclass
class CellStats:
    bundles_executed: int = 0
    stall_cycles: int = 0
    busy_cycles: int = 0


class CellState:
    """One cell's registers, memory, write-back buckets and control state."""

    def __init__(self, program: CellProgram, cell: WarpCellModel):
        self.iregs: List[int] = [0] * cell.int_registers
        self.fregs: List[float] = [0.0] * cell.float_registers
        self.consts: List[Number] = []
        self.memory: List[Number] = [0] * cell.data_memory_words
        self.functions = decode_program(
            program, self.iregs, self.fregs, self.consts
        )
        self._goto(self.functions[program.entry], 0)
        self.busy_until = 0
        self.halted = False
        #: due cycle -> [(list, index, value), ...] in schedule order
        self.buckets: Dict[int, list] = {}
        self.next_due = _NEVER
        #: saved callers: (function, return pc, copies of both register
        #: lists, the (conv, list, index) the call's result lands in)
        self.call_stack: List[tuple] = []
        self.bundles_executed = self.stall_cycles = self.busy_cycles = 0

    def _goto(self, function: DecodedFunction, pc: int) -> None:
        self.function, self.bundles, self.pc = function, function.bundles, pc

    def _land(self, cycle: int) -> None:
        """Land the writes due by ``cycle``, earliest due cycle first."""
        buckets = self.buckets
        if self.next_due == cycle:  # the usual case: one bucket, due now
            for target, index, value in buckets.pop(cycle):
                target[index] = value
        else:  # a zero-latency write is due before the cycle it lands in
            for due in sorted(due for due in buckets if due <= cycle):
                for target, index, value in buckets.pop(due):
                    target[index] = value
        self.next_due = min(buckets) if buckets else _NEVER

    def step(
        self, cycle: int, in_queue: CellQueue, out_queue: CellQueue
    ) -> int:
        """Advance one cycle.  Returns :data:`PROGRESS` if the cell made
        progress, ``PROGRESS | HALTED`` if it also finished, else 0."""
        if cycle >= self.next_due:
            self._land(cycle)
        if cycle < self.busy_until:  # a halted cell is busy for ever
            if self.halted:
                return 0
            self.busy_cycles += 1
            return PROGRESS
        pc = self.pc
        bundles = self.bundles
        if not 0 <= pc < len(bundles):  # fell off the end without RET
            raise SimulationError(
                f"pc {pc} past the end of {self.function.name!r}"
            )
        ops, receives, sends = bundles[pc]
        if (receives and len(in_queue.items) < receives) or (
            sends and len(out_queue.items) + sends > out_queue.capacity
        ):
            self.stall_cycles += 1
            return 0
        self.bundles_executed += 1
        if not ops:
            self.pc = pc + 1
            return PROGRESS

        next_pc = pc + 1
        transfer = None  # deferred call/return
        buckets = self.buckets
        # One try a bundle, none an op: ``inf`` or ``nan`` as an int traps.
        try:
            for op in ops:
                kind, fn, latency, conv, dl, di, al, ai, bl, bi, extra = op
                if kind == BINARY:
                    try:
                        value = fn(al[ai], bl[bi])
                    except (OverflowError, ValueError):
                        raise self._arithmetic_trap(op) from None
                elif kind == MOVE:
                    value = al[ai]
                elif kind == LOAD or kind == STORE:
                    address = extra + int(al[ai])
                    memory = self.memory
                    if not 0 <= address < len(memory):
                        raise SimulationError(
                            f"{fn} out of range: address {address} "
                            f"(cell has {len(memory)} words)"
                        )
                    if kind == LOAD:
                        value = memory[address]
                    else:  # lands in memory as it is: ``conv`` is identity
                        dl, di, value = memory, address, bl[bi]
                elif kind == BRANCH:
                    next_pc = extra[0] if al[ai] != 0 else extra[1]
                    continue
                elif kind == JUMP:
                    next_pc = extra
                    continue
                elif kind == EVALUATE:
                    value = evaluate_constant(fn, [l[i] for l, i in extra[1]])
                    if value is None:
                        raise self._arithmetic_trap(op)
                elif kind == SEND:
                    out_queue.push(al[ai])
                    continue
                elif kind == RECV:
                    value = in_queue.pop()
                else:  # CALL or RETURN
                    transfer = op
                    continue
                # Every kind that reaches here writes ``value`` to ``dest``.
                due = cycle + latency
                entry = (dl, di, conv(value))
                bucket = buckets.get(due)
                if bucket is None:
                    buckets[due] = [entry]
                    if due < self.next_due:
                        self.next_due = due
                else:
                    bucket.append(entry)

            if transfer is None:
                self.pc = next_pc
                return PROGRESS
            kind, callee, latency = transfer[:3]
            values = [l[i] for l, i in transfer[10]]
            if kind == CALL:  # the result lands in (conv, dest list, index)
                self._call(callee, values, transfer[3:6], pc + 1)
            elif self._return(values[0] if values else None):
                self.busy_until = _NEVER
                return PROGRESS | HALTED
            self.busy_until = cycle + latency
            return PROGRESS
        except (OverflowError, ValueError) as error:
            raise SimulationError(f"{error} in {self.function.name!r}") from None

    def _arithmetic_trap(self, op: tuple) -> SimulationError:
        opcode, slots = op[10]
        return SimulationError(
            f"arithmetic trap in {self.function.name!r}: "
            f"{opcode.value} {[l[i] for l, i in slots]}"
        )

    def _call(self, name: str, args: list, result: tuple, return_pc: int):
        callee = self.functions.get(name)
        if callee is None:
            raise SimulationError(f"call to unknown function {name!r}")
        if len(args) != len(callee.params):
            raise SimulationError(
                f"call to {callee.name!r}: expected "
                f"{len(callee.params)} args, got {len(args)}"
            )
        frame = (self.function, return_pc, self.iregs[:], self.fregs[:])
        self.call_stack.append(frame + (result,))
        if len(self.call_stack) > 64:
            raise SimulationError("call stack overflow (recursion?)")
        self._goto(callee, 0)
        for (regs, index, conv), value in zip(callee.params, args):
            regs[index] = conv(value)

    def _return(self, value: Optional[Number]) -> bool:
        """Return to the caller; True if the cell finished its entry."""
        if not self.call_stack:
            self.halted = True
            return True
        function, return_pc, iregs, fregs, result = self.call_stack.pop()
        self.iregs[:] = iregs
        self.fregs[:] = fregs
        conv, regs, index = result
        if regs is not None:
            if value is None:
                raise SimulationError(
                    f"{self.function.name!r} returned no value but the "
                    "caller expects one"
                )
            regs[index] = conv(value)
        self._goto(function, return_pc)
        return False
