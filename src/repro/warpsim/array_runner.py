"""Lockstep simulation of the whole Warp array.

Cells advance one cycle at a time; adjacent cells are connected by bounded
queues; the external input stream feeds the leftmost used cell and output
is collected from the rightmost used cell.  Deadlock (every live cell
stalled with nothing in flight) is detected and reported rather than
spinning forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..asmlink.objformat import DownloadModule
from ..machine.warp_array import WarpArrayModel
from .cell_state import PROGRESS, CellState, CellStats, SimulationError
from .queues import CellQueue

Number = Union[int, float]


@dataclass
class RunResult:
    """Outcome of one array run."""

    outputs: List[Number]
    cycles: int
    cell_stats: Dict[int, CellStats] = field(default_factory=dict)
    leftover_input: int = 0

    def output_floats(self) -> List[float]:
        return [float(v) for v in self.outputs]


class ArrayRunner:
    """Executes a download module on a simulated Warp array."""

    def __init__(
        self,
        module: DownloadModule,
        array: Optional[WarpArrayModel] = None,
        max_cycles: int = 5_000_000,
    ):
        self.array = array or WarpArrayModel()
        self.module = module
        self.max_cycles = max_cycles
        if not module.cell_programs:
            raise ValueError("download module uses no cells")
        for cell_index in module.cell_programs:
            if not 0 <= cell_index < self.array.cell_count:
                raise ValueError(
                    f"module uses cell {cell_index}, array has "
                    f"{self.array.cell_count}"
                )

    def run(self, inputs: List[Number]) -> RunResult:
        cells = sorted(self.module.cell_programs)
        states = [
            CellState(self.module.cell_programs[index], self.array.cell)
            for index in cells
        ]
        # Queue i feeds cell cells[i]; the last queue collects output.
        capacity = self.array.cell.queue_capacity
        queues = [CellQueue(capacity) for _ in range(len(cells) + 1)]
        lanes = list(zip(states, queues, queues[1:]))
        input_queue = queues[0]
        output_queue = queues[-1]
        pending_input = deque(inputs)
        outputs: List[Number] = []

        cycle = 0
        max_cycles = self.max_cycles
        while cycle < max_cycles:
            # Feed the external stream as space allows (host DMA).
            while pending_input and not input_queue.is_full:
                input_queue.push(pending_input.popleft())
            # Output drains freely: the host always accepts results.
            if output_queue.items:
                outputs.extend(output_queue.drain())
            status = 0
            for state, in_queue, out_queue in lanes:
                status |= state.step(cycle, in_queue, out_queue)
            # A cycle in which a cell progressed and none halted can
            # neither end the run nor deadlock it.
            if status != PROGRESS:
                pending_writes = any(state.buckets for state in states)
                live = [i for i, s in zip(cells, states) if not s.halted]
                if not live and not pending_writes:
                    cycle += 1
                    break
                if not (status & PROGRESS or pending_input or pending_writes):
                    raise SimulationError(
                        f"deadlock at cycle {cycle}: cells {live} stalled"
                    )
            cycle += 1
        else:
            raise SimulationError(
                f"array did not finish within {self.max_cycles} cycles"
            )

        outputs.extend(output_queue.drain())
        return RunResult(
            outputs=outputs,
            cycles=cycle,
            cell_stats={
                i: CellStats(s.bundles_executed, s.stall_cycles, s.busy_cycles)
                for i, s in zip(cells, states)
            },
            leftover_input=len(pending_input) + len(input_queue),
        )


def run_module(
    module: DownloadModule,
    inputs: List[Number],
    array: Optional[WarpArrayModel] = None,
    max_cycles: int = 5_000_000,
) -> RunResult:
    """Convenience: build a runner and execute once."""
    return ArrayRunner(module, array, max_cycles).run(inputs)
