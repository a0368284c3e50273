"""I/O driver generation (part of compiler phase 4).

The Warp array is fed by a host: an input stream enters the leftmost cell
and results leave the rightmost cell.  The "I/O driver" is the glue the
compiler generates so the host knows how to stream data through a given
download module: which cells consume input, which produce output, and a
static estimate of per-invocation traffic.  Our array simulator consumes
this descriptor to wire the external queues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..ir.instructions import Opcode
from .objformat import CellProgram


@dataclass
class CellIOProfile:
    """Static I/O facts about one cell program."""

    section_name: str
    entry: str
    static_receives: int = 0
    static_sends: int = 0

@dataclass
class IODriver:
    """Host-side driver descriptor for a whole download module."""

    #: cell index -> profile
    profiles: Dict[int, CellIOProfile] = field(default_factory=dict)
    input_cell: int = 0
    output_cell: int = 0

    def describe(self) -> str:
        lines = [f"io-driver: input->cell {self.input_cell}, "
                 f"cell {self.output_cell}->output"]
        for cell_index in sorted(self.profiles):
            profile = self.profiles[cell_index]
            lines.append(
                f"  cell {cell_index}: section {profile.section_name} "
                f"entry {profile.entry} "
                f"(recv sites: {profile.static_receives}, "
                f"send sites: {profile.static_sends})"
            )
        return "\n".join(lines)


def build_io_driver(cell_programs: Dict[int, CellProgram]) -> IODriver:
    """Derive the host driver descriptor from the linked cell programs."""
    if not cell_programs:
        raise ValueError("cannot build an I/O driver for an empty module")
    driver = IODriver()
    # Replicated cells share one CellProgram: its I/O sites count once.
    sites: Dict[int, Tuple[int, int]] = {}
    for cell_index, program in cell_programs.items():
        if id(program) not in sites:
            opcodes = [
                op.op
                for function in program.functions.values()
                for bundle in function.bundles
                for op in bundle.ops.values()
            ]
            sites[id(program)] = (
                opcodes.count(Opcode.RECV), opcodes.count(Opcode.SEND)
            )
        receives, sends = sites[id(program)]
        driver.profiles[cell_index] = CellIOProfile(
            section_name=program.section_name,
            entry=program.entry,
            static_receives=receives,
            static_sends=sends,
        )
    driver.input_cell = min(cell_programs)
    driver.output_cell = max(cell_programs)
    return driver
