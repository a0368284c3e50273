"""The Warp array model: a linear systolic array of identical cells.

Cells are connected left-to-right by bounded FIFO queues ("pathways"); the
leftmost cell receives the external input stream and the rightmost cell
produces the external output stream.  A module's sections claim disjoint
contiguous cell ranges (checked by sema), and every cell in a section runs
that section's program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .warp_cell import WarpCellModel


class CellRangeError(ValueError):
    """A section outside the array."""


@dataclass
class WarpArrayModel:
    """Parameters of the whole machine."""

    cell_count: int = 10
    cell: WarpCellModel = field(default_factory=WarpCellModel)

    def __post_init__(self):
        if self.cell_count < 1:
            raise ValueError(f"need at least one cell, got {self.cell_count}")

    def validate_section_range(self, first: int, last: int) -> None:
        if not (0 <= first <= last < self.cell_count):
            raise CellRangeError(
                f"section cells {first}..{last} outside array of "
                f"{self.cell_count} cells"
            )


def default_array() -> WarpArrayModel:
    """The ten-cell array the paper's Warp machine had."""
    return WarpArrayModel(cell_count=10)
