"""Figure data model: named series over an x-axis, rendered as tables.

Each benchmark regenerates one of the paper's figures as a
:class:`Figure` — the same series the plot showed, printed as an aligned
table so `pytest benchmarks/ --benchmark-only` output reads like the
paper's evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Series:
    """One line of a figure."""

    label: str
    points: Dict[object, float] = field(default_factory=dict)

    def add(self, x, y: float) -> None:
        self.points[x] = y

@dataclass
class Figure:
    """A reproduced figure: id, axes, and its series."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    xs: List[object] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)

    def new_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def series_named(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in figure {self.figure_id}")

    def render(self) -> str:
        """Aligned text table: one row per x, one column per series."""
        header = [self.x_label] + [s.label for s in self.series]
        rows = [header]
        for x in self.xs:
            row = [str(x)]
            for s in self.series:
                value = s.points.get(x)
                row.append("-" if value is None else f"{value:.2f}")
            rows.append(row)
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(header))
        ]
        lines = [
            f"{self.figure_id}: {self.title}",
            f"  ({self.y_label})",
        ]
        for row in rows:
            lines.append(
                "  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)
