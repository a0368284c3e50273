"""Source text handling: files, and the positions a diagnostic reports.

Tokens and AST nodes carry integer offsets into the text they were lexed
from — a ``(start, end)`` pair — and nothing else.  A line and column
are a fact derived from an offset, through :meth:`SourceFile.position_at`,
and only where one is shown: when a diagnostic is reported
(:meth:`SourceFile.span`).  The parallel compiler's master process parses
the whole program once to derive the partitioning, and diagnostics
produced by the function masters are recombined by the section masters;
stable, position-carrying diagnostics are what make that recombination
deterministic.

An offset is always measured within one :class:`SourceFile`.  The
incremental front end makes each function window a ``SourceFile`` of its
own — its text, no filename — so a window's subtree is measured from the
window, wherever the function sits in the file.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Position:
    """A point in a source file (1-based line/column, 0-based offset)."""

    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Span:
    """A half-open range of source text ``[start, end)`` in one file."""

    filename: str
    start: Position
    end: Position

    def __str__(self) -> str:
        return f"{self.filename}:{self.start}"


@dataclass
class SourceFile:
    """A named unit of source text with lazy line indexing."""

    filename: str
    text: str
    _line_starts: list = field(default_factory=list, repr=False)

    def line_starts(self) -> list:
        """Offsets at which each line begins (computed once)."""
        if not self._line_starts:
            starts = [0]
            find = self.text.find
            newline = find("\n")
            while newline >= 0:
                starts.append(newline + 1)
                newline = find("\n", newline + 1)
            self._line_starts = starts
        return self._line_starts

    def position_at(self, offset: int) -> Position:
        """Translate a byte offset into a line/column position."""
        if offset < 0 or offset > len(self.text):
            raise ValueError(f"offset {offset} out of range for {self.filename!r}")
        starts = self.line_starts()
        line = bisect_right(starts, offset)
        return Position(line, offset - starts[line - 1] + 1, offset)

    def span(self, start: int, end: int) -> Span:
        """The :class:`Span` of the offsets ``[start, end)``."""
        return Span(self.filename, self.position_at(start), self.position_at(end))

    def line_text(self, line: int) -> str:
        """The text of the given 1-based line, without the newline."""
        starts = self.line_starts()
        if line < 1 or line > len(starts):
            raise ValueError(f"line {line} out of range for {self.filename!r}")
        begin = starts[line - 1]
        end = starts[line] - 1 if line < len(starts) else len(self.text)
        return self.text[begin:end]

    def count_lines(self) -> int:
        """Number of lines in the file (an empty file has one empty line)."""
        return len(self.line_starts())
