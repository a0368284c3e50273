"""Diagnostics: errors and warnings with source positions.

The compiler never prints directly; all phases report through a
:class:`DiagnosticSink`.  This matters for the parallel compiler: each
function master collects its own diagnostics, and the section master merges
them back into source order so the parallel compiler's output is identical
to the sequential compiler's output (the paper's §3.2 requires the section
master "to combine the diagnostic output that was generated during the
compilation of the functions").

A reporter hands a sink the offsets ``(start, end)`` of a token or a node;
the sink derives line and column in the source it is bound to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from .source import SourceFile, Span


class Severity(enum.Enum):
    """How bad a diagnostic is; errors abort compilation after the phase."""

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem, formatted as ``file:line:col: severity: msg``."""

    severity: Severity
    message: str
    span: Optional[Span] = None

    def render(self) -> str:
        location = f"{self.span}: " if self.span is not None else ""
        return f"{location}{self.severity}: {self.message}"

    def sort_key(self):
        """Stable source order used when merging per-function diagnostics."""
        if self.span is None:
            return ("", 0, 0)
        return (self.span.filename, self.span.start.line, self.span.start.column)


class CompileError(Exception):
    """Raised when a phase cannot continue; carries the diagnostics so far."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(d.render() for d in self.diagnostics[:3])
        extra = len(self.diagnostics) - 3
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(summary or "compilation failed")


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics for one compilation (or one function)."""

    source: Optional[SourceFile] = field(default=None, repr=False)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def error(self, message: str, at: Optional[Tuple[int, int]] = None) -> None:
        """Report an error at the offsets ``at`` of :attr:`source`."""
        self._report(Severity.ERROR, message, at)

    def warning(self, message: str, at: Optional[Tuple[int, int]] = None) -> None:
        self._report(Severity.WARNING, message, at)

    def _report(self, severity: Severity, message: str, at) -> None:
        span = None if at is None else self.source.span(*at)
        self.diagnostics.append(Diagnostic(severity, message, span))

    def extend(self, other: "DiagnosticSink") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return self.error_count > 0

    def check(self) -> None:
        """Raise :class:`CompileError` if any errors were reported."""
        if self.has_errors:
            raise CompileError(self.diagnostics)

    def merged_in_source_order(self) -> List[Diagnostic]:
        """Diagnostics sorted by source position — the sequential order.

        Used by section masters to recombine per-function diagnostics so
        the parallel compiler reports exactly what the sequential one would.
        """
        return sorted(self.diagnostics, key=Diagnostic.sort_key)

    def render(self) -> str:
        return "\n".join(d.render() for d in self.merged_in_source_order())
