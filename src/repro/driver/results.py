"""Result types shared by the sequential and parallel drivers.

A compilation produces, besides the download module, a *work profile*:
deterministic per-phase work counts the workstation-cluster simulator
prices into virtual seconds.  The parallel and sequential compilers emit
identical artifacts (the paper's correctness requirement) and identical
work profiles — what differs is how the work is laid out over processors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Union

from ..asmlink.objformat import DownloadModule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .function_master import FunctionTaskResult


def render_counts(counts: Mapping[str, int]) -> str:
    """Every nonzero count as text, in order: ``"2 retries, 1 corrupt
    payloads"`` — the one way a line of counts is printed."""
    return ", ".join(
        f"{count} {name.replace('_', ' ')}"
        for name, count in counts.items()
        if count
    )


def count_lookup(counts: Counter, tier: str, payload):
    """Count one cache get as ``<tier>.hits`` or ``<tier>.misses``
    (``payload`` None is a miss); returns ``payload``."""
    counts[f"{tier}.misses" if payload is None else f"{tier}.hits"] += 1
    return payload


@dataclass
class FunctionReport:
    """Everything the schedulers and the cost model know about one
    function's compilation."""

    section_name: str
    name: str
    source_lines: int
    ir_instructions: int
    loop_weight: int
    work_units: int  # phases 2+3 (optimize + allocate + schedule)
    bundles: int
    pipelined_loops: int
    initiation_intervals: List[int] = field(default_factory=list)
    frame_words: int = 0
    #: supervision flags (0/1): ``poisoned`` means the task was pulled
    #: out of the farm after repeated failures and compiled in-process;
    #: ``failed`` means even the in-process compile failed, so the
    #: object code is a stub and the module is only partially valid.
    poisoned: int = 0
    failed: int = 0

    @property
    def key(self) -> tuple:
        return (self.section_name, self.name)

    def to_dict(self) -> Dict:
        """JSON-serializable view (``warpcc compile --json``, the compile
        service's status protocol): the fields, the section under the
        key ``section``."""
        data = asdict(self)
        data["section"] = data.pop("section_name")
        return data


@dataclass
class WorkProfile:
    """Deterministic work counts for one module compilation."""

    parse_work: int = 0
    sema_work: int = 0
    #: wall-time telemetry for the master's own phase-1 run and which
    #: front end ran: ``sequential``, ``parallel`` (the incremental,
    #: window-split one), ``windows`` (its first passes: the function
    #: masters parsed the windows), ``fallback`` (it bailed to
    #: sequential), ``memo`` (whole-module LRU hit, no parse), or
    #: ``cached`` (a module record answered the compile: no phase 1).
    phase1_parse_ms: float = 0.0
    phase1_sema_ms: float = 0.0
    phase1_mode: str = "sequential"
    #: wall-time telemetry for phase 4 (the section links, assembly
    #: included) and which back end ran: ``sequential``
    #: (SequentialCompiler's tail), ``parallel`` (the per-section
    #: runner), ``cached`` (a module record answered the compile: its
    #: sections' programs, no link), or ``fallback`` (the runner bailed
    #: to sequential).
    phase4_link_ms: float = 0.0
    phase4_mode: str = "sequential"
    functions: List[FunctionReport] = field(default_factory=list)
    assembly_work: int = 0
    link_work: int = 0
    download_words: int = 0
    #: total source lines (proxy for file-reading cost)
    source_lines: int = 0
    #: workers that actually ran the function-master tasks (a backend
    #: asked for more workers than tasks caps at the task count; speedup
    #: metrics must divide by this, not the requested pool size)
    workers_used: int = 1
    #: the events this compile caused, nonzero only, by dotted name:
    #: ``<tier>.hits`` / ``<tier>.misses`` for the lookups it made
    #: (``artifact_cache``, ``parse_cache``, ``link_cache``,
    #: ``module_cache``), ``phase1.fallbacks`` for a phase 1 the
    #: sequential front end finished, ``supervision.<counter>`` for its
    #: supervisor's delta
    counts: Dict[str, int] = field(default_factory=dict)

    def function_work(self) -> int:
        return sum(f.work_units for f in self.functions)

    def total_work(self) -> int:
        return (
            self.parse_work
            + self.sema_work
            + self.function_work()
            + self.assembly_work
            + self.link_work
        )

    def poisoned_functions(self) -> List[FunctionReport]:
        """Functions isolated from the farm after repeated failures."""
        return [f for f in self.functions if f.poisoned]

    def failed_functions(self) -> List[FunctionReport]:
        """Functions whose in-process isolation compile failed too — the
        module carries a stub for them and the build is partial."""
        return [f for f in self.functions if f.failed]

    def by_section(self) -> Dict[str, List[FunctionReport]]:
        sections: Dict[str, List[FunctionReport]] = {}
        for report in self.functions:
            sections.setdefault(report.section_name, []).append(report)
        return sections

    def to_dict(self) -> Dict:
        """JSON-serializable view of the profile: the fields, plus the
        sums the reports are read for."""
        data = asdict(self)
        data.update(
            functions=[f.to_dict() for f in self.functions],
            total_work=self.total_work(),
            function_work=self.function_work(),
        )
        return data


@dataclass
class CompilationResult:
    """The complete outcome of compiling one module."""

    module_name: str
    download: DownloadModule
    digest: str
    diagnostics_text: str
    profile: WorkProfile
    #: each function's sealed result (its assembled code), in source
    #: order — or, from a compile the module tier answered, a callable
    #: that produces them, called the first time ``results`` is read
    results: Union[
        List["FunctionTaskResult"], Callable[[], List["FunctionTaskResult"]]
    ] = field(default_factory=list)

    def report_lines(self) -> List[str]:
        lines = [
            f"module {self.module_name}: "
            f"{len(self.profile.functions)} function(s), "
            f"total work {self.profile.total_work()}"
        ]
        for fn in self.profile.functions:
            ii_text = (
                f" II={fn.initiation_intervals}" if fn.initiation_intervals else ""
            )
            mark = ""
            if fn.failed:
                mark = " [POISONED: no object code]"
            elif fn.poisoned:
                mark = " [poisoned: isolated in-process]"
            lines.append(
                f"  {fn.section_name}.{fn.name}: {fn.source_lines} lines, "
                f"{fn.work_units} work units, {fn.bundles} bundles, "
                f"{fn.pipelined_loops} pipelined loop(s)"
                f"{ii_text}{mark}"
            )
        happened = render_counts({
            name[len("supervision."):]: count
            for name, count in self.profile.counts.items()
            if name.startswith("supervision.")
        })
        if happened:
            lines.append(f"supervision: {happened}")
        return lines

    def to_dict(self) -> Dict:
        """Machine-readable report (``warpcc compile --json``): the job
        digest, per-function metrics, cache and supervisor counters —
        everything the text report says, parseable without scraping."""
        return {
            "module": self.module_name,
            "digest": self.digest,
            "diagnostics": self.diagnostics_text,
            "download_cells": self.download.cells_used,
            "download_words": self.profile.download_words,
            "profile": self.profile.to_dict(),
        }


def _results(self: CompilationResult) -> List["FunctionTaskResult"]:
    if callable(self._results):
        self._results = self._results()
    return self._results


def _set_results(self: CompilationResult, value) -> None:
    self._results = value


# After the decorator has seen the field: the generated __init__ /
# __repr__ / __eq__ go through the property like any other reader.
CompilationResult.results = property(_results, _set_results)
