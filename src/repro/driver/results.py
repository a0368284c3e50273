"""Result types shared by the sequential and parallel drivers.

A compilation produces, besides the download module, a *work profile*:
deterministic per-phase work counts the workstation-cluster simulator
prices into virtual seconds.  The parallel and sequential compilers emit
identical artifacts (the paper's correctness requirement) and identical
work profiles — what differs is how the work is laid out over processors.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..asmlink.objformat import DownloadModule, ObjectFunction


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
    #: variant search: the winning config's key (None outside search
    #: mode) and the simulated cycle count of the module with this
    #: function's winner swapped in (None when never simulated).
    winner_config: Optional[str] = None
    simulated_cycles: Optional[int] = None
    #: phase-1 cache telemetry: whether this report's task found its
    #: module already parsed in the worker's cache (0/1 each).
    phase1_cache_hits: int = 0
    phase1_cache_misses: int = 0
    #: artifact-cache telemetry: whether this function's phase-2/3 result
    #: was served from the persistent cache (hit) or compiled and written
    #: back (miss).  Both stay 0 when no artifact cache is configured.
    artifact_cache_hits: int = 0
    artifact_cache_misses: int = 0
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
    #: window-split one), ``fallback`` (it bailed to sequential), or
    #: ``memo`` (whole-module LRU hit, no parse).
    phase1_parse_ms: float = 0.0
    phase1_sema_ms: float = 0.0
    phase1_mode: str = "sequential"
    #: span-hash parse-cache counters for the master's phase-1 run (the
    #: incremental front end; distinct from the per-worker whole-module
    #: memo counted on the function reports).
    parse_cache_hits: int = 0
    parse_cache_misses: int = 0
    #: wall-time telemetry for phase 4 (the section links, assembly
    #: included) and which back end ran: ``sequential``
    #: (SequentialCompiler's tail), ``parallel`` (the per-section
    #: runner), ``cached`` (whole-module cache hit, phase 4 skipped), or
    #: ``fallback`` (the runner bailed to sequential).
    phase4_link_ms: float = 0.0
    phase4_mode: str = "sequential"
    #: link-cache counters for this compile's phase 4 (per-section
    #: CellProgram tier; a whole-module hit reports mode ``cached``
    #: with zero section probes).
    link_cache_hits: int = 0
    link_cache_misses: int = 0
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
    #: artifact-cache maintenance events observed during this compile
    #: (size-bound evictions and corrupt entries discarded); hit/miss
    #: counts live on the per-function reports.
    artifact_cache_evictions: int = 0
    artifact_cache_corrupt: int = 0
    #: this compile's delta of every
    #: :class:`~repro.parallel.supervisor.SupervisionStats` counter —
    #: retries, timeouts, hedges, quarantines, poisoned tasks, … (empty
    #: when the backend has no supervisor of its own)
    supervision: Dict[str, int] = field(default_factory=dict)
    #: variant-search counters (all zero / empty outside ``warpcc
    #: search``).  ``search_wins`` maps a config key ("o2u64i0") to how
    #: many functions it won; cycle counts are whole-module simulated
    #: cycles over the search's input set.
    searched: bool = False
    search_space: List[str] = field(default_factory=list)
    search_variants_simulated: int = 0
    search_variants_cached: int = 0
    search_variants_identical: int = 0
    search_variants_disqualified: int = 0
    search_wins: Dict[str, int] = field(default_factory=dict)
    search_baseline_cycles: int = 0
    search_module_cycles: int = 0
    search_cycles_saved: int = 0

    def function_work(self) -> int:
        return sum(f.work_units for f in self.functions)

    def phase1_cache_hits(self) -> int:
        """Tasks that skipped parse+sema thanks to a warm worker cache."""
        return sum(f.phase1_cache_hits for f in self.functions)

    def phase1_cache_misses(self) -> int:
        return sum(f.phase1_cache_misses for f in self.functions)

    def redundant_parse_work_saved(self) -> int:
        """Parse+sema work units not re-done because of cache hits."""
        return (self.parse_work + self.sema_work) * self.phase1_cache_hits()

    def artifact_cache_hits(self) -> int:
        """Functions whose phase-2/3 work came from the persistent cache."""
        return sum(f.artifact_cache_hits for f in self.functions)

    def artifact_cache_misses(self) -> int:
        return sum(f.artifact_cache_misses for f in self.functions)

    def cached_function_work(self) -> int:
        """Phase-2/3 work units served from the artifact cache."""
        return sum(
            f.work_units for f in self.functions if f.artifact_cache_hits
        )

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
        """JSON-serializable view of the profile and its counters: the
        fields, plus the sums the reports are read for."""
        data = asdict(self)
        data.update(
            functions=[f.to_dict() for f in self.functions],
            total_work=self.total_work(),
            function_work=self.function_work(),
            phase1_cache_hits=self.phase1_cache_hits(),
            phase1_cache_misses=self.phase1_cache_misses(),
            artifact_cache_hits=self.artifact_cache_hits(),
            artifact_cache_misses=self.artifact_cache_misses(),
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
    #: the object functions in source order — or, from a compiler that
    #: may hold them only as encoded bytes, a callable that produces
    #: them, called the first time ``objects`` is read
    objects: Union[
        List[ObjectFunction], Callable[[], List[ObjectFunction]]
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
            cycles_text = (
                f" ~{fn.simulated_cycles} cycles"
                if fn.simulated_cycles is not None
                else ""
            )
            winner_text = (
                f" [{fn.winner_config}]" if fn.winner_config else ""
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
                f"{ii_text}{cycles_text}{winner_text}{mark}"
            )
        if self.profile.searched:
            wins = ", ".join(
                f"{key} x{count}"
                for key, count in sorted(self.profile.search_wins.items())
            )
            lines.append(
                f"search: {len(self.profile.search_space)} config(s), "
                f"baseline {self.profile.search_baseline_cycles} cycles -> "
                f"{self.profile.search_module_cycles} cycles "
                f"(saved {self.profile.search_cycles_saved}); "
                f"{self.profile.search_variants_simulated} simulated, "
                f"{self.profile.search_variants_cached} cached, "
                f"{self.profile.search_variants_identical} identical, "
                f"{self.profile.search_variants_disqualified} disqualified"
                + (f"; wins: {wins}" if wins else "")
            )
        happened = ", ".join(
            f"{count} {name.replace('_', ' ')}"
            for name, count in self.profile.supervision.items()
            if count
        )
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


def _objects(self: CompilationResult) -> List[ObjectFunction]:
    if callable(self._objects):
        self._objects = self._objects()
    return self._objects


def _set_objects(self: CompilationResult, value) -> None:
    self._objects = value


# After the decorator has seen the field: the generated __init__ /
# __repr__ / __eq__ go through the property like any other reader.
CompilationResult.objects = property(_objects, _set_objects)
