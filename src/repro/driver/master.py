"""The master process: the top of the parallel compiler's hierarchy.

"The master level consists of exactly one process, the master that
controls the entire compilation ... it invokes a Common Lisp process that
parses the Warp program to obtain enough information to set up the
parallel compilation.  Thus, the master knows the structure of the
program and therefore the total number of processes involved in one
compilation" (§3.2).

Our master: parses and checks once (aborting on errors), builds one
:class:`FunctionTask` per function, consults the persistent artifact
cache (functions whose fingerprints hit never cross the process
boundary), streams the remaining tasks through an execution backend while
section masters recombine results as they arrive, and runs phase 4
through :class:`~repro.driver.phases.Phase4Runner`: each section is
linked the moment its streaming recombiner completes, behind the
optional link cache.  The output is bit-identical to the sequential
compiler's.

Ownership: a compile never shuts down or reconfigures the backend or
cache it was given — both may be shared with other compilers (the
compile service multiplexes many concurrent compilations over one warm
pool and one artifact cache).  Callers that *want* the compiler to tear
its backend down with it pass ``owns_backend=True`` and use
:meth:`ParallelCompiler.close` (or the context-manager form); a borrowed
backend is left exactly as it was found.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..asmlink.download import module_digest, module_size_words
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from ..parallel.backend import ExecutionBackend, stream_task_results
from ..parallel.local import SerialBackend
from ..parallel.schedule import ast_cost_hint
from .function_master import FunctionTask, FunctionTaskResult, phase1_cached
from .phases import (
    ParsedProgram,
    Phase1Stats,
    Phase4Runner,
    Phase4Stats,
    phase1_parallel,
    phase1_parse_and_check,
)
from .results import CompilationResult, WorkProfile
from .section_master import StreamingSectionCombiner


class ParallelCompiler:
    """Master / section-master / function-master parallel compilation."""

    def __init__(
        self,
        backend: Optional[ExecutionBackend] = None,
        options: CompileOptions = CompileOptions(),
        cache=None,
        parse_cache=None,
        link_cache=None,
        owns_backend: bool = False,
    ):
        self.backend = backend if backend is not None else SerialBackend()
        #: what every task carries and every fingerprint hashes
        self.options = options
        self.array = WarpArrayModel(cell_count=options.cell_count)
        #: optional :class:`repro.cache.ArtifactCache`: phase-2/3 results
        #: are served from / written back to it, keyed per function.
        self.cache = cache
        #: whether :meth:`close` may shut the backend down.  False for
        #: caller-provided (possibly shared, possibly context-managed)
        #: backends: closing a compiler must never tear down a pool it
        #: does not own (the double-shutdown footgun).
        self.owns_backend = owns_backend
        #: optional :class:`repro.cache.ParseCache`: per-function parse+
        #: sema results are served from / written back to it.  Given one,
        #: phase 1 runs the incremental front end
        #: (:func:`phase1_parallel`); without one, the sequential front
        #: end, which has nothing to reuse.
        self.parse_cache = parse_cache
        #: :class:`~repro.driver.phases.Phase1Stats` of the most recent
        #: :meth:`compile` — telemetry for reports and benchmarks.
        self.last_phase1_stats: Optional[Phase1Stats] = None
        #: optional :class:`repro.cache.LinkCache`: per-section linked
        #: programs and whole download modules are served from / written
        #: back to it.
        self.link_cache = link_cache
        #: :class:`~repro.driver.phases.Phase4Stats` of the most recent
        #: :meth:`compile`.
        self.last_phase4_stats: Optional[Phase4Stats] = None

    def close(self) -> None:
        """Release owned resources.  A borrowed backend is untouched;
        an owned one is shut down (idempotently).  The artifact cache is
        an on-disk store with no connection state — never closed here."""
        if self.owns_backend:
            shutdown = getattr(self.backend, "shutdown", None)
            if shutdown is not None:
                shutdown()

    def __enter__(self) -> "ParallelCompiler":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    def compile(
        self, source_text: str, filename: str = "<input>"
    ) -> CompilationResult:
        # Master: one extra parse of the whole program to determine the
        # partitioning; syntax/semantic errors abort here.  The parse
        # goes through the phase-1 cache so in-process workers (and, with
        # a fork start method, freshly forked pool workers) reuse it.
        stats = Phase1Stats()
        if self.parse_cache is not None:
            front = lambda s, f: phase1_parallel(
                s, f, parse_cache=self.parse_cache, stats=stats
            )
        else:
            front = lambda s, f: phase1_parse_and_check(s, f, stats=stats)
        parsed, memo_hit = phase1_cached(source_text, filename, front=front)
        if memo_hit:
            stats.mode = "memo"
        self.last_phase1_stats = stats
        tasks = self._build_tasks(parsed, source_text, filename)

        # Section masters combine incrementally: cache hits land first,
        # backend results stream in behind them.
        combiner = StreamingSectionCombiner(parsed.module.sections)
        stats_before = (
            self.cache.stats.copy() if self.cache is not None else None
        )
        # Only a backend this compile drives itself has attributable
        # supervision counters (the service's per-job backend, whose
        # shared pool aggregates many concurrent jobs, exposes none).
        supervision = getattr(self.backend, "supervision", None)
        supervision_before = (
            supervision.copy() if supervision is not None else None
        )
        misses, fingerprints = self._serve_from_cache(parsed, tasks, combiner)
        dispatched = bool(misses)

        # Phase 4: each section is linked as its recombiner completes
        # it.  diagnostics_text is fixed before dispatch — the module
        # embeds only the master's own sink, never supervisor additions
        # (see below).
        diagnostics_text = parsed.sink.render()
        runner = Phase4Runner(
            parsed, self.array, diagnostics_text, link_cache=self.link_cache
        )
        phase4_stats = self.last_phase4_stats = runner.stats
        cached_module = None
        if not misses:
            # Fully warm in phases 2/3: probe the whole-module tier
            # before linking anything.
            cached_module = runner.lookup_module(combiner.finalize())
        if cached_module is None:
            for ready in combiner.combined_sections():
                runner.section_ready(ready)

        for result in stream_task_results(self.backend, misses):
            if self.cache is not None:
                self._write_back(fingerprints, result)
            completed = combiner.add(result)
            if completed is not None:
                runner.section_ready(completed)
        combined = combiner.finalize()

        profile = WorkProfile(
            parse_work=parsed.parse_work,
            sema_work=parsed.sema_work,
            source_lines=parsed.source_lines,
            workers_used=(
                self.backend.effective_worker_count
                if dispatched
                # Everything came out of the artifact cache: the master
                # alone did the (trivial) work.
                else 1
            ),
            phase1_parse_ms=round(stats.parse_ms, 3),
            phase1_sema_ms=round(stats.sema_ms, 3),
            phase1_mode=stats.mode,
            parse_cache_hits=stats.cache_hits,
            parse_cache_misses=stats.cache_misses,
        )
        if stats_before is not None:
            profile.artifact_cache_evictions = (
                self.cache.stats.evictions - stats_before.evictions
            )
            profile.artifact_cache_corrupt = (
                self.cache.stats.corrupt - stats_before.corrupt
            )
        if supervision_before is not None:
            # The supervisor's counters are cumulative across compiles;
            # the profile records this compile's delta of each.
            profile.supervision = {
                name: count - getattr(supervision_before, name)
                for name, count in vars(supervision).items()
            }
        results: List[FunctionTaskResult] = []
        diagnostics: List[str] = []
        for section in parsed.module.sections:
            section_result = combined[section.name]
            results.extend(section_result.results)
            profile.functions.extend(section_result.reports)
            diagnostics.extend(section_result.diagnostics)

        module, assembly_work, link_work = runner.finish(
            combined, cached_module=cached_module
        )
        profile.phase4_link_ms = round(phase4_stats.link_ms, 3)
        profile.phase4_mode = phase4_stats.mode
        profile.link_cache_hits = phase4_stats.link_cache_hits
        profile.link_cache_misses = phase4_stats.link_cache_misses
        # Result diagnostics normally mirror the master's own sink; any
        # others (the supervisor's poison warnings and isolation
        # tracebacks) exist only on results.  Surface them on the
        # compilation result — but not inside the download module, whose
        # bytes must stay bit-identical to the sequential compiler's.
        sink_rendered = {d.render() for d in parsed.sink.diagnostics}
        extra = [
            line
            for line in dict.fromkeys(diagnostics)
            if line not in sink_rendered
        ]
        if extra:
            joined = "\n".join(extra)
            diagnostics_text = (
                f"{diagnostics_text}\n{joined}" if diagnostics_text else joined
            )
        profile.assembly_work = assembly_work
        profile.link_work = link_work
        profile.download_words = module_size_words(module)

        return CompilationResult(
            module_name=parsed.module.name,
            download=module,
            digest=module_digest(module),
            diagnostics_text=diagnostics_text,
            profile=profile,
            # On demand: a function that came as bytes (from the cache,
            # from another process) is decoded when its object code is
            # first read, not before.
            objects=lambda: [result.obj for result in results],
        )

    # -- artifact cache -------------------------------------------------

    def _serve_from_cache(
        self,
        parsed: ParsedProgram,
        tasks: List[FunctionTask],
        combiner: StreamingSectionCombiner,
    ) -> Tuple[List[FunctionTask], Dict[Tuple[str, str], str]]:
        """Feed cache hits straight into the combiner; return the tasks
        that must go to the backend plus the fingerprint map for
        write-back."""
        if self.cache is None:
            return tasks, {}
        # The salt comes from the one canonical seam (repro.cache), passed
        # explicitly so the keying policy is visible at the call site.
        from ..cache import compiler_salt, module_fingerprints

        fingerprints = module_fingerprints(
            parsed.module, self.options, salt=compiler_salt()
        )
        rendered = [d.render() for d in parsed.sink.diagnostics]
        misses: List[FunctionTask] = []
        for task in tasks:
            result = self.cache.get(fingerprints[task.key])
            if result is None:
                misses.append(task)
                continue
            # Reconstruct what a live function master would have sent:
            # current diagnostics and fresh telemetry — the cached
            # run's counters do not apply.
            result.diagnostics = list(rendered)
            result.report.phase1_cache_hits = 0
            result.report.phase1_cache_misses = 0
            result.report.artifact_cache_hits = 1
            result.report.artifact_cache_misses = 0
            combiner.add(result)
        return misses, fingerprints

    def _write_back(
        self,
        fingerprints: Dict[Tuple[str, str], str],
        result: FunctionTaskResult,
    ) -> None:
        """Persist one freshly compiled artifact and mark its report.

        Retried-then-successful results are written back like any other
        (the section master cannot tell a third-try result from a
        first-try one).  Poisoned or failed results are NEVER persisted:
        an in-process rescue or a stub must not masquerade as a healthy
        farm artifact on the next build.
        """
        if result.report.poisoned or result.report.failed:
            return
        fingerprint = fingerprints.get(result.key)
        if fingerprint is not None:
            # Strip per-run state before storing: diagnostics belong to
            # the module that *reads* the cache, and telemetry counters
            # are re-derived at hit time.
            sanitized = replace(
                result,
                diagnostics=[],
                report=replace(
                    result.report,
                    phase1_cache_hits=0,
                    phase1_cache_misses=0,
                    artifact_cache_hits=0,
                    artifact_cache_misses=0,
                ),
            )
            self.cache.put(fingerprint, sanitized)
        result.report.artifact_cache_hits = 0
        result.report.artifact_cache_misses = 1

    def _build_tasks(
        self, parsed: ParsedProgram, source_text: str, filename: str
    ) -> List[FunctionTask]:
        return [
            FunctionTask(
                source_text,
                filename,
                section.name,
                function.name,
                cost_hint=ast_cost_hint(function),
                options=self.options,
            )
            for section in parsed.module.sections
            for function in section.functions
        ]
