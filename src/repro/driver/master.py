"""The master process: the top of the parallel compiler's hierarchy.

"The master level consists of exactly one process, the master that
controls the entire compilation ... it invokes a Common Lisp process that
parses the Warp program to obtain enough information to set up the
parallel compilation.  Thus, the master knows the structure of the
program and therefore the total number of processes involved in one
compilation" (§3.2).

Our master first asks the module tier for the record of a clean
compile of this very input, and given one rebuilds the module from the
section programs it names, parsing nothing.  Otherwise it parses and
checks once (aborting on errors), consults the persistent artifact
cache (functions whose fingerprints hit never cross the process
boundary), builds one :class:`FunctionTask` per remaining function,
streams those tasks through an execution backend while
section masters recombine results as they arrive, and runs phase 4
through :class:`~repro.driver.phases.Phase4Runner`: each section is
linked the moment its streaming recombiner completes, behind the
optional link cache, and a clean compile leaves its record behind.
The output is bit-identical to the sequential compiler's.

A compiler never owns its backend or caches: it never shuts down or
reconfigures them, because they may be shared with other compilers (the
compile service multiplexes many concurrent compilations over one warm
pool and one artifact cache).  Whoever built a farm shuts it down.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..asmlink.download import module_digest, module_size_words
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from ..parallel.backend import ExecutionBackend, stream_task_results
from ..parallel.local import SerialBackend
from ..parallel.schedule import ast_cost_hint
from ..parallel.supervisor import SupervisedBackend
from .function_master import FunctionTask, FunctionTaskResult, phase1_cached
from .phases import (
    ParsedProgram,
    Phase1Stats,
    Phase4Runner,
    Phase4Stats,
    phase1_parallel,
    phase1_parse_and_check,
)
from .results import CompilationResult, WorkProfile, count_lookup
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
    ):
        self.backend = backend if backend is not None else SerialBackend()
        #: what every task carries and every fingerprint hashes
        self.options = options
        self.array = WarpArrayModel(cell_count=options.cell_count)
        #: optional :class:`repro.cache.ArtifactCache`: phase-2/3 results
        #: are served from / written back to it, keyed per function.
        self.cache = cache
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
        #: programs and the records of clean compiles are served from /
        #: written back to it.
        self.link_cache = link_cache
        #: :class:`~repro.driver.phases.Phase4Stats` of the most recent
        #: :meth:`compile`.
        self.last_phase4_stats: Optional[Phase4Stats] = None

    def compile(
        self, source_text: str, filename: str = "<input>"
    ) -> CompilationResult:
        # The events this compile causes, and only those: every lookup
        # is counted by whoever makes it.
        counts: Counter = Counter()
        key = None
        if self.link_cache is not None:
            from ..cache.link_store import module_link_key

            key = module_link_key(source_text, filename, self.options)
            served = Phase4Runner.lookup_module(
                self.link_cache, key, self.array, counts
            )
            if served is not None:
                return self._served(source_text, filename, counts, *served)
        return self._compile(source_text, filename, key, counts)

    def _served(self, source_text, filename, counts, record, module):
        """The compile the module tier answered: the record's facts and
        the module rebuilt from its sections.  The sealed results, which
        only search reads, come from the ordinary warm path on demand."""
        self.last_phase1_stats = Phase1Stats(mode="cached")
        self.last_phase4_stats = Phase4Stats(mode="cached")
        profile = WorkProfile(
            **{name: getattr(record, name) for name in record.profile_facts},
            phase1_mode="cached",
            phase4_mode="cached",
            download_words=module_size_words(module),
            counts=dict(sorted((+counts).items())),
        )
        return CompilationResult(
            module_name=record.module_name,
            download=module,
            digest=record.digest,
            diagnostics_text=record.diagnostics_text,
            profile=profile,
            results=lambda: self._compile(
                source_text, filename, None, Counter()
            ).results,
        )

    def _compile(
        self, source_text, filename, key, counts
    ) -> CompilationResult:
        """Phases 1-4; leaves a record under ``key`` if the compile was
        clean."""
        # Master: one extra parse of the whole program to determine the
        # partitioning; syntax/semantic errors abort here.  The parse
        # goes through the phase-1 cache so in-process workers (and, with
        # a fork start method, freshly forked pool workers) reuse it.
        stats = Phase1Stats()
        if self.parse_cache is not None:
            front = lambda s, f: phase1_parallel(
                s, f, parse_cache=self.parse_cache, stats=stats, counts=counts
            )
        else:
            front = lambda s, f: phase1_parse_and_check(s, f, stats=stats)
        parsed, memo_hit = phase1_cached(source_text, filename, front=front)
        if memo_hit:
            stats.mode = "memo"
        self.last_phase1_stats = stats

        # Section masters combine incrementally: cache hits land first,
        # backend results stream in behind them.
        combiner = StreamingSectionCombiner(parsed.module.sections)
        # Only a supervisor this compile drives itself has attributable
        # counters (the service's per-job backend, whose shared pool
        # aggregates many concurrent jobs, is none): one compile at a
        # time drives it, so its delta over the compile is this one's.
        supervisor = (
            self.backend if isinstance(self.backend, SupervisedBackend)
            else None
        )
        before = Counter(supervisor.counts) if supervisor is not None else None
        missed, fingerprints = self._serve_from_cache(
            parsed, combiner, counts
        )
        # A parse hit's function is its signature stub; cost hints read trees.
        missed = [
            (sec, parsed.function(sec.name, fn.name, counts)[0])
            for sec, fn in missed
        ]
        misses = self._build_tasks(missed, source_text, filename)
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
        for ready in combiner.combined_sections():
            runner.section_ready(ready)

        for result in stream_task_results(self.backend, misses):
            if result.phase1_memo_hit is not None:
                counts[
                    "phase1_memo.hits" if result.phase1_memo_hit
                    else "phase1_memo.misses"
                ] += 1
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
        )
        if supervisor is not None:
            counts.update({
                f"supervision.{name}": count
                for name, count in (supervisor.counts - before).items()
            })
        results: List[FunctionTaskResult] = []
        diagnostics: List[str] = []
        for section in parsed.module.sections:
            section_result = combined[section.name]
            results.extend(section_result.results)
            profile.functions.extend(section_result.reports)
            diagnostics.extend(section_result.diagnostics)

        module, assembly_work, link_work = runner.finish(combined)
        profile.phase4_link_ms = round(phase4_stats.link_ms, 3)
        profile.phase4_mode = phase4_stats.mode
        counts.update(runner.counts)
        profile.counts = dict(sorted((+counts).items()))
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
        digest = module_digest(module)
        # Clean: every section's program is in link/ (phase 4 ran
        # parallel, which no poisoned or failed report does) and the
        # module's diagnostics are all there is to say.
        if key is not None and phase4_stats.mode == "parallel" and not extra:
            from ..cache.link_store import ModuleRecord, SectionRecord

            facts = {
                name: getattr(profile, name)
                for name in ModuleRecord.profile_facts
            }
            sections = [
                SectionRecord(
                    section.name, section.first_cell, section.last_cell,
                    runner.link_keys[section.name],
                )
                for section in parsed.module.sections
            ]
            self.link_cache.modules.put(key, ModuleRecord(
                parsed.module.name, sections, diagnostics_text, digest,
                **facts,
            ))

        return CompilationResult(
            module_name=parsed.module.name,
            download=module,
            digest=digest,
            diagnostics_text=diagnostics_text,
            profile=profile,
            results=results,
        )

    # -- artifact cache -------------------------------------------------

    def _serve_from_cache(
        self,
        parsed: ParsedProgram,
        combiner: StreamingSectionCombiner,
        counts: Counter,
    ) -> Tuple[list, Dict[Tuple[str, str], str]]:
        """Feed cache hits straight into the combiner, counting each get;
        return the ``(section, function)`` pairs that must go to the
        backend plus the fingerprint map for write-back."""
        functions = list(parsed.module.all_functions())
        if self.cache is None:
            return functions, {}
        # The salt comes from the one canonical seam (repro.cache), passed
        # explicitly so the keying policy is visible at the call site.
        from ..cache import compiler_salt, module_fingerprints

        fingerprints = module_fingerprints(
            parsed.module, self.options, salt=compiler_salt(),
            texts=parsed.fingerprint_texts,
        )
        rendered = [d.render() for d in parsed.sink.diagnostics]
        missed = []
        for section, function in functions:
            fingerprint = fingerprints[(section.name, function.name)]
            result = count_lookup(
                counts, "artifact_cache", self.cache.get(fingerprint)
            )
            if result is None:
                missed.append((section, function))
                continue
            # What a live function master would have sent: the current
            # diagnostics.
            result.diagnostics = list(rendered)
            combiner.add(result)
        return missed, fingerprints

    def _write_back(
        self,
        fingerprints: Dict[Tuple[str, str], str],
        result: FunctionTaskResult,
    ) -> None:
        """Persist one freshly compiled artifact.

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
            # Diagnostics belong to the module that *reads* the cache.
            self.cache.put(fingerprint, replace(result, diagnostics=[]))

    def _build_tasks(
        self, functions, source_text: str, filename: str
    ) -> List[FunctionTask]:
        """A task per ``(section, function)`` pair of ``functions``."""
        return [
            FunctionTask(
                source_text,
                filename,
                section.name,
                function.name,
                cost_hint=ast_cost_hint(function),
                options=self.options,
            )
            for section, function in functions
        ]
