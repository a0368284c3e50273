"""The master process: the top of the parallel compiler's hierarchy.

"The master level consists of exactly one process, the master that
controls the entire compilation ... it invokes a Common Lisp process that
parses the Warp program to obtain enough information to set up the
parallel compilation.  Thus, the master knows the structure of the
program and therefore the total number of processes involved in one
compilation" (§3.2).

Our master first asks the module tier for the record of a clean
compile of this very input, and given one rebuilds the module from the
section programs it names, parsing nothing.  Otherwise it splits the
text into function windows and parses the skeleton and the signature
headers (:func:`~repro.driver.phases.phase1_parallel`'s first passes) —
the windows too only when a cache tier needs what that yields — and
consults the artifact cache (functions whose fingerprints hit never
cross the process boundary).  It builds one :class:`FunctionTask` per
remaining function — its window and its section's headers — streams
those tasks through an execution backend while
section masters recombine results as they arrive, and runs phase 4
through :class:`~repro.driver.phases.Phase4Runner`: each section is
linked the moment its streaming recombiner completes, behind the
optional link cache, and a clean compile leaves its record behind.
Having parsed no window, it finishes phase 1 from the function masters'
facts; a refused window, a late cycle or a missing fact sends it to the
sequential front end, whose error report is canonical.
The output is bit-identical to the sequential compiler's.

A compiler never owns its backend or caches: it never shuts down or
reconfigures them, because they may be shared with other compilers (the
compile service multiplexes many concurrent compilations over one warm
pool and one artifact cache).  Whoever built a farm shuts it down.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Dict, List, Optional, Tuple

from ..asmlink.download import module_digest, module_size_words
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from ..parallel.backend import ExecutionBackend, stream_task_results
from ..parallel.local import SerialBackend
from ..parallel.schedule import window_cost_hint
from ..parallel.supervisor import SupervisedBackend
from .function_master import (
    FunctionTask,
    FunctionTaskResult,
    attach_assembly,
    phase1_cached,
    phase1_key,
)
from .phases import (
    ParsedProgram,
    Phase1Stats,
    Phase4Runner,
    Phase4Stats,
    attach_windows,
    compile_one_function,
    finish_window_plan,
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
        #: sema results are served from / written back to it.  With
        #: neither tier the master parses no window: its function
        #: masters do (:func:`phase1_parallel`'s window plan).
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
        # Master: the first passes determine the partitioning; the
        # windows too when a tier reads what their parse yields.  Errors
        # abort here, or once the function masters report them.
        stats = Phase1Stats()
        tiered = self.cache is not None or self.parse_cache is not None
        if tiered and self.parse_cache is None:
            front = lambda s, f: attach_windows(
                phase1_parse_and_check(s, f, stats=stats), s
            )
        else:
            front = partial(
                phase1_parallel, parse_cache=self.parse_cache,
                parse_windows=tiered, stats=stats, counts=counts,
            )
        parsed, memo_hit = phase1_cached(
            source_text, filename, front=front, checked=tiered
        )
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
        tasks = function_tasks(
            parsed, missed, self.options, phase1_key(source_text, filename)
        )
        dispatched = bool(tasks)

        # Phase 4: each section is linked as its recombiner completes
        # it.  The module embeds only the master's own sink — the
        # sequential front end's after a fallback — never what results
        # carry (see below).
        diagnostics_text = parsed.sink.render()
        runner = Phase4Runner(
            parsed, self.array, diagnostics_text, link_cache=self.link_cache
        )
        phase4_stats = self.last_phase4_stats = runner.stats
        for ready in combiner.combined_sections():
            runner.section_ready(ready)

        refused, facts = [], {}
        for result in stream_task_results(self.backend, tasks):
            if result.refused:
                refused.append(result)  # never combined, never linked
                continue
            facts[result.key] = result.window
            if self.cache is not None:
                self._write_back(fingerprints, result)
            completed = combiner.add(result)
            if completed is not None:
                runner.section_ready(completed)
        work = (
            (parsed.parse_work, parsed.sema_work) if parsed.checked
            else finish_window_plan(parsed, facts)
        )
        if refused or work is None:
            # The canonical error, or the refused functions compiled here
            stats.mode = "fallback"
            stats.fallback_reason = (
                refused[0].refused if refused else "late cycle or missing facts"
            )
            # A refused window was never its parse hit's entry.
            if self.parse_cache is not None:
                for result in refused:
                    if result.key in parsed.parse_keys:
                        self.parse_cache.reject(parsed.parse_keys[result.key])
            checked = phase1_parse_and_check(source_text, filename)
            diagnostics_text = runner.diagnostics_text = checked.sink.render()
            work = (checked.parse_work, checked.sema_work)
            for result in refused:
                obj, report = compile_one_function(
                    checked, *result.key, self.options
                )
                completed = combiner.add(attach_assembly(obj, report))
                if completed is not None:
                    runner.section_ready(completed)
        if stats.mode == "fallback":
            counts["phase1.fallbacks"] += 1
        combined = combiner.finalize()

        profile = WorkProfile(
            parse_work=work[0],
            sema_work=work[1],
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
        # A result carries only what the supervisor says of it (poison
        # warnings, isolation tracebacks).  Surface it on the compilation
        # result — but not inside the download module, whose bytes must
        # stay bit-identical to the sequential compiler's.
        extra = list(dict.fromkeys(diagnostics))
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
        missed = []
        for section, function in functions:
            fingerprint = fingerprints[(section.name, function.name)]
            result = count_lookup(
                counts, "artifact_cache", self.cache.get(fingerprint)
            )
            if result is None:
                missed.append((section, function))
                continue
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
            self.cache.put(fingerprint, result)


def function_tasks(
    parsed: ParsedProgram,
    functions,
    options: CompileOptions,
    key: Optional[Tuple[str, str]] = None,
) -> List[FunctionTask]:
    """A task per ``(section, function)`` pair of ``functions``: its
    window, its section's headers and a cost read from its text; ``key``
    names the :func:`phase1_cached` entry ``parsed`` is."""
    tasks = []
    for section, function in functions:
        window = parsed.windows.get((section.name, function.name), "")
        tasks.append(FunctionTask(
            section.name, function.name, window,
            parsed.headers.get(section.name, []), window_cost_hint(window),
            options, key,
        ))
    return tasks
