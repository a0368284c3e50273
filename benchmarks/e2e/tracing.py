"""Spans and counts around the layers' public functions, for the traced run.

The benchmark records spans from its own files: :func:`install` wraps
the public functions and methods listed in :data:`TARGETS` and rebinds
each public name in every ``repro.*`` module that imported it, in this
interpreter only.  Nothing private (``_name``) is wrapped or called, so
the compiler under test runs the code it always runs; the cost of the
wrappers is reported as ``trace.overhead_share``.

A span is ``(id, parent id, op id, name, metric, start, end, thread)``.
One *op* (one compile of one module) is the root of a tree: op → phase →
function → layer call.  A layer's *self time* is its spans' duration
minus the part of it their child spans cover, so self times partition
the op's wall clock; what is left on the op span itself is the
unattributed remainder (``driver.unattributed_share``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pickle
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

ID, PARENT, OP, NAME, METRIC, START, END, THREAD = range(8)

#: metric that collects the op span's own self time
UNATTRIBUTED = "driver.unattributed_s"


class Recorder:
    """In-memory span store plus named counters.

    Spans are recorded only while an op is open.  The load generator is
    one closed-loop client, so at most one op is in flight.  A span's
    parent is the span that caused it: the innermost open span on its
    own thread or, on a thread that has none (a server or pool thread
    picking up work), the most recently begun span of the op that is
    still open — the caller that is now waiting for it.  That way time a
    thread spends blocked on another thread's work is the other
    thread's, and self times still partition the op.
    """

    def __init__(self) -> None:
        #: finished spans, as tuples of numbers and strings: the garbage
        #: collector stops tracking those, so tens of thousands of them
        #: do not slow the collections the compiler's own garbage causes
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        #: op id -> host-speed scale of that op (see workloads.HostSpeed);
        #: every second read back from the spans is scaled by it
        self.scale: Dict[int, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._op: Optional[list] = None
        self._open: List[list] = []

    def begin_op(self, kind: str) -> list:
        span = [next(self._ids), None, None, kind, UNATTRIBUTED,
                time.perf_counter(), None, threading.get_ident()]
        span[OP] = span[ID]
        self._open = [span]
        self._local.stack = [span]
        self._op = span
        return span

    def end_op(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.spans.append(tuple(span))
        self._op = None
        self._local.stack = []

    def scale_op(self, span: list, factor: float) -> None:
        self.scale[span[ID]] = factor

    def begin(self, name: str, metric: str) -> Optional[list]:
        op = self._op
        if op is None:
            return None
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        while stack and (stack[-1][OP] != op[ID] or stack[-1][END] is not None):
            stack.pop()  # left over from an earlier op
        open_spans = self._open
        if stack:
            parent = stack[-1]
        else:
            parent = open_spans[-1] if open_spans else op
        span = [next(self._ids), parent[ID], op[ID], name, metric,
                time.perf_counter(), None, threading.get_ident()]
        stack.append(span)
        open_spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.spans.append(tuple(span))
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        try:
            self._open.remove(span)
        except ValueError:  # its op has ended already
            pass


# ---------------------------------------------------------------------------
# What is wrapped.  (module, public name or Class.method, metric, count hook)
# A count hook is ``hook(recorder, result, args)``; it runs after the span
# has ended, so its own cost lands on the caller's span, not the layer's.
# ---------------------------------------------------------------------------


def _count_tokens(rec, result, args):
    rec.counts["lang.tokens"] += len(result)


def _count_passes(rec, stats, args):
    rec.counts["opt.rounds"] += stats.rounds
    rec.counts["opt.pass_runs"] += sum(stats.runs.values())
    rec.counts["opt.changes"] += stats.total_changes
    rec.counts["opt.instructions_visited"] += stats.work_units
    rec.counts["opt.ir_after"] += args[1].instruction_count()


def _count_spills(rec, allocation, args):
    rec.counts["codegen.spill_slots"] += allocation.spill_slots


def _count_modulo(rec, attempt, args):
    rec.counts["codegen.modulo_attempts"] += 1
    if attempt is not None:
        rec.counts["codegen.modulo_successes"] += 1


def _count_function(rec, result, args):
    _obj, report = result
    rec.counts["ir.instructions"] += report.ir_instructions
    rec.counts["codegen.bundles"] += report.bundles
    rec.counts["codegen.pipelined_loops"] += report.pipelined_loops
    rec.counts["codegen.ii_sum"] += sum(report.initiation_intervals)


def _count_lookup(rec, entry, args):
    rec.counts["cache.hits" if entry is not None else "cache.misses"] += 1


def _count_task(rec, results, args):
    """Pickled size of what crosses the worker entry point, taken in a
    span of the tracer's own so no layer is charged for it."""
    rec.counts["parallel.tasks"] += 1
    span = rec.begin("sizing", "trace.sizing_s")
    try:
        rec.counts["parallel.task_bytes"] += len(pickle.dumps(args[0]))
        rec.counts["parallel.result_bytes"] += len(pickle.dumps(results))
    finally:
        if span is not None:
            rec.end(span)


def _count_fallbacks(rec, result, args):
    compiler = args[0]
    for stats in (compiler.last_phase1_stats, compiler.last_phase4_stats):
        if stats is not None and stats.mode == "fallback":
            rec.counts["driver.fallbacks"] += 1


TARGETS = [
    ("repro.lang.lexer", "tokenize", "lang.lex_s", _count_tokens),
    ("repro.lang.parser", "parse_text", "lang.parse_s", None),
    ("repro.lang.parser", "parse_source", "lang.parse_s", None),
    ("repro.lang.parser", "Parser.parse_module", "lang.parse_s", None),
    ("repro.lang.parser", "Parser.parse_function", "lang.parse_s", None),
    ("repro.lang.parser", "Parser.parse_function_signature",
     "lang.parse_s", None),
    ("repro.lang.sema", "check_module", "lang.sema_s", None),
    ("repro.lang.sema", "FunctionChecker.check", "lang.sema_s", None),
    ("repro.lang.sema", "check_module_structure", "lang.sema_s", None),
    ("repro.lang.sema", "section_function_table", "lang.sema_s", None),
    ("repro.lang.sema", "detect_call_cycles", "lang.sema_s", None),
    ("repro.lang.sema", "function_call_sites", "lang.sema_s", None),
    ("repro.lang.boundary", "scan_boundaries", "lang.boundary_s", None),
    ("repro.ir.lowering", "lower_function", "ir.lower_s", None),
    ("repro.opt.pass_manager", "PassManager.run", "opt.passes_s",
     _count_passes),
    ("repro.opt.dependence", "build_dependence_graph",
     "opt.dependence_s", None),
    ("repro.opt.dependence", "find_induction_register",
     "opt.dependence_s", None),
    ("repro.codegen.compiler", "compile_function",
     "codegen.function_s", None),
    ("repro.codegen.regalloc", "allocate_registers",
     "codegen.regalloc_s", _count_spills),
    ("repro.codegen.select", "select_function", "codegen.select_s", None),
    ("repro.codegen.schedule", "schedule_block",
     "codegen.list_sched_s", None),
    ("repro.codegen.modulo", "try_modulo_schedule", "codegen.modulo_s",
     _count_modulo),
    ("repro.codegen.modulo", "machine_schedule_edges",
     "codegen.modulo_s", None),
    ("repro.codegen.modulo", "emit_pipelined_loop",
     "codegen.modulo_s", None),
    ("repro.asmlink.assembler", "assemble_function",
     "asmlink.assemble_s", None),
    ("repro.asmlink.assembler", "assembly_work_units",
     "asmlink.assemble_s", None),
    ("repro.asmlink.linker", "link_section", "asmlink.link_s", None),
    ("repro.asmlink.linker", "link_work_units", "asmlink.link_s", None),
    ("repro.asmlink.iodriver", "build_io_driver",
     "asmlink.iodriver_s", None),
    ("repro.asmlink.download", "build_download_module",
     "asmlink.download_s", None),
    ("repro.asmlink.download", "module_size_words",
     "asmlink.download_s", None),
    ("repro.asmlink.download", "module_digest", "asmlink.digest_s", None),
    ("repro.cache.store", "ArtifactCache.get", "cache.artifact_get_s",
     _count_lookup),
    ("repro.cache.store", "ArtifactCache.put", "cache.artifact_put_s", None),
    ("repro.cache.parse_store", "ParseCache.get", "cache.parse_get_s",
     _count_lookup),
    ("repro.cache.parse_store", "ParseCache.put", "cache.parse_put_s", None),
    ("repro.cache.link_store", "SectionLinkStore.get", "cache.link_get_s",
     _count_lookup),
    ("repro.cache.link_store", "SectionLinkStore.put", "cache.link_put_s",
     None),
    ("repro.cache.link_store", "ModuleStore.get", "cache.link_get_s",
     _count_lookup),
    ("repro.cache.link_store", "ModuleStore.put", "cache.link_put_s", None),
    ("repro.cache.fingerprint", "module_fingerprints",
     "cache.fingerprint_s", None),
    ("repro.cache.parse_store", "window_key", "cache.fingerprint_s", None),
    ("repro.cache.parse_store", "signature_table_hash",
     "cache.fingerprint_s", None),
    ("repro.cache.link_store", "section_link_key",
     "cache.fingerprint_s", None),
    ("repro.cache.link_store", "module_link_key",
     "cache.fingerprint_s", None),
    ("repro.driver.function_master", "phase1_cached", "driver.phase1_s",
     None),
    ("repro.driver.phases", "phase1_parse_and_check", "driver.phase1_s",
     None),
    ("repro.driver.phases", "phase1_parallel", "driver.phase1_s", None),
    ("repro.driver.phases", "compile_one_function", "driver.phase23_s",
     _count_function),
    ("repro.driver.function_master", "run_compile_task",
     "driver.phase23_s", _count_task),
    ("repro.driver.function_master", "run_function_master",
     "driver.phase23_s", None),
    ("repro.driver.function_master", "attach_assembly",
     "driver.phase23_s", None),
    ("repro.driver.function_master", "result_payload_digest",
     "driver.phase23_s", None),
    ("repro.driver.phases", "phase4_link_and_download", "driver.phase4_s",
     None),
    ("repro.driver.phases", "Phase4Runner.lookup_module",
     "driver.phase4_s", None),
    ("repro.driver.phases", "Phase4Runner.section_ready",
     "driver.phase4_s", None),
    ("repro.driver.phases", "Phase4Runner.finish", "driver.phase4_s", None),
    # The compile span: what no phase or layer span below it covers is
    # the remainder, together with the op span's own self time.
    ("repro.driver.master", "ParallelCompiler.compile", UNATTRIBUTED,
     _count_fallbacks),
    ("repro.driver.sequential", "SequentialCompiler.compile", UNATTRIBUTED,
     None),
    ("repro.parallel.backend", "stream_task_results",
     "parallel.dispatch_s", None),
    ("repro.parallel.local", "SerialBackend.run_tasks_streaming",
     "parallel.dispatch_s", None),
    ("repro.service.server", "CompileService.submit", "service.admit_s",
     None),
    ("repro.service.queue", "FairShareQueue.enqueue", "service.queue_s",
     None),
    ("repro.service.queue", "FairShareQueue.next_wave", "service.queue_s",
     None),
    ("repro.fabric.wire", "read_frame_line", "fabric.wire_s", None),
    ("repro.fabric.wire", "decode_frame", "fabric.wire_s", None),
    ("repro.fabric.wire", "encode_frame", "fabric.wire_s", None),
]

#: spans whose *inclusive* time, when their parent is one of these worker
#: entry points, is the worker-side front end (``parallel.worker_front_s``)
WORKER_ENTRY_POINTS = ("run_compile_task", "run_function_master")


def _traced_call(recorder: Recorder, fn, name, metric, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.begin(name, metric)
        if span is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook is not None:
            hook(recorder, result, args)
        return result

    return traced


def _traced_generator(recorder: Recorder, fn, name, metric):
    """Each resumption of the generator is one span, so what the consumer
    does between two results is not charged to the producer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            span = recorder.begin(name, metric)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if span is not None:
                    recorder.end(span)
            yield item

    return traced


def install(recorder: Recorder) -> int:
    """Wrap every target; returns how many names were rebound."""
    rebound = 0
    for module_name, qualname, metric, hook in TARGETS:
        if any(part.startswith("_") for part in qualname.split(".")):
            raise ValueError(f"{module_name}.{qualname} is not public")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if inspect.isgeneratorfunction(original):
            wrapped = _traced_generator(recorder, original, attr, metric)
        else:
            wrapped = _traced_call(recorder, original, attr, metric, hook)
        if owner_name:
            setattr(owner, attr, wrapped)
            rebound += 1
            continue
        for name, other in list(sys.modules.items()):
            if other is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for alias, value in list(vars(other).items()):
                if value is original:
                    setattr(other, alias, wrapped)
                    rebound += 1
    return rebound


# ---------------------------------------------------------------------------
# Reading the spans back.
# ---------------------------------------------------------------------------


def self_times(
    spans: List[tuple], scale: Dict[int, float]
) -> Dict[str, Dict[str, float]]:
    """Self time per op kind and metric, each op scaled by ``scale``.

    A span's self time is its duration minus the part of it its child
    spans cover.  To keep that a partition of the op's wall clock when
    threads overlap, the timeline is swept once: every instant belongs
    to the open spans that have no open child, in equal parts.  On one
    thread that is exactly duration minus children; with a pool thread
    linking while the main thread compiles, the two share the instant
    instead of both claiming it.
    """
    by_id = {span[ID]: span for span in spans}
    events = []
    for span in spans:
        op = by_id[span[OP]]
        start, end = max(span[START], op[START]), min(span[END], op[END])
        if end > start:
            events.append((start, 1, span[ID]))
            events.append((end, 0, span[ID]))
    events.sort()  # at equal times a close (0) sorts before an open (1)

    own: Dict[int, float] = defaultdict(float)
    parent_of = {span[ID]: span[PARENT] for span in spans}
    open_children: Dict[int, set] = defaultdict(set)
    is_open = set()
    leaves = set()
    previous = 0.0
    for moment, opening, span_id in events:
        if leaves:
            part = (moment - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += part
        previous = moment
        parent = parent_of[span_id]
        if opening:
            is_open.add(span_id)
            leaves.add(span_id)
            if parent is not None and parent in is_open:
                open_children[parent].add(span_id)
                leaves.discard(parent)
            continue
        is_open.discard(span_id)
        leaves.discard(span_id)
        # A child that outlives this span (another thread's work) passes
        # to this span's parent, which keeps waiting for it.
        orphans = open_children.pop(span_id, ())
        for orphan in orphans:
            parent_of[orphan] = parent
        if parent is not None and parent in is_open:
            waiting_for = open_children[parent]
            waiting_for.discard(span_id)
            waiting_for.update(orphans)
            if not waiting_for:
                leaves.add(parent)

    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, seconds in own.items():
        span = by_id[span_id]
        totals[by_id[span[OP]][NAME]][span[METRIC]] += seconds * scale[span[OP]]
    return {kind: dict(metrics) for kind, metrics in totals.items()}


def op_walls(spans: List[tuple], scale: Dict[int, float]) -> Dict[str, float]:
    """Summed (scaled) wall clock of the op spans, per op kind."""
    walls: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is None:
            walls[span[NAME]] += (span[END] - span[START]) * scale[span[ID]]
    return dict(walls)


def worker_front_seconds(spans: List[tuple], scale: Dict[int, float]) -> float:
    by_id = {span[ID]: span for span in spans}
    total = 0.0
    for span in spans:
        if span[NAME] != "phase1_cached":
            continue
        parent = by_id.get(span[PARENT])
        if parent is not None and parent[NAME] in WORKER_ENTRY_POINTS:
            total += (span[END] - span[START]) * scale[span[OP]]
    return total


def write_chrome_trace(spans: List[tuple], path) -> None:
    """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
    if not spans:
        return
    origin = min(span[START] for span in spans)
    threads: Dict[int, int] = {}
    events = []
    for span in spans:
        tid = threads.setdefault(span[THREAD], len(threads) + 1)
        events.append(
            {
                "name": span[NAME],
                "cat": span[METRIC],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": {
                    "id": span[ID],
                    "parent": span[PARENT],
                    "op": span[OP],
                },
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
