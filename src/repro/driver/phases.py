"""The four compiler phases (paper §3.2).

1. parsing and semantic checking — :func:`phase1_parse_and_check` is
   the sequential front end and the canonical oracle.
   :func:`phase1_parallel` is its *incremental* twin: a boundary scan
   splits the module at function heads, each function window is parsed
   from its own text and checked against a shared signature table, and
   per-function results are reused across runs through the span-hash
   parse cache (:mod:`repro.cache.parse_store`).  Everything a later
   phase reads of it is the sequential front end's, to which it falls
   back on any deviation (or any diagnostic).  A parse hit's function
   stays its signature stub: a function master that compiles it parses
   its window itself (:func:`window_program`), as every worker does;
2. flowgraph construction, local optimization, global dependencies;
3. software pipelining and code generation;
4. I/O driver generation, assembly, and post-processing (linking,
   download-module construction).

Phases 1 and 4 run in the master, one after the other, as in the paper:
the parallelism is the function masters'.  Phases 2 and 3 run per
function — :func:`compile_one_function` is the exact unit of work a
function master executes.  Phase 4 has the same two gears as phase 1:
:func:`phase4_link_and_download` is the canonical sequential tail, and
:class:`Phase4Runner` links each section as its streaming recombiner
completes it, with a persistent link/module cache
(:mod:`repro.cache.link_store`) and a sequential fallback on any
irregularity so diagnostics and digests stay byte-identical.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cache.link_store import LinkCache, ModuleRecord
    from .function_master import FunctionTaskResult
    from .section_master import CombinedSection

from ..asmlink.download import build_download_module, module_digest
from ..asmlink.linker import link_section, link_work_units
from ..asmlink.objformat import CellProgram, DownloadModule, ObjectFunction
from ..codegen.compiler import compile_function
from ..ir.cfg import Cfg
from ..ir.loops import loop_nest_weight
from ..ir.lowering import lower_function
from ..lang import ast_nodes as ast
from ..lang.boundary import scan_boundaries
from ..lang.diagnostics import CompileError, DiagnosticSink
from ..lang.lexer import tokenize
from ..lang.parser import Parser
from ..lang.sema import (
    FunctionChecker,
    check_module,
    check_module_structure,
    detect_call_cycles,
    function_call_sites,
    section_function_table,
)
from ..lang.source import SourceFile
from ..lang.tokens import Token
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from .results import FunctionReport, count_lookup


@dataclass
class ParsedProgram:
    """Phase-1 output: the checked AST plus partitioning information.
    A parse hit's function is its signature stub (``body`` and ``locals``
    None) for good, and a window plan's (``checked`` False) are all
    stubs: nothing writes a program once phase 1 has built it."""

    module: ast.Module
    sink: DiagnosticSink
    parse_work: int
    sema_work: int
    source_lines: int
    #: (section, function) -> fingerprint text, from the parse entries
    fingerprint_texts: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (section, function) -> a parse hit's key in the parse cache: a
    #: window refused by its function master was never that entry's
    parse_keys: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (section, function) -> window text, section -> header texts in
    #: source order: what tasks carry (empty after the sequential parse)
    windows: Dict[Tuple[str, str], str] = field(default_factory=dict)
    headers: Dict[str, List[str]] = field(default_factory=dict)
    #: False for a window plan: no window parsed, no call cycle checked,
    #: the work counts the skeleton's (see :func:`finish_window_plan`)
    checked: bool = True

    def function(self, section_name: str, function_name: str) -> ast.Function:
        """One function's node: its tree, or a stub's signature."""
        section = self.module.section_named(section_name)
        if section is None:
            raise KeyError(f"no section named {section_name!r}")
        function = section.function_named(function_name)
        if function is None:
            raise KeyError(
                f"no function {function_name!r} in section {section_name!r}"
            )
        return function


@dataclass
class Phase1Stats:
    """Telemetry for one phase-1 run (either front end)."""

    mode: str = "sequential"  # sequential|parallel|windows|fallback|memo
    parse_ms: float = 0.0
    sema_ms: float = 0.0
    fallback_reason: Optional[str] = None


def phase1_parse_and_check(
    source_text: str,
    filename: str = "<input>",
    stats: Optional[Phase1Stats] = None,
) -> ParsedProgram:
    """Parse and semantically check; raises CompileError on any error.

    This is what the master runs "to obtain enough information to set up
    the parallel compilation ... if there are any syntax or semantic
    errors in the program, they are discovered at this time and the
    compilation is aborted."
    """
    source = SourceFile(filename, source_text)
    sink = DiagnosticSink()
    t0 = time.perf_counter()
    tokens = tokenize(source, sink)
    module = Parser(tokens, sink).parse_module()
    if stats is not None:
        stats.parse_ms += (time.perf_counter() - t0) * 1000.0
    if sink.has_errors:
        raise CompileError(sink.diagnostics)
    t1 = time.perf_counter()
    check_module(module, sink)
    if stats is not None:
        stats.sema_ms += (time.perf_counter() - t1) * 1000.0
    if sink.has_errors:
        raise CompileError(sink.diagnostics)
    # Work proxies: tokens for scanning/parsing, statements for checking.
    parse_work = len(tokens)
    sema_work = sum(_function_size(fn) for _, fn in module.all_functions())
    return ParsedProgram(
        module=module,
        sink=sink,
        parse_work=parse_work,
        sema_work=sema_work,
        source_lines=source.count_lines(),
    )


def attach_windows(
    parsed: ParsedProgram, source_text: str, scan=None
) -> ParsedProgram:
    """``parsed`` with the windows and headers its tasks carry, from the
    boundary scan of ``source_text`` (none where the two disagree)."""
    scan = scan or scan_boundaries(source_text)
    sections = parsed.module.sections
    if scan is None or [len(s.functions) for s in sections] != [
        len(b.function_windows) for b in scan.sections
    ]:
        return parsed
    for section, bounds in zip(sections, scan.sections):
        windows = bounds.function_windows
        parsed.headers[section.name] = [
            source_text[w.start : w.header_end] for w in windows
        ]
        for function, w in zip(section.functions, windows):
            parsed.windows[section.name, function.name] = source_text[w.start : w.end]
    return parsed


# ---------------------------------------------------------------------------
# Incremental phase 1
# ---------------------------------------------------------------------------


class _VerdictSink(DiagnosticSink):
    """No position for a window's diagnostics: the fallback prints them."""

    def _report(self, severity, message, at) -> None:
        super()._report(severity, message, None)


class WindowRefused(Exception):
    """A window did not parse or check, or disagrees with its task: only
    the sequential front end may diagnose it (the master falls back)."""


def _phase1_fallback(
    source_text: str,
    filename: str,
    stats: Optional[Phase1Stats],
    reason: str,
) -> ParsedProgram:
    """Re-run the sequential front end for canonical results/diagnostics."""
    if stats is not None:
        stats.mode = "fallback"
        stats.fallback_reason = reason
    return phase1_parse_and_check(source_text, filename, stats=stats)


def _lex_skeleton(
    source: SourceFile, windows, sink: DiagnosticSink
) -> List[Token]:
    """Lex the text *between* function windows (module/section headers
    and closing ``end``s) in place, as ranges of the file, into one
    token stream whose EOF is the last gap's: the file's.  Offsets are
    the file's, so the skeleton parse yields module/section nodes with the
    sequential parse's spans."""
    tokens: List[Token] = []
    start = 0
    for window in windows:
        tokens += tokenize(source, sink, start, window.start)[:-1]
        start = window.end
    return tokens + tokenize(source, sink, start)


def _parse_signature_stub(
    source: SourceFile, start: int, end: int
) -> Optional[ast.Function]:
    """Header-only parse of ``[start, end)`` (name, params, return type),
    lexed in place."""
    sink = _VerdictSink()
    tokens = tokenize(source, sink, start, end)
    stub = Parser(tokens, sink).parse_function_signature()
    if stub is None or sink.diagnostics:
        return None
    return stub


@dataclass
class WindowFacts:
    """What a window's parse and check yield besides its tree — its
    ``parse_work`` (tokens but EOF), ``sema_work`` and call sites."""

    token_count: int
    ast_size: int
    calls: List[Tuple[str, Tuple[int, int]]]


@dataclass
class ParseFacts:
    """What a compile reads of a window instead of its tree — what the
    parse cache holds: its ``parse_work`` (tokens but EOF), its
    ``sema_work``, its call sites and its fingerprint text."""

    name: str
    lines: int
    token_count: int
    ast_size: int
    calls: List[Tuple[str, Tuple[int, int]]]
    fingerprint_text: str


def _parse_and_check_window(
    text: str, table: Dict[str, ast.Function], spent: List[float]
) -> Tuple[ast.Function, WindowFacts]:
    """Lex, parse, and check one function window from its own text —
    offsets from 0, no filename — adding the parse and the check seconds
    to ``spent``; returns its tree and facts.

    Raises :class:`WindowRefused` on any diagnostic (the fallback
    re-derives the canonical error report sequentially).
    """
    sink = _VerdictSink()
    t0 = time.perf_counter()
    tokens = tokenize(SourceFile("", text), sink)
    fn = Parser(tokens, sink).parse_function()
    t1 = time.perf_counter()
    spent[0] += t1 - t0
    if fn is None or sink.diagnostics:
        raise WindowRefused("window parse error")
    FunctionChecker(table, sink).check(fn)
    spent[1] += time.perf_counter() - t1
    if sink.diagnostics:
        raise WindowRefused("window sema error")
    facts = WindowFacts(
        len(tokens) - 1, _function_size(fn), function_call_sites(fn)
    )
    return fn, facts


def phase1_parallel(
    source_text: str,
    filename: str = "<input>",
    *,
    parse_cache=None,
    parse_windows: bool = True,
    stats: Optional[Phase1Stats] = None,
    counts: Optional[Counter] = None,
) -> ParsedProgram:
    """Incremental phase 1; falls back to the sequential front end on
    *any* irregularity.

    Pipeline: boundary-scan the text into per-function byte windows;
    lex the skeleton (everything between windows) and each function
    *header* in place, as ranges of the file, and parse them — the
    module shell with absolute spans, and the per-section signature
    table; then parse+check every function window from its own text
    against that read-only table — or serve it from ``parse_cache`` (a
    :class:`~repro.cache.parse_store.ParseCache`), which holds the
    :class:`ParseFacts` the parse derives; each get is counted into
    ``counts`` as ``parse_cache.hits`` / ``parse_cache.misses``.  A hit
    is read as its facts, its function is its signature stub, and its
    key goes into :attr:`ParsedProgram.parse_keys`.  A final
    structure pass re-checks the
    whole-module properties (duplicate names, cell ranges, call cycles).
    The name records the window split's origin, not threads: the
    windows are independent, and are parsed in a loop.

    With ``parse_windows`` False it parses no window: a *window plan*
    (``checked`` False), finished by :func:`finish_window_plan`.

    The result is the sequential front end's in module and section
    spans, structure, line counts and work counts; only a
    function subtree's offsets are measured from its window (offset 0).
    Nothing after phase 1 reads an offset:
    :meth:`~repro.lang.ast_nodes.Function.line_count` is a count the
    parser took once, the same wherever the window sits.

    Any diagnostic anywhere aborts the fast path and re-runs
    :func:`phase1_parse_and_check`, whose error report is canonical —
    errors abort compilation anyway, so the doubled front-end cost on
    the error path is irrelevant.
    """
    from ..cache.fingerprint import function_text
    from ..cache.parse_store import signature_table_hash, window_key

    if counts is None:
        counts = Counter()
    boundaries = scan_boundaries(source_text)
    if boundaries is None:
        return _phase1_fallback(
            source_text, filename, stats, "boundary scan failed"
        )
    source = SourceFile(filename, source_text)
    windows = boundaries.all_windows()

    # -- skeleton: module/section structure without function bodies -----
    t_skel = time.perf_counter()
    skeleton_sink = DiagnosticSink()
    skeleton_tokens = _lex_skeleton(source, windows, skeleton_sink)
    module = Parser(skeleton_tokens, skeleton_sink).parse_module()
    skeleton_s = time.perf_counter() - t_skel
    if skeleton_sink.diagnostics:
        return _phase1_fallback(
            source_text, filename, stats, "skeleton parse error"
        )
    if len(module.sections) != len(boundaries.sections) or any(
        sec.functions for sec in module.sections
    ):
        return _phase1_fallback(
            source_text, filename, stats, "skeleton/boundary mismatch"
        )

    # -- signature pass: headers only ------------------------------------
    t_sig = time.perf_counter()
    section_hashes: List[str] = []
    section_stubs: List[List[ast.Function]] = []
    for sec_node, sec_bounds in zip(module.sections, boundaries.sections):
        stubs = []
        for window in sec_bounds.function_windows:
            stub = _parse_signature_stub(source, window.start, window.header_end)
            if stub is None:
                return _phase1_fallback(
                    source_text, filename, stats, "signature parse error"
                )
            stubs.append(stub)
        section_stubs.append(stubs)
        section_hashes.append(
            signature_table_hash(
                sec_node.name, sec_node.first_cell, sec_node.last_cell, stubs
            )
        )
    signature_s = time.perf_counter() - t_sig

    # -- per-function pass: a cache hit, or a parse of the window --------
    texts: Dict[Tuple[str, str], str] = {}
    parse_keys: Dict[Tuple[str, str], str] = {}
    section_calls: List[Dict[str, list]] = []
    window_tokens = sema_work = 0
    spent = [0.0, 0.0]  # parse s, check s of the windows parsed here
    try:
        for sec_node, stubs, signatures, sec_bounds in zip(
            module.sections, section_stubs, section_hashes,
            boundaries.sections,
        ):
            # first definition wins, like sema's table
            table = {stub.name: stub for stub in reversed(stubs)}
            calls = {}
            for window, stub in zip(sec_bounds.function_windows, stubs):
                text = source_text[window.start : window.end]
                pair = (sec_node.name, stub.name)
                key = facts = None
                if parse_cache is not None:
                    key = window_key(text, signatures)
                    facts = parse_cache.get(key)
                    if facts is not None and facts.name != stub.name:
                        parse_cache.reject(key)  # another window's entry
                        facts = None
                    count_lookup(counts, "parse_cache", facts)
                if facts is None and parse_windows:
                    function, found = _parse_and_check_window(
                        text, table, spent
                    )
                    facts = ParseFacts(
                        function.name, function.lines, found.token_count,
                        found.ast_size, found.calls, function_text(function),
                    )
                    if parse_cache is not None:
                        parse_cache.put(key, facts)
                else:  # a stub: its function master parses the window
                    function = stub
                    stub.locals, stub.body = None, None
                    if facts is not None:
                        parse_keys[pair] = key
                sec_node.functions.append(function)
                if facts is None:
                    continue  # a window plan's: its function master's
                stub.lines = facts.lines
                calls[facts.name] = facts.calls
                texts[pair] = facts.fingerprint_text
                window_tokens += facts.token_count
                sema_work += facts.ast_size
            section_calls.append(calls)
    except WindowRefused as problem:
        return _phase1_fallback(source_text, filename, stats, str(problem))

    # -- structure pass ---------------------------------------------------
    t_struct = time.perf_counter()
    structure_sink = DiagnosticSink(source)
    check_module_structure(module, structure_sink)
    for sec_node in module.sections:
        section_function_table(sec_node, structure_sink)
    for sec_node, calls in zip(module.sections, section_calls):
        detect_call_cycles(sec_node.name, calls, structure_sink)
    structure_s = time.perf_counter() - t_struct
    if structure_sink.diagnostics:
        return _phase1_fallback(
            source_text, filename, stats, "structure pass error"
        )

    if stats is not None:
        stats.mode = "parallel" if parse_windows else "windows"
        stats.parse_ms += (skeleton_s + signature_s + spent[0]) * 1000.0
        stats.sema_ms += (structure_s + spent[1]) * 1000.0

    # Token identity: sequential lexing sees every skeleton token, every
    # window token, and one EOF — exactly what the two counts sum to.
    parse_work = len(skeleton_tokens) + window_tokens
    parsed = ParsedProgram(
        module=module,
        sink=DiagnosticSink(),
        parse_work=parse_work,
        sema_work=sema_work,
        source_lines=source.count_lines(),
        fingerprint_texts=texts,
        parse_keys=parse_keys,
        checked=parse_windows,
    )
    return attach_windows(parsed, source_text, boundaries)


def finish_window_plan(
    plan: ParsedProgram, facts: Dict[Tuple[str, str], WindowFacts]
) -> Optional[Tuple[int, int]]:
    """A window plan's call-cycle check and ``(parse_work, sema_work)``
    from its function masters' ``facts``; None when a function's facts
    are missing or the check fails (the sequential front end says why)."""
    parse_work, sema_work = plan.parse_work, 0
    sink = _VerdictSink()
    for section in plan.module.sections:
        calls = {}
        for function in section.functions:
            found = facts.get((section.name, function.name))
            if found is None:
                return None
            calls[function.name] = found.calls
            parse_work += found.token_count
            sema_work += found.ast_size
        detect_call_cycles(section.name, calls, sink)
    return None if sink.diagnostics else (parse_work, sema_work)


def window_program(
    section_name: str, function_name: str, window: str, headers: List[str]
) -> Tuple[ParsedProgram, WindowFacts]:
    """A function master's phase 1, which never sees the module: the
    headers and the window lexed from their own texts, the window checked
    against the headers; returns a one-section program of the headers'
    stubs with the tree in place, and the window's facts.  Raises
    :class:`WindowRefused` for a window that does not check, holds
    another function or a signature the headers do not."""
    stubs = []
    for header in headers:
        stub = _parse_signature_stub(SourceFile("", header), 0, len(header))
        if stub is None:
            raise WindowRefused("signature header parse error")
        stubs.append(stub)
    table = {stub.name: stub for stub in reversed(stubs)}
    fn, facts = _parse_and_check_window(window, table, [0.0, 0.0])
    if fn.name != function_name:
        raise WindowRefused(f"the window holds {fn.name!r}")
    own = table.get(fn.name)  # a header lexes as its window's prefix
    if own is None or (own.params, own.return_type) != (fn.params, fn.return_type):
        raise WindowRefused("the signature headers disagree with the window")
    section = ast.Section(
        section_name, 0, 0, [fn if s is own else s for s in stubs], (0, 0)
    )
    module = ast.Module("", [section], (0, 0))
    program = ParsedProgram(
        module, DiagnosticSink(), facts.token_count, facts.ast_size, fn.lines
    )
    return program, facts


def _function_size(fn: ast.Function) -> int:
    """Statement-level size proxy for semantic-checking work."""
    return 2 + len(fn.params) + len(fn.locals) + _stmt_count(fn.body)


def _stmt_count(stmts: List[ast.Stmt]) -> int:
    count = 0
    for stmt in stmts:
        count += 1
        if isinstance(stmt, ast.IfStmt):
            count += _stmt_count(stmt.then_body) + _stmt_count(stmt.else_body)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            count += _stmt_count(stmt.body)
    return count


def compile_one_function(
    parsed: ParsedProgram,
    section_name: str,
    function_name: str,
    options: CompileOptions,
) -> Tuple[ObjectFunction, FunctionReport]:
    """Phases 2+3 for exactly one function (a function master's job)."""
    function = parsed.function(section_name, function_name)
    section = parsed.module.section_named(section_name)
    fn_ir = lower_function(section, function)
    ir_size = fn_ir.instruction_count()
    # Lowering's CFG, analysed once: the weight and the optimizer share it.
    cfg = Cfg(fn_ir)
    weight = loop_nest_weight(cfg)
    obj = compile_function(
        fn_ir,
        WarpArrayModel(cell_count=options.cell_count).cell,
        opt_level=options.opt_level,
        unroll_budget=options.unroll_budget,
        ii_budget=options.ii_budget,
        cfg=cfg,
    )
    report = FunctionReport(
        section_name=section_name,
        name=function_name,
        source_lines=function.line_count(),
        ir_instructions=ir_size,
        loop_weight=weight,
        work_units=obj.info.work_units,
        bundles=obj.bundle_count(),
        pipelined_loops=obj.info.pipelined_loops,
        initiation_intervals=list(obj.info.initiation_intervals),
        frame_words=obj.frame_words,
    )
    return obj, report


def phase4_link_and_download(
    parsed: ParsedProgram,
    results: Dict[str, List["FunctionTaskResult"]],
    array: WarpArrayModel,
    diagnostics_text: str = "",
) -> Tuple[DownloadModule, int, int]:
    """Linking, I/O driver, download module (sequential tail); the
    function masters assembled their functions when they sealed them.

    ``results`` maps section name -> sealed results in source order.
    Returns (module, assembly work, link work).
    """
    section_cells: Dict[str, Tuple[int, int]] = {}
    programs = {}
    assembly_work = 0
    link_work = 0
    for section in parsed.module.sections:
        array.validate_section_range(section.first_cell, section.last_cell)
        section_cells[section.name] = (section.first_cell, section.last_cell)
        section_results = results[section.name]
        assembly_work += sum(r.assembly_work for r in section_results)
        link_work += link_work_units(section_results)
        programs[section.name] = link_section(
            section.name, section_results, array.cell
        )
    module = build_download_module(
        parsed.module.name, section_cells, programs, diagnostics_text
    )
    _require_cells(module)
    return module, assembly_work, link_work


def _require_cells(module: DownloadModule) -> None:
    """The one thing phase 4 checks of the I/O wiring: a module with no
    cell has nothing to stream data through (the error is the one
    :func:`~repro.asmlink.iodriver.build_io_driver` raises)."""
    if not module.cell_programs:
        raise ValueError("cannot build an I/O driver for an empty module")


# ---------------------------------------------------------------------------
# Incremental phase 4.
#
# Sections are independent by construction — link_section reads one
# section's sealed results and the cell model, nothing else — so each
# one is linked the moment its streaming recombiner completes, and each
# linked program can be cached on its own.  Everything below mirrors
# the phase-1 contract: the sequential phase4_link_and_download stays
# the canonical oracle, and any irregularity on the fast path (a
# poisoned or failed function, a validation error, an exception while
# linking) falls back to it wholesale so diagnostics and digests stay
# byte-identical.
# ---------------------------------------------------------------------------


@dataclass
class Phase4Stats:
    """Telemetry for one phase-4 run through :class:`Phase4Runner`."""

    mode: str = "sequential"  # sequential | parallel | cached | fallback
    link_ms: float = 0.0
    fallback_reason: Optional[str] = None


class Phase4Runner:
    """Streaming back end: one section link per combined section.

    The driver hands each :class:`~repro.driver.section_master.CombinedSection`
    to :meth:`section_ready` as the streaming recombiner completes it —
    the section is linked there and then, in the master — then calls
    :meth:`finish` to build the download module.  With a
    :class:`~repro.cache.link_store.LinkCache`, each link first consults
    the section tier, counts the get in :attr:`counts` and records its
    key in :attr:`link_keys`; the module tier answers whole compiles
    first (:meth:`lookup_module`).

    Any irregularity — a poisoned or failed function, a range-validation
    error, a duplicate delivery, an exception while linking — taints
    the run and :meth:`finish` falls back to the sequential
    :func:`phase4_link_and_download`, which re-raises the canonical
    error or re-links everything; either way the output is byte-for-byte
    what the sequential compiler produces.
    """

    def __init__(
        self,
        parsed: ParsedProgram,
        array: WarpArrayModel,
        diagnostics_text: str = "",
        link_cache: Optional["LinkCache"] = None,
        stats: Optional[Phase4Stats] = None,
    ):
        self.parsed = parsed
        self.array = array
        self.diagnostics_text = diagnostics_text
        self.link_cache = link_cache
        self.stats = stats if stats is not None else Phase4Stats()
        #: ``link_cache.hits`` / ``link_cache.misses`` of this run's gets
        self.counts: Counter = Counter()
        self._sections = {s.name: s for s in parsed.module.sections}
        #: section name -> (program, link s)
        self._linked: Dict[str, Tuple[CellProgram, float]] = {}
        #: section name -> key of its program in the section tier
        self.link_keys: Dict[str, str] = {}
        self._taint_reason: Optional[str] = None

    # -- irregularity handling ----------------------------------------

    def _taint(self, reason: str) -> None:
        if self._taint_reason is None:
            self._taint_reason = reason

    @staticmethod
    def _combined_clean(combined: "CombinedSection") -> bool:
        return not any(
            report.poisoned or report.failed for report in combined.reports
        )

    # -- module tier ---------------------------------------------------

    @staticmethod
    def lookup_module(
        link_cache: "LinkCache", key: str, array: WarpArrayModel,
        counts: Counter,
    ) -> Optional[Tuple["ModuleRecord", DownloadModule]]:
        """The record under ``key`` and the module rebuilt from its
        sections' programs, or None; every get is counted into
        ``counts`` (``module_cache.*``, ``link_cache.*``).  A missing
        program is the section tier's miss; a record whose cells fall
        outside ``array`` or whose module hashes to another digest is a
        corrupt entry, and a miss."""
        record = count_lookup(
            counts, "module_cache", link_cache.modules.get(key)
        )
        if record is None:
            return None
        cells, programs = {}, {}
        try:
            for section in record.sections:
                cells[section.name] = (section.first_cell, section.last_cell)
                array.validate_section_range(*cells[section.name])
                program = count_lookup(
                    counts, "link_cache",
                    link_cache.sections.get(section.link_key),
                )
                if program is None:
                    return None
                programs[section.name] = program
            module = build_download_module(
                record.module_name, cells, programs, record.diagnostics_text
            )
            if module_digest(module) == record.digest:
                return record, module
        except Exception:  # noqa: BLE001 - a flawed record is a miss
            pass
        link_cache.modules.reject(key)
        counts.update({"module_cache.hits": -1, "module_cache.misses": 1})
        return None

    # -- section tier --------------------------------------------------

    def section_ready(self, combined: "CombinedSection") -> None:
        """Link one recombined section."""
        if self._taint_reason is not None:
            return
        section = self._sections.get(combined.section_name)
        if section is None:
            self._taint(f"unknown section {combined.section_name!r}")
            return
        if combined.section_name in self._linked:
            self._taint(f"duplicate section {combined.section_name!r}")
            return
        if not self._combined_clean(combined):
            self._taint(
                f"section {combined.section_name!r} has poisoned or "
                f"failed functions"
            )
            return
        try:
            self.array.validate_section_range(
                section.first_cell, section.last_cell
            )
        except Exception as exc:  # noqa: BLE001 - canonical error on fallback
            self._taint(f"range validation: {exc}")
            return
        try:
            self._linked[combined.section_name] = self._link_one(
                section, combined
            )
        except Exception as exc:  # noqa: BLE001 - canonical error on fallback
            self._taint(f"{type(exc).__name__}: {exc}")

    def _link_one(self, section: ast.Section, combined: "CombinedSection"):
        """One section: section-cache probe, else link."""
        key = None
        if self.link_cache is not None:
            from ..cache.link_store import section_link_key

            key = section_link_key(
                section.name,
                section.first_cell,
                section.last_cell,
                combined.payload_digests,
                self.array.cell.data_memory_words,
            )
            self.link_keys[section.name] = key
            program = count_lookup(
                self.counts, "link_cache", self.link_cache.sections.get(key)
            )
            if program is not None:
                return program, 0.0
        start = time.perf_counter()
        program = link_section(
            section.name, combined.results, self.array.cell
        )
        link_s = time.perf_counter() - start
        if key is not None:
            self.link_cache.sections.put(key, program)
        return program, link_s

    # -- completion ----------------------------------------------------

    def finish(
        self, combined: Dict[str, "CombinedSection"]
    ) -> Tuple[DownloadModule, int, int]:
        """Build the module from the linked sections; returns the same
        ``(module, assembly_work, link_work)`` triple as the sequential
        :func:`phase4_link_and_download`."""
        # Per function, from its result: what came out of the artifact
        # cache states both counts without its object code.
        assembly_work = link_work = 0
        for section in self.parsed.module.sections:
            results = combined[section.name].results
            assembly_work += sum(result.assembly_work for result in results)
            link_work += link_work_units(results)
        reason = self._taint_reason
        if reason is None:
            try:
                module = self._gather(combined)
                self.stats.mode = "parallel"
                return module, assembly_work, link_work
            except Exception as exc:  # noqa: BLE001 - fall back wholesale
                reason = f"{type(exc).__name__}: {exc}"
        # Sequential fallback: the canonical oracle re-links (or
        # re-raises the canonical first error).
        self.stats.mode = "fallback"
        self.stats.fallback_reason = reason
        results = {
            name: section.results for name, section in combined.items()
        }
        return phase4_link_and_download(
            self.parsed, results, self.array, self.diagnostics_text
        )

    def _gather(self, combined: Dict[str, "CombinedSection"]) -> DownloadModule:
        section_cells: Dict[str, Tuple[int, int]] = {}
        programs: Dict[str, CellProgram] = {}
        for section in self.parsed.module.sections:
            self.array.validate_section_range(
                section.first_cell, section.last_cell
            )
            section_cells[section.name] = (
                section.first_cell,
                section.last_cell,
            )
            outcome = self._linked.get(section.name)
            if outcome is None:
                # A section the driver never announced (barrier-style
                # callers): link it now.
                if not self._combined_clean(combined[section.name]):
                    raise SectionTaintedError(section.name)
                outcome = self._link_one(section, combined[section.name])
            program, link_s = outcome
            self.stats.link_ms += link_s * 1000.0
            programs[section.name] = program
        module = build_download_module(
            self.parsed.module.name, section_cells, programs,
            self.diagnostics_text,
        )
        _require_cells(module)
        return module


class SectionTaintedError(Exception):
    """A poisoned/failed section reached the incremental back end."""

    def __init__(self, section_name: str):
        super().__init__(
            f"section {section_name!r} has poisoned or failed functions"
        )
