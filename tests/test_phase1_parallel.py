"""Incremental phase 1: bit-identity with the sequential
front end, and the span-hash parse cache's invalidation contract.

The headline property mirrors the paper's own correctness requirement
(recombined parallel output must be bit-identical to sequential, §3.2)
at the front end: over 200 generator seeds across size classes, the
boundary scanner's split points coincide with the sequential parser's
function spans, and :func:`phase1_parallel` produces the sequential
module and section spans, an identical unparse, identical work counts
and scopes, and for every function the subtree a fresh parse of its
window builds (a window parses in its own coordinates) — and, on error
modules, identical rendered diagnostics.
"""

import sys
import tempfile
import threading
from collections import Counter

import pytest

import repro.cache as cache_package
from repro import CompileOptions
from repro.cache import (
    ArtifactCache,
    LinkCache,
    ParseCache,
    compiler_salt,
    fingerprint,
    module_fingerprints,
    parse_store,
    window_key,
)
from repro.cache.fingerprint import function_text
from repro.cache.store import open_entry, seal_entry
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.phases import (
    ParseFacts,
    Phase1Stats,
    _function_size,
    _parse_signature_stub,
    phase1_parallel,
    phase1_parse_and_check,
    window_program,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.lang.boundary import scan_boundaries
from repro.lang.diagnostics import CompileError, DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.sema import FunctionChecker, check_module, function_call_sites
from repro.lang.source import SourceFile
from repro.lang.unparse import unparse_module
from repro.parallel.local import SerialBackend
from repro.workloads.synthetic import synthetic_program

from helpers import function_task


def _render(error: CompileError) -> str:
    return "\n".join(d.render() for d in error.diagnostics)


def _window_parse(text: str):
    """A function window parsed from its own text, as a miss parses it."""
    sink = DiagnosticSink()
    fn = Parser(tokenize(SourceFile("", text), sink), sink).parse_function()
    assert fn is not None and not sink.has_errors, sink.render()
    return fn


def _assert_same_module(par, seq, source: str):
    """phase1_parallel's module is the sequential one in everything a
    later phase reads once each hit's stub is replaced by its window's
    parse, as its function master parses it; a function subtree is
    measured from its window."""
    boundaries = scan_boundaries(source)
    for section, bounds in zip(par.module.sections, boundaries.sections):
        section.functions = [
            _window_parse(source[w.start : w.end]) if fn.body is None else fn
            for fn, w in zip(section.functions, bounds.function_windows)
        ]
    # Module and section spans are absolute, as in the sequential parse.
    assert par.module.span == seq.module.span
    assert [s.span for s in par.module.sections] == [
        s.span for s in seq.module.sections
    ]
    # Structure (AST dataclasses compare fields; expression types are
    # excluded from eq, unparse covers shape).
    assert unparse_module(par.module) == unparse_module(seq.module)
    # Scopes and work counts.
    assert par.parse_work == seq.parse_work
    assert par.sema_work == seq.sema_work
    assert par.source_lines == seq.source_lines
    # Scopes: each window checked against its section's signature stubs,
    # as its function master checks it, and the sequential check's.
    seq_scopes = check_module(seq.module, DiagnosticSink()).scopes
    keys, file = set(), SourceFile("", source)
    for section, bounds in zip(par.module.sections, boundaries.sections):
        stubs = [
            _parse_signature_stub(file, w.start, w.header_end)
            for w in bounds.function_windows
        ]
        table = {stub.name: stub for stub in reversed(stubs)}
        for w in bounds.function_windows:
            fn = _window_parse(source[w.start : w.end])
            scope = FunctionChecker(table, DiagnosticSink()).check(fn)
            key = (section.name, fn.name)
            keys.add(key)
            assert scope.symbols == seq_scopes[key].symbols, key
    assert keys == set(seq_scopes)
    # Each function subtree is a fresh parse of its window, and spans
    # the sequential parse's number of lines.
    windows = scan_boundaries(source).all_windows()
    pairs = list(zip(par.module.all_functions(), seq.module.all_functions()))
    assert len(pairs) == len(windows)
    for window, ((_, fn), (_, seq_fn)) in zip(windows, pairs):
        assert fn == _window_parse(source[window.start : window.end])
        assert fn.line_count() == seq_fn.line_count()


def _assert_equivalent(source: str, cache_dir):
    """phase1_parallel(source) over a fresh parse cache in ``cache_dir``
    must be indistinguishable from phase1_parse_and_check(source) in
    every way a later phase reads."""
    seq = phase1_parse_and_check(source)
    stats = Phase1Stats()
    par = phase1_parallel(source, parse_cache=ParseCache(cache_dir), stats=stats)
    _assert_same_module(par, seq, source)
    return stats


# ---------------------------------------------------------------------------
# 200-seed matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", range(4))
def test_parallel_phase1_matches_sequential_across_seeds(block, tmp_path):
    """200 consecutive seeds (50 per block): boundary windows == parser
    spans, and the parallel front end is bit-identical to sequential."""
    size_class = ("tiny", "small", "medium", "small")[block]
    config = config_for_size_class(size_class)
    for seed in range(block * 50, block * 50 + 50):
        source = generate_program(seed, config).source
        seq = phase1_parse_and_check(source)
        boundaries = scan_boundaries(source)
        assert boundaries is not None, f"{size_class} seed {seed}"
        windows = boundaries.all_windows()
        spans = [
            fn.span
            for _section, fn in seq.module.all_functions()
        ]
        assert [(w.start, w.end) for w in windows] == spans, (
            f"{size_class} seed {seed}"
        )
        stats = _assert_equivalent(source, tmp_path / str(seed))
        assert stats.mode == "parallel", (
            f"{size_class} seed {seed} fell back: {stats.fallback_reason}"
        )


def test_large_and_huge_size_classes(tmp_path):
    for size_class, n in (("large", 3), ("huge", 2)):
        stats = _assert_equivalent(
            synthetic_program(size_class, n), tmp_path / size_class
        )
        assert stats.mode == "parallel"


# ---------------------------------------------------------------------------
# Error paths: identical diagnostics, via fallback
# ---------------------------------------------------------------------------

ERROR_MODULES = [
    # sema: undeclared variable
    "module m section s (cells 0..1) function f() begin x := 1; end end end",
    # sema: empty section
    "module m section s (cells 0..1) end end",
    # sema: missing return
    "module m section s (cells 0..1) function f(): int begin end end end",
    # sema: recursion
    "module m section s (cells 0..1) function f(): int begin "
    "return f(); end end end",
    # sema: duplicate function
    "module m section s (cells 0..1) "
    "function f(): int begin return 1; end "
    "function f(): int begin return 2; end end end",
    # parse: missing module end
    "module m section s (cells 0..1) function f() begin return; end",
    # parse: trailing garbage (invisible to the word-level scanner)
    "module m section s (cells 0..1) function f() begin return; end end end ;",
    # parse: garbage inside a window
    "module m section s (cells 0..1) function f() begin return @; end end end",
    # lex+parse: bad character in the skeleton
    "module m $ section s (cells 0..1) function f() begin return; end end end",
]


@pytest.mark.parametrize("source", ERROR_MODULES)
def test_error_modules_raise_identical_diagnostics(source, tmp_path):
    with pytest.raises(CompileError) as seq_err:
        phase1_parse_and_check(source)
    with pytest.raises(CompileError) as par_err:
        phase1_parallel(source, parse_cache=ParseCache(tmp_path))
    assert _render(par_err.value) == _render(seq_err.value)


def test_error_module_with_parse_cache_still_canonical():
    source = ERROR_MODULES[0]
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        with pytest.raises(CompileError) as seq_err:
            phase1_parse_and_check(source)
        for _ in range(2):  # cold, then possibly-cached second attempt
            with pytest.raises(CompileError) as par_err:
                phase1_parallel(source, parse_cache=cache)
            assert _render(par_err.value) == _render(seq_err.value)


def _module(line6, line7="    x := 2;", newline="\n"):
    """A one-function module whose body is lines 6 and 7."""
    lines = [
        "module m", "section s (cells 0..1)", "function f()", "var x: int;",
        "begin", line6, line7, "end", "end", "end",
    ]
    return newline.join(lines) + newline


#: (source, what ``t.w2`` compiles to: its rendered diagnostics, or the
#: digest of a clean compile) — each written at the parent of the offset
#: front end, through all three doors below.
PARENT_DIAGNOSTICS = {
    "crlf": (
        _module("    x := 1;", "    x := y;", "\r\n"),
        ["t.w2:7:10: error: undeclared variable 'y'"],
    ),
    "tabs": (
        _module("\tx := 1;", "\t\tx := y;"),
        ["t.w2:7:8: error: undeclared variable 'y'"],
    ),
    "comment_at_eof": (
        _module("    x := 1;") + "-- the end",
        "6faafdb84e12d59ccaeea31b1b86ae9a498b898cfcbba63587a93eb1fff37c73",
    ),
    "at_sign": (
        _module("    x := 1 @ 2;"),
        [
            "t.w2:6:12: error: unexpected character '@'",
            "t.w2:6:14: error: expected ';', found '2'",
        ],
    ),
    "superscript": (
        _module("    x := 1²;"),
        ["t.w2:6:11: error: unexpected character '²'"],
    ),
    "empty": ("", ["t.w2:1:1: error: expected 'module', found ''"]),
    "unterminated": (
        "module m\nsection s (cells 0..1)\nfunction f()\nbegin\n",
        [
            "t.w2:5:1: error: expected 'end', found ''",
            "t.w2:5:1: error: expected 'end', found ''",
            "t.w2:5:1: error: expected 'section' or 'end', found ''",
        ],
    ),
    "error_module_0": (
        ERROR_MODULES[0],
        ["t.w2:1:52: error: undeclared variable 'x'"],
    ),
    "error_module_1": (
        ERROR_MODULES[1],
        ["t.w2:1:10: error: section 's' has no functions"],
    ),
    "error_module_2": (
        ERROR_MODULES[2],
        [
            "t.w2:1:33: error: function 'f' declares return type int but has "
            "no return statement",
        ],
    ),
    "error_module_3": (
        ERROR_MODULES[3],
        [
            "t.w2:1:64: error: recursive call cycle through 'f' in section "
            "'s' (Warp cells have no call stack)",
        ],
    ),
    "error_module_4": (
        ERROR_MODULES[4],
        ["t.w2:1:71: error: duplicate function 'f' in section 's'"],
    ),
    "error_module_5": (
        ERROR_MODULES[5],
        [
            "t.w2:1:63: error: expected 'end', found ''",
            "t.w2:1:63: error: expected 'section' or 'end', found ''",
        ],
    ),
    "error_module_6": (
        ERROR_MODULES[6],
        ["t.w2:1:72: error: trailing input after module end: ';'"],
    ),
    "error_module_7": (
        ERROR_MODULES[7],
        ["t.w2:1:59: error: unexpected character '@'"],
    ),
    "error_module_8": (
        ERROR_MODULES[8],
        ["t.w2:1:10: error: unexpected character '$'"],
    ),
}


def _outcome(compile_):
    try:
        return compile_().digest
    except CompileError as error:
        return [d.render() for d in error.diagnostics]


@pytest.mark.parametrize("name", sorted(PARENT_DIAGNOSTICS))
def test_diagnostics_are_the_parents(name, tmp_path, capsys, monkeypatch):
    """Every door renders what the parent rendered: the sequential
    compiler, the parallel one over a parse cache (the incremental front
    end), and ``warpcc compile``."""
    from repro.cli import main

    source, expected = PARENT_DIAGNOSTICS[name]
    assert _outcome(lambda: SequentialCompiler().compile(source, "t.w2")) == expected
    clear_phase1_cache()
    parallel = ParallelCompiler(
        backend=SerialBackend(), parse_cache=ParseCache(tmp_path / "cache")
    )
    assert _outcome(lambda: parallel.compile(source, "t.w2")) == expected
    (tmp_path / "t.w2").write_bytes(source.encode("utf-8"))
    monkeypatch.chdir(tmp_path)
    clear_phase1_cache()
    code = main(["compile", "t.w2", "--no-cache", "--emit", "digest"])
    out, err = capsys.readouterr()
    if isinstance(expected, str):
        assert (code, out.strip(), err) == (0, expected, "")
    else:
        assert (code, err.splitlines()) == (1, expected)


@pytest.mark.parametrize("tier", ["none", "parse", "artifact"])
def test_a_warning_refuses_a_window(tier, tmp_path, monkeypatch):
    """A warning is a diagnostic as an error is: the window that has one
    is refused, and the master reports the sequential front end's
    diagnostics — cold and warm, with no tier, the parse tier or the
    artifact tier — beside the sequential digest."""
    from repro.cache import ArtifactCache
    from repro.lang import sema

    check = sema.FunctionChecker.check

    def warn(self, fn):
        scope = check(self, fn)
        if fn.name == "f2":
            self._sink.warning("unused result", fn.body[0].span)
        return scope

    monkeypatch.setattr(sema.FunctionChecker, "check", warn)
    want = SequentialCompiler().compile(SOURCE, "w.w2")
    assert want.diagnostics_text.endswith("warning: unused result")
    tiers = {
        "none": {},
        "parse": {"parse_cache": ParseCache(tmp_path)},
        "artifact": {"cache": ArtifactCache(tmp_path)},
    }
    compiler = ParallelCompiler(backend=SerialBackend(), **tiers[tier])
    for _ in range(2):  # cold, then warm
        clear_phase1_cache()
        got = compiler.compile(SOURCE, "w.w2")
        assert (got.digest, got.diagnostics_text) == (
            want.digest, want.diagnostics_text,
        )


# ---------------------------------------------------------------------------
# Parse cache: hit/miss accounting and single-function invalidation
# ---------------------------------------------------------------------------

FUNCTIONS = 6
SOURCE = synthetic_program("small", FUNCTIONS)


def test_parse_cache_cold_then_warm():
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        cold = Counter()
        phase1_parallel(SOURCE, parse_cache=cache, counts=cold)
        assert cold == {"parse_cache.misses": FUNCTIONS}
        warm = Counter()
        par = phase1_parallel(SOURCE, parse_cache=cache, counts=warm)
        assert warm == {"parse_cache.hits": FUNCTIONS}
        _assert_same_module(par, phase1_parse_and_check(SOURCE), SOURCE)


def test_body_edit_reparses_exactly_one_function():
    """The acceptance criterion: a 1-function edit on a warm cache
    misses once and hits FUNCTIONS-1 times — and the edit *adds lines*,
    so every later function is served at a new line, unchanged."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        edited = SOURCE.replace(
            "acc := 0.0;",
            "acc := 0.0;\n    acc := acc + 1.0;\n    acc := acc + 2.0;",
            1,
        )
        assert edited != SOURCE
        counts = Counter()
        par = phase1_parallel(edited, parse_cache=cache, counts=counts)
        assert counts == {
            "parse_cache.hits": FUNCTIONS - 1, "parse_cache.misses": 1,
        }
        _assert_same_module(par, phase1_parse_and_check(edited), edited)


def test_signature_edit_invalidates_whole_section():
    """Changing one function's signature changes every sibling's key
    (call-site checking reads the shared signature table)."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        edited = SOURCE.replace(
            "function f1(x: float, y: float) : float",
            "function f1(x: float, y: float, z: float) : float",
        )
        assert edited != SOURCE
        counts = Counter()
        phase1_parallel(edited, parse_cache=cache, counts=counts)
        assert counts == {"parse_cache.misses": FUNCTIONS}


def test_comment_only_edit_hits_everything():
    """Edits in the skeleton gaps (here: the module header line) leave
    every function's window text untouched — all hits."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        edited = SOURCE.replace(
            "module ", "-- a new comment line\nmodule ", 1
        )
        counts = Counter()
        par = phase1_parallel(edited, parse_cache=cache, counts=counts)
        assert counts == {"parse_cache.hits": FUNCTIONS}
        _assert_same_module(par, phase1_parse_and_check(edited), edited)


def test_a_function_moved_right_is_a_hit_with_the_sequential_digest():
    """Only f1's first line moves right by one column: its window text is
    the same, and the key holds no column, so it is a hit — and the
    compile is the sequential compiler's."""
    moved = SOURCE.replace("function f1(", " function f1(", 1)
    assert moved != SOURCE
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        counts = Counter()
        par = phase1_parallel(moved, parse_cache=cache, counts=counts)
        assert counts == {"parse_cache.hits": FUNCTIONS}
        _assert_same_module(par, phase1_parse_and_check(moved), moved)
        clear_phase1_cache()
        compiler = ParallelCompiler(backend=SerialBackend(), parse_cache=cache)
        result = compiler.compile(moved)
        assert result.profile.counts["parse_cache.hits"] == FUNCTIONS
        assert result.digest == SequentialCompiler().compile(moved).digest


def test_an_entry_written_at_line_40_is_served_to_another_file_at_line_3():
    """A window's subtree is a pure function of its text: the entry
    ``a.w2`` wrote with f1 at line 40 is served to ``b.w2``, where f1
    sits at line 3: a stub, whose function master's tree equals a fresh
    parse of the window."""
    header = "section sec1 (cells 0..0)\n"
    padded = SOURCE.replace(header, header + "-- padding\n" * 37, 1)

    def f1_line(text, filename):
        module = phase1_parse_and_check(text, filename).module
        start = module.sections[0].functions[0].span[0]
        return SourceFile(filename, text).position_at(start).line

    assert (f1_line(padded, "a.w2"), f1_line(SOURCE, "b.w2")) == (40, 3)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(padded, "a.w2", parse_cache=cache)
        counts = Counter()
        par = phase1_parallel(SOURCE, "b.w2", parse_cache=cache, counts=counts)
        assert counts == {"parse_cache.hits": FUNCTIONS}
        window = scan_boundaries(SOURCE).all_windows()[0]
        section = par.module.sections[0].name
        stub = par.module.sections[0].functions[0]
        assert (stub.body, stub.locals) == (None, None)
        text = par.windows[section, stub.name]
        program, _ = window_program(
            section, stub.name, text, par.headers[section]
        )
        served = program.function(section, stub.name)
        assert served == _window_parse(SOURCE[window.start : window.end])
        seq = phase1_parse_and_check(SOURCE, "b.w2")
        _assert_same_module(par, seq, SOURCE)


def test_an_entry_written_under_parse_schema_2_is_a_miss(tmp_path, monkeypatch):
    """Entries of schema 2, whose nodes held ``Span`` objects, are never
    served: under schema 2's keys they are out of reach, and one found
    under a current key is a counted corrupt miss.  Either way the window
    is parsed again, and the module is the sequential one."""
    seq = phase1_parse_and_check(SOURCE)
    with monkeypatch.context() as schema_2:
        schema_2.setattr(parse_store, "PARSE_SCHEMA_VERSION", 2)
        schema_2.setattr(ParseCache, "SCHEMA", 2)
        phase1_parallel(SOURCE, parse_cache=ParseCache(tmp_path / "old"))
    cache = ParseCache(tmp_path / "old")
    counts = Counter()
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {"parse_cache.misses": FUNCTIONS}
    assert cache.counts["corrupt"] == 0
    _assert_same_module(par, seq, SOURCE)

    cache = ParseCache(tmp_path / "current")
    phase1_parallel(SOURCE, parse_cache=cache)
    for path in (tmp_path / "current" / "parse").rglob("*.entry"):
        facts, body = open_entry(path.read_bytes(), "parse", ParseCache.SCHEMA)
        path.write_bytes(seal_entry("parse", 2, facts, body))
    counts = Counter()
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {"parse_cache.misses": FUNCTIONS}
    assert cache.counts["corrupt"] == FUNCTIONS
    _assert_same_module(par, seq, SOURCE)


def _drop(name):
    return lambda facts: facts.pop(name)


def _set(name, value):
    return lambda facts: facts.__setitem__(name, value)


@pytest.mark.parametrize(
    "mangle",
    [
        _drop("ast_size"),
        _drop("calls"),
        _set("colour", "red"),
        _set("token_count", "many"),
        _set("lines", True),
        _set("name", 3),
        _set("calls", [["f1", [0]]]),
        _set("calls", [["f1", [0, 1, 2]]]),
        _set("calls", "f1"),
        _set("fingerprint_text", None),
    ],
    ids=[
        "missing_ast_size", "missing_calls", "extra_fact", "token_count_str",
        "lines_bool", "name_int", "call_offsets_short", "call_offsets_long",
        "calls_str", "text_in_header",
    ],
)
def test_an_entry_with_a_flawed_fact_is_a_counted_corrupt_miss(
    tmp_path, mangle
):
    """The header's facts are type-checked on open, as any tier's: a
    missing, extra or mistyped one makes the entry corrupt — counted,
    quarantined, parsed again — never an exception, never a hit."""
    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    for path in (tmp_path / "parse").rglob("*.entry"):
        facts, body = open_entry(path.read_bytes(), "parse", ParseCache.SCHEMA)
        mangle(facts)
        path.write_bytes(seal_entry("parse", ParseCache.SCHEMA, facts, body))
    counts = Counter()
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {"parse_cache.misses": FUNCTIONS}
    assert cache.counts["corrupt"] == FUNCTIONS
    _assert_same_module(par, phase1_parse_and_check(SOURCE), SOURCE)


def _text_not_utf8(body):
    return b"\xff" + body[1:]


@pytest.mark.parametrize("mangle", [_text_not_utf8])
def test_an_entry_whose_body_has_no_text_is_a_counted_corrupt_miss(
    tmp_path, mangle
):
    """The body is the fingerprint text, read on open: bytes that are
    not UTF-8 make the entry corrupt, like a flawed fact."""
    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    for path in (tmp_path / "parse").rglob("*.entry"):
        facts, body = open_entry(path.read_bytes(), "parse", ParseCache.SCHEMA)
        del facts["sha256"]
        path.write_bytes(
            seal_entry("parse", ParseCache.SCHEMA, facts, mangle(body))
        )
    counts = Counter()
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {"parse_cache.misses": FUNCTIONS}
    assert cache.counts["corrupt"] == FUNCTIONS
    _assert_same_module(par, phase1_parse_and_check(SOURCE), SOURCE)


def test_a_hit_whose_tree_is_another_functions_is_parsed_again(tmp_path):
    """Two sound entries, each moved under the other's key: each names
    another function than the window it is found for, so neither is
    served — counted corrupt misses, deleted — and both windows are
    parsed again and their own entries written back."""
    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    paths = sorted((tmp_path / "parse").rglob("*.entry"))
    names = {path: ParseCache.open(path.read_bytes()).name for path in paths}
    first = paths[0]
    second = next(path for path in paths if names[path] != names[first])
    swapped = second.read_bytes(), first.read_bytes()
    first.write_bytes(swapped[0])
    second.write_bytes(swapped[1])
    counts = Counter()
    cache = ParseCache(tmp_path)
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {
        "parse_cache.hits": FUNCTIONS - 2, "parse_cache.misses": 2,
    }
    assert cache.counts == {
        "hits": FUNCTIONS - 2, "misses": 2, "corrupt": 2
    }
    assert [ParseCache.open(path.read_bytes()).name for path in (first, second)] == [
        names[first], names[second],
    ]
    _assert_same_module(par, phase1_parse_and_check(SOURCE), SOURCE)


def test_every_entrys_facts_are_a_fresh_parse_of_its_window(tmp_path):
    """Over the corpus, what a hit reads instead of the tree is what a
    fresh parse of its window says: name, lines, AST size, call sites
    and fingerprint text recomputed from the tree, the token count from
    relexing the window."""
    from test_lexer_pins import INPUTS

    for name, source in INPUTS.items():
        cache = ParseCache(tmp_path / name)
        phase1_parallel(source, parse_cache=cache)
        recomputed = []
        for window in scan_boundaries(source).all_windows():
            text = source[window.start : window.end]
            fn = _window_parse(text)
            recomputed.append(ParseFacts(
                fn.name, fn.lines,
                len(tokenize(SourceFile("", text), DiagnosticSink())) - 1,
                _function_size(fn), function_call_sites(fn),
                function_text(fn),
            ))
        entries = [
            ParseCache.open(path.read_bytes())
            for path in (tmp_path / name / "parse").rglob("*.entry")
        ]
        assert 0 < len(entries) <= len(recomputed), name
        for facts in entries:
            assert facts in recomputed, (name, facts.name)
        for facts in recomputed:
            assert facts in entries, (name, facts.name)


def _forge(cache_dir, source, edited, function_name):
    """Seal the sound entry ``source`` stores for ``function_name`` at
    the key of that function's window in ``edited``; returns its path."""
    phase1_parallel(source, parse_cache=ParseCache(cache_dir))
    entries = [
        ParseCache.open(path.read_bytes())
        for path in (cache_dir / "parse").rglob("*.entry")
    ]
    facts = next(entry for entry in entries if entry.name == function_name)
    windows = scan_boundaries(edited).sections[0].function_windows
    stubs = [
        _parse_signature_stub(SourceFile("", edited), w.start, w.header_end)
        for w in windows
    ]
    section = phase1_parse_and_check(source).module.sections[0]
    signatures = parse_store.signature_table_hash(
        section.name, section.first_cell, section.last_cell, stubs
    )
    window = next(
        w for w, stub in zip(windows, stubs) if stub.name == function_name
    )
    key = window_key(edited[window.start : window.end], signatures)
    ParseCache(cache_dir).put(key, facts)
    return ParseCache(cache_dir)._entry_path(key)


def test_a_sound_entry_at_a_window_that_does_not_check_is_corrupt(tmp_path):
    """A sound header and text stored at the key of a window that does
    not check open as a hit; asking for its tree parses the window,
    which fails: the entry is counted corrupt and deleted, and the
    compile raises the sequential front end's error report."""
    edited = SOURCE.replace("acc := 0.0;", "acc := undeclared;", 1)
    assert edited != SOURCE
    path = _forge(tmp_path, SOURCE, edited, "f1")
    with pytest.raises(CompileError) as seq_err:
        SequentialCompiler().compile(edited, "t.w2")
    clear_phase1_cache()
    cache = ParseCache(tmp_path)
    compiler = ParallelCompiler(backend=SerialBackend(), parse_cache=cache)
    for _ in range(2):  # the second compile takes the phase-1 memo's parse
        with pytest.raises(CompileError) as par_err:
            compiler.compile(edited, "t.w2")
        assert _render(par_err.value) == _render(seq_err.value)
    assert cache.counts == {"hits": FUNCTIONS - 1, "misses": 1, "corrupt": 1}
    assert not path.exists()


def test_a_window_a_pool_worker_refuses_rejects_its_entry(tmp_path):
    """The same forged entry under a warm pool, whose workers hold no
    memo: the worker parses the window and refuses it, and the master
    deletes the entry before it raises the sequential front end's
    error report."""
    from repro.parallel import WarmPoolBackend

    edited = SOURCE.replace("acc := 0.0;", "acc := undeclared;", 1)
    path = _forge(tmp_path, SOURCE, edited, "f1")
    with pytest.raises(CompileError) as seq_err:
        SequentialCompiler().compile(edited, "t.w2")
    clear_phase1_cache()
    cache = ParseCache(tmp_path)
    with WarmPoolBackend(2) as backend:
        compiler = ParallelCompiler(backend=backend, parse_cache=cache)
        with pytest.raises(CompileError) as par_err:
            compiler.compile(edited, "t.w2")
    assert _render(par_err.value) == _render(seq_err.value)
    assert cache.counts == {"hits": FUNCTIONS - 1, "misses": 1, "corrupt": 1}
    assert not path.exists()


def test_an_in_process_function_master_parses_a_stubs_window_once(
    tmp_path, monkeypatch
):
    """Handed a parse hit's stub through the master's memo, an
    in-process function master parses its own window, once, and nothing
    else; its code is the sequential compiler's, and the memo's program
    holds the very function objects it held before."""
    from repro.driver import phases
    from repro.driver.function_master import phase1_cached, run_function_master

    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    clear_phase1_cache()
    parsed, hit = phase1_cached(
        SOURCE, front=lambda s, f: phase1_parallel(s, f, parse_cache=cache)
    )
    assert not hit
    before = [fn for _, fn in parsed.module.all_functions()]
    assert all(fn.body is None for fn in before)
    section = parsed.module.sections[0].name
    task = function_task(SOURCE, section, before[1].name, memo=True)

    texts, parses = [], Counter()
    check = phases._parse_and_check_window
    monkeypatch.setattr(
        phases, "_parse_and_check_window",
        lambda text, *rest: texts.append(text) or check(text, *rest),
    )
    for name in ("parse_module", "parse_function"):
        parse = getattr(Parser, name)
        monkeypatch.setattr(
            Parser, name,
            lambda self, name=name, parse=parse: parses.update([name])
            or parse(self),
        )
    result = run_function_master(task)
    monkeypatch.undo()

    assert (texts, parses) == ([task.window], {"parse_function": 1})
    want = {r.key: r for r in SequentialCompiler().compile(SOURCE).results}
    assert result.payload_digest == want[task.key].payload_digest
    after = [fn for _, fn in parsed.module.all_functions()]
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


def test_compilers_sharing_a_memo_on_eight_threads_match_sequential(tmp_path):
    """The compile service runs many compiles in one process on one
    phase-1 memo, so an in-process function master may be handed a
    parse hit's stub its own master never asked for: another compile,
    whose artifacts all hit, left its parse in the memo.  First that
    hand-over itself, then two compilers at different optimization
    levels on one cache root, eight threads, the memo cleared before
    every compile: every digest is the sequential compiler's, and
    nothing raises."""
    from repro.driver.function_master import phase1_cached, run_function_master

    source = synthetic_program("small", 8)
    levels = (CompileOptions(opt_level=1), CompileOptions(opt_level=2))
    sequential = {
        options: SequentialCompiler(options).compile(source)
        for options in levels
    }

    def compiler(options):
        return ParallelCompiler(
            backend=SerialBackend(), options=options,
            cache=ArtifactCache(tmp_path), parse_cache=ParseCache(tmp_path),
        )

    compiler(levels[0]).compile(source)  # parse entries, level-1 artifacts
    clear_phase1_cache()
    compiler(levels[0]).compile(source)  # every artifact hits: no tree asked for
    parsed, _ = phase1_cached(source)
    assert all(fn.body is None for _, fn in parsed.module.all_functions())
    for want in sequential[levels[1]].results:
        task = function_task(
            source, want.section_name, want.function_name,
            options=levels[1], memo=True,
        )
        assert run_function_master(task).payload_digest == want.payload_digest

    compilers = [compiler(options) for options in levels]
    seen, failures = [], []

    def compile_(compiler):
        try:
            for _ in range(3):
                clear_phase1_cache()
                seen.append((compiler.options, compiler.compile(source).digest))
        except BaseException as exc:  # pragma: no cover - reported below
            failures.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=compile_, args=(compilers[i % 2],))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(seen) == 8 * 3
    assert all(
        digest == sequential[options].digest for options, digest in seen
    )


def test_a_one_edit_compile_walks_one_tree_and_decodes_none(
    tmp_path, monkeypatch
):
    """Eight functions, one edited, all three tiers: the edited window
    is parsed (one tree walked for its fingerprint text); the seven hits
    are their headers — no window parsed again, no fingerprint walk —
    and the fingerprints are a fresh sequential parse's."""
    source = synthetic_program("small", 8)
    edited = source.replace("acc := 0.0;", "acc := 0.0;\n    acc := acc + 1.0;", 1)
    assert edited != source

    def compile_(text):
        clear_phase1_cache()
        return ParallelCompiler(
            backend=SerialBackend(),
            cache=ArtifactCache(tmp_path),
            parse_cache=ParseCache(tmp_path),
            link_cache=LinkCache(tmp_path),
        ).compile(text)

    compile_(source)
    walks, served = [], []
    feed = fingerprint._feed_function
    monkeypatch.setattr(
        fingerprint, "_feed_function",
        lambda h, fn: walks.append(fn.name) or feed(h, fn),
    )
    fingerprints = cache_package.module_fingerprints
    monkeypatch.setattr(
        cache_package, "module_fingerprints",
        lambda *args, **kwargs: served.append(fingerprints(*args, **kwargs))
        or served[-1],
    )
    result = compile_(edited)
    monkeypatch.undo()

    assert result.profile.counts["parse_cache.hits"] == 7
    assert result.profile.counts["artifact_cache.misses"] == 1
    assert "parse_cache.rebuilds" not in result.profile.counts
    assert walks == ["f1"]
    options = CompileOptions()
    assert served == [module_fingerprints(
        phase1_parse_and_check(edited).module, options, salt=compiler_salt()
    )]
    assert result.digest == SequentialCompiler(options).compile(edited).digest


def test_memo_readers_fingerprint_a_parse_hits_tree(tmp_path, monkeypatch):
    """A three-tier compile whose parse entries all hit leaves its parse
    — every function a signature stub — in the phase-1 memo.  What else
    reads that memo — the variant search and the watch update —
    fingerprints each function as a fresh sequential parse does."""
    from repro.driver.function_master import phase1_cached
    from repro.predict import watch as watch_module
    from repro.search import searcher
    from repro.service.server import CompileService

    options = CompileOptions()

    def compile_(filename):
        clear_phase1_cache()
        return ParallelCompiler(
            backend=SerialBackend(),
            cache=ArtifactCache(tmp_path),
            parse_cache=ParseCache(tmp_path),
            link_cache=LinkCache(tmp_path),
        ).compile(SOURCE, filename)

    compile_("a.w2")
    # every config's artifacts, so that no compile of the search below
    # asks for a tree
    searcher.search_module(SOURCE, "a.w2", cache=ArtifactCache(tmp_path))
    warm = compile_("b.w2")  # the module record is keyed by the file name
    assert warm.profile.counts["parse_cache.hits"] == FUNCTIONS
    parsed, _ = phase1_cached(SOURCE, "b.w2")
    assert all(fn.body is None for _, fn in parsed.module.all_functions())

    seq = phase1_parse_and_check(SOURCE)
    want = module_fingerprints(seq.module, options, salt=compiler_salt())
    served = []
    for module in (searcher, watch_module):
        monkeypatch.setattr(
            module, "module_fingerprints",
            lambda *args, fingerprints=module.module_fingerprints, **kwargs:
            served.append(fingerprints(*args, **kwargs)) or served[-1],
        )
    searcher.search_module(SOURCE, "b.w2", cache=ArtifactCache(tmp_path))
    with CompileService(SerialBackend(), ArtifactCache(tmp_path)) as service:
        service.watch_update(SOURCE, watch="w", filename="b.w2")
    assert served == [want, want]


# ---------------------------------------------------------------------------
# End-to-end through the compiler drivers
# ---------------------------------------------------------------------------


def test_compiler_with_parallel_front_end_is_bit_identical():
    clear_phase1_cache()
    seq = SequentialCompiler().compile(SOURCE)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        compiler = ParallelCompiler(
            backend=SerialBackend(), parse_cache=cache
        )
        clear_phase1_cache()
        cold = compiler.compile(SOURCE)
        assert cold.digest == seq.digest
        assert cold.profile.phase1_mode == "parallel"
        assert cold.profile.counts["parse_cache.misses"] == FUNCTIONS
        assert "parse_cache.hits" not in cold.profile.counts
        clear_phase1_cache()
        warm = compiler.compile(SOURCE)
        assert warm.digest == seq.digest
        assert warm.profile.counts["parse_cache.hits"] == FUNCTIONS
        # no artifact tier: each hit's function master parses its window
        # again, and the master sizes its task from the text alone
        assert "parse_cache.rebuilds" not in warm.profile.counts
        assert "parse_cache.misses" not in warm.profile.counts
        assert warm.profile.phase1_parse_ms >= 0.0
        assert "phase1_mode" in warm.profile.to_dict()


def test_compile_cli_json_reports_parse_cache(tmp_path, capsys):
    import json

    from repro.cli import main

    source_path = tmp_path / "m.w"
    source_path.write_text(SOURCE)
    clear_phase1_cache()
    code = main([
        "compile", str(source_path),
        "--parallel", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--json",
    ])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["parse_cache"]["misses"] == FUNCTIONS
    assert document["profile"]["phase1_mode"] == "parallel"
    assert document["profile"]["counts"]["parse_cache.misses"] == FUNCTIONS
