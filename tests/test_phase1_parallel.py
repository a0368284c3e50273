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

import pickle
import struct
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import fields

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
    pickled,
)
from repro.cache.fingerprint import function_text
from repro.cache.store import open_entry, seal_entry
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.phases import (
    ParseFacts,
    Phase1Stats,
    _function_size,
    phase1_parallel,
    phase1_parse_and_check,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.lang.boundary import scan_boundaries
from repro.lang.diagnostics import CompileError, DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.ast_nodes import Function
from repro.lang.parser import Parser
from repro.lang.sema import function_call_sites
from repro.lang.source import Position, SourceFile, Span
from repro.lang.unparse import unparse_module
from repro.parallel.local import SerialBackend
from repro.workloads.synthetic import synthetic_program


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
    later phase reads; a function subtree is measured from its window."""
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
    assert set(par.sema.scopes) == set(seq.sema.scopes)
    for key, seq_scope in seq.sema.scopes.items():
        par_scope = par.sema.scopes[key]
        assert par_scope.symbols == seq_scope.symbols, key
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
    sits at line 3, and equals a fresh parse of the window."""
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
        served = par.module.sections[0].functions[0]
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
        entry = ParseCache.open(path.read_bytes())
        start, end = entry.function.span
        entry.function.span = Span(
            "", Position(1, 1, start), Position(entry.function.lines, 4, end)
        )
        path.write_bytes(seal_entry("parse", 2, {}, pickle.dumps(entry)))
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


def _text_past_the_end(body):
    return struct.pack("<I", len(body)) + body[4:]


def _text_not_utf8(body):
    return body[:4] + b"\xff" + body[5:]


@pytest.mark.parametrize("mangle", [_text_past_the_end, _text_not_utf8])
def test_an_entry_whose_body_has_no_text_is_a_counted_corrupt_miss(
    tmp_path, mangle
):
    """The fingerprint text leads the body, behind its size, and is read
    on open: a size past the body's end or bytes that are not UTF-8 make
    the entry corrupt, like a flawed fact."""
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
    """A tree is decoded only when read, so only then can it be found
    wrong: two entries whose sound headers sit beside each other's trees
    open as hits, and reading them takes the hits back — counted corrupt
    misses, deleted — and parses their windows again."""
    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    first, second = sorted((tmp_path / "parse").rglob("*.entry"))[:2]
    opened = {}
    for path in (first, second):
        facts, body = open_entry(path.read_bytes(), "parse", ParseCache.SCHEMA)
        del facts["sha256"]
        text_end = 4 + struct.unpack_from("<I", body)[0]
        opened[path] = facts, body[:text_end], body[text_end:]
    for path, other in ((first, second), (second, first)):
        facts, text, _ = opened[path]
        path.write_bytes(seal_entry(
            "parse", ParseCache.SCHEMA, facts, text + opened[other][2]
        ))
    counts = Counter()
    cache = ParseCache(tmp_path)
    par = phase1_parallel(SOURCE, parse_cache=cache, counts=counts)
    assert counts == {"parse_cache.hits": FUNCTIONS}
    _assert_same_module(par, phase1_parse_and_check(SOURCE), SOURCE)
    assert cache.counts == {
        "hits": FUNCTIONS - 2, "misses": 2, "corrupt": 2
    }
    assert not first.exists() and not second.exists()


def test_every_entrys_facts_are_its_decoded_trees(tmp_path):
    """Over the corpus, what a hit reads instead of the tree is what the
    tree says: name, lines, AST size, call sites and fingerprint text
    recomputed from the decoded tree, the token count from relexing the
    window that parses to it."""
    from test_lexer_pins import INPUTS

    for name, source in INPUTS.items():
        cache = ParseCache(tmp_path / name)
        phase1_parallel(source, parse_cache=cache)
        windows = [
            source[w.start : w.end]
            for w in scan_boundaries(source).all_windows()
        ]
        entries = [
            ParseCache.open(path.read_bytes())
            for path in (tmp_path / name / "parse").rglob("*.entry")
        ]
        assert 0 < len(entries) <= len(windows), name
        for entry in entries:
            fn = entry.function
            text = next(w for w in windows if _window_parse(w) == fn)
            recomputed = ParseFacts(
                fn.name, fn.lines,
                len(tokenize(SourceFile("", text), DiagnosticSink())) - 1,
                _function_size(fn), function_call_sites(fn),
                function_text(fn),
            )
            facts = ParseFacts(
                **{f.name: getattr(entry, f.name) for f in fields(ParseFacts)}
            )
            assert facts == recomputed, (name, fn.name)
            assert type(fn) is Function and entry.scope.function is fn


def test_threads_sharing_a_hit_decode_its_body_once(tmp_path, monkeypatch):
    """A phase-1 memo may hand one parse to many threads: reading a hit's
    tree from all of them at once decodes its body once, and every
    thread sees the whole tree and its scope."""
    cache = ParseCache(tmp_path)
    phase1_parallel(SOURCE, parse_cache=cache)
    par = phase1_parallel(SOURCE, parse_cache=cache)
    section = par.module.sections[0]
    decodes = []
    loads = pickled.restricted_loads
    monkeypatch.setattr(
        pickled, "restricted_loads",
        lambda blob, allowed: decodes.append(1) or loads(blob, allowed),
    )
    seen = []

    def read(fn):
        scope = par.sema.scopes[(section.name, fn.name)]
        seen.append((fn.name, len(fn.body), len(scope.symbols)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=read, args=(fn,))
            for fn in section.functions for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(decodes) == FUNCTIONS
    want = phase1_parse_and_check(SOURCE)
    assert sorted(set(seen)) == sorted(
        (fn.name, len(fn.body), len(want.sema.scopes[(s.name, fn.name)].symbols))
        for s, fn in want.module.all_functions()
    )
    assert len(seen) == 8 * FUNCTIONS


def test_a_one_edit_compile_walks_one_tree_and_decodes_none(
    tmp_path, monkeypatch
):
    """Eight functions, one edited, all three tiers: the edited window
    is parsed (one tree walked for its fingerprint text); the seven hits
    are their headers — no tree decoded, no fingerprint walk — and the
    fingerprints are a fresh sequential parse's."""
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
    walks, decodes, served = [], [], []
    feed = fingerprint._feed_function
    monkeypatch.setattr(
        fingerprint, "_feed_function",
        lambda h, fn: walks.append(fn.name) or feed(h, fn),
    )
    loads = pickled.restricted_loads
    monkeypatch.setattr(
        pickled, "restricted_loads",
        lambda blob, allowed: decodes.append(1) or loads(blob, allowed),
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
    assert walks == ["f1"] and decodes == []
    options = CompileOptions()
    assert served == [module_fingerprints(
        phase1_parse_and_check(edited).module, options, salt=compiler_salt()
    )]
    assert result.digest == SequentialCompiler(options).compile(edited).digest


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
