"""Incremental phase 1: bit-identity with the sequential
front end, and the span-hash parse cache's invalidation contract.

The headline property mirrors the paper's own correctness requirement
(recombined parallel output must be bit-identical to sequential, §3.2)
at the front end: over 200 generator seeds across size classes, the
boundary scanner's split points coincide with the sequential parser's
function spans, and :func:`phase1_parallel` produces a structurally and
span-identical AST, identical work counts, identical scopes — and, on
error modules, identical rendered diagnostics.
"""

import tempfile

import pytest

from repro.cache import ParseCache
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.phases import (
    Phase1Stats,
    phase1_parallel,
    phase1_parse_and_check,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.lang.boundary import scan_boundaries
from repro.lang.diagnostics import CompileError
from repro.lang.unparse import unparse_module
from repro.parallel.local import SerialBackend
from repro.workloads.synthetic import synthetic_program


def _render(error: CompileError) -> str:
    return "\n".join(d.render() for d in error.diagnostics)


def _assert_equivalent(source: str, **kwargs):
    """phase1_parallel(source) must be indistinguishable from
    phase1_parse_and_check(source) in every observable way."""
    seq = phase1_parse_and_check(source)
    stats = Phase1Stats()
    par = phase1_parallel(source, stats=stats, **kwargs)
    # Deep structural + span equality (AST dataclasses compare fields;
    # expression types are excluded from eq but unparse covers shape).
    assert par.module == seq.module
    assert unparse_module(par.module) == unparse_module(seq.module)
    assert par.parse_work == seq.parse_work
    assert par.sema_work == seq.sema_work
    assert par.source_lines == seq.source_lines
    assert set(par.sema.scopes) == set(seq.sema.scopes)
    for key, seq_scope in seq.sema.scopes.items():
        par_scope = par.sema.scopes[key]
        assert par_scope.symbols == seq_scope.symbols, key
    return stats


# ---------------------------------------------------------------------------
# 200-seed matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", range(4))
def test_parallel_phase1_matches_sequential_across_seeds(block):
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
        assert len(windows) == len(spans), f"{size_class} seed {seed}"
        for window, span in zip(windows, spans):
            assert window.start == span.start.offset
            assert window.end == span.end.offset
        stats = _assert_equivalent(source)
        assert stats.mode == "parallel", (
            f"{size_class} seed {seed} fell back: {stats.fallback_reason}"
        )


def test_large_and_huge_size_classes():
    for size_class, n in (("large", 3), ("huge", 2)):
        stats = _assert_equivalent(synthetic_program(size_class, n))
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
def test_error_modules_raise_identical_diagnostics(source):
    with pytest.raises(CompileError) as seq_err:
        phase1_parse_and_check(source)
    with pytest.raises(CompileError) as par_err:
        phase1_parallel(source)
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


# ---------------------------------------------------------------------------
# Parse cache: hit/miss accounting and single-function invalidation
# ---------------------------------------------------------------------------

FUNCTIONS = 6
SOURCE = synthetic_program("small", FUNCTIONS)


def test_parse_cache_cold_then_warm():
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        cold = Phase1Stats()
        phase1_parallel(SOURCE, parse_cache=cache, stats=cold)
        assert (cold.cache_hits, cold.cache_misses) == (0, FUNCTIONS)
        warm = Phase1Stats()
        par = phase1_parallel(SOURCE, parse_cache=cache, stats=warm)
        assert (warm.cache_hits, warm.cache_misses) == (FUNCTIONS, 0)
        assert par.module == phase1_parse_and_check(SOURCE).module


def test_body_edit_reparses_exactly_one_function():
    """The acceptance criterion: a 1-function edit on a warm cache
    misses once and hits FUNCTIONS-1 times — and the edit *adds lines*,
    so every later function's cached spans go through the rebase."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        edited = SOURCE.replace(
            "acc := 0.0;",
            "acc := 0.0;\n    acc := acc + 1.0;\n    acc := acc + 2.0;",
            1,
        )
        assert edited != SOURCE
        stats = Phase1Stats()
        par = phase1_parallel(edited, parse_cache=cache, stats=stats)
        assert (stats.cache_hits, stats.cache_misses) == (FUNCTIONS - 1, 1)
        # Rebased entries must be bit-identical to a fresh parse: spans,
        # structure, everything.
        seq = phase1_parse_and_check(edited)
        assert par.module == seq.module
        assert unparse_module(par.module) == unparse_module(seq.module)


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
        stats = Phase1Stats()
        phase1_parallel(edited, parse_cache=cache, stats=stats)
        assert stats.cache_hits == 0
        assert stats.cache_misses == FUNCTIONS


def test_comment_only_edit_hits_everything():
    """Edits in the skeleton gaps (here: the module header line) leave
    every function's window text untouched — all hits, spans rebased."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ParseCache(tmp)
        phase1_parallel(SOURCE, parse_cache=cache)
        edited = SOURCE.replace(
            "module ", "-- a new comment line\nmodule ", 1
        )
        stats = Phase1Stats()
        par = phase1_parallel(edited, parse_cache=cache, stats=stats)
        assert (stats.cache_hits, stats.cache_misses) == (FUNCTIONS, 0)
        assert par.module == phase1_parse_and_check(edited).module


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
        assert cold.profile.parse_cache_misses == FUNCTIONS
        assert cold.profile.parse_cache_hits == 0
        clear_phase1_cache()
        warm = compiler.compile(SOURCE)
        assert warm.digest == seq.digest
        assert warm.profile.parse_cache_hits == FUNCTIONS
        assert warm.profile.parse_cache_misses == 0
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
    assert document["profile"]["parse_cache_misses"] == FUNCTIONS
