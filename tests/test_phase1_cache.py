"""The master's phase-1 memo: correctness, keying, and who reads it.

A function master in the master's process reads the master's checked
tree through the memo entry its task names, skipping parse + sema — and
produces byte-identical object code to one that parses its window.  The
memo is keyed by (sha256(source), filename), so two modules sharing a
filename can never collide.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.driver.function_master import (
    PHASE1_CACHE_CAPACITY,
    clear_phase1_cache,
    phase1_cached,
    run_compile_task,
)
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.driver.sequential import SequentialCompiler
from repro.lang import parser as parser_module
from repro.lang.diagnostics import CompileError, DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.source import SourceFile
from repro.parallel.local import SerialBackend

from helpers import function_task, wrap_function

SOURCE_A = """
module cachemod
section s (cells 0..0)
  function f(x: float) : float begin return x + 1.0; end
  function g(x: float) : float begin return x * 2.0; end
end
end
"""

#: same filename as SOURCE_A in the tests below, different content
SOURCE_B = """
module cachemod
section s (cells 0..0)
  function f(x: float) : float begin return x - 1.0; end
end
end
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_phase1_cache()
    yield
    clear_phase1_cache()


class TestCacheSemantics:
    def test_hit_returns_same_compiled_object_bytes(self):
        task = function_task(SOURCE_A, "s", "f", filename="<t>", memo=True)
        warm = run_compile_task(task)[0]
        cold = run_compile_task(replace(task, phase1_key=None))[0]
        assert (cold.window is None, warm.window is None) == (False, True)
        assert warm.code == cold.code

    def test_hit_reuses_the_same_parse(self):
        first, hit_first = phase1_cached(SOURCE_A, "<t>")
        second, hit_second = phase1_cached(SOURCE_A, "<t>")
        assert (hit_first, hit_second) == (False, True)
        assert second is first

    def test_keyed_by_content_not_filename(self):
        task_a = function_task(SOURCE_A, "s", "f", filename="same.w", memo=True)
        task_b = function_task(SOURCE_B, "s", "f", filename="same.w", memo=True)
        assert task_a.phase1_key != task_b.phase1_key
        first = run_compile_task(task_a)
        result = run_compile_task(task_b)
        # The second compile really used SOURCE_B's text.
        assert result[0].code != first[0].code
        assert result[0].code == (
            SequentialCompiler().compile(SOURCE_B).results[0].code
        )

    def test_different_filename_is_a_different_key(self):
        phase1_cached(SOURCE_A, "a.w")
        _parsed, hit = phase1_cached(SOURCE_A, "b.w")
        assert not hit

    def test_errors_are_never_cached(self):
        bad = wrap_function("function f() begin y := 1; end")
        parses = []

        def front(source_text, filename):
            parses.append(filename)
            return phase1_parse_and_check(source_text, filename)

        for _ in range(2):
            with pytest.raises(CompileError):
                phase1_cached(bad, "<t>", front=front)
        assert parses == ["<t>", "<t>"]  # the second try parsed again

    def test_lru_eviction_is_bounded(self):
        hits = [phase1_cached(SOURCE_A, "<t>")[1]]
        for index in range(PHASE1_CACHE_CAPACITY):  # evicts A, the oldest
            hits.append(phase1_cached(SOURCE_B, f"<t{index}>")[1])
        _parsed, hit = phase1_cached(SOURCE_A, "<t>")
        assert not hit
        assert not any(hits)
        # ... while the most recent ones are all still there.
        _parsed, hit = phase1_cached(SOURCE_B, f"<t{PHASE1_CACHE_CAPACITY - 1}>")
        assert hit


class TestCacheTelemetry:
    def test_counters_surface_in_function_report(self):
        """A window's facts ride on the result, beside ``worker``, and
        never on the report: they are the run's, not the function's."""
        task = function_task(SOURCE_A, "s", "g", filename="<t>", memo=True)
        window = run_compile_task(replace(task, phase1_key=None))[0]
        tree = run_compile_task(task)[0]
        assert window.window.token_count > 0 and tree.window is None
        assert window.report == tree.report

    def test_serial_backend_tasks_hit_the_masters_parse(
        self, monkeypatch, tmp_path
    ):
        # With a tier the master parses the module, so every in-process
        # function master reads its tree and parses nothing.
        from repro.cache import ArtifactCache

        parses = Counter()
        for name in ("parse_module", "parse_function"):
            parse = getattr(parser_module.Parser, name)
            monkeypatch.setattr(
                parser_module.Parser, name,
                lambda self, name=name, parse=parse: parses.update([name])
                or parse(self),
            )
        cache = ArtifactCache(tmp_path)
        result = ParallelCompiler(backend=SerialBackend(), cache=cache).compile(
            SOURCE_A
        )
        assert result.profile.counts["artifact_cache.misses"] == 2
        assert parses == {"parse_module": 1}  # the master's, once

    def test_section_task_records_on_first_report_only(self):
        """A section's tasks in a worker that holds no parse: each
        parses only its own window and records its own facts."""
        results = [
            run_compile_task(function_task(SOURCE_A, "s", name))[0]
            for name in ("f", "g")
        ]
        windows = [line.strip() for line in SOURCE_A.splitlines()[3:5]]
        assert [r.window.token_count for r in results] == [
            len(tokenize(SourceFile("", text), DiagnosticSink())) - 1
            for text in windows
        ]


class TestCachedOutputIdentity:
    def test_serial_parallel_digest_identical_with_warm_cache(self):
        sequential = SequentialCompiler().compile(SOURCE_A)
        compiler = ParallelCompiler(backend=SerialBackend())
        first = compiler.compile(SOURCE_A)
        second = compiler.compile(SOURCE_A)  # fully cache-served
        assert first.digest == sequential.digest
        assert second.digest == sequential.digest
        assert second.diagnostics_text == sequential.diagnostics_text


class TestSectionDiagnosticsRenderedOnce:
    def test_recombined_section_has_no_duplicates(self):
        parsed, _ = phase1_cached(SOURCE_A, "<d>")
        parsed.sink.warning("synthetic warning for the dedup test")
        compiled = ParallelCompiler().compile(SOURCE_A, "<d>")  # memo hit
        assert compiled.diagnostics_text.count("synthetic warning") == 1
