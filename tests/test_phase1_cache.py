"""The per-worker phase-1 cache: correctness, keying, and telemetry.

A warm worker that receives its second task for the same module must
skip parse + sema entirely — and produce byte-identical object code to a
cold parse.  The cache is keyed by (sha256(source), filename), so two
modules sharing a filename can never collide.
"""

import pytest

from repro.driver.function_master import (
    PHASE1_CACHE_CAPACITY,
    FunctionTask,
    clear_phase1_cache,
    phase1_cached,
    run_compile_task,
)
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.driver.sequential import SequentialCompiler
from repro.lang.diagnostics import CompileError
from repro.parallel.local import SerialBackend

from helpers import wrap_function

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
        task = FunctionTask(SOURCE_A, "<t>", "s", "f")
        cold = run_compile_task(task)[0]
        warm = run_compile_task(task)[0]
        assert (cold.phase1_memo_hit, warm.phase1_memo_hit) == (False, True)
        assert warm.code == cold.code

    def test_hit_reuses_the_same_parse(self):
        first, hit_first = phase1_cached(SOURCE_A, "<t>")
        second, hit_second = phase1_cached(SOURCE_A, "<t>")
        assert (hit_first, hit_second) == (False, True)
        assert second is first

    def test_keyed_by_content_not_filename(self):
        first = run_compile_task(FunctionTask(SOURCE_A, "same.w", "s", "f"))
        result = run_compile_task(FunctionTask(SOURCE_B, "same.w", "s", "f"))
        assert (first[0].phase1_memo_hit, result[0].phase1_memo_hit) == (
            False, False,
        )
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
        """The memo outcome rides on the result, beside ``worker``, and
        never on the report: it is the run's, not the function's."""
        task = FunctionTask(SOURCE_A, "<t>", "s", "g")
        cold = run_compile_task(task)[0]
        warm = run_compile_task(task)[0]
        assert (cold.phase1_memo_hit, warm.phase1_memo_hit) == (False, True)
        assert cold.report == warm.report

    def test_serial_backend_tasks_hit_the_masters_parse(self):
        # The master's own parse seeds the cache, so every in-process
        # function-master task is a hit.
        result = ParallelCompiler(backend=SerialBackend()).compile(SOURCE_A)
        assert result.profile.counts["phase1_memo.hits"] == 2
        assert "phase1_memo.misses" not in result.profile.counts

    def test_section_task_records_on_first_report_only(self):
        """A section's tasks in one cold worker: the first pays the
        parse, and each records on its own report."""
        results = [
            run_compile_task(FunctionTask(SOURCE_A, "<t>", "s", name))[0]
            for name in ("f", "g")
        ]
        assert [r.phase1_memo_hit for r in results] == [False, True]


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
    def test_section_task_attaches_diagnostics_once(self):
        parsed, _ = phase1_cached(SOURCE_A, "<d>")
        parsed.sink.warning("synthetic warning for the dedup test")
        for name in ("f", "g"):  # every task renders the module's sink
            (result,) = run_compile_task(FunctionTask(SOURCE_A, "<d>", "s", name))
            assert len(result.diagnostics) == 1
            assert "synthetic warning" in result.diagnostics[0]

    def test_recombined_section_has_no_duplicates(self):
        parsed, _ = phase1_cached(SOURCE_A, "<d>")
        parsed.sink.warning("synthetic warning for the dedup test")
        compiled = ParallelCompiler().compile(SOURCE_A, "<d>")  # memo hit
        assert compiled.diagnostics_text.count("synthetic warning") == 1
