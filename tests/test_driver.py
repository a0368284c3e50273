"""Drivers: sequential vs parallel equivalence, diagnostics, masters."""

import pytest

from dataclasses import replace

from repro.driver.function_master import run_function_master
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.driver.section_master import (
    SectionCombineError,
    combine_section_results,
)
from repro.driver.sequential import SequentialCompiler
from repro.lang.diagnostics import CompileError
from repro.parallel.local import SerialBackend
from repro.parallel.warm_pool import WarmPoolBackend
from repro.warpsim.array_runner import run_module

from helpers import function_task, wrap_function


MULTI_SECTION = """
module prog
section alpha (cells 0..1)
  function work(x: float) : float begin return x * 2.0; end
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 2 do receive(v); send(work(v)); end;
  end
end
section beta (cells 2..2)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 2 do receive(v); send(v + 0.5); end;
  end
end
end
"""


class TestPhase1:
    def test_parse_error_aborts(self):
        with pytest.raises(CompileError):
            phase1_parse_and_check("module broken")

    def test_semantic_error_aborts(self):
        with pytest.raises(CompileError):
            phase1_parse_and_check(
                wrap_function("function f() begin x := 1; end")
            )

    def test_work_counts_positive(self):
        parsed = phase1_parse_and_check(MULTI_SECTION)
        assert parsed.parse_work > 0
        assert parsed.sema_work > 0
        assert parsed.source_lines > 10


class TestSequentialCompiler:
    def test_compiles_multi_section_program(self):
        result = SequentialCompiler().compile(MULTI_SECTION)
        assert result.module_name == "prog"
        assert len(result.profile.functions) == 3
        assert result.download.cells_used == 3

    def test_profile_in_source_order(self):
        result = SequentialCompiler().compile(MULTI_SECTION)
        keys = [(f.section_name, f.name) for f in result.profile.functions]
        assert keys == [("alpha", "work"), ("alpha", "main"), ("beta", "main")]

    def test_compiled_module_runs(self):
        result = SequentialCompiler().compile(MULTI_SECTION)
        out = run_module(result.download, [1.0, 2.0]).output_floats()
        # alpha (2 cells): x*2 twice; beta: +0.5
        assert out == [1.0 * 4 + 0.5, 2.0 * 4 + 0.5]

    def test_digest_stable_across_runs(self):
        a = SequentialCompiler().compile(MULTI_SECTION)
        b = SequentialCompiler().compile(MULTI_SECTION)
        assert a.digest == b.digest

    def test_report_lines(self):
        result = SequentialCompiler().compile(MULTI_SECTION)
        text = "\n".join(result.report_lines())
        assert "alpha.work" in text


class TestFunctionMaster:
    def test_compiles_exactly_one_function(self):
        task = function_task(MULTI_SECTION, "alpha", "work")
        result = run_function_master(task)
        assert result.key == ("alpha", "work")
        assert result.report.section_name == "alpha"
        assert not result.refused and result.window is not None

    def test_unknown_function_raises(self):
        """In the master's process a task reads the master's tree, which
        has no such function; elsewhere its window says it is another."""
        task = function_task(MULTI_SECTION, "alpha", "work", memo=True)
        with pytest.raises(KeyError):
            run_function_master(replace(task, function_name="nope"))
        alone = replace(task, function_name="nope", phase1_key=None)
        assert run_function_master(alone).refused == "the window holds 'work'"

    def test_unknown_section_rejected(self):
        task = function_task(MULTI_SECTION, "alpha", "work", memo=True)
        with pytest.raises(KeyError, match="no section named 'zz'"):
            run_function_master(replace(task, section_name="zz"))


class TestSectionMaster:
    def _results(self):
        parsed = phase1_parse_and_check(MULTI_SECTION)
        section = parsed.module.section_named("alpha")
        return section, [
            run_function_master(function_task(MULTI_SECTION, "alpha", fn.name))
            for fn in section.functions
        ]

    def test_recombines_in_source_order(self):
        section, results = self._results()
        combined = combine_section_results(section, list(reversed(results)))
        assert [r.function_name for r in combined.results] == ["work", "main"]

    def test_missing_result_rejected(self):
        section, results = self._results()
        with pytest.raises(SectionCombineError, match="missing"):
            combine_section_results(section, results[:1])

    def test_duplicate_result_rejected(self):
        section, results = self._results()
        with pytest.raises(SectionCombineError, match="duplicate"):
            combine_section_results(section, results + [results[0]])

    def test_foreign_result_rejected(self):
        section, results = self._results()
        stray = run_function_master(function_task(MULTI_SECTION, "beta", "main"))
        with pytest.raises(SectionCombineError):
            combine_section_results(section, results + [stray])


class TestParallelEqualsSequential:
    """The paper's §3.2 requirement: the section master produces "the same
    input for the assembly phase as the sequential compiler"."""

    def test_serial_backend_digest_identical(self):
        seq = SequentialCompiler().compile(MULTI_SECTION)
        par = ParallelCompiler(backend=SerialBackend()).compile(MULTI_SECTION)
        assert par.digest == seq.digest
        assert par.diagnostics_text == seq.diagnostics_text

    def test_process_pool_digest_identical(self):
        seq = SequentialCompiler().compile(MULTI_SECTION)
        with WarmPoolBackend(max_workers=3) as pool:
            par = ParallelCompiler(backend=pool).compile(MULTI_SECTION)
        assert par.digest == seq.digest

    def test_work_profiles_identical(self):
        seq = SequentialCompiler().compile(MULTI_SECTION)
        par = ParallelCompiler(backend=SerialBackend()).compile(MULTI_SECTION)
        seq_work = [(f.key, f.work_units) for f in seq.profile.functions]
        par_work = [(f.key, f.work_units) for f in par.profile.functions]
        assert seq_work == par_work

    def test_parallel_output_runs_identically(self):
        par = ParallelCompiler(backend=SerialBackend()).compile(MULTI_SECTION)
        out = run_module(par.download, [3.0, 4.0]).output_floats()
        assert out == [12.5, 16.5]

    def test_parallel_aborts_on_errors_before_dispatch(self):
        bad = wrap_function("function f() begin y := 1; end")
        with pytest.raises(CompileError):
            ParallelCompiler(backend=SerialBackend()).compile(bad)
