"""Section-level vs function-level task granularity (§3.1).

"The original plan was to parallelize only the compilation of programs
for different sections, but then we realized that since the compiler
performs only minimal inter-procedural optimizations, the scheme could be
extended to handle the parallel compilation of multiple functions in the
same section as well."
"""

import pytest

from repro import CompileOptions
from repro.driver.function_master import FunctionTask, run_compile_task, run_function_master
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.warm_pool import WarmPoolBackend

from helpers import plain_retry, wrap_function

SECTION = CompileOptions(granularity="section")

SOURCE = """
module grains
section a (cells 0..0)
  function a1(x: float) : float begin return x + 1.0; end
  function a2(x: float) : float begin return x + 2.0; end
end
section b (cells 1..1)
  function b1(x: float) : float begin return x * 3.0; end
end
end
"""


class TestSectionTasks:
    def test_section_task_compiles_all_functions(self):
        task = FunctionTask(SOURCE, "<t>", "a", None)
        results = run_compile_task(task)
        assert [r.function_name for r in results] == ["a1", "a2"]

    def test_function_task_still_single(self):
        task = FunctionTask(SOURCE, "<t>", "a", "a2")
        results = run_compile_task(task)
        assert [r.function_name for r in results] == ["a2"]

    def test_run_function_master_rejects_section_tasks(self):
        with pytest.raises(ValueError, match="section-level"):
            run_function_master(FunctionTask(SOURCE, "<t>", "a", None))

    def test_unknown_section_rejected(self):
        with pytest.raises(KeyError):
            run_compile_task(FunctionTask(SOURCE, "<t>", "zz", None))


class TestGranularityOption:
    def test_invalid_granularity_rejected(self):
        with pytest.raises(ValueError, match="granularity"):
            ParallelCompiler(options=CompileOptions(granularity="module"))

    def test_section_granularity_builds_one_task_per_section(self):
        from repro.driver.phases import phase1_parse_and_check

        compiler = ParallelCompiler(options=SECTION)
        tasks = compiler._build_tasks(
            phase1_parse_and_check(SOURCE), SOURCE, "<t>"
        )
        assert [(t.section_name, t.function_name) for t in tasks] == [
            ("a", None),
            ("b", None),
        ]

    def test_both_granularities_produce_identical_output(self):
        sequential = SequentialCompiler().compile(SOURCE)
        by_function = ParallelCompiler(
            backend=SerialBackend(), options=CompileOptions(granularity="function")
        ).compile(SOURCE)
        by_section = ParallelCompiler(
            backend=SerialBackend(), options=SECTION
        ).compile(SOURCE)
        assert by_function.digest == sequential.digest
        assert by_section.digest == sequential.digest

    def test_section_granularity_with_process_pool(self):
        sequential = SequentialCompiler().compile(SOURCE)
        with ParallelCompiler(
            backend=WarmPoolBackend(max_workers=2),
            options=SECTION,
            owns_backend=True,
        ) as compiler:
            parallel = compiler.compile(SOURCE)
        assert parallel.digest == sequential.digest


class TestSectionGranularityBackends:
    """Section-level tasks through the warm farm and the §5.2 retry
    wrapper — paths previously exercised only at function granularity."""

    def test_section_granularity_with_warm_pool(self):
        sequential = SequentialCompiler().compile(SOURCE)
        with WarmPoolBackend(max_workers=2) as backend:
            compiler = ParallelCompiler(
                backend=backend, options=SECTION
            )
            first = compiler.compile(SOURCE)
            second = compiler.compile(SOURCE)  # warm workers, cached parse
        assert first.digest == sequential.digest
        assert second.digest == sequential.digest
        assert backend.dispatches == 2

    def test_section_granularity_with_retrying_flaky_backend(self):
        flaky = ChaosBackend(
            SerialBackend(), crash_rate=0.6, seed=1, max_failures_per_task=2
        )
        backend = plain_retry(flaky, max_attempts=4)
        parallel = ParallelCompiler(
            backend=backend, options=SECTION
        ).compile(SOURCE)
        sequential = SequentialCompiler().compile(SOURCE)
        assert parallel.digest == sequential.digest
        assert flaky.injected_crashes > 0
        assert backend.supervision.retries == flaky.injected_crashes
        assert backend.supervision.poisoned_tasks == 0

    def test_section_granularity_retry_budget_still_enforced(self):
        # A section task gets its two farm attempts and no more; it is
        # then compiled in-process, whole, and the module is unchanged.
        flaky = ChaosBackend(SerialBackend(), crash_rate=1.0, seed=1)
        backend = plain_retry(flaky, max_attempts=2)
        parallel = ParallelCompiler(
            backend=backend, options=SECTION
        ).compile(SOURCE)
        sections = len({f.section_name for f in parallel.profile.functions})
        assert flaky.injected_crashes == 2 * sections
        assert backend.supervision.poisoned_tasks == sections
        assert all(f.poisoned for f in parallel.profile.functions)
        assert parallel.digest == SequentialCompiler().compile(SOURCE).digest
