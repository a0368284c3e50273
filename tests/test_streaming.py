"""Streaming recombination: results flow, section masters don't wait.

The post-backend barrier is gone: every backend can yield results as
function masters finish (``run_tasks_streaming``), the driver consumes
through :func:`repro.parallel.backend.stream_task_results`, and
:class:`repro.driver.section_master.StreamingSectionCombiner` combines
each section the moment its last function lands.
"""

import pytest

from repro.driver.function_master import run_compile_task
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.driver.section_master import (
    SectionCombineError,
    StreamingSectionCombiner,
)
from repro.driver.sequential import SequentialCompiler
from repro.parallel.backend import stream_task_results
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.parallel.warm_pool import WarmPoolBackend

from helpers import function_task, function_tasks, plain_retry

SOURCE = """
module streams
section a (cells 0..0)
  function a1(x: float) : float begin return x + 1.0; end
  function a2(x: float) : float begin return x * 2.0; end
end
section b (cells 1..1)
  function b1(x: float) : float begin return x - 3.0; end
end
end
"""


def build_tasks():
    return list(function_tasks(SOURCE, "<t>").values())


def crashing_farm() -> ChaosBackend:
    """A farm that crashes each task at most twice."""
    return ChaosBackend(
        SerialBackend(), FaultSchedule(11, {"crash": 0.6}, {"crash": 2})
    )


class TestStreamingBackends:
    def test_serial_backend_streams_lazily(self):
        stream = SerialBackend().run_tasks_streaming(build_tasks())
        first = next(stream)
        assert first.function_name == "a1"
        rest = [r.function_name for r in stream]
        assert rest == ["a2", "b1"]

    def test_adapter_falls_back_to_barrier_backends(self):
        # The barrier API is gone; what survives is that a backend's
        # run_tasks_streaming may hand back a plain list, and that the
        # adapter never asks a backend to run zero tasks.
        class ListBackend:
            worker_count = 1
            effective_worker_count = 1
            calls = 0

            def run_tasks_streaming(self, tasks):
                self.calls += 1
                return [
                    result
                    for task in tasks
                    for result in run_compile_task(task)
                ]

        backend = ListBackend()
        names = [
            r.function_name
            for r in stream_task_results(backend, build_tasks())
        ]
        assert names == ["a1", "a2", "b1"]
        assert list(stream_task_results(backend, [])) == []
        assert backend.calls == 1

    def test_supervised_streaming_over_flaky_backend(self):
        flaky = crashing_farm()
        backend = SupervisedBackend(
            flaky, max_attempts=4, hedge_after=None, task_timeout=0
        )
        results = list(backend.run_tasks_streaming(build_tasks()))
        assert sorted(r.function_name for r in results) == ["a1", "a2", "b1"]
        assert flaky.schedule.fired["crash"] > 0

    def test_supervised_warm_pool_streaming_digest(self):
        sequential = SequentialCompiler().compile(SOURCE)
        with WarmPoolBackend(max_workers=2) as inner:
            backend = SupervisedBackend(inner)
            parallel = ParallelCompiler(backend=backend).compile(SOURCE)
        assert parallel.digest == sequential.digest
        assert backend.counts["poisoned_tasks"] == 0

    def test_retrying_backend_streams_and_retries(self):
        # Every crash costs exactly one retry, and a retried task's
        # result arrives in the same stream as the first-try ones.
        flaky = crashing_farm()
        backend = plain_retry(flaky, max_attempts=4)
        stream = backend.run_tasks_streaming(build_tasks())
        first = next(stream)
        rest = list(stream)
        assert sorted(r.function_name for r in [first] + rest) == [
            "a1", "a2", "b1",
        ]
        assert flaky.schedule.fired["crash"] > 0
        assert backend.counts["retries"] == flaky.schedule.fired["crash"]
        assert backend.counts["poisoned_tasks"] == 0

    def test_retrying_backend_delegates_inner_attributes(self):
        flaky = ChaosBackend(SerialBackend(), FaultSchedule(), workers=3)
        wrapped = SupervisedBackend(flaky)
        # Not defined on the wrapper: must come from the wrapped farm.
        assert wrapped.worker_names == ("w0", "w1", "w2")
        assert wrapped.schedule is flaky.schedule
        assert wrapped.worker_count == 3
        assert wrapped.effective_worker_count == 1  # the serial executor's
        with pytest.raises(AttributeError):
            wrapped.definitely_not_an_attribute

    def test_process_pool_streaming_digest(self):
        # The cold pool: a farm built for one compile and shut down by
        # whoever built it.
        sequential = SequentialCompiler().compile(SOURCE)
        with WarmPoolBackend(max_workers=2) as backend:
            parallel = ParallelCompiler(backend=backend).compile(SOURCE)
        assert parallel.digest == sequential.digest
        assert not backend.is_warm

    def test_warm_pool_streaming_digest_and_reuse(self):
        sequential = SequentialCompiler().compile(SOURCE)
        with WarmPoolBackend(max_workers=2) as backend:
            compiler = ParallelCompiler(backend=backend)
            assert compiler.compile(SOURCE).digest == sequential.digest
            pool = backend._pool
            assert compiler.compile(SOURCE).digest == sequential.digest
            assert backend._pool is pool


class TestStreamingSectionCombiner:
    def sections(self):
        return phase1_parse_and_check(SOURCE).module.sections

    def results(self):
        return [
            result
            for task in build_tasks()
            for result in run_compile_task(task)
        ]

    def test_section_combines_on_last_result(self):
        combiner = StreamingSectionCombiner(self.sections())
        a1, a2, b1 = self.results()
        assert combiner.add(b1) is not None  # b is complete already
        assert combiner.sections_combined == 1
        assert combiner.add(a1) is None
        combined_a = combiner.add(a2)
        assert combined_a is not None
        assert [r.function_name for r in combined_a.results] == ["a1", "a2"]
        combined = combiner.finalize()
        assert sorted(combined) == ["a", "b"]

    def test_arrival_order_does_not_matter(self):
        combiner = StreamingSectionCombiner(self.sections())
        a1, a2, b1 = self.results()
        combiner.add(a2)
        combiner.add(a1)
        combiner.add(b1)
        combined = combiner.finalize()
        assert [r.function_name for r in combined["a"].results] == [
            "a1", "a2",
        ]

    def test_missing_results_fail_finalize(self):
        combiner = StreamingSectionCombiner(self.sections())
        a1, _, _ = self.results()
        combiner.add(a1)
        with pytest.raises(SectionCombineError, match="missing"):
            combiner.finalize()

    def test_duplicate_result_detected(self):
        combiner = StreamingSectionCombiner(self.sections())
        a1, _, _ = self.results()
        combiner.add(a1)
        with pytest.raises(SectionCombineError, match="duplicate"):
            combiner.add(a1)

    def test_unknown_section_rejected(self):
        combiner = StreamingSectionCombiner(self.sections())
        stray = run_compile_task(function_task(SOURCE, "a", "a1"))[0]
        stray.section_name = "zz"
        with pytest.raises(SectionCombineError, match="unknown section"):
            combiner.add(stray)

    def test_late_result_for_combined_section_rejected(self):
        combiner = StreamingSectionCombiner(self.sections())
        _, _, b1 = self.results()
        combiner.add(b1)
        duplicate = self.results()[2]
        with pytest.raises(SectionCombineError, match="late result"):
            combiner.add(duplicate)
