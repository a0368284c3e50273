"""The warm-worker compile farm: persistence, recovery, batching.

The backend must satisfy the ExecutionBackend protocol, keep its
executor alive across compilations, survive worker crashes, and — the
paper's correctness requirement — produce bit-identical download modules
to the sequential compiler.
"""

import os

import pytest

from repro.driver.function_master import FunctionTask, clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.parallel.schedule import ast_cost_hint, batch_tasks_by_cost
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

SMALL = """
module farm
section a (cells 0..0)
  function a1(x: float) : float begin return x + 1.0; end
  function a2(x: float) : float begin return x * 2.0; end
end
section b (cells 1..1)
  function b1(x: float) : float begin return x - 3.0; end
end
end
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_phase1_cache()
    yield
    clear_phase1_cache()


class TestBitIdenticalOutput:
    def test_small_program(self):
        sequential = SequentialCompiler().compile(SMALL)
        with WarmPoolBackend(max_workers=2) as backend:
            parallel = ParallelCompiler(backend=backend).compile(SMALL)
        assert parallel.digest == sequential.digest
        assert parallel.diagnostics_text == sequential.diagnostics_text

    def test_s4_medium(self):
        source = synthetic_program("medium", 4)
        sequential = SequentialCompiler().compile(source)
        with WarmPoolBackend(max_workers=2) as backend:
            parallel = ParallelCompiler(backend=backend).compile(source)
        assert parallel.digest == sequential.digest

    def test_mech_eng_user_program(self):
        source = user_program()
        sequential = SequentialCompiler().compile(source)
        with WarmPoolBackend(max_workers=2) as backend:
            parallel = ParallelCompiler(backend=backend).compile(source)
        assert parallel.digest == sequential.digest


class TestPoolPersistence:
    def test_lazy_start(self):
        backend = WarmPoolBackend(max_workers=1)
        assert not backend.is_warm
        assert list(backend.run_tasks_streaming([])) == []
        assert not backend.is_warm  # empty batch never spins up the farm
        backend.shutdown()

    def test_pool_survives_across_run_tasks(self):
        with WarmPoolBackend(max_workers=1) as backend:
            compiler = ParallelCompiler(backend=backend)
            compiler.compile(SMALL)
            first_pool = backend._pool
            assert first_pool is not None
            compiler.compile(SMALL)
            assert backend._pool is first_pool
            assert backend.dispatches == 2

    def test_second_compile_is_served_from_worker_caches(self):
        with WarmPoolBackend(max_workers=1) as backend:
            compiler = ParallelCompiler(backend=backend)
            compiler.compile(SMALL)
            second = compiler.compile(SMALL)
        assert second.profile.phase1_cache_hits() == 3
        assert second.profile.phase1_cache_misses() == 0

    def test_restart_after_shutdown(self):
        backend = WarmPoolBackend(max_workers=1)
        compiler = ParallelCompiler(backend=backend)
        first = compiler.compile(SMALL)
        backend.shutdown()
        assert not backend.is_warm
        second = compiler.compile(SMALL)  # lazily restarts the farm
        backend.shutdown()
        assert second.digest == first.digest

    def test_recovers_after_worker_crash(self):
        with WarmPoolBackend(max_workers=1, crash_retries=1) as backend:
            compiler = ParallelCompiler(backend=backend)
            compiler.compile(SMALL)
            # Kill the worker out from under the backend.
            poison = backend._pool.submit(os._exit, 0)
            with pytest.raises(Exception):
                poison.result()
            result = compiler.compile(SMALL)
            assert backend.crash_recoveries >= 1
        sequential = SequentialCompiler().compile(SMALL)
        assert result.digest == sequential.digest

    def test_task_errors_propagate_without_retry(self):
        with WarmPoolBackend(max_workers=1, crash_retries=1) as backend:
            task = FunctionTask(SMALL, "<t>", "nope", "main")
            with pytest.raises(KeyError):
                list(backend.run_tasks_streaming([task]))
            assert backend.crash_recoveries == 0

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WarmPoolBackend(max_workers=0)
        with pytest.raises(ValueError):
            WarmPoolBackend(batches_per_worker=0)
        with pytest.raises(ValueError):
            WarmPoolBackend(crash_retries=-1)


class TestEffectiveWorkerCount:
    def test_pool_backend_records_cap_at_task_count(self):
        with WarmPoolBackend(max_workers=8) as backend:
            result = ParallelCompiler(backend=backend).compile(SMALL)
        assert backend.effective_worker_count == 3
        assert result.profile.workers_used == 3

    def test_warm_backend_records_batch_cap(self):
        with WarmPoolBackend(max_workers=8) as backend:
            result = ParallelCompiler(backend=backend).compile(SMALL)
            assert backend.effective_worker_count <= 3
            assert result.profile.workers_used == backend.effective_worker_count

    def test_serial_backend_is_one(self):
        backend = SerialBackend()
        result = ParallelCompiler(backend=backend).compile(SMALL)
        assert backend.effective_worker_count == 1
        assert result.profile.workers_used == 1

    def test_sequential_profile_defaults_to_one_worker(self):
        result = SequentialCompiler().compile(SMALL)
        assert result.profile.workers_used == 1


class TestBatchedDispatch:
    def test_partition_covers_every_task_exactly_once(self):
        costs = [5.0, 1.0, 9.0, 2.0, 2.0, 7.0]
        chunks = batch_tasks_by_cost(costs, 3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(len(costs)))
        assert len(chunks) <= 3

    def test_chunks_keep_source_order(self):
        chunks = batch_tasks_by_cost([1.0] * 7, 2)
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_balances_cost_not_count(self):
        # One huge task must not share its chunk with everything else.
        chunks = batch_tasks_by_cost([100.0, 1.0, 1.0, 1.0], 2)
        heavy = next(chunk for chunk in chunks if 0 in chunk)
        assert heavy == [0]

    def test_empty_and_invalid(self):
        assert batch_tasks_by_cost([], 4) == []
        with pytest.raises(ValueError):
            batch_tasks_by_cost([1.0], 0)

    def test_ast_cost_hint_tracks_size(self):
        from repro.driver.phases import phase1_parse_and_check

        small = phase1_parse_and_check(synthetic_program("tiny", 1))
        large = phase1_parse_and_check(synthetic_program("large", 1))
        small_fn = small.module.sections[0].functions[0]
        large_fn = large.module.sections[0].functions[0]
        assert ast_cost_hint(large_fn) > ast_cost_hint(small_fn)
