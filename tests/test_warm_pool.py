"""The warm-worker compile farm: persistence, recovery, batching.

The backend must satisfy the ExecutionBackend protocol, keep its
executor alive across compilations, lose only the executor a dead
worker broke — the supervisor, not the pool, decides what runs again —
and, the paper's correctness requirement, produce bit-identical download
modules to the sequential compiler.
"""

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.driver import function_master
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.parallel.schedule import batch_tasks_by_cost, window_cost_hint
from repro.parallel.supervisor import SupervisedBackend
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

from helpers import function_task, function_tasks, wrap_function

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


#: six functions, f0 .. f5, in section s
SIX = wrap_function(
    "\n".join(
        f"function f{i}(x: float) : float begin return x + {float(i)}; end"
        for i in range(6)
    )
)

#: the crash tests patch the worker entry point in this process; only
#: workers forked from it run the patch
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers inherit the patched entry point only by fork",
)


def crash_workers(monkeypatch, function, marker=None):
    """Pool workers — never this process — die by ``os._exit`` when they
    reach ``function``: every time, or with ``marker`` (a path) only the
    first time any of them does.  Patch before the pool starts."""
    parent = os.getpid()
    real = function_master.run_compile_task

    def run(task):
        if os.getpid() != parent and task.function_name == function:
            if marker is None or _claim(marker):
                os._exit(1)
        return real(task)

    monkeypatch.setattr(function_master, "run_compile_task", run)


def _claim(marker) -> bool:
    """True for the one caller, across processes, that creates it."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


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

    def test_no_worker_reads_a_module_memo(self):
        """The master's memo serves its second phase 1; a worker, even
        one forked after the master's parse, parses its task's window
        and returns its facts."""
        with WarmPoolBackend(max_workers=1) as backend:
            compiler = ParallelCompiler(backend=backend)
            compiler.compile(SMALL)
            second = compiler.compile(SMALL)
            assert compiler.last_phase1_stats.mode == "memo"
            tasks = list(function_tasks(SMALL, memo=True).values())
            results = list(backend.run_tasks_streaming(tasks))
        assert all(result.window is not None for result in results)
        assert second.digest == SequentialCompiler().compile(SMALL).digest

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
        """A worker killed while the pool idles: the next dispatch finds
        the executor broken and the pool discards it; the supervisor
        re-runs every task that dispatch held on a fresh executor."""
        with WarmPoolBackend(max_workers=1) as backend:
            compiler = ParallelCompiler(backend=SupervisedBackend(backend))
            compiler.compile(SMALL)
            broken = backend._pool
            # Kill the worker out from under the backend.
            with pytest.raises(BrokenProcessPool):
                broken.submit(os._exit, 0).result()
            result = compiler.compile(SMALL)
            assert backend._pool is not broken
        assert result.digest == SequentialCompiler().compile(SMALL).digest
        assert result.profile.counts["supervision.retries"] == 3
        assert "supervision.degradations" not in result.profile.counts

    def test_task_errors_propagate_without_retry(self):
        """A task that raises is not a crash: the pool re-raises it once
        and keeps its executor.  Re-running it is the supervisor's call —
        twice on the farm, then in-process, where it fails for real."""
        # a malformed task: its headers are no list
        task = replace(function_task(SMALL, "a", "a1"), headers=None)
        with WarmPoolBackend(max_workers=1) as backend:
            with pytest.raises(TypeError):
                list(backend.run_tasks_streaming([task]))
            pool = backend._pool
            supervised = SupervisedBackend(backend, hedge_after=None)
            (stub,) = supervised.run_tasks_streaming([task])
            assert backend._pool is pool
        assert stub.report.failed == 1
        counts = supervised.counts
        assert (counts["retries"], counts["poisoned_tasks"]) == (2, 1)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            WarmPoolBackend(max_workers=0)

    @needs_fork
    def test_a_late_crash_report_spares_the_fresh_executor(self, monkeypatch):
        """Two dispatches overlap on one pool and a worker dies under the
        first.  Before that dispatch reads its broken future, another has
        discarded the broken executor and a third started a fresh one:
        the late report must discard only the executor that broke."""
        crash_workers(monkeypatch, "b1")
        heavy = replace(function_task(SMALL, "a", "a1"), cost_hint=2.0)
        crash = replace(function_task(SMALL, "b", "b1"), cost_hint=1.0)
        others = [function_task(SMALL, "a", f) for f in ("a1", "a2")]
        with WarmPoolBackend(max_workers=1) as backend:
            # One worker runs a1's batch, then b1's, which kills it.
            stale = backend.run_tasks_streaming([heavy, crash])
            assert next(stale).key == ("a", "a1")
            broken = backend._pool
            with pytest.raises(BrokenProcessPool):
                list(backend.run_tasks_streaming(others[1:]))
            fresh = backend.run_tasks_streaming(others)
            next(fresh)
            current = backend._pool
            assert current is not None and current is not broken
            with pytest.raises(BrokenProcessPool):
                next(stale)
            assert backend._pool is current
            assert len(list(fresh)) == 1


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

    def test_reversed_cost_hints_leave_digests_unchanged(self):
        """Costs reorder batches; results must be bit-identical."""
        expected = SequentialCompiler().compile(SIX).digest
        with WarmPoolBackend(max_workers=2) as pool:

            class Reversed:
                """Reverses the relative order the packer sees."""

                worker_count = effective_worker_count = 2

                def run_tasks_streaming(self, tasks):
                    return pool.run_tasks_streaming([
                        replace(
                            task, cost_hint=1.0 / max(task.cost_hint, 1.0)
                        )
                        for task in tasks
                    ])

            result = ParallelCompiler(backend=Reversed()).compile(SIX)
        assert result.digest == expected

    def test_window_cost_hint_tracks_size(self):
        small = synthetic_program("tiny", 1)
        large = synthetic_program("large", 1)
        assert window_cost_hint(large) > window_cost_hint(small)
        # nesting weighs: the same lines one loop deeper cost more
        flat = "function f()\nbegin\n  x := 1;\n  y := 2;\nend"
        nested = "function f()\nbegin\n  for i := 0 to 1 do\n  y := 2;\nend\nend"
        assert window_cost_hint(nested) > window_cost_hint(flat)


@needs_fork
class TestWorkerCrashMidCompile:
    """A pool worker killed mid-compile: the dead executor's tasks are
    one failure of the farm, re-run on a fresh executor by the one
    supervisor — wherever the pool sits — and the module is the
    sequential compiler's."""

    def test_plain_parallel_compile(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        crash_workers(monkeypatch, "f1", marker=tmp_path / "crashed")
        path = tmp_path / "six.w2"
        path.write_text(SIX)
        argv = ["compile", str(path), "--parallel", "--jobs", "2",
                "--no-cache", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert (tmp_path / "crashed").exists()
        assert report["digest"] == SequentialCompiler().compile(SIX).digest
        counts = report["profile"]["counts"]
        assert counts["supervision.retries"] >= 1
        assert "supervision.degradations" not in counts

    def test_serve_job(self, monkeypatch, tmp_path):
        from repro.service import CompileService

        crash_workers(monkeypatch, "f1", marker=tmp_path / "crashed")
        with WarmPoolBackend(max_workers=2) as pool, \
                CompileService(pool) as service:
            job = service.wait(service.submit(SIX), timeout=60.0)
            supervision = service.service_stats()["supervision"]
        assert (tmp_path / "crashed").exists()
        assert job.state == "done", job.error
        assert job.digest == SequentialCompiler().compile(SIX).digest
        assert supervision["retries"] >= 1
        assert "degradations" not in supervision

    def test_a_worker_nodes_pool(self, monkeypatch, tmp_path):
        """The node's pool reports the crash instead of re-running the
        task itself; the hub's supervisor re-runs it, once."""
        from repro.fabric import FabricHub, RemoteBackend, WorkerNodeAgent

        crash_workers(monkeypatch, "f1", marker=tmp_path / "crashed")
        with FabricHub(lease_ttl=5.0, heartbeat_interval=0.5) as hub, \
                WarmPoolBackend(max_workers=1) as pool:
            agent = WorkerNodeAgent(hub.address, pool, node_id="n").start()
            try:
                assert hub.wait_for_nodes(1, timeout=10.0)
                backend = RemoteBackend(hub)
                result = ParallelCompiler(backend=backend).compile(SIX)
            finally:
                agent.stop()
        assert result.digest == SequentialCompiler().compile(SIX).digest
        assert backend.counts == dict(retries=1)
        assert agent.counts["tasks_failed"] == 1
        assert hub.counts["tasks_dispatched"] == 7
