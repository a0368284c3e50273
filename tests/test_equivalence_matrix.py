"""Serial / parallel / warm-pool equivalence over the paper's S_n grid.

The §4.1 synthetic workload matrix (every size class × function count)
is the paper's own benchmark surface; these tests assert the bit-identity
invariant holds on all of it.  Larger entries are thinned (the compile
time of huge×8 alone is tens of seconds) but *every size class* appears,
and the warm multiprocess pool — the one backend with real IPC — is
shared module-wide so its startup cost is paid once.
"""

import pytest

from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.workloads.synthetic import all_synthetic_programs

from helpers import function_tasks

# Keep the big size classes to their smallest function counts: coverage
# of every class without minutes of compile time.
_MAX_FUNCTIONS = {"tiny": 8, "small": 8, "medium": 2, "large": 1, "huge": 1}

MATRIX = [
    pytest.param(size, n, source, id=f"{size}x{n}")
    for size, n, source in all_synthetic_programs()
    if n <= _MAX_FUNCTIONS[size]
]


@pytest.fixture(scope="module")
def warm_pool():
    from repro.parallel.warm_pool import WarmPoolBackend

    backend = WarmPoolBackend(max_workers=2)
    yield backend
    backend.shutdown()


@pytest.fixture(scope="module")
def sequential_digests():
    cache = {}

    def digest_of(source: str) -> str:
        if source not in cache:
            cache[source] = SequentialCompiler().compile(source).digest
        return cache[source]

    return digest_of


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("size,n,source", MATRIX)
    def test_parallel_matches_sequential(
        self, size, n, source, sequential_digests
    ):
        parallel = ParallelCompiler(backend=SerialBackend()).compile(source)
        assert parallel.digest == sequential_digests(source)

    @pytest.mark.parametrize("size,n,source", MATRIX)
    def test_warm_pool_matches_sequential(
        self, size, n, source, warm_pool, sequential_digests
    ):
        result = ParallelCompiler(backend=warm_pool).compile(source)
        assert result.digest == sequential_digests(source)

    def test_every_size_class_is_covered(self):
        covered = {size for size, _, _ in all_synthetic_programs()}
        tested = {p.values[0] for p in MATRIX}
        assert tested == covered


class TestOneDispatchSurface:
    """Every backend of the matrix is reached through the one call site,
    ``stream_task_results``, and so is the service's per-job backend."""

    SOURCE = next(
        source for size, n, source in all_synthetic_programs()
        if (size, n) == ("tiny", 4)
    )

    def _tasks(self):
        return list(function_tasks(self.SOURCE, "<t>").values())

    @pytest.mark.parametrize("which", ["serial", "warm"])
    def test_one_result_per_function_task(self, which, warm_pool):
        from repro.parallel.backend import stream_task_results

        backend = SerialBackend() if which == "serial" else warm_pool
        tasks = self._tasks()
        results = list(stream_task_results(backend, tasks))
        assert sorted((r.section_name, r.function_name) for r in results) == (
            sorted((t.section_name, t.function_name) for t in tasks)
        )
        assert list(stream_task_results(backend, [])) == []

    @pytest.mark.parametrize("which", ["serial", "warm"])
    def test_service_job_reports_workers_used(
        self, which, warm_pool, sequential_digests
    ):
        from repro.service import CompileService

        backend = SerialBackend() if which == "serial" else warm_pool
        with CompileService(backend) as service:
            job = service.wait(service.submit(self.SOURCE), timeout=120.0)
        assert job.state == "done", job.error
        assert job.digest == sequential_digests(self.SOURCE)
        # four cache-miss tasks over the shared pool's workers
        assert job.report["profile"]["workers_used"] == min(
            backend.worker_count, 4
        )
