"""Backend/cache ownership and the one backend seam in the master."""

import ast
import inspect
import pathlib

import pytest

import repro
import repro.parallel
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.backend import stream_task_results
from repro.parallel.local import SerialBackend

SOURCE = """
module own_demo
section s (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
end
end
"""


class ShutdownProbe(SerialBackend):
    def __init__(self):
        super().__init__()
        self.shutdowns = 0

    def shutdown(self):
        self.shutdowns += 1


class TestOwnership:
    def test_borrowed_backend_survives_close(self):
        """A compiler never owns its backend: it has nothing to close,
        and compiling never shuts the backend down."""
        backend = ShutdownProbe()
        ParallelCompiler(backend=backend).compile(SOURCE)
        assert backend.shutdowns == 0
        for name in ("close", "__enter__", "__exit__"):
            assert not hasattr(ParallelCompiler, name)


class TestDispatchSeam:
    def test_custom_dispatch_replaces_backend(self):
        """The backend object is the one seam: it sees every cache-miss
        task and its results flow back into a bit-identical module."""
        seen = []
        inner = SerialBackend()

        class Recording:
            worker_count = effective_worker_count = 1

            def run_tasks_streaming(self, tasks):
                seen.extend(tasks)
                return stream_task_results(inner, tasks)

        expected = SequentialCompiler().compile(SOURCE).digest
        result = ParallelCompiler(backend=Recording()).compile(SOURCE)
        assert result.digest == expected
        assert [t.function_name for t in seen] == ["main"]

    def test_dispatch_profile_reports_dispatch_workers(self):
        class WideBackend:
            worker_count = 9
            effective_worker_count = 7

            def run_tasks_streaming(self, tasks):
                return stream_task_results(SerialBackend(), tasks)

        result = ParallelCompiler(backend=WideBackend()).compile(SOURCE)
        assert result.profile.workers_used == 7


class TestOneTaskSurface:
    """One way to hand tasks to a backend, checked structurally: an AST
    walk over ``src/`` finds every class with the streaming surface and
    every public method on one that takes ``tasks`` — so a barrier or
    partial surface, or a resurrected cold pool, fails here whatever it
    is called."""

    BACKENDS = {
        "SerialBackend", "WarmPoolBackend", "SupervisedBackend",
        "_JobBackend",
    }

    @staticmethod
    def task_surfaces():
        """class name -> its public methods whose first parameter is
        ``tasks``, for every non-protocol class that streams results."""
        surfaces = {}
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ClassDef) or any(
                    getattr(base, "id", "") == "Protocol" for base in node.bases
                ):
                    continue
                methods = [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
                if not any(m.name == "run_tasks_streaming" for m in methods):
                    continue
                surfaces[node.name] = {
                    m.name for m in methods
                    if not m.name.startswith("_")
                    and len(m.args.args) > 1
                    and m.args.args[1].arg == "tasks"
                }
        return surfaces

    def test_dispatch_argument_is_gone(self):
        with pytest.raises(TypeError):
            ParallelCompiler(dispatch=lambda tasks: [])
        parameters = inspect.signature(ParallelCompiler.__init__).parameters
        assert list(parameters)[1:] == [
            "backend", "options", "cache", "parse_cache", "link_cache",
        ]

    def test_cold_pool_class_is_gone(self):
        assert set(self.task_surfaces()) == self.BACKENDS
        assert self.BACKENDS - {"_JobBackend"} <= set(repro.parallel.__all__)

    def test_the_fleet_backend_is_the_supervisor(self):
        """One recovery policy: ``RemoteBackend`` adds no surface and no
        knob to ``SupervisedBackend``, and the hub it supervises cannot
        be told to retry, time out or run a task — it streams events.
        The fault suite's farm is read the same way."""
        from repro.fabric import FabricHub, RemoteBackend
        from repro.parallel import ChaosBackend, SupervisedBackend

        assert issubclass(RemoteBackend, SupervisedBackend)
        assert set(vars(RemoteBackend)) <= {
            "__module__", "__doc__", "__init__",
        }
        assert list(inspect.signature(RemoteBackend.__init__).parameters) == [
            "self", "hub",
        ]
        assert list(inspect.signature(FabricHub.__init__).parameters) == [
            "self", "host", "port", "fallback", "lease_ttl",
            "heartbeat_interval",
        ]
        for reporter in (FabricHub, ChaosBackend):
            assert not hasattr(reporter, "run_tasks_streaming")
            assert hasattr(reporter, "run_tasks_events")

    def test_no_class_defines_a_barrier_or_partial_surface(self):
        surfaces = self.task_surfaces()
        assert all(
            methods == {"run_tasks_streaming"} for methods in surfaces.values()
        ), surfaces
