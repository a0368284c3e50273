"""The persistent function-level artifact cache (incremental compilation).

The load-bearing property is the differential one: compile a module
cold, mutate exactly one function, recompile warm — the download digest
must be bit-identical to a from-scratch compile of the mutated source,
and exactly one function may pay phase-2/3 work (one cache miss).
"""

import dataclasses
import pickle

import pytest

from repro import CompileOptions
from repro.cache import ArtifactCache, function_fingerprint, module_fingerprints
from repro.cache.store import default_cache_dir
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.parser import parse_text
from repro.parallel.local import SerialBackend

SOURCE = """
module incr
section a (cells 0..0)
  function a1(x: float) : float begin return x + 1.0; end
  function a2(x: float) : float begin return x * 2.0; end
end
section b (cells 1..1)
  function b1(x: float) : float begin return x - 3.0; end
  function b2(x: float) : float begin return x / 4.0; end
end
end
"""

#: Same module with one function body edited (an extra statement, so its
#: normalized AST — not just a literal — changes).
MUTATED = SOURCE.replace(
    "function a2(x: float) : float begin return x * 2.0; end",
    "function a2(x: float) : float begin x := x + 1.0; return x * 2.0; end",
)


def parse(source):
    sink = DiagnosticSink()
    module = parse_text(source, sink)
    assert not sink.has_errors
    return module


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


def cached_compiler(cache, **kwargs):
    return ParallelCompiler(backend=SerialBackend(), cache=cache, **kwargs)


class RecordingBackend(SerialBackend):
    """Runs in-process and keeps the key of every task it was handed:
    the functions the cache did not serve."""

    def __init__(self):
        self.ran = []

    def run_tasks_streaming(self, tasks):
        self.ran.extend(task.key for task in tasks)
        return super().run_tasks_streaming(tasks)


def artifact_counts(result):
    """A compile's own ``artifact_cache.*`` counts."""
    return {
        name: count for name, count in result.profile.counts.items()
        if name.startswith("artifact_cache.")
    }


def another_value(options, name):
    """A valid value for field ``name`` other than the one it has."""
    value = getattr(options, name)
    if isinstance(value, bool):
        candidates = [not value]
    else:
        candidates = [value + 1, value - 1]
    for candidate in candidates:
        try:
            if candidate != value:
                dataclasses.replace(options, **{name: candidate})
                return candidate
        except ValueError:
            continue
    raise AssertionError(f"no other valid value for {name}")


class TestFingerprint:
    def test_editing_one_function_changes_only_its_fingerprint(self):
        before = module_fingerprints(parse(SOURCE), CompileOptions())
        after = module_fingerprints(parse(MUTATED), CompileOptions())
        changed = [key for key in before if before[key] != after[key]]
        assert changed == [("a", "a2")]

    def test_whitespace_only_shifts_do_not_invalidate_siblings(self):
        # A blank line above section b shifts every later span; the
        # normalized digest must not notice (function line *counts* are
        # unchanged).
        shifted = SOURCE.replace(
            "section b", "\nsection b"
        )
        before = module_fingerprints(parse(SOURCE), CompileOptions())
        after = module_fingerprints(parse(shifted), CompileOptions())
        assert before == after

    def test_opt_level_cells_and_granularity_are_part_of_the_key(self):
        module = parse(SOURCE)
        section = module.sections[0]
        fn = section.functions[0]
        options = CompileOptions()
        base = function_fingerprint(section, fn, options)
        assert function_fingerprint(section, fn, CompileOptions()) == base
        assert function_fingerprint(
            section, fn, options, salt="other-compiler"
        ) != base
        # Every option is part of the key — whatever options there are:
        # a field added tomorrow is flipped here the day it is added.
        names = [field.name for field in dataclasses.fields(CompileOptions)]
        assert set(names) >= {
            "opt_level", "cell_count", "unroll_budget", "ii_budget"
        }
        assert "granularity" not in names  # one unit of dispatch: no option
        flipped = {
            name: function_fingerprint(
                section, fn, dataclasses.replace(options, **{name: other})
            )
            for name in names
            for other in [another_value(options, name)]
        }
        assert base not in flipped.values()
        assert len(set(flipped.values())) == len(names)
        for name in names:  # ... and of every function's key
            changed = module_fingerprints(
                module,
                dataclasses.replace(
                    options, **{name: another_value(options, name)}
                ),
            )
            unchanged = module_fingerprints(module, options)
            assert all(changed[key] != unchanged[key] for key in unchanged)

    def test_sibling_signature_change_invalidates_the_section(self):
        # Lowering resolves calls against sibling signatures, so changing
        # a1's return type must invalidate a2 as well.
        retyped = SOURCE.replace(
            "function a1(x: float) : float begin return x + 1.0; end",
            "function a1(x: float) : int begin return 1; end",
        )
        before = module_fingerprints(parse(SOURCE), CompileOptions())
        after = module_fingerprints(parse(retyped), CompileOptions())
        assert before[("a", "a2")] != after[("a", "a2")]
        # ...but the other section is untouched.
        assert before[("b", "b1")] == after[("b", "b1")]
        assert before[("b", "b2")] == after[("b", "b2")]


class TestDifferential:
    def test_one_function_edit_pays_for_exactly_one_function(self, cache):
        backend = RecordingBackend()
        compiler = ParallelCompiler(backend=backend, cache=cache)
        cold = compiler.compile(SOURCE)
        assert artifact_counts(cold) == {"artifact_cache.misses": 4}
        assert cold.digest == SequentialCompiler().compile(SOURCE).digest

        warm = compiler.compile(SOURCE)
        assert artifact_counts(warm) == {"artifact_cache.hits": 4}
        assert warm.digest == cold.digest

        backend.ran.clear()
        mutated = compiler.compile(MUTATED)
        from_scratch = SequentialCompiler().compile(MUTATED)
        assert mutated.digest == from_scratch.digest
        assert artifact_counts(mutated) == {
            "artifact_cache.hits": 3, "artifact_cache.misses": 1,
        }
        assert backend.ran == [("a", "a2")]

    def test_cache_shared_across_compiler_instances(self, cache):
        cached_compiler(cache).compile(SOURCE)
        warm = cached_compiler(cache).compile(SOURCE)
        assert artifact_counts(warm) == {"artifact_cache.hits": 4}

    def test_report_and_diagnostics_survive_the_cache(self, cache):
        compiler = cached_compiler(cache)
        cold = compiler.compile(SOURCE)
        warm = compiler.compile(SOURCE)
        cold_reports = {
            f.key: (f.source_lines, f.work_units, f.bundles)
            for f in cold.profile.functions
        }
        warm_reports = {
            f.key: (f.source_lines, f.work_units, f.bundles)
            for f in warm.profile.functions
        }
        assert cold_reports == warm_reports
        assert warm.diagnostics_text == cold.diagnostics_text
        # A fully cached compile still reports honest totals, and the
        # very reports a fresh compile makes.
        assert warm.profile.total_work() == cold.profile.total_work()
        assert warm.profile.functions == cold.profile.functions

    def test_no_cache_means_no_counters(self):
        result = ParallelCompiler(backend=SerialBackend()).compile(SOURCE)
        assert artifact_counts(result) == {}


class TestStoreRobustness:
    def test_corrupt_entry_is_discarded_and_recompiled(self, cache):
        compiler = cached_compiler(cache)
        cold = compiler.compile(SOURCE)
        # Scribble over one entry on disk.
        entries = [path for _, _, path in cache._entries()]
        entries[0].write_bytes(b"not a pickle")
        warm = compiler.compile(SOURCE)
        assert warm.digest == cold.digest
        assert cache.counts["corrupt"] == 1
        assert artifact_counts(warm) == {
            "artifact_cache.hits": 3, "artifact_cache.misses": 1,
        }
        # The corrupt file was replaced by a fresh artifact.
        assert cache.entry_count() == 4
        third = compiler.compile(SOURCE)
        assert artifact_counts(third) == {"artifact_cache.hits": 4}

    def test_wrong_type_entry_counts_as_corrupt(self, cache):
        fingerprint = "ab" + "0" * 62
        path = cache._entry_path(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(fingerprint) is None
        assert cache.counts["corrupt"] == 1
        assert not path.exists()

    def test_eviction_bounds_the_store(self, tmp_path):
        small = ArtifactCache(tmp_path / "small", max_bytes=2000)
        compiler = cached_compiler(small)
        cold = compiler.compile(SOURCE)
        assert small.counts["evictions"] > 0
        assert small.size_bytes() <= 2000
        # Evicted functions just recompile; output never changes.
        again = compiler.compile(SOURCE)
        assert again.digest == cold.digest
        assert sum(artifact_counts(again).values()) == 4

    def test_put_is_atomic_no_temp_droppings(self, cache):
        cached_compiler(cache).compile(SOURCE)
        leftovers = [
            p
            for _, _, path in cache._entries()
            for p in path.parent.iterdir()
            if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_clear_empties_the_store(self, cache):
        cached_compiler(cache).compile(SOURCE)
        assert cache.clear() == 4
        assert cache.entry_count() == 0

    def test_rejects_nonpositive_size_bound(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path, max_bytes=0)

    def test_default_dir_respects_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("WARPCC_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        monkeypatch.delenv("WARPCC_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "warpcc"


class TestWriteBackUnderFailure:
    """Satellite of the supervision PR: a retried-then-successful task
    is written back to the store like any first-try success, while a
    poisoned task must NEVER be persisted — an in-process rescue (or a
    stub) cannot masquerade as a healthy farm artifact next build."""

    def test_retried_then_successful_task_is_written_back(self, cache):
        from repro.parallel.fault_schedule import FaultSchedule
        from repro.parallel.fault_tolerance import ChaosBackend
        from repro.parallel.supervisor import SupervisedBackend

        # Every task fails exactly once, then succeeds on retry.
        flaky = ChaosBackend(
            SerialBackend(), FaultSchedule(1, {"crash": 1.0}, {"crash": 1})
        )
        backend = SupervisedBackend(flaky, max_attempts=3, hedge_after=None)
        backend.health.quarantine_after = 100
        cold = ParallelCompiler(backend=backend, cache=cache).compile(SOURCE)
        assert flaky.schedule.fired["crash"] == 4  # all four were retried
        assert not cold.profile.poisoned_functions()
        assert artifact_counts(cold) == {"artifact_cache.misses": 4}
        assert cache.entry_count() == 4

        warm = cached_compiler(cache).compile(SOURCE)
        assert artifact_counts(warm) == {"artifact_cache.hits": 4}
        assert warm.digest == cold.digest

    def test_poisoned_task_is_never_written_back(self, cache):
        from repro.parallel.fault_schedule import FaultSchedule
        from repro.parallel.fault_tolerance import ChaosBackend
        from repro.parallel.supervisor import SupervisedBackend

        chaos = ChaosBackend(
            SerialBackend(), FaultSchedule(), poison=(("a", "a2"),)
        )
        backend = SupervisedBackend(
            chaos, max_attempts=5, poison_threshold=3, hedge_after=None
        )
        cold = ParallelCompiler(backend=backend, cache=cache).compile(SOURCE)
        assert [f.name for f in cold.profile.poisoned_functions()] == ["a2"]
        # three healthy artifacts stored; the poisoned one withheld
        assert cache.entry_count() == 3

        # Differential: a later clean compile re-pays exactly the
        # poisoned function and nothing else.
        backend = RecordingBackend()
        warm = ParallelCompiler(backend=backend, cache=cache).compile(SOURCE)
        assert artifact_counts(warm) == {
            "artifact_cache.hits": 3, "artifact_cache.misses": 1,
        }
        assert backend.ran == [("a", "a2")]
        assert warm.digest == SequentialCompiler().compile(SOURCE).digest


class CompilesAnotherFirst(SerialBackend):
    """Before it runs its own tasks, compiles ``source`` over ``cache``
    synchronously — another job of a service sharing the store."""

    def __init__(self, cache, source):
        self.cache, self.source = cache, source

    def run_tasks_streaming(self, tasks):
        cached_compiler(self.cache).compile(self.source)
        return super().run_tasks_streaming(tasks)


class TestCountsAreTheCompilesOwn:
    def test_another_compile_on_the_store_leaves_no_count_behind(self, cache):
        """A counts its own hits and misses and nothing of B's, though B
        read a corrupt entry of the store they share while A ran; the
        corruption is the store's count."""
        cached_compiler(cache).compile(SOURCE)
        b_a2 = module_fingerprints(parse(SOURCE), CompileOptions())[("a", "a2")]
        cache._entry_path(b_a2).write_bytes(b"not an entry")

        a = ParallelCompiler(
            backend=CompilesAnotherFirst(cache, SOURCE), cache=cache
        ).compile(MUTATED)

        assert a.digest == SequentialCompiler().compile(MUTATED).digest
        assert artifact_counts(a) == {
            "artifact_cache.hits": 3, "artifact_cache.misses": 1,
        }
        assert not [
            name for name in a.profile.counts
            if "corrupt" in name or "evictions" in name
        ]
        assert cache.counts["corrupt"] == 1


class TestConcurrentSharing:
    def test_two_caches_sharing_a_directory(self, tmp_path):
        # Two compiler processes sharing one cache dir is the compile-
        # server scenario; model it with two independent cache handles.
        first = ArtifactCache(tmp_path / "shared")
        second = ArtifactCache(tmp_path / "shared")
        cached_compiler(first).compile(SOURCE)
        warm = cached_compiler(second).compile(SOURCE)
        assert artifact_counts(warm) == {"artifact_cache.hits": 4}
        assert second.counts["hits"] == 4
