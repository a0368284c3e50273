"""Incremental phase 4: bit-identity with the sequential back end, and
the link/module cache's invalidation contract.

The headline property mirrors the paper's own correctness requirement
(recombined parallel output must be bit-identical to sequential, §3.2)
at the back end: over 200 generator seeds across size classes, the
download module produced by :class:`Phase4Runner` — cold and warm
(every section from the section tier) — has the same
:func:`module_digest` as the sequential
:func:`phase4_link_and_download`.  Error paths raise the identical
canonical diagnostics via wholesale fallback, a 1-function edit on a
warm link cache re-links exactly one section, and only a clean compile
leaves a module record behind.
"""

import pickle
import tempfile
from collections import Counter

import pytest

from repro.asmlink.download import module_digest
from repro.asmlink.linker import PayloadCorruption
from repro.cache import ArtifactCache, LinkCache
from repro.driver.function_master import (
    FunctionTask,
    FunctionTaskResult,
    run_function_master,
)
from repro.driver.master import ParallelCompiler
from repro.driver.phases import (
    Phase4Runner,
    Phase4Stats,
    phase1_parse_and_check,
    phase4_link_and_download,
)
from repro.driver.section_master import combine_section_results
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.lang.diagnostics import CompileError
from repro.machine.warp_array import WarpArrayModel
from repro.parallel.local import SerialBackend

from helpers import function_tasks


def _combined_for(source, array=None):
    """Phases 1-3 once, recombined per section — phase 4's input."""
    parsed = phase1_parse_and_check(source)
    tasks = function_tasks(source)
    combined = {}
    for section in parsed.module.sections:
        results = [
            run_function_master(tasks[(section.name, function.name)])
            for function in section.functions
        ]
        combined[section.name] = combine_section_results(section, results)
    return parsed, combined


def run_phase4(
    parsed, combined, array, diagnostics_text="", link_cache=None, stats=None,
    counts=None,
):
    """Drive the runner the way the master does once every section is
    combined: announce each section, then finish; its lookups are added
    to ``counts``."""
    runner = Phase4Runner(
        parsed, array, diagnostics_text, link_cache=link_cache, stats=stats
    )
    for section in parsed.module.sections:
        runner.section_ready(combined[section.name])
    finished = runner.finish(combined)
    if counts is not None:
        counts.update(runner.counts)
    return finished


def _results(combined):
    return {name: sec.results for name, sec in combined.items()}


ARRAY = WarpArrayModel(cell_count=10)


# ---------------------------------------------------------------------------
# 200-seed matrix: sequential vs parallel vs cache-warm
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", range(4))
def test_parallel_phase4_matches_sequential_across_seeds(block):
    """200 consecutive seeds (50 per block): the parallel back end —
    plain, cold through the link cache, and warm — produces a module
    digest bit-identical to the sequential tail."""
    size_class = ("tiny", "small", "medium", "small")[block]
    config = config_for_size_class(size_class)
    with tempfile.TemporaryDirectory() as tmp:
        cache = LinkCache(tmp)
        for seed in range(block * 50, block * 50 + 50):
            source = generate_program(seed, config).source
            parsed, combined = _combined_for(source)
            seq_module, seq_aw, seq_lw = phase4_link_and_download(
                parsed, _results(combined), ARRAY
            )
            want = module_digest(seq_module)
            # Plain parallel, no cache.
            stats = Phase4Stats()
            par_module, par_aw, par_lw = run_phase4(
                parsed, combined, ARRAY, stats=stats
            )
            assert module_digest(par_module) == want, (
                f"{size_class} seed {seed}"
            )
            assert stats.mode == "parallel", (
                f"{size_class} seed {seed} fell back: {stats.fallback_reason}"
            )
            assert (par_aw, par_lw) == (seq_aw, seq_lw)
            # Cold through the cache: every section is a miss.
            cold = Counter()
            cold_module, _, _ = run_phase4(
                parsed, combined, ARRAY, link_cache=cache, counts=cold
            )
            assert module_digest(cold_module) == want
            assert cold == {"link_cache.misses": len(parsed.module.sections)}
            # Warm: every section's program comes from the section tier.
            warm, warm_counts = Phase4Stats(), Counter()
            warm_module, _, _ = run_phase4(
                parsed, combined, ARRAY, link_cache=cache, stats=warm,
                counts=warm_counts,
            )
            assert module_digest(warm_module) == want
            assert warm.mode == "parallel"
            assert warm_counts == {
                "link_cache.hits": len(parsed.module.sections)
            }


# ---------------------------------------------------------------------------
# Hand-built multi-section module for the incremental tests
# ---------------------------------------------------------------------------

SECTIONS = 3
SOURCE = """
module m
  section a (cells 0..2)
    function a1(): int begin return 11; end
    function a2(): int begin return 12; end
  end
  section b (cells 3..5)
    function b1(): int begin return 21; end
    function b2(): int begin return 22; end
  end
  section c (cells 6..8)
    function c1(): int begin return 31; end
  end
end
"""
EDITED = SOURCE.replace("return 12;", "return 1200;")


def test_link_cache_cold_then_warm_section_tier():
    """The section tier alone serves every section on the second run,
    also for a runner nobody announced a section to."""
    parsed, combined = _combined_for(SOURCE)
    want = module_digest(
        phase4_link_and_download(parsed, _results(combined), ARRAY)[0]
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = LinkCache(tmp)
        runner = Phase4Runner(parsed, ARRAY, link_cache=cache)
        module, _, _ = runner.finish(combined)  # no section announced
        assert module_digest(module) == want
        assert runner.counts == {"link_cache.misses": SECTIONS}
        warm = Phase4Stats()
        runner = Phase4Runner(
            parsed, ARRAY, link_cache=cache, stats=warm
        )
        module, _, _ = runner.finish(combined)
        assert module_digest(module) == want
        assert runner.counts == {"link_cache.hits": SECTIONS}
        assert warm.mode == "parallel"


def test_one_function_edit_relinks_exactly_one_section():
    """The acceptance criterion: editing one function on a warm cache
    misses exactly its own section and hits every other."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = LinkCache(tmp)
        parsed, combined = _combined_for(SOURCE)
        run_phase4(parsed, combined, ARRAY, link_cache=cache)
        parsed2, combined2 = _combined_for(EDITED)
        stats, counts = Phase4Stats(), Counter()
        module, _, _ = run_phase4(
            parsed2, combined2, ARRAY, link_cache=cache, stats=stats,
            counts=counts,
        )
        assert stats.mode == "parallel"
        assert counts == {
            "link_cache.hits": SECTIONS - 1, "link_cache.misses": 1,
        }
        want = module_digest(
            phase4_link_and_download(parsed2, _results(combined2), ARRAY)[0]
        )
        assert module_digest(module) == want


def test_geometry_change_invalidates_section_entries():
    """Same source, different cell data-memory size: every key changes,
    so nothing is served stale."""
    parsed, combined = _combined_for(SOURCE)
    with tempfile.TemporaryDirectory() as tmp:
        cache = LinkCache(tmp)
        run_phase4(parsed, combined, ARRAY, link_cache=cache)
        small = WarpArrayModel(cell_count=10)
        small.cell.data_memory_words //= 2
        counts = Counter()
        module, _, _ = run_phase4(
            parsed, combined, small, link_cache=cache, counts=counts
        )
        assert counts == {"link_cache.misses": SECTIONS}
        want = module_digest(
            phase4_link_and_download(parsed, _results(combined), small)[0]
        )
        assert module_digest(module) == want


def test_diagnostics_text_keys_the_module_tier(tmp_path):
    """The module embeds its diagnostics, which render the filename: a
    record is keyed by the filename too, so another name misses it (and
    links nothing: every section's program is the same)."""
    compiler = ParallelCompiler(
        backend=SerialBackend(),
        cache=ArtifactCache(tmp_path / "c"),
        link_cache=LinkCache(tmp_path / "c"),
    )
    compiler.compile(SOURCE, "a.w2")
    assert compiler.compile(SOURCE, "a.w2").profile.phase4_mode == "cached"
    other = compiler.compile(SOURCE, "b.w2")
    assert other.profile.phase4_mode == "parallel"
    assert other.profile.counts["link_cache.hits"] == SECTIONS
    assert compiler.link_cache.modules.entry_count() == 2


def test_stripped_assembly_still_links_identically():
    """Results stripped to what crosses a boundary — their fields and
    their bytes — link to the same bits: the link splices the code the
    function masters assembled."""
    parsed, combined = _combined_for(SOURCE)
    want = module_digest(
        phase4_link_and_download(parsed, _results(combined), ARRAY)[0]
    )
    for section in parsed.module.sections:
        stripped = pickle.loads(pickle.dumps(combined[section.name].results))
        assert all(
            set(vars(result)) == set(FunctionTaskResult.__dataclass_fields__)
            for result in stripped
        )
        combined[section.name] = combine_section_results(section, stripped)
    stats = Phase4Stats()
    module, _, _ = run_phase4(
        parsed, combined, ARRAY, stats=stats
    )
    assert stats.mode == "parallel"
    assert module_digest(module) == want


def test_mismatched_assembly_payload_is_reassembled():
    """No assembly is shipped any more, so none can mismatch; what can
    is a result's code and its payload digest (corruption the
    supervisor never saw).  Such a result is not linked: the linker
    checks the seal, in the runner and again in the fallback."""
    parsed, combined = _combined_for(SOURCE)
    section = parsed.module.section_named("a")
    results = pickle.loads(pickle.dumps(combined["a"].results))
    results[1].code = results[1].code[:40] + b"\xff" + results[1].code[41:]
    combined["a"] = combine_section_results(section, results)
    stats = Phase4Stats()
    with pytest.raises(PayloadCorruption, match=r"a\.a2"):
        run_phase4(parsed, combined, ARRAY, stats=stats)
    assert stats.mode == "fallback"
    assert "PayloadCorruption" in stats.fallback_reason


# ---------------------------------------------------------------------------
# Error paths: identical diagnostics through fallback
# ---------------------------------------------------------------------------


def test_bad_cell_range_raises_identical_error():
    small = WarpArrayModel(cell_count=3)
    parsed, combined = _combined_for(SOURCE)
    with pytest.raises(ValueError) as seq_err:
        phase4_link_and_download(parsed, _results(combined), small)
    stats = Phase4Stats()
    with pytest.raises(ValueError) as par_err:
        run_phase4(parsed, combined, small, stats=stats)
    assert str(par_err.value) == str(seq_err.value)
    assert stats.mode == "fallback"
    assert "range validation" in stats.fallback_reason


def test_poisoned_section_falls_back_to_sequential():
    parsed, combined = _combined_for(SOURCE)
    combined["b"].reports[0].poisoned = 1
    stats = Phase4Stats()
    module, _, _ = run_phase4(
        parsed, combined, ARRAY, stats=stats
    )
    assert stats.mode == "fallback"
    assert "poisoned" in stats.fallback_reason
    want = module_digest(
        phase4_link_and_download(parsed, _results(combined), ARRAY)[0]
    )
    assert module_digest(module) == want


def test_poisoned_section_never_served_from_module_cache(tmp_path):
    """A compile with a poisoned task writes no record, so nothing the
    isolation produced is ever served as the module."""
    from repro.parallel.fault_schedule import FaultSchedule
    from repro.parallel.fault_tolerance import ChaosBackend
    from repro.parallel.supervisor import SupervisedBackend

    chaos = ChaosBackend(
        SerialBackend(), FaultSchedule(), poison=(("a", "a2"),)
    )
    backend = SupervisedBackend(
        chaos, max_attempts=5, poison_threshold=3, hedge_after=None
    )
    compiler = ParallelCompiler(
        backend=backend, link_cache=LinkCache(tmp_path)
    )
    result = compiler.compile(SOURCE)
    assert [f.name for f in result.profile.poisoned_functions()] == ["a2"]
    assert compiler.last_phase4_stats.mode == "fallback"
    assert compiler.link_cache.modules.entry_count() == 0
    assert result.digest == SequentialCompiler().compile(SOURCE).digest


def test_a_phase4_fallback_leaves_no_record(tmp_path, monkeypatch):
    """A link that fails in the runner sends phase 4 to the sequential
    tail; such a compile is not clean and writes no record."""
    from repro.driver import phases

    link_section = phases.link_section
    calls = []

    def first_link_fails(*args):
        calls.append(args[0])
        if len(calls) == 1:
            raise RuntimeError("link failed")
        return link_section(*args)

    monkeypatch.setattr(phases, "link_section", first_link_fails)
    compiler = ParallelCompiler(
        backend=SerialBackend(), link_cache=LinkCache(tmp_path)
    )
    result = compiler.compile(SOURCE)
    assert compiler.last_phase4_stats.mode == "fallback"
    assert compiler.link_cache.modules.entry_count() == 0
    assert result.digest == SequentialCompiler().compile(SOURCE).digest
    monkeypatch.setattr(phases, "link_section", link_section)
    compiler.compile(SOURCE)  # clean: now it leaves one
    assert compiler.link_cache.modules.entry_count() == 1


def test_duplicate_section_delivery_taints():
    parsed, combined = _combined_for(SOURCE)
    stats = Phase4Stats()
    runner = Phase4Runner(parsed, ARRAY, stats=stats)
    runner.section_ready(combined["a"])
    runner.section_ready(combined["a"])  # double delivery
    module, _, _ = runner.finish(combined)
    assert stats.mode == "fallback"
    assert "duplicate" in stats.fallback_reason
    want = module_digest(
        phase4_link_and_download(parsed, _results(combined), ARRAY)[0]
    )
    assert module_digest(module) == want


def test_unknown_section_taints():
    parsed, combined = _combined_for(SOURCE)
    stray = _combined_for(SOURCE)[1]["a"]
    stray.section_name = "ghost"
    runner = Phase4Runner(parsed, ARRAY)
    runner.section_ready(stray)
    assert runner._taint_reason is not None


ERROR_MODULES = [
    # sema: undeclared variable
    "module m section s (cells 0..1) function f() begin x := 1; end end end",
    # parse: missing module end
    "module m section s (cells 0..1) function f() begin return; end",
    # sema: recursion
    "module m section s (cells 0..1) function f(): int begin "
    "return f(); end end end",
]


@pytest.mark.parametrize("source", ERROR_MODULES)
def test_error_modules_identical_diagnostics_end_to_end(source):
    """Front-end errors never reach phase 4, but the parallel compiler
    must still render the canonical diagnostics."""

    def _render(error):
        return "\n".join(d.render() for d in error.diagnostics)

    with pytest.raises(CompileError) as seq_err:
        SequentialCompiler().compile(source)
    compiler = ParallelCompiler(backend=SerialBackend())
    with pytest.raises(CompileError) as par_err:
        compiler.compile(source)
    assert _render(par_err.value) == _render(seq_err.value)


def test_runner_fills_work_model_on_every_path():
    """The (assembly work, link work) pair is the sequential tail's on
    the cold, section-warm and fallback paths alike, and a record
    serves it as the compile that wrote it computed it."""
    parsed, combined = _combined_for(SOURCE)
    _, want_aw, want_lw = phase4_link_and_download(
        parsed, _results(combined), ARRAY
    )
    cache = LinkCache(tempfile.mkdtemp())
    modes = []
    for link_cache in (None, cache, cache):
        stats = Phase4Stats()
        _, aw, lw = run_phase4(
            parsed, combined, ARRAY, link_cache=link_cache, stats=stats
        )
        assert (aw, lw) == (want_aw, want_lw)
        modes.append(stats.mode)
    combined["b"].reports[0].poisoned = 1
    stats = Phase4Stats()
    _, aw, lw = run_phase4(parsed, combined, ARRAY, stats=stats)
    assert (aw, lw) == (want_aw, want_lw)
    assert modes + [stats.mode] == [
        "parallel", "parallel", "parallel", "fallback",
    ]
    compiler = ParallelCompiler(
        backend=SerialBackend(), link_cache=LinkCache(tempfile.mkdtemp())
    )
    cold = compiler.compile(SOURCE)
    warm = compiler.compile(SOURCE)
    assert warm.profile.phase4_mode == "cached"
    for result in (cold, warm):
        assert (result.profile.assembly_work, result.profile.link_work) == (
            want_aw, want_lw,
        )


# ---------------------------------------------------------------------------
# End-to-end through the compiler driver and the CLI
# ---------------------------------------------------------------------------


def test_compiler_with_parallel_back_end_is_bit_identical():
    seq = SequentialCompiler().compile(SOURCE)
    with tempfile.TemporaryDirectory() as tmp:
        compiler = ParallelCompiler(
            backend=SerialBackend(),
            cache=ArtifactCache(tmp + "/artifacts"),
            link_cache=LinkCache(tmp + "/link"),
        )
        cold = compiler.compile(SOURCE)
        assert cold.digest == seq.digest
        assert cold.profile.phase4_mode == "parallel"
        assert cold.profile.counts["link_cache.misses"] == SECTIONS
        assert "link_cache.hits" not in cold.profile.counts
        # No edit: the module record answers.
        warm = compiler.compile(SOURCE)
        assert warm.digest == seq.digest
        assert warm.profile.phase4_mode == "cached"
        # A 1-function edit re-links exactly one section.
        edit = compiler.compile(EDITED)
        assert edit.digest == SequentialCompiler().compile(EDITED).digest
        assert edit.profile.phase4_mode == "parallel"
        assert edit.profile.counts["link_cache.misses"] == 1
        assert edit.profile.counts["link_cache.hits"] == SECTIONS - 1
        assert "phase4_mode" in warm.profile.to_dict()


@pytest.mark.parametrize("with_caches", [False, True])
def test_compile_starts_no_thread(with_caches, monkeypatch):
    """Phases 1 and 4 run in the master: a compile over the serial
    backend starts no thread, with or without the three caches."""
    import threading

    from repro.cache import ParseCache

    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    before = threading.enumerate()
    with tempfile.TemporaryDirectory() as tmp:
        caches = (
            dict(
                cache=ArtifactCache(tmp),
                parse_cache=ParseCache(tmp),
                link_cache=LinkCache(tmp),
            )
            if with_caches
            else {}
        )
        compiler = ParallelCompiler(backend=SerialBackend(), **caches)
        for source in (SOURCE, SOURCE, EDITED):  # cold, warm, one edit
            compiler.compile(source)
    assert started == []
    assert threading.enumerate() == before


def test_unsupervised_corrupt_assembly_still_links_identically():
    """What is linked is what was validated, with no supervisor in
    front to re-run it too: a result corrupted after it was sealed
    fails the compile — it links neither identically nor differently."""
    from dataclasses import replace

    class Corrupting(SerialBackend):
        """Flips a byte of each result's code after it was sealed, as
        the fault suite's ``corrupt`` does; the copy has no graph."""

        corrupted = 0

        def run_tasks_streaming(self, tasks):
            for result in super().run_tasks_streaming(tasks):
                code = bytearray(result.code)
                code[len(code) // 2] ^= 0xFF
                self.corrupted += 1
                yield replace(result, code=bytes(code))

    backend = Corrupting()
    compiler = ParallelCompiler(backend=backend)
    with pytest.raises(PayloadCorruption):
        compiler.compile(SOURCE)
    assert backend.corrupted == 5  # every function
    assert compiler.last_phase4_stats.mode == "fallback"


def test_compile_cli_json_reports_link_cache(tmp_path, capsys):
    import json

    from repro.cli import main

    source_path = tmp_path / "m.w"
    source_path.write_text(SOURCE)
    argv = [
        "compile", str(source_path),
        "--parallel", "--jobs", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--json",
    ]
    assert main(argv) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["profile"]["phase4_mode"] == "parallel"
    assert document["profile"]["counts"]["link_cache.misses"] == SECTIONS
    assert document["link_cache"]["misses"] >= SECTIONS
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["profile"]["phase4_mode"] == "cached"


def test_no_link_cache_flag_disables_the_cache(tmp_path, capsys):
    import json

    from repro.cli import main

    source_path = tmp_path / "m.w"
    source_path.write_text(SOURCE)
    argv = [
        "compile", str(source_path),
        "--parallel", "--jobs", "1", "--no-cache",
        "--cache-dir", str(tmp_path / "cache"),
        "--json",
    ]
    for _ in range(2):  # never goes warm without the cache
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["profile"]["phase4_mode"] == "parallel"
        assert "link_cache" not in document
    assert not (tmp_path / "cache").exists()
