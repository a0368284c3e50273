"""Artifact-cache benchmarks (real wall-clock on this machine).

The incremental-compilation claim: a recompile served from the
persistent function-level artifact cache must beat a from-scratch
compile, because hits skip phases 2-3 entirely (an unpickle replaces
optimization + scheduling) and never cross a process boundary.

Measured as paired rounds (cold then warm per round, median of the
per-round differences) for the same drift-cancelling reasons as
``test_warm_farm.py``.  Timings also land in
``benchmarks/out/BENCH_artifact_cache.json`` — the cold-vs-warm-cache
trajectory point CI archives next to the pytest-benchmark JSON.
"""

import json
import platform
import statistics
import time

from repro.cache import ArtifactCache
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.workloads.synthetic import synthetic_program

SIZE, FUNCTIONS = "medium", 6
SOURCE = synthetic_program(SIZE, FUNCTIONS)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_warm_cache_recompile_beats_cold_compile(results_dir, tmp_path):
    clear_phase1_cache()
    sequential_digest = SequentialCompiler().compile(SOURCE).digest

    cache = ArtifactCache(tmp_path / "cache")
    cold_compiler = ParallelCompiler(backend=SerialBackend())
    warm_compiler = ParallelCompiler(backend=SerialBackend(), cache=cache)

    # Fill the cache (the cold-with-writeback run: misses + atomic puts).
    fill_wall = _timed(lambda: warm_compiler.compile(SOURCE))

    rounds = 7
    cold_walls, warm_walls = [], []
    warm_result = None
    for _ in range(rounds):
        cold_walls.append(_timed(lambda: cold_compiler.compile(SOURCE)))
        start = time.perf_counter()
        warm_result = warm_compiler.compile(SOURCE)
        warm_walls.append(time.perf_counter() - start)

    # Correctness before speed: all-hits output is bit-identical and no
    # function paid phase-2/3 work.
    assert warm_result.digest == sequential_digest
    assert "artifact_cache.misses" not in warm_result.profile.counts
    assert warm_result.profile.counts["artifact_cache.hits"] == FUNCTIONS

    diffs = sorted(c - w for c, w in zip(cold_walls, warm_walls))
    median_diff = diffs[rounds // 2]
    warm_wins = sum(1 for d in diffs if d > 0)
    summary = {
        "workload": f"{FUNCTIONS} x f_{SIZE}",
        "rounds": rounds,
        "python": platform.python_version(),
        "fill_wall_s": round(fill_wall, 6),
        "cold_walls_s": [round(w, 6) for w in cold_walls],
        "warm_cache_walls_s": [round(w, 6) for w in warm_walls],
        "cold_median_s": round(statistics.median(cold_walls), 6),
        "warm_cache_median_s": round(statistics.median(warm_walls), 6),
        "median_paired_diff_s": round(median_diff, 6),
        "warm_wins": warm_wins,
        "cache_entries": cache.entry_count(),
        "cache_bytes": cache.size_bytes(),
    }
    (results_dir / "BENCH_artifact_cache.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    (results_dir / "artifact_cache.txt").write_text(
        f"{rounds} paired rounds (cold then warm-cache per round)\n"
        f"cold compile median:     {summary['cold_median_s']:.3f}s\n"
        f"warm-cache median:       {summary['warm_cache_median_s']:.3f}s\n"
        f"median paired diff:      {median_diff:+.3f}s "
        f"(warm wins {warm_wins}/{rounds} rounds)\n"
        f"cache fill (miss) run:   {fill_wall:.3f}s\n"
        f"advantage:               "
        f"{summary['cold_median_s'] / summary['warm_cache_median_s']:.2f}x\n"
    )
    print(f"\nwarm-cache advantage: "
          f"{summary['cold_median_s'] / summary['warm_cache_median_s']:.2f}x, "
          f"median paired diff {median_diff:+.3f}s, "
          f"warm wins {warm_wins}/{rounds}")
    # The acceptance bar: warm-cache recompile median strictly below the
    # cold compile median.  Typical advantage is >5x — the warm side
    # unpickles six artifacts instead of optimizing and scheduling them.
    assert median_diff > 0
    assert summary["warm_cache_median_s"] < summary["cold_median_s"]


def test_one_function_edit_recompiles_incrementally(results_dir, tmp_path):
    """The compile-server scenario, timed: edit one function, resubmit."""
    cache = ArtifactCache(tmp_path / "cache")
    compiler = ParallelCompiler(backend=SerialBackend(), cache=cache)
    compiler.compile(SOURCE)

    # Body-only edit of f1 (a renamed function would change sibling
    # signatures and invalidate the whole section).
    edited = SOURCE.replace("acc := 0.0;", "acc := 0.5;", 1)
    assert edited != SOURCE
    full_wall = _timed(
        lambda: ParallelCompiler(backend=SerialBackend()).compile(edited)
    )
    start = time.perf_counter()
    incremental = compiler.compile(edited)
    incremental_wall = time.perf_counter() - start

    assert incremental.digest == SequentialCompiler().compile(edited).digest
    assert incremental.profile.counts["artifact_cache.misses"] == 1
    assert incremental.profile.counts["artifact_cache.hits"] == FUNCTIONS - 1
    (results_dir / "artifact_cache_incremental.txt").write_text(
        f"one-function edit on {FUNCTIONS} x f_{SIZE}\n"
        f"full recompile:        {full_wall:.3f}s\n"
        f"incremental recompile: {incremental_wall:.3f}s "
        f"(1 miss, {FUNCTIONS - 1} hits)\n"
    )
    print(f"\nincremental recompile {incremental_wall:.3f}s vs "
          f"full {full_wall:.3f}s")
