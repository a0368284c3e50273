"""Phase-1 benchmark: the incremental front end behind the span-hash
parse cache.

**Incremental warm edit** — real wall clock.  With a warm parse cache, a
1-function edit re-parses exactly one function and reads the rest from
disk as they were stored; that must beat re-parsing everything, measured as paired
rounds with the same drift-cancelling median as the artifact-cache
benchmark.

(The file keeps its name for the trajectory point it writes.  There is
no scaling leg: phase 1 runs in the master, as in the paper, and a
CPython thread pool over the windows measured the same at 1, 2, 4 and
8 threads.)

Timings land in ``benchmarks/out/BENCH_phase1.json`` — the trajectory
point CI archives beside the other bench artifacts.
"""

import json
import platform
import statistics
import time
from collections import Counter

from repro.cache import ParseCache
from repro.driver.phases import (
    phase1_parallel,
    phase1_parse_and_check,
    window_program,
)
from repro.lang.unparse import unparse_module
from repro.workloads.synthetic import synthetic_program

SIZE, FUNCTIONS = "huge", 8
SOURCE = synthetic_program(SIZE, FUNCTIONS)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_warm_parse_cache_edit_beats_full_parse(results_dir, tmp_path):
    """Warm-edit leg: parse 1 function + read 7 from disk vs parse 8."""
    cache = ParseCache(tmp_path / "parse")
    fill_wall = _timed(
        lambda: phase1_parallel(SOURCE, parse_cache=cache)
    )

    # Line-count-changing body edit of f1: later functions shift down,
    # and their entries still hit (a window parses in its own
    # coordinates).
    edited = SOURCE.replace(
        "acc := 0.0;",
        "acc := 0.0;\n    acc := acc + 1.0;",
        1,
    )
    assert edited != SOURCE
    # Pre-warm the edited variant's one changed window, then time pure
    # warm rounds (all 8 functions served from cache) against full
    # parses — the steady state of an edit-recompile loop.
    edit_counts = Counter()
    phase1_parallel(edited, parse_cache=cache, counts=edit_counts)
    edit_hits = edit_counts["parse_cache.hits"]
    edit_misses = edit_counts["parse_cache.misses"]
    assert (edit_hits, edit_misses) == (FUNCTIONS - 1, 1)

    rounds = 7
    full_walls, warm_walls = [], []
    for _ in range(rounds):
        full_walls.append(_timed(lambda: phase1_parse_and_check(edited)))
        counts = Counter()
        start = time.perf_counter()
        parsed = phase1_parallel(edited, parse_cache=cache, counts=counts)
        warm_walls.append(time.perf_counter() - start)
        assert counts == {"parse_cache.hits": FUNCTIONS}

    # Correctness before speed: the warm module is the sequential one
    # in structure and in its module and section spans, once each hit's
    # signature stub is replaced by the tree its function master parses
    # from the window.
    for section in parsed.module.sections:
        headers = parsed.headers[section.name]
        section.functions = [
            window_program(
                section.name, fn.name,
                parsed.windows[section.name, fn.name], headers,
            )[0].function(section.name, fn.name)
            for fn in section.functions
        ]
    sequential = phase1_parse_and_check(edited).module
    assert unparse_module(parsed.module) == unparse_module(sequential)
    assert [s.span for s in parsed.module.sections] == [
        s.span for s in sequential.sections
    ]

    diffs = sorted(f - w for f, w in zip(full_walls, warm_walls))
    median_diff = diffs[rounds // 2]
    warm_wins = sum(1 for d in diffs if d > 0)
    summary = {
        "workload": f"{FUNCTIONS} x f_{SIZE}, 1-function edit",
        "rounds": rounds,
        "python": platform.python_version(),
        "fill_wall_s": round(fill_wall, 6),
        "full_parse_walls_s": [round(w, 6) for w in full_walls],
        "warm_cache_walls_s": [round(w, 6) for w in warm_walls],
        "full_parse_median_s": round(statistics.median(full_walls), 6),
        "warm_cache_median_s": round(statistics.median(warm_walls), 6),
        "median_paired_diff_s": round(median_diff, 6),
        "warm_wins": warm_wins,
        "edit_hits": edit_hits,
        "edit_misses": edit_misses,
        "cache_entries": cache.entry_count(),
        "cache_bytes": cache.size_bytes(),
    }
    (results_dir / "BENCH_phase1.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    (results_dir / "phase1_scaling.txt").write_text(
        f"{rounds} paired rounds (full parse then warm-cache per round)\n"
        f"full parse median:   {summary['full_parse_median_s']:.3f}s\n"
        f"warm-cache median:   {summary['warm_cache_median_s']:.3f}s\n"
        f"median paired diff:  {median_diff:+.3f}s "
        f"(warm wins {warm_wins}/{rounds} rounds)\n"
        f"1-function edit:     {edit_misses} miss, "
        f"{edit_hits} hits\n"
        f"advantage:           "
        f"{summary['full_parse_median_s'] / summary['warm_cache_median_s']:.2f}x\n"
    )
    print(
        f"\nwarm parse-cache advantage: "
        f"{summary['full_parse_median_s'] / summary['warm_cache_median_s']:.2f}x, "
        f"median paired diff {median_diff:+.3f}s, "
        f"warm wins {warm_wins}/{rounds}"
    )
    # The acceptance bar: the warm-edit recompile median strictly beats
    # the full parse median.
    assert median_diff > 0
    assert summary["warm_cache_median_s"] < summary["full_parse_median_s"]
