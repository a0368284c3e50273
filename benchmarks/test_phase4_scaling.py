"""Phase-4 benchmark: the per-section back end behind the link cache.

**Incremental warm edit** — real wall clock.  With a warm link cache, a
1-function edit re-links exactly one section and serves the rest from
disk; that must beat re-linking everything, measured as paired rounds
with the same drift-cancelling median as the other cache benchmarks.

(The file keeps its name for the trajectory point it writes.  There is
no scaling leg: sections are linked in the master, one after the other,
and a CPython thread pool over them measured the same at 1, 2 and 4
threads.  The paper's Katseff comparison (§4.2.2) lives in
``test_katseff_assembler.py``.)

Timings land in ``benchmarks/out/BENCH_phase4.json`` — the trajectory
point CI archives beside the other bench artifacts.
"""

import json
import platform
import statistics
import time

from repro.cache import LinkCache
from repro import CompileOptions
from repro.driver.function_master import run_function_master
from repro.driver.master import function_tasks
from repro.driver.phases import (
    Phase4Runner,
    Phase4Stats,
    phase1_parallel,
    phase4_link_and_download,
)
from repro.driver.section_master import combine_section_results
from repro.machine.warp_array import WarpArrayModel
from repro.workloads.kernels import synthetic_function
from repro.workloads.sizes import lines_for

SECTION_SIZES = [
    "medium", "small", "medium", "small", "medium", "small", "medium",
    "small",
]
ARRAY = WarpArrayModel(cell_count=10)


def multi_section_program():
    """One section per entry of SECTION_SIZES, one cell each.

    ``synthetic_program`` emits a single section by design (the paper's
    S_n programs); the link cache works *per section*, so the bench
    needs a hand-built multi-section module.
    """
    parts = ["module bench_p4"]
    for index, size in enumerate(SECTION_SIZES):
        parts.append(f"section sec{index} (cells {index}..{index})")
        for fn in range(2):
            parts.append(
                synthetic_function(f"s{index}_f{fn}", lines_for(size))
            )
        parts.append("end")
    parts.append("end")
    return "\n".join(parts)


SOURCE = multi_section_program()
EDITED = SOURCE.replace("t := a[i] * b[j] + t * 0.9987;",
                        "t := a[i] * b[j] + t * 0.9987 + 0.0001;", 1)


def _combined_for(source):
    """Phases 1-3 once — the recombined input phase 4 consumes."""
    parsed = phase1_parallel(source, "<bench>")
    tasks = function_tasks(parsed, parsed.module.all_functions(), CompileOptions())
    combined = {}
    for section in parsed.module.sections:
        results = [
            run_function_master(task) for task in tasks
            if task.section_name == section.name
        ]
        combined[section.name] = combine_section_results(section, results)
    return parsed, combined


def _results(combined):
    return {name: sec.results for name, sec in combined.items()}


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _run_phase4(parsed, combined, link_cache, stats=None):
    """The runner as the master drives it once all sections combined:
    what it finishes with, and the lookups it counted."""
    runner = Phase4Runner(parsed, ARRAY, link_cache=link_cache, stats=stats)
    for section in parsed.module.sections:
        runner.section_ready(combined[section.name])
    return runner.finish(combined), runner.counts


def test_warm_link_cache_edit_beats_full_relink(results_dir, tmp_path):
    """Warm-edit leg: re-link 1 section + 7 cache loads vs re-link 8."""
    cache = LinkCache(tmp_path / "link")
    parsed, combined = _combined_for(SOURCE)
    fill_wall = _timed(lambda: _run_phase4(parsed, combined, cache))

    parsed2, combined2 = _combined_for(EDITED)
    # The edit round itself: exactly one section misses.
    edit_stats = Phase4Stats()
    _, edit_counts = _run_phase4(parsed2, combined2, cache, stats=edit_stats)
    edit_hits = edit_counts["link_cache.hits"]
    edit_misses = edit_counts["link_cache.misses"]
    assert (edit_hits, edit_misses) == (len(SECTION_SIZES) - 1, 1)
    assert edit_stats.mode == "parallel"

    # Steady state of the edit-recompile loop: every section served by
    # the section tier vs a full sequential re-link, as paired rounds.
    rounds = 7
    full_walls, warm_walls = [], []
    for _ in range(rounds):
        full_walls.append(
            _timed(
                lambda: phase4_link_and_download(
                    parsed2, _results(combined2), ARRAY
                )
            )
        )
        stats = Phase4Stats()
        start = time.perf_counter()
        (module, _, _), counts = _run_phase4(
            parsed2, combined2, cache, stats=stats
        )
        warm_walls.append(time.perf_counter() - start)
        assert stats.mode == "parallel"
        assert counts == {"link_cache.hits": len(SECTION_SIZES)}

    # Correctness before speed: the warm module is bit-identical.
    from repro.asmlink.download import module_digest

    want = module_digest(
        phase4_link_and_download(parsed2, _results(combined2), ARRAY)[0]
    )
    assert module_digest(module) == want

    diffs = sorted(f - w for f, w in zip(full_walls, warm_walls))
    median_diff = diffs[rounds // 2]
    warm_wins = sum(1 for d in diffs if d > 0)
    summary = {
        "workload": "2 functions x " + "/".join(SECTION_SIZES)
        + ", 1-function edit",
        "rounds": rounds,
        "python": platform.python_version(),
        "fill_wall_s": round(fill_wall, 6),
        "full_relink_walls_s": [round(w, 6) for w in full_walls],
        "warm_cache_walls_s": [round(w, 6) for w in warm_walls],
        "full_relink_median_s": round(statistics.median(full_walls), 6),
        "warm_cache_median_s": round(statistics.median(warm_walls), 6),
        "median_paired_diff_s": round(median_diff, 6),
        "warm_wins": warm_wins,
        "edit_hits": edit_hits,
        "edit_misses": edit_misses,
        "cache_entries": cache.entry_count(),
        "cache_bytes": cache.size_bytes(),
    }
    (results_dir / "BENCH_phase4.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    (results_dir / "phase4_scaling.txt").write_text(
        f"{rounds} paired rounds (full re-link then warm-cache per round)\n"
        f"full re-link median: {summary['full_relink_median_s']:.4f}s\n"
        f"warm-cache median:   {summary['warm_cache_median_s']:.4f}s\n"
        f"median paired diff:  {median_diff:+.4f}s "
        f"(warm wins {warm_wins}/{rounds} rounds)\n"
        f"1-function edit:     {edit_misses} miss, "
        f"{edit_hits} hits\n"
        f"advantage:           "
        f"{summary['full_relink_median_s'] / summary['warm_cache_median_s']:.2f}x\n"
    )
    print(
        f"\nwarm link-cache advantage: "
        f"{summary['full_relink_median_s'] / summary['warm_cache_median_s']:.2f}x, "
        f"median paired diff {median_diff:+.4f}s, "
        f"warm wins {warm_wins}/{rounds}"
    )
    # The acceptance bar: the warm-edit recompile median strictly beats
    # the full re-link median.
    assert median_diff > 0
    assert summary["warm_cache_median_s"] < summary["full_relink_median_s"]
