"""Supervision overhead benchmarks (real wall-clock on this machine).

The robustness claim has a price tag, and it must be near zero: wrapping
the warm-worker farm in :class:`SupervisedBackend` with no faults
injected may not cost more than noise — deadlines are bookkeeping,
hedging waits ``hedge_min_age`` before cloning work, and validation is
one sha256 per result.

Measured as paired rounds (bare then supervised per round) like
``test_warm_farm.py``, plus one seeded chaos round (crashes + hangs +
corruption) to record how expensive *absorbing* faults is.  Both land in
``benchmarks/out/BENCH_chaos.json``, the trajectory point CI archives.
"""

import json
import platform
import statistics
import time

from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.parallel.fault_schedule import FaultSchedule
from repro.parallel.fault_tolerance import ChaosBackend
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program

SIZE, FUNCTIONS = "small", 8
SOURCE = synthetic_program(SIZE, FUNCTIONS)
WORKERS = 2
ROUNDS = 7


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_supervised_no_fault_overhead_within_noise(results_dir):
    clear_phase1_cache()
    sequential_digest = SequentialCompiler().compile(SOURCE).digest

    with WarmPoolBackend(max_workers=WORKERS) as bare_pool, \
            WarmPoolBackend(max_workers=WORKERS) as supervised_pool:
        supervised = SupervisedBackend(supervised_pool)
        bare_compiler = ParallelCompiler(backend=bare_pool)
        supervised_compiler = ParallelCompiler(backend=supervised)

        # Warm both pools (worker spawn + first-parse costs out of band).
        bare_compiler.compile(SOURCE)
        supervised_result = supervised_compiler.compile(SOURCE)
        assert supervised_result.digest == sequential_digest

        bare_walls, supervised_walls = [], []
        for _ in range(ROUNDS):
            bare_walls.append(_timed(lambda: bare_compiler.compile(SOURCE)))
            supervised_walls.append(
                _timed(lambda: supervised_compiler.compile(SOURCE))
            )

        # No faults were injected, so no supervision machinery may have
        # triggered — the counters prove the overhead is pure bookkeeping.
        counts = supervised.counts
        assert counts["timeouts"] == 0
        assert counts["poisoned_tasks"] == 0
        assert counts["degradations"] == 0
        assert counts["corrupt_payloads"] == 0

    # One seeded chaos round on an in-process farm: how much wall does
    # *absorbing* crashes, hangs, and corruption cost?
    faults = FaultSchedule(
        0, {"crash": 0.3, "hang": 0.3, "corrupt": 0.25}, delay=0.1
    )
    chaos = ChaosBackend(SerialBackend(), faults, workers=4)
    chaos_backend = SupervisedBackend(
        chaos, task_timeout=1.0, max_attempts=4, hedge_after=None
    )
    start = time.perf_counter()
    chaos_result = ParallelCompiler(backend=chaos_backend).compile(SOURCE)
    chaos_wall = time.perf_counter() - start
    assert chaos_result.digest == sequential_digest

    bare_median = statistics.median(bare_walls)
    supervised_median = statistics.median(supervised_walls)
    summary = {
        "workload": f"{FUNCTIONS} x f_{SIZE}",
        "workers": WORKERS,
        "rounds": ROUNDS,
        "python": platform.python_version(),
        "bare_warm_walls_s": [round(w, 6) for w in bare_walls],
        "supervised_walls_s": [round(w, 6) for w in supervised_walls],
        "bare_median_s": round(bare_median, 6),
        "supervised_median_s": round(supervised_median, 6),
        "overhead_ratio": round(supervised_median / bare_median, 4),
        "chaos_round": {
            "seed": 0,
            "wall_s": round(chaos_wall, 6),
            "injected_crashes": faults.fired["crash"],
            "injected_hangs": faults.fired["hang"],
            "injected_corruptions": faults.fired["corrupt"],
            "timeouts": chaos_backend.counts["timeouts"],
            "retries": chaos_backend.counts["retries"],
            "corrupt_payloads": chaos_backend.counts["corrupt_payloads"],
        },
    }
    (results_dir / "BENCH_chaos.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    (results_dir / "chaos_overhead.txt").write_text(
        f"{ROUNDS} paired rounds (bare warm pool then supervised per round)\n"
        f"bare warm-pool median:   {bare_median:.3f}s\n"
        f"supervised median:       {supervised_median:.3f}s "
        f"({summary['overhead_ratio']:.2f}x)\n"
        f"seeded chaos round:      {chaos_wall:.3f}s "
        f"({faults.fired['crash']} crash(es), {faults.fired['hang']} "
        f"hang(s), {faults.fired['corrupt']} corruption(s) absorbed)\n"
    )
    print(
        f"\nsupervision overhead {summary['overhead_ratio']:.2f}x "
        f"(bare {bare_median:.3f}s, supervised {supervised_median:.3f}s); "
        f"chaos round {chaos_wall:.3f}s"
    )
    # The guard: supervised no-fault wall within noise of the bare warm
    # pool.  1.5x + 50ms leaves headroom for scheduler jitter on small
    # absolute times while still catching a hot-loop regression.
    assert supervised_median <= bare_median * 1.5 + 0.05
