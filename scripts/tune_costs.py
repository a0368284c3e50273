"""Calibration helper: sweep the figure workloads under a cost model.

Run:  python scripts/tune_costs.py [key=value ...]

Prints the Fig 3-10 summary table plus the Fig 11 user-program series so
cost-model constants can be tuned against the paper's qualitative targets
(see EXPERIMENTS.md).  Profiles are compiled once and cached on disk under
.cache/ so iterating on constants is fast.
"""

from __future__ import annotations

import pickle
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cluster.cluster import ClusterSimulation
from repro.cluster.costs import ClusterCostModel
from repro.metrics.overhead import compute_overhead
from repro.parallel.schedule import (
    fcfs_assignment,
    grouped_lpt_assignment,
    one_function_per_processor,
)
from repro.workloads import SIZE_ORDER

CACHE = pathlib.Path(__file__).resolve().parent / ".cache"


def cached_profile(key: str, build):
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"{key}.pkl"
    if path.exists():
        with open(path, "rb") as fh:
            return pickle.load(fh)
    profile = build()
    with open(path, "wb") as fh:
        pickle.dump(profile, fh)
    return profile


def synthetic_profile(size, n):
    def build():
        from repro.driver.sequential import SequentialCompiler
        from repro.workloads import synthetic_program

        return SequentialCompiler().compile(synthetic_program(size, n)).profile

    return cached_profile(f"synthetic_{size}_{n}", build)


def user_profile():
    def build():
        from repro.driver.sequential import SequentialCompiler
        from repro.workloads import user_program

        return SequentialCompiler().compile(user_program()).profile

    return cached_profile("user_program", build)


def main(argv):
    costs = ClusterCostModel()
    for arg in argv:
        key, _, value = arg.partition("=")
        if not hasattr(costs, key):
            raise SystemExit(f"unknown cost key {key!r}")
        setattr(costs, key, float(value))
    sim = ClusterSimulation(costs)

    print(
        f"{'size':8s} {'n':>2s} {'seq_el':>9s} {'par_el':>9s} "
        f"{'speedup':>7s} {'tot%':>6s} {'sys%':>6s} {'impl%':>6s}"
    )
    for size in SIZE_ORDER:
        for n in (1, 2, 4, 8):
            profile = synthetic_profile(size, n)
            seq = sim.run_sequential(profile)
            par = sim.run_parallel(
                profile, one_function_per_processor(profile.functions)
            )
            ovh = compute_overhead(seq, par, n)
            print(
                f"{size:8s} {n:2d} {seq.elapsed:9.1f} {par.elapsed:9.1f} "
                f"{seq.elapsed / par.elapsed:7.2f} {ovh.relative_total:6.1f} "
                f"{ovh.relative_system:6.1f} {ovh.relative_implementation:6.1f}"
            )

    print("\nuser program (grouped LPT):")
    profile = user_profile()
    seq = sim.run_sequential(profile)
    for p in (2, 3, 5, 9):
        par = sim.run_parallel(
            profile, grouped_lpt_assignment(profile.functions, p)
        )
        print(f"  p={p}: speedup {seq.elapsed / par.elapsed:5.2f}")
    par = sim.run_parallel(
        profile, one_function_per_processor(profile.functions)
    )
    print(f"  p=9 (one per processor, FCFS order): {seq.elapsed / par.elapsed:5.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
