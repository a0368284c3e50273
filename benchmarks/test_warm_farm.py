"""Warm-worker farm benchmarks (real wall-clock on this machine).

Two claims from the warm-farm work, each with a generous threshold so CI
boxes of any speed stay stable:

(a) a *second* compilation through the warm pool is faster than a
    cold one — a farm built for one compilation and shut down after it.
    The warm run skips executor spin-up and, thanks to the per-worker
    phase-1 cache, any re-parse the workers would otherwise do;
(b) the bitset dataflow kernels solve liveness on ``f_huge`` faster
    than the reference frozenset solver.

Measurement notes.  Cold and warm compiles are measured as *paired
rounds* (cold then warm, repeated) and compared by the median of the
per-round differences.  Sequential blocks of rounds pick up
CPU-frequency and page-cache drift, which on slow CI boxes can exceed
the effect being measured; pairing cancels it because adjacent
measurements share the machine state.
"""

import time

from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.parser import parse_text
from repro.lang.sema import check_module
from repro.ir.cfg import Cfg
from repro.ir.lowering import lower_module
from repro.opt.dataflow import (
    solve_backward_masks,
    solve_backward_sets,
    unpack_solution,
)
from repro.opt.liveness import block_use_def, live_variables
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program

SOURCE = synthetic_program("medium", 6)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_warm_pool_second_compile_beats_cold_pool(results_dir):
    clear_phase1_cache()
    sequential_digest = SequentialCompiler().compile(SOURCE).digest

    rounds = 7

    def cold_compile():
        with WarmPoolBackend(max_workers=4) as cold_backend:
            ParallelCompiler(backend=cold_backend).compile(SOURCE)

    with WarmPoolBackend(max_workers=4) as warm_backend:
        warm_compiler = ParallelCompiler(backend=warm_backend)
        result = warm_compiler.compile(SOURCE)  # spin-up + cache fill
        assert result.digest == sequential_digest

        cold_walls, warm_walls = [], []
        for _ in range(rounds):
            cold_walls.append(_timed(cold_compile))
            warm_walls.append(_timed(lambda: warm_compiler.compile(SOURCE)))

    diffs = sorted(c - w for c, w in zip(cold_walls, warm_walls))
    median_diff = diffs[rounds // 2]
    warm_wins = sum(1 for d in diffs if d > 0)
    cold_best, warm_best = min(cold_walls), min(warm_walls)
    (results_dir / "warm_vs_cold_pool.txt").write_text(
        f"{rounds} paired rounds (cold then warm per round)\n"
        f"cold pool best:      {cold_best:.3f}s\n"
        f"warm pool 2nd+ best: {warm_best:.3f}s\n"
        f"median paired diff:  {median_diff:+.3f}s "
        f"(warm wins {warm_wins}/{rounds} rounds)\n"
        f"warm advantage:      {cold_best / warm_best:.2f}x\n"
    )
    print(f"\nwarm advantage: {cold_best / warm_best:.2f}x, "
          f"median paired diff {median_diff:+.3f}s, "
          f"warm wins {warm_wins}/{rounds}")
    # Generous: on the median paired round the warm farm merely must not
    # be slower than paying a fresh executor fork (and its copy-on-write
    # page-faulting) per compilation.  Typical: warm wins every round by
    # ~10% on a 1-CPU container.
    assert median_diff > 0


def test_bitset_liveness_beats_frozenset_on_f_huge(results_dir):
    sink = DiagnosticSink()
    module = parse_text(synthetic_program("huge", 1), sink)
    assert not sink.has_errors
    check_module(module, sink)
    ir = lower_module(module)
    fn = next(iter(ir.all_functions()))

    # Prebuild each solver's natural input: frozensets for the reference,
    # int masks (plus the fact numbering) for the bitset kernel.
    sets_gen, sets_kill = {}, {}
    for block in fn.blocks:
        sets_gen[block.name], sets_kill[block.name] = block_use_def(block)
    index = {}
    mask_gen, mask_kill = {}, {}
    for name, facts in sets_gen.items():
        mask = 0
        for reg in facts:
            bit = index.setdefault(reg, len(index))
            mask |= 1 << bit
        mask_gen[name] = mask
    for name, facts in sets_kill.items():
        mask = 0
        for reg in facts:
            bit = index.setdefault(reg, len(index))
            mask |= 1 << bit
        mask_kill[name] = mask
    universe = list(index)

    def bitset_solve():
        entry_m, exit_m = solve_backward_masks(Cfg(fn), mask_gen, mask_kill)
        return unpack_solution(entry_m, exit_m, universe)

    def sets_pipeline():
        gen, kill = {}, {}
        for block in fn.blocks:
            gen[block.name], kill[block.name] = block_use_def(block)
        return solve_backward_sets(fn, gen, kill)

    # Paired rounds, as above: each round times the bitset side then the
    # frozenset side back to back, and the comparison is the median of
    # the per-round ratios.
    repeat = 30
    rounds = 5
    kernel_ratios, full_ratios = [], []
    for _ in range(rounds):
        bitset = _timed(lambda: [bitset_solve() for _ in range(repeat)])
        sets = _timed(lambda: [solve_backward_sets(fn, sets_gen, sets_kill)
                               for _ in range(repeat)])
        kernel_ratios.append(sets / bitset)
        bitset = _timed(lambda: [live_variables(fn, Cfg(fn)) for _ in range(repeat)])
        sets = _timed(lambda: [sets_pipeline() for _ in range(repeat)])
        full_ratios.append(sets / bitset)
    kernel_ratio = sorted(kernel_ratios)[rounds // 2]
    full_ratio = sorted(full_ratios)[rounds // 2]

    # Same solution either way.
    reference = solve_backward_sets(fn, sets_gen, sets_kill)
    fast = bitset_solve()
    assert fast.entry == reference.entry
    assert fast.exit == reference.exit
    pipeline = live_variables(fn, Cfg(fn))
    assert pipeline.entry == reference.entry
    assert pipeline.exit == reference.exit

    (results_dir / "bitset_dataflow.txt").write_text(
        f"liveness on f_huge ({len(fn.blocks)} blocks, "
        f"{len(universe)} registers), x{repeat} solves per round, "
        f"median of {rounds} paired rounds\n"
        f"solver kernel: bitset is {kernel_ratio:.2f}x the frozenset solver\n"
        f"full pipeline: bitset is {full_ratio:.2f}x the reference pipeline\n"
    )
    print(f"\nbitset kernel speedup: {kernel_ratio:.2f}x, "
          f"full pipeline: {full_ratio:.2f}x on {len(fn.blocks)} blocks")
    # Generous thresholds: the kernel itself runs ~2x the reference
    # solver; end to end the win is smaller (~1.15x) because both
    # pipelines share the use/def scan over every instruction.
    assert kernel_ratio > 1.2
    assert full_ratio > 1.0
