"""Exact cycle-count regression fixtures: warpsim as a scoring oracle.

The variant search ranks compiled variants by warpsim's simulated cycle
count, so the timing model is load-bearing: a silent change to bundle
latencies, stall rules, or queue behavior would silently flip search
winners.  These fixtures pin the *exact* cycle counts of canonical
programs at every search-relevant config.  If a deliberate timing-model
change lands, update the numbers here AND bump
``repro.warpsim.scoring.SCORING_SCHEMA_VERSION`` (which invalidates
every cached variant score) in the same commit.
"""

from __future__ import annotations

from helpers import echo_module, wrap_function
from repro import CompileOptions
from repro.driver.function_master import attach_assembly
from repro.driver.phases import (
    compile_one_function,
    phase1_parse_and_check,
    phase4_link_and_download,
)
from repro.driver.sequential import SequentialCompiler
from repro.machine.warp_array import WarpArrayModel
from repro.warpsim.scoring import (
    SCORING_SCHEMA_VERSION,
    input_set_digest,
    score_module,
    seeded_input_sets,
)

STRAIGHTLINE = wrap_function(
    """  function f(x: float, y: float) : float
  begin
    x := x * 2.0 + y;
    return x + y;
  end"""
)

LOOP8 = wrap_function(
    """  function f(x: float, y: float) : float
  var acc, t: float; i: int;
  begin
    acc := x; t := y;
    for i := 0 to 7 do
      acc := acc + x * 0.5 + i;
      t := t * 0.75 + acc;
    end;
    return acc + t;
  end"""
)

ECHO3 = echo_module(
    """  begin
    return x * 1.5 + 1.0;
  end""",
    3,
)


def _score_sequential(source, inputs):
    array = WarpArrayModel()
    result = SequentialCompiler().compile(source)
    return score_module(result.download, [inputs], array)


def _score_config(source, unroll_budget, ii_budget):
    """Compile the single function of ``source`` at one search config
    and score the linked module (the search's swap-module path)."""
    parsed = phase1_parse_and_check(source)
    array = WarpArrayModel()
    obj, report = compile_one_function(
        parsed, "s", "f",
        CompileOptions(unroll_budget=unroll_budget, ii_budget=ii_budget),
    )
    sealed = attach_assembly(obj, report)
    module, _, _ = phase4_link_and_download(parsed, {"s": [sealed]}, array)
    return score_module(module, [[]], array), report


class TestPinnedCycleCounts:
    def test_scoring_schema_version_is_pinned(self):
        # Bumping this constant invalidates every cached variant score.
        # It must move exactly when the numbers in this file move.
        assert SCORING_SCHEMA_VERSION == 1

    def test_straightline_function(self):
        score = _score_sequential(STRAIGHTLINE, [])
        assert score.ok
        assert score.cycles == 16
        assert score.outputs == ((),)

    def test_loop8_default_pipeline(self):
        score = _score_sequential(LOOP8, [])
        assert score.ok
        assert score.cycles == 162

    def test_echo_module_cycles_and_outputs(self):
        score = _score_sequential(ECHO3, [1.0, 2.0, 3.0])
        assert score.ok
        assert score.cycles == 80
        assert score.outputs == ((2.5, 4.0, 5.5),)


class TestPinnedVariantCycleCounts:
    """The search's codegen knobs at exact, pinned cycle counts: these
    are the numbers the variant search trades off against each other."""

    def test_reference_config_pipelines_the_loop(self):
        score, report = _score_config(LOOP8, 0, 0)
        assert score.cycles == 162
        assert report.initiation_intervals == [17]

    def test_ii_budget_one_disables_pipelining(self):
        score, report = _score_config(LOOP8, 0, 1)
        assert score.cycles == 174  # slower here: pipelining was a win
        assert report.pipelined_loops == 0
        assert report.initiation_intervals == []

    def test_unroll_budget_eliminates_loop_overhead(self):
        score, report = _score_config(LOOP8, 8, 0)
        assert score.cycles == 98  # the search-winning config for LOOP8
        assert report.pipelined_loops == 0

    def test_unroll_budget_above_trip_count_is_equivalent(self):
        small, _ = _score_config(LOOP8, 8, 0)
        large, _ = _score_config(LOOP8, 64, 0)
        assert small.cycles == large.cycles == 98


class TestScoreModuleClassification:
    def test_deadlock_is_classified_not_raised(self):
        array = WarpArrayModel()
        result = SequentialCompiler().compile(ECHO3)
        score = score_module(result.download, [[1.0]], array)  # starved
        assert not score.ok
        assert score.cycles is None and score.outputs is None
        assert score.error

    def test_cycle_budget_exhaustion_is_classified(self):
        array = WarpArrayModel()
        result = SequentialCompiler().compile(LOOP8)
        score = score_module(result.download, [[]], array, max_cycles=10)
        assert not score.ok
        assert score.error

    def test_cycles_sum_across_input_sets(self):
        array = WarpArrayModel()
        result = SequentialCompiler().compile(LOOP8)
        one = score_module(result.download, [[]], array)
        two = score_module(result.download, [[], []], array)
        assert two.cycles == 2 * one.cycles
        assert two.outputs == ((), ())


class TestSeededInputs:
    def test_seeded_input_sets_are_pinned(self):
        # The synthetic scoring inputs feed the variant-score cache key;
        # they must be bit-stable across platforms and releases.
        assert seeded_input_sets(7, width=3, sets=2) == [
            [-3.844, 0.286, 1.268],
            [3.571, -3.652, -1.078],
        ]

    def test_input_digest_is_pinned(self):
        digest = input_set_digest(seeded_input_sets(7, width=3, sets=2))
        assert digest == (
            "b891b83f82c5d560e6c17897f568120a"
            "252c3d98216139676bd458ba675f1716"
        )

    def test_different_seeds_differ(self):
        assert seeded_input_sets(0) != seeded_input_sets(1)
        assert input_set_digest(seeded_input_sets(0)) != input_set_digest(
            seeded_input_sets(1)
        )

    def test_digest_distinguishes_set_boundaries(self):
        # [[1,2],[3]] and [[1],[2,3]] flatten identically; the digest
        # must still tell them apart.
        a = input_set_digest([[1.0, 2.0], [3.0]])
        b = input_set_digest([[1.0], [2.0, 3.0]])
        assert a != b
