"""The shared experiment runner (metrics.experiments)."""

import pytest

from repro.metrics.experiments import (
    measure_pair,
    measure_user_program,
    profile_for,
    user_program_profile,
)


class TestProfiles:
    def test_profile_cached_per_configuration(self):
        a = profile_for("tiny", 2)
        b = profile_for("tiny", 2)
        assert a is b  # lru_cache: one real compile per config

    def test_user_program_profile_shape(self):
        profile = user_program_profile()
        assert len(profile.functions) == 9
        assert len(profile.by_section()) == 3


class TestMeasurePair:
    def test_default_one_processor_per_function(self):
        pair = measure_pair("tiny", 4)
        assert pair.workers == 4
        machines = {s.machine for s in pair.parallel.spans}
        assert len(machines) == 4

    def test_limited_processors_queue_tasks(self):
        pair = measure_pair("tiny", 4, processors=2)
        assert pair.workers == 2
        machines = {s.machine for s in pair.parallel.spans}
        assert len(machines) == 2

    def test_speedup_property(self):
        pair = measure_pair("tiny", 1)
        assert pair.speedup == pytest.approx(
            pair.sequential.elapsed / pair.parallel.elapsed
        )

    def test_custom_cost_model_respected(self):
        from repro.cluster.costs import ClusterCostModel

        cheap_startup = ClusterCostModel(lisp_core_words=0.0, lisp_init_sec=0.0)
        default = measure_pair("tiny", 2)
        cheap = measure_pair("tiny", 2, costs=cheap_startup)
        assert cheap.parallel.elapsed < default.parallel.elapsed


class TestUserProgramStrategies:
    def test_all_strategies_run(self):
        for strategy in ("grouped", "fcfs", "one-per-processor"):
            pair = measure_user_program(5, strategy=strategy)
            assert pair.parallel.elapsed > 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            measure_user_program(5, strategy="magic")

    def test_one_per_processor_ignores_processor_count(self):
        pair = measure_user_program(3, strategy="one-per-processor")
        assert pair.workers == 9
