"""The recurrence bound under the II search.

``find_modulo_schedule`` starts at max(floor, ResMII, RecMII, 2) instead
of climbing by one from ResMII.  These tests pin the three things that
make that safe: the bound is the exact RecMII, no attempt below it can
succeed, and the search returns what the climb returned — the same II,
issue times, stages and (simulated-compiler) work units — on every loop
body of the paper's kernels, the user program, the fuzz corpus and two
generated modules.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.codegen.compiler as compiler_module
import repro.codegen.modulo as modulo_module
from repro.codegen.modulo import (
    SchedEdge,
    find_modulo_schedule,
    recurrence_mii,
    resource_mii,
    schedule_plan,
    try_modulo_schedule,
)
from repro.driver.sequential import SequentialCompiler
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.workloads.sizes import SIZE_CLASSES
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

CORPUS = sorted((Path(__file__).parent / "corpus").glob("fuzz_*.json"))


def loop_bodies(source):
    """(ops, edges, max_ii) of every loop body the per-function compiler
    hands to the II search while compiling ``source``."""
    bodies = []
    real = compiler_module.find_modulo_schedule

    def record(ops, edges, max_ii, floor=2):
        if floor == 2:  # a retry above a failed emission is the same body
            bodies.append((ops, edges, max_ii))
        return real(ops, edges, max_ii, floor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiler_module, "find_modulo_schedule", record)
        SequentialCompiler().compile(source, "bodies.w2")
    return bodies


@pytest.fixture(scope="module")
def bodies():
    sources = [synthetic_program(size, 1) for size in SIZE_CLASSES]
    sources.append(user_program())
    sources.extend(json.loads(path.read_text())["source"] for path in CORPUS)
    # The corpus reproducers have few loops; generated modules have small
    # bodies of every shape, some resource-bound (ResMII above RecMII).
    sources.extend(
        generate_program(seed, config_for_size_class("large")).source
        for seed in (5, 7)
    )
    found = [body for source in sources for body in loop_bodies(source)]
    assert len(found) >= 40
    return found


def reference_climb(ops, edges, max_ii, floor=2):
    """The II search as it was before the bound: climb by one from
    ResMII, paying len(ops) * II for every failed attempt."""
    work = 0
    for ii in range(max(floor, resource_mii(ops), 2), max_ii + 1):
        attempt = try_modulo_schedule(ops, edges, ii)
        if attempt is None:
            work += len(ops) * ii
            continue
        times, attempt_work = attempt
        stages = max(t // ii for t in times) + 1 if times else 1
        return ii, times, stages, work + attempt_work
    return None


def searched(ops, edges, max_ii, floor=2):
    found = find_modulo_schedule(ops, edges, max_ii, floor)
    if found is None:
        return None
    return found.ii, found.times, found.stages, found.work_units


def has_positive_cycle(n, edges, ii):
    """Bellman-Ford, the slow way: n full sweeps, then one more."""
    label = [0] * n
    for _ in range(n):
        for e in edges:
            label[e.sink] = max(
                label[e.sink], label[e.source] + e.delay - ii * e.distance
            )
    return any(
        label[e.source] + e.delay - ii * e.distance > label[e.sink]
        for e in edges
    )


def brute_force_bound(n, edges, start):
    # Cycles that carry a distance have a ratio of at most the sum of the
    # positive delays; what is still positive there has distance 0.
    ceiling = max(start, sum(max(e.delay, 0) for e in edges))
    for ii in range(start, ceiling + 1):
        if not has_positive_cycle(n, edges, ii):
            return ii
    return None


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edge = st.builds(
        SchedEdge, node, node, st.integers(-3, 9), st.integers(0, 3)
    )
    return n, draw(st.lists(edge, max_size=14))


class TestRecurrenceBound:
    @settings(max_examples=300, deadline=None)
    @given(graph=edge_lists(), start=st.integers(1, 4))
    def test_equals_brute_force_minimum(self, graph, start):
        n, edges = graph
        assert recurrence_mii(n, edges, start) == brute_force_bound(
            n, edges, start
        )

    def test_textbook_cycle(self):
        # 0 -> 1 -> 2 -> 0 with delays 4 + 3 + 2 over distance 2: ceil(9/2)
        edges = [
            SchedEdge(0, 1, 4, 0), SchedEdge(1, 2, 3, 0), SchedEdge(2, 0, 2, 2)
        ]
        assert recurrence_mii(3, edges) == 5
        assert recurrence_mii(3, edges, start=7) == 7
        assert recurrence_mii(3, []) == 1

    def test_distance_zero_positive_cycle_has_no_ii(self):
        edges = [SchedEdge(0, 1, 1, 0), SchedEdge(1, 0, 0, 0)]
        assert recurrence_mii(2, edges) is None
        # ... while a distance-0 cycle that costs nothing bounds nothing
        free = [SchedEdge(0, 1, 0, 0), SchedEdge(1, 0, 0, 0)]
        assert recurrence_mii(2, free) == 1

    def test_no_attempt_below_the_bound_succeeds(self, bodies):
        below = 0
        for ops, edges, max_ii in bodies:
            bound = recurrence_mii(len(ops), edges)
            plan = schedule_plan(ops, edges)
            for ii in range(1, min(bound, max_ii + 1)):
                assert try_modulo_schedule(ops, edges, ii, plan) is None
                below += 1
        assert below > 1000  # the climb spent most of its attempts here


class TestSearchMatchesReferenceClimb:
    def test_same_schedule_and_work_units(self, bodies):
        pipelined = 0
        for ops, edges, max_ii in bodies:
            want = reference_climb(ops, edges, max_ii)
            assert searched(ops, edges, max_ii) == want
            pipelined += want is not None
        assert pipelined >= 40

    def test_floor_above_the_bound(self, bodies):
        for ops, edges, max_ii in bodies:
            floor = recurrence_mii(len(ops), edges) + 1
            assert searched(ops, edges, max_ii, floor) == reference_climb(
                ops, edges, max_ii, floor
            )

    def test_budget_cap_below_the_bound(self, bodies):
        for ops, edges, max_ii in bodies:
            bound = recurrence_mii(len(ops), edges)
            for cap in {min(bound - 1, max_ii), min(bound, max_ii)}:
                assert searched(ops, edges, cap) == reference_climb(
                    ops, edges, cap
                )

    def test_plan_is_optional_state(self, bodies):
        ops, edges, max_ii = max(bodies, key=lambda body: len(body[0]))
        plan = schedule_plan(ops, edges)
        for ii in range(max_ii - 3, max_ii + 1):
            assert try_modulo_schedule(ops, edges, ii, plan) == (
                try_modulo_schedule(ops, edges, ii)
            )


@pytest.mark.parametrize("size", ["medium", "large"])
def test_few_attempts_per_pipelined_loop(size, monkeypatch):
    """A count, so it holds on any host: with the bound the search makes
    a handful of attempts per loop (4.1 and 5.1 here; ~75 without it)."""
    attempts = []
    real = modulo_module.try_modulo_schedule

    def counting(*args, **kwargs):
        attempts.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(modulo_module, "try_modulo_schedule", counting)
    result = SequentialCompiler().compile(synthetic_program(size, 1), "s1.w2")
    loops = sum(f.pipelined_loops for f in result.profile.functions)
    assert loops > 0
    assert len(attempts) <= 8 * loops
