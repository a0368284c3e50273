"""Cluster simulator: DES kernel, resources, cost model, timelines."""

import pytest

from repro.cluster.cluster import HOME, ClusterSimulation
from repro.cluster.costs import ClusterCostModel
from repro.cluster.events import Simulator
from repro.cluster.fileserver import FileServer
from repro.cluster.network import SharedResource, ethernet_efficiency
from repro.cluster.workstation import MachinePool, Workstation
from repro.driver.results import FunctionReport, WorkProfile
from repro.parallel.schedule import (
    fcfs_assignment,
    grouped_lpt_assignment,
    one_function_per_processor,
)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(9.0, lambda: fired.append("c"))
        end = sim.run()
        assert fired == ["a", "b", "c"]
        assert end == 9.0

    def test_same_time_events_in_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(1.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1, 2]

    def test_events_may_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append(sim.now)
            sim.schedule(2.0, lambda: fired.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == [1.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)


class TestSharedResource:
    def test_single_task_runs_at_full_rate(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=10.0)
        done = []
        res.submit(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(10.0)]

    def test_two_tasks_share_capacity(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=10.0)
        done = []
        res.submit(100.0, lambda: done.append(("a", sim.now)))
        res.submit(100.0, lambda: done.append(("b", sim.now)))
        sim.run()
        # Equal demands started together finish together at 2x the time.
        assert done[0][1] == pytest.approx(20.0)
        assert done[1][1] == pytest.approx(20.0)

    def test_late_arrival_processor_sharing(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=10.0)
        done = {}
        res.submit(100.0, lambda: done.setdefault("a", sim.now))
        sim.schedule(5.0, lambda: res.submit(50.0, lambda: done.setdefault("b", sim.now)))
        sim.run()
        # a: 50 done by t=5, shares until b finishes.
        # From t=5: each gets 5/s. b needs 10s -> b at 15; a has 50-50=0...
        # a remaining at t=5 is 50; both run 10s: a done at 15 too.
        assert done["a"] == pytest.approx(15.0)
        assert done["b"] == pytest.approx(15.0)

    def test_efficiency_degrades_aggregate_rate(self):
        sim = Simulator()
        res = SharedResource(
            sim, "eth", rate=10.0, efficiency=ethernet_efficiency(0.5)
        )
        done = []
        res.submit(50.0, lambda: done.append(sim.now))
        res.submit(50.0, lambda: done.append(sim.now))
        sim.run()
        # eff(2) = 1/1.5; per-task rate = 10/1.5/2 = 3.33...; 50/3.33 = 15
        assert done[0] == pytest.approx(15.0)

    def test_zero_demand_completes_immediately(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=1.0)
        done = []
        res.submit(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_many_tasks_all_complete(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=7.0)
        done = []
        for i in range(25):
            res.submit(float(i + 1), lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 25

    def test_busy_time_tracked(self):
        sim = Simulator()
        res = SharedResource(sim, "r", rate=10.0)
        res.submit(100.0, lambda: None)
        sim.run()
        assert res.busy_time == pytest.approx(10.0)


class TestWorkstationAndServer:
    def test_cpu_busy_accumulates(self):
        sim = Simulator()
        ws = Workstation("w", sim)
        ws.run_cpu(3.0, lambda: None)
        ws.run_cpu(2.0, lambda: None)
        sim.run()
        assert ws.cpu_busy == 5.0

    def test_machine_pool(self):
        sim = Simulator()
        pool = MachinePool(sim, ["a", "b"])
        pool["a"].run_cpu(1.0, lambda: None)
        sim.run()
        assert pool.busy_times() == {"a": 1.0, "b": 0.0}

    def test_file_server_requests(self):
        sim = Simulator()
        server = FileServer(sim, rate=100.0)
        done = []
        server.request(50.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.5)]


def make_profile(work_list, lines=50, ir=200, loops=2, bundles=100):
    """A hand-built profile with the given per-function work units."""
    profile = WorkProfile(
        parse_work=1000, sema_work=500, source_lines=lines * len(work_list)
    )
    for index, work in enumerate(work_list):
        profile.functions.append(
            FunctionReport(
                section_name="s",
                name=f"f{index}",
                source_lines=lines,
                ir_instructions=ir,
                loop_weight=100,
                work_units=work,
                bundles=bundles,
                pipelined_loops=loops,
            )
        )
    profile.assembly_work = 1000
    profile.link_work = 100
    profile.download_words = 5000
    return profile


class TestCostModel:
    def test_slowdown_is_one_below_onset(self):
        c = ClusterCostModel()
        assert c.slowdown(0.1 * c.workstation_memory) == 1.0

    def test_slowdown_monotone(self):
        c = ClusterCostModel()
        heaps = [0.4, 0.7, 1.0, 1.3, 2.0]
        values = [c.slowdown(h * c.workstation_memory) for h in heaps]
        assert values == sorted(values)

    def test_slowdown_saturates(self):
        c = ClusterCostModel()
        assert c.slowdown(100 * c.workstation_memory) <= 1 + c.max_extra_slowdown

    def test_paging_zero_when_fitting(self):
        c = ClusterCostModel()
        assert c.paging_words(0.9 * c.workstation_memory, 100.0) == 0.0

    def test_paging_grows_with_excess(self):
        c = ClusterCostModel()
        small = c.paging_words(1.1 * c.workstation_memory, 100.0)
        big = c.paging_words(1.5 * c.workstation_memory, 100.0)
        assert 0 < small < big

    def test_sequential_heap_grows_with_index(self):
        c = ClusterCostModel()
        profile = make_profile([1000] * 4)
        heaps = [c.sequential_heap(profile, k) for k in range(4)]
        assert heaps[0] < heaps[-1]

    def test_sequential_heap_capped(self):
        c = ClusterCostModel()
        profile = make_profile([1000] * 50, ir=2000, bundles=5000)
        gap = c.sequential_heap(profile, 49) - c.sequential_heap(profile, 0)
        assert gap <= c.retained_cap

    def test_function_master_heap_independent_of_order(self):
        c = ClusterCostModel()
        profile = make_profile([1000, 2000])
        assert c.function_master_heap(
            profile, profile.functions[0]
        ) == pytest.approx(
            c.function_master_heap(profile, profile.functions[0])
        )

    def test_compile_seconds_components(self):
        c = ClusterCostModel()
        report = make_profile([9000]).functions[0]
        expected = (
            c.per_function_compile_sec
            + 2 * c.pipeline_sec_per_loop
            + 9000 / c.compile_rate
        )
        assert c.compile_seconds(report) == pytest.approx(expected)


class TestTimelines:
    def test_sequential_elapsed_exceeds_cpu(self):
        sim = ClusterSimulation()
        report = sim.run_sequential(make_profile([50000] * 2))
        assert report.elapsed > report.cpu_busy[HOME] > 0

    def test_parallel_uses_assigned_machines(self):
        sim = ClusterSimulation()
        profile = make_profile([50000] * 3)
        report = sim.run_parallel(
            profile, one_function_per_processor(profile.functions)
        )
        busy_machines = [m for m, t in report.cpu_busy.items() if t > 0]
        assert set(busy_machines) == {HOME, "ws0", "ws1", "ws2"}

    def test_parallel_beats_sequential_for_big_equal_tasks(self):
        sim = ClusterSimulation()
        profile = make_profile([2_000_000] * 4)
        seq = sim.run_sequential(profile)
        par = sim.run_parallel(
            profile, one_function_per_processor(profile.functions)
        )
        assert par.elapsed < seq.elapsed

    def test_parallel_loses_for_tiny_tasks(self):
        sim = ClusterSimulation()
        profile = make_profile([50] * 4, loops=0)
        seq = sim.run_sequential(profile)
        par = sim.run_parallel(
            profile, one_function_per_processor(profile.functions)
        )
        assert par.elapsed > seq.elapsed

    def test_spans_cover_all_functions(self):
        sim = ClusterSimulation()
        profile = make_profile([10000] * 5)
        par = sim.run_parallel(
            profile, fcfs_assignment(profile.functions, 2)
        )
        assert len(par.spans) == 5
        for span in par.spans:
            assert span.end > span.compute_start >= span.start

    def test_fcfs_queues_tasks_on_same_machine(self):
        sim = ClusterSimulation()
        profile = make_profile([10000] * 4)
        par = sim.run_parallel(profile, fcfs_assignment(profile.functions, 2))
        by_machine = {}
        for span in par.spans:
            by_machine.setdefault(span.machine, []).append(span)
        for spans in by_machine.values():
            spans.sort(key=lambda s: s.start)
            for a, b in zip(spans, spans[1:]):
                assert b.start >= a.end  # FIFO, no overlap on one machine

    def test_implementation_overhead_components(self):
        sim = ClusterSimulation()
        profile = make_profile([10000] * 2)
        par = sim.run_parallel(
            profile, one_function_per_processor(profile.functions)
        )
        assert par.master_cpu > 0
        assert par.section_cpu > 0
        assert par.parse_once_cpu > 0
        assert par.implementation_overhead == pytest.approx(
            par.master_cpu + par.section_cpu + par.parse_once_cpu
        )

    def test_deterministic(self):
        sim = ClusterSimulation()
        profile = make_profile([12345, 6789, 10111])
        a = sim.run_parallel(profile, fcfs_assignment(profile.functions, 2))
        b = sim.run_parallel(profile, fcfs_assignment(profile.functions, 2))
        assert a.elapsed == b.elapsed
        assert a.cpu_busy == b.cpu_busy


class TestSchedulingStrategies:
    def test_one_per_processor(self):
        profile = make_profile([1, 2, 3])
        a = one_function_per_processor(profile.functions)
        assert a.per_machine == [[0], [1], [2]]

    def test_fcfs_respects_source_order_per_machine(self):
        profile = make_profile([100] * 6)
        a = fcfs_assignment(profile.functions, 2)
        for tasks in a.per_machine:
            assert tasks == sorted(tasks)

    def test_grouped_lpt_balances_mixed_sizes(self):
        profile = make_profile([1000, 10, 10, 10, 10, 10])
        # Make the big function's cost estimate dominate.
        profile.functions[0].source_lines = 300
        profile.functions[0].loop_weight = 50000
        a = grouped_lpt_assignment(profile.functions, 2)
        machine_of_big = a.machine_of(0)
        # The big one should be alone (or nearly) on its machine.
        assert len(a.per_machine[machine_of_big]) <= 2

    def test_invalid_processor_count(self):
        profile = make_profile([1])
        with pytest.raises(ValueError):
            fcfs_assignment(profile.functions, 0)
        with pytest.raises(ValueError):
            grouped_lpt_assignment(profile.functions, 0)
