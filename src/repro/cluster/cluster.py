"""Cluster simulation: compile timelines on the workstation network.

Given a module's :class:`WorkProfile` (deterministic work counts from a
real compilation) and an :class:`Assignment`, replays the compilation on
the simulated network:

- **sequential**: one Lisp process on one workstation, heap growing as it
  compiles function after function;
- **parallel**: master parse + scheduling, section masters, and one Lisp
  function master per function queued FIFO on its assigned workstation,
  with every core-image download and result transfer contending for the
  Ethernet and the file server.

The output is a :class:`TimingReport` with the elapsed time, per-machine
CPU time, and the implementation-overhead components the paper's §4.2.3
decomposition needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..driver.results import FunctionReport, WorkProfile
from ..parallel.schedule import Assignment
from .costs import ClusterCostModel, default_cost_model
from .events import Simulator
from .fileserver import FileServer
from .network import SharedResource, ethernet_efficiency
from .workstation import MachinePool

HOME = "home"


@dataclass
class CompileSpan:
    """When one function's compilation ran, and where."""

    section_name: str
    function_name: str
    machine: str
    start: float
    compute_start: float  # after startup (download + init + re-parse)
    end: float

@dataclass
class TimingReport:
    """Result of one simulated compilation."""

    elapsed: float
    cpu_busy: Dict[str, float] = field(default_factory=dict)
    spans: List[CompileSpan] = field(default_factory=list)
    # Implementation-overhead components (paper §4.2.3):
    master_cpu: float = 0.0  # master setup + scheduling (C process work)
    section_cpu: float = 0.0  # section masters' CPU
    parse_once_cpu: float = 0.0  # one extra parse of the whole program
    assembly_cpu: float = 0.0

    @property
    def max_cpu(self) -> float:
        """CPU time of the busiest processor (the paper's per-processor
        CPU-time presentation)."""
        return max(self.cpu_busy.values(), default=0.0)

    @property
    def implementation_overhead(self) -> float:
        return self.master_cpu + self.section_cpu + self.parse_once_cpu


class ClusterSimulation:
    """Prices work profiles onto the simulated workstation network."""

    def __init__(self, costs: Optional[ClusterCostModel] = None):
        self.costs = costs or default_cost_model()

    # ------------------------------------------------------------------
    # Sequential compiler
    # ------------------------------------------------------------------

    def run_sequential(self, profile: WorkProfile) -> TimingReport:
        """One Lisp process, one workstation, uncontended network."""
        c = self.costs
        transfer = lambda words: words / c.server_rate + words / c.network_rate

        elapsed = 0.0
        cpu = 0.0
        spans: List[CompileSpan] = []

        elapsed += transfer(c.lisp_core_words)  # download the compiler
        cpu_step = c.lisp_init_sec
        cpu += cpu_step
        elapsed += cpu_step

        parse_heap = c.lisp_base_memory + c.parse_heap(profile)
        parse_cost = c.parse_seconds(profile) * c.slowdown(parse_heap)
        cpu += parse_cost
        elapsed += parse_cost

        for index, report in enumerate(profile.functions):
            heap = c.sequential_heap(profile, index)
            start = elapsed
            raw_seconds = c.compile_seconds(report)
            compile_cost = raw_seconds * c.slowdown(heap)
            cpu += compile_cost
            elapsed += compile_cost
            # Swap traffic pages over the (idle) network and file server.
            elapsed += transfer(c.paging_words(heap, raw_seconds))
            spans.append(
                CompileSpan(
                    section_name=report.section_name,
                    function_name=report.name,
                    machine=HOME,
                    start=start,
                    compute_start=start,
                    end=elapsed,
                )
            )

        assembly = c.assembly_seconds(profile)
        cpu += assembly
        elapsed += assembly
        elapsed += transfer(profile.download_words)

        return TimingReport(
            elapsed=elapsed,
            cpu_busy={HOME: cpu},
            spans=spans,
            assembly_cpu=assembly,
        )

    # ------------------------------------------------------------------
    # Parallel compiler
    # ------------------------------------------------------------------

    def run_parallel(
        self,
        profile: WorkProfile,
        assignment: Optional[Assignment] = None,
        processors: Optional[int] = None,
        machine_speeds: Optional[List[float]] = None,
    ) -> TimingReport:
        """Master / section masters / function masters on the network.

        With an ``assignment``, each machine works through its statically
        assigned task list.  Without one, dispatch is the paper's actual
        strategy — "a simple first-come-first-served strategy that
        distributes the tasks over the available processors" (§3.3): a
        machine takes the next pending function the moment it frees up,
        which self-balances even on machines slowed by their owners
        (``machine_speeds``).
        """
        c = self.costs
        if assignment is None and processors is None:
            raise ValueError("need an assignment or a processor count")
        worker_count = (
            assignment.processors if assignment is not None else processors
        )
        sim = Simulator()
        network = SharedResource(
            sim, "ethernet", c.network_rate,
            efficiency=ethernet_efficiency(c.ethernet_alpha),
        )
        server = FileServer(sim, c.server_rate)
        machine_names = [HOME] + [f"ws{m}" for m in range(worker_count)]
        speeds = {}
        if machine_speeds is not None:
            if len(machine_speeds) != worker_count:
                raise ValueError(
                    f"{worker_count} machines but "
                    f"{len(machine_speeds)} speed factors"
                )
            speeds = {
                f"ws{m}": machine_speeds[m] for m in range(worker_count)
            }
        pool = MachinePool(sim, machine_names, speeds=speeds)
        report = TimingReport(elapsed=0.0)

        functions = profile.functions
        sections: Dict[str, List[int]] = {}
        for index, fn in enumerate(functions):
            sections.setdefault(fn.section_name, []).append(index)

        # Task dispatch: static per-machine FIFO queues from the
        # assignment, or one shared FCFS queue in dynamic mode.
        if assignment is not None:
            queues: Dict[str, List[int]] = {
                f"ws{m}": list(tasks)
                for m, tasks in enumerate(assignment.per_machine)
            }
        else:
            shared: List[int] = list(range(len(functions)))
            queues = {f"ws{m}": shared for m in range(worker_count)}

        section_remaining = {name: len(idxs) for name, idxs in sections.items()}
        sections_remaining = [len(sections)]
        done_time = [0.0]

        def transfer(words: float, then: Callable[[], None]) -> None:
            server.request(words, lambda: network.submit(words, then))

        # --- function master chain -------------------------------------
        def start_task(machine_name: str, queue: List[int]) -> None:
            if not queue:
                return
            index = queue.pop(0)
            fn = functions[index]
            machine = pool[machine_name]
            span = CompileSpan(
                section_name=fn.section_name,
                function_name=fn.name,
                machine=machine_name,
                start=sim.now,
                compute_start=0.0,
                end=0.0,
            )
            report.spans.append(span)

            def after_download():
                machine.run_cpu(c.lisp_init_sec, after_init)

            def after_init():
                heap = c.lisp_base_memory + c.parse_heap(profile)
                reparse = c.parse_seconds(profile) * c.slowdown(heap)
                machine.run_cpu(reparse, after_reparse)

            def after_reparse():
                span.compute_start = sim.now
                heap = c.function_master_heap(profile, fn)
                compile_cost = c.compile_seconds(fn) * c.slowdown(heap)
                machine.run_cpu(compile_cost, after_compile)

            def after_compile():
                # Swap traffic of this compile contends with every other
                # function master on the shared Ethernet + file server.
                heap = c.function_master_heap(profile, fn)
                paging = c.paging_words(heap, c.compile_seconds(fn))
                transfer(paging, after_paging)

            def after_paging():
                transfer(c.object_words(fn), after_ship)

            def after_ship():
                span.end = sim.now
                function_done(fn.section_name)
                start_task(machine_name, queue)

            transfer(c.lisp_core_words, after_download)

        # --- section masters --------------------------------------------
        def function_done(section_name: str) -> None:
            section_remaining[section_name] -= 1
            if section_remaining[section_name] == 0:
                run_section_combine(section_name)

        def run_section_combine(section_name: str) -> None:
            home = pool[HOME]
            indices = sections[section_name]
            result_words = sum(c.object_words(functions[i]) for i in indices)
            combine_units = sum(functions[i].bundles for i in indices) + len(
                indices
            )
            combine_cpu = combine_units / c.combine_rate

            def after_read():
                report.section_cpu += combine_cpu
                home.run_cpu(combine_cpu, section_finished)

            def section_finished():
                sections_remaining[0] -= 1
                if sections_remaining[0] == 0:
                    run_phase4()

            transfer(result_words, after_read)

        # --- master: phase 4 tail ------------------------------------------
        def run_phase4() -> None:
            home = pool[HOME]
            assembly = c.assembly_seconds(profile)
            report.assembly_cpu = assembly

            def after_assembly():
                transfer(profile.download_words, finish)

            def finish():
                done_time[0] = sim.now

            home.run_cpu(assembly, after_assembly)

        # --- master: startup, parse, scheduling ------------------------------
        def master() -> None:
            home = pool[HOME]

            def after_c_start():
                transfer(c.lisp_core_words, after_master_download)

            def after_master_download():
                home.run_cpu(c.lisp_init_sec, after_master_init)

            def after_master_init():
                heap = c.lisp_base_memory + c.parse_heap(profile)
                parse_cost = c.parse_seconds(profile) * c.slowdown(heap)
                report.parse_once_cpu = parse_cost + c.lisp_init_sec
                home.run_cpu(parse_cost, after_parse)

            def after_parse():
                schedule_cost = (
                    c.master_schedule_sec_per_task * len(functions)
                )
                report.master_cpu += c.c_process_start_sec + schedule_cost
                home.run_cpu(schedule_cost, launch_sections)

            def launch_sections():
                for _section in sections:
                    report.section_cpu += (
                        c.c_process_start_sec + c.section_start_sec
                    )
                start_delay = c.c_process_start_sec + c.section_start_sec
                home.cpu_busy += start_delay * len(sections)

                def release():
                    for machine_name, queue in queues.items():
                        start_task(machine_name, queue)

                sim.schedule(start_delay, release)

            home.run_cpu(c.c_process_start_sec, after_c_start)

        master()
        sim.run()

        report.elapsed = done_time[0]
        report.cpu_busy = pool.busy_times()
        return report
