"""The cost model: pricing compiler work onto 1988 workstation hardware.

Every deterministic work count from the compiler (parse tokens, optimizer
instruction visits, scheduler placements, bundle counts) is converted to
virtual seconds here.  The constants are calibrated so the *shape* of the
paper's measurements reproduces: a ~280-line function costs on the order
of twenty minutes sequentially (§4.3), tiny functions are dominated by
process startup, and a Lisp image that outgrows a diskless SUN's memory
pays for garbage collection and paging.

Mechanisms (each one named in the paper, §4.2.3):

- *Lisp startup*: "portion of large core image must be downloaded, and
  each lisp process has to interpret initializing information" — a core
  download through the shared file server and Ethernet plus an
  initialization delay;
- *network load*: concurrent downloads collide (Ethernet efficiency
  curve) and share the file server;
- *garbage collection / swapping*: a heap beyond the workstation's
  comfortable size slows all CPU work; the sequential compiler's heap
  grows as it compiles function after function, while each function
  master starts fresh — this is what makes system overhead *negative*
  for medium functions (§4.2.3) and speedup superlinear at 2 processors
  for the user program (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..driver.results import FunctionReport, WorkProfile


@dataclass
class ClusterCostModel:
    """All tunable constants of the cluster simulation."""

    # -- CPU rates (work units per virtual second) --------------------------
    compile_rate: float = 4500.0  # phases 2+3 work units / sec
    #: fixed cost per function (Lisp bookkeeping, file handling)
    per_function_compile_sec: float = 3.0
    #: fixed cost per software-pipelined loop: the II search dominates the
    #: Warp compiler's time, and even a small function with one loop nest
    #: pays minutes for it — which is how the paper's 5-line user-program
    #: functions took 2-6 minutes while the loop-free f_tiny took seconds.
    pipeline_sec_per_loop: float = 40.0
    parse_rate: float = 900.0  # phase 1 work units / sec
    assembly_rate: float = 4000.0  # phase 4 work units / sec
    combine_rate: float = 2000.0  # section-master merge units / sec

    # -- process management ---------------------------------------------------
    c_process_start_sec: float = 0.4  # fork+exec of a C master process
    master_schedule_sec_per_task: float = 0.15
    section_start_sec: float = 0.5
    lisp_init_sec: float = 12.0  # interpreting initialization info

    # -- network and file server ----------------------------------------------
    lisp_core_words: float = 500_000.0  # downloaded core image portion
    network_rate: float = 120_000.0  # words / sec on an idle Ethernet
    ethernet_alpha: float = 0.08  # collision degradation per extra sender
    server_rate: float = 200_000.0  # file-server words / sec
    object_words_per_bundle: float = 24.0  # shipped result size

    # -- memory model (abstract units) -------------------------------------------
    workstation_memory: float = 60_000.0
    lisp_base_memory: float = 20_000.0
    parse_memory_per_line: float = 3.0
    compile_memory_per_ir: float = 27.0  # heap per IR instruction compiled
    retained_fraction: float = 0.12  # garbage kept between functions
    held_object_memory_per_bundle: float = 0.25  # objects kept for phase 4
    #: the Lisp collector eventually reclaims old garbage: accumulated
    #: retention saturates at this many memory units
    retained_cap: float = 9_000.0
    gc_onset: float = 0.55  # heap ratio where GC cost starts
    gc_exponent: float = 1.2
    gc_coeff: float = 0.25
    paging_cpu_coeff: float = 0.6  # CPU-side cost of page-fault handling
    max_extra_slowdown: float = 1.2  # thrash ceiling: s(r) <= 1 + this
    #: paging I/O volume: words swapped per (excess memory ratio x CPU
    #: second).  A diskless workstation pages over the Ethernet against
    #: the shared file server, so this traffic contends with everything
    #: else — the dominant parallel-only cost for functions that do not
    #: fit a workstation ("multiple processes swap off the same file
    #: server", §4.2.3).
    paging_words_per_excess_second: float = 19_000.0

    # -- derived helpers -----------------------------------------------------------

    def slowdown(self, heap: float) -> float:
        """CPU multiplier for a Lisp process with ``heap`` memory in use.

        GC pressure rises once the heap passes ``gc_onset`` of memory;
        page-fault handling adds a linear CPU term past capacity.  The
        combined extra cost saturates at ``max_extra_slowdown`` — a
        thrashing UNIX box is slow, not infinitely slow.  (The *I/O* side
        of paging is priced separately through the shared file server,
        see :meth:`paging_words`.)
        """
        ratio = heap / self.workstation_memory
        gc = self.gc_coeff * max(0.0, ratio - self.gc_onset) ** self.gc_exponent
        paging = self.paging_cpu_coeff * max(0.0, ratio - 1.0)
        return 1.0 + min(self.max_extra_slowdown, gc + paging)

    def paging_words(self, heap: float, cpu_seconds: float) -> float:
        """Swap traffic (words) a compile generates on a diskless node.

        Zero while the working set fits; past capacity it scales with the
        excess ratio and the compile's CPU time.  This traffic moves over
        the network and through the shared file server, so concurrent
        function masters make it mutually slower.
        """
        excess = max(0.0, heap / self.workstation_memory - 1.0)
        return self.paging_words_per_excess_second * excess * cpu_seconds

    def parse_heap(self, profile: WorkProfile) -> float:
        return self.parse_memory_per_line * profile.source_lines

    def compile_heap(self, report: FunctionReport) -> float:
        return self.compile_memory_per_ir * report.ir_instructions

    def function_master_heap(
        self, profile: WorkProfile, report: FunctionReport
    ) -> float:
        """Fresh Lisp image: base + whole-program parse + one function."""
        return (
            self.lisp_base_memory
            + self.parse_heap(profile)
            + self.compile_heap(report)
        )

    def sequential_heap(
        self, profile: WorkProfile, index: int
    ) -> float:
        """The sequential compiler's heap while compiling function
        ``index``: earlier functions leave retained garbage behind, and
        their finished object code stays resident until phase 4."""
        previous = profile.functions[:index]
        retained = sum(
            self.retained_fraction * self.compile_heap(r) for r in previous
        )
        held_objects = sum(
            self.held_object_memory_per_bundle * r.bundles for r in previous
        )
        return (
            self.lisp_base_memory
            + self.parse_heap(profile)
            + self.compile_heap(profile.functions[index])
            + min(self.retained_cap, retained + held_objects)
        )

    def parse_seconds(self, profile: WorkProfile) -> float:
        return (profile.parse_work + profile.sema_work) / self.parse_rate

    def compile_seconds(self, report: FunctionReport) -> float:
        """Raw (unslowed) phases-2+3 CPU seconds for one function."""
        return (
            self.per_function_compile_sec
            + self.pipeline_sec_per_loop * report.pipelined_loops
            + report.work_units / self.compile_rate
        )

    def assembly_seconds(self, profile: WorkProfile) -> float:
        return (profile.assembly_work + profile.link_work) / self.assembly_rate

    def object_words(self, report: FunctionReport) -> float:
        return self.object_words_per_bundle * report.bundles


def default_cost_model() -> ClusterCostModel:
    return ClusterCostModel()
