"""The four workloads: inputs, ops, and the checks on every output.

An *op* is one compile of one module: source text in, digest (or the
service's job document) in hand.  A *round* is one pass over a
workload's fixed op list; a run measures whole rounds.  ``--seed``
reaches only the input generators and the order of ops, never ``repro``.

Every timed op's digest must equal the ``SequentialCompiler`` digest
taken in set-up, so each module is compiled at least twice per run and
any non-determinism shows as a failed op.  Probe programs are compiled
twice in set-up, run on warpsim and compared with the reference
interpreter in ``tests/`` — an oracle that shares only the parser with
the compiler under test.
"""

from __future__ import annotations

import math
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from reference_interp import interpret_module

from repro import ParallelCompiler, SequentialCompiler, run_module
from repro.asmlink.download import module_size_words
from repro.cache import ArtifactCache, LinkCache, ParseCache
from repro.driver.function_master import clear_phase1_cache
from repro.driver.phases import phase1_parse_and_check
from repro.fuzz.generator import config_for_size_class, generate_program
from repro.parallel import SerialBackend
from repro.service import (
    CompileService,
    EditSessionSpec,
    ServiceClient,
    ServiceSocketServer,
    plan_edit_session,
)
from repro.workloads import (
    lines_for,
    synthetic_function,
    synthetic_program,
    user_program,
)

from report import ROOT, geomean, median, percentile

#: a probe that runs longer than this is a failed check, not a skipped one
PROBE_MAX_CYCLES = 1_000_000

#: cold_branchy's modules: the first twelve programs of the fuzz
#: generator's seed space at the "large" preset — none hand-picked.
BRANCHY_SEEDS = tuple(range(12))

#: cold_branchy's probes: generator seeds whose modules run to completion
#: in under 100k warpsim cycles at the commit that added the benchmark.
BRANCHY_PROBE_SEEDS = (2, 3, 19, 20, 33, 58)

#: serve_mix: (size class, functions per module, jobs per deck of 20) —
#: 30% S_6(tiny), 45% S_4(small), 25% S_2(medium), so p50 sits inside the
#: small mode and p95 inside the medium mode rather than on a boundary.
SERVE_DECK = (("tiny", 6, 6), ("small", 4, 9), ("medium", 2, 5))
SERVE_MODULES_PER_CLASS = 8
SERVE_WORKERS = 2
SERVE_JOB_TIMEOUT = 60.0

#: per-layer metric -> counter of the service's ``status`` verb
STATUS_COUNTERS = {
    "service.waves": "waves",
    "service.tasks_dispatched": "tasks_dispatched",
    "service.busy_worker_s": "busy_worker_seconds",
    "service.rejected": "rejected",
}

BANNER = re.compile(r"warpcc service on (\S+:\d+)")


class Op(NamedTuple):
    kind: str
    wall: float  # seconds at the host's nominal speed (see HostSpeed)
    cpu: float  # likewise
    lines: int
    ok: bool
    raw_wall: float  # seconds as the clock read them


class Reference(NamedTuple):
    digest: str
    words: int
    lines: int


def line_count(source: str) -> int:
    return len(source.splitlines())


def same_outputs(got, expected) -> bool:
    """Exact equality, except that NaN equals NaN: the loop-nest kernels
    legitimately overflow to NaN and ``[nan] == [nan]`` is false."""
    if len(got) != len(expected):
        return False
    for a, b in zip(got, expected):
        both_nan = (
            isinstance(a, float) and isinstance(b, float)
            and math.isnan(a) and math.isnan(b)
        )
        if not both_nan and a != b:
            return False
    return True


class _Cell:
    __slots__ = ("index", "key")

    def __init__(self, index, key):
        self.index = index
        self.key = key


class HostSpeed:
    """How fast this host is right now, from a fixed spin.

    The sandbox this benchmark runs in drifts by 10-20% over minutes
    (other tenants of the hypervisor), far more than the bounds on the
    timing metrics, and it slows all interpreter-bound work alike.  So a
    fixed piece of such work — dict, tuple, small-object and list
    traffic, the compiler's own diet, none of it ``repro`` code — is
    timed before and after every op, and the op's seconds are scaled to
    the speed at which the spin takes ``NOMINAL_S``.  Timings are thus
    in seconds of a host of nominal speed; the raw clock readings are
    kept beside them in every result file.
    """

    #: the spin's median on the host of the first baseline (2-core
    #: 2.1 GHz Firecracker VM, CPython 3.11.7)
    NOMINAL_S = 0.022
    SPIN_STEPS = 60_000

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spin()

    def spin(self) -> float:
        start = time.perf_counter()
        table: Dict[tuple, int] = {}
        cells: List[_Cell] = []
        for index in range(self.SPIN_STEPS):
            key = (index & 1023, "k")
            table[key] = table.get(key, 0) + index
            cells.append(_Cell(index, key))
            if len(cells) > 512:
                cells.clear()
        self.spun_at = time.perf_counter()
        self.samples.append(self.spun_at - start)
        return self.samples[-1]

    def fresh(self, max_age: float) -> float:
        """The latest spin, taken again if it is older than ``max_age``."""
        if time.perf_counter() - self.spun_at > max_age:
            return self.spin()
        return self.samples[-1]

    def factor_since(self, before: float) -> float:
        """Scale for what ran between the spin ``before`` and one now."""
        return self.NOMINAL_S / ((before + self.spin()) / 2.0)

    def factor_overall(self) -> float:
        """Scale for everything so far, from the median spin."""
        return self.NOMINAL_S / median(self.samples)


def kernel_probe(kernels: int) -> Tuple[str, str]:
    """``kernels`` f_small loop-nest kernels and a ``main`` that feeds
    them x and y and sends the sum of their results."""
    names = [f"k{i + 1}" for i in range(kernels)]
    functions = "\n".join(
        synthetic_function(name, lines_for("small")) for name in names
    )
    total = " + ".join(f"{name}(x, y)" for name in names)
    main = (
        "  function main()\n"
        "  var x, y, s: float;\n"
        "  begin\n"
        "    receive(x);\n"
        "    receive(y);\n"
        f"    s := {total};\n"
        "    send(s);\n"
        "  end"
    )
    source = (
        "module kernel_probe\nsection sec1 (cells 0..0)\n"
        f"{functions}\n{main}\nend\nend\n"
    )
    return "kernel_probe", source


class Workload:
    """Shared clockwork: the op timer, the probe check, the summary."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.scratch = scratch
        #: set by the traced run after set-up, so set-up is never traced
        self.recorder = None
        self.reference: Dict[str, Reference] = {}
        self.sim_cycles = 0
        self.verify_s = 0.0
        self.checks_attempted = 0
        self.checks_failed = 0
        self.problems: List[str] = []
        self.speed = HostSpeed()

    # -- the clock -----------------------------------------------------

    def op(self, kind: str, key: str, fn: Callable[[], Optional[str]]) -> Op:
        """One timed op; ``fn`` returns the digest it produced, which is
        checked after the clock stops.  GC stays on: users have it on."""
        before = self.speed.fresh(max_age=0.05)
        recorder = self.recorder
        span = recorder.begin_op(kind) if recorder is not None else None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            digest = fn()
        except Exception as error:  # noqa: BLE001 - a failed op is data
            digest = None
            self.problems.append(f"{kind}: {type(error).__name__}: {error}")
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if span is not None:
            recorder.end_op(span)
        factor = self.speed.factor_since(before)
        if span is not None:
            recorder.scale_op(span, factor)
        expected = self.reference[key]
        ok = digest == expected.digest
        if not ok and digest is not None:
            self.problems.append(f"{kind}: digest differs from reference")
        return Op(kind, wall * factor, cpu * factor, expected.lines, ok, wall)

    # -- set-up helpers ------------------------------------------------

    def fail_check(self, message: str) -> None:
        self.checks_failed += 1
        self.problems.append(message)

    def take_reference(self, key: str, source: str) -> None:
        """Sequential compile in set-up: the digest every timed op of
        this module must reproduce (and the warm-up compile)."""
        result = SequentialCompiler().compile(source, f"{key}.w2")
        self.reference[key] = Reference(
            result.digest, module_size_words(result.download), line_count(source)
        )
        self.speed.fresh(max_age=1.0)  # set-up is scaled by its median spin

    def check_probe(self, key: str, source: str, inputs: List[float]) -> None:
        """Compile twice, run on warpsim, compare with the reference
        interpreter.  Identical digests mean bit-identical modules, so
        the (deterministic) simulator need only run one of them."""
        self.checks_attempted += 1
        try:
            first = SequentialCompiler().compile(source, f"{key}.w2")
            second = SequentialCompiler().compile(source, f"{key}.w2")
            words = module_size_words(first.download)
            if (first.digest, words) != (
                second.digest, module_size_words(second.download)
            ):
                raise AssertionError("two compiles disagree")
            t0 = time.perf_counter()
            run = run_module(first.download, inputs, max_cycles=PROBE_MAX_CYCLES)
            self.verify_s += time.perf_counter() - t0
            self.sim_cycles += run.cycles
            expected = interpret_module(
                phase1_parse_and_check(source).module, inputs
            )
            if not same_outputs(run.outputs, expected):
                raise AssertionError(
                    f"warpsim {run.outputs} != reference {expected}"
                )
        except Exception as error:  # noqa: BLE001 - counted, not skipped
            self.fail_check(f"probe {key}: {type(error).__name__}: {error}")
            return
        self.reference[key] = Reference(first.digest, words, line_count(source))
        self.speed.fresh(max_age=1.0)

    def check_kernel_probe(self) -> Tuple[str, str]:
        key, source = kernel_probe(1 if self.smoke else 4)
        inputs = [round(self.rng.uniform(-4.0, 4.0), 3) for _ in range(2)]
        self.check_probe(key, source, inputs)
        return key, source

    # -- lifecycle -----------------------------------------------------

    def set_up(self) -> None:
        raise NotImplementedError

    def round(self) -> List[Op]:
        raise NotImplementedError

    def tear_down(self) -> None:
        pass

    # -- results -------------------------------------------------------

    @property
    def download_words(self) -> int:
        return sum(ref.words for ref in self.reference.values())

    def cpu_and_rss(self, ops: List[Op]) -> Tuple[float, float]:
        """(CPU seconds per 1000 source lines, peak RSS in MB) of the
        compiling interpreter."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        lines = sum(op.lines for op in ops)
        return typical_total(ops, "cpu") / lines * 1000.0, usage.ru_maxrss / 1024.0

    def headline(self, ops: List[Op]) -> Dict[str, float]:
        """compile/fill/noedit medians and the p95, per workload."""
        raise NotImplementedError

    def layer_values(self, rounds: int) -> Dict[str, float]:
        """Per-layer metrics only the workload can know (traced run)."""
        return {}

    def end_to_end(self, ops: List[Op]) -> Dict[str, float]:
        cpu_per_kline, peak_rss = self.cpu_and_rss(ops)
        values = self.headline(ops)
        values.update(
            lines_per_s=sum(op.lines for op in ops) / typical_total(ops, "wall"),
            cpu_s_per_kline=cpu_per_kline,
            peak_rss_mb=peak_rss,
            sim_cycles=self.sim_cycles,
            download_words=self.download_words,
        )
        return values


def by_kind(ops: List[Op], field: str = "wall") -> Dict[str, List[float]]:
    groups: Dict[str, List[float]] = {}
    for op in ops:
        groups.setdefault(op.kind, []).append(getattr(op, field))
    return groups


def typical_total(ops: List[Op], field: str) -> float:
    """The ops' summed seconds with each op counted at the median of its
    kind, so one stalled op does not move a throughput figure."""
    return sum(len(values) * median(values) for values in by_kind(ops, field).values())


# ---------------------------------------------------------------------------
# cold_loopnest / cold_branchy: cold, in-process SequentialCompiler.
# ---------------------------------------------------------------------------


class ColdWorkload(Workload):
    def programs(self) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def check_probes(self) -> None:
        raise NotImplementedError

    def set_up(self) -> None:
        self.sources = self.programs()
        for name, source in self.sources:
            self.take_reference(name, source)
        self.check_probes()

    def round(self) -> List[Op]:
        order = list(self.sources)
        self.rng.shuffle(order)
        return [
            self.op(
                name,
                name,
                lambda name=name, source=source: SequentialCompiler()
                .compile(source, f"{name}.w2")
                .digest,
            )
            for name, source in order
        ]

    def headline(self, ops: List[Op]) -> Dict[str, float]:
        # Programs differ in size by an order of magnitude, so the
        # headline is the geometric mean of the per-program medians, and
        # the tail is the slowest programs' median.
        medians = [median(walls) for walls in by_kind(ops).values()]
        p50 = geomean(medians)
        p95 = percentile(medians, 0.95)
        # Nothing is cached here, so a first compile, a recompile after
        # an edit and a recompile of unchanged source all cost the same.
        return dict(
            compile_p50_s=p50, compile_p95_s=p95, fill_p50_s=p50, noedit_p50_s=p50
        )


class ColdLoopnest(ColdWorkload):
    """The paper's own loop-nest kernels (§4.1) and its user program."""

    name = "cold_loopnest"

    def programs(self) -> List[Tuple[str, str]]:
        if self.smoke:
            return [
                ("s2_small", synthetic_program("small", 2)),
                ("s1_medium", synthetic_program("medium", 1)),
            ]
        return [
            ("s2_large", synthetic_program("large", 2)),
            ("s1_huge", synthetic_program("huge", 1)),
            ("s4_medium", synthetic_program("medium", 4)),
            ("mech_eng", user_program()),
        ]

    def check_probes(self) -> None:
        self.check_kernel_probe()


class ColdBranchy(ColdWorkload):
    """Branchy multi-function modules: time spread over many small
    functions, calls, ``if``/``while``, one or two sections each."""

    name = "cold_branchy"

    def generated(self, seed: int):
        return generate_program(seed, config_for_size_class("large"))

    def programs(self) -> List[Tuple[str, str]]:
        seeds = BRANCHY_SEEDS[1:4] if self.smoke else BRANCHY_SEEDS
        return [(f"fz{seed}", self.generated(seed).source) for seed in seeds]

    def check_probes(self) -> None:
        seeds = BRANCHY_PROBE_SEEDS[1:2] if self.smoke else BRANCHY_PROBE_SEEDS
        for seed in seeds:
            program = self.generated(seed)
            # The generator's own input stream: cycle counts of branchy
            # code depend on the data, and sim_cycles must not.
            self.check_probe(f"probe_fz{seed}", program.source, program.inputs())


# ---------------------------------------------------------------------------
# warm_edit: the edit-compile loop through all three on-disk tiers.
# ---------------------------------------------------------------------------


class WarmEdit(Workload):
    """One session: 1 fill, ``EDITS`` one-edit compiles, ``NO_EDITS``
    no-edit recompiles, on a fresh cache root.  Every op builds new cache
    handles and a new compiler and clears the phase-1 memo first — one
    ``warpcc compile`` per save."""

    name = "warm_edit"
    EDITS = 3
    NO_EDITS = 3

    bytes_on_disk = 0

    def set_up(self) -> None:
        functions, size_class, edits = (
            (4, "small", 2) if self.smoke else (8, "medium", self.EDITS)
        )
        steps = plan_edit_session(
            EditSessionSpec(
                seed=self.rng.randrange(1 << 30),
                edits=edits + 1,
                functions=functions,
                size_class=size_class,
                module_name="warm_edit",
            )
        )
        self.steps = [(f"step{step.index}", step.source) for step in steps]
        for key, source in self.steps:
            self.take_reference(key, source)
        # The probe goes through the cache tiers too (fill, then fully
        # warm): what the tiers hand back must be the module that ran
        # correctly on warpsim.  It also warms the cache code paths.
        key, source = self.check_kernel_probe()
        if key in self.reference:
            self.checks_attempted += 1
            root = self.cache_root()
            try:
                for _ in range(2):
                    digest = self.cached_compile(root, source, key)
                    if digest != self.reference[key].digest:
                        self.fail_check("probe through caches: digest differs")
                        break
            finally:
                shutil.rmtree(root, ignore_errors=True)

    def cache_root(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.scratch)

    @staticmethod
    def cached_compile(root: str, source: str, key: str) -> str:
        clear_phase1_cache()
        compiler = ParallelCompiler(
            cache=ArtifactCache(root),
            parse_cache=ParseCache(root),
            link_cache=LinkCache(root),
        )
        return compiler.compile(source, f"{key}.w2").digest

    def round(self) -> List[Op]:
        root = self.cache_root()
        try:
            kinds = ["fill"] + ["one_edit"] * (len(self.steps) - 1)
            ops = [
                self.op(kind, key, lambda s=source, k=key: self.cached_compile(root, s, k))
                for kind, (key, source) in zip(kinds, self.steps)
            ]
            key, source = self.steps[-1]
            for _ in range(self.NO_EDITS):
                ops.append(
                    self.op(
                        "no_edit", key, lambda: self.cached_compile(root, source, key)
                    )
                )
            self.bytes_on_disk = (
                ArtifactCache(root).size_bytes()
                + ParseCache(root).size_bytes()
                + LinkCache(root).size_bytes()
            )
            return ops
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def headline(self, ops: List[Op]) -> Dict[str, float]:
        walls = by_kind(ops)
        return dict(
            compile_p50_s=median(walls["one_edit"]),
            compile_p95_s=percentile(walls["one_edit"], 0.95),
            fill_p50_s=median(walls["fill"]),
            noedit_p50_s=median(walls["no_edit"]),
        )

    def layer_values(self, rounds: int) -> Dict[str, float]:
        return {"cache.bytes_on_disk": self.bytes_on_disk}


# ---------------------------------------------------------------------------
# serve_mix: through `warpcc serve`, closed loop, one client, one tenant.
# ---------------------------------------------------------------------------


class ServeMix(Workload):
    """Closed loop because ``warpcc submit`` callers wait for their
    reply.  ``--no-cache`` so every job really compiles; caches are
    warm_edit's business.  A round is one deck of 20 jobs with the fixed
    class mix, modules and order drawn by seed."""

    name = "serve_mix"

    def __init__(self, seed: int, smoke: bool, scratch: Path, in_process: bool):
        super().__init__(seed, smoke, scratch)
        #: the traced run hosts the service in this interpreter over
        #: loopback with a SerialBackend, so the wrappers see queue, wire
        #: and worker-side calls; the untraced run uses the real thing.
        self.in_process = in_process
        self.process: Optional[subprocess.Popen] = None
        self.thread: Optional[threading.Thread] = None
        self.client: Optional[ServiceClient] = None
        #: (client-side latency, job document) of the traced jobs, and
        #: what the ``status`` verb counted over the traced rounds
        self.jobs: List[Tuple[float, dict]] = []
        self.counted: Counter = Counter()
        self.lines_sent = 0
        self.children_cpu = 0.0
        self.children_rss_mb = 0.0

    def set_up(self) -> None:
        self.catalogue: Dict[str, List[Tuple[str, str]]] = {}
        per_class = 2 if self.smoke else SERVE_MODULES_PER_CLASS
        for size_class, functions, _jobs in SERVE_DECK:
            modules = []
            for index in range(per_class):
                name = f"mix_{size_class}_{index}"
                source = synthetic_program(size_class, functions, module_name=name)
                self.take_reference(name, source)
                modules.append((name, source))
            self.catalogue[size_class] = modules
        self.deck = [
            (size_class, jobs // 3 if self.smoke else jobs)
            for size_class, _functions, jobs in SERVE_DECK
        ]
        key, source = self.check_kernel_probe()
        self.start_server()
        if key in self.reference:
            # The server must reproduce the module that ran on warpsim.
            self.checks_attempted += 1
            if not self.submit(key, key, source).ok:
                self.fail_check("probe through the service failed")
        self.round()  # warm-up deck: worker start, imports, first parses

    def start_server(self) -> None:
        if self.in_process:
            service = CompileService(SerialBackend(), None)
            server = ServiceSocketServer(service)
            self.thread = threading.Thread(
                target=server.serve_until_shutdown, name="bench-serve"
            )
            self.thread.start()
            address = server.address
        else:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--workers", str(SERVE_WORKERS), "--no-cache",
                ],
                cwd=ROOT,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            banner = self.process.stdout.readline()
            match = BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"no service banner, got {banner!r}")
            address = match.group(1)
        self.client = ServiceClient(address, timeout=SERVE_JOB_TIMEOUT)

    def submit(self, kind: str, key: str, source: str) -> Op:
        def job_digest() -> Optional[str]:
            t0 = time.perf_counter()
            job = self.client.submit_and_wait(
                source,
                tenant="bench",
                filename=f"{key}.w2",
                timeout=SERVE_JOB_TIMEOUT,
            )
            if self.recorder is not None:
                self.jobs.append((time.perf_counter() - t0, job))
            # Rejected, failed, cancelled and timed-out jobs have no
            # digest, so they fail the check below.
            return job.get("digest") if job["state"] == "done" else None

        self.lines_sent += self.reference[key].lines
        return self.op(kind, key, job_digest)

    def round(self) -> List[Op]:
        deck = [
            (size_class, *self.rng.choice(self.catalogue[size_class]))
            for size_class, jobs in self.deck
            for _ in range(jobs)
        ]
        self.rng.shuffle(deck)
        before = self.status() if self.recorder is not None else None
        ops = [self.submit(cls, name, source) for cls, name, source in deck]
        if before is not None:
            after = self.status()
            for key in STATUS_COUNTERS.values():
                self.counted[key] += after[key] - before[key]
            self.counted["capacity"] += (
                after["elapsed"] - before["elapsed"]
            ) * after["workers"]
        return ops

    def status(self) -> dict:
        return self.client.status()["stats"]

    def tear_down(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown(drain=True)
            except OSError as error:
                self.problems.append(f"shutdown: {error!r}")
        if self.thread is not None:
            self.thread.join(timeout=30)
            if self.thread.is_alive():
                self.problems.append("in-process server did not stop")
        if self.process is not None:
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                self.problems.append("server had to be killed")
            self.process.stdout.close()
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            self.children_cpu = usage.ru_utime + usage.ru_stime
            self.children_rss_mb = usage.ru_maxrss / 1024.0

    def cpu_and_rss(self, ops: List[Op]) -> Tuple[float, float]:
        # CPU of server and workers over the server's whole life per
        # 1000 lines of every job sent, warm-up included; peak RSS of the
        # largest of them.  Both are known once the server has exited.
        cpu = self.children_cpu * self.speed.factor_overall()
        return cpu / self.lines_sent * 1000.0, self.children_rss_mb

    def headline(self, ops: List[Op]) -> Dict[str, float]:
        walls = [op.wall for op in ops]
        p50 = median(walls)
        return dict(
            compile_p50_s=p50,
            compile_p95_s=percentile(walls, 0.95),
            fill_p50_s=p50,  # --no-cache: every job is a first compile
            noedit_p50_s=p50,
        )

    def layer_values(self, rounds: int) -> Dict[str, float]:
        """Where a job's client-side latency went, from its document, and
        the ``status`` verb's counters per round."""
        waits, runs, wires = [], [], []
        for latency, job in self.jobs:
            if job["state"] != "done":
                continue
            waits.append(job["started_at"] - job["submitted_at"])
            runs.append(job["finished_at"] - job["started_at"])
            wires.append(latency - (job["finished_at"] - job["submitted_at"]))
        values = {
            "service.queue_wait_p50_s": median(waits),
            "service.run_p50_s": median(runs),
            "service.wire_overhead_p50_s": median(wires),
            "service.utilization": (
                self.counted["busy_worker_seconds"] / self.counted["capacity"]
            ),
        }
        for name, key in STATUS_COUNTERS.items():
            values[name] = self.counted[key] / rounds
        return values


def make(name: str, seed: int, smoke: bool, scratch: Path, traced: bool) -> Workload:
    if name == ServeMix.name:
        return ServeMix(seed, smoke, scratch, in_process=traced)
    by_name = {cls.name: cls for cls in (ColdLoopnest, ColdBranchy, WarmEdit)}
    return by_name[name](seed, smoke, scratch)
