"""Differential oracle: one module, every pipeline, one verdict.

The sequential compiler is ground truth (the paper's own validation
strategy — recombined parallel output must be bit-identical to it, §3.2;
Jangda's parallel-parsing work and ComPar's multi-configuration harness
validate the same way).  The oracle compiles a module through every
registered pipeline variant and classifies any disagreement:

- ``digest``      — a pipeline's download module is not bit-identical;
- ``diagnostic``  — a pipeline reports different diagnostics;
- ``semantic``    — the compiled module, executed on the Warp simulator,
  disagrees with the reference AST interpreter;
- ``crash``       — a pipeline raised instead of compiling.

Pipeline variants (the matrix):

========================  ==================================================
``sequential``            :class:`~repro.driver.sequential.SequentialCompiler`
``parallel``              master/section/function hierarchy, in-process
``warm-pool``             persistent multiprocess warm-worker farm
``fabric``                distributed fabric: a loopback hub plus two
                          in-process worker-node agents behind
                          :class:`~repro.fabric.hub.RemoteBackend`
``cache``                 cache-cold then cache-warm compile, shared store
``phase1``                incremental front end (boundary scan, per-function
                          parse+sema, parse cache), cold then warm
``supervised``            deadline/hedge/quarantine supervision, no faults
``chaos``                 supervision over seeded crash/hang/corrupt faults
``search``                optimization-variant search: cold + warm runs must
                          agree, the winner module must be reproducible by
                          direct compilation at the winning configs, and the
                          shipped module must match the baseline's simulated
                          outputs at no more cycles
``predict``               watch-mode speculation: a compile service with an
                          artifact cache speculatively precompiles the
                          module, then a compile sharing its artifact cache
                          must be served from cache and still match the
                          sequential digest bit-for-bit
========================  ==================================================

The ``cache`` variant additionally asserts version isolation: after the
warm run it re-fingerprints the module under a bumped compiler salt and
verifies the cache serves *zero* cross-version entries.

The oracle also carries an explicit **test-only miscompile hook**
(``inject_miscompile="pipeline:function"``): when the named pipeline
compiles a module containing the named function, the observed digest is
perturbed.  It exists so the catch → minimize → corpus workflow itself
is testable end to end; nothing sets it outside tests and the CLI's
``--inject-miscompile`` testing flag.
"""

from __future__ import annotations

import importlib.util
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..asmlink.download import listing_difference, module_digest
from ..cache import (
    ArtifactCache,
    LinkCache,
    ParseCache,
    compiler_salt,
    module_fingerprints,
)
from ..driver.function_master import clear_phase1_cache
from ..driver.master import ParallelCompiler
from ..driver.sequential import SequentialCompiler
from ..lang.diagnostics import CompileError, DiagnosticSink
from ..lang.parser import parse_text
from ..lang.sema import check_module
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from ..parallel.fault_schedule import FaultSchedule
from ..parallel.fault_tolerance import ChaosBackend
from ..parallel.local import SerialBackend
from ..parallel.supervisor import SupervisedBackend
from ..warpsim.array_runner import run_module
from .generator import GeneratedProgram, config_for_size_class, generate_program

#: All pipeline variants, in the order they are checked.
ALL_PIPELINES: Tuple[str, ...] = (
    "sequential",
    "parallel",
    "warm-pool",
    "fabric",
    "cache",
    "phase1",
    "phase4",
    "supervised",
    "chaos",
    "search",
    "predict",
)

#: The in-process subset — safe anywhere: no worker processes spawned,
#: no sockets opened (``fabric`` runs loopback TCP; ``warm-pool`` forks).
#: ``search`` is also excluded: it compiles the module once per variant
#: config plus one simulation per candidate — the dedicated CI search
#: job and ``--pipelines all`` cover it.  ``predict`` spins up a full
#: compile service (threads, watch speculation) per check — the
#: dedicated CI predict job runs it.
DEFAULT_PIPELINES: Tuple[str, ...] = tuple(
    name
    for name in ALL_PIPELINES
    if name not in ("warm-pool", "fabric", "search", "predict")
)

MISMATCH_KINDS = ("digest", "diagnostic", "semantic", "crash")


@dataclass
class Mismatch:
    """One classified disagreement between pipelines."""

    kind: str  # one of MISMATCH_KINDS
    pipeline: str
    detail: str

    def describe(self) -> str:
        return f"[{self.kind}] {self.pipeline}: {self.detail}"


@dataclass
class PipelineOutcome:
    pipeline: str
    digest: Optional[str] = None
    diagnostics: Optional[str] = None
    error: Optional[str] = None


@dataclass
class OracleReport:
    """Everything the oracle observed for one module."""

    source: str
    inputs: List[float]
    outcomes: List[PipelineOutcome] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)
    reference_outputs: Optional[List[float]] = None
    executed_outputs: Optional[List[float]] = None
    semantic_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def kinds(self) -> List[str]:
        return sorted({m.kind for m in self.mismatches})

    def describe(self) -> List[str]:
        if self.ok:
            return ["all pipelines agree"]
        return [m.describe() for m in self.mismatches]


@dataclass
class OracleConfig:
    pipelines: Sequence[str] = DEFAULT_PIPELINES
    options: CompileOptions = CompileOptions()
    #: semantic check: execute on warpsim vs the reference interpreter
    #: (tests/reference_interp.py); silently skipped if unavailable.
    check_semantics: bool = True
    max_cycles: int = 2_000_000
    #: fuel for the reference interpreter — reduced candidates can loop
    #: forever; the trap is classified as "outside the defined corner"
    reference_max_steps: int = 200_000
    #: chaos variant: fault seed mixed with the program seed
    chaos_seed: int = 0
    #: TEST-ONLY: "pipeline:function" — perturb the named pipeline's
    #: digest when the module defines the named function.
    inject_miscompile: Optional[str] = None


def _load_reference_interpreter() -> Optional[Callable]:
    """``interpret_module`` from tests/reference_interp.py, if present.

    The reference interpreter deliberately lives with the tests (it is
    the oracle's *independent* semantics, not part of the compiler); in
    an installed-package context without the tests tree the semantic leg
    of the oracle is skipped.
    """
    try:  # running under pytest: the tests dir is on sys.path
        from reference_interp import interpret_module  # type: ignore

        return interpret_module
    except ImportError:
        pass
    candidate = (
        Path(__file__).resolve().parents[3] / "tests" / "reference_interp.py"
    )
    if not candidate.exists():
        return None
    spec = importlib.util.spec_from_file_location(
        "_warpcc_reference_interp", candidate
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.interpret_module


class DifferentialOracle:
    """Compiles one module through every pipeline variant and compares.

    Holds the expensive resources (warm worker pool, reference
    interpreter) across :meth:`check` calls so a campaign amortizes
    them; call :meth:`shutdown` (or use as a context manager) when done.
    """

    def __init__(self, config: Optional[OracleConfig] = None):
        self.config = config or OracleConfig()
        unknown = set(self.config.pipelines) - set(ALL_PIPELINES)
        if unknown:
            raise ValueError(
                f"unknown pipelines {sorted(unknown)}; "
                f"choose from {list(ALL_PIPELINES)}"
            )
        self._warm_pool = None
        self._fabric = None
        self._reference = (
            _load_reference_interpreter()
            if self.config.check_semantics
            else None
        )

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "DifferentialOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self._warm_pool is not None:
            self._warm_pool.shutdown()
            self._warm_pool = None
        if self._fabric is not None:
            hub, agents, _ = self._fabric
            for agent in agents:
                agent.stop()
            hub.close()
            self._fabric = None

    def _warm_backend(self):
        if self._warm_pool is None:
            from ..parallel.warm_pool import WarmPoolBackend

            self._warm_pool = WarmPoolBackend(max_workers=2)
        return self._warm_pool

    def _fabric_backend(self):
        """A loopback fabric — hub plus two serial-backend node agents —
        shared across checks so a campaign amortizes the TCP setup."""
        if self._fabric is None:
            from ..fabric import FabricHub, RemoteBackend, WorkerNodeAgent

            hub = FabricHub(lease_ttl=5.0, heartbeat_interval=0.5)
            agents = [
                WorkerNodeAgent(
                    hub.address,
                    SerialBackend(),
                    node_id=f"oracle-node-{i}",
                ).start()
                for i in range(2)
            ]
            if not hub.wait_for_nodes(2, timeout=10.0):
                raise OracleInvariantError(
                    "fabric nodes failed to register with the hub"
                )
            self._fabric = (hub, agents, RemoteBackend(hub))
        return self._fabric[2]

    # -- compilation legs ---------------------------------------------

    def _array(self) -> WarpArrayModel:
        return WarpArrayModel(cell_count=self.config.options.cell_count)

    def _compile_sequential(self, source: str):
        return SequentialCompiler(self.config.options).compile(source)

    def _compile_variant(self, name: str, source: str, seed: int):
        """One run of pipeline ``name``; returns the CompilationResult (a
        cold-then-warm leg returns the warm run)."""
        options = self.config.options

        def over(make_backend):
            return lambda: ParallelCompiler(make_backend(), options).compile(
                source
            )

        def cold_then_warm(*row):
            return lambda: self._cold_then_warm(source, *row)

        # A cold-then-warm row: the tiers the compiler opens, how a
        # digest divergence names the pair, what runs before each
        # compile, what the warm run must show.
        builders = {
            "parallel": over(SerialBackend),
            "warm-pool": over(self._warm_backend),
            "fabric": over(self._fabric_backend),
            "cache": cold_then_warm(
                {"cache": ArtifactCache},
                "cache-warm digest diverged from cache-cold: ",
                None,
                self._warm_artifacts,
            ),
            # Drop the whole-module memo before each compile (earlier
            # legs of this check parsed the same source): both runs must
            # exercise the span-hash tier, not short-circuit above it.
            "phase1": cold_then_warm(
                {"parse_cache": ParseCache},
                "parse-cache-warm digest diverged from cold: ",
                clear_phase1_cache,
                self._warm_parse,
            ),
            "phase4": cold_then_warm(
                {"cache": ArtifactCache, "link_cache": LinkCache},
                "link-cache-warm digest diverged from cold: ",
                None,
                self._warm_module,
            ),
            "supervised": over(
                lambda: SupervisedBackend(SerialBackend(), hedge_after=None)
            ),
            "chaos": over(lambda: self._chaos_backend(seed)),
            "search": lambda: self._compile_search_variant(
                source, seed, options
            ),
            "predict": lambda: self._compile_predict_variant(source, options),
        }
        return builders[name]()

    def _chaos_backend(self, seed: int):
        schedule = FaultSchedule(
            self.config.chaos_seed ^ seed,
            {"crash": 0.25, "hang": 0.15, "corrupt": 0.15},
            budgets={"crash": 2},
            delay=0.005,
        )
        chaos = ChaosBackend(SerialBackend(), schedule, workers=3)
        # Deadlines off: under CI load a wall-clock deadline expiry
        # would add retries, making the fault replay timing-dependent.
        return SupervisedBackend(
            chaos,
            task_timeout=0,
            hedge_after=None,
            max_attempts=6,
            poison_threshold=6,
        )

    def _cold_then_warm(self, source, tiers, diverged, before, warm_must):
        """A compiler over ``tiers`` (``ParallelCompiler`` keyword ->
        store class) in a fresh directory compiles ``source`` cold, then
        warm, ``before`` running ahead of each compile.  The two digests
        must agree — a served entry must be indistinguishable from fresh
        work, which with the generic check against the sequential
        baseline pins sequential == parallel == cached — and
        ``warm_must`` then raises unless the warm run shows what the leg
        is for.  Returns the warm run."""
        with tempfile.TemporaryDirectory(prefix="warpcc-fuzz-") as tmp:
            compiler = ParallelCompiler(
                SerialBackend(),
                self.config.options,
                **{keyword: store(tmp) for keyword, store in tiers.items()},
            )
            if before is not None:
                before()
            cold = compiler.compile(source)
            cold_phase4 = compiler.last_phase4_stats
            if before is not None:
                before()
            warm = compiler.compile(source)
            if cold.digest != warm.digest:
                raise OracleInvariantError(
                    diverged + listing_difference(warm.download, cold.download)
                )
            warm_must(source, compiler, cold_phase4)
            return warm

    def _warm_artifacts(self, source, compiler, cold_phase4) -> None:
        """The warm run hits the artifact cache, and the cache serves
        nothing under another compiler salt."""
        if compiler.cache.counts["hits"] == 0:
            raise OracleInvariantError(
                "warm recompile served no artifact-cache hits"
            )
        self._assert_salt_isolation(source, compiler.cache, compiler.options)

    def _warm_parse(self, source, compiler, cold_phase4) -> None:
        """When the incremental front end ran, the warm run hit the
        parse cache."""
        if (
            compiler.last_phase1_stats.mode == "parallel"
            and compiler.parse_cache.counts["hits"] == 0
        ):
            raise OracleInvariantError(
                "warm recompile served no parse-cache hits"
            )

    def _warm_module(self, source, compiler, cold_phase4) -> None:
        """The cold run linked every section as it was recombined, so it
        was clean and left a record: the warm run must be served by it,
        with no phase 1 and no link."""
        warm_mode = compiler.last_phase1_stats.mode
        if cold_phase4.mode == "parallel" and warm_mode != "cached":
            raise OracleInvariantError(
                "fully-warm recompile was not served by the module record "
                f"(phase 1 mode {warm_mode!r})"
            )

    def _compile_search_variant(self, source: str, seed: int, options):
        """The variant-search leg, checked four ways:

        1. **determinism** — a cold search and a warm search (shared
           variant store) must pick the same winners and the same
           module digest, and the warm run must serve cached scores
           whenever the cold run simulated anything;
        2. **reproducibility** — recompiling every function directly at
           its winning config and relinking must reproduce the search's
           module bit-for-bit (the winner is a real compile, not an
           artifact of the search machinery);
        3. **semantics** — the shipped module, simulated on the scoring
           inputs, must produce exactly the baseline's outputs;
        4. **speed** — at no more simulated cycles than the baseline.

        Returns the reference-config compile so the caller's generic
        digest check still pins search's baseline == sequential.
        """
        from ..cache.variant_store import VariantStore
        from ..driver.function_master import attach_assembly
        from ..driver.phases import (
            compile_one_function,
            phase1_parse_and_check,
            phase4_link_and_download,
        )
        from ..search import VariantConfig, search_module
        from ..warpsim.scoring import score_module, seeded_input_sets

        input_sets = seeded_input_sets(seed & 0xFFFF)
        array = self._array()
        with tempfile.TemporaryDirectory(prefix="warpcc-fuzz-search-") as tmp:
            store = VariantStore(tmp)
            common = dict(
                input_sets=input_sets,
                options=options,
                variant_store=store,
                max_cycles=self.config.max_cycles,
            )
            cold = search_module(source, **common)
            warm = search_module(source, **common)
        if cold.result.digest != warm.result.digest:
            raise OracleInvariantError(
                "warm search digest diverged from cold search"
            )
        if cold.winners != warm.winners:
            raise OracleInvariantError(
                f"warm search winners {warm.winners} != "
                f"cold {cold.winners}"
            )
        if cold.simulated and not warm.cached:
            raise OracleInvariantError(
                "warm search served no cached variant scores"
            )

        outcome = warm
        if outcome.abstained is None:
            parsed = phase1_parse_and_check(source)
            reference_key = outcome.space_keys[0]
            rebuilt_results = {}
            for section in parsed.module.sections:
                sealed = []
                for fn in section.functions:
                    key = outcome.winners.get(
                        (section.name, fn.name), reference_key
                    )
                    obj, report = compile_one_function(
                        parsed,
                        section.name,
                        fn.name,
                        VariantConfig.from_key(key).options(options),
                    )
                    sealed.append(attach_assembly(obj, report))
                rebuilt_results[section.name] = sealed
            rebuilt, _, _ = phase4_link_and_download(
                parsed, rebuilt_results, array,
                outcome.result.diagnostics_text,
            )
            if module_digest(rebuilt) != outcome.result.digest:
                raise OracleInvariantError(
                    "search module is not reproducible by direct "
                    "compilation at the winning configs"
                )
            base_score = score_module(
                outcome.baseline.download, input_sets, array,
                self.config.max_cycles,
            )
            if base_score.ok:
                shipped = score_module(
                    outcome.result.download, input_sets, array,
                    self.config.max_cycles,
                )
                if not shipped.ok or shipped.outputs != base_score.outputs:
                    raise OracleInvariantError(
                        "search shipped a module that diverges "
                        "semantically from the reference-config baseline"
                    )
                if shipped.cycles > base_score.cycles:
                    raise OracleInvariantError(
                        f"search shipped a slower module "
                        f"({shipped.cycles} > {base_score.cycles} cycles)"
                    )
        return outcome.baseline

    def _compile_predict_variant(self, source: str, options):
        """Watch-mode speculation leg: a compile service with an artifact
        cache (speculation follows it) speculatively compiles the module
        off a watch update, then an in-process compile *sharing its
        artifact cache* must be served from cache and (via the caller's
        generic check) still match the sequential digest.  Compile errors
        propagate from the in-process compile so reject-parity is checked
        like any pipeline."""
        from ..service import CompileService

        with tempfile.TemporaryDirectory(prefix="warpcc-fuzz-predict-") as tmp:
            cache = ArtifactCache(tmp)
            speculated = False
            with CompileService(SerialBackend(), cache) as service:
                outcome = service.watch_update(
                    source, watch="oracle", options=options
                )
                if outcome["job"] is not None:
                    job = service.wait(outcome["job"], timeout=120.0)
                    speculated = job.state == "done"
            result = ParallelCompiler(
                SerialBackend(), options, cache=cache
            ).compile(source)
            if speculated and not result.profile.counts.get(
                "artifact_cache.hits"
            ):
                raise OracleInvariantError(
                    "compile after speculation served no cache hits"
                )
            return result

    def _assert_salt_isolation(self, source, cache, options) -> None:
        """A salted cache must never serve cross-version entries: the
        same module fingerprinted under a bumped compiler salt must miss
        on every function."""
        sink = DiagnosticSink()
        module = parse_text(source, sink)
        if sink.has_errors:
            return
        bumped = module_fingerprints(
            module, options, salt=compiler_salt() + "+next-version"
        )
        for key, fingerprint in bumped.items():
            if cache.get(fingerprint) is not None:
                raise OracleInvariantError(
                    f"cache served a cross-version entry for {key} — "
                    "the compiler salt is not isolating versions"
                )

    # -- the check ----------------------------------------------------

    def check(
        self, source: str, inputs: Optional[List[float]] = None, seed: int = 0
    ) -> OracleReport:
        """Compile ``source`` through every configured pipeline and
        classify disagreements against the sequential ground truth."""
        report = OracleReport(source=source, inputs=list(inputs or []))

        baseline = None
        baseline_error: Optional[str] = None
        try:
            baseline = self._compile_sequential(source)
            report.outcomes.append(
                PipelineOutcome(
                    "sequential",
                    digest=self._observed_digest("sequential", baseline),
                    diagnostics=baseline.diagnostics_text,
                )
            )
        except CompileError as error:
            baseline_error = "\n".join(d.render() for d in error.diagnostics)
            report.outcomes.append(
                PipelineOutcome("sequential", error=baseline_error)
            )
        except Exception as error:  # noqa: BLE001 - classified, not hidden
            report.outcomes.append(
                PipelineOutcome("sequential", error=repr(error))
            )
            report.mismatches.append(
                Mismatch("crash", "sequential", repr(error))
            )
            return report

        for name in self.config.pipelines:
            if name == "sequential":
                continue
            self._check_pipeline(
                name, source, seed, baseline, baseline_error, report
            )

        if baseline is not None and self._reference is not None:
            self._check_semantics(source, report, baseline)
        return report

    def _observed_digest(self, pipeline: str, result) -> str:
        digest = result.digest
        spec = self.config.inject_miscompile
        if spec:
            target_pipeline, _, target_fn = spec.partition(":")
            if pipeline == target_pipeline and any(
                report.name == target_fn
                for report in result.profile.functions
            ):
                digest = "miscompiled+" + digest
        return digest

    def _check_pipeline(
        self,
        name: str,
        source: str,
        seed: int,
        baseline,
        baseline_error: Optional[str],
        report: OracleReport,
    ) -> None:
        try:
            result = self._compile_variant(name, source, seed)
        except CompileError as error:
            rendered = "\n".join(d.render() for d in error.diagnostics)
            report.outcomes.append(PipelineOutcome(name, error=rendered))
            if baseline is not None:
                report.mismatches.append(
                    Mismatch(
                        "diagnostic",
                        name,
                        "pipeline rejected a module the sequential "
                        f"compiler accepted: {rendered}",
                    )
                )
            elif rendered != baseline_error:
                # Both rejected, but not identically: an aborting
                # compile must report the same errors on every pipeline.
                report.mismatches.append(
                    Mismatch(
                        "diagnostic",
                        name,
                        f"rejection diagnostics {rendered!r} != "
                        f"sequential {baseline_error!r}",
                    )
                )
            return
        except OracleInvariantError as error:
            report.outcomes.append(PipelineOutcome(name, error=str(error)))
            report.mismatches.append(Mismatch("digest", name, str(error)))
            return
        except Exception as error:  # noqa: BLE001 - classified, not hidden
            report.outcomes.append(PipelineOutcome(name, error=repr(error)))
            report.mismatches.append(Mismatch("crash", name, repr(error)))
            return

        digest = self._observed_digest(name, result)
        report.outcomes.append(
            PipelineOutcome(
                name, digest=digest, diagnostics=result.diagnostics_text
            )
        )
        if baseline is None:
            report.mismatches.append(
                Mismatch(
                    "diagnostic",
                    name,
                    "pipeline accepted a module the sequential compiler "
                    "rejected",
                )
            )
            return
        expected = self._observed_digest("sequential", baseline)
        if digest != expected:
            report.mismatches.append(
                Mismatch(
                    "digest",
                    name,
                    f"download digest {digest[:16]}… != sequential "
                    f"{expected[:16]}…: "
                    + listing_difference(result.download, baseline.download),
                )
            )
        if result.diagnostics_text != baseline.diagnostics_text:
            report.mismatches.append(
                Mismatch(
                    "diagnostic",
                    name,
                    f"diagnostics {result.diagnostics_text!r} != "
                    f"{baseline.diagnostics_text!r}",
                )
            )

    def _check_semantics(self, source, report: OracleReport, baseline) -> None:
        sink = DiagnosticSink()
        module = parse_text(source, sink)
        if not sink.has_errors:
            check_module(module, sink)
        if sink.has_errors:
            return
        try:
            expected = self._reference(
                module,
                list(report.inputs),
                self.config.reference_max_steps,
            )
        except Exception as error:  # reference trap: outside the defined
            report.outcomes.append(  # corner of the language — skip.
                PipelineOutcome("reference", error=repr(error))
            )
            return
        report.reference_outputs = expected
        report.semantic_checked = True
        try:
            outcome = run_module(
                baseline.download,
                list(report.inputs),
                array=self._array(),
                max_cycles=self.config.max_cycles,
            )
        except Exception as error:  # noqa: BLE001 - classified, not hidden
            report.mismatches.append(
                Mismatch("crash", "warpsim", repr(error))
            )
            return
        report.executed_outputs = list(outcome.outputs)
        if list(outcome.outputs) != list(expected):
            report.mismatches.append(
                Mismatch(
                    "semantic",
                    "warpsim",
                    f"executed outputs {outcome.outputs} != "
                    f"reference {expected}",
                )
            )


class OracleInvariantError(AssertionError):
    """An oracle-internal invariant (cache warmth, salt isolation) broke."""


def narrowed_config(
    config: OracleConfig, report: OracleReport
) -> OracleConfig:
    """A cheaper config that still reproduces ``report``'s mismatches:
    sequential plus only the pipelines that actually disagreed, with the
    semantic leg kept only when a semantic mismatch is present.  Used by
    the minimizer, where every candidate pays one oracle run."""
    failing = {m.pipeline for m in report.mismatches}
    pipelines = tuple(
        name
        for name in config.pipelines
        if name == "sequential" or name in failing
    ) or config.pipelines
    if "sequential" not in pipelines:
        pipelines = ("sequential",) + pipelines
    semantic = any(
        m.kind in ("semantic", "crash") and m.pipeline == "warpsim"
        for m in report.mismatches
    )
    return OracleConfig(
        pipelines=pipelines,
        options=config.options,
        check_semantics=config.check_semantics and semantic,
        max_cycles=min(config.max_cycles, 200_000),
        reference_max_steps=min(config.reference_max_steps, 50_000),
        chaos_seed=config.chaos_seed,
        inject_miscompile=config.inject_miscompile,
    )


# ---------------------------------------------------------------------------
# Campaign driver (shared by the CLI and the CI fuzz job)
# ---------------------------------------------------------------------------


@dataclass
class CampaignFailure:
    seed: int
    program: GeneratedProgram
    report: OracleReport


@dataclass
class CampaignResult:
    iterations_run: int = 0
    elapsed: float = 0.0
    failures: List[CampaignFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for failure in self.failures:
            for kind in failure.report.kinds():
                counts[kind] = counts.get(kind, 0) + 1
        return counts


def run_fuzz_campaign(
    seed: int,
    iterations: int,
    size_class: str = "small",
    oracle: Optional[DifferentialOracle] = None,
    time_budget: Optional[float] = None,
    on_iteration: Optional[Callable[[int, OracleReport], None]] = None,
    stop_on_failure: bool = True,
) -> CampaignResult:
    """Generate-and-check ``iterations`` programs starting at ``seed``.

    ``time_budget`` (seconds) bounds wall-clock for CI time-boxed runs;
    the campaign stops cleanly after the iteration that exceeds it.
    """
    generator_config = config_for_size_class(size_class)
    owned = oracle is None
    oracle = oracle or DifferentialOracle()
    result = CampaignResult()
    start = time.perf_counter()
    try:
        for index in range(iterations):
            program_seed = seed + index
            program = generate_program(program_seed, generator_config)
            report = oracle.check(
                program.source, inputs=program.inputs(), seed=program_seed
            )
            result.iterations_run += 1
            if on_iteration is not None:
                on_iteration(program_seed, report)
            if not report.ok:
                result.failures.append(
                    CampaignFailure(program_seed, program, report)
                )
                if stop_on_failure:
                    break
            if (
                time_budget is not None
                and time.perf_counter() - start > time_budget
            ):
                break
    finally:
        result.elapsed = time.perf_counter() - start
        if owned:
            oracle.shutdown()
    return result
