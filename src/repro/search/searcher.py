"""The optimization-variant search engine (``warpcc search``).

The paper's machinery makes this almost free: function masters are pure
functions of (source, config), the artifact cache memoizes them, and
phase 4 is a pure recombination of their sealed results.  The search
exploits all three —

1. compile the module once per config in the variant space (each
   compile rides the normal :class:`ParallelCompiler` surface: warm
   pools, supervision, fabric, every cache tier — budgets are already
   part of the artifact fingerprints, so warm searches skip straight to
   linking);
2. establish the **baseline**: the reference-config module, simulated
   on the scoring inputs (if the baseline itself fails to simulate the
   search abstains and ships it unchanged — there is no semantic
   signature to judge variants against);
3. for every (function, non-reference config) pair, build the *swap
   module* — the baseline with exactly that one function replaced —
   and score it in warpsim.  Scores are memoized in the
   :class:`~repro.cache.variant_store.VariantStore` keyed by (function
   fingerprint, config, input digest).  A variant whose assembled code
   is bit-identical to the baseline's (equal payload digests) is
   skipped outright; one that
   fails to simulate or changes the observed outputs is disqualified;
4. pick each function's winner: minimum (cycles, config index) over
   the baseline and every surviving variant — strictly-better-or-
   reference, ties break toward the earlier config, so the outcome is
   a pure function of (source, space, inputs);
5. recombine the winners into one module and **verify** it end-to-end:
   the winner module must reproduce the baseline outputs and take no
   more cycles than the baseline, else the search ships the baseline.
   This final gate is what makes cached scores safe: a stale or
   poisoned score can waste a measurement, never ship a slower or
   wrong module.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..asmlink.download import module_digest, module_size_words
from ..cache import compiler_salt, module_fingerprints, variant_key
from ..cache.variant_store import VariantScore, VariantStore
from ..driver.function_master import FunctionTaskResult, phase1_cached
from ..driver.master import ParallelCompiler
from ..driver.phases import ParsedProgram, phase4_link_and_download
from ..driver.results import CompilationResult
from ..machine.warp_array import WarpArrayModel
from ..options import CompileOptions
from ..warpsim.scoring import (
    DEFAULT_SCORE_MAX_CYCLES,
    ModuleScore,
    input_set_digest,
    score_module,
    seeded_input_sets,
)
from .space import VariantConfig, VariantSpace, default_space

Number = Union[int, float]
FnKey = Tuple[str, str]  # (section name, function name)

#: Makes a compiler for one config.  The default shares the caller's
#: backend and cache tiers across every config; tests substitute this to
#: inject miscompiles or count compiles.
CompilerFactory = Callable[[VariantConfig], ParallelCompiler]


@dataclass
class SearchOutcome:
    """Everything ``warpcc search`` knows when it finishes — the one
    record of a search's results (the compile reports carry none)."""

    #: what ships: the winner module when verified, else the baseline.
    result: CompilationResult
    #: the reference-config compile the search measured against.
    baseline: CompilationResult
    #: per-function winning config key (reference key when no variant won).
    winners: Dict[FnKey, str] = field(default_factory=dict)
    #: (section, function, config key) per category, in search order.
    simulated: List[Tuple[str, str, str]] = field(default_factory=list)
    cached: List[Tuple[str, str, str]] = field(default_factory=list)
    identical: List[Tuple[str, str, str]] = field(default_factory=list)
    disqualified: List[Tuple[str, str, str]] = field(default_factory=list)
    baseline_cycles: Optional[int] = None
    module_cycles: Optional[int] = None
    #: per-function simulated cycles of the module with that function's
    #: winner swapped in (the baseline's cycles for a reference winner).
    cycles: Dict[FnKey, int] = field(default_factory=dict)
    #: False when the final whole-module re-simulation rejected the
    #: winner (or the baseline itself would not simulate) and the
    #: baseline shipped instead.
    verified: bool = False
    #: why the search abstained entirely (baseline simulation failure);
    #: None whenever variants were actually judged.
    abstained: Optional[str] = None
    input_digest: str = ""
    space_keys: List[str] = field(default_factory=list)

    @property
    def cycles_saved(self) -> int:
        if self.baseline_cycles is None or self.module_cycles is None:
            return 0
        return self.baseline_cycles - self.module_cycles

    def wins(self) -> Dict[str, int]:
        """Config key -> how many functions it won."""
        return dict(sorted(Counter(self.winners.values()).items()))

    def report_lines(self) -> List[str]:
        """The search's text report: a summary line, each function's
        winner and cycles, and why the baseline shipped if it did."""
        wins = ", ".join(
            f"{key} x{count}" for key, count in self.wins().items()
        )
        lines = [
            f"search: {len(self.space_keys)} config(s), "
            f"baseline {self.baseline_cycles or 0} cycles -> "
            f"{self.module_cycles or 0} cycles "
            f"(saved {self.cycles_saved}); "
            f"{len(self.simulated)} simulated, {len(self.cached)} cached, "
            f"{len(self.identical)} identical, "
            f"{len(self.disqualified)} disqualified"
            + (f"; wins: {wins}" if wins else "")
        ]
        lines.extend(
            f"  {section}.{name}: {key} ~{self.cycles[section, name]} cycles"
            for (section, name), key in self.winners.items()
        )
        if self.abstained:
            lines.append(
                "search abstained (baseline failed to simulate: "
                f"{self.abstained}); shipping the standard compile"
            )
        elif not self.verified:
            lines.append(
                "search winners failed whole-module verification; "
                "shipping the baseline"
            )
        return lines

    def to_dict(self) -> Dict:
        """The ``search`` block of ``warpcc search --json``: every number
        the text report prints."""
        return {
            "verified": self.verified,
            "abstained": self.abstained,
            "space": self.space_keys,
            "input_digest": self.input_digest,
            "baseline_cycles": self.baseline_cycles,
            "module_cycles": self.module_cycles,
            "cycles_saved": self.cycles_saved,
            "winners": {
                f"{section}.{name}": key
                for (section, name), key in sorted(self.winners.items())
            },
            "cycles": {
                f"{section}.{name}": cycles
                for (section, name), cycles in sorted(self.cycles.items())
            },
            "wins": self.wins(),
            "variants": {
                "simulated": len(self.simulated),
                "cached": len(self.cached),
                "identical": len(self.identical),
                "disqualified": len(self.disqualified),
            },
        }


Sealed = Dict[str, List[FunctionTaskResult]]


def _results_by_section(result: CompilationResult) -> Sealed:
    """Section name -> sealed results, preserving source order."""
    grouped: Sealed = {}
    for sealed in result.results:
        grouped.setdefault(sealed.section_name, []).append(sealed)
    return grouped


def _swap(
    results: Sealed, section_name: str, replacement: FunctionTaskResult
) -> Sealed:
    """A copy of ``results`` with one function replaced in place."""
    swapped = dict(results)
    swapped[section_name] = [
        replacement if sealed.key == replacement.key else sealed
        for sealed in results[section_name]
    ]
    return swapped


def _link(
    parsed: ParsedProgram,
    results: Sealed,
    array: WarpArrayModel,
    diagnostics_text: str,
):
    module, _, _ = phase4_link_and_download(
        parsed, results, array, diagnostics_text
    )
    return module


def search_module(
    source_text: str,
    filename: str = "<input>",
    space: Optional[VariantSpace] = None,
    input_sets: Optional[Sequence[Sequence[Number]]] = None,
    input_seed: int = 0,
    options: CompileOptions = CompileOptions(),
    backend=None,
    cache=None,
    variant_store: Optional[VariantStore] = None,
    max_cycles: int = DEFAULT_SCORE_MAX_CYCLES,
    compiler_factory: Optional[CompilerFactory] = None,
) -> SearchOutcome:
    """Compile ``source_text`` under every config in ``space``, score the
    variants in warpsim, and ship the verified per-function winners.

    ``input_sets`` are the recorded scoring inputs; when None, a
    deterministic synthetic set derived from ``input_seed`` is used.
    ``options`` are the base every config of the space is applied to
    (the cell count).
    The shipped module's digest is a pure function of (source, space,
    inputs): independent of backend, submission order, and cache state.
    """
    space = space if space is not None else default_space()
    array = WarpArrayModel(cell_count=options.cell_count)
    if input_sets is None:
        input_sets = seeded_input_sets(input_seed)
    input_sets = [list(s) for s in input_sets]
    input_digest = input_set_digest(input_sets)
    # By default every config shares the caller's backend and cache.
    factory = compiler_factory or (
        lambda config: ParallelCompiler(
            backend, config.options(options), cache=cache
        )
    )

    # One compile wave per config.  The fabric hub dedups first-result-
    # wins per (section, function) within a wave, so variants of one
    # function must never share a wave — whole-module waves guarantee it.
    results: Dict[str, CompilationResult] = {}
    for config in space:
        results[config.key()] = factory(config).compile(source_text, filename)
    baseline = results[space.reference.key()]

    parsed, _ = phase1_cached(source_text, filename)
    baseline_results = _results_by_section(baseline)

    outcome = SearchOutcome(
        result=baseline,
        baseline=baseline,
        input_digest=input_digest,
        space_keys=space.keys(),
    )

    baseline_score = score_module(
        baseline.download, input_sets, array, max_cycles
    )
    if not baseline_score.ok:
        # No semantic signature to judge against: abstain, ship baseline.
        outcome.abstained = baseline_score.error
        return outcome
    outcome.baseline_cycles = baseline_score.cycles

    # Reference-config fingerprints identify the function *body*; the
    # config under measurement is a separate key component.
    base_fps = module_fingerprints(
        parsed.module, space.reference.options(options), salt=compiler_salt(),
        texts=parsed.fingerprint_texts,
    )

    sealed_index: Dict[str, Dict[FnKey, FunctionTaskResult]] = {
        key: {sealed.key: sealed for sealed in result.results}
        for key, result in results.items()
    }

    # candidates[fn] = list of (cycles, config index, config key)
    candidates: Dict[FnKey, List[Tuple[int, int, str]]] = {}
    for fn_key in [sealed.key for sealed in baseline.results]:
        section_name, function_name = fn_key
        base = sealed_index[space.reference.key()][fn_key]
        entries: List[Tuple[int, int, str]] = [
            (baseline_score.cycles, 0, space.reference.key())
        ]
        for index, config in enumerate(space):
            if index == 0:
                continue
            config_key = config.key()
            variant = sealed_index[config_key].get(fn_key)
            if variant is None:  # partial build at this config
                outcome.disqualified.append((*fn_key, config_key))
                continue
            if variant.payload_digest == base.payload_digest:
                outcome.identical.append((*fn_key, config_key))
                continue
            score = _score_variant(
                outcome,
                variant_store,
                base_fps[fn_key],
                config_key,
                input_digest,
                parsed,
                baseline_results,
                section_name,
                variant,
                array,
                baseline.diagnostics_text,
                input_sets,
                max_cycles,
                fn_key,
            )
            if (
                not score.ok
                or score.outputs != baseline_score.outputs
            ):
                outcome.disqualified.append((*fn_key, config_key))
                continue
            entries.append((score.cycles, index, config_key))
        candidates[fn_key] = entries

    for fn_key, entries in candidates.items():
        cycles, _, config_key = min(entries)
        outcome.winners[fn_key] = config_key
        outcome.cycles[fn_key] = cycles

    changed = {
        fn_key: key
        for fn_key, key in outcome.winners.items()
        if key != space.reference.key()
    }
    if changed:
        final_results = dict(baseline_results)
        for fn_key, config_key in changed.items():
            final_results = _swap(
                final_results, fn_key[0], sealed_index[config_key][fn_key]
            )
        final_module = _link(
            parsed, final_results, array, baseline.diagnostics_text
        )
        final_score = score_module(
            final_module, input_sets, array, max_cycles
        )
        verified = (
            final_score.ok
            and final_score.outputs == baseline_score.outputs
            and final_score.cycles <= baseline_score.cycles
        )
        if verified:
            outcome.verified = True
            outcome.module_cycles = final_score.cycles
            flat = [
                sealed
                for section in parsed.module.sections
                for sealed in final_results[section.name]
            ]
            # A winner's report comes from its config's compile, so
            # bundles and IIs describe the code that ships.
            shipped = {
                report.key: report
                for key in set(changed.values())
                for report in results[key].profile.functions
                if changed.get(report.key) == key
            }
            outcome.result = CompilationResult(
                module_name=baseline.module_name,
                download=final_module,
                digest=module_digest(final_module),
                diagnostics_text=baseline.diagnostics_text,
                profile=replace(
                    baseline.profile,
                    functions=[
                        shipped.get(report.key, report)
                        for report in baseline.profile.functions
                    ],
                    download_words=module_size_words(final_module),
                ),
                results=flat,
            )
        else:
            # Interaction between winners broke the per-swap prediction:
            # ship the baseline, report every winner as the reference.
            for fn_key in outcome.winners:
                outcome.winners[fn_key] = space.reference.key()
                outcome.cycles[fn_key] = baseline_score.cycles
            outcome.module_cycles = baseline_score.cycles
    else:
        # Every function kept the reference config; the baseline module
        # *is* the winner module, already simulated and trivially valid.
        outcome.verified = True
        outcome.module_cycles = baseline_score.cycles
    return outcome


def _score_variant(
    outcome: SearchOutcome,
    variant_store: Optional[VariantStore],
    base_fingerprint: str,
    config_key: str,
    input_digest: str,
    parsed: ParsedProgram,
    baseline_results: Sealed,
    section_name: str,
    variant: FunctionTaskResult,
    array: WarpArrayModel,
    diagnostics_text: str,
    input_sets: List[List[Number]],
    max_cycles: int,
    fn_key: FnKey,
) -> VariantScore:
    """One (function, config) measurement, memoized in the store."""
    store_key = None
    if variant_store is not None:
        store_key = variant_key(base_fingerprint, config_key, input_digest)
        cached = variant_store.get(store_key)
        if cached is not None and cached.config_key == config_key:
            outcome.cached.append((*fn_key, config_key))
            return cached
    try:
        swap_module = _link(
            parsed,
            _swap(baseline_results, section_name, variant),
            array,
            diagnostics_text,
        )
    except Exception as exc:  # noqa: BLE001 - a variant that won't link loses
        score = VariantScore(
            config_key=config_key,
            cycles=None,
            outputs=None,
            error=f"link: {exc!r}",
        )
    else:
        measured: ModuleScore = score_module(
            swap_module, input_sets, array, max_cycles
        )
        score = VariantScore(
            config_key=config_key,
            cycles=measured.cycles,
            outputs=measured.outputs,
            error=measured.error,
        )
    outcome.simulated.append((*fn_key, config_key))
    if variant_store is not None and store_key is not None:
        try:
            variant_store.put(store_key, score)
        except Exception:  # noqa: BLE001 - cache write is best-effort
            pass
    return score
