"""The optimization-variant search: determinism, safety, incrementality.

The search's contract is that the shipped module is a *pure function of
(source, variant space, scoring inputs)* — independent of backend,
submission order, and every cache's temperature — and that nothing it
ships can be semantically different from, or slower than, the
reference-config baseline.  These tests drive each clause:

- a 200-seed property sweep: same (seed, space, inputs) -> identical
  winner configs and module digest, cold or warm;
- backend independence (serial / warm pool / fabric / reversed
  submission order);
- cold-vs-warm VariantStore equivalence, and the 1-function-edit
  property (editing one function re-scores exactly that function);
- the safety gates: a miscompiled faster variant is disqualified, and a
  poisoned score cache cannot ship a slower or wrong module.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import pytest

from helpers import echo_module, wrap_function
from repro import CompileOptions
from repro.cache import (
    ArtifactCache,
    VariantScore,
    VariantStore,
    compiler_salt,
    module_fingerprints,
    variant_key,
)
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.machine.warp_array import WarpArrayModel
from repro.parallel.local import SerialBackend
from repro.search import (
    REFERENCE_KEY,
    SearchOutcome,
    VariantConfig,
    VariantSpace,
    default_space,
    search_module,
)
from repro.warpsim.scoring import input_set_digest, score_module

#: A compact space for the sweeps: reference, no-pipelining, unroll-16.
#: Three configs keep each search to three compiles of a tiny module.
SWEEP_SPACE_KEYS = (REFERENCE_KEY, "o2u0i1", "o2u16i0")


def sweep_space() -> VariantSpace:
    return VariantSpace.from_keys(SWEEP_SPACE_KEYS)


def seeded_kernel(seed: int) -> str:
    """A deterministic one-function module with a short constant-trip
    loop; trip count and constants vary by seed so different seeds pick
    different winners."""
    rng = random.Random(seed)
    trip = rng.randrange(2, 10)
    c1 = round(rng.uniform(0.1, 2.0), 2)
    c2 = round(rng.uniform(0.1, 1.0), 2)
    return wrap_function(
        f"""  function f(x: float, y: float) : float
  var acc, t: float; i: int;
  begin
    acc := x; t := y;
    for i := 0 to {trip} do
      acc := acc + x * {c1} + i;
      t := t * {c2} + acc;
    end;
    return acc + t;
  end"""
    )


TWO_FUNCTION = """module m2
section sec1 (cells 0..0)
  function f1(x: float, y: float) : float
  var acc, t: float; i: int;
  begin
    acc := x; t := y;
    for i := 0 to 7 do
      acc := acc + x * 0.5 + i;
      t := t * 0.75 + acc;
    end;
    return acc + t;
  end
  function f2(x: float, y: float) : float
  var acc: float; i: int;
  begin
    acc := y;
    for i := 0 to 5 do
      acc := acc + x * 0.25 - i;
    end;
    return acc;
  end
end
end
"""

#: TWO_FUNCTION with only f2's body edited (constant 0.25 -> 0.3).
TWO_FUNCTION_EDITED = TWO_FUNCTION.replace("x * 0.25", "x * 0.3")

ECHO = echo_module(
    """  var acc: float; i: int;
  begin
    acc := x;
    for i := 0 to 7 do
      acc := acc + x * 0.5;
    end;
    return acc;
  end""",
    3,
)
ECHO_INPUTS = [[1.0, 2.0, 3.0], [0.5, -1.5, 4.0]]

SEARCH_KERNEL = Path(__file__).parent.parent / "examples" / "search_kernel.w2"
#: per-function simulated cycles of ``search_kernel.w2`` at input seed 7
SEARCH_KERNEL_CYCLES = {
    "compute.decay": 1010, "compute.main": 1110, "compute.smooth": 854,
}


class TestVariantSpace:
    def test_config_key_round_trip(self):
        config = VariantConfig(2, 64, 1)
        assert config.key() == "o2u64i1"
        assert VariantConfig.from_key("o2u64i1") == config

    def test_bad_keys_are_rejected(self):
        for bad in ("", "u64", "o2u64", "o3u0i0x", "2-64-1"):
            with pytest.raises(ValueError):
                VariantConfig.from_key(bad)

    def test_reference_config_is_always_first(self):
        space = VariantSpace([VariantConfig(2, 64, 0)])
        assert space.reference.key() == REFERENCE_KEY
        assert space.keys() == [REFERENCE_KEY, "o2u64i0"]
        # even when the caller lists it later
        space = VariantSpace(
            [VariantConfig(2, 8, 0), VariantConfig(2, 0, 0)]
        )
        assert space.keys()[0] == REFERENCE_KEY

    def test_duplicates_collapse(self):
        space = VariantSpace.from_keys(
            [REFERENCE_KEY, "o2u8i0", "o2u8i0"]
        )
        assert space.keys() == [REFERENCE_KEY, "o2u8i0"]

    def test_parse_spec(self):
        space = VariantSpace.parse(" o2u0i0, o2u64i1 ")
        assert space.keys() == [REFERENCE_KEY, "o2u64i1"]
        with pytest.raises(ValueError):
            VariantSpace.parse(" , ")

    def test_default_space_shape(self):
        space = default_space()
        assert space.keys()[0] == REFERENCE_KEY
        assert len(space) == 5
        assert len(set(space.keys())) == len(space)


class TestDeterminismSweep:
    """200 seeds: winners and digest are a pure function of the inputs."""

    def test_200_seed_determinism_cold_vs_warm(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        store = VariantStore(tmp_path / "cache")
        space = sweep_space()
        non_reference_wins = 0
        for seed in range(200):
            source = seeded_kernel(seed)
            cold = search_module(
                source, filename=f"k{seed}.w", space=space,
                input_seed=seed, cache=cache, variant_store=store,
            )
            warm = search_module(
                source, filename=f"k{seed}.w", space=space,
                input_seed=seed, cache=cache, variant_store=store,
            )
            assert cold.winners == warm.winners, f"seed {seed}"
            assert cold.result.digest == warm.result.digest, f"seed {seed}"
            assert cold.abstained is None, f"seed {seed}: {cold.abstained}"
            assert warm.verified
            # warm run re-simulates nothing the cold run scored
            assert not warm.simulated, f"seed {seed}: {warm.simulated}"
            if any(k != REFERENCE_KEY for k in cold.winners.values()):
                non_reference_wins += 1
        # The sweep must actually exercise the search: a healthy space
        # beats the reference on a meaningful share of the kernels.
        assert non_reference_wins >= 20

    def test_input_seed_changes_input_digest_not_correctness(self):
        source = seeded_kernel(3)
        a = search_module(source, space=sweep_space(), input_seed=0)
        b = search_module(source, space=sweep_space(), input_seed=1)
        assert a.input_digest != b.input_digest
        assert a.verified and b.verified


class TestBackendIndependence:
    """The same search through different execution surfaces ships the
    same winners and the same bytes."""

    def _reference_outcome(self, source: str) -> SearchOutcome:
        clear_phase1_cache()
        return search_module(source, space=sweep_space(), input_seed=11)

    def test_reversed_submission_order(self):
        source = TWO_FUNCTION
        expected = self._reference_outcome(source)

        class ReversedBackend(SerialBackend):
            def run_tasks_streaming(self, tasks):
                return super().run_tasks_streaming(list(reversed(tasks)))

        def reversed_factory(config):
            return ParallelCompiler(
                ReversedBackend(), config.options(CompileOptions())
            )

        clear_phase1_cache()
        reversed_outcome = search_module(
            source, space=sweep_space(), input_seed=11,
            compiler_factory=reversed_factory,
        )
        assert reversed_outcome.winners == expected.winners
        assert reversed_outcome.result.digest == expected.result.digest

    def test_warm_pool_backend(self):
        from repro.parallel.warm_pool import WarmPoolBackend

        source = TWO_FUNCTION
        expected = self._reference_outcome(source)
        pool = WarmPoolBackend(max_workers=2)
        try:
            clear_phase1_cache()
            outcome = search_module(
                source, space=sweep_space(), input_seed=11, backend=pool
            )
        finally:
            pool.shutdown()
        assert outcome.winners == expected.winners
        assert outcome.result.digest == expected.result.digest

    def test_fabric_backend(self):
        from repro.fabric import FabricHub, RemoteBackend, WorkerNodeAgent

        source = TWO_FUNCTION
        expected = self._reference_outcome(source)
        hub = FabricHub(lease_ttl=5.0, heartbeat_interval=0.5)
        agents = [
            WorkerNodeAgent(
                hub.address, SerialBackend(), node_id=f"search-node-{i}"
            ).start()
            for i in range(2)
        ]
        try:
            assert hub.wait_for_nodes(2, timeout=10.0)
            clear_phase1_cache()
            outcome = search_module(
                source, space=sweep_space(), input_seed=11,
                backend=RemoteBackend(hub),
            )
        finally:
            for agent in agents:
                agent.stop()
            hub.close()
        assert outcome.winners == expected.winners
        assert outcome.result.digest == expected.result.digest


class TestVariantStoreIncrementality:
    def test_cold_and_warm_store_agree(self, tmp_path):
        store = VariantStore(tmp_path)
        cold = search_module(
            TWO_FUNCTION, space=sweep_space(), variant_store=store
        )
        warm = search_module(
            TWO_FUNCTION, space=sweep_space(), variant_store=store
        )
        assert cold.simulated and not cold.cached
        assert warm.cached and not warm.simulated
        assert len(warm.cached) == len(cold.simulated)
        assert cold.winners == warm.winners
        assert cold.result.digest == warm.result.digest

    def test_one_function_edit_rescores_exactly_that_function(
        self, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        store = VariantStore(tmp_path)
        space = sweep_space()
        first = search_module(
            TWO_FUNCTION, space=space, cache=cache, variant_store=store
        )
        assert {fn for (_, fn, _) in first.simulated} == {"f1", "f2"}
        second = search_module(
            TWO_FUNCTION_EDITED, space=space, cache=cache,
            variant_store=store,
        )
        # f1 is untouched: its variant scores (and compiled artifacts)
        # are served from the stores; only the edited f2 re-scores.
        rescored = {fn for (_, fn, _) in second.simulated}
        assert rescored == {"f2"}, second.simulated
        cached = {fn for (_, fn, _) in second.cached}
        assert "f1" in cached

    def test_no_store_still_deterministic(self):
        a = search_module(TWO_FUNCTION, space=sweep_space())
        b = search_module(TWO_FUNCTION, space=sweep_space())
        assert a.winners == b.winners
        assert a.result.digest == b.result.digest


class TestVariantStoreForm:
    """A score is facts: a JSON header with an empty body, read back
    through a type check — no pickle in ``variants/``."""

    SCORES = [
        VariantScore("o2u8i0", 1234, ((1, 2.0, -0.0), (), (3,)), None),
        VariantScore(
            "o2u0i1", 7, ((float("inf"), float("-inf"), 1e-320, 2**70),), None
        ),
        VariantScore("o2u64i0", None, None, "link: KeyError('f')"),
    ]

    def test_scores_round_trip_with_types_intact(self, tmp_path):
        store = VariantStore(tmp_path)
        for index, score in enumerate(self.SCORES):
            store.put(f"{index:064x}", score)
        for index, score in enumerate(self.SCORES):
            back = VariantStore(tmp_path).get(f"{index:064x}")
            assert back == score and back.ok == score.ok
            if score.outputs is None:
                continue
            assert type(back.outputs) is tuple
            for row, want in zip(back.outputs, score.outputs):
                assert type(row) is tuple
                # int stays int, float stays float, bit for bit (-0.0, a
                # denormal, the infinities) — the search compares with !=
                assert [type(v) for v in row] == [type(v) for v in want]
                assert [struct.pack("<d", v) for v in row if type(v) is float] == [
                    struct.pack("<d", v) for v in want if type(v) is float
                ]

    def test_a_nan_output_comes_back_a_nan(self, tmp_path):
        import math

        store = VariantStore(tmp_path)
        store.put("a" * 64, VariantScore("o2u8i0", 5, ((float("nan"), 1),), None))
        back = store.get("a" * 64)
        assert math.isnan(back.outputs[0][0]) and back.outputs[0][1] == 1
        assert back.outputs != ((float("nan"), 1),)  # as a fresh run's would be

    def test_an_entry_is_its_header(self, tmp_path):
        store = VariantStore(tmp_path)
        store.put("a" * 64, self.SCORES[0])
        data = store._entry_path("a" * 64).read_bytes()
        (size,) = struct.unpack_from("<I", data, 4)
        assert len(data) == 40 + size  # no body
        header = json.loads(data[40:])
        assert header["tier"] == "variants" and header["schema"] == 2
        assert header["outputs"] == [[1, 2.0, -0.0], [], [3]]

    def test_mistyped_or_pickled_entries_are_counted_misses(self, tmp_path):
        """A pickled entry left by the parent's code, and well-hashed
        facts of the wrong type, are corrupt — never an exception."""
        import pickle

        from repro.cache.store import seal_entry

        store = VariantStore(tmp_path)
        good = dict(config_key="o2u8i0", cycles=5, outputs=[[1]], error=None)
        hostile = [
            seal_entry("variants", 1, {}, pickle.dumps(self.SCORES[0])),
            seal_entry("variants", 2, {}, pickle.dumps(self.SCORES[0])),
            pickle.dumps(self.SCORES[0]),
            seal_entry("variants", 2, dict(good, cycles="5"), b""),
            seal_entry("variants", 2, dict(good, cycles=True), b""),
            seal_entry("variants", 2, dict(good, outputs=[[1, "2"]]), b""),
            seal_entry("variants", 2, dict(good, outputs=[1]), b""),
            seal_entry("variants", 2, dict(good, extra=1), b""),
            seal_entry("variants", 2, {"config_key": "o2u8i0"}, b""),
            seal_entry("variants", 2, good, b"body"),
        ]
        for index, data in enumerate(hostile, start=1):
            path = store._entry_path("b" * 64)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
            assert store.get("b" * 64) is None
            assert store.counts["corrupt"] == index and not path.exists()
        store._write("b" * 64, seal_entry("variants", 2, good, b""))
        assert store.get("b" * 64) == VariantScore("o2u8i0", 5, ((1,),), None)


class TestSafetyGates:
    def test_miscompiled_faster_variant_is_disqualified(self):
        """A variant config whose compiler miscompiles (different
        semantics) must never win: the swap-module simulation catches
        the output divergence on the scoring inputs."""

        def tampering_factory(config):
            compiler = ParallelCompiler(
                SerialBackend(), config.options(CompileOptions())
            )
            if config.key() == "o2u16i0":
                return _TamperedCompiler(compiler)
            return compiler

        outcome = search_module(
            ECHO, space=sweep_space(), input_sets=ECHO_INPUTS,
            compiler_factory=tampering_factory,
        )
        assert outcome.abstained is None
        disqualified_configs = {
            key for (_, _, key) in outcome.disqualified
        }
        assert "o2u16i0" in disqualified_configs
        assert all(
            key != "o2u16i0" for key in outcome.winners.values()
        )
        # and whatever shipped still reproduces the baseline's outputs
        array = WarpArrayModel()
        shipped = score_module(
            outcome.result.download, ECHO_INPUTS, array
        )
        base = score_module(
            outcome.baseline.download, ECHO_INPUTS, array
        )
        assert shipped.outputs == base.outputs
        assert shipped.cycles <= base.cycles

    def test_poisoned_store_cannot_ship_a_slower_module(self, tmp_path):
        """A fabricated 'amazing' cached score for a variant that is
        actually slower lures the per-function pick — the whole-module
        verification gate must reject it and ship the baseline."""
        source = wrap_function(
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
        space = VariantSpace.from_keys([REFERENCE_KEY, "o2u0i1"])
        store = VariantStore(tmp_path)
        honest = search_module(
            source, space=space, variant_store=store
        )
        # o2u0i1 is genuinely slower on this kernel (pinned in
        # test_warpsim_cycles); the honest search keeps the reference.
        assert honest.winners == {("s", "f"): REFERENCE_KEY}
        baseline_cycles = honest.baseline_cycles

        # Poison the exact cache entry the search will consult.
        from helpers import parse_ok

        module, _ = parse_ok(source)
        fps = module_fingerprints(
            module, CompileOptions(), salt=compiler_salt()
        )
        array = WarpArrayModel()
        base = score_module(honest.baseline.download, [[], []], array)
        key = variant_key(
            fps[("s", "f")], "o2u0i1", honest.input_digest
        )
        store.put(
            key,
            VariantScore(
                config_key="o2u0i1", cycles=1, outputs=base.outputs
            ),
        )

        poisoned = search_module(
            source, space=space, variant_store=store
        )
        # The lie was consumed from the store...
        assert (("s", "f", "o2u0i1")) in poisoned.cached
        # ...but the final re-simulation rejected the slower module.
        assert not poisoned.verified
        assert poisoned.result.digest == honest.baseline.digest
        assert poisoned.module_cycles == baseline_cycles
        assert poisoned.winners == {("s", "f"): REFERENCE_KEY}

    def test_abstains_when_baseline_cannot_simulate(self):
        # main() receives more values than the scoring inputs provide:
        # the baseline deadlocks, so the search abstains and ships it.
        outcome = search_module(
            ECHO, space=sweep_space(), input_sets=[[1.0]]
        )
        assert outcome.abstained is not None
        assert not outcome.verified
        assert outcome.result is outcome.baseline
        assert outcome.to_dict()["abstained"] == outcome.abstained
        assert outcome.report_lines()[-1].startswith("search abstained")


class _TamperedCompiler:
    """Wraps a compiler to compile subtly different source: a stand-in
    for a miscompiling optimization config."""

    def __init__(self, inner):
        self._inner = inner

    def compile(self, source, filename="<input>"):
        return self._inner.compile(
            source.replace("x * 0.5", "x * 0.25"), filename
        )


class TestResultSurface:
    """A search reports itself once, from its outcome; the compiler's
    reports describe a compile and nothing else."""

    def test_profile_counters_and_report_lines(self):
        outcome = search_module(TWO_FUNCTION, space=sweep_space())
        document = outcome.to_dict()
        assert document["space"] == list(SWEEP_SPACE_KEYS)
        assert document["baseline_cycles"] == outcome.baseline_cycles
        assert document["module_cycles"] == outcome.module_cycles
        assert (
            document["cycles_saved"]
            == outcome.baseline_cycles - outcome.module_cycles
        )
        assert sum(document["wins"].values()) == 2  # one per function
        assert document["variants"] == {
            "simulated": len(outcome.simulated),
            "cached": len(outcome.cached),
            "identical": len(outcome.identical),
            "disqualified": len(outcome.disqualified),
        }
        assert set(outcome.cycles) == set(outcome.winners) == {
            ("sec1", "f1"), ("sec1", "f2")
        }
        lines = outcome.report_lines()
        assert lines[0].startswith("search: 3 config(s), ")
        for (section, name), key in outcome.winners.items():
            assert key in SWEEP_SPACE_KEYS
            cycles = outcome.cycles[section, name]
            assert f"  {section}.{name}: {key} ~{cycles} cycles" in lines

    def test_search_metadata_does_not_leak_into_plain_compiles(self):
        outcome = search_module(TWO_FUNCTION, space=sweep_space())
        for result in (outcome.baseline, outcome.result):
            profile = result.to_dict()["profile"]
            assert not [key for key in profile if key.startswith("search")]
            for fn in profile["functions"]:
                assert "winner_config" not in fn
                assert "simulated_cycles" not in fn
            assert not [
                line for line in result.report_lines()
                if line.startswith("search:") or " cycles" in line
            ]

    def test_to_dict_round_trips_search_fields(self):
        outcome = search_module(TWO_FUNCTION, space=sweep_space())
        document = json.loads(json.dumps(outcome.to_dict()))
        assert document == outcome.to_dict()
        assert document["winners"] == {
            f"{section}.{name}": key
            for (section, name), key in outcome.winners.items()
        }
        assert document["cycles"] == {
            f"{section}.{name}": cycles
            for (section, name), cycles in outcome.cycles.items()
        }

    def test_winner_report_reflects_shipped_code(self):
        """Bundle counts / IIs for a non-reference winner must describe
        the winning variant's code, not the reference compile's."""
        outcome = search_module(
            TWO_FUNCTION, space=VariantSpace.from_keys(
                [REFERENCE_KEY, "o2u8i0"]
            )
        )
        winners = outcome.winners
        if all(k == REFERENCE_KEY for k in winners.values()):
            pytest.skip("no non-reference winner on this kernel")
        by_name = {
            fn.name: fn for fn in outcome.result.profile.functions
        }
        base_by_name = {
            fn.name: fn for fn in outcome.baseline.profile.functions
        }
        for (_, name), key in winners.items():
            if key == REFERENCE_KEY:
                continue
            # unrolling changes the code shape, so some scheduling
            # metric must move relative to the reference compile
            assert (
                by_name[name].bundles != base_by_name[name].bundles
                or by_name[name].initiation_intervals
                != base_by_name[name].initiation_intervals
            )


def test_identical_code_is_identical_bytes():
    """The search skips a variant whose code is the baseline's, and it
    tells by the sealed bytes (equal payload digests).  The printed
    object code says the same of every (function, config) pair of the
    default space over the search kernel, ``S_2(small)`` and eight
    generated programs: 230 pairs, both answers on each side."""
    from repro.asmlink.encode import encode_function
    from repro.driver.phases import compile_one_function, phase1_parse_and_check
    from repro.fuzz import config_for_size_class, generate_program
    from repro.workloads import synthetic_program

    programs = [SEARCH_KERNEL.read_text(), synthetic_program("small", 2)] + [
        generate_program(seed, config_for_size_class("medium")).source
        for seed in range(8)
    ]
    seen = []
    for source in programs:
        parsed = phase1_parse_and_check(source)
        for section in parsed.module.sections:
            for function in section.functions:
                base, *variants = [
                    compile_one_function(
                        parsed, section.name, function.name,
                        config.options(CompileOptions()),
                    )[0]
                    for config in default_space()
                ]
                for variant in [base, *variants]:
                    same_text = variant.digest_text() == base.digest_text()
                    same_bytes = encode_function(variant) == encode_function(base)
                    assert same_text == same_bytes, (section.name, function.name)
                    seen.append(same_bytes)
    assert len(seen) == 230
    assert True in seen and False in seen


class TestSearchCLI:
    def test_cli_search_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.w"
        path.write_text(TWO_FUNCTION)
        code = main([
            "search", str(path), "--no-cache",
            "--space", ",".join(SWEEP_SPACE_KEYS),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "search:" in out
        assert "config(s)" in out

    def test_cli_search_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.w"
        path.write_text(TWO_FUNCTION)
        code = main([
            "search", str(path), "--no-cache", "--json",
            "--space", ",".join(SWEEP_SPACE_KEYS),
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["search"]["verified"] is True
        assert document["search"]["space"] == list(SWEEP_SPACE_KEYS)
        assert set(document["search"]["winners"]) == {
            "sec1.f1", "sec1.f2"
        }
        assert (
            document["search"]["baseline_cycles"]
            >= document["search"]["module_cycles"]
        )

    def test_cli_search_json_block_is_complete(self, capsys):
        from repro.cli import main

        code = main([
            "search", str(SEARCH_KERNEL), "--input-seed", "7",
            "--no-cache", "--json",
        ])
        assert code == 0
        block = json.loads(capsys.readouterr().out)["search"]
        assert block["cycles"] == SEARCH_KERNEL_CYCLES
        assert block["variants"] == {
            "simulated": 8, "cached": 0, "identical": 4, "disqualified": 0,
        }
        assert block["wins"] == {"o2u0i0": 1, "o2u8i0": 2}
        assert (block["baseline_cycles"], block["module_cycles"]) == (
            1110, 754
        )

    def test_cli_search_report_names_every_winner(self, capsys):
        from repro.cli import main

        code = main([
            "search", str(SEARCH_KERNEL), "--input-seed", "7", "--no-cache",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        for name, cycles in SEARCH_KERNEL_CYCLES.items():
            winner = "o2u0i0" if name == "compute.main" else "o2u8i0"
            assert f"  {name}: {winner} ~{cycles} cycles" in lines

    def test_cli_search_digest_matches_api(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.w"
        path.write_text(TWO_FUNCTION)
        code = main([
            "search", str(path), "--no-cache", "--emit", "digest",
            "--space", ",".join(SWEEP_SPACE_KEYS),
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        clear_phase1_cache()
        outcome = search_module(
            TWO_FUNCTION, filename=str(path), space=sweep_space()
        )
        assert printed == outcome.result.digest.strip()

    def test_cli_compile_search_flag_delegates(self, tmp_path, capsys):
        """``warpcc search`` is the one spelling: the second door on
        ``compile`` (which ignored most of compile's own flags) is
        gone, and so are the search tuning flags it carried there."""
        from repro.cli import main

        path = tmp_path / "m.w"
        path.write_text(TWO_FUNCTION)
        for flags in (["--search"], ["--space", "o2u0i0"], ["--input-seed", "3"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["compile", str(path), "--no-cache", *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_cli_search_uses_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "m.w"
        path.write_text(TWO_FUNCTION)
        cache_dir = tmp_path / "cache"
        for _ in range(2):
            code = main([
                "search", str(path), "--cache-dir", str(cache_dir),
                "--space", ",".join(SWEEP_SPACE_KEYS),
            ])
            assert code == 0
        out = capsys.readouterr().out
        assert "variant store:" in out
        # the second run hits both tiers
        assert (cache_dir / "variants").is_dir()
        assert (cache_dir / "objects").is_dir()


class TestFuzzOracleSearchLeg:
    def test_search_pipeline_registered_but_not_default(self):
        from repro.fuzz.oracle import ALL_PIPELINES, DEFAULT_PIPELINES

        assert "search" in ALL_PIPELINES
        assert "search" not in DEFAULT_PIPELINES

    def test_search_leg_passes_on_generated_programs(self):
        from repro.fuzz.generator import (
            config_for_size_class,
            generate_program,
        )
        from repro.fuzz.oracle import DifferentialOracle, OracleConfig

        config = OracleConfig(
            pipelines=("sequential", "search"), check_semantics=False
        )
        with DifferentialOracle(config) as oracle:
            for seed in range(3):
                program = generate_program(
                    seed, config_for_size_class("small")
                )
                report = oracle.check(
                    program.source, inputs=program.inputs(), seed=seed
                )
                assert report.ok, report.describe()
