"""The differential oracle and the catch → minimize → corpus workflow."""

import json

import pytest

from repro import CompileOptions
from repro.cache import ArtifactCache, compiler_salt, module_fingerprints
from repro.fuzz import config_for_size_class, generate_program
from repro.fuzz.oracle import (
    ALL_PIPELINES,
    DEFAULT_PIPELINES,
    DifferentialOracle,
    OracleConfig,
    narrowed_config,
    run_fuzz_campaign,
)
from repro.fuzz.reduce import DeltaReducer, load_corpus_entry, write_corpus_entry

from helpers import parse_ok, wrap_function

CLEAN = wrap_function(
    "function f(x: float) : float begin return x * 2.0; end\n"
    "function g(x: float) : float begin return f(x) + 1.0; end"
)


class TestOracleAgreement:
    def test_clean_module_passes_every_default_pipeline(self):
        with DifferentialOracle() as oracle:
            report = oracle.check(CLEAN, inputs=[1.5], seed=0)
        assert report.ok, report.describe()
        names = {o.pipeline for o in report.outcomes}
        assert set(DEFAULT_PIPELINES) <= names

    def test_generated_programs_pass(self):
        config = OracleConfig(
            pipelines=("sequential", "parallel", "cache", "chaos")
        )
        with DifferentialOracle(config) as oracle:
            for seed in range(5):
                program = generate_program(
                    seed, config_for_size_class("tiny")
                )
                report = oracle.check(
                    program.source, inputs=program.inputs(), seed=seed
                )
                assert report.ok, (seed, report.describe())

    def test_semantic_leg_runs_reference_interpreter(self):
        source = wrap_function(
            "function main()\n"
            "var x: float;\n"
            "begin receive(x); send(x * 2.0); end"
        )
        with DifferentialOracle(
            OracleConfig(pipelines=("sequential",))
        ) as oracle:
            report = oracle.check(source, inputs=[1.5], seed=0)
        assert report.semantic_checked
        assert report.reference_outputs == report.executed_outputs == [3.0]

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError):
            DifferentialOracle(OracleConfig(pipelines=("warp-speed",)))

    def test_fabric_leg_matches_sequential(self):
        """The fabric pipeline compiles through a loopback hub with two
        node agents and must agree digest-for-digest with sequential."""
        config = OracleConfig(pipelines=("sequential", "fabric"))
        with DifferentialOracle(config) as oracle:
            for seed in range(3):
                program = generate_program(
                    seed, config_for_size_class("tiny")
                )
                report = oracle.check(
                    program.source, inputs=program.inputs(), seed=seed
                )
                assert report.ok, (seed, report.describe())
                digests = {
                    o.pipeline: o.digest
                    for o in report.outcomes
                    if o.pipeline in ("sequential", "fabric")
                }
                assert digests["fabric"] == digests["sequential"]

    def test_rejected_module_is_not_a_mismatch(self):
        bad = wrap_function(
            "function f(x: float) : float begin return y; end"
        )
        with DifferentialOracle(
            OracleConfig(pipelines=("sequential", "parallel"))
        ) as oracle:
            report = oracle.check(bad, inputs=[], seed=0)
        # Every pipeline rejects it the same way: agreement, not a bug.
        assert report.ok, report.describe()


class TestSaltIsolation:
    def test_cache_pipeline_asserts_cross_version_misses(self, tmp_path):
        """The oracle's cache leg re-fingerprints under a bumped salt
        and demands misses; seed a poisoned cross-version entry and the
        leg must flag it as a digest-class mismatch."""
        module, _ = parse_ok(CLEAN)
        bumped = module_fingerprints(
            module, CompileOptions(), salt=compiler_salt() + "+next-version"
        )
        from repro.driver.master import ParallelCompiler
        from repro.parallel.local import SerialBackend

        cache = ArtifactCache(tmp_path)
        with DifferentialOracle(
            OracleConfig(pipelines=("sequential", "cache"))
        ) as oracle:
            # Sanity: the normal leg passes.
            assert oracle.check(CLEAN, inputs=[], seed=0).ok
            # Populate real artifacts under the *current* salt…
            ParallelCompiler(
                SerialBackend(), oracle.config.options, cache=cache
            ).compile(CLEAN)
            current = module_fingerprints(
                module, oracle.config.options, salt=compiler_salt()
            )
            # …then republish them under next-version keys: exactly the
            # cross-version leak the assertion exists to catch.
            for key, fingerprint in bumped.items():
                artifact = cache.get(current[key])
                assert artifact is not None
                cache.put(fingerprint, artifact)
            with pytest.raises(AssertionError):
                oracle._assert_salt_isolation(
                    CLEAN, cache, oracle.config.options
                )

    def test_current_salt_differs_from_bumped(self):
        module, _ = parse_ok(CLEAN)
        current = module_fingerprints(
            module, CompileOptions(), salt=compiler_salt()
        )
        bumped = module_fingerprints(
            module, CompileOptions(), salt=compiler_salt() + "+next-version"
        )
        assert set(current.values()).isdisjoint(bumped.values())


class TestMiscompileWorkflow:
    """Acceptance: an injected miscompile is caught, minimized to at
    most 3 functions, and lands as a loadable corpus entry."""

    def test_catch_minimize_corpus_round_trip(self, tmp_path):
        program = generate_program(4, config_for_size_class("small"))
        target = [n for n in program.function_names if n != "main"][0]
        config = OracleConfig(
            pipelines=("sequential", "parallel"),
            inject_miscompile=f"parallel:{target}",
        )
        with DifferentialOracle(config) as oracle:
            campaign = run_fuzz_campaign(
                seed=4, iterations=3, size_class="small", oracle=oracle
            )
        assert not campaign.ok
        failure = campaign.failures[0]
        assert failure.report.kinds() == ["digest"]

        narrow = narrowed_config(config, failure.report)
        assert set(narrow.pipelines) == {"sequential", "parallel"}
        with DifferentialOracle(narrow) as oracle:
            reducer = DeltaReducer(
                oracle, inputs=failure.program.inputs(), seed=failure.seed
            )
            reduction = reducer.reduce(failure.program.source)
        assert reduction.function_count <= 3
        assert reduction.reduced
        assert reduction.kinds == ["digest"]

        path = write_corpus_entry(
            tmp_path,
            source=reduction.source,
            seed=failure.seed,
            size_class="small",
            kinds=reduction.kinds,
            pipelines=["sequential", "parallel"],
            inputs=failure.program.inputs(),
            notes="end-to-end workflow test",
        )
        entry = load_corpus_entry(path)
        assert entry["source"] == reduction.source
        assert entry["seed"] == failure.seed
        # Without the hook the minimized module must replay clean.
        with DifferentialOracle(
            OracleConfig(pipelines=tuple(entry["pipelines"]))
        ) as oracle:
            assert oracle.check(
                entry["source"], inputs=entry["inputs"], seed=entry["seed"]
            ).ok

    def test_reducer_refuses_passing_module(self):
        with DifferentialOracle(
            OracleConfig(pipelines=("sequential", "parallel"))
        ) as oracle:
            with pytest.raises(ValueError):
                DeltaReducer(oracle).reduce(CLEAN)


class TestCampaign:
    def test_campaign_is_deterministic(self):
        config = OracleConfig(pipelines=("sequential", "parallel"))
        with DifferentialOracle(config) as oracle:
            a = run_fuzz_campaign(
                seed=7, iterations=4, size_class="tiny", oracle=oracle
            )
            b = run_fuzz_campaign(
                seed=7, iterations=4, size_class="tiny", oracle=oracle
            )
        assert a.iterations_run == b.iterations_run == 4
        assert a.ok and b.ok

    def test_time_budget_stops_early(self):
        config = OracleConfig(pipelines=("sequential",))
        with DifferentialOracle(config) as oracle:
            result = run_fuzz_campaign(
                seed=0,
                iterations=10_000,
                size_class="tiny",
                oracle=oracle,
                time_budget=0.5,
            )
        assert 0 < result.iterations_run < 10_000

    def test_all_pipelines_constant_covers_matrix(self):
        # warm-pool forks processes and fabric opens loopback sockets;
        # search compiles the module once per variant config; predict
        # spins up a compile service with watch speculation; all four
        # stay opt-in so the default matrix is cheap and sandboxed.
        assert set(DEFAULT_PIPELINES) == set(ALL_PIPELINES) - {
            "warm-pool",
            "fabric",
            "search",
            "predict",
        }


def test_cli_fuzz_smoke(capsys):
    from repro.cli import main

    code = main(
        [
            "fuzz",
            "--seed", "1",
            "--iterations", "3",
            "--size-class", "tiny",
            "--pipelines", "sequential,parallel,supervised",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 mismatch(es)" in out


def test_cli_fuzz_minimize_writes_corpus(tmp_path, capsys, monkeypatch):
    from repro.cli import main
    from repro.fuzz import reduce

    reducer_pipelines = []

    class RecordingReducer(DeltaReducer):
        def __init__(self, oracle, **kwargs):
            reducer_pipelines.append(tuple(oracle.config.pipelines))
            super().__init__(oracle, **kwargs)

    monkeypatch.setattr(reduce, "DeltaReducer", RecordingReducer)
    program = generate_program(4, config_for_size_class("tiny"))
    target = [n for n in program.function_names if n != "main"][0]
    code = main(
        [
            "fuzz",
            "--seed", "4",
            "--iterations", "2",
            "--size-class", "tiny",
            "--pipelines", "sequential,parallel,phase1",
            "--minimize",
            "--corpus-dir", str(tmp_path),
            "--inject-miscompile", f"parallel:{target}",
        ]
    )
    assert code == 1  # mismatch found and reported
    # the reducer pays only the failing pipeline beside sequential
    assert reducer_pipelines == [("sequential", "parallel")]
    written = list(tmp_path.glob("fuzz_*.json"))
    assert len(written) == 1
    entry = json.loads(written[0].read_text())
    assert entry["kinds"] == ["digest"]
