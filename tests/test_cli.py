"""The warpcc command-line interface."""

import hashlib
import re

import pytest

from repro.asmlink.download import module_listing
from repro.cli import main
from repro.driver.sequential import SequentialCompiler

GOOD = """
module cli_demo
section s (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
end
end
"""

BAD = """
module broken
section s (cells 0..0)
  function main() begin undeclared := 1; end
end
end
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.w2"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.w2"
    path.write_text(BAD)
    return str(path)


class TestCacheSwitch:
    """``--parallel`` with ``--cache-dir`` / ``--no-cache`` is the one
    switch for the artifact, parse and link tiers."""

    SOURCE = """
module tiers
  section a (cells 0..2)
    function a1(): int begin return 11; end
    function a2(): int begin return 12; end
  end
  section b (cells 3..5)
    function b1(): int begin return 21; end
    function b2(): int begin return 22; end
  end
  section c (cells 6..8)
    function c1(): int begin return 31; end
  end
end
"""
    FUNCTIONS, SECTIONS = 5, 3

    def compile_json(self, path, cache_dir, capsys):
        import json

        from repro.driver.function_master import clear_phase1_cache

        clear_phase1_cache()  # each CLI run is a new process's memo
        assert main([
            "compile", str(path), "--parallel", "--jobs", "1",
            "--cache-dir", str(cache_dir), "--json",
        ]) == 0
        return json.loads(capsys.readouterr().out)

    def test_cache_dir_drives_all_three_tiers(self, tmp_path, capsys):
        from repro import SequentialCompiler

        path, cache_dir = tmp_path / "tiers.w2", tmp_path / "cache"
        path.write_text(self.SOURCE)
        want = SequentialCompiler().compile(self.SOURCE).digest

        def lookups(tier):  # a count that never fired is absent
            return (tier.get("hits", 0), tier.get("misses", 0))

        cold = self.compile_json(path, cache_dir, capsys)
        assert cold["digest"] == want
        for tier in ("artifact_cache", "parse_cache"):
            assert lookups(cold[tier]) == (0, self.FUNCTIONS)
        assert cold["profile"]["counts"]["link_cache.misses"] == self.SECTIONS

        warm = self.compile_json(path, cache_dir, capsys)
        assert warm["digest"] == want
        for tier in ("artifact_cache", "parse_cache"):  # neither is read
            assert lookups(warm[tier]) == (0, 0)
        # The module record, then each section's program.
        assert warm["link_cache"]["hits"] == 1 + self.SECTIONS
        assert warm["profile"]["counts"] == {
            "link_cache.hits": self.SECTIONS, "module_cache.hits": 1,
        }
        assert warm["profile"]["phase4_mode"] == "cached"

        edited = self.SOURCE.replace("return 12;", "return 1200;")
        path.write_text(edited)
        edit = self.compile_json(path, cache_dir, capsys)
        assert edit["digest"] == SequentialCompiler().compile(edited).digest
        for tier in ("artifact_cache", "parse_cache"):
            assert lookups(edit[tier]) == (self.FUNCTIONS - 1, 1)
        profile = edit["profile"]
        assert profile["phase4_mode"] == "parallel"
        counts = profile["counts"]
        assert (counts["link_cache.hits"], counts["link_cache.misses"]) == (
            self.SECTIONS - 1, 1,
        )

    @pytest.mark.parametrize("flag", [
        "--phase1-jobs", "--phase4-jobs", "--no-parse-cache",
        "--no-link-cache",
    ])
    def test_removed_flags_are_rejected(self, good_file, flag, capsys):
        value = ["2"] if flag.endswith("jobs") else []
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", good_file, flag, *value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_knobs_are_named_nowhere_in_src(self):
        from pathlib import Path

        import repro

        removed = (
            "WARPCC_PARSE_CACHE_DIR", "WARPCC_LINK_CACHE_DIR",
            "WARPCC_PHASE1_CACHE", "phase1_jobs", "phase4_jobs",
        )
        for path in Path(repro.__file__).parent.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in removed:
                assert name not in text, f"{name} in {path}"


class TestCompile:
    def test_report(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        out = capsys.readouterr().out
        assert "s.main" in out
        assert "download module" in out

    def test_digest(self, good_file, capsys):
        assert main(["compile", good_file, "--emit", "digest"]) == 0
        out = capsys.readouterr().out
        assert re.fullmatch(r"[0-9a-f]{64}\n", out)

    def test_driver_descriptor(self, good_file, capsys):
        assert main(["compile", good_file, "--emit", "driver"]) == 0
        out = capsys.readouterr().out
        assert "io-driver" in out

    def test_errors_to_stderr_with_exit_code(self, bad_file, capsys):
        assert main(["compile", bad_file]) == 1
        err = capsys.readouterr().err
        assert "undeclared" in err

    def test_superscript_digit_is_a_diagnostic_not_a_traceback(
        self, tmp_path, capsys
    ):
        # str.isdigit() is true for '²' and int("1²") raises: this used
        # to end the compile in a ValueError out of the lexer.
        path = tmp_path / "squared.w2"
        path.write_text(GOOD.replace("v * 2.0", "v * 1²"))
        assert main(["compile", str(path)]) == 1
        err = capsys.readouterr().err
        assert "squared.w2:7:46: error: unexpected character '²'" in err
        assert "Traceback" not in err

    def compile_fails(self, argv, capsys) -> str:
        """``warpcc compile`` exits 1 with one ``warpcc:`` line on stderr."""
        assert main(["compile", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("warpcc: ")
        assert captured.err.count("\n") == 1, captured.err
        return captured.err

    def test_missing_file_is_reported(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.w2")
        assert "No such file" in self.compile_fails([missing], capsys)

    @pytest.mark.parametrize(
        "extra", [[], ["--parallel", "--jobs", "1", "--no-cache"]],
        ids=["sequential", "parallel"],
    )
    def test_a_section_outside_the_array_is_reported(
        self, tmp_path, extra, capsys
    ):
        path = tmp_path / "wide.w2"
        path.write_text(GOOD.replace("cells 0..0", "cells 0..1"))
        err = self.compile_fails([str(path), "--cells", "1", *extra], capsys)
        assert err == "warpcc: section cells 0..1 outside array of 1 cells\n"

    def test_parallel_serial_fallback(self, good_file, capsys):
        assert main(
            ["compile", good_file, "--parallel", "--jobs", "1"]
        ) == 0

    @pytest.mark.parametrize("fixture,code", [("good_file", 0), ("bad_file", 1)])
    def test_parallel_shuts_its_pool_down_once(
        self, fixture, code, request, monkeypatch, capsys
    ):
        """The verb built the pool, so the verb shuts it down — exactly
        once, whether or not the source compiles."""
        from repro.parallel.warm_pool import WarmPoolBackend

        shutdowns = []
        real = WarmPoolBackend.shutdown

        def counted(self, *args, **kwargs):
            shutdowns.append(self)
            real(self, *args, **kwargs)

        monkeypatch.setattr(WarmPoolBackend, "shutdown", counted)
        path = request.getfixturevalue(fixture)
        assert main(
            ["compile", path, "--parallel", "--jobs", "2", "--no-cache"]
        ) == code
        assert len(shutdowns) == 1
        assert shutdowns[0].worker_count == 2
        assert not shutdowns[0].is_warm

    def test_opt_levels(self, good_file, capsys):
        for level in ("0", "1", "2"):
            assert main(["compile", good_file, "-O", level]) == 0

    def test_emit_binary_round_trips(self, good_file, tmp_path, capsys):
        from repro.asmlink.encode import read_module
        from repro.warpsim.array_runner import run_module

        out = tmp_path / "demo.warp"
        assert main(
            ["compile", good_file, "--emit", "binary", "-o", str(out)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        module = read_module(str(out))
        result = run_module(module, [1.0, 2.0, 3.0])
        assert result.output_floats() == [2.0, 4.0, 6.0]

    def test_parallel_digest_matches_sequential(self, good_file, capsys):
        main(["compile", good_file, "--emit", "digest"])
        sequential = capsys.readouterr().out
        main(["compile", good_file, "--parallel", "--jobs", "1",
              "--emit", "digest"])
        parallel = capsys.readouterr().out
        assert parallel == sequential


class TestRun:
    def test_runs_program(self, good_file, capsys):
        assert main(["run", good_file, "--inputs", "1,2,3"]) == 0
        out = capsys.readouterr().out
        assert "2.0 4.0 6.0" in out
        assert "cycles:" in out

    def test_empty_inputs(self, tmp_path, capsys):
        path = tmp_path / "noin.w2"
        path.write_text(
            "module m\nsection s (cells 0..0)\n"
            "function main() begin send(7.5); end\nend\nend"
        )
        assert main(["run", str(path)]) == 0
        assert "7.5" in capsys.readouterr().out

    def test_compile_error_propagates(self, bad_file, capsys):
        assert main(["run", bad_file]) == 1

    def test_runs_prebuilt_binary_module(self, good_file, tmp_path, capsys):
        out = tmp_path / "prog.warp"
        assert main(
            ["compile", good_file, "--emit", "binary", "-o", str(out)]
        ) == 0
        capsys.readouterr()
        assert main(["run", str(out), "--inputs", "2,4,6"]) == 0
        assert "4.0 8.0 12.0" in capsys.readouterr().out

    def run_fails(self, argv, capsys) -> str:
        """``warpcc run`` exits 1 with one ``warpcc:`` line on stderr."""
        assert main(["run", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("warpcc: ")
        assert captured.err.count("\n") == 1, captured.err
        return captured.err

    def test_starved_program_reports_deadlock(self, good_file, capsys):
        err = self.run_fails([good_file, "--inputs", "1"], capsys)
        assert "deadlock at cycle" in err and "cells [0] stalled" in err

    def test_cycle_ceiling_is_reported(self, good_file, capsys):
        err = self.run_fails(
            [good_file, "--inputs", "1,2,3", "--max-cycles", "3"], capsys
        )
        assert err == "warpcc: array did not finish within 3 cycles\n"

    def test_trap_is_reported(self, tmp_path, capsys):
        path = tmp_path / "trap.w2"
        path.write_text(
            "module m\nsection s (cells 0..0)\nfunction main()\n"
            "var v: float; begin receive(v); send(sqrt(v)); end\nend\nend"
        )
        err = self.run_fails([str(path), "--inputs", "-1"], capsys)
        assert err == "warpcc: arithmetic trap in 'main': sqrt [-1.0]\n"

    def test_malformed_binary_module_is_reported(self, tmp_path, capsys):
        bogus = tmp_path / "junk.warp"
        bogus.write_bytes(b"WARP and then junk")
        assert "format version" in self.run_fails([str(bogus)], capsys)

    def test_a_section_outside_the_array_is_reported(self, tmp_path, capsys):
        path = tmp_path / "wide.w2"
        path.write_text(GOOD.replace("cells 0..0", "cells 0..1"))
        err = self.run_fails([str(path), "--cells", "1"], capsys)
        assert err == "warpcc: section cells 0..1 outside array of 1 cells\n"

    def test_unreadable_file_is_reported(self, tmp_path, capsys):
        missing = tmp_path / "missing.warp"
        assert "No such file" in self.run_fails([str(missing)], capsys)


class TestDisasm:
    def test_disassembles_binary_module(self, good_file, tmp_path, capsys):
        out = tmp_path / "prog.warp"
        main(["compile", good_file, "--emit", "binary", "-o", str(out)])
        capsys.readouterr()
        assert main(["disasm", str(out)]) == 0
        text = capsys.readouterr().out
        assert "download-module cli_demo" in text
        assert "recv" in text and "send" in text

    def test_disasm_matches_compile_digest(self, good_file, tmp_path, capsys):
        """The digest is the hash of the file ``--emit binary`` writes,
        and ``disasm`` of that file prints the compiled module's listing."""
        out = tmp_path / "prog.warp"
        main(["compile", good_file, "--emit", "binary", "-o", str(out)])
        capsys.readouterr()
        main(["compile", good_file, "--emit", "digest"])
        digest = capsys.readouterr().out.strip()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        main(["disasm", str(out)])
        compiled = SequentialCompiler().compile(GOOD, filename=good_file)
        assert capsys.readouterr().out == module_listing(compiled.download) + "\n"

    def test_bad_file_errors(self, tmp_path, capsys):
        bogus = tmp_path / "junk.warp"
        bogus.write_bytes(b"not a module")
        assert main(["disasm", str(bogus)]) == 1
        assert "magic" in capsys.readouterr().err


class TestBench:
    def test_bench_point(self, capsys):
        assert main(["bench", "tiny", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "system overhead:" in out

    def test_bench_with_processors(self, capsys):
        assert main(["bench", "tiny", "4", "--processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 workstation(s)" in out


class TestOneDefinitionPerFlag:
    """Flags several verbs take are defined once (``repro.cli.options``)
    and the backend they select is built by one rule
    (``repro.cli.stack.build_backend``)."""

    VERBS = (
        "compile", "search", "run", "disasm", "bench", "fuzz", "serve",
        "worker", "cache-server", "submit", "watch", "status",
    )

    @staticmethod
    def shared_flags():
        """option string -> the action ``options`` defines for it."""
        import argparse

        from repro.cli import options

        reference = argparse.ArgumentParser()
        options.target(reference)
        options.caches(reference, cache_url=True)
        options.supervision(reference)
        options.connect(reference)
        options.json_output(reference)
        options.bind(reference)
        options.jobs(reference, None, "")
        options.workers(reference)
        return {
            action.option_strings[-1]: action
            for action in reference._actions
            if action.option_strings and action.dest != "help"
        }

    def test_every_verb_registers_and_builds_its_help(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        assert tuple(parser.verbs) == self.VERBS
        for verb in self.VERBS:
            with pytest.raises(SystemExit) as excinfo:
                main([verb, "--help"])
            assert excinfo.value.code == 0
            assert f"usage: warpcc {verb}" in capsys.readouterr().out

    def test_shared_flag_is_the_same_on_every_verb_that_takes_it(self):
        from repro.cli import build_parser

        shared = self.shared_flags()
        seen = {flag: [] for flag in shared}
        for verb, parser in build_parser().verbs.items():
            for action in parser._actions:
                reference = shared.get((action.option_strings or [None])[-1])
                if reference is None:
                    continue  # the verb's own flag
                seen[action.option_strings[-1]].append(verb)
                got = (action.option_strings, action.type, action.choices,
                       action.dest, action.metavar)
                assert got == (
                    reference.option_strings, reference.type,
                    reference.choices, reference.dest, reference.metavar,
                ), (verb, action.option_strings)
                if action.option_strings == ["--jobs"]:
                    # differs by verb only in its stated default
                    stem = reference.help.split("(default:")[0]
                    assert action.help.startswith(stem)
                    continue
                assert action.default == reference.default, (verb, action)
                assert action.help == reference.help, (verb, action)
        # every flag options.py defines is in fact shared
        assert all(len(verbs) >= 2 for verbs in seen.values()), seen
        assert seen["--json"] == ["compile", "search", "submit", "watch", "status"]
        assert seen["--cache-dir"] == [
            "compile", "search", "bench", "serve", "cache-server"
        ]

    @pytest.mark.parametrize("argv,expected", [
        (["compile", "f.w2", "--parallel"], "pool of cores-1"),
        (["compile", "f.w2", "--parallel", "--jobs", "3"], "pool of 3"),
        (["compile", "f.w2", "--parallel", "--jobs", "1"], "serial"),
        (["search", "f.w2"], "serial"),
        (["search", "f.w2", "--jobs", "1"], "serial"),
        (["search", "f.w2", "--jobs", "3"], "pool of 3"),
        (["serve"], "pool of cores-1"),
        (["serve", "--workers", "3"], "pool of 3"),
        (["serve", "--workers", "1"], "serial"),
        (["worker", "--connect", "h:1"], "pool of cores-1"),
        (["worker", "--connect", "h:1", "--workers", "3"], "pool of 3"),
        (["worker", "--connect", "h:1", "--workers", "1"], "serial"),
    ])
    def test_worker_count_flags_resolve_through_one_rule(self, argv, expected):
        import os

        from repro.cli import build_parser, stack
        from repro.parallel import (
            SerialBackend,
            SupervisedBackend,
            WarmPoolBackend,
        )

        args = build_parser().parse_args(argv)
        if argv[0] == "worker":
            # a node's pool runs bare: the hub's supervisor is its policy
            backend = stack.build_pool(args)
        else:
            supervised = stack.build_backend(args)
            assert isinstance(supervised, SupervisedBackend)
            backend = supervised.inner
        if expected == "serial":
            assert isinstance(backend, SerialBackend)
            return
        assert isinstance(backend, WarmPoolBackend)  # lazy: no process yet
        cores_minus_one = max(1, (os.cpu_count() or 2) - 1)
        assert backend.worker_count == (
            3 if expected == "pool of 3" else cores_minus_one
        )

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cache_server_size_bound_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache-server", "--max-bytes", value])
        assert excinfo.value.code == 2
        assert "at least 1 byte" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["s", "s.", ".main"])
    def test_chaos_poison_names_a_task_by_both_names(self, good_file, value, capsys):
        """A task is one function: ``SECTION`` alone keys no task, and
        poisoning nothing silently is not what was asked for."""
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", good_file, "--chaos", "1", "--chaos-poison", value])
        assert excinfo.value.code == 2
        assert "SECTION.FUNCTION" in capsys.readouterr().err

    def test_verb_without_a_handler_fails_when_the_parser_is_built(
        self, monkeypatch
    ):
        import repro.cli as cli

        def register_orphan(sub):
            return sub.add_parser("orphan")  # forgot set_defaults(run=...)

        monkeypatch.setattr(cli, "VERBS", (*cli.VERBS, register_orphan))
        with pytest.raises(TypeError, match="'orphan' registered without"):
            cli.build_parser()

    def test_readme_flag_reference_matches_the_parser(self):
        import pathlib
        import subprocess
        import sys

        script = pathlib.Path(__file__).parent.parent / "scripts/cli_reference.py"
        done = subprocess.run(
            [sys.executable, str(script), "--check"],
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
