"""Runs the benchmark's ``--smoke`` mode and validates what it reports
against ``BENCHMARK.json``.

Lives outside ``testpaths``, so tier-1 time is unchanged; run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke():
    out = ROOT / "benchmarks" / "out" / "e2e" / "smoke"
    done = subprocess.run(
        RUN + ["--smoke", "--seed", "7", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    path = out / "e2e.seed7.json"
    with open(path, encoding="utf-8") as handle:
        return path, json.load(handle)


def test_declared_names_and_units_are_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_every_workload_reports_exactly_its_declared_metrics(spec, smoke):
    _path, result = smoke
    assert result["claim"] is None
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, workload in result["workloads"].items():
        assert workload["failed_share"] == 0, name
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            reported = {
                metric: value["unit"]
                for metric, value in workload[group].items()
            }
            assert reported == declared, (name, group)
        for metric, value in workload["end_to_end"].items():
            assert value["median"] > 0, (name, metric)


def test_a_run_compares_within_bounds_against_itself(smoke):
    path, _result = smoke
    done = subprocess.run(
        RUN + ["--compare", str(path), str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    assert "0 regressed" in done.stdout
    assert "regressed (" not in done.stdout


def test_only_public_names_are_wrapped():
    sys.path.insert(0, str(HERE))
    try:
        import tracing
    finally:
        sys.path.remove(str(HERE))
    for module, qualname, metric, _hook in tracing.TARGETS:
        assert module.startswith("repro.")
        assert not any(p.startswith("_") for p in qualname.split(".")), qualname
        assert NAME.fullmatch(metric), metric
