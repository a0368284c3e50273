"""The service-facing CLI surface: compile --json, submit, status."""

import json
import threading

import pytest

from repro.cache import ArtifactCache
from repro.cli import main
from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.service import CompileService, ServiceClient, ServiceSocketServer

GOOD = """
module cli_service_demo
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
def endpoint():
    service = CompileService(SerialBackend(), max_running=2)
    server = ServiceSocketServer(service)
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.address
    finally:
        server.request_shutdown(drain=False)
        thread.join(timeout=30.0)


@pytest.fixture
def cached_endpoint(tmp_path):
    service = CompileService(SerialBackend(), ArtifactCache(str(tmp_path)))
    server = ServiceSocketServer(service)
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.address
    finally:
        server.request_shutdown(drain=False)
        thread.join(timeout=30.0)


class TestCompileJson:
    def test_emits_machine_readable_report(self, good_file, capsys):
        assert main(["compile", good_file, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True
        assert document["module"] == "cli_service_demo"
        assert document["digest"] == SequentialCompiler().compile(GOOD).digest
        assert len(document["digest"]) == 64
        functions = document["profile"]["functions"]
        assert [f["name"] for f in functions] == ["main"]
        assert functions[0]["work_units"] > 0

    def test_parallel_json_includes_cache_counters(
        self, good_file, tmp_path, capsys
    ):
        code = main([
            "compile", good_file, "--json", "--parallel", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["artifact_cache"]["misses"] >= 1

    def test_compile_error_is_json_too(self, tmp_path, capsys):
        path = tmp_path / "bad.w2"
        path.write_text(BAD)
        assert main(["compile", str(path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert any("undeclared" in d for d in document["diagnostics"])


class TestSubmitAndStatus:
    def test_submit_prints_digest_and_streams_events(
        self, good_file, endpoint, capsys
    ):
        code = main([
            "submit", good_file, "--connect", endpoint, "--tenant", "alice",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == SequentialCompiler().compile(GOOD).digest + "\n"
        assert "function_done" in captured.err

    def test_submit_json_document(self, good_file, endpoint, capsys):
        code = main([
            "submit", good_file, "--connect", endpoint, "--json", "--quiet",
        ])
        assert code == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] == "done"
        assert job["report"]["module"] == "cli_service_demo"

    def test_status_overview_with_gantt(self, good_file, endpoint, capsys):
        main(["submit", good_file, "--connect", endpoint, "--quiet"])
        capsys.readouterr()
        assert main(["status", "--connect", endpoint, "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "service:" in out
        assert "slot 0" in out

    def test_status_json_for_one_job(self, good_file, endpoint, capsys):
        main([
            "submit", good_file, "--connect", endpoint, "--quiet", "--json",
        ])
        job_id = json.loads(capsys.readouterr().out)["job"]
        code = main([
            "status", "--connect", endpoint, "--job", job_id, "--json",
        ])
        assert code == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["job"]["state"] == "done"

    def test_unreachable_service_is_a_clean_error(self, good_file, capsys):
        code = main([
            "submit", good_file, "--connect", "127.0.0.1:1",
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_missing_address_is_a_clean_error(
        self, good_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("WARPCC_SERVICE", raising=False)
        assert main(["submit", good_file]) == 2
        assert "no-address" in capsys.readouterr().err

    def test_status_prints_speculation_beside_recovery(
        self, cached_endpoint, capsys
    ):
        client = ServiceClient(cached_endpoint)
        outcome = client.watch_update(GOOD, watch="editor")
        client.wait(outcome["job"], timeout=60.0)
        assert main(["status", "--connect", cached_endpoint]) == 0
        out = capsys.readouterr().out
        assert "speculation: 1 launched, 1 updates, 1 watches" in out
