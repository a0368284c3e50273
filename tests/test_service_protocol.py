"""The JSON-lines socket protocol: serve, submit, status, shutdown."""

import json
import socket
import threading
import time

import pytest

from repro.driver.sequential import SequentialCompiler
from repro.parallel.local import SerialBackend
from repro.service import (
    CompileService,
    ServiceClient,
    ServiceError,
    ServiceSocketServer,
)
from repro.service.client import parse_address, resolve_address

SOURCE = """
module proto_mod
section s (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
end
end
"""


@pytest.fixture
def server():
    server = ServiceSocketServer(
        CompileService(SerialBackend(), max_running=2)
    )
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        if thread.is_alive():
            server.request_shutdown(drain=False)
            thread.join(timeout=30.0)


@pytest.fixture
def endpoint(server):
    return server.address, server.service


class TestAddresses:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)

    def test_parse_address_rejects_portless(self):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_address("localhost")

    def test_resolve_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv("WARPCC_SERVICE", "env:1")
        assert resolve_address("cli:2") == "cli:2"
        assert resolve_address(None) == "env:1"

    def test_resolve_without_any_address(self, monkeypatch):
        monkeypatch.delenv("WARPCC_SERVICE", raising=False)
        with pytest.raises(ServiceError) as excinfo:
            resolve_address(None)
        assert excinfo.value.reason == "no-address"


class TestProtocol:
    def test_ping(self, endpoint):
        address, _ = endpoint
        reply = ServiceClient(address).ping()
        assert reply["protocol"] == 1

    def test_submit_streams_events_and_matches_solo_digest(self, endpoint):
        address, _ = endpoint
        expected = SequentialCompiler().compile(SOURCE).digest
        events = []
        job = ServiceClient(address).submit_and_wait(
            SOURCE,
            tenant="alice",
            filename="proto_mod.w2",
            on_event=events.append,
            timeout=60.0,
        )
        assert job["state"] == "done"
        assert job["digest"] == expected
        assert job["report"]["digest"] == expected
        names = [event["event"] for event in events]
        assert names[0] == "queued" and names[-1] == "done"
        assert "function_done" in names

    def test_status_overview_and_gantt(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        job = client.submit_and_wait(SOURCE, tenant="bob", timeout=60.0)
        overview = client.status(gantt=True)
        assert overview["stats"]["done"] >= 1
        assert any(j["job"] == job["job"] for j in overview["jobs"])
        assert "slot 0" in overview["gantt"]
        detail = client.status(job["job"])
        assert detail["job"]["state"] == "done"

    def test_overview_reply_stays_small_per_job(self, endpoint):
        """The service-wide status lists jobs without their digests and
        reports (a few KB each); `status --job` and `wait` carry them."""
        from repro.workloads.synthetic import synthetic_program

        address, _ = endpoint
        client = ServiceClient(address)
        waited = [
            client.submit_and_wait(
                synthetic_program("small", 7, module_name=f"big{index}"),
                timeout=60.0,
            )
            for index in range(3)
        ]
        assert all(len(job["digest"]) == 64 for job in waited)
        assert all(len(json.dumps(job["report"])) > 2048 for job in waited)
        overview = client.status()
        assert len(overview["jobs"]) == 3
        assert all("digest" not in row for row in overview["jobs"])
        assert len(json.dumps(overview["jobs"])) < 3 * 2048
        detail = client.status(waited[0]["job"])["job"]
        assert detail["digest"] == waited[0]["digest"]
        assert detail["report"] == waited[0]["report"]
        assert detail["diagnostics"] == waited[0]["diagnostics"]

    def test_status_reports_what_the_backend_did_about_failures(
        self, endpoint, capsys
    ):
        """A server answers "how many tasks did you retry?": the shared
        backend's supervision counters — every farm has them — and, over
        a fleet, the hub's, in ``status --json`` and on one line of the
        text report."""
        from repro.cli import main
        from repro.fabric import FabricHub, RemoteBackend

        address, _ = endpoint
        stats = ServiceClient(address).status()["stats"]
        assert stats["supervision"] == {}
        assert "fabric" not in stats
        with FabricHub(lease_ttl=1.0, heartbeat_interval=0.2) as hub:
            fleet = ServiceSocketServer(CompileService(RemoteBackend(hub)))
            thread = threading.Thread(
                target=fleet.serve_until_shutdown, daemon=True
            )
            thread.start()
            try:
                client = ServiceClient(fleet.address)
                client.submit_and_wait(SOURCE, timeout=60.0)
                stats = client.status()["stats"]
                # no node ever registered: the one wave ran locally
                assert stats["supervision"] == {"degradations": 1}
                assert stats["fabric"] == {"live_nodes": 0}
                assert main(["status", "--connect", fleet.address]) == 0
                (line,) = [
                    line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("supervision: ")
                ]
                # the nonzero counts only: the idle fleet says nothing
                assert line == "supervision: 1 degradations"
            finally:
                fleet.request_shutdown(drain=False)
                thread.join(timeout=30.0)

    def test_unknown_job_is_a_protocol_error(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        with pytest.raises(ServiceError) as excinfo:
            client.status("j999")
        assert excinfo.value.reason == "unknown-job"
        with pytest.raises(ServiceError):
            client.cancel("j999")

    def test_malformed_request_does_not_kill_server(self, endpoint):
        address, _ = endpoint
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"this is not json\n")
            sock.shutdown(socket.SHUT_WR)
            reply = json.loads(sock.makefile().readline())
        assert reply["ok"] is False
        assert ServiceClient(address).ping()["ok"] is True

    def test_admission_reason_crosses_the_wire(self, endpoint):
        address, service = endpoint
        service.per_tenant_inflight = 0  # force immediate rejection
        client = ServiceClient(address)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SOURCE, tenant="alice")
            assert excinfo.value.reason == "tenant-cap"
        finally:
            service.per_tenant_inflight = 8

    def test_bad_json_reply_names_the_reason_and_drops_the_connection(
        self, endpoint
    ):
        address, _ = endpoint
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"{not json]\n")
            rfile = sock.makefile("rb")
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["reason"] == "bad-json"
            # Framing state is unknowable after garbage: the server must
            # drop the connection, not keep guessing at line boundaries.
            assert rfile.readline() == b""
        assert ServiceClient(address).ping()["ok"] is True

    def test_oversized_line_is_refused_not_buffered(self, server):
        server.endpoint.max_frame_bytes = 256  # the one cap, lowered
        address = server.address
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
            rfile = sock.makefile("rb")
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["reason"] == "oversized-frame"
            assert rfile.readline() == b""
        assert ServiceClient(address).ping()["ok"] is True

    def test_connection_dying_mid_line_never_parses(self, endpoint):
        address, _ = endpoint
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b'{"op": "shut')  # no newline: writer died here
            sock.shutdown(socket.SHUT_WR)
            rfile = sock.makefile("rb")
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["reason"] == "truncated-frame"
        # The partial frame was never dispatched: the service is still up.
        assert ServiceClient(address).ping()["ok"] is True

    def test_non_object_frame_is_rejected(self, endpoint):
        address, _ = endpoint
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b"[1, 2, 3]\n")
            rfile = sock.makefile("rb")
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False
            assert reply["reason"] == "bad-request"

    def test_blank_lines_are_skipped_not_errors(self, endpoint):
        address, _ = endpoint
        host, port = parse_address(address)
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(b'\n\n{"op": "ping"}\n')
            reply = json.loads(sock.makefile("rb").readline())
            assert reply["ok"] is True

    def test_client_retries_initial_connect_through_startup_race(self):
        """``warpcc submit`` racing ``warpcc serve`` binding its socket:
        the client's capped-backoff connect must ride out the refused
        window and succeed once the server is up."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # port free: connects refused until we bind below

        service = CompileService(SerialBackend(), max_running=2)
        started = threading.Event()

        def late_serve():
            time.sleep(0.3)
            server = ServiceSocketServer(service, port=port)
            started.set()
            server.serve_until_shutdown()

        thread = threading.Thread(target=late_serve, daemon=True)
        thread.start()
        client = ServiceClient(f"127.0.0.1:{port}")
        client.connect_attempts, client.connect_backoff = 12, 0.05
        assert client.ping()["ok"] is True
        assert started.is_set()
        client.shutdown(drain=False)
        thread.join(timeout=30.0)

    def test_client_connect_gives_up_with_the_real_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServiceClient(f"127.0.0.1:{port}")
        client.connect_attempts, client.connect_backoff = 2, 0.01
        with pytest.raises(ConnectionRefusedError):
            client.ping()

    def test_shutdown_drains_in_flight_jobs(self):
        service = CompileService(SerialBackend())
        server = ServiceSocketServer(service)
        thread = threading.Thread(
            target=server.serve_until_shutdown, daemon=True
        )
        thread.start()
        client = ServiceClient(server.address)
        job_id = client.submit(SOURCE, tenant="alice")
        reply = client.shutdown(drain=True)
        assert reply["draining"] is True
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert service.job(job_id).state == "done"
