"""Watch-mode speculation over the wire: the ``watch`` verb, and the
speculation counters ``status`` carries.

A thin layer over ``tests/test_predict.py`` (which exercises the
SpeculationManager in-process): here we prove the JSON-lines framing,
the client helpers, and the disabled/bad-request edges behave across a
real socket.  Speculation is on exactly when the service has an
artifact cache.
"""

import threading

import pytest

from repro.cache import ArtifactCache
from repro.parallel.local import SerialBackend
from repro.service import (
    CompileService,
    ServiceClient,
    ServiceError,
    ServiceSocketServer,
)
from repro.workloads.synthetic import synthetic_program


@pytest.fixture
def endpoint(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    service = CompileService(SerialBackend(), cache, max_running=2)
    server = ServiceSocketServer(service)
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.address, service
    finally:
        if thread.is_alive():
            server.request_shutdown(drain=False)
            thread.join(timeout=30.0)


@pytest.fixture
def plain_endpoint():
    service = CompileService(SerialBackend())
    server = ServiceSocketServer(service)
    thread = threading.Thread(
        target=server.serve_until_shutdown, daemon=True
    )
    thread.start()
    try:
        yield server.address, service
    finally:
        if thread.is_alive():
            server.request_shutdown(drain=False)
            thread.join(timeout=30.0)


class TestWatchProtocol:
    def test_watch_then_submit_is_cache_served(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        source = synthetic_program("tiny", 3, module_name="wire_watch")
        outcome = client.watch_update(source, watch="editor")
        assert outcome["ok"] is True
        assert outcome["reason"] == "speculating"
        assert outcome["dirty"] == 3
        spec = client.wait(outcome["job"], timeout=60.0)
        assert spec["state"] == "done"
        job = client.submit_and_wait(
            source, priority="interactive", timeout=60.0
        )
        assert job["state"] == "done"
        assert job["cache_served"] == 3
        assert job["digest"] == spec["digest"]

    def test_repeat_update_is_clean(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        source = synthetic_program("tiny", 2, module_name="wire_clean")
        first = client.watch_update(source, watch="editor")
        client.wait(first["job"], timeout=60.0)
        second = client.watch_update(source, watch="editor")
        assert second["reason"] == "clean"
        assert second["job"] is None

    def test_status_reports_speculation_counters(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        source = synthetic_program("tiny", 2, module_name="wire_stats")
        outcome = client.watch_update(source, watch="editor")
        client.wait(outcome["job"], timeout=60.0)
        stats = client.status()["stats"]["speculation"]
        assert stats["updates"] == 1
        assert stats["launched"] == 1
        assert stats["watches"] == 1

    def test_missing_source_is_bad_request(self, endpoint):
        address, _ = endpoint
        client = ServiceClient(address)
        with pytest.raises(ServiceError) as excinfo:
            client._request({"op": "watch"})
        assert excinfo.value.reason == "bad-request"

    def test_speculation_disabled_service(self, plain_endpoint):
        address, _ = plain_endpoint
        client = ServiceClient(address)
        outcome = client.watch_update(
            synthetic_program("tiny", 1, module_name="wire_off")
        )
        assert outcome["speculation"] is False
        assert outcome["reason"] == "speculation-disabled"
        assert "speculation" not in client.status()["stats"]
        with pytest.raises(ServiceError) as excinfo:
            client._request({"op": "watch-status"})
        assert excinfo.value.reason == "bad-request"  # no such verb

    def test_service_stats_carry_speculation_and_model(self, endpoint):
        address, service = endpoint
        client = ServiceClient(address)
        source = synthetic_program("tiny", 2, module_name="wire_svc")
        outcome = client.watch_update(source, watch="editor")
        client.wait(outcome["job"], timeout=60.0)
        stats = service.service_stats()
        assert stats["speculation"]["launched"] == 1
