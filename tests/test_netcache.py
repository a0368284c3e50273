"""Two-tier network artifact cache: read-through, write-behind, degradation."""

import pickle
import socket

import pytest

from repro.cache.store import ArtifactCache
from repro.driver.function_master import (
    FunctionTask,
    result_payload_digest,
    run_compile_task,
)
from repro.fabric import (
    CacheChaos,
    CacheServiceServer,
    NetworkCacheClient,
    TieredCache,
)
from repro.fabric.wire import pack_bytes

SOURCE = """
module net_mod
section s (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
end
end
"""


def _artifact():
    task = FunctionTask(
        source_text=SOURCE,
        filename="net_mod.w2",
        section_name="s",
        function_name="main",
    )
    result = run_compile_task(task)[0]
    # Keys are opaque content hashes to the cache tier; any hex string of
    # the right shape exercises the same paths the real fingerprints do.
    return "f" * 64, result


@pytest.fixture
def server(tmp_path):
    with CacheServiceServer(tmp_path / "server") as srv:
        yield srv


@pytest.fixture
def client(server):
    c = NetworkCacheClient(server.address, timeout=5.0)
    yield c
    c.close()


class TestClientServer:
    def test_roundtrip(self, client):
        fp, result = _artifact()
        assert client.get(fp) is None
        assert client.remote_misses == 1
        assert client.put(fp, result)
        fetched = client.get(fp)
        assert fetched is not None
        assert fetched.payload_digest == result.payload_digest
        assert fetched.obj.digest_text() == result.obj.digest_text()
        assert client.remote_hits == 1

    def test_many_requests_share_one_connection(self, client):
        fp, result = _artifact()
        client.put(fp, result)
        for _ in range(5):
            assert client.get(fp) is not None
        assert client.remote_hits == 5
        assert client.remote_errors == 0

    def test_digest_mismatched_put_is_refused(self, server, client):
        fp, result = _artifact()
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {"op": "cache-put", "key": fp}
        payload.update(pack_bytes(blob))
        payload["sha256"] = "0" * 64
        reply = client._request(payload)
        assert reply is not None and not reply.get("ok")
        assert reply.get("reason") == "corrupt-payload"
        # Nothing was stored; the server-side store is still empty.
        assert server.store.entry_count() == 0

    def test_request_without_key_drops_connection_not_server(self, server, client):
        reply = client._request({"op": "cache-get"})
        assert reply is not None and not reply.get("ok")
        assert reply.get("reason") == "bad-request"
        # The server dropped that connection; a fresh client still works.
        fresh = NetworkCacheClient(server.address)
        fp, result = _artifact()
        assert fresh.put(fp, result)
        fresh.close()

    def test_raw_garbage_line_does_not_kill_the_server(self, server):
        sock = socket.create_connection(
            tuple(server.address.rsplit(":", 1)[0:1])
            + (int(server.address.rsplit(":", 1)[1]),),
            timeout=5.0,
        )
        sock.sendall(b"this is not json at all\n")
        rfile = sock.makefile("rb")
        line = rfile.readline()
        assert b"bad-json" in line
        sock.close()
        # Server survived and serves the next client.
        probe = NetworkCacheClient(server.address)
        assert probe._request({"op": "ping"}).get("ok")
        probe.close()


class TestDegradation:
    def test_dead_endpoint_disables_tier_never_raises(self):
        client = NetworkCacheClient("127.0.0.1:1", timeout=0.2, fail_threshold=3)
        fp, result = _artifact()
        for _ in range(5):
            assert client.get(fp) is None
        assert client.disabled
        # Disabled tier short-circuits: no more timeouts paid.
        assert client.remote_errors == 3
        assert client.put(fp, result) is False

    def test_server_vanishing_mid_session_degrades(self, tmp_path):
        server = CacheServiceServer(tmp_path / "s")
        client = NetworkCacheClient(server.address, timeout=1.0, fail_threshold=2)
        fp, result = _artifact()
        assert client.put(fp, result)
        server.close()
        # Drop the live connection so the next request has to reconnect
        # to the now-dead endpoint (shutdown only stops the acceptor).
        client.close()
        for _ in range(4):
            client.get(fp)
        assert client.disabled
        client.close()

    def test_corrupt_response_is_a_counted_miss(self, tmp_path):
        chaos = CacheChaos(seed=1, corrupt_rate=1.0, max_corruptions_per_key=100)
        with CacheServiceServer(tmp_path / "s", chaos=chaos) as server:
            client = NetworkCacheClient(server.address)
            fp, result = _artifact()
            assert client.put(fp, result)
            assert client.get(fp) is None  # corrupt → miss, not an artifact
            assert client.corrupt_responses == 1
            assert client.remote_hits == 0
            client.close()

    def test_chaos_unavailable_replies_are_soft_errors(self, tmp_path):
        chaos = CacheChaos(seed=2, fail_rate=1.0)
        with CacheServiceServer(tmp_path / "s", chaos=chaos) as server:
            client = NetworkCacheClient(server.address, fail_threshold=3)
            fp, result = _artifact()
            assert client.put(fp, result) is False
            assert client.get(fp) is None
            # Soft failures (the server answered) never disable the tier.
            assert not client.disabled
            client.close()


class TestTieredCache:
    def test_read_through_populates_local(self, server, tmp_path):
        fp, result = _artifact()
        # Machine 1 publishes.
        seeder = NetworkCacheClient(server.address)
        assert seeder.put(fp, result)
        seeder.close()

        # Machine 2 is cold locally, warm remotely.
        local = ArtifactCache(cache_dir=tmp_path / "m2")
        client = NetworkCacheClient(server.address)
        tiered = TieredCache(local, client)
        try:
            first = tiered.get(fp)
            assert first is not None
            assert client.remote_hits == 1
            # Read-through landed it locally: second get never leaves.
            assert local.get(fp) is not None
            tiered.get(fp)
            assert client.remote_hits == 1
        finally:
            tiered.close()

    def test_write_behind_reaches_the_network_tier(self, server, tmp_path):
        fp, result = _artifact()
        tiered = TieredCache(
            ArtifactCache(cache_dir=tmp_path / "m1"),
            NetworkCacheClient(server.address),
        )
        try:
            tiered.put(fp, result)
            tiered.flush()
        finally:
            tiered.close()
        probe = NetworkCacheClient(server.address)
        assert probe.get(fp) is not None
        probe.close()

    def test_synchronous_writes_when_write_behind_off(self, server, tmp_path):
        fp, result = _artifact()
        tiered = TieredCache(
            ArtifactCache(cache_dir=tmp_path / "m1"),
            NetworkCacheClient(server.address),
            write_behind=False,
        )
        try:
            tiered.put(fp, result)
        finally:
            tiered.close()
        assert server.store.entry_count() == 1

    def test_local_tier_is_authoritative_for_stats(self, server, tmp_path):
        local = ArtifactCache(cache_dir=tmp_path / "m1")
        tiered = TieredCache(local, NetworkCacheClient(server.address))
        try:
            assert tiered.stats is local.stats
            assert tiered.cache_dir == local.cache_dir
            assert tiered.max_bytes == local.max_bytes
            fp, result = _artifact()
            tiered.put(fp, result)
            assert tiered.entry_count() == 1
            assert tiered.size_bytes() > 0
        finally:
            tiered.close()

    def test_dead_tier_still_serves_local_artifacts(self, tmp_path):
        fp, result = _artifact()
        client = NetworkCacheClient("127.0.0.1:1", timeout=0.2)
        tiered = TieredCache(ArtifactCache(cache_dir=tmp_path / "m1"), client)
        try:
            tiered.put(fp, result)
            fetched = tiered.get(fp)
            assert fetched is not None
            assert result_payload_digest(fetched) == result.payload_digest
        finally:
            tiered.close()


class TestHostileEntries:
    """Cache trouble must never fail a compile — including entries that
    unpickle cleanly but are internally mangled, and (with a shared
    secret) entries from peers that don't hold it."""

    def test_entry_with_mangled_internals_degrades_to_miss(self, client):
        fp, result = _artifact()
        result.code = None  # payload-digest derivation would raise on this
        assert client.put(fp, result)
        assert client.get(fp) is None  # degraded to a recompile, no error
        assert client.corrupt_responses == 1
        # The tier stays usable afterwards.
        _, good = _artifact()
        assert client.put("a" * 64, good)
        assert client.get("a" * 64) is not None

    def test_shared_secret_round_trips(self, tmp_path, monkeypatch):
        from repro.fabric.wire import FABRIC_SECRET_ENV

        monkeypatch.setenv(FABRIC_SECRET_ENV, "cache-secret")
        with CacheServiceServer(tmp_path / "srv") as server:
            client = NetworkCacheClient(server.address)
            fp, result = _artifact()
            assert client.put(fp, result)
            fetched = client.get(fp)
            assert fetched is not None
            assert fetched.payload_digest == result.payload_digest
            client.close()

    def test_unauthenticated_put_is_refused_when_secret_set(
        self, tmp_path, monkeypatch
    ):
        import base64
        import hashlib

        from repro.fabric.wire import FABRIC_SECRET_ENV

        fp, result = _artifact()
        blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "op": "cache-put",
            "key": fp,
            "blob": base64.b64encode(blob).decode("ascii"),
            "sha256": hashlib.sha256(blob).hexdigest(),
            # no hmac: a writer without the secret
        }
        monkeypatch.setenv(FABRIC_SECRET_ENV, "cache-secret")
        with CacheServiceServer(tmp_path / "srv") as server:
            client = NetworkCacheClient(server.address)
            reply = client._request(payload)
            assert reply is not None and not reply.get("ok")
            assert reply.get("reason") == "unauthenticated"
            assert server.store.entry_count() == 0
            client.close()
