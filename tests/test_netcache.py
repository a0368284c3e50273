"""Two-tier network artifact cache: read-through, write-behind, degradation."""

import pickle
import socket

import pytest

from repro.cache.store import ArtifactCache, open_entry, seal_entry
from repro.driver.function_master import (
    result_payload_digest,
    run_compile_task,
)
from repro.fabric import (
    CacheServiceServer,
    NetworkCacheClient,
    TieredCache,
)
from repro.fabric.wire import encode_result, pack_bytes, unpack_bytes
from repro.parallel.fault_schedule import FaultSchedule

from helpers import function_task

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
    task = function_task(SOURCE, "s", "main", filename="net_mod.w2")
    result = run_compile_task(task)[0]
    # Keys are opaque content hashes to the cache tier; any hex string of
    # the right shape exercises the same paths the real fingerprints do.
    return "f" * 64, result


def _entry(result) -> bytes:
    """What crosses to and from the tier: the result's objects/ entry."""
    return ArtifactCache.seal(result)


@pytest.fixture
def server(tmp_path):
    with CacheServiceServer(tmp_path / "server") as srv:
        yield srv


@pytest.fixture
def client(server):
    c = NetworkCacheClient(server.address)
    yield c
    c.close()


class TestClientServer:
    def test_roundtrip(self, client):
        fp, result = _artifact()
        assert client.get(fp) is None
        assert client.counts["remote_misses"] == 1
        assert client.put(fp, _entry(result))
        fetched, entry = client.get(fp)
        assert entry == _entry(result)
        assert fetched.payload_digest == result.payload_digest
        assert fetched.code == result.code
        assert client.counts["remote_hits"] == 1

    def test_many_requests_share_one_connection(self, client):
        fp, result = _artifact()
        client.put(fp, _entry(result))
        for _ in range(5):
            assert client.get(fp) is not None
        assert client.counts["remote_hits"] == 5
        assert client.counts["remote_errors"] == 0

    def test_digest_mismatched_put_is_refused(self, server, client):
        fp, result = _artifact()
        payload = {"op": "cache-put", "key": fp}
        payload.update(pack_bytes(_entry(result)))
        payload["sha256"] = "0" * 64
        reply = client._request(payload)
        assert reply is not None and not reply.get("ok")
        assert reply.get("reason") == "corrupt-payload"
        # Nothing was stored; the server-side store is still empty.
        assert server.store.entry_count() == 0

    @pytest.mark.parametrize(
        "blob",
        (
            lambda result: pickle.dumps(result),  # the parent's form
            lambda result: _entry(result)[:-3],
            lambda result: seal_entry("link", 3, {}, result.code),
            lambda result: b"",
        ),
        ids=("a_pickle", "truncated", "another_tier", "empty"),
    )
    def test_a_put_that_is_not_an_objects_entry_is_refused(
        self, server, blob
    ):
        """The server opens what it is sent before it stores it."""
        fp, result = _artifact()
        client = NetworkCacheClient(server.address)
        assert client.put(fp, blob(result)) is False
        client.close()
        assert server.store.entry_count() == 0

    def test_a_rotted_entry_is_deleted_server_side_not_served(
        self, server, client
    ):
        fp, result = _artifact()
        assert client.put(fp, _entry(result))
        path = server.store._entry_path(fp)
        data = bytearray(path.read_bytes())
        data[-5] ^= 1
        path.write_bytes(bytes(data))
        assert client.get(fp) is None
        assert client.counts["remote_misses"] == 1
        assert client.counts["corrupt_responses"] == 0
        assert server.store.counts["corrupt"] == 1 and not path.exists()

    def test_the_server_is_an_objects_directory(self, server, client, tmp_path):
        """One form, three places: the blob in a result frame, the bytes
        cache-get returns and the objects/ file are the same bytes, and a
        plain ArtifactCache opened on the server's directory is served
        by what the server was sent (and the reverse)."""
        fp, result = _artifact()
        assert client.put(fp, _entry(result))
        on_server = server.store._entry_path(fp).read_bytes()
        _, fetched = client.get(fp)
        local = ArtifactCache(tmp_path / "local")
        local.put(fp, result)
        on_disk = local._entry_path(fp).read_bytes()
        in_frame = unpack_bytes(encode_result(result, "w0.0"))
        assert on_server == fetched == on_disk == in_frame
        beside = ArtifactCache(server.store.cache_dir)
        assert beside.get(fp) == result
        assert beside.counts["hits"] == 1
        other = "e" * 64
        beside.put(other, result)
        assert client.get(other)[1] == on_disk

    def test_request_without_key_drops_connection_not_server(self, server, client):
        reply = client._request({"op": "cache-get"})
        assert reply is not None and not reply.get("ok")
        assert reply.get("reason") == "bad-request"
        # The server dropped that connection; a fresh client still works.
        fresh = NetworkCacheClient(server.address)
        fp, result = _artifact()
        assert fresh.put(fp, _entry(result))
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
        client = NetworkCacheClient("127.0.0.1:1")
        client.timeout, client.fail_threshold = 0.2, 3
        fp, result = _artifact()
        for _ in range(5):
            assert client.get(fp) is None
        assert client.disabled
        # Disabled tier short-circuits: no more timeouts paid.
        assert client.counts["remote_errors"] == 3
        assert client.put(fp, _entry(result)) is False

    def test_server_vanishing_mid_session_degrades(self, tmp_path):
        server = CacheServiceServer(tmp_path / "s")
        client = NetworkCacheClient(server.address)
        client.timeout, client.fail_threshold = 1.0, 2
        fp, result = _artifact()
        assert client.put(fp, _entry(result))
        server.close()
        # Drop the live connection so the next request has to reconnect
        # to the now-dead endpoint (shutdown only stops the acceptor).
        client.close()
        for _ in range(4):
            client.get(fp)
        assert client.disabled
        client.close()

    def test_corrupt_response_is_a_counted_miss(self, tmp_path):
        with CacheServiceServer(tmp_path / "s") as server:
            server.chaos = FaultSchedule(
                1, {"cache-corrupt": 1.0}, budgets={"cache-corrupt": 100}
            )
            client = NetworkCacheClient(server.address)
            fp, result = _artifact()
            assert client.put(fp, _entry(result))
            assert client.get(fp) is None  # corrupt → miss, not an artifact
            assert client.counts["corrupt_responses"] == 1
            assert client.counts["remote_hits"] == 0
            client.close()

    def test_chaos_unavailable_replies_are_soft_errors(self, tmp_path):
        with CacheServiceServer(tmp_path / "s") as server:
            server.chaos = FaultSchedule(2, {"cache-fail": 1.0})
            client = NetworkCacheClient(server.address)
            assert client.fail_threshold == 3
            fp, result = _artifact()
            assert client.put(fp, _entry(result)) is False
            assert client.get(fp) is None
            # Soft failures (the server answered) never disable the tier.
            assert not client.disabled
            client.close()


class TestTieredCache:
    def test_read_through_populates_local(self, server, tmp_path):
        fp, result = _artifact()
        # Machine 1 publishes.
        seeder = NetworkCacheClient(server.address)
        assert seeder.put(fp, _entry(result))
        seeder.close()

        # Machine 2 is cold locally, warm remotely.
        client = NetworkCacheClient(server.address)
        tiered = TieredCache(tmp_path / "m2", client)
        try:
            first = tiered.get(fp)
            assert first is not None
            assert client.counts["remote_hits"] == 1
            # Read-through landed it locally, verbatim: second get never
            # leaves, and the local file is the server's file.
            assert ArtifactCache(tmp_path / "m2").get(fp) is not None
            assert (
                tiered._entry_path(fp).read_bytes()
                == server.store._entry_path(fp).read_bytes()
            )
            tiered.get(fp)
            assert client.counts["remote_hits"] == 1
        finally:
            tiered.close()

    def test_write_behind_reaches_the_network_tier(self, server, tmp_path):
        fp, result = _artifact()
        tiered = TieredCache(tmp_path / "m1", NetworkCacheClient(server.address))
        try:
            tiered.put(fp, result)
            tiered.flush()
            # Write-behind moved the bytes it wrote, verbatim.
            assert (
                server.store._entry_path(fp).read_bytes()
                == tiered._entry_path(fp).read_bytes()
            )
        finally:
            tiered.close()
        probe = NetworkCacheClient(server.address)
        assert probe.get(fp) is not None
        probe.close()

    def test_synchronous_writes_when_write_behind_off(self, server, tmp_path):
        """There is one write path, write-behind: a caller that needs
        the push landed waits on ``flush``."""
        fp, result = _artifact()
        tiered = TieredCache(tmp_path / "m1", NetworkCacheClient(server.address))
        try:
            tiered.put(fp, result)
            tiered.flush()
            assert server.store.entry_count() == 1
            assert tiered.counts["writes_dropped"] == 0
        finally:
            tiered.close()

    def test_local_tier_is_authoritative_for_stats(self, server, tmp_path):
        """A tiered cache *is* the local store: stats, bounds and
        maintenance are inherited, none forwarded; the network tier's
        counters ride on ``remote``."""
        tiered = TieredCache(
            tmp_path / "m1", NetworkCacheClient(server.address), max_bytes=1 << 20
        )
        try:
            assert isinstance(tiered, ArtifactCache)
            for member in ("stats", "max_bytes", "cache_dir", "size_bytes",
                           "entry_count", "clear"):
                assert member not in vars(TieredCache)
            assert tiered.cache_dir == tmp_path / "m1"
            assert tiered.max_bytes == 1 << 20
            fp, result = _artifact()
            assert tiered.get(fp) is None
            tiered.put(fp, result)
            assert tiered.get(fp) is not None
            assert (tiered.counts["hits"], tiered.counts["misses"]) == (1, 1)
            assert tiered.remote.counts["remote_misses"] == 1
            assert tiered.entry_count() == 1
            assert tiered.size_bytes() > 0
            assert tiered.clear() == 1
        finally:
            tiered.close()

    def test_dead_tier_still_serves_local_artifacts(self, tmp_path):
        fp, result = _artifact()
        client = NetworkCacheClient("127.0.0.1:1")
        client.timeout = 0.2
        tiered = TieredCache(tmp_path / "m1", client)
        try:
            tiered.put(fp, result)
            fetched = tiered.get(fp)
            assert fetched is not None
            assert result_payload_digest(fetched) == result.payload_digest
        finally:
            tiered.close()


class TestHostileEntries:
    """Cache trouble must never fail a compile — including entries whose
    hashes hold but whose facts are mangled, and (with a shared secret)
    entries from peers that don't hold it."""

    def test_entry_with_mangled_internals_degrades_to_miss(self, client):
        fp, result = _artifact()
        facts, body = open_entry(_entry(result), "objects", ArtifactCache.SCHEMA)
        facts["report"] = None  # building a result from this would raise
        mangled = seal_entry("objects", ArtifactCache.SCHEMA, facts, body)
        assert client.put(fp, mangled)  # well framed: the server takes it
        assert client.get(fp) is None  # degraded to a recompile, no error
        assert client.counts["corrupt_responses"] == 1
        # The tier stays usable afterwards.
        _, good = _artifact()
        assert client.put("a" * 64, _entry(good))
        assert client.get("a" * 64) is not None

    def test_shared_secret_round_trips(self, tmp_path, monkeypatch):
        from repro.fabric.wire import FABRIC_SECRET_ENV

        monkeypatch.setenv(FABRIC_SECRET_ENV, "cache-secret")
        with CacheServiceServer(tmp_path / "srv") as server:
            client = NetworkCacheClient(server.address)
            fp, result = _artifact()
            assert client.put(fp, _entry(result))
            fetched, _ = client.get(fp)
            assert fetched.payload_digest == result.payload_digest
            client.close()

    def test_unauthenticated_put_is_refused_when_secret_set(
        self, tmp_path, monkeypatch
    ):
        import base64
        import hashlib

        from repro.fabric.wire import FABRIC_SECRET_ENV

        fp, result = _artifact()
        blob = _entry(result)
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
