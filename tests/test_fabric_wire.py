"""Fabric wire protocol: bounded framing, digest validation, backoff."""

import base64
import dataclasses
import hashlib
import io
import json
import pickle
import random
import socket
import threading
import time

from dataclasses import replace

import pytest

from repro import CompileOptions
from repro.cache import ArtifactCache, compiler_salt, module_fingerprints
from repro.cache.store import open_entry, seal_entry
from repro.driver.function_master import run_compile_task
from repro.driver.master import ParallelCompiler
from repro.driver.phases import compile_one_function, phase1_parse_and_check
from repro.driver.sequential import SequentialCompiler
from repro.fabric import (
    CacheServiceServer,
    FabricHub,
    NetworkCacheClient,
    RemoteBackend,
    TieredCache,
    WorkerNodeAgent,
)
from repro.fabric.wire import (
    FABRIC_SECRET_ENV,
    PROTOCOL_VERSION,
    TASK_TIER,
    AuthenticationError,
    ProtocolError,
    WireCorruption,
    backoff_delays,
    connect_with_backoff,
    decode_frame,
    decode_result,
    decode_task,
    encode_frame,
    encode_result,
    encode_task,
    pack_bytes,
    read_frame_line,
    unpack_bytes,
)
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend

from helpers import function_task

SOURCE = """
module wire_mod
section s (cells 0..0)
  function main()
  var v: float; k: int;
  begin
    for k := 1 to 3 do receive(v); send(v * 2.0); end;
  end
end
end
"""


def _compiled_result():
    task = function_task(SOURCE, "s", "main", filename="wire_mod.w2")
    return task, run_compile_task(task)[0]


class TestFraming:
    def test_reads_one_line(self):
        stream = io.BytesIO(b'{"op": "ping"}\n{"op": "next"}\n')
        assert read_frame_line(stream) == b'{"op": "ping"}\n'
        assert read_frame_line(stream) == b'{"op": "next"}\n'
        assert read_frame_line(stream) is None  # clean EOF

    def test_oversized_line_is_a_protocol_error(self):
        stream = io.BytesIO(b"x" * 100 + b"\n")
        with pytest.raises(ProtocolError) as excinfo:
            read_frame_line(stream, max_bytes=64)
        assert excinfo.value.reason == "oversized-frame"

    def test_stream_dying_mid_line_is_truncated_not_parsed(self):
        stream = io.BytesIO(b'{"op": "pi')  # no newline: writer died
        with pytest.raises(ProtocolError) as excinfo:
            read_frame_line(stream)
        assert excinfo.value.reason == "truncated-frame"

    def test_line_exactly_at_bound_is_fine(self):
        line = b"a" * 63 + b"\n"
        stream = io.BytesIO(line)
        assert read_frame_line(stream, max_bytes=64) == line

    def test_malformed_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"this is not json\n")
        assert excinfo.value.reason == "bad-json"

    def test_non_object_frame_is_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(b"[1, 2, 3]\n")
        assert excinfo.value.reason == "bad-request"

    def test_undecodable_bytes_are_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe garbage \xff\n")

    def test_encode_decode_roundtrip(self):
        frame = {"op": "ping", "n": 3}
        assert decode_frame(encode_frame(frame)) == frame


class TestBlobCodec:
    def test_task_roundtrip(self):
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        assert frame["op"] == "task" and frame["id"] == "w0.0"
        decoded = decode_task(frame)
        assert decoded.section_name == "s"
        assert decoded.function_name == "main"
        assert (decoded.window, decoded.headers) == (task.window, task.headers)

    def test_result_roundtrip_preserves_payload_digest(self):
        _, result = _compiled_result()
        # sealed by the function master: the hash of the code
        assert result.payload_digest == hashlib.sha256(result.code).hexdigest()
        decoded = decode_result(encode_result(result, "w0.0"))
        assert decoded.payload_digest == result.payload_digest
        assert decoded.code == result.code

    def test_blob_digest_mismatch_is_corruption(self):
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        frame["sha256"] = "0" * 64
        with pytest.raises(WireCorruption):
            decode_task(frame)

    def test_tampered_blob_is_corruption(self):
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        blob = frame["blob"]
        frame["blob"] = blob[:10] + ("A" if blob[10] != "A" else "B") + blob[11:]
        with pytest.raises(WireCorruption):
            decode_task(frame)

    def test_the_blob_is_a_sealed_entry(self):
        """What a frame carries is the one serial form: a result's blob
        is its ``objects/`` entry, a task's a header-only entry whose
        facts are the task's fields, options nested."""
        task, result = _compiled_result()
        assert unpack_bytes(encode_result(result, "w0.0")) == ArtifactCache.seal(
            result
        )
        facts, body = open_entry(
            unpack_bytes(encode_task(task, "w0.0")), TASK_TIER, PROTOCOL_VERSION
        )
        assert body == b""
        assert facts["options"] == {
            "opt_level": 2, "cell_count": 10, "unroll_budget": 0, "ii_budget": 0,
        }
        assert decode_task(encode_task(task, "w0.0")) == task

    def test_wrong_payload_type_is_corruption(self):
        task, result = _compiled_result()
        with pytest.raises(WireCorruption):  # an entry of the other kind
            decode_task(encode_result(result, "w0.0"))
        with pytest.raises(WireCorruption):
            decode_result(encode_task(task, "w0.0"))
        with pytest.raises(WireCorruption):  # no entry at all
            decode_task(pack_bytes(json.dumps({"not": "a task"}).encode()))

    def test_result_failing_sealed_digest_is_corruption(self):
        """A worker that sealed garbage under a stale digest is caught at
        the wire even though the blob digest (of the garbage) matches."""
        _, result = _compiled_result()
        result.code = result.code[:-1]  # payload changed, seal left stale
        frame = encode_result(result, "w0.0")
        with pytest.raises(WireCorruption):
            decode_result(frame)


class TestBackoff:
    def test_delays_are_capped_and_jittered(self):
        rng = random.Random(7)
        delays = list(backoff_delays(10, base=0.05, cap=0.4, rng=rng))
        assert len(delays) == 10
        # Jitter is ±50%: nothing above cap * 1.5, nothing negative.
        assert all(0.0 <= d <= 0.4 * 1.5 for d in delays)
        # Early delays are near base, not near cap.
        assert delays[0] < 0.1

    def test_deterministic_under_a_seeded_rng(self):
        a = list(backoff_delays(5, rng=random.Random(3)))
        b = list(backoff_delays(5, rng=random.Random(3)))
        assert a == b

    def test_connect_retries_through_the_startup_race(self):
        """The listener binds *after* the first connect attempt; the
        capped-backoff connect must win anyway."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # port free again: connects are refused for now

        server_up = threading.Event()

        def late_bind():
            time.sleep(0.2)
            listener = socket.socket()
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            server_up.set()
            conn, _ = listener.accept()
            conn.close()
            listener.close()

        thread = threading.Thread(target=late_bind, daemon=True)
        thread.start()
        sock = connect_with_backoff(
            "127.0.0.1", port, attempts=12, base=0.05, cap=0.3
        )
        sock.close()
        assert server_up.is_set()
        thread.join(timeout=5)

    def test_connect_gives_up_with_the_real_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionRefusedError):
            connect_with_backoff(
                "127.0.0.1", port, attempts=2, base=0.01, cap=0.02
            )


@pytest.fixture
def unpicklers_entered(monkeypatch):
    """Every way into an unpickler, trapped: the list names each one a
    test entered.  (The decoders turn any exception into WireCorruption,
    so the trap records as well as raises.)"""
    entered = []

    def trap(name):
        def trapped(*args, **kwargs):
            entered.append(name)
            raise AssertionError(f"{name} entered on the wire path")

        return trapped

    for module, name in (
        (pickle, "loads"),
        (pickle, "load"),
        (pickle, "Unpickler"),
    ):
        monkeypatch.setattr(module, name, trap(f"{module.__name__}.{name}"))
    return entered


def _frame_around(blob: bytes, op: str = "result") -> dict:
    return {
        "op": op,
        "id": "w0.0",
        "blob": base64.b64encode(blob).decode("ascii"),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


class TestRestrictedUnpickling:
    """Nothing a frame holds is unpickled.  A blob that *is* a pickle —
    of anything, however well formed — is not an entry: WireCorruption,
    before an unpickler is entered or anything is constructed."""

    def test_hostile_blob_is_rejected_not_executed(
        self, tmp_path, unpicklers_entered
    ):
        import os

        canary = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {canary}",))

        blob = pickle.dumps(Evil(), protocol=pickle.HIGHEST_PROTOCOL)
        for decode in (decode_result, decode_task):
            with pytest.raises(WireCorruption):
                decode(_frame_around(blob))
        assert not canary.exists(), "a pickled payload was executed"
        assert unpicklers_entered == []

    def test_blob_referencing_foreign_class_is_corruption(
        self, unpicklers_entered
    ):
        from fractions import Fraction

        blob = pickle.dumps(Fraction(1, 2))
        with pytest.raises(WireCorruption):
            decode_result(_frame_around(blob))
        assert unpicklers_entered == []

    def test_allowlist_admits_the_real_object_graph(self, unpicklers_entered):
        """There is no allowlist: the pickle of a well-formed result —
        what the parent's wire carried — is refused like any other, and
        the real result crosses as its entry, whole."""
        task, result = _compiled_result()
        for payload, decode in ((result, decode_result), (task, decode_task)):
            with pytest.raises(WireCorruption):
                decode(_frame_around(pickle.dumps(payload)))
        decoded = decode_result(encode_result(result, "w0.0"))
        assert unpicklers_entered == []
        # whole, the window's facts too
        assert decoded == result and decoded.window is not None

    def test_object_code_classes_are_refused_like_any_foreign_global(
        self, unpicklers_entered
    ):
        """A pickled object-code graph is refused where the entry's magic
        is read; a result cannot even be sealed around one."""
        _, result = _compiled_result()
        graph, _ = compile_one_function(
            phase1_parse_and_check(SOURCE), "s", "main", CompileOptions()
        )
        with pytest.raises(WireCorruption):
            decode_result(_frame_around(pickle.dumps(graph)))
        assert unpicklers_entered == []
        with pytest.raises(TypeError):
            encode_result(replace(result, code=graph), "w0.0")

    def test_the_wire_does_not_know_pickle(self):
        import repro.fabric.wire as wire

        for name in ("pickle", "pickled", "pack_blob", "unpack_blob",
                     "restricted_loads", "ALLOWED_PICKLE_GLOBALS"):
            assert not hasattr(wire, name)


# ---------------------------------------------------------------------------
# One hostile result, every validator.  A result that does not hash to
# its seal is refused wherever results are taken in — counted, re-run or
# missed — and the module that comes out is the sequential compiler's.
# ---------------------------------------------------------------------------


def _flip(code: bytes) -> bytes:
    return code[:7] + bytes([code[7] ^ 1]) + code[8:]


HOSTILE = {
    "digest_removed": lambda r: replace(r, payload_digest=None),
    "digest_of_other_bytes": lambda r: replace(
        r, payload_digest=hashlib.sha256(b"other bytes").hexdigest()
    ),
    "flipped_byte": lambda r: replace(r, code=_flip(r.code)),
    "truncated_code": lambda r: replace(r, code=r.code[:-9]),
}


class _HostileOnce(SerialBackend):
    """A worker whose first result is hostile and every later one clean."""

    def __init__(self, mangle):
        self.mangle = mangle
        self.served = 0

    def run_tasks_streaming(self, tasks):
        for result in super().run_tasks_streaming(tasks):
            self.served += 1
            yield self.mangle(result) if self.served == 1 else result


def _through_the_supervisor(mangle, tmp_path):
    backend = SupervisedBackend(_HostileOnce(mangle), hedge_after=None)
    digest = ParallelCompiler(backend=backend).compile(SOURCE).digest
    return digest, backend.counts["corrupt_payloads"]


def _through_the_wire(mangle, tmp_path):
    with FabricHub(lease_ttl=5.0, heartbeat_interval=0.2) as hub:
        agent = WorkerNodeAgent(
            hub.address, _HostileOnce(mangle), node_id="hostile"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            compiler = ParallelCompiler(backend=RemoteBackend(hub))
            return compiler.compile(SOURCE).digest, hub.counts["corrupt_frames"]
        finally:
            agent.stop()


def _main_fingerprint() -> str:
    return module_fingerprints(
        phase1_parse_and_check(SOURCE).module,
        CompileOptions(),
        salt=compiler_salt(),
    )[("s", "main")]


def _through_the_network_tier(mangle, tmp_path):
    """The server refuses a put that does not verify, so the entry is
    planted in its directory — a disk that rotted — where the server
    finds it, deletes it and answers a miss."""
    _, result = _compiled_result()
    fingerprint = _main_fingerprint()
    with CacheServiceServer(tmp_path / "server") as server:
        client = NetworkCacheClient(server.address)
        cache = TieredCache(tmp_path / "local", client)
        try:
            hostile = ArtifactCache.seal(mangle(result))
            refused = NetworkCacheClient(server.address)
            assert not refused.put(fingerprint, hostile)
            refused.close()
            assert server.store.entry_count() == 0
            path = server.store._entry_path(fingerprint)
            path.parent.mkdir(parents=True)
            path.write_bytes(hostile)
            digest = ParallelCompiler(cache=cache).compile(SOURCE).digest
            cache.flush()  # ... and write-behind replaces it with a sound one
            assert path.read_bytes() == cache._entry_path(fingerprint).read_bytes()
            assert client.counts["remote_hits"] == 0
            assert client.counts["remote_misses"] == 1
            return digest, server.store.counts["corrupt"]
        finally:
            cache.close()


@pytest.mark.parametrize("hostility", sorted(HOSTILE))
@pytest.mark.parametrize(
    "validator",
    (_through_the_supervisor, _through_the_wire, _through_the_network_tier),
    ids=("supervisor", "wire", "network_tier"),
)
def test_a_result_that_does_not_verify_is_refused_at_every_boundary(
    validator, hostility, tmp_path
):
    digest, counted = validator(HOSTILE[hostility], tmp_path)
    assert counted == 1
    assert digest == SequentialCompiler().compile(SOURCE).digest


# ---------------------------------------------------------------------------
# Hashes that hold are not enough.  An entry's hashes are unkeyed, so a
# buggy or hostile writer can seal facts of the wrong type behind hashes
# that verify; every reader type-checks the facts before it builds a
# record, counts what it refuses and raises nothing past its boundary.
# ---------------------------------------------------------------------------


def _set(path, value):
    def mangle(facts):
        *parents, last = path
        for key in parents:
            facts = facts[key]
        facts[last] = value

    return mangle


def _drop_report_field(facts):
    del facts["report"]["bundles"]


HOSTILE_FACTS = {
    "assembly_work_null": _set(("assembly_work",), None),
    "work_units_a_string": _set(("report", "work_units"), "12"),
    "report_field_missing": _drop_report_field,
    "report_field_extra": _set(("report", "surprise"), 1),
    "diagnostics_a_string": _set(("diagnostics",), "x"),
    "bool_for_an_int": _set(("report", "bundles"), True),
    "unknown_fact": _set(("shipped_by",), "mallory"),
}


def _resealed(entry: bytes, tier: str, schema: int, mangle) -> bytes:
    """``entry`` with its facts mangled and both hashes recomputed."""
    facts, body = open_entry(entry, tier, schema)
    mangle(facts)
    return seal_entry(tier, schema, facts, body)


def _hostile_result_entry(mangle) -> bytes:
    _, result = _compiled_result()
    return _resealed(
        ArtifactCache.seal(result), ArtifactCache.SUBDIR, ArtifactCache.SCHEMA,
        mangle,
    )


def _read_by_the_store(entry, tmp_path):
    cache = ArtifactCache(tmp_path / "local")
    path = cache._entry_path(_main_fingerprint())
    path.parent.mkdir(parents=True)
    path.write_bytes(entry)
    compiler = ParallelCompiler(cache=cache)
    digest = compiler.compile(SOURCE).digest
    assert cache.counts["hits"] == 0
    assert cache.get(_main_fingerprint()) is not None  # recompiled, rewritten
    return digest, cache.counts["corrupt"]


def _read_by_the_wire(entry, tmp_path):
    with pytest.raises(WireCorruption):
        decode_result(_frame_around(entry))
    return None, 1


def _read_by_the_network_tier(entry, tmp_path):
    """The server checks framing only, so it takes the entry; the
    client is the one that builds a record, and refuses to."""
    with CacheServiceServer(tmp_path / "server") as server:
        client = NetworkCacheClient(server.address)
        cache = TieredCache(tmp_path / "local", client)
        try:
            assert client.put(_main_fingerprint(), entry)
            digest = ParallelCompiler(cache=cache).compile(SOURCE).digest
            assert client.counts["remote_hits"] == 0
            assert cache.counts["corrupt"] == 0
            return digest, client.counts["corrupt_responses"]
        finally:
            cache.close()


@pytest.mark.parametrize("hostility", sorted(HOSTILE_FACTS))
@pytest.mark.parametrize(
    "reader",
    (_read_by_the_store, _read_by_the_wire, _read_by_the_network_tier),
    ids=("store", "wire", "network_tier"),
)
def test_well_hashed_facts_of_the_wrong_type_are_refused_by_every_reader(
    reader, hostility, tmp_path
):
    entry = _hostile_result_entry(HOSTILE_FACTS[hostility])
    # the hashes do hold: this is not the corruption a checksum catches
    open_entry(entry, ArtifactCache.SUBDIR, ArtifactCache.SCHEMA)
    digest, counted = reader(entry, tmp_path)
    assert counted == 1
    if digest is not None:
        assert digest == SequentialCompiler().compile(SOURCE).digest


HOSTILE_TASKS = {
    "opt_level_a_string": _set(("options", "opt_level"), "2"),
    "opt_level_out_of_range": _set(("options", "opt_level"), 3),
    # protocol 1's option, left over: a task is one function, always
    "granularity_unknown": _set(("options", "granularity"), "function"),
    "function_name_null": _set(("function_name",), None),
    "function_name_missing": lambda facts: facts.pop("function_name"),
    "no_cells": _set(("options", "cell_count"), 0),
    "unknown_option": _set(("options", "inline_budget"), 4),
    "unknown_key": _set(("run_as",), "root"),
    "options_missing": lambda facts: facts.pop("options"),
    "source_not_text": _set(("window",), ["module", "x"]),
    "headers_not_texts": _set(("headers",), "function main()"),
    "cost_hint_a_bool": _set(("cost_hint",), True),
}


@pytest.mark.parametrize("hostility", sorted(HOSTILE_TASKS))
def test_a_well_hashed_task_of_the_wrong_shape_is_refused(hostility):
    task, _ = _compiled_result()
    entry = _resealed(
        unpack_bytes(encode_task(task, "w0.0")), TASK_TIER, PROTOCOL_VERSION,
        HOSTILE_TASKS[hostility],
    )
    with pytest.raises(WireCorruption):
        decode_task(_frame_around(entry, op="task"))


def test_a_node_reports_a_hostile_task_and_keeps_serving():
    """Through the node's boundary: the refused task is counted and
    answered with task-failed; nothing raises into the session."""

    class Conn:
        sent = []

        def send(self, frame):
            self.sent.append(frame)

    task, _ = _compiled_result()
    entry = _resealed(
        unpack_bytes(encode_task(task, "w0.0")), TASK_TIER, PROTOCOL_VERSION,
        HOSTILE_TASKS["function_name_null"],
    )
    agent = WorkerNodeAgent("127.0.0.1:1", SerialBackend(), node_id="n")
    conn = Conn()
    agent._run_task(conn, _frame_around(entry, op="task"))
    assert agent.counts["tasks_failed"] == 1
    assert agent.counts["tasks_completed"] == 0
    assert [frame["op"] for frame in conn.sent] == ["task-failed"]


# ---------------------------------------------------------------------------
# A task frame is a function's window and its section's headers.  A frame
# that is well-formed but whose window does not parse, disagrees with its
# headers or holds another function is answered with a refused result —
# counted by the node, never run, never linked — and a refusal the
# sequential front end does not confirm is compiled by the master itself.
# ---------------------------------------------------------------------------


HOSTILE_WINDOWS = {
    "window_does_not_parse": lambda task: replace(
        task, window=task.window.replace("begin", "begin (", 1)
    ),
    "headers_disagree": lambda task: replace(
        task, headers=["function main(x: float)"]
    ),
    "name_not_in_the_window": lambda task: replace(task, function_name="other"),
}


class _Sent:
    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)


@pytest.mark.parametrize("hostility", sorted(HOSTILE_WINDOWS))
def test_a_hostile_window_is_a_counted_refusal_at_the_node(hostility):
    task, _ = _compiled_result()
    frame = encode_task(HOSTILE_WINDOWS[hostility](task), "w0.0")
    agent = WorkerNodeAgent("127.0.0.1:1", SerialBackend(), node_id="n")
    conn = _Sent()
    agent._run_task(conn, frame)
    assert agent.counts == {"tasks_refused": 1}
    (answer,) = conn.sent
    refused = decode_result(answer)
    assert refused.refused and refused.code == b"" and refused.window is None


class _RefusesEverything(SerialBackend):
    """A worker that refuses every window, however sound."""

    def run_tasks_streaming(self, tasks):
        from repro.driver.function_master import refused_result

        for task in tasks:
            yield refused_result(task, "window parse error")


def test_a_refusal_the_sequential_front_end_does_not_confirm_is_never_linked():
    """Through the fabric, a node refuses a valid module's windows: the
    master's sequential front end accepts the module, so the master
    compiles those functions itself — the digest is the sequential
    compiler's, and the fallback is counted."""
    with FabricHub(lease_ttl=5.0, heartbeat_interval=0.2) as hub:
        agent = WorkerNodeAgent(
            hub.address, _RefusesEverything(), node_id="refuser"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            compiler = ParallelCompiler(backend=RemoteBackend(hub))
            result = compiler.compile(SOURCE)
        finally:
            agent.stop()
    assert result.digest == SequentialCompiler().compile(SOURCE).digest
    assert result.profile.counts["phase1.fallbacks"] == 1
    assert compiler.last_phase1_stats.fallback_reason == "window parse error"
    assert agent.counts["tasks_refused"] == 1


class TestAuthentication:
    """With WARPCC_FABRIC_SECRET set, every blob carries an HMAC keyed
    on the shared secret, compared in constant time before anything is
    parsed."""

    def test_round_trip_under_a_shared_secret(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        _, result = _compiled_result()
        frame = encode_result(result, "w0.0")
        assert "hmac" in frame
        decoded = decode_result(frame)
        assert decoded.payload_digest == result.payload_digest

    def test_unauthenticated_blob_is_rejected_when_secret_set(
        self, monkeypatch
    ):
        monkeypatch.delenv(FABRIC_SECRET_ENV, raising=False)
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")  # packed with no secret
        assert "hmac" not in frame
        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        with pytest.raises(AuthenticationError):
            decode_task(frame)

    def test_wrong_secret_is_rejected(self, monkeypatch):
        monkeypatch.setenv(FABRIC_SECRET_ENV, "secret-a")
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        monkeypatch.setenv(FABRIC_SECRET_ENV, "secret-b")
        with pytest.raises(AuthenticationError):
            decode_task(frame)

    def test_resealed_sha_does_not_forge_authenticity(self, monkeypatch):
        """An attacker can recompute the sha256 over a tampered blob —
        but not the HMAC, so the tamper is still caught."""
        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        evil = unpack_bytes(
            encode_task(replace(task, window="function stolen() begin end"), "w0.0")
        )
        frame["blob"] = base64.b64encode(evil).decode("ascii")
        frame["sha256"] = hashlib.sha256(evil).hexdigest()
        with pytest.raises(AuthenticationError):
            decode_task(frame)

    def test_no_secret_keeps_the_open_protocol(self, monkeypatch):
        monkeypatch.delenv(FABRIC_SECRET_ENV, raising=False)
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        assert "hmac" not in frame
        assert decode_task(frame).window == task.window
