"""Fabric wire protocol: bounded framing, digest validation, backoff."""

import hashlib
import io
import random
import socket
import threading
import time

from dataclasses import replace

import pytest

from repro.cache import ArtifactCache, compiler_salt, module_fingerprints
from repro.driver.function_master import (
    FunctionTask,
    FunctionTaskResult,
    run_compile_task,
)
from repro.driver.master import ParallelCompiler
from repro.driver.phases import phase1_parse_and_check
from repro.driver.results import FunctionReport
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
    ALLOWED_PICKLE_GLOBALS,
    FABRIC_SECRET_ENV,
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
    pack_blob,
    read_frame_line,
    unpack_blob,
)
from repro.machine.warp_array import WarpArrayModel
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend

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
    task = FunctionTask(
        source_text=SOURCE,
        filename="wire_mod.w2",
        section_name="s",
        function_name="main",
    )
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
        assert decoded.source_text == task.source_text

    def test_result_roundtrip_preserves_payload_digest(self):
        _, result = _compiled_result()
        # sealed by the function master: the hash of the code
        assert result.payload_digest == hashlib.sha256(result.code).hexdigest()
        decoded = decode_result(encode_result(result, "w0.0"))
        assert decoded.payload_digest == result.payload_digest
        assert decoded.code == result.code
        assert decoded.obj.digest_text() == result.obj.digest_text()

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

    def test_wrong_payload_type_is_corruption(self):
        frame = pack_blob({"not": "a task"})
        with pytest.raises(WireCorruption):
            unpack_blob(frame, FunctionTask)

    def test_result_failing_sealed_digest_is_corruption(self):
        """A worker that pickled garbage under a stale seal is caught at
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


class TestRestrictedUnpickling:
    """A blob is decoded through a closed global allowlist: whatever a
    hostile peer pickles, nothing outside the task/result object graph
    can ever be constructed — let alone called."""

    def test_hostile_blob_is_rejected_not_executed(self, tmp_path):
        import base64
        import hashlib
        import os
        import pickle

        canary = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {canary}",))

        blob = pickle.dumps(Evil(), protocol=pickle.HIGHEST_PROTOCOL)
        frame = {
            "op": "result",
            "id": "w0.0",
            "blob": base64.b64encode(blob).decode("ascii"),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        with pytest.raises(WireCorruption):
            decode_result(frame)
        assert not canary.exists(), "restricted unpickler executed a payload"

    def test_blob_referencing_foreign_class_is_corruption(self):
        from fractions import Fraction

        frame = pack_blob(Fraction(1, 2))
        with pytest.raises(WireCorruption):
            unpack_blob(frame, object)

    def test_allowlist_admits_the_real_object_graph(self):
        """The real graph is three flat records — the allowlist names
        exactly those — and the full compiled result survives the
        restricted decoder: its object code travels inside it as bytes."""
        assert set(ALLOWED_PICKLE_GLOBALS.values()) == {
            FunctionTask,
            FunctionTaskResult,
            FunctionReport,
        }
        _, result = _compiled_result()
        decoded = decode_result(encode_result(result, "w0.0"))
        assert decoded == result
        assert decoded.obj.digest_text() == result.obj.digest_text()

    def test_object_code_classes_are_refused_like_any_foreign_global(self):
        """No class of the object-code graph is admitted any more: a
        blob that names one is refused where its global is resolved,
        before anything of that class is constructed."""
        _, result = _compiled_result()
        smuggled = replace(result, code=result.obj)
        frame = encode_result(smuggled, "w0.0")
        with pytest.raises(WireCorruption) as excinfo:
            decode_result(frame)
        assert "repro.asmlink.objformat.ObjectFunction" in str(excinfo.value)


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
    return digest, backend.supervision.corrupt_payloads


def _through_the_wire(mangle, tmp_path):
    with FabricHub(lease_ttl=5.0, heartbeat_interval=0.2) as hub:
        agent = WorkerNodeAgent(
            hub.address, _HostileOnce(mangle), node_id="hostile"
        ).start()
        try:
            assert hub.wait_for_nodes(1, timeout=10.0)
            compiler = ParallelCompiler(backend=RemoteBackend(hub))
            return compiler.compile(SOURCE).digest, hub.stats.corrupt_frames
        finally:
            agent.stop()


def _through_the_network_tier(mangle, tmp_path):
    _, result = _compiled_result()
    fingerprints = module_fingerprints(
        phase1_parse_and_check(SOURCE).module,
        opt_level=2,
        cell_count=WarpArrayModel().cell_count,
        salt=compiler_salt(),
    )
    with CacheServiceServer(tmp_path / "server") as server:
        client = NetworkCacheClient(server.address)
        cache = TieredCache(ArtifactCache(tmp_path / "local"), client)
        try:
            assert client.put(fingerprints[("s", "main")], mangle(result))
            digest = ParallelCompiler(cache=cache).compile(SOURCE).digest
            assert client.remote_hits == 0 and client.remote_misses == 1
            return digest, client.corrupt_responses
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


class TestAuthentication:
    """With WARPCC_FABRIC_SECRET set, every blob carries an HMAC keyed
    on the shared secret, compared in constant time before unpickling."""

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
        import base64
        import hashlib
        import pickle

        monkeypatch.setenv(FABRIC_SECRET_ENV, "fleet-secret")
        task, _ = _compiled_result()
        frame = encode_task(task, "w0.0")
        evil = pickle.dumps(
            FunctionTask(
                source_text="module stolen end",
                filename="x.w2",
                section_name="s",
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
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
        assert decode_task(frame).source_text == task.source_text
