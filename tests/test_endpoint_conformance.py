"""One endpoint, one error policy: the compile service, the network
cache tier and the fabric hub (before a peer holds a lease) all sit on
:class:`repro.fabric.wire.LineServer`, and all three must treat a
misbehaving peer the same way.

A framing violation — oversized, truncated, bad JSON, not an object —
gets one ``{"ok": false, "reason": ...}`` reply and the connection is
dropped.  Blank lines are skipped.  An unknown op or a handler
exception gets the same reply shape and the connection stays.

The second half is the client side of the same boundary: a server that
answers junk must surface as a ``ServiceError``, and as exit code 2
from the client verbs, never as a traceback — and a worker node handed
hostile task frames answers each with a counted refusal and keeps
serving.
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.fabric import CacheServiceServer, FabricHub
from repro.fabric.node import WorkerNodeAgent
from repro.fabric.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_result,
    encode_task,
    error_reply,
)
from repro.parallel.local import SerialBackend
from repro.service import (
    CompileService,
    ServiceClient,
    ServiceError,
    ServiceSocketServer,
)

from helpers import function_task


class Peer:
    """A raw socket: the tests decide every byte."""

    def __init__(self, address):
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=10.0)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes):
        self.sock.sendall(data)

    def ask(self, request: dict) -> dict:
        self.send(json.dumps(request).encode() + b"\n")
        return self.reply()

    def reply(self) -> dict:
        return json.loads(self.rfile.readline())

    def dropped(self) -> bool:
        return self.rfile.readline() == b""

    def close(self):
        self.rfile.close()
        self.sock.close()


@contextmanager
def service_endpoint(tmp_path):
    server = ServiceSocketServer(CompileService(SerialBackend()))
    thread = threading.Thread(target=server.serve_until_shutdown, daemon=True)
    thread.start()
    try:
        # submit without a source: the handler raises KeyError
        yield server.endpoint, {"op": "ping"}, {"op": "submit"}
    finally:
        server.request_shutdown(drain=False)
        thread.join(timeout=30.0)


@contextmanager
def cache_endpoint(tmp_path):
    with CacheServiceServer(tmp_path / "blobs") as server:
        # a NUL in the key: the store's path lookup raises ValueError
        yield (
            server.endpoint,
            {"op": "ping"},
            {"op": "cache-get", "key": "\x00"},
        )


@contextmanager
def hub_endpoint(tmp_path):
    with FabricHub(lease_ttl=1.0, heartbeat_interval=0.2) as hub:
        # before it registers, `register` is the one verb a peer has
        yield (
            hub.endpoint,
            {
                "op": "register", "node": "conformance", "workers": 1,
                "protocol": PROTOCOL_VERSION,
            },
            {"op": "register", "workers": "many", "protocol": PROTOCOL_VERSION},
        )


@pytest.fixture(params=[service_endpoint, cache_endpoint, hub_endpoint])
def endpoint(request, tmp_path):
    """(the LineServer, a request answered ok, one whose handler raises)"""
    with request.param(tmp_path) as case:
        yield case


@pytest.fixture
def peer(endpoint):
    peer = Peer(endpoint[0].address)
    yield peer
    peer.close()


def refused(reply: dict, reason: str) -> bool:
    return reply["ok"] is False and reply["reason"] == reason and "error" in reply


class TestServerSide:
    def test_oversized_line_is_refused_before_it_is_buffered(self, endpoint):
        server, healthy, _ = endpoint
        server.max_frame_bytes = 256
        peer = Peer(server.address)
        peer.send(b'{"op": "ping", "pad": "' + b"x" * 4096 + b'"}\n')
        assert refused(peer.reply(), "oversized-frame")
        assert peer.dropped()
        peer.close()
        fresh = Peer(server.address)
        assert fresh.ask(healthy)["ok"] is True
        fresh.close()

    def test_stream_dying_mid_line_is_never_parsed(self, endpoint, peer):
        peer.send(b'{"op": "shut')  # no newline: the writer died here
        peer.sock.shutdown(socket.SHUT_WR)
        assert refused(peer.reply(), "truncated-frame")
        assert peer.dropped()

    def test_bad_json_is_refused_and_the_connection_dropped(self, endpoint, peer):
        peer.send(b"{not json]\n")
        assert refused(peer.reply(), "bad-json")
        assert peer.dropped()

    def test_non_object_frame_is_refused_and_dropped(self, endpoint, peer):
        peer.send(b"[1, 2, 3]\n")
        assert refused(peer.reply(), "bad-request")
        assert peer.dropped()

    def test_blank_lines_are_skipped(self, endpoint, peer):
        peer.send(b"\n  \n")
        assert peer.ask(endpoint[1])["ok"] is True

    def test_unknown_op_is_refused_and_the_connection_stays(self, endpoint, peer):
        assert refused(peer.ask({"op": "no-such-op"}), "bad-request")
        assert refused(peer.ask({"op": ["not", "a", "name"]}), "bad-request")
        assert peer.ask(endpoint[1])["ok"] is True

    def test_handler_exception_is_refused_and_the_connection_stays(
        self, endpoint, peer
    ):
        _, healthy, crashing = endpoint
        assert refused(peer.ask(crashing), "bad-request")
        assert peer.ask(healthy)["ok"] is True

    def test_a_pickle_in_a_frame_is_never_unpickled(
        self, endpoint, tmp_path, monkeypatch
    ):
        """Whatever verb carries it, on whichever endpoint: a blob that
        is a pickle is refused (or not looked at), no unpickler is
        entered, nothing it names runs, and the server keeps serving."""
        import base64
        import hashlib
        import os
        import pickle

        canary = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {canary}",))

        blob = pickle.dumps(Evil())
        entered = []
        for module, name in (
            (pickle, "loads"), (pickle, "load"), (pickle, "Unpickler"),
        ):
            monkeypatch.setattr(
                module, name, lambda *a, _name=name, **k: entered.append(_name)
            )
        server, healthy, _ = endpoint
        for op in ("cache-put", "cache-get", "result", "task", "submit", "watch"):
            peer = Peer(server.address)
            reply = peer.ask(
                {
                    "op": op, "key": "ab" * 32, "id": "w0.0", "node": "n",
                    "blob": base64.b64encode(blob).decode("ascii"),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
            assert reply["ok"] is False or reply.get("hit") is False, (op, reply)
            peer.close()
        assert entered == [] and not canary.exists()
        fresh = Peer(server.address)
        assert fresh.ask(healthy)["ok"] is True
        fresh.close()

    def test_a_register_of_another_protocol_is_refused_by_the_hub(self, tmp_path):
        """The hub's one verb reads what both peers send: a peer of
        another protocol, or of none, gets the refusal shape under its
        own reason, no lease, and the connection stays."""
        with hub_endpoint(tmp_path) as (server, healthy, _):
            peer = Peer(server.address)
            unversioned = {k: v for k, v in healthy.items() if k != "protocol"}
            for request in (dict(healthy, protocol=99), unversioned):
                assert refused(peer.ask(request), "protocol-mismatch")
            assert peer.ask(healthy)["ok"] is True
            peer.close()

    def test_only_a_protocol_error_names_its_own_wire_reason(self):
        """Any exception may happen to carry a ``reason`` attribute
        (here 'surrogates not allowed'); it must not leak as the code."""
        stray = UnicodeEncodeError("utf-8", "\ud800", 0, 1, "surrogates not allowed")
        assert refused(error_reply(stray), "bad-request")
        assert refused(error_reply(ProtocolError("x", reason="bad-json")), "bad-json")


# ---------------------------------------------------------------------------
# Client side: replies are read through the same checked boundary.
# ---------------------------------------------------------------------------


@contextmanager
def misbehaving_server(answer: bytes):
    """Accepts connections, reads one request line, answers ``answer``
    verbatim and hangs up."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                sock, _ = listener.accept()
            except socket.timeout:
                continue
            with sock:
                sock.makefile("rb").readline()
                try:
                    sock.sendall(answer)
                except OSError:
                    pass  # the client hung up on an over-long line

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % listener.getsockname()[1]
    finally:
        stop.set()
        thread.join(timeout=10.0)
        listener.close()


def junk_reply(reason: str) -> bytes:
    if reason == "oversized-frame":
        return b"x" * (DEFAULT_MAX_FRAME_BYTES + 2)
    return {
        "bad-json": b"HTTP/1.1 400 Bad Request\r\n",
        "bad-request": b'["a", "list"]\n',
        "truncated-frame": b'{"ok": true, "job": "j',
    }[reason]


class TestClientSide:
    @pytest.mark.parametrize(
        "reason",
        ["bad-json", "bad-request", "truncated-frame", "oversized-frame"],
    )
    def test_junk_reply_is_a_service_error_with_the_wire_reason(self, reason):
        with misbehaving_server(junk_reply(reason)) as address:
            with pytest.raises(ServiceError) as excinfo:
                ServiceClient(address, timeout=10.0).ping()
        assert excinfo.value.reason == reason

    @pytest.mark.parametrize("verb", ["submit", "status", "watch"])
    def test_client_verbs_exit_2_with_one_line(self, verb, tmp_path, capsys):
        source = tmp_path / "m.w2"
        source.write_text("module m end\n")
        argv = {
            "submit": ["submit", str(source)],
            "status": ["status"],
            "watch": ["watch", str(source), "--once"],
        }[verb]
        with misbehaving_server(b"\x00\xff garbage\n") as address:
            assert main([*argv, "--connect", address]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("warpcc: ") and "[bad-json]" in line


# ---------------------------------------------------------------------------
# Node side: a hub that sends hostile task frames.  A task is a window and
# its section's headers; a window that does not parse, headers that
# disagree with it, or a name it does not hold is answered with a refused
# result — counted, never run, never a crash — and the node serves on.
# ---------------------------------------------------------------------------

WINDOW_MODULE = """
module w
section s (cells 0..0)
  function main(x: float) : float begin return x * 2.0; end
end
end
"""


def _hostile_tasks():
    from dataclasses import replace

    task = function_task(WINDOW_MODULE, "s", "main")
    return task, {
        "window_does_not_parse": replace(task, window="function main( begin"),
        "headers_disagree": replace(task, headers=["function main()"]),
        "name_not_in_the_window": replace(task, function_name="other"),
    }


def test_a_worker_node_refuses_hostile_task_frames_and_serves_on():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(10.0)
    address = "127.0.0.1:%d" % listener.getsockname()[1]
    agent = WorkerNodeAgent(address, SerialBackend(), node_id="target")
    agent.reconnect = False
    agent.start()
    sock, _ = listener.accept()
    hub = Peer.__new__(Peer)
    hub.sock, hub.rfile = sock, sock.makefile("rb")
    try:
        assert hub.reply()["op"] == "register"
        hub.send(json.dumps({"ok": True, "heartbeat_interval": 30}).encode() + b"\n")
        healthy, hostile = _hostile_tasks()
        answers = {}
        for name, task in [*sorted(hostile.items()), ("healthy", healthy)]:
            hub.send(json.dumps(encode_task(task, name)).encode() + b"\n")
            frame = hub.reply()
            while frame["op"] == "heartbeat":
                frame = hub.reply()
            assert frame["op"] == "result" and frame["id"] == name
            answers[name] = decode_result(frame)
        for name in hostile:
            assert answers[name].refused and answers[name].code == b""
        assert not answers["healthy"].refused and answers["healthy"].code
        deadline = time.monotonic() + 10.0  # a node counts after it sends
        while agent.counts["tasks_completed"] < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert agent.counts["tasks_refused"] == 3
        assert agent.counts["tasks_completed"] == 1
        assert agent.counts["tasks_failed"] == 0
    finally:
        agent.stop()
        hub.close()
        listener.close()
