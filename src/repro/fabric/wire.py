"""The JSON-lines endpoint: framing, codecs, and the one socket layer.

One frame per line, UTF-8 JSON objects, newline terminated.  The compile
service, the network cache tier and the fabric hub all speak it, and all
three — servers and clients — go through this module: :class:`Connection`
is the only code that reads or writes a socket, :class:`LineServer` the
only listener.  The reader enforces a frame-size bound (a peer cannot
make us buffer an unbounded line), distinguishes a clean EOF from a
connection that died mid-line, and turns malformed JSON into a typed
:class:`ProtocolError` carrying a machine-readable ``reason`` instead of
whatever exception ``json`` felt like raising.

One error policy, server side (:class:`LineServer`, :func:`replies_to`):
a framing violation — oversized, truncated, bad JSON, not an object —
gets one ``{"ok": false, "reason": ...}`` reply and the connection is
dropped, because the framing state is unknowable after that; so does a
handler that raises :class:`ProtocolError` (a peer breaking the protocol
above the framing: a failed authentication, a digest that does not
match).  Blank lines are skipped.  An unknown op or any other handler
exception gets the same reply shape and the connection stays.

Tasks and results cross as sealed entries (:mod:`repro.cache.store`'s
``WCE1`` framing, the one serial form): a result is the very bytes an
``objects/`` directory holds for it, a task a header-only entry.  The
entry is base64'd into a frame that carries its sha256, and decoding
passes four checks in order, constructing nothing before the last:

- with a shared secret configured (``WARPCC_FABRIC_SECRET``, read by
  :func:`fabric_secret`), the frame's **HMAC-SHA256** tag keyed on it,
  compared in constant time before anything is parsed (hub registration
  likewise demands a challenge–response proof of the secret before a
  lease, and so any task payload, is granted);
- the **transit digest** — it catches accidents only: a peer computes it
  over its own bytes, so it proves nothing about the sender;
- the **entry's own hashes**, of header and body — a result's body hash
  is its sealed ``payload_digest``, so a frame truncated, spliced or
  corrupted on the way, or a worker that sealed garbage, is refused at
  the crossing, never linked;
- the **typed facts**: a record is built from the JSON header only if it
  names exactly the record's fields with exactly their types
  (:mod:`repro.facts`).  Nothing a frame holds is unpickled, so there is
  no allowlist: there is nothing to allow.

Without a secret the fabric is unauthenticated and its ports must only
be exposed on trusted networks (the defaults bind 127.0.0.1); see
INTERNALS.md §Distributed fabric.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
import random
import socket
import socketserver
import threading
import time
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..cache.store import ArtifactCache, FactsCodec, open_entry, seal_entry
from ..driver.function_master import FunctionTask, FunctionTaskResult

#: Protocol revision; bumped on incompatible frame changes, and the
#: schema of a task entry: a peer of another revision cannot open one.
#: 2: a task names one function, a result frame completes its task.
#: 3: a task carries its window and its section's headers, not the
#: module; a result, the window's facts or why it was refused.
PROTOCOL_VERSION = 3

#: Hard bound on one frame.  Object code for a function is a few KB;
#: whole-module sources top out far below this.  Anything larger is a
#: bug or an attack, and either way we refuse to buffer it.
DEFAULT_MAX_FRAME_BYTES = 32 * 1024 * 1024


class ProtocolError(Exception):
    """A peer violated the framing contract.

    ``reason`` is the machine-readable code sent back on the wire before
    the connection is dropped: ``oversized-frame``, ``truncated-frame``,
    ``bad-json``, ``bad-request``, or ``corrupt-payload``.
    """

    def __init__(self, message: str, reason: str = "protocol-error"):
        super().__init__(message)
        self.reason = reason


class WireCorruption(ProtocolError):
    """A frame's content failed digest validation."""

    def __init__(self, message: str):
        super().__init__(message, reason="corrupt-payload")


class AuthenticationError(WireCorruption):
    """A frame failed shared-secret authentication.

    Subclasses :class:`WireCorruption` so every handler that already
    treats corruption as "drop the frame, retry elsewhere" covers the
    unauthenticated case too — an attacker's frame must never be more
    disruptive than a flipped bit.
    """

    def __init__(self, message: str):
        ProtocolError.__init__(self, message, reason="unauthenticated")


#: Environment variable holding the fleet's shared secret.  When set,
#: every blob crossing the wire must carry a matching HMAC and hub
#: registration requires a challenge-response proof of the secret.
FABRIC_SECRET_ENV = "WARPCC_FABRIC_SECRET"


def fabric_secret() -> Optional[bytes]:
    """The shared fleet secret, or None when running unauthenticated."""
    value = os.environ.get(FABRIC_SECRET_ENV, "")
    return value.encode("utf-8") if value else None


def hmac_tag(data: bytes, key: bytes) -> str:
    return hmac.new(key, data, hashlib.sha256).hexdigest()


def read_frame_line(rfile, max_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> Optional[bytes]:
    """One newline-terminated line from a binary file object.

    Returns ``None`` on clean EOF.  Raises :class:`ProtocolError` when
    the line exceeds ``max_bytes`` (``oversized-frame``) or the stream
    ended mid-line (``truncated-frame``) — a partial read must never be
    parsed as if it were a whole frame.
    """
    line = rfile.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        raise ProtocolError(
            f"frame exceeds {max_bytes} bytes", reason="oversized-frame"
        )
    if not line.endswith(b"\n"):
        raise ProtocolError(
            "connection closed mid-frame", reason="truncated-frame"
        )
    return line


def decode_frame(line: bytes) -> dict:
    """Parse one frame line into a dict, or raise :class:`ProtocolError`."""
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed JSON frame: {exc}", reason="bad-json")
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(frame).__name__}",
            reason="bad-request",
        )
    return frame


def encode_frame(frame: dict) -> bytes:
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Blob envelope: base64 + sha256 (+ HMAC when a secret is set) around the
# bytes of a sealed entry.
# ---------------------------------------------------------------------------


def _blob_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pack_bytes(blob: bytes) -> dict:
    """Fields carrying raw bytes plus their digest.

    With a shared secret configured the fields also carry an HMAC tag
    keyed on it, proving the bytes were produced by a secret holder."""
    key = fabric_secret()
    fields = {
        "blob": base64.b64encode(blob).decode("ascii"),
        "sha256": _blob_digest(blob),
    }
    if key is not None:
        fields["hmac"] = hmac_tag(blob, key)
    return fields


def unpack_bytes(frame: dict) -> bytes:
    """Decode, authenticate, and digest-check packed bytes.

    When a shared secret is configured the frame's HMAC is compared in
    constant time *before* the bytes reach any caller — a peer that
    does not hold the secret cannot reach a deserializer at all.
    """
    try:
        blob = base64.b64decode(frame["blob"].encode("ascii"), validate=True)
    except Exception as exc:  # noqa: BLE001 - anything here is corruption
        raise WireCorruption(f"undecodable blob: {exc}")
    key = fabric_secret()
    if key is not None:
        tag = frame.get("hmac")
        if not isinstance(tag, str) or not hmac.compare_digest(
            tag, hmac_tag(blob, key)
        ):
            raise AuthenticationError(
                "blob HMAC missing or wrong (peer lacks the fabric secret?)"
            )
    digest = _blob_digest(blob)
    if digest != frame.get("sha256"):
        raise WireCorruption(
            f"blob digest mismatch: frame says {frame.get('sha256')!r}, "
            f"content hashes to {digest!r}"
        )
    return blob


#: a task is a header-only entry of a tier no directory holds
TASK_TIER = "task"
_TASK_CODEC = FactsCodec(FunctionTask)


def _open_task(entry: bytes) -> FunctionTask:
    return _TASK_CODEC.unpack(*open_entry(entry, TASK_TIER, PROTOCOL_VERSION))


def _record_in(frame: dict, opener: Callable, what: str):
    """The record in a frame's blob: :func:`unpack_bytes`, then
    ``opener`` on the entry — whatever that raises is the frame's fault."""
    entry = unpack_bytes(frame)
    try:
        return opener(entry)
    except Exception as exc:  # noqa: BLE001
        raise WireCorruption(f"blob is not a {what} entry: {exc}")


def encode_task(task: FunctionTask, task_id: str) -> dict:
    entry = seal_entry(TASK_TIER, PROTOCOL_VERSION, *_TASK_CODEC.pack(task))
    return {"op": "task", "id": task_id, **pack_bytes(entry)}


def decode_task(frame: dict) -> FunctionTask:
    return _record_in(frame, _open_task, "task")


def encode_result(result: FunctionTaskResult, task_id: str) -> dict:
    """A result frame; its blob is the result's ``objects/`` entry."""
    return {"op": "result", "id": task_id, **pack_bytes(ArtifactCache.seal(result))}


def decode_result(frame: dict) -> FunctionTaskResult:
    """Decode a result frame: the blob must open as an ``objects/``
    entry, which re-hashes its code against the sealed payload digest
    (what the supervisor checks too, enforced at the wire so a corrupt
    result never even enters the scheduler) and type-checks every fact.
    """
    return _record_in(frame, ArtifactCache.open, "result")


# ---------------------------------------------------------------------------
# Connection: a socket speaking framed JSON, with thread-safe sends.
# ---------------------------------------------------------------------------


class Connection:
    """One peer connection — the only code that touches a socket.

    ``send`` is locked (the hub's scheduler and monitor threads both
    write to node connections); ``recv`` is only ever called from the
    connection's single reader thread.
    """

    def __init__(self, sock: socket.socket, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.max_frame_bytes = max_frame_bytes

    def send(self, frame: dict) -> None:
        data = encode_frame(frame)
        if len(data) > self.max_frame_bytes:
            raise ProtocolError(
                f"refusing to send {len(data)}-byte frame",
                reason="oversized-frame",
            )
        self.send_raw(data)

    def send_raw(self, data: bytes) -> None:
        """Raw bytes on the wire; called directly for fault injection only."""
        with self._send_lock:
            self._sock.sendall(data)

    def finish_sending(self) -> None:
        """Half-close: the peer reads EOF after our last frame while we
        keep reading its replies (the one-shot request style)."""
        self._sock.shutdown(socket.SHUT_WR)

    def recv(self) -> Optional[dict]:
        """The next frame, ``None`` on clean EOF; blank lines are skipped."""
        while True:
            try:
                line = read_frame_line(self._rfile, self.max_frame_bytes)
            except ValueError:
                # The file object was closed under us (shutdown, or chaos
                # killing the link mid-read): same as a clean EOF.
                return None
            if line is None:
                return None
            if line.strip():
                return decode_frame(line)

    def close(self) -> None:
        # Shut the socket down BEFORE closing the buffered reader: a
        # thread blocked in readline() holds the buffer's lock, and
        # closing the file object would wait on that lock forever.
        # shutdown() unblocks the reader at the OS level first.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._rfile.close()
        except (OSError, ValueError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# LineServer: the one listener, and the one request/reply loop.
# ---------------------------------------------------------------------------


def refusal(error: object, reason: str) -> dict:
    """The one shape every endpoint refuses a request with."""
    return {"ok": False, "error": str(error), "reason": reason}


def error_reply(error: Exception) -> dict:
    """The refusal for an exception: a :class:`ProtocolError` names its
    own reason, anything else is the request's fault as far as the peer
    can tell."""
    if isinstance(error, ProtocolError):
        return refusal(error, error.reason)
    return refusal(f"{type(error).__name__}: {error}", "bad-request")


def replies_to(request: dict, verbs: Dict[str, Callable]) -> Iterator[dict]:
    """The frames answering one request from a verb table.  A handler
    takes the request and returns one reply, or an iterable of them
    (progress events before the final document); an unknown op or a
    handler exception becomes an :func:`error_reply`, and only a
    :class:`ProtocolError` propagates."""
    try:
        op = request.get("op")
        handler = verbs.get(op)
        if handler is None:
            yield refusal(f"unknown op {op!r}", "bad-request")
            return
        reply = handler(request)
        if isinstance(reply, dict):
            yield reply
        else:
            yield from reply
    except ProtocolError:
        raise
    except Exception as error:  # noqa: BLE001 - protocol barrier
        yield error_reply(error)


def serve_requests(conn: Connection, verbs: Dict[str, Callable]) -> None:
    """A request/reply session: answer from ``verbs`` until EOF."""
    for request in iter(conn.recv, None):
        for reply in replies_to(request, verbs):
            conn.send(reply)


class LineServer(socketserver.ThreadingTCPServer):
    """A listener that runs ``session(conn)`` on a thread per connection
    and closes the connection when it returns — after one
    :func:`error_reply` if a :class:`ProtocolError` escaped it (the
    module docstring has the policy).  Either way the thread survives:
    a client can never take a server thread down with it.  ``port=0``
    picks a free port; read :attr:`address` after construction.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, host: str, port: int, session: Callable[[Connection], None]
    ):
        super().__init__((host, port), None)
        self.session = session
        #: the one frame cap, handed to every connection accepted
        self.max_frame_bytes = DEFAULT_MAX_FRAME_BYTES

    def finish_request(self, request, client_address) -> None:
        conn = Connection(request, self.max_frame_bytes)
        try:
            self.session(conn)
        except ProtocolError as error:
            try:
                conn.send(error_reply(error))
            except OSError:
                pass
        except OSError:
            pass
        finally:
            conn.close()

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.05) -> None:
        super().serve_forever(poll_interval)

    def start(self, name: str) -> "LineServer":
        """Accept on a daemon thread (embedded servers)."""
        threading.Thread(
            target=self.serve_forever, name=name, daemon=True
        ).start()
        return self

    def close(self) -> None:
        """Stop a started (or serving) listener and free its port."""
        self.shutdown()
        self.server_close()


# ---------------------------------------------------------------------------
# Backoff: capped exponential with jitter, shared by every reconnect loop.
# ---------------------------------------------------------------------------


def backoff_delays(
    attempts: int,
    base: float = 0.05,
    cap: float = 2.0,
    jitter: float = 0.5,
    rng: Optional[random.Random] = None,
) -> Iterator[float]:
    """Yield up to ``attempts`` sleep durations: ``base * 2**i`` capped
    at ``cap``, each scattered by ``±jitter`` (fraction) so a fleet of
    reconnecting nodes does not stampede the hub in lockstep."""
    if rng is None:
        rng = random.Random()
    for i in range(attempts):
        delay = min(cap, base * (2.0 ** i))
        spread = delay * jitter
        yield max(0.0, delay - spread + 2.0 * spread * rng.random())


def parse_address(address: str, what: str = "service") -> Tuple[str, int]:
    """``HOST:PORT`` split for a ``what`` (service, cache, hub) address."""
    host, _, port = address.rpartition(":")
    if not host or not port:
        raise ValueError(f"{what} address must be HOST:PORT, got {address!r}")
    return host, int(port)


def connect_with_backoff(
    host: str,
    port: int,
    *,
    attempts: int = 8,
    base: float = 0.05,
    cap: float = 2.0,
    timeout: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> Connection:
    """A :class:`Connection` to ``host:port``, the connect retried
    through :func:`backoff_delays` (``timeout`` stays on the socket).

    Only connection-refused/reset races are retried — those are the
    "the server is still binding its socket" window.  Anything else
    (unknown host, permission) fails fast.
    """
    last: Optional[Exception] = None
    delays = [0.0]
    delays.extend(backoff_delays(attempts - 1, base=base, cap=cap, rng=rng))
    for delay in delays:
        if delay:
            time.sleep(delay)
        try:
            return Connection(
                socket.create_connection((host, port), timeout=timeout)
            )
        except (ConnectionRefusedError, ConnectionResetError) as exc:
            last = exc
    assert last is not None
    raise last
