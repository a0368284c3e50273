"""Two-tier artifact cache: local PickleStore in front of a network tier.

Bazel-style content-addressed cache service: keys are the existing
artifact fingerprints (already salted with the compiler version), values
are pickled :class:`FunctionTaskResult` blobs.  One tenant's compile
warms every node that shares the cache service.

Tiering rules (INTERNALS.md §Distributed fabric):

- **read-through** — a local miss consults the network tier; a network
  hit is digest-validated, then written into the local store so the
  next lookup never leaves the machine;
- **write-behind** — local puts return immediately; a background thread
  pushes the blob to the network tier, and a full queue drops the push
  (the artifact is still cached locally — the network tier is an
  accelerator, not a system of record);
- **degradation** — *every* network-tier failure (refused connection,
  timeout, protocol error, corrupt response) is a counted miss, and
  after ``fail_threshold`` consecutive transport failures the tier is
  disabled for the rest of the compile.  Cache trouble can cost a
  recompile; it must never fail a compile or link a wrong artifact.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
from typing import Optional

from ..cache.store import DEFAULT_MAX_BYTES, PickleStore
from ..driver.function_master import FunctionTaskResult, result_payload_digest
from .chaos import CacheChaos
from .wire import (
    Connection,
    ProtocolError,
    decode_frame,
    pack_blob,
    pack_bytes,
    read_frame_line,
    unpack_blob,
    unpack_bytes,
)


class NetworkBlobStore(PickleStore):
    """Server-side storage: raw pickled-result blobs, content-addressed.

    Reuses the PickleStore machinery wholesale — atomic tmp+rename
    writes, LRU eviction, quarantine-on-corrupt — with ``bytes``
    payloads so the server never needs to unpickle (or trust) what
    clients store.
    """

    SUBDIR = "netblobs"
    PAYLOAD_TYPE = bytes


class _CacheHandler(socketserver.BaseRequestHandler):
    def handle(self):  # noqa: D102 - socketserver entry point
        self.server.cache_service._serve_connection(Connection(self.request))


class _CacheServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: "CacheServiceServer", host: str, port: int):
        self.cache_service = service
        super().__init__((host, port), _CacheHandler)


class CacheServiceServer:
    """The network cache tier: a tiny content-addressed blob service.

    Protocol (JSON lines, many requests per connection):

    - ``{"op": "cache-get", "key": fp}`` →
      ``{"ok": true, "hit": true, "blob": ..., "sha256": ...}`` or
      ``{"ok": true, "hit": false}``
    - ``{"op": "cache-put", "key": fp, "blob": ..., "sha256": ...}`` →
      ``{"ok": true, "stored": true}`` (digest-mismatched puts are
      refused, not stored)
    - ``{"op": "ping"}`` → ``{"ok": true, "entries": N}``

    ``chaos`` (tests/CI only) deterministically corrupts response blobs
    or fails requests, to prove clients degrade instead of dying.
    """

    def __init__(
        self,
        cache_dir=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_bytes: int = DEFAULT_MAX_BYTES,
        chaos: Optional[CacheChaos] = None,
    ):
        self.store = NetworkBlobStore(cache_dir, max_bytes=max_bytes)
        self.chaos = chaos
        self._server = _CacheServer(self, host, port)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="fabric-cache-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    def __enter__(self) -> "CacheServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection loop -----------------------------------------------

    def _serve_connection(self, conn: Connection) -> None:
        try:
            while True:
                frame = conn.recv()
                if frame is None:
                    return
                try:
                    reply = self._dispatch(frame)
                except ProtocolError as exc:
                    conn.send(
                        {"ok": False, "reason": exc.reason, "error": str(exc)}
                    )
                    return  # protocol violation: drop the connection
                except Exception as exc:  # noqa: BLE001 - never kill the thread
                    conn.send(
                        {"ok": False, "reason": "error", "error": repr(exc)}
                    )
                    continue
                conn.send(reply)
        except ProtocolError as exc:
            try:
                conn.send({"ok": False, "reason": exc.reason, "error": str(exc)})
            except Exception:  # noqa: BLE001
                pass
        except OSError:
            pass
        finally:
            conn.close()

    def _dispatch(self, frame: dict) -> dict:
        op = frame.get("op")
        if op == "ping":
            return {"ok": True, "entries": self.store.entry_count()}
        key = str(frame.get("key", ""))
        if not key:
            raise ProtocolError("cache request without a key", reason="bad-request")
        if self.chaos is not None and self.chaos.should_fail(key):
            return {"ok": False, "reason": "unavailable", "error": "chaos"}
        if op == "cache-get":
            blob = self.store.get(key)
            if blob is None:
                return {"ok": True, "hit": False}
            if self.chaos is not None:
                blob = self.chaos.maybe_corrupt(key, blob)
            reply = {"ok": True, "hit": True}
            reply.update(pack_bytes(blob))
            return reply
        if op == "cache-put":
            blob = unpack_bytes(frame)
            self.store.put(key, blob)
            return {"ok": True, "stored": True}
        raise ProtocolError(f"unknown cache op {op!r}", reason="bad-request")


class NetworkCacheClient:
    """Client side of the cache tier; swallows every failure, counted."""

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 5.0,
        fail_threshold: int = 3,
        max_frame_bytes: Optional[int] = None,
    ):
        host, _, port = address.rpartition(":")
        if not host or not port:
            raise ValueError(f"cache address must be HOST:PORT, got {address!r}")
        self.host, self.port = host, int(port)
        self.timeout = timeout
        self.fail_threshold = fail_threshold
        self.max_frame_bytes = max_frame_bytes
        self.disabled = False
        self.remote_hits = 0
        self.remote_misses = 0
        self.remote_errors = 0
        self.corrupt_responses = 0
        self._consecutive_failures = 0
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # -- wire ----------------------------------------------------------

    def _request(self, payload: dict) -> Optional[dict]:
        """One request/reply; None on any transport trouble (counted)."""
        import json

        with self._lock:
            if self.disabled:
                return None
            try:
                if self._sock is None:
                    self._sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout
                    )
                    self._rfile = self._sock.makefile("rb")
                self._sock.sendall(
                    (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
                )
                limit = self.max_frame_bytes or 32 * 1024 * 1024
                line = read_frame_line(self._rfile, limit)
                if line is None:
                    raise ConnectionError("cache service closed the connection")
                reply = decode_frame(line)
            except (OSError, ProtocolError, ValueError) as exc:
                self._drop_connection()
                self._note_failure(exc)
                return None
            self._consecutive_failures = 0
            return reply

    def _drop_connection(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _note_failure(self, exc: Exception) -> None:
        self.remote_errors += 1
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.fail_threshold:
            # The tier is gone; stop paying a timeout per lookup.
            self.disabled = True

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    # -- cache surface -------------------------------------------------

    def get(self, fingerprint: str) -> Optional[FunctionTaskResult]:
        reply = self._request({"op": "cache-get", "key": fingerprint})
        if reply is None or not reply.get("ok"):
            if reply is not None:
                self.remote_errors += 1
            return None
        if not reply.get("hit"):
            self.remote_misses += 1
            return None
        try:
            result = unpack_blob(reply, FunctionTaskResult)
            sealed = getattr(result, "payload_digest", None)
            if sealed is None or result_payload_digest(result) != sealed:
                raise ProtocolError("cache entry fails payload-digest validation")
        except Exception:  # noqa: BLE001 - cache trouble must never fail a compile
            # A corrupt network-tier entry is a miss, never an artifact
            # and never an error: even a blob that unpickles into a
            # FunctionTaskResult with mangled internals (payload-digest
            # derivation raising) degrades to a recompile.
            self.corrupt_responses += 1
            self.remote_misses += 1
            return None
        self.remote_hits += 1
        return result

    def put(self, fingerprint: str, result: FunctionTaskResult) -> bool:
        payload = {"op": "cache-put", "key": fingerprint}
        payload.update(pack_blob(result))
        reply = self._request(payload)
        return bool(reply and reply.get("ok"))


class TieredCache:
    """Local artifact store in front of a network cache tier.

    Implements exactly the surface :class:`repro.driver.master.
    ParallelCompiler` consumes — ``get``/``put``/``stats``/
    ``size_bytes``/``entry_count`` — so it drops in anywhere an
    :class:`~repro.cache.store.ArtifactCache` does.
    """

    def __init__(
        self,
        local,
        remote: NetworkCacheClient,
        *,
        write_behind: bool = True,
        queue_depth: int = 256,
    ):
        self.local = local
        self.remote = remote
        self.write_behind = write_behind
        self.writes_dropped = 0
        self._queue: Optional["queue.Queue"] = None
        self._writer: Optional[threading.Thread] = None
        if write_behind:
            self._queue = queue.Queue(maxsize=queue_depth)
            self._writer = threading.Thread(
                target=self._writer_loop, name="fabric-cache-writer", daemon=True
            )
            self._writer.start()

    # The master reads ``cache.stats`` for its report; the local tier's
    # counters are the ones that decide recompiles, so they are the ones
    # surfaced.  Network-tier counters ride alongside on ``remote``.
    @property
    def stats(self):
        return self.local.stats

    @property
    def max_bytes(self) -> int:
        return self.local.max_bytes

    @property
    def cache_dir(self):
        return self.local.cache_dir

    def get(self, fingerprint: str) -> Optional[FunctionTaskResult]:
        result = self.local.get(fingerprint)
        if result is not None:
            return result
        result = self.remote.get(fingerprint)
        if result is not None:
            # Read-through: the next lookup never leaves the machine.
            self.local.put(fingerprint, result)
        return result

    def put(self, fingerprint: str, result: FunctionTaskResult) -> None:
        self.local.put(fingerprint, result)
        if self._queue is None:
            self.remote.put(fingerprint, result)
            return
        try:
            self._queue.put_nowait((fingerprint, result))
        except queue.Full:
            self.writes_dropped += 1  # local store still has it

    def _writer_loop(self) -> None:
        assert self._queue is not None
        while True:
            item = self._queue.get()
            if item is None:
                return
            fingerprint, result = item
            try:
                self.remote.put(fingerprint, result)
            except Exception:  # noqa: BLE001 - the tier must never raise
                pass
            finally:
                self._queue.task_done()

    def flush(self, timeout: float = 10.0) -> None:
        """Block until queued write-behinds have drained (tests)."""
        if self._queue is None:
            return
        joiner = threading.Thread(target=self._queue.join, daemon=True)
        joiner.start()
        joiner.join(timeout)

    def close(self) -> None:
        if self._queue is not None:
            self.flush()
            self._queue.put(None)
        self.remote.close()

    # -- maintenance passthroughs -------------------------------------

    def size_bytes(self) -> int:
        return self.local.size_bytes()

    def entry_count(self) -> int:
        return self.local.entry_count()

    def clear(self) -> int:
        return self.local.clear()
