"""Two-tier artifact cache: local store in front of a network tier.

Bazel-style content-addressed cache service: keys are the existing
artifact fingerprints (already salted with the compiler version), values
are ``objects/`` entries — the server is an
:class:`~repro.cache.store.ArtifactCache` directory behind a socket, and
what crosses is the bytes of the file.  One tenant's compile warms every
node that shares the cache service.

Tiering rules (INTERNALS.md §Distributed fabric):

- **read-through** — a local miss consults the network tier; a network
  hit is checked exactly as a local read checks a file, then written
  into the local store verbatim so the next lookup never leaves the
  machine;
- **write-behind** — local puts return immediately; a background thread
  pushes the bytes just written to the network tier, and a full queue
  drops the push
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
import threading
from collections import Counter
from functools import partial
from typing import Callable, Optional, Tuple

from ..cache.store import DEFAULT_MAX_BYTES, ArtifactCache
from ..driver.function_master import FunctionTaskResult
from ..parallel.fault_schedule import FaultSchedule
from .wire import (
    Connection,
    LineServer,
    ProtocolError,
    connect_with_backoff,
    pack_bytes,
    parse_address,
    refusal,
    serve_requests,
    unpack_bytes,
)


class CacheServiceServer:
    """The network cache tier: an ``objects/`` directory behind a socket
    (``self.store`` is a plain :class:`ArtifactCache`, readable by any
    other opened on its directory).  The server checks an entry's
    framing — both hashes, tier, schema — before it stores it and again
    before it serves it, and never runs the body's codec.

    Protocol (JSON lines, many requests per connection):

    - ``{"op": "cache-get", "key": fp}`` →
      ``{"ok": true, "hit": true, "blob": ..., "sha256": ...}`` or
      ``{"ok": true, "hit": false}``
    - ``{"op": "cache-put", "key": fp, "blob": ..., "sha256": ...}`` →
      ``{"ok": true, "stored": true}`` (a put whose digest does not
      match, or whose blob is not an ``objects/`` entry, is refused)
    - ``{"op": "ping"}`` → ``{"ok": true, "entries": N}``

    A test assigns ``chaos`` a
    :class:`~repro.parallel.fault_schedule.FaultSchedule`: its
    ``cache-fail`` faults refuse a request before the store, its
    ``cache-corrupt`` faults flip a byte of a served blob (a key's n-th
    corruption is its attempt n), to prove clients degrade instead of
    dying.
    """

    #: the fault plan of the response hook (None: no faults)
    chaos: Optional[FaultSchedule] = None

    def __init__(
        self,
        cache_dir=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self.store = ArtifactCache(cache_dir, max_bytes=max_bytes)
        self.verbs = {
            "ping": self._ping,
            "cache-get": self._keyed(self._get),
            "cache-put": self._keyed(self._put),
        }
        self.endpoint = LineServer(
            host, port, partial(serve_requests, verbs=self.verbs)
        ).start("fabric-cache-server")

    @property
    def address(self) -> str:
        return self.endpoint.address

    def close(self) -> None:
        self.endpoint.close()

    def __enter__(self) -> "CacheServiceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- verbs ---------------------------------------------------------

    def _ping(self, frame: dict) -> dict:
        return {"ok": True, "entries": self.store.entry_count()}

    def _keyed(self, handler: Callable[[str, dict], dict]):
        """A verb on one key: a request without one breaks the protocol
        (reply, then drop), and chaos may fail it before the store."""

        def verb(frame: dict) -> dict:
            key = str(frame.get("key", ""))
            if not key:
                raise ProtocolError(
                    "cache request without a key", reason="bad-request"
                )
            if self.chaos is not None and self.chaos.fires(
                "cache-fail", key, 0
            ):
                return refusal("chaos", "unavailable")
            return handler(key, frame)

        return verb

    def _get(self, key: str, frame: dict) -> dict:
        blob = self.store.get_bytes(key)  # a rotted entry is deleted here
        if blob is None:
            return {"ok": True, "hit": False}
        if self.chaos is not None and self.chaos.fires(
            "cache-corrupt", key, None
        ):
            scribbled = bytearray(blob)
            scribbled[len(scribbled) // 2] ^= 0xFF
            blob = bytes(scribbled)
        reply = {"ok": True, "hit": True}
        reply.update(pack_bytes(blob))
        return reply

    def _put(self, key: str, frame: dict) -> dict:
        self.store.put_bytes(key, unpack_bytes(frame))  # raises: refused
        return {"ok": True, "stored": True}


class NetworkCacheClient:
    """Client side of the cache tier; swallows every failure, counted in
    ``counts`` (``remote_hits``, ``remote_misses``, ``remote_errors``,
    ``corrupt_responses``).  Its two limits are class constants; a test
    sets them on the instance."""

    #: seconds a connect or a reply may take
    timeout: float = 5.0
    #: consecutive transport failures that disable the tier
    fail_threshold: int = 3

    def __init__(self, address: str):
        self.host, self.port = parse_address(address, "cache")
        self.disabled = False
        self.counts: Counter = Counter()
        self._consecutive_failures = 0
        self._lock = threading.Lock()
        self._conn: Optional[Connection] = None

    # -- wire ----------------------------------------------------------

    def _request(self, payload: dict) -> Optional[dict]:
        """One request/reply; None on any transport trouble (counted)."""
        with self._lock:
            if self.disabled:
                return None
            try:
                if self._conn is None:
                    self._conn = connect_with_backoff(
                        self.host, self.port, attempts=1, timeout=self.timeout
                    )
                self._conn.send(payload)
                reply = self._conn.recv()
                if reply is None:
                    raise ConnectionError("cache service closed the connection")
            except (OSError, ProtocolError) as exc:
                self._drop_connection()
                self._note_failure(exc)
                return None
            self._consecutive_failures = 0
            return reply

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _note_failure(self, exc: Exception) -> None:
        self.counts["remote_errors"] += 1
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.fail_threshold:
            # The tier is gone; stop paying a timeout per lookup.
            self.disabled = True

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    # -- cache surface -------------------------------------------------

    def get(
        self, fingerprint: str
    ) -> Optional[Tuple[FunctionTaskResult, bytes]]:
        """A network hit as ``(result, its entry's bytes)``, checked
        exactly as :meth:`ArtifactCache.get` checks a file; else None."""
        reply = self._request({"op": "cache-get", "key": fingerprint})
        if reply is None or not reply.get("ok"):
            if reply is not None:
                self.counts["remote_errors"] += 1
            return None
        if not reply.get("hit"):
            self.counts["remote_misses"] += 1
            return None
        try:
            entry = unpack_bytes(reply)
            result = ArtifactCache.open(entry)
        except Exception:  # noqa: BLE001 - cache trouble must never fail a compile
            # A corrupt network-tier entry is a miss, never an artifact
            # and never an error: hashes that do not hold, or facts of
            # the wrong type behind hashes that do, degrade to a
            # recompile.
            self.counts.update(("corrupt_responses", "remote_misses"))
            return None
        self.counts["remote_hits"] += 1
        return result, entry

    def put(self, fingerprint: str, entry: bytes) -> bool:
        reply = self._request(
            {"op": "cache-put", "key": fingerprint, **pack_bytes(entry)}
        )
        return bool(reply and reply.get("ok"))


class TieredCache(ArtifactCache):
    """An artifact cache whose miss path asks a network cache tier, and
    whose puts reach it too; drops in anywhere an
    :class:`~repro.cache.store.ArtifactCache` does.  ``counts`` are the
    local tier's — the counters that decide recompiles — plus
    ``writes_dropped``; the network tier's ride alongside on ``remote``.
    """

    #: pushes waiting for the writer before a put's push is dropped
    queue_depth: int = 256

    def __init__(
        self,
        cache_dir,
        remote: NetworkCacheClient,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        super().__init__(cache_dir, max_bytes)
        self.remote = remote
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_depth)
        self._writer = threading.Thread(
            target=self._writer_loop, name="fabric-cache-writer", daemon=True
        )
        self._writer.start()

    def get(self, fingerprint: str) -> Optional[FunctionTaskResult]:
        result = super().get(fingerprint)
        if result is None:
            found = self.remote.get(fingerprint)
            if found is not None:
                # Read-through, verbatim: the next lookup never leaves
                # the machine.
                result, entry = found
                self._write(fingerprint, entry)
        return result

    def put(self, fingerprint: str, result: FunctionTaskResult) -> None:
        entry = self.seal(result)
        self._write(fingerprint, entry)
        try:
            self._queue.put_nowait((fingerprint, entry))
        except queue.Full:
            self.counts["writes_dropped"] += 1  # local store still has it

    def _writer_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            try:
                self.remote.put(*item)
            except Exception:  # noqa: BLE001 - the tier must never raise
                pass
            finally:
                self._queue.task_done()

    def flush(self, timeout: float = 10.0) -> None:
        """Block until queued write-behinds have drained (tests)."""
        joiner = threading.Thread(target=self._queue.join, daemon=True)
        joiner.start()
        joiner.join(timeout)

    def close(self) -> None:
        self.flush()
        self._queue.put(None)
        self.remote.close()
