"""On-disk entry stores: content-addressed, concurrent-safe, bounded.

Layout: ``<cache_dir>/<tier>/<fp[:2]>/<fp>.entry``.  An entry is a small
checked header and a verified body::

    "WCE1" | u32 header length | SHA-256 of the header | header (JSON) | body

The header names the tier and its schema, carries the body's SHA-256
(for ``objects/`` a result's payload digest), and holds whatever facts
the tier wants readable without touching the body.  :func:`seal_entry`
and :func:`open_entry` are the only definition of that framing: a
:class:`Store` is the two plus a path, the fabric's frames carry sealed
entries, and the cache server holds an ``objects/`` directory.
Opening re-hashes header and body.  A hash mismatch, a truncated file,
another tier or schema, a mistyped fact or a body its codec rejects is
a corrupt entry: deleted, counted, reported as a miss.  Corruption can
cost a recompile, never a wrong artifact and never an exception.

Writes go through a temporary file in the same directory followed by
``os.replace``, which is atomic on POSIX and Windows — two compilers
sharing a cache directory can race freely: readers see either the old
bytes or the new bytes, never a torn write.

Eviction is LRU by file mtime (every hit re-touches its entry), bounded
by total bytes; a store never evicts the entry it just wrote.  A handle
keeps a running total of the tier's bytes — one directory scan when it
first writes, advanced by each ``put`` — and only when that total
crosses the bound does it scan again and evict.  The scan reads the
disk, so handles in different processes still converge on the bound.

:class:`Store` owns all of that for every tier.  A tier is a
subdirectory, a schema number and a *codec* — how a payload becomes
``(header facts, body)`` and back.  The tiers that hold object code
(``objects/`` here, ``link/`` in :mod:`repro.cache.link_store`) keep
it in the serial form of :mod:`repro.asmlink.encode`, with what a warm
compile reads in the header; ``variants/`` and ``modules/`` hold one
small record each as header facts with no body
(:class:`FactsCodec`); ``parse/`` holds a window's facts as header and
its fingerprint text as body.  No tier holds an object graph, so no
byte read from disk is unpickled.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Tuple

from ..driver.function_master import result_facts, result_from_facts
from ..facts import from_facts
from .fingerprint import CACHE_SCHEMA_VERSION

#: Default size bound: plenty for thousands of functions, small enough
#: that a developer cache dir never becomes a surprise.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_PREFIX = struct.Struct("<4sI32s")
ENTRY_MAGIC = b"WCE1"


def default_cache_dir() -> Path:
    """``$WARPCC_CACHE_DIR`` > ``$XDG_CACHE_HOME/warpcc`` > ``~/.cache/warpcc``."""
    override = os.environ.get("WARPCC_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "warpcc"
    return Path.home() / ".cache" / "warpcc"


def seal_entry(tier: str, schema: int, facts: dict, body: bytes) -> bytes:
    """One entry's bytes.  ``facts`` may state the body's ``sha256`` (a
    payload that is sealed does); otherwise it is hashed here."""
    header = dict(facts, tier=tier, schema=schema)
    if "sha256" not in header:
        header["sha256"] = hashlib.sha256(body).hexdigest()
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix = _PREFIX.pack(
        ENTRY_MAGIC, len(raw_header), hashlib.sha256(raw_header).digest()
    )
    return b"".join((prefix, raw_header, body))


def open_entry(data: bytes, tier: str, schema: int) -> Tuple[dict, bytes]:
    """``(facts, body)`` of an entry of ``tier`` / ``schema`` whose two
    hashes hold (the facts keep ``sha256``, the body's); raises on any
    flaw."""
    magic, header_size, header_hash = _PREFIX.unpack_from(data)
    body_at = _PREFIX.size + header_size
    raw_header = data[_PREFIX.size : body_at]
    if magic != ENTRY_MAGIC or len(raw_header) != header_size:
        raise ValueError("not a cache entry")
    if hashlib.sha256(raw_header).digest() != header_hash:
        raise ValueError("entry header does not match its hash")
    facts = json.loads(raw_header)
    if (facts.pop("tier"), facts.pop("schema")) != (tier, schema):
        raise ValueError("entry of another tier or schema")
    body = data[body_at:]
    if hashlib.sha256(body).hexdigest() != facts["sha256"]:
        raise ValueError("entry body does not match its hash")
    return facts, body


class Store:
    """One sharded tier of entries; subclasses name the tier.

    Class attributes:

    - ``SUBDIR`` — subdirectory of the cache dir holding this tier's
      entries (tiers sharing a cache dir must not collide);
    - ``SCHEMA`` — the tier's schema number, written into every header;
    - ``codec`` — ``pack(payload) -> (facts, body)`` and
      ``unpack(facts, body) -> payload``; ``unpack`` raises on anything
      it does not like, which makes the entry corrupt.
    """

    SUBDIR = ""
    SCHEMA = 1
    codec = None

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_bytes = max_bytes
        #: this handle's lifetime ``hits`` / ``misses`` / ``evictions`` /
        #: ``corrupt`` — whichever compile caused them
        self.counts: Counter = Counter()
        self._objects = self.cache_dir / self.SUBDIR
        #: this handle's running total of the tier's bytes (None until
        #: its first put scans the directory)
        self._bytes: Optional[int] = None
        self._bytes_lock = threading.Lock()

    # -- lookup --------------------------------------------------------

    def _entry_path(self, fingerprint: str) -> Path:
        return self._objects / fingerprint[:2] / f"{fingerprint}.entry"

    @classmethod
    def seal(cls, payload) -> bytes:
        """``payload`` as one entry of this tier."""
        return seal_entry(cls.SUBDIR, cls.SCHEMA, *cls.codec.pack(payload))

    @classmethod
    def open(cls, data: bytes):
        """The payload of one entry of this tier; raises on any flaw."""
        return cls.codec.unpack(*open_entry(data, cls.SUBDIR, cls.SCHEMA))

    def get(self, fingerprint: str):
        """The cached payload, or None (miss).  Corrupt entries are
        deleted, counted, and reported as misses."""
        return self._read(fingerprint, self.open)

    def get_bytes(self, fingerprint: str) -> Optional[bytes]:
        """:meth:`get`, for the entry's bytes as they are stored: framing
        checked, the body's codec not run (what a cache server serves)."""
        return self._read(fingerprint, self._framed)

    def reject(self, fingerprint: str) -> None:
        """Take back the hit served from an entry whose payload proved
        wrong once read: a corrupt entry, deleted — counted by whoever
        deletes it, once."""
        if self._remove(self._entry_path(fingerprint)):
            self.counts.update({"hits": -1, "misses": 1, "corrupt": 1})

    def _framed(self, data: bytes) -> bytes:
        open_entry(data, self.SUBDIR, self.SCHEMA)
        return data

    def _read(self, fingerprint: str, check):
        path = self._entry_path(fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            self.counts["misses"] += 1
            return None
        try:
            payload = check(data)
        except Exception:  # noqa: BLE001 - whatever is wrong, it is the entry
            self.counts.update(("corrupt", "misses"))
            self._remove(path)
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        self.counts["hits"] += 1
        return payload

    # -- insertion -----------------------------------------------------

    def put(self, fingerprint: str, payload) -> None:
        """Store ``payload`` atomically, then enforce the size bound."""
        self._write(fingerprint, self.seal(payload))

    def put_bytes(self, fingerprint: str, data: bytes) -> None:
        """:meth:`put`, for bytes that are already an entry of this tier
        (raises if they do not open as one); written verbatim."""
        self._write(fingerprint, self._framed(data))

    def _write(self, fingerprint: str, data: bytes) -> None:
        path = self._entry_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            self._remove(Path(tmp_name))
            raise
        with self._bytes_lock:
            if self._bytes is None:
                self._bytes = self.size_bytes()  # counts the entry just written
            else:
                self._bytes += len(data)
            if self._bytes > self.max_bytes:
                self._evict(keep=path)

    # -- eviction ------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every entry currently on disk —
        every file of the tier, whatever wrote it, so entries of an
        older format age out like any other."""
        entries: List[Tuple[float, int, Path]] = []
        if not self._objects.is_dir():
            return entries
        for shard in self._objects.iterdir():
            if not shard.is_dir():
                continue
            for path in shard.iterdir():
                if path.name.startswith(".tmp-"):
                    continue  # another writer's entry in flight
                try:
                    stat = path.stat()
                except OSError:  # raced with another process's eviction
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def size_bytes(self) -> int:
        """Total bytes currently held by cache entries."""
        return sum(size for _, size, _ in self._entries())

    def entry_count(self) -> int:
        return len(self._entries())

    def _evict(self, keep: Path) -> None:
        """Scan the tier and delete oldest-first down to the bound."""
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if path == keep:
                continue
            if self._remove(path):
                self.counts["evictions"] += 1
                total -= size
        self._bytes = total

    def _remove(self, path: Path) -> bool:
        try:
            path.unlink()
            return True
        except OSError:
            return False

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for _, _, path in self._entries():
            if self._remove(path):
                removed += 1
        with self._bytes_lock:
            self._bytes = None
        return removed


class FactsCodec:
    """A small dataclass as header facts, with an empty body (``variants/``,
    ``modules/``): ``asdict`` out, type-checked in."""

    def __init__(self, record_type: type):
        self.record_type = record_type

    def pack(self, record) -> Tuple[dict, bytes]:
        return asdict(record), b""

    def unpack(self, facts: dict, body: bytes):
        if body:
            raise ValueError("a facts entry has no body")
        del facts["sha256"]  # the empty body's, checked by whoever opened
        return from_facts(self.record_type, facts)


class ArtifactCache(Store):
    """Persistent store of compiled function artifacts (phases 2-3): a
    :class:`~repro.driver.function_master.FunctionTaskResult` is its
    facts as the header and its ``code`` as the body."""

    SUBDIR = "objects"
    SCHEMA = CACHE_SCHEMA_VERSION
    codec = SimpleNamespace(pack=result_facts, unpack=result_from_facts)
