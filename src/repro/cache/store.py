"""On-disk pickle stores: content-addressed, concurrent-safe, bounded.

Layout: ``<cache_dir>/<subdir>/<fp[:2]>/<fp>.pkl``, one pickled payload
per entry.  Writes go through a temporary file in the same directory
followed by ``os.replace``, which is atomic on POSIX and Windows — two
compilers sharing a cache directory can race freely: readers see either
the old bytes or the new bytes, never a torn write.  A reader that
*does* find garbage (a corrupt or truncated entry, e.g. from a crashed
writer on a non-atomic filesystem) deletes it, counts it, and reports a
miss — corruption can cost a recompile, never a wrong artifact.

Eviction is LRU by file mtime (every hit re-touches its entry), bounded
by total bytes; a store never evicts the entry it just wrote.

Two tiers share this machinery: :class:`ArtifactCache` (phase-2/3
object code, ``objects/``) and :class:`~repro.cache.parse_store.ParseCache`
(phase-1 per-function parse+sema results, ``parse/``).  They live in
separate subdirectories of the same cache dir and keep independent
bounds and stats.
"""

from __future__ import annotations

import gc
import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from ..driver.function_master import FunctionTaskResult

#: Default size bound: plenty for thousands of functions, small enough
#: that a developer cache dir never becomes a surprise.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_cache_dir() -> Path:
    """``$WARPCC_CACHE_DIR`` > ``$XDG_CACHE_HOME/warpcc`` > ``~/.cache/warpcc``."""
    override = os.environ.get("WARPCC_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "warpcc"
    return Path.home() / ".cache" / "warpcc"


#: The cyclic collector's switch is process-wide: two threads saving and
#: restoring it around an unpickle must not interleave.
_COLLECTOR_LOCK = threading.Lock()


@dataclass
class CacheStats:
    """Counters for one store instance's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    corrupt: int = 0

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions, self.corrupt)


class PickleStore:
    """Generic sharded pickle store; subclasses pin the payload type.

    Class attributes:

    - ``SUBDIR`` — subdirectory of the cache dir holding this tier's
      entries (tiers sharing a cache dir must not collide);
    - ``PAYLOAD_TYPE`` — entries that unpickle to anything else are
      treated as corrupt (type confusion between tiers or schema
      versions costs a recompute, never a wrong result).
    """

    SUBDIR = "objects"
    PAYLOAD_TYPE: type = object

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._objects = self.cache_dir / self.SUBDIR

    # -- lookup --------------------------------------------------------

    def _entry_path(self, fingerprint: str) -> Path:
        return self._objects / fingerprint[:2] / f"{fingerprint}.pkl"

    def get(self, fingerprint: str):
        """The cached payload, or None (miss).  Corrupt entries are
        deleted, counted, and reported as misses."""
        path = self._entry_path(fingerprint)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            # An entry is thousands of small containers, none garbage, yet
            # each allocation threshold crossed starts a collection over
            # them: a module-tier entry loads in 0.138 s, or 0.023 s paused.
            with _COLLECTOR_LOCK:
                collecting = gc.isenabled()
                gc.disable()
                try:
                    result = pickle.loads(data)
                finally:
                    if collecting:
                        gc.enable()
            if not isinstance(result, self.PAYLOAD_TYPE):
                raise TypeError(f"cache entry holds {type(result).__name__}")
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._remove(path)
            return None
        try:
            os.utime(path)  # LRU touch
        except OSError:  # pragma: no cover - entry raced away; still a hit
            pass
        self.stats.hits += 1
        return result

    # -- insertion -----------------------------------------------------

    def put(self, fingerprint: str, result) -> None:
        """Store ``result`` atomically, then enforce the size bound."""
        path = self._entry_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".pkl"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            self._remove(Path(tmp_name))
            raise
        self._evict(keep=path)

    # -- eviction ------------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """(mtime, size, path) for every entry currently on disk."""
        entries: List[Tuple[float, int, Path]] = []
        if not self._objects.is_dir():
            return entries
        for shard in self._objects.iterdir():
            if not shard.is_dir():
                continue
            for path in shard.glob("*.pkl"):
                if path.name.startswith(".tmp-"):
                    continue
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

    def _evict(self, keep: Optional[Path] = None) -> None:
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            if self._remove(path):
                self.stats.evictions += 1
                total -= size

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
        return removed


class ArtifactCache(PickleStore):
    """Persistent store of compiled function artifacts (phases 2-3)."""

    SUBDIR = "objects"
    PAYLOAD_TYPE = FunctionTaskResult

    def get(self, fingerprint: str) -> Optional[FunctionTaskResult]:
        """The cached artifact, or None (miss)."""
        return super().get(fingerprint)
