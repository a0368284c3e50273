"""Persistent link/module cache (the incremental back end's disk tier).

Phase 4 consumes the section masters' recombined object functions and
nothing else: :func:`~repro.asmlink.linker.link_section` is a pure
function of one section's object functions (in source order) and the
target cell's data-memory size, and
:func:`~repro.asmlink.download.build_download_module` is a pure function
of the linked programs, the sections' cell ranges, and the module's
diagnostics text.  That purity makes the linked tail cacheable the same
way phases 2-3 are:

- **section tier** — one :class:`~repro.asmlink.objformat.CellProgram`
  per section, keyed by the link salt, the section's identity and cell
  range, the *ordered* payload digests of its object functions (the
  same sha256 the supervisor validates results against, so the key is
  free at link time), and the cell's data-memory size.  A 1-function
  edit changes exactly one section's digest list, so a warm recompile
  re-links exactly that section;
- **module tier** — the whole
  :class:`~repro.asmlink.objformat.DownloadModule`, keyed by the module
  fingerprint (every section's key material plus the array's cell count
  and the diagnostics text the module embeds).  A fully-warm recompile
  skips phase 4 entirely.

Invalidation: any object function's content changed (payload digest),
a section's cell range or the cell/array geometry changed, diagnostics
changed (module tier), or the compiler/link schema version bumped (the
salt).  Both tiers ride :class:`~repro.cache.store.Store` — atomic
writes, hashed headers and bodies, corrupt-entry quarantine,
LRU-by-mtime size bound — and hold their payload in the serial form of
:mod:`repro.asmlink.encode`: a section entry's body is the program's
blob, a module entry's body is the ``.warp`` file, whose hash (the
entry's ``sha256``) is the module digest.  What a cached link reads of
either — names, entry, data and code size — sits in the blob's fixed
head, so a hit hands back a program or a module whose instructions are
decoded only if someone executes, links or prints them.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Optional, Sequence, Tuple

from ..asmlink.encode import stored_module
from ..asmlink.objformat import CellProgram
from .fingerprint import _Hasher, compiler_salt
from .store import DEFAULT_MAX_BYTES, CacheStats, Store

#: Bump whenever the entry format or the meaning of a link key changes;
#: old entries become unreachable rather than wrong.
#: 2: entries are encoded bytes behind a checked header, not pickles.
#: 3: the payload digests in a key are hashes of the encoded functions.
LINK_SCHEMA_VERSION = 3


def link_salt() -> str:
    """Version salt for link-tier keys (compiler salt + link schema)."""
    return f"{compiler_salt()}+link{LINK_SCHEMA_VERSION}"


def section_link_key(
    section_name: str,
    first_cell: int,
    last_cell: int,
    payload_digests: Sequence[str],
    data_memory_words: int,
    *,
    salt: Optional[str] = None,
) -> str:
    """Cache key for one section's linked :class:`CellProgram`.

    ``payload_digests`` must be in *source order* — layout (frame bases,
    entry selection) depends on function order, so reordering functions
    must miss even when the set of digests is unchanged.
    """
    h = _Hasher()
    h.feed(
        salt if salt is not None else link_salt(),
        section_name,
        first_cell,
        last_cell,
        data_memory_words,
        len(payload_digests),
    )
    for digest in payload_digests:
        h.feed(digest)
    return h.hexdigest()


def module_link_key(
    module_name: str,
    sections: Iterable[Tuple[str, int, int, Sequence[str]]],
    diagnostics_text: str,
    data_memory_words: int,
    cell_count: int,
    *,
    salt: Optional[str] = None,
) -> str:
    """Cache key for a whole :class:`DownloadModule`.

    ``sections`` iterates ``(name, first_cell, last_cell, digests)`` in
    module order.  The diagnostics text is hashed in because the module
    embeds it verbatim; the array's cell count is hashed in because the
    sections' cell ranges were validated against it.
    """
    h = _Hasher()
    h.feed(
        salt if salt is not None else link_salt(),
        module_name,
        hashlib.sha256(diagnostics_text.encode("utf-8")).hexdigest(),
        data_memory_words,
        cell_count,
    )
    for name, first_cell, last_cell, digests in sections:
        h.feed(name, first_cell, last_cell, len(digests))
        for digest in digests:
            h.feed(digest)
    return h.hexdigest()


class _EncodedCodec:
    """Body: the payload's own encoding, which it keeps; no facts in the
    header — a program's and a module's are in the body's head."""

    def __init__(self, from_encoded):
        self.from_encoded = from_encoded

    def pack(self, payload) -> Tuple[dict, bytes]:
        return {}, payload.encoded()

    def unpack(self, facts: dict, body: bytes):
        return self.from_encoded(body)


class SectionLinkStore(Store):
    """Disk tier for per-section linked cell programs."""

    SUBDIR = "link"
    SCHEMA = LINK_SCHEMA_VERSION
    codec = _EncodedCodec(CellProgram.from_encoded)


class ModuleStore(Store):
    """Disk tier for whole download modules."""

    SUBDIR = "modules"
    SCHEMA = LINK_SCHEMA_VERSION
    codec = _EncodedCodec(stored_module)


class LinkCache:
    """Both link tiers behind one handle.

    Lives under ``<cache_dir>/link/`` and ``<cache_dir>/modules/``
    beside the artifact cache's ``objects/`` and the parse cache's
    ``parse/``; the CLI wires all tiers to the same directory.
    """

    def __init__(
        self,
        cache_dir: Optional[os.PathLike] = None,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        self.sections = SectionLinkStore(cache_dir, max_bytes)
        self.modules = ModuleStore(cache_dir, max_bytes)
        self.cache_dir = self.sections.cache_dir

    @property
    def stats(self) -> CacheStats:
        """Combined counters across both tiers (for the stats line)."""
        merged = CacheStats()
        for store in (self.sections, self.modules):
            merged.hits += store.stats.hits
            merged.misses += store.stats.misses
            merged.evictions += store.stats.evictions
            merged.corrupt += store.stats.corrupt
        return merged

    def entry_count(self) -> int:
        return self.sections.entry_count() + self.modules.entry_count()

    def size_bytes(self) -> int:
        return self.sections.size_bytes() + self.modules.size_bytes()

    def clear(self) -> int:
        return self.sections.clear() + self.modules.clear()
