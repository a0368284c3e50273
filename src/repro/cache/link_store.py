"""Persistent link/module cache (the incremental back end's disk tier).

Phase 4 consumes the section masters' recombined object functions and
nothing else: :func:`~repro.asmlink.linker.link_section` is a pure
function of one section's object functions (in source order) and the
target cell's data-memory size, and
:func:`~repro.asmlink.download.build_download_module` is a pure function
of the linked programs, the sections' cell ranges, and the module's
diagnostics text.  That purity makes the linked tail cacheable the same
way phases 2-3 are:

- **section tier** (``link/``) — one
  :class:`~repro.asmlink.objformat.CellProgram` per section, keyed by
  the link salt, the section's identity and cell range, the *ordered*
  payload digests of its object functions (the same sha256 the
  supervisor validates results against, so the key is free at link
  time), and the cell's data-memory size.  A 1-function edit changes
  exactly one section's digest list, so a warm recompile re-links
  exactly that section.  The body is the program's blob, decoded only
  if someone executes, links or prints it;
- **module tier** (``modules/``) — one :class:`ModuleRecord` per clean
  compile, keyed by what the user hands in (:func:`module_link_key`).
  It holds no code: it names each section's ``link/`` entry and keeps
  the module digest, the diagnostics and the profile's stable facts, so
  a no-edit recompile reads the record and its sections and parses
  nothing.  The module rebuilt from them must hash to the digest.

Invalidation: an object function's content changed (payload digest),
a section's cell range or the cell geometry changed, the source,
filename or options changed (module tier), or the compiler/link schema
bumped (the salt).  Both tiers ride :class:`~repro.cache.store.Store`.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import List, Optional, Sequence

from ..asmlink.objformat import CellProgram
from ..driver.results import FunctionReport
from ..machine.warp_cell import WarpCellModel
from ..options import CompileOptions
from .fingerprint import _Hasher, compiler_salt
from .store import DEFAULT_MAX_BYTES, FactsCodec, Store

#: Bump whenever the entry format or the meaning of a link key changes;
#: old entries become unreachable rather than wrong.
#: 2: entries are encoded bytes behind a checked header, not pickles.
#: 3: the payload digests in a key are hashes of the encoded functions.
#: 4: a module entry is a record keyed by the source text, not the module.
#: 5: a record's reports carry no cache telemetry.
#: 6: a record's reports carry no search fields.
LINK_SCHEMA_VERSION = 6


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
    source_text: str, filename: str, options: CompileOptions, *,
    salt: Optional[str] = None,
) -> str:
    """Cache key for a compile's :class:`ModuleRecord`: everything the
    module is a function of.  Every field of ``options`` is hashed by
    name, as :func:`~repro.cache.fingerprint.function_fingerprint` does;
    the filename because diagnostics render it."""
    h = _Hasher()
    h.feed(salt if salt is not None else link_salt())
    for option in fields(options):
        h.feed(option.name, getattr(options, option.name))
    h.feed(WarpCellModel.data_memory_words, len(filename), filename)
    h.feed(len(source_text), source_text)
    return h.hexdigest()


@dataclass
class SectionRecord:
    """One section of a :class:`ModuleRecord`: its cells and the key of
    its linked program in ``link/``."""

    name: str
    first_cell: int
    last_cell: int
    link_key: str


@dataclass
class ModuleRecord:
    """What a no-edit recompile needs besides the section programs: the
    module's name, sections, diagnostics and digest, and the stable
    facts of its work profile."""

    module_name: str
    sections: List[SectionRecord]
    diagnostics_text: str
    digest: str
    parse_work: int
    sema_work: int
    source_lines: int
    assembly_work: int
    link_work: int
    functions: List[FunctionReport]

    #: the fields a WorkProfile has under the same names
    profile_facts = (
        "parse_work", "sema_work", "source_lines", "assembly_work",
        "link_work", "functions",
    )


class SectionLinkStore(Store):
    """Disk tier for per-section linked cell programs: the body is the
    program's blob, which it keeps; no header facts — its names and
    sizes are in the blob's head."""

    SUBDIR = "link"
    SCHEMA = LINK_SCHEMA_VERSION
    codec = SimpleNamespace(
        pack=lambda program: ({}, program.encoded()),
        unpack=lambda facts, body: CellProgram.from_encoded(body),
    )


class ModuleStore(Store):
    """Disk tier for module records (header facts, no body)."""

    SUBDIR = "modules"
    SCHEMA = LINK_SCHEMA_VERSION
    codec = FactsCodec(ModuleRecord)


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
    def counts(self) -> Counter:
        """Both tiers' counts, summed (for the stats line)."""
        return self.sections.counts + self.modules.counts

    def entry_count(self) -> int:
        return self.sections.entry_count() + self.modules.entry_count()

    def size_bytes(self) -> int:
        return self.sections.size_bytes() + self.modules.size_bytes()

    def clear(self) -> int:
        return self.sections.clear() + self.modules.clear()
