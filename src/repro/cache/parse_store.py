"""Per-function parse+sema cache (the incremental front end's disk tier).

Phase 1's incremental path (:func:`repro.driver.phases.phase1_parallel`)
splits a module into per-function byte windows and parses each window
from its own text: offsets from 0, no filename.  A
window's checked subtree is therefore a function of exactly two things:

- the window's text (hashed — the *span hash*);
- the signatures of every function in its section (call-site checking
  reads the callee's name/parameter types/return type and nothing else —
  the same observation that makes the phase-2/3 artifact cache sound).

Everything else — where the window sits, which file holds it, other
sections, sibling *bodies* — is invisible to the window's parse and
per-function check, so the key excludes it: editing one function's body
leaves every other function's entry valid, and a hit holds exactly
what a miss would derive, whichever file wrote the entry and wherever
the function sat.

Invalidation is therefore: (a) the function's own text changed; (b) any
sibling signature changed (parameter/return types, function added,
removed or renamed in the section); (c) the compiler or parse schema
version bumped (the salt).  A function that only moved — down, across,
or into another file — invalidates nothing.

An entry is the window's :class:`~repro.driver.phases.ParseFacts`, its
fingerprint text as the body, and no tree: a hit's function is its
signature stub (:func:`repro.driver.phases.window_program` parses it).
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import List, Optional, Tuple

from ..driver.phases import ParseFacts
from ..facts import from_facts
from ..lang import ast_nodes as ast
from .fingerprint import _Hasher, _feed_signature, compiler_salt
from .store import Store

#: Bump whenever the ParseFacts layout or their meaning changes; old
#: entries become unreachable rather than wrong.  (3: nodes carry
#: offset pairs and a function its line count, not ``Span`` objects.
#: 4: the facts and text are read on open, the tree pickle on demand.
#: 5: the body is the fingerprint text alone; no tree is stored.)
PARSE_SCHEMA_VERSION = 5


def parse_salt() -> str:
    """Version salt for parse-tier keys (compiler salt + parse schema)."""
    return f"{compiler_salt()}+parse{PARSE_SCHEMA_VERSION}"


def signature_table_hash(
    section_name: str,
    first_cell: int,
    last_cell: int,
    stubs: List[ast.Function],
    *,
    salt: Optional[str] = None,
) -> str:
    """Hash of one section's identity and signature table, in source
    order — the cross-function context a window's check depends on."""
    h = _Hasher()
    h.feed(
        salt if salt is not None else parse_salt(),
        section_name,
        first_cell,
        last_cell,
        len(stubs),
    )
    for stub in stubs:
        _feed_signature(h, stub)
    return h.hexdigest()


def window_key(
    slice_text: str,
    signatures_hash: str,
    *,
    salt: Optional[str] = None,
) -> str:
    """Cache key for one function window."""
    span_hash = hashlib.sha256(slice_text.encode("utf-8")).hexdigest()
    h = _Hasher()
    h.feed(
        salt if salt is not None else parse_salt(),
        span_hash,
        signatures_hash,
    )
    return h.hexdigest()


def _pack(facts: ParseFacts) -> Tuple[dict, bytes]:
    header = dict(vars(facts))
    return header, header.pop("fingerprint_text").encode("utf-8")


def _unpack(header: dict, body: bytes) -> ParseFacts:
    del header["sha256"]  # the body's, checked by whoever opened it
    if "fingerprint_text" in header:
        raise ValueError("not a parse entry")
    header["fingerprint_text"] = body.decode("utf-8")
    return from_facts(ParseFacts, header)


class ParseCache(Store):
    """Disk tier for per-function phase-1 facts.

    Lives under ``<cache_dir>/parse/`` beside the artifact cache's
    ``objects/``; same atomicity, corruption handling, and LRU bound.
    """

    SUBDIR = "parse"
    SCHEMA = PARSE_SCHEMA_VERSION
    codec = SimpleNamespace(pack=_pack, unpack=_unpack)
