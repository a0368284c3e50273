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
leaves every other function's entry valid, and a hit is exactly the
tree a miss would build, whichever file wrote the entry and wherever
the function sat.

Invalidation is therefore: (a) the function's own text changed; (b) any
sibling signature changed (parameter/return types, function added,
removed or renamed in the section); (c) the compiler or parse schema
version bumped (the salt).  A function that only moved — down, across,
or into another file — invalidates nothing.

An entry is the :class:`~repro.driver.phases.ParseFacts` (header facts and
the fingerprint text leading the body), checked on open, and the pickled
tree and scope, which a hit decodes when first read — or, if they do not
decode, takes the hit back and parses the window again.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import fields
from types import SimpleNamespace
from typing import List, Optional, Tuple

from ..driver.phases import ParseEntry, ParseFacts
from ..facts import from_facts
from ..lang import ast_nodes as ast
from ..lang.sema import FunctionScope, Symbol
from ..lang.types import ArrayType, FloatType, IntType, VoidType
from .fingerprint import _Hasher, _feed_signature, compiler_salt
from .pickled import PickleCodec
from .store import Store

#: Bump whenever the AST, FunctionScope, or ParseEntry layout changes;
#: old entries become unreachable rather than wrong.  (3: nodes carry
#: offset pairs and a function its line count, not ``Span`` objects.
#: 4: the facts and text are read on open, the tree pickle on demand.)
PARSE_SCHEMA_VERSION = 4


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


_decoding = threading.Lock()  # a phase-1 memo may share a parse
_TEXT_SIZE = struct.Struct("<I")  # the body: text size | text | tree pickle


#: the fields a hit's function and scope lack until their body is decoded
_LAZY = frozenset(
    f.name for f in fields(ast.Function) + fields(FunctionScope)
) - {"name", "lines", "function"}


class _Encoded:
    """A hit's function or scope: reading a field it lacks decodes the
    body for both, which then *are* the plain nodes (class replaced)."""

    def __getattr__(self, name: str):
        # Reached for a missing attribute — perhaps one another thread
        # is decoding, so ``self`` may be a plain node by now.
        if name not in _LAZY:
            raise AttributeError(name)
        _decode(self.__dict__.get("function", self))
        return getattr(self, name)

    def __eq__(self, other):
        _decode(self.__dict__.get("function", self))
        return self == other


class _StoredFunction(_Encoded, ast.Function):
    pass


class _StoredScope(_Encoded, FunctionScope):
    pass


def _decode(function) -> None:
    """The body's tree and scope into ``function`` and its scope, once, or
    what ``function._rebuild`` parses if the body is not this entry's."""
    with _decoding:
        if type(function) is not _StoredFunction:
            return  # decoded already
        try:
            entry = ParseCache.pickled.unpack({}, function._body)
            if (type(entry.function), type(entry.scope), entry.function.name) != (
                ast.Function, FunctionScope, function.name
            ):
                raise TypeError("the body is not this entry's tree")
        except Exception:  # noqa: BLE001 - whatever is wrong, it is the entry
            entry = function._rebuild()
        function._scope.symbols = entry.scope.symbols
        function._scope.__class__ = FunctionScope
        function.__dict__ = vars(entry.function)
        function.__class__ = ast.Function


def _pack(entry: ParseEntry) -> Tuple[dict, bytes]:
    facts = {k: v for k, v in vars(entry).items() if k not in ("function", "scope")}
    text = facts.pop("fingerprint_text", "").encode("utf-8")
    tree = ParseCache.pickled.pack(entry)[1]
    return facts, b"".join((_TEXT_SIZE.pack(len(text)), text, tree))


def _unpack(facts: dict, body: bytes) -> ParseEntry:
    del facts["sha256"]  # the body's, checked by whoever opened it
    tree_at = _TEXT_SIZE.size + _TEXT_SIZE.unpack_from(body)[0]
    if "fingerprint_text" in facts or len(body) < tree_at:
        raise ValueError("not a parse entry")
    facts["fingerprint_text"] = body[_TEXT_SIZE.size : tree_at].decode("utf-8")
    facts = vars(from_facts(ParseFacts, facts))
    function = _StoredFunction.__new__(_StoredFunction)
    scope = _StoredScope.__new__(_StoredScope)
    vars(function).update(name=facts["name"], lines=facts["lines"])
    vars(function).update(_body=body[tree_at:], _scope=scope)
    scope.function = function
    return ParseEntry(**facts, function=function, scope=scope)


class ParseCache(Store):
    """Disk tier for per-function phase-1 results.

    Lives under ``<cache_dir>/parse/`` beside the artifact cache's
    ``objects/``; same atomicity, corruption handling, and LRU bound.
    A hit's tree is unpickled fresh when first read — through an
    allowlist of exactly the classes a checked function subtree is made
    of — so callers own the returned trees outright.
    """

    SUBDIR = "parse"
    SCHEMA = PARSE_SCHEMA_VERSION
    codec = SimpleNamespace(pack=_pack, unpack=_unpack)
    #: the body's tree: an entry pickled without its facts
    pickled = PickleCodec(
        ParseEntry,
        ast.Function, ast.Param, ast.VarDecl,
        ast.AssignStmt, ast.IfStmt, ast.ForStmt, ast.WhileStmt,
        ast.ReturnStmt, ast.SendStmt, ast.ReceiveStmt, ast.CallStmt,
        ast.IntLiteral, ast.FloatLiteral, ast.VarRef, ast.IndexExpr,
        ast.UnaryExpr, ast.BinaryExpr, ast.CallExpr,
        FunctionScope, Symbol,
        IntType, FloatType, ArrayType, VoidType,
    )

    def get(self, key: str, rebuild):
        """:meth:`Store.get`; a hit whose tree later fails to decode is
        ``rebuild()`` instead, and counted a corrupt miss, and deleted."""
        entry = super().get(key)
        if entry is not None:
            def spoiled():
                self.counts.update({"corrupt": 1, "misses": 1, "hits": -1})
                self._remove(self._entry_path(key))
                return rebuild()
            entry.function._rebuild = spoiled
        return entry
