"""Per-function parse+sema cache (the incremental front end's disk tier).

Phase 1's incremental path (:func:`repro.driver.phases.phase1_parallel`)
splits a module into per-function byte windows.  Each window's checked
subtree depends on exactly three things:

- the window's own text (hashed — the *span hash*);
- where the window starts *within its line* (the start column: spans
  store columns absolutely, and a function that moved horizontally
  produces different spans even for identical text);
- the signatures of every function in its section (call-site checking
  reads the callee's name/parameter types/return type and nothing else —
  the same observation that makes the phase-2/3 artifact cache sound).

Everything else — other sections, sibling *bodies*, text above or below
the window — is invisible to the window's parse and per-function check,
so the key deliberately excludes it: editing one function's body leaves
every other function's entry valid.  What a cached subtree does NOT
carry portably is its absolute line/offset spans; a hit at a new
location is span-rebased (:mod:`repro.lang.rebase`) by the window-base
delta, which reproduces a fresh parse bit-for-bit.

Invalidation is therefore: (a) the function's own text changed; (b) the
function moved to a different start column; (c) any sibling signature
changed (parameter/return types, function added/removed/renamed in the
section); (d) the compiler or parse schema version bumped (the salt).
A move that only changes line numbers invalidates nothing — that is the
rebase's job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..lang import ast_nodes as ast
from ..lang.rebase import rebase_function
from ..lang.sema import FunctionScope, Symbol
from ..lang.source import Position, Span
from ..lang.types import ArrayType, FloatType, IntType, VoidType
from .fingerprint import _Hasher, _feed_signature, compiler_salt
from .pickled import PickleCodec
from .store import Store

#: Bump whenever the AST, FunctionScope, or ParseEntry layout changes;
#: old entries become unreachable rather than wrong.
PARSE_SCHEMA_VERSION = 1


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
    start_column: int,
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
        start_column,
        signatures_hash,
    )
    return h.hexdigest()


@dataclass
class ParseEntry:
    """One function's checked parse: AST + scope + call edges, plus the
    window base it was parsed at (so a hit elsewhere can be rebased)."""

    function: ast.Function
    scope: FunctionScope
    calls: List[Tuple[str, Span]]
    token_count: int
    base: Position
    filename: str


class ParseCache(Store):
    """Disk tier for per-function phase-1 results.

    Lives under ``<cache_dir>/parse/`` beside the artifact cache's
    ``objects/``; same atomicity, corruption handling, and LRU bound.
    Entries are unpickled fresh on every hit — through an allowlist of
    exactly the classes a checked function subtree is made of — so
    callers own the returned trees outright and rebasing may mutate
    them in place.
    """

    SUBDIR = "parse"
    SCHEMA = PARSE_SCHEMA_VERSION
    codec = PickleCodec(
        ParseEntry,
        ast.Function, ast.Param, ast.VarDecl,
        ast.AssignStmt, ast.IfStmt, ast.ForStmt, ast.WhileStmt,
        ast.ReturnStmt, ast.SendStmt, ast.ReceiveStmt, ast.CallStmt,
        ast.IntLiteral, ast.FloatLiteral, ast.VarRef, ast.IndexExpr,
        ast.UnaryExpr, ast.BinaryExpr, ast.CallExpr,
        FunctionScope, Symbol, Position, Span,
        IntType, FloatType, ArrayType, VoidType,
    )

    def get(
        self,
        key: str,
        *,
        base: Optional[Position] = None,
        filename: Optional[str] = None,
    ) -> Optional[ParseEntry]:
        """The cached entry, span-rebased to ``base``/``filename`` when
        given, or None (miss)."""
        entry = super().get(key)
        if entry is None:
            return None
        if base is not None:
            entry.calls = rebase_function(
                entry.function, entry.calls, entry.base, base, filename
            )
            entry.base = base
            entry.filename = filename
        return entry
