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
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from ..driver.phases import ParseEntry
from ..lang import ast_nodes as ast
from ..lang.sema import FunctionScope, Symbol
from ..lang.types import ArrayType, FloatType, IntType, VoidType
from .fingerprint import _Hasher, _feed_signature, compiler_salt
from .pickled import PickleCodec
from .store import Store

#: Bump whenever the AST, FunctionScope, or ParseEntry layout changes;
#: old entries become unreachable rather than wrong.  (3: nodes carry
#: offset pairs and a function its line count, not ``Span`` objects.)
PARSE_SCHEMA_VERSION = 3


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


class ParseCache(Store):
    """Disk tier for per-function phase-1 results.

    Lives under ``<cache_dir>/parse/`` beside the artifact cache's
    ``objects/``; same atomicity, corruption handling, and LRU bound.
    Entries are unpickled fresh on every hit — through an allowlist of
    exactly the classes a checked function subtree is made of — so
    callers own the returned trees outright.
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
        FunctionScope, Symbol,
        IntType, FloatType, ArrayType, VoidType,
    )
