"""Per-function compilation fingerprints.

The unit of caching is one function's phase-2/3 output, so the
fingerprint must cover *exactly* the inputs those phases read — no more
(or an edit to one function would invalidate its neighbours), no less
(or a stale artifact could be served).  Phases 2-3 of one function see:

- the function's own checked AST (:func:`_feed_function` hashes a
  normalized serialization that ignores absolute source positions, so
  editing function A does not shift-invalidate every function below it;
  the function's own *line count* is included because it lands in the
  :class:`~repro.driver.results.FunctionReport`);
- the *signatures* of every function in its section — lowering resolves
  calls against them (``FunctionLowerer._callees``) — but not their
  bodies: the compiler "performs only minimal inter-procedural
  optimizations" (§3.1), which is the very fact that makes per-function
  caching sound;
- the section's identity and cell range, and every field of the
  compile's :class:`~repro.options.CompileOptions`;
- a compiler-version salt, so upgrading the compiler never serves
  artifacts produced by old code.

A fingerprint is one SHA-256 over the section's part (salt, options,
section, signatures: built once per section) and :func:`function_text`,
which a parse entry stores, so the tree of a parse hit is never walked.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from typing import Dict, List, Mapping, Optional, Tuple

from ..lang import ast_nodes as ast
from ..options import CompileOptions

#: Bump whenever the artifact format or the meaning of a fingerprint
#: changes; old entries become unreachable rather than wrong.
#: 2: FunctionTaskResult grew the pre-assembled payload (distributed
#: assembly) — entries pickled under schema 1 would revive without it.
#: 3: fingerprints grew the variant-search codegen knobs (unroll budget,
#: modulo-scheduling II budget) — a variant artifact must never be
#: served where a default compile is expected, and vice versa.
#: 4: entries are a checked header plus encoded bytes (the pickling
#: tiers: a checked header plus the pickle), under a new file suffix.
#: 5: a result's payload digest is the SHA-256 of its encoded object
#: function (it was a hash of two text renders), and an ``objects/``
#: entry's own ``sha256`` is that digest.
#: 6: a fingerprint hashes the fields of a ``CompileOptions`` by name,
#: in their order.
#: 7: four hashed fields — the unit of dispatch is no option (§3.1).
#: 8: a result's report carries no cache telemetry.
#: 9: a result's report carries no search fields.
#: 10: a result's code is its function's assembled blob (labels are
#: bundle indices), which the section link splices.
#: 11: a result carries its window's facts and a refusal reason.
CACHE_SCHEMA_VERSION = 11

_SEP = "\x1f"  # field separator: cannot appear in the encoded text


def compiler_salt() -> str:
    """Version salt mixed into every fingerprint."""
    from .. import __version__

    return f"{__version__}+schema{CACHE_SCHEMA_VERSION}"


class _Hasher:
    """Length-unambiguous tokens as one text, and its SHA-256."""

    def __init__(self) -> None:
        self._parts: List[str] = []

    def feed(self, *tokens: object) -> None:
        for token in tokens:
            self._parts += (str(token), _SEP)

    def text(self) -> str:
        return "".join(self._parts)

    def hexdigest(self) -> str:
        return _digest(self.text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _feed_expr(h: _Hasher, expr: Optional[ast.Expr]) -> None:
    if expr is None:
        h.feed("none")
        return
    h.feed(type(expr).__name__)
    if isinstance(expr, ast.IntLiteral):
        h.feed(expr.value)
    elif isinstance(expr, ast.FloatLiteral):
        # repr() round-trips floats exactly; str() would too on py3 but
        # repr makes the intent explicit.
        h.feed(repr(expr.value))
    elif isinstance(expr, ast.VarRef):
        h.feed(expr.name)
    elif isinstance(expr, ast.IndexExpr):
        _feed_expr(h, expr.base)
        _feed_expr(h, expr.index)
    elif isinstance(expr, ast.UnaryExpr):
        h.feed(expr.op)
        _feed_expr(h, expr.operand)
    elif isinstance(expr, ast.BinaryExpr):
        h.feed(expr.op)
        _feed_expr(h, expr.left)
        _feed_expr(h, expr.right)
    elif isinstance(expr, ast.CallExpr):
        h.feed(expr.callee, len(expr.args))
        for arg in expr.args:
            _feed_expr(h, arg)
    else:  # pragma: no cover - exhaustive over AST expressions
        raise TypeError(f"unhandled expression {type(expr).__name__}")


def _feed_stmt(h: _Hasher, stmt: ast.Stmt) -> None:
    h.feed(type(stmt).__name__)
    if isinstance(stmt, ast.AssignStmt):
        _feed_expr(h, stmt.target)
        _feed_expr(h, stmt.value)
    elif isinstance(stmt, ast.IfStmt):
        _feed_expr(h, stmt.condition)
        _feed_body(h, stmt.then_body)
        _feed_body(h, stmt.else_body)
    elif isinstance(stmt, ast.ForStmt):
        h.feed(stmt.var)
        _feed_expr(h, stmt.low)
        _feed_expr(h, stmt.high)
        _feed_expr(h, stmt.step)
        _feed_body(h, stmt.body)
    elif isinstance(stmt, ast.WhileStmt):
        _feed_expr(h, stmt.condition)
        _feed_body(h, stmt.body)
    elif isinstance(stmt, (ast.ReturnStmt, ast.SendStmt)):
        _feed_expr(h, stmt.value)
    elif isinstance(stmt, ast.ReceiveStmt):
        _feed_expr(h, stmt.target)
    elif isinstance(stmt, ast.CallStmt):
        _feed_expr(h, stmt.call)
    else:  # pragma: no cover - exhaustive over AST statements
        raise TypeError(f"unhandled statement {type(stmt).__name__}")


def _feed_body(h: _Hasher, stmts) -> None:
    h.feed(len(stmts))
    for stmt in stmts:
        _feed_stmt(h, stmt)


def _feed_signature(h: _Hasher, fn: ast.Function) -> None:
    """Name, parameter types, return type: what callers' lowering sees."""
    h.feed(fn.name, len(fn.params))
    for param in fn.params:
        h.feed(str(param.type))
    h.feed(str(fn.return_type))


def _feed_function(h: _Hasher, fn: ast.Function) -> None:
    h.feed(fn.name, fn.line_count(), str(fn.return_type))
    h.feed(len(fn.params))
    for param in fn.params:
        h.feed(param.name, str(param.type))
    h.feed(len(fn.locals))
    for decl in fn.locals:
        h.feed(decl.name, str(decl.type))
    _feed_body(h, fn.body)


def function_text(fn: ast.Function) -> str:
    """The function's own part of its fingerprint (a walk of the tree)."""
    h = _Hasher()
    _feed_function(h, fn)
    return h.text()


def _section_head(section, options, salt) -> str:
    h = _Hasher()
    h.feed(salt if salt is not None else compiler_salt())
    for option in fields(options):
        h.feed(option.name, getattr(options, option.name))
    h.feed(section.name, section.first_cell, section.last_cell)
    # Sibling signatures, in source order (order is part of the section's
    # identity; lowering's callee table is name-keyed but a reordering
    # also reorders spans, which we deliberately do not hash).
    h.feed(len(section.functions))
    for sibling in section.functions:
        _feed_signature(h, sibling)
    return h.text()


def function_fingerprint(
    section: ast.Section,
    function: ast.Function,
    options: CompileOptions,
    salt: Optional[str] = None,
) -> str:
    """Content fingerprint for one function's phase-2/3 artifact.

    Every field of ``options`` is hashed, by name — ordinary compiles
    and variant compiles can never serve each other's artifacts, and a
    field added to :class:`~repro.options.CompileOptions` is part of
    the key the day it is added.
    """
    return _digest(_section_head(section, options, salt) + function_text(function))


def module_fingerprints(
    module: ast.Module, options: CompileOptions, salt: Optional[str] = None,
    texts: Mapping[Tuple[str, str], str] = {},
) -> Dict[Tuple[str, str], str]:
    """``(section name, function name) -> fingerprint`` for a module; a
    function whose text is in ``texts`` (``ParsedProgram.fingerprint_texts``)
    is not walked."""
    fingerprints = {}
    for section in module.sections:
        head = _section_head(section, options, salt)
        for fn in section.functions:
            key = (section.name, fn.name)
            fingerprints[key] = _digest(head + (texts.get(key) or function_text(fn)))
    return fingerprints
