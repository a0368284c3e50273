"""Delta-debugging minimizer for oracle failures.

Shrinks a failing module while preserving the failure, then writes the
minimized reproducer into the corpus so every fuzz-found bug becomes a
permanent regression test (loaded by ``tests/test_corpus.py``).

The reducer edits the AST — three passes to fixpoint:

1. **drop functions** — remove whole functions (and emptied sections);
2. **drop statements** — ddmin over every statement list, including
   nested if/for/while bodies;
3. **simplify expressions/statements** — replace a binary node by one
   operand, a call by its first argument, a literal for a subtree;
   hoist an if/loop body into its parent.

Every candidate is rendered back to source (:mod:`repro.lang.unparse`),
re-validated through the real front end (parse + sema — an invalid
candidate is simply skipped), and re-run through the oracle.  A
candidate is kept only when the oracle still reports a mismatch of the
same kind.  The oracle-run budget bounds worst-case cost.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from ..lang import ast_nodes as ast
from ..lang.diagnostics import DiagnosticSink
from ..lang.parser import parse_text
from ..lang.sema import check_module
from ..lang.unparse import unparse_module
from .oracle import DifferentialOracle

#: corpus entry format version
CORPUS_SCHEMA = 1


@dataclass
class ReductionResult:
    """Outcome of one minimization."""

    source: str
    original_source: str
    kinds: List[str]
    steps: int = 0
    oracle_runs: int = 0
    function_count: int = 0
    statement_count: int = 0

    @property
    def reduced(self) -> bool:
        return self.source != self.original_source


class _Budget(Exception):
    """Oracle-run budget exhausted; keep the best module found so far."""


class DeltaReducer:
    """Minimizes a failing source module against a differential oracle."""

    def __init__(
        self,
        oracle: DifferentialOracle,
        inputs: Optional[List[float]] = None,
        seed: int = 0,
        match_kinds: Optional[Sequence[str]] = None,
        max_oracle_runs: int = 400,
    ):
        self.oracle = oracle
        self.inputs = list(inputs or [])
        self.seed = seed
        self.match_kinds = set(match_kinds) if match_kinds else None
        self.max_oracle_runs = max_oracle_runs
        self.oracle_runs = 0
        self.steps = 0

    # -- interestingness ----------------------------------------------

    def _still_fails(self, source: str) -> bool:
        if self.oracle_runs >= self.max_oracle_runs:
            raise _Budget()
        self.oracle_runs += 1
        report = self.oracle.check(source, inputs=self.inputs, seed=self.seed)
        if report.ok:
            return False
        if self.match_kinds is None:
            return True
        return bool(self.match_kinds & set(report.kinds()))

    @staticmethod
    def _valid(source: str) -> bool:
        sink = DiagnosticSink()
        module = parse_text(source, sink)
        if sink.has_errors:
            return False
        check_module(module, sink)
        return not sink.has_errors

    def _try(self, candidate: ast.Module) -> Optional[str]:
        """Render, validate, and oracle-test one candidate; returns its
        source when the candidate is valid and still failing."""
        try:
            source = unparse_module(candidate)
        except ValueError:
            return None
        if not self._valid(source):
            return None
        if self._still_fails(source):
            self.steps += 1
            return source
        return None

    # -- entry point --------------------------------------------------

    def reduce(self, source: str) -> ReductionResult:
        """Shrink ``source`` while it keeps failing the oracle."""
        report = self.oracle.check(source, inputs=self.inputs, seed=self.seed)
        self.oracle_runs += 1
        if report.ok:
            raise ValueError("cannot reduce: the module passes the oracle")
        if self.match_kinds is None:
            self.match_kinds = set(report.kinds())

        best = self._parse(source)
        # Re-render even the unreduced module so later passes compare
        # like with like (the renderer fully parenthesizes).
        rendered = unparse_module(best)
        if self._valid(rendered) and self._still_fails(rendered):
            best_source = rendered
        else:
            best_source = source
            best = self._parse(source)

        try:
            changed = True
            while changed:
                changed = False
                for reducer_pass in (
                    self._pass_drop_functions,
                    self._pass_drop_statements,
                    self._pass_simplify,
                ):
                    new = reducer_pass(best)
                    if new is not None:
                        best, best_source = new
                        changed = True
        except _Budget:
            pass

        return ReductionResult(
            source=best_source,
            original_source=source,
            kinds=sorted(self.match_kinds),
            steps=self.steps,
            oracle_runs=self.oracle_runs,
            function_count=best.function_count(),
            statement_count=sum(
                _count_statements(fn.body)
                for _, fn in best.all_functions()
            ),
        )

    @staticmethod
    def _parse(source: str) -> ast.Module:
        sink = DiagnosticSink()
        module = parse_text(source, sink)
        if sink.has_errors:
            raise ValueError(f"unparsable input:\n{sink.render()}")
        return module

    # -- pass 1: drop functions ---------------------------------------

    def _pass_drop_functions(self, module: ast.Module):
        """One greedy backward sweep: try removing each function once."""
        result = None
        s_index = len(module.sections) - 1
        while s_index >= 0:
            f_index = len(module.sections[s_index].functions) - 1
            while f_index >= 0:
                candidate = copy.deepcopy(module)
                del candidate.sections[s_index].functions[f_index]
                if not candidate.sections[s_index].functions:
                    del candidate.sections[s_index]
                if candidate.sections:
                    source = self._try(candidate)
                    if source is not None:
                        module = self._parse(source)
                        result = (module, source)
                        if s_index >= len(module.sections):
                            break
                f_index -= 1
            s_index -= 1
        return result

    # -- pass 2: drop statements (greedy backward, recursing inward) --

    def _pass_drop_statements(self, module: ast.Module):
        """Sweep every body backward, deleting statements greedily.

        Backward order keeps earlier indices stable after a deletion; a
        kept compound statement is recursed into.  One sweep is linear
        in the statement count; the caller loops passes to fixpoint.
        """
        self._result = None
        for s_index in range(len(module.sections) - 1, -1, -1):
            for f_index in range(
                len(module.sections[s_index].functions) - 1, -1, -1
            ):
                module = self._sweep_body(
                    module, (s_index, f_index)
                )
        return self._result

    def _sweep_body(self, module: ast.Module, path: tuple) -> ast.Module:
        index = len(_resolve_body(module, path)) - 1
        while index >= 0:
            candidate = copy.deepcopy(module)
            del _resolve_body(candidate, path)[index]
            source = self._try(candidate)
            if source is not None:
                module = self._parse(source)
                self._result = (module, source)
            else:
                kept = _resolve_body(module, path)[index]
                for attr in ("then_body", "else_body", "body"):
                    if isinstance(getattr(kept, attr, None), list):
                        module = self._sweep_body(
                            module, path + ((index, attr),)
                        )
            index -= 1
        return module

    # -- pass 3: simplify expressions and hoist bodies ----------------

    def _pass_simplify(self, module: ast.Module):
        """One sweep over the edit sites; greedy, no restart on success
        (shifted indices are caught by the caller's fixpoint loop)."""
        result = None
        index = 0
        while index < _count_edits(module):
            candidate = copy.deepcopy(module)
            if _apply_edit(candidate, index):
                source = self._try(candidate)
                if source is not None:
                    module = self._parse(source)
                    result = (module, source)
                    continue  # same index: new edits shifted into place
            index += 1
        return result


# ---------------------------------------------------------------------------
# AST surgery helpers
# ---------------------------------------------------------------------------


def _resolve_body(module: ast.Module, path: tuple) -> List[ast.Stmt]:
    s_index, f_index = path[0], path[1]
    body = module.sections[s_index].functions[f_index].body
    for stmt_index, attr in path[2:]:
        body = getattr(body[stmt_index], attr)
    return body


def _count_statements(body: List[ast.Stmt]) -> int:
    total = 0
    for stmt in body:
        total += 1
        for attr in ("then_body", "else_body", "body"):
            nested = getattr(stmt, attr, None)
            if isinstance(nested, list):
                total += _count_statements(nested)
    return total


def _edit_sites(module: ast.Module) -> Iterator[Tuple[object, str, object]]:
    """Yield ``(owner, attr, node)`` for every simplifiable slot."""
    def walk_expr(owner, attr, expr):
        if expr is None:
            return
        yield (owner, attr, expr)
        if isinstance(expr, ast.BinaryExpr):
            yield from walk_expr(expr, "left", expr.left)
            yield from walk_expr(expr, "right", expr.right)
        elif isinstance(expr, ast.UnaryExpr):
            yield from walk_expr(expr, "operand", expr.operand)
        elif isinstance(expr, ast.IndexExpr):
            yield from walk_expr(expr, "index", expr.index)
        elif isinstance(expr, ast.CallExpr):
            for i, arg in enumerate(expr.args):
                yield from walk_expr(expr.args, i, arg)

    def walk_stmt(container, index, stmt):
        yield (container, index, stmt)
        if isinstance(stmt, ast.AssignStmt):
            yield from walk_expr(stmt, "value", stmt.value)
        elif isinstance(stmt, ast.IfStmt):
            yield from walk_expr(stmt, "condition", stmt.condition)
            yield from walk_body(stmt.then_body)
            yield from walk_body(stmt.else_body)
        elif isinstance(stmt, ast.ForStmt):
            yield from walk_expr(stmt, "low", stmt.low)
            yield from walk_expr(stmt, "high", stmt.high)
            yield from walk_body(stmt.body)
        elif isinstance(stmt, ast.WhileStmt):
            yield from walk_expr(stmt, "condition", stmt.condition)
            yield from walk_body(stmt.body)
        elif isinstance(stmt, (ast.ReturnStmt, ast.SendStmt)):
            yield from walk_expr(stmt, "value", stmt.value)
        elif isinstance(stmt, ast.CallStmt):
            yield from walk_expr(stmt, "call", stmt.call)

    def walk_body(body):
        for index, stmt in enumerate(body):
            yield from walk_stmt(body, index, stmt)

    for section in module.sections:
        for fn in section.functions:
            yield from walk_body(fn.body)


def _replacements(node) -> List[object]:
    """Candidate simpler nodes for one AST node, most aggressive first."""
    if isinstance(node, ast.BinaryExpr):
        out = [node.left, node.right]
        if node.op in ("+", "-", "*", "/"):
            out.append(ast.FloatLiteral(span=node.span, value=0.0))
        return out
    if isinstance(node, ast.UnaryExpr):
        return [node.operand]
    if isinstance(node, ast.CallExpr):
        return list(node.args[:1]) + [
            ast.FloatLiteral(span=node.span, value=1.0)
        ]
    if isinstance(node, ast.IndexExpr):
        return [ast.FloatLiteral(span=node.span, value=0.0)]
    if isinstance(node, ast.FloatLiteral) and node.value not in (0.0, 1.0):
        return [ast.FloatLiteral(span=node.span, value=0.0)]
    if isinstance(node, ast.IntLiteral) and node.value not in (0, 1):
        return [ast.IntLiteral(span=node.span, value=0)]
    return []


def _stmt_replacements(stmt) -> List[List[ast.Stmt]]:
    """Statement-level hoists: a compound statement becomes its body."""
    if isinstance(stmt, ast.IfStmt):
        return [list(stmt.then_body), list(stmt.else_body)]
    if isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
        return [list(stmt.body)]
    return []


def _enumerate_edits(module: ast.Module):
    """All (apply_fn) edits, indexable deterministically."""
    for owner, attr, node in _edit_sites(module):
        if isinstance(node, ast.Stmt):
            for replacement in _stmt_replacements(node):
                yield ("stmt", owner, attr, replacement)
        elif isinstance(node, ast.Expr):
            for replacement in _replacements(node):
                if replacement is None:
                    continue
                yield ("expr", owner, attr, replacement)


def _count_edits(module: ast.Module) -> int:
    return sum(1 for _ in _enumerate_edits(module))


def _apply_edit(module: ast.Module, index: int) -> bool:
    for current, edit in enumerate(_enumerate_edits(module)):
        if current != index:
            continue
        kind, owner, attr, replacement = edit
        if kind == "stmt":
            # owner is the containing body list, attr its index.
            owner[attr:attr + 1] = copy.deepcopy(replacement)
        elif isinstance(attr, int):
            owner[attr] = copy.deepcopy(replacement)
        else:
            setattr(owner, attr, copy.deepcopy(replacement))
        return True
    return False


# ---------------------------------------------------------------------------
# Corpus entries
# ---------------------------------------------------------------------------


def corpus_entry_id(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


def write_corpus_entry(
    corpus_dir,
    *,
    source: str,
    seed: int,
    size_class: str,
    kinds: Sequence[str],
    pipelines: Sequence[str],
    inputs: Sequence[float],
    notes: str = "",
) -> Path:
    """Persist one reproducer as ``<corpus_dir>/fuzz_<kind>_<id>.json``.

    The entry is self-contained: ``tests/test_corpus.py`` replays the
    embedded source through the named pipelines with the embedded
    inputs, and ``scripts/fuzz_triage.py`` reruns + reclassifies it.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    entry_id = corpus_entry_id(source)
    kind = kinds[0] if kinds else "unknown"
    path = corpus_dir / f"fuzz_{kind}_{entry_id}.json"
    payload = {
        "schema": CORPUS_SCHEMA,
        "id": entry_id,
        "seed": seed,
        "size_class": size_class,
        "kinds": list(kinds),
        "pipelines": list(pipelines),
        "inputs": list(inputs),
        "source": source,
        "notes": notes,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def load_corpus_entry(path) -> dict:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    for required in ("source", "inputs", "pipelines"):
        if required not in payload:
            raise ValueError(f"corpus entry {path} lacks {required!r}")
    return payload
