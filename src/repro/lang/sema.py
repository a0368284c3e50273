"""Semantic analysis for the W2-like Warp language (compiler phase 1).

The checker works over a whole *section* at a time: the paper's example
of a whole-section property — "to discover a type mismatch between a
function return value and its use at a call site, the semantic checker
has to process the complete section program" (§3.2).  The analysis is
deliberately split to expose exactly how much of it is *really*
cross-function:

- :func:`check_module_structure` and :func:`section_function_table`
  are the cheap sequential structure pass (duplicate sections/functions,
  cell ranges, empty sections);
- :class:`FunctionChecker` checks one function against a read-only table
  of its siblings' *signatures* — the only cross-function information a
  call site needs — so each function can be checked (and cached) on
  its own;
- :func:`function_call_sites` + :func:`detect_call_cycles` implement the
  no-recursion rule over an already-collected call graph.

:func:`check_module` composes these into the sequential whole-module
pass; the incremental front end
(:func:`repro.driver.phases.phase1_parallel`) composes the same pieces
with the per-function step run window by window.

Analysis annotates every expression with its type, which lowering reads,
and returns a :class:`SemaResult` of per-function symbol tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import ast_nodes as ast
from .diagnostics import DiagnosticSink
from .types import (
    ArrayType,
    FLOAT,
    INT,
    Type,
    VOID,
    is_assignable,
    unify_arithmetic,
)

_LOGICAL_OPS = {"and", "or"}
_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}
_ARITHMETIC_OPS = {"+", "-", "*", "/", "%"}

#: Hardware intrinsics: name -> argument count.  ``abs``/``min``/``max``
#: are type-generic; ``sqrt`` always yields float (the Warp cell has a
#: square-root unit beside the multiplier).
BUILTIN_FUNCTIONS = {"abs": 1, "sqrt": 1, "min": 2, "max": 2}


@dataclass
class Symbol:
    """A named variable (parameter or local) within one function."""

    name: str
    type: Type
    is_param: bool


@dataclass
class FunctionScope:
    """Symbol table for one function, in declaration order."""

    function: ast.Function
    symbols: Dict[str, Symbol] = field(default_factory=dict)

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)


@dataclass
class SemaResult:
    """Output of semantic analysis for a whole module."""

    module: ast.Module
    #: (section name, function name) -> scope
    scopes: Dict[tuple, FunctionScope] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Structure pass (sequential, cheap)
# ---------------------------------------------------------------------------


def check_module_structure(module: ast.Module, sink: DiagnosticSink) -> None:
    """Module-level structural checks: duplicate section names,
    overlapping/empty cell ranges, no-sections."""
    seen_sections: Dict[str, ast.Section] = {}
    claimed_cells: Dict[int, str] = {}
    for section in module.sections:
        if section.name in seen_sections:
            sink.error(
                f"duplicate section name {section.name!r}", section.span
            )
        seen_sections[section.name] = section
        if section.first_cell > section.last_cell:
            sink.error(
                f"section {section.name!r} has an empty cell range "
                f"{section.first_cell}..{section.last_cell}",
                section.span,
            )
        for cell in range(section.first_cell, section.last_cell + 1):
            owner = claimed_cells.get(cell)
            if owner is not None:
                sink.error(
                    f"cell {cell} claimed by both section {owner!r} "
                    f"and section {section.name!r}",
                    section.span,
                )
            else:
                claimed_cells[cell] = section.name
    if not module.sections:
        sink.error(f"module {module.name!r} has no sections", module.span)


def section_function_table(
    section: ast.Section, sink: DiagnosticSink
) -> Dict[str, ast.Function]:
    """Name -> function for one section (first definition wins), with
    duplicate-function and empty-section errors reported in source order."""
    table: Dict[str, ast.Function] = {}
    for fn in section.functions:
        if fn.name in table:
            sink.error(
                f"duplicate function {fn.name!r} in section {section.name!r}",
                fn.span,
            )
        else:
            table[fn.name] = fn
    if not section.functions:
        sink.error(f"section {section.name!r} has no functions", section.span)
    return table


# ---------------------------------------------------------------------------
# Call-graph pass (no recursion on stackless cells)
# ---------------------------------------------------------------------------


def collect_calls(stmts: List[ast.Stmt]) -> List[tuple]:
    """All (callee name, span) pairs appearing in ``stmts``."""
    found: List[tuple] = []

    def visit_expr(expr: Optional[ast.Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.CallExpr):
            found.append((expr.callee, expr.span))
            for arg in expr.args:
                visit_expr(arg)
        elif isinstance(expr, ast.BinaryExpr):
            visit_expr(expr.left)
            visit_expr(expr.right)
        elif isinstance(expr, ast.UnaryExpr):
            visit_expr(expr.operand)
        elif isinstance(expr, ast.IndexExpr):
            visit_expr(expr.base)
            visit_expr(expr.index)

    def visit_stmt(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            visit_expr(stmt.target)
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.IfStmt):
            visit_expr(stmt.condition)
            for s in stmt.then_body:
                visit_stmt(s)
            for s in stmt.else_body:
                visit_stmt(s)
        elif isinstance(stmt, ast.ForStmt):
            visit_expr(stmt.low)
            visit_expr(stmt.high)
            visit_expr(stmt.step)
            for s in stmt.body:
                visit_stmt(s)
        elif isinstance(stmt, ast.WhileStmt):
            visit_expr(stmt.condition)
            for s in stmt.body:
                visit_stmt(s)
        elif isinstance(stmt, ast.ReturnStmt):
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.SendStmt):
            visit_expr(stmt.value)
        elif isinstance(stmt, ast.ReceiveStmt):
            visit_expr(stmt.target)
        elif isinstance(stmt, ast.CallStmt):
            visit_expr(stmt.call)

    for stmt in stmts:
        visit_stmt(stmt)
    return found


def function_call_sites(fn: ast.Function) -> List[tuple]:
    """One (callee, first span) edge per distinct callee, name-sorted —
    the deterministic per-function slice of the section call graph."""
    first_span_by_callee: Dict[str, object] = {}
    for callee, span in collect_calls(fn.body):
        first_span_by_callee.setdefault(callee, span)
    return sorted(first_span_by_callee.items())


def detect_call_cycles(
    section_name: str, calls: Dict[str, List[tuple]], sink: DiagnosticSink
) -> None:
    """Reject recursive call cycles.

    Warp cells have no call stack: a function's scalars live in
    registers and its arrays are statically allocated, so recursion
    cannot be supported.  ``calls`` maps each function name to its
    :func:`function_call_sites` edges; iterative DFS cycle detection.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in calls}
    for root in calls:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(calls[root]))]
        color[root] = GRAY
        while stack:
            name, edges = stack[-1]
            advanced = False
            for callee, span in edges:
                if callee not in calls:
                    continue
                if color[callee] == GRAY:
                    sink.error(
                        f"recursive call cycle through {callee!r} in "
                        f"section {section_name!r} (Warp cells have no "
                        "call stack)",
                        span,
                    )
                    continue
                if color[callee] == WHITE:
                    color[callee] = GRAY
                    stack.append((callee, iter(calls[callee])))
                    advanced = True
                    break
            if not advanced:
                color[name] = BLACK
                stack.pop()


# ---------------------------------------------------------------------------
# Per-function pass (parallelizable: reads only sibling signatures)
# ---------------------------------------------------------------------------


class FunctionChecker:
    """Checks one function against a read-only sibling table.

    The table needs only *signatures* (name, parameter names/types,
    return type): call-site checking never looks at a callee's body, so
    the incremental front end can check every function of a section
    against the same cheap stub table, independently of the others.  One
    instance checks one function; it owns no shared mutable state.
    """

    def __init__(
        self,
        section_functions: Dict[str, ast.Function],
        sink: DiagnosticSink,
    ):
        self._section_functions = section_functions
        self._sink = sink
        self._scope: Optional[FunctionScope] = None
        self._current_fn: Optional[ast.Function] = None
        self._saw_return = False

    def check(self, fn: ast.Function) -> FunctionScope:
        if fn.name in BUILTIN_FUNCTIONS:
            self._sink.error(
                f"function {fn.name!r} redefines a hardware intrinsic",
                fn.span,
            )
        scope = FunctionScope(fn)
        for param in fn.params:
            if not param.type.is_scalar():
                self._sink.error(
                    f"parameter {param.name!r} must be scalar, got {param.type}",
                    param.span,
                )
            if param.name in scope.symbols:
                self._sink.error(
                    f"duplicate parameter {param.name!r}", param.span
                )
            scope.symbols[param.name] = Symbol(param.name, param.type, is_param=True)
        for decl in fn.locals:
            if decl.name in scope.symbols:
                self._sink.error(
                    f"redeclaration of {decl.name!r}", decl.span
                )
                continue
            if isinstance(decl.type, ArrayType) and decl.type.length <= 0:
                self._sink.error(
                    f"array {decl.name!r} must have positive length, "
                    f"got {decl.type.length}",
                    decl.span,
                )
            scope.symbols[decl.name] = Symbol(decl.name, decl.type, is_param=False)

        self._scope = scope
        self._current_fn = fn
        self._saw_return = False
        for stmt in fn.body:
            self._check_stmt(stmt)
        if fn.return_type != VOID and not self._saw_return:
            self._sink.error(
                f"function {fn.name!r} declares return type {fn.return_type} "
                "but has no return statement",
                fn.span,
            )
        self._scope = None
        self._current_fn = None
        return scope

    # -- statements ----------------------------------------------------

    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AssignStmt):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._check_condition(stmt.condition)
            for s in stmt.then_body:
                self._check_stmt(s)
            for s in stmt.else_body:
                self._check_stmt(s)
        elif isinstance(stmt, ast.ForStmt):
            self._check_for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._check_condition(stmt.condition)
            for s in stmt.body:
                self._check_stmt(s)
        elif isinstance(stmt, ast.ReturnStmt):
            self._check_return(stmt)
        elif isinstance(stmt, ast.SendStmt):
            value_type = self._check_expr(stmt.value)
            if value_type is not None and not value_type.is_scalar():
                self._sink.error(
                    f"send requires a scalar value, got {value_type}", stmt.span
                )
        elif isinstance(stmt, ast.ReceiveStmt):
            target_type = self._check_lvalue(stmt.target)
            if target_type is not None and not target_type.is_scalar():
                self._sink.error(
                    f"receive target must be scalar, got {target_type}", stmt.span
                )
        elif isinstance(stmt, ast.CallStmt):
            self._check_expr(stmt.call)
        else:  # pragma: no cover - exhaustive over AST statements
            raise AssertionError(f"unhandled statement {type(stmt).__name__}")

    def _check_assign(self, stmt: ast.AssignStmt) -> None:
        target_type = self._check_lvalue(stmt.target)
        value_type = self._check_expr(stmt.value)
        if target_type is None or value_type is None:
            return
        if not target_type.is_scalar():
            self._sink.error(
                f"cannot assign to a whole array (type {target_type})",
                stmt.target.span,
            )
            return
        if not is_assignable(target_type, value_type):
            self._sink.error(
                f"cannot assign {value_type} to {target_type}", stmt.span
            )

    def _check_for(self, stmt: ast.ForStmt) -> None:
        symbol = self._scope.lookup(stmt.var)
        if symbol is None:
            self._sink.error(
                f"undeclared loop variable {stmt.var!r}", stmt.span
            )
        elif symbol.type != INT:
            self._sink.error(
                f"loop variable {stmt.var!r} must be int, got {symbol.type}",
                stmt.span,
            )
        for bound in (stmt.low, stmt.high, stmt.step):
            if bound is None:
                continue
            bound_type = self._check_expr(bound)
            if bound_type is not None and bound_type != INT:
                self._sink.error(
                    f"loop bound must be int, got {bound_type}", bound.span
                )
        if stmt.step is not None:
            step = _constant_int_value(stmt.step)
            if step is None:
                self._sink.error(
                    "for-step ('by') must be an integer constant", stmt.step.span
                )
            elif step == 0:
                self._sink.error("for-step must be nonzero", stmt.step.span)
        for s in stmt.body:
            self._check_stmt(s)

    def _check_return(self, stmt: ast.ReturnStmt) -> None:
        self._saw_return = True
        declared = self._current_fn.return_type
        if stmt.value is None:
            if declared != VOID:
                self._sink.error(
                    f"function {self._current_fn.name!r} must return {declared}",
                    stmt.span,
                )
            return
        value_type = self._check_expr(stmt.value)
        if declared == VOID:
            self._sink.error(
                f"function {self._current_fn.name!r} has no return type "
                "but returns a value",
                stmt.span,
            )
        elif value_type is not None and not is_assignable(declared, value_type):
            self._sink.error(
                f"return type mismatch: declared {declared}, got {value_type}",
                stmt.span,
            )

    def _check_condition(self, expr: Optional[ast.Expr]) -> None:
        cond_type = self._check_expr(expr)
        if cond_type is not None and not cond_type.is_numeric():
            self._sink.error(
                f"condition must be numeric, got {cond_type}", expr.span
            )

    # -- expressions ---------------------------------------------------

    def _check_lvalue(self, expr: Optional[ast.Expr]) -> Optional[Type]:
        if isinstance(expr, ast.VarRef):
            return self._check_expr(expr)
        if isinstance(expr, ast.IndexExpr):
            return self._check_expr(expr)
        if expr is not None:
            self._sink.error("assignment target must be a variable or array element", expr.span)
        return None

    def _check_expr(self, expr: Optional[ast.Expr]) -> Optional[Type]:
        if expr is None:
            return None
        result = self._infer(expr)
        expr.type = result
        return result

    def _infer(self, expr: ast.Expr) -> Optional[Type]:
        if isinstance(expr, ast.IntLiteral):
            return INT
        if isinstance(expr, ast.FloatLiteral):
            return FLOAT
        if isinstance(expr, ast.VarRef):
            symbol = self._scope.lookup(expr.name)
            if symbol is None:
                self._sink.error(f"undeclared variable {expr.name!r}", expr.span)
                return None
            return symbol.type
        if isinstance(expr, ast.IndexExpr):
            return self._infer_index(expr)
        if isinstance(expr, ast.UnaryExpr):
            return self._infer_unary(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._infer_binary(expr)
        if isinstance(expr, ast.CallExpr):
            return self._infer_call(expr)
        raise AssertionError(  # pragma: no cover - exhaustive over AST exprs
            f"unhandled expression {type(expr).__name__}"
        )

    def _infer_index(self, expr: ast.IndexExpr) -> Optional[Type]:
        base_type = self._check_expr(expr.base)
        index_type = self._check_expr(expr.index)
        if index_type is not None and index_type != INT:
            self._sink.error(f"array index must be int, got {index_type}", expr.index.span)
        if base_type is None:
            return None
        if not isinstance(base_type, ArrayType):
            self._sink.error(f"cannot index a value of type {base_type}", expr.span)
            return None
        if isinstance(expr.index, ast.IntLiteral):
            if not 0 <= expr.index.value < base_type.length:
                self._sink.error(
                    f"constant index {expr.index.value} out of bounds for "
                    f"{base_type}",
                    expr.index.span,
                )
        return base_type.element

    def _infer_unary(self, expr: ast.UnaryExpr) -> Optional[Type]:
        operand_type = self._check_expr(expr.operand)
        if operand_type is None:
            return None
        if expr.op == "-":
            if not operand_type.is_numeric():
                self._sink.error(f"cannot negate {operand_type}", expr.span)
                return None
            return operand_type
        if expr.op == "not":
            if operand_type != INT:
                self._sink.error(f"'not' requires int, got {operand_type}", expr.span)
                return None
            return INT
        raise AssertionError(f"unknown unary operator {expr.op!r}")

    def _infer_binary(self, expr: ast.BinaryExpr) -> Optional[Type]:
        left = self._check_expr(expr.left)
        right = self._check_expr(expr.right)
        if left is None or right is None:
            return None
        if expr.op in _LOGICAL_OPS:
            if left != INT or right != INT:
                self._sink.error(
                    f"{expr.op!r} requires int operands, got {left} and {right}",
                    expr.span,
                )
                return None
            return INT
        if expr.op in _COMPARISON_OPS:
            if unify_arithmetic(left, right) is None:
                self._sink.error(
                    f"cannot compare {left} with {right}", expr.span
                )
                return None
            return INT
        if expr.op in _ARITHMETIC_OPS:
            if expr.op == "%" and (left != INT or right != INT):
                self._sink.error(
                    f"'%' requires int operands, got {left} and {right}", expr.span
                )
                return None
            result = unify_arithmetic(left, right)
            if result is None:
                self._sink.error(
                    f"invalid operands to {expr.op!r}: {left} and {right}",
                    expr.span,
                )
            return result
        raise AssertionError(f"unknown binary operator {expr.op!r}")

    def _infer_call(self, expr: ast.CallExpr) -> Optional[Type]:
        if expr.callee in BUILTIN_FUNCTIONS:
            return self._infer_builtin(expr)
        callee = self._section_functions.get(expr.callee)
        if callee is None:
            self._sink.error(
                f"call to undefined function {expr.callee!r} "
                "(callees must be defined in the same section)",
                expr.span,
            )
            for arg in expr.args:
                self._check_expr(arg)
            return None
        if len(expr.args) != len(callee.params):
            self._sink.error(
                f"function {expr.callee!r} takes {len(callee.params)} "
                f"argument(s), got {len(expr.args)}",
                expr.span,
            )
        for arg, param in zip(expr.args, callee.params):
            arg_type = self._check_expr(arg)
            if arg_type is not None and not is_assignable(param.type, arg_type):
                self._sink.error(
                    f"argument for {param.name!r} of {expr.callee!r} must be "
                    f"{param.type}, got {arg_type}",
                    arg.span,
                )
        # Extra args beyond the parameter list still get checked for types.
        for arg in expr.args[len(callee.params):]:
            self._check_expr(arg)
        if callee.return_type == VOID:
            return VOID
        return callee.return_type

    def _infer_builtin(self, expr: ast.CallExpr) -> Optional[Type]:
        arity = BUILTIN_FUNCTIONS[expr.callee]
        if len(expr.args) != arity:
            self._sink.error(
                f"intrinsic {expr.callee!r} takes {arity} argument(s), "
                f"got {len(expr.args)}",
                expr.span,
            )
        arg_types = [self._check_expr(arg) for arg in expr.args]
        checked = [t for t in arg_types if t is not None]
        if len(checked) != arity:
            return None
        for arg, arg_type in zip(expr.args, arg_types):
            if arg_type is not None and not arg_type.is_numeric():
                self._sink.error(
                    f"intrinsic {expr.callee!r} requires numeric arguments, "
                    f"got {arg_type}",
                    arg.span,
                )
                return None
        if expr.callee == "sqrt":
            return FLOAT
        if expr.callee == "abs":
            return checked[0]
        result = unify_arithmetic(checked[0], checked[1])
        if result is None:  # pragma: no cover - numeric args always unify
            self._sink.error(
                f"cannot combine {checked[0]} and {checked[1]} in "
                f"{expr.callee!r}",
                expr.span,
            )
        return result


def _constant_int_value(expr: ast.Expr) -> Optional[int]:
    """Evaluate an integer-constant expression (literal or negated literal)."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryExpr) and expr.op == "-":
        inner = _constant_int_value(expr.operand)
        return None if inner is None else -inner
    return None


def check_module(module: ast.Module, sink: DiagnosticSink) -> SemaResult:
    """Run semantic analysis over ``module``, reporting problems to ``sink``:
    the sequential composition of the passes, annotating every expression
    with its type."""
    result = SemaResult(module)
    check_module_structure(module, sink)
    for section in module.sections:
        table = section_function_table(section, sink)
        for fn in section.functions:
            scope = FunctionChecker(table, sink).check(fn)
            result.scopes[(section.name, fn.name)] = scope
        calls = {fn.name: function_call_sites(fn) for fn in section.functions}
        detect_call_cycles(section.name, calls, sink)
    return result
