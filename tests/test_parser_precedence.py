"""One precedence-climbing loop parses what six recursive levels did.

``Parser._parse_expr(power)`` walks a table of binding powers.  The
one-method-per-level parser it replaced is kept here as the reference:
over real modules and random expressions, valid and not, both must give
the same tree, spans included, and the same rendered diagnostics.
"""

import json
import random
from pathlib import Path

import pytest

from repro.fuzz.generator import config_for_size_class, generate_program
from repro.lang import ast_nodes as ast
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.source import SourceFile
from repro.lang.tokens import TokenKind
from repro.workloads.synthetic import synthetic_program
from repro.workloads.user_program import user_program

from helpers import wrap_function

TESTS = Path(__file__).parent

_COMPARISON_OPS = {
    TokenKind.EQ: "=",
    TokenKind.NE: "<>",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}
_ADDITIVE_OPS = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MULTIPLICATIVE_OPS = {
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.PERCENT: "%",
}


class ReferenceParser(Parser):
    """The six-level recursive descent, as it was before the table."""

    def _parse_expr(self):
        return self._parse_or()

    def _binary(self, op, left, right):
        return ast.BinaryExpr(
            span=(left.span[0], right.span[1]), op=op, left=left, right=right
        )

    def _parse_or(self):
        expr = self._parse_and()
        while self._at(TokenKind.OR):
            self._advance()
            expr = self._binary("or", expr, self._parse_and())
        return expr

    def _parse_and(self):
        expr = self._parse_not()
        while self._at(TokenKind.AND):
            self._advance()
            expr = self._binary("and", expr, self._parse_not())
        return expr

    def _parse_not(self):
        if self._at(TokenKind.NOT):
            start = self._advance().span
            operand = self._parse_not()
            return ast.UnaryExpr(
                span=(start[0], operand.span[1]), op="not", operand=operand
            )
        return self._parse_comparison()

    def _parse_comparison(self):
        expr = self._parse_additive()
        if self._current.kind in _COMPARISON_OPS:
            op = _COMPARISON_OPS[self._advance().kind]
            expr = self._binary(op, expr, self._parse_additive())
        return expr

    def _parse_additive(self):
        expr = self._parse_multiplicative()
        while self._current.kind in _ADDITIVE_OPS:
            op = _ADDITIVE_OPS[self._advance().kind]
            expr = self._binary(op, expr, self._parse_multiplicative())
        return expr

    def _parse_multiplicative(self):
        expr = self._parse_unary()
        while self._current.kind in _MULTIPLICATIVE_OPS:
            op = _MULTIPLICATIVE_OPS[self._advance().kind]
            expr = self._binary(op, expr, self._parse_unary())
        return expr


def parse_with(parser_class, text):
    sink = DiagnosticSink()
    tokens = tokenize(SourceFile("<t>", text), sink)
    return parser_class(tokens, sink).parse_module(), sink.render()


def assert_same_parse(text):
    assert parse_with(Parser, text) == parse_with(ReferenceParser, text), text


_OPERANDS = ["x", "y", "7", "2.5", "a[i]", "a[x + 1]", "f(x, y)", "g()"]
_OPERATORS = [
    "or", "and", "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
]


def random_expression(rng, depth=0):
    """Mostly well-formed: operands and operators alternate, with prefixes
    and parentheses; one draw in six is a token out of place."""
    parts = []
    for position in range(rng.randint(1, 5)):
        if position:
            parts.append(rng.choice(_OPERATORS))
        while rng.random() < 0.25:
            parts.append(rng.choice(["not", "-"]))
        if depth < 2 and rng.random() < 0.2:
            parts.append(f"({random_expression(rng, depth + 1)})")
        else:
            parts.append(rng.choice(_OPERANDS))
    if rng.random() < 1 / 6:
        noise = rng.choice(_OPERATORS + ["not", "-", "(", ")", ",", "x"])
        parts.insert(rng.randrange(len(parts) + 1), noise)
    return " ".join(parts)


def in_function(expression):
    return wrap_function(
        "function h(x: int, y: int) : int\n"
        "var a: array[4] of int; i: int;\n"
        "begin\n"
        f"  i := {expression};\n"
        f"  if {expression} then i := 1; end;\n"
        "  return i;\n"
        "end"
    )


def test_random_expressions_parse_as_the_six_levels_did():
    rng = random.Random(37)
    errors = 0
    for _ in range(1500):
        text = in_function(random_expression(rng))
        module, rendered = parse_with(Parser, text)
        assert (module, rendered) == parse_with(ReferenceParser, text), text
        errors += bool(rendered)
    assert 300 < errors < 1200  # both kinds are exercised


def real_modules():
    for path in sorted((TESTS / "corpus").glob("fuzz_*.json")):
        yield path.stem, json.loads(path.read_text())["source"]
    for seed in range(12):
        yield f"fz{seed}", generate_program(
            seed, config_for_size_class("large")
        ).source
    yield "user", user_program()
    yield "s2_medium", synthetic_program("medium", 2)


def test_real_modules_parse_as_the_six_levels_did():
    for name, source in real_modules():
        module, rendered = parse_with(Parser, source)
        assert not rendered, name
        assert (module, rendered) == parse_with(ReferenceParser, source), name


@pytest.mark.parametrize(
    "expression, message",
    [
        ("a < b < c", "expected 'then', found '<'"),
        ("x and y < 1 < 2", "expected 'then', found '<'"),
        ("not x < y < 1", "expected 'then', found '<'"),
        ("x + not y", "expected an expression, found 'not'"),
        ("x < not y", "expected an expression, found 'not'"),
        ("- not x", "expected an expression, found 'not'"),
        ("x * not y", "expected an expression, found 'not'"),
    ],
)
def test_comparisons_do_not_associate_and_not_is_a_prefix_at_its_level(
    expression, message
):
    text = wrap_function(
        "function h(x: int, y: int) begin\n"
        f"  if {expression} then x := 1; end;\nend"
    )
    _, rendered = parse_with(Parser, text)
    assert message in rendered
    assert_same_parse(text)


@pytest.mark.parametrize(
    "expression, tree",
    [
        ("x or y and not x < y + 1 * 2", "(x or (y and (not (x < (y + (1 * 2))))))"),
        ("x - y - 1", "((x - y) - 1)"),
        ("x * y + 1 < 2 and y", "((((x * y) + 1) < 2) and y)"),
        ("not not x and y or x", "(((not (not x)) and y) or x)"),
        ("- x * - y", "((- x) * (- y))"),
    ],
)
def test_binding_powers(expression, tree):
    def show(node):
        if isinstance(node, ast.BinaryExpr):
            return f"({show(node.left)} {node.op} {show(node.right)})"
        if isinstance(node, ast.UnaryExpr):
            return f"({node.op} {show(node.operand)})"
        if isinstance(node, ast.IntLiteral):
            return str(node.value)
        return node.name

    text = wrap_function(
        f"function h(x: int, y: int) : int begin return {expression}; end"
    )
    module, rendered = parse_with(Parser, text)
    assert not rendered
    (statement,) = module.sections[0].functions[0].body
    assert show(statement.value) == tree
    assert_same_parse(text)
