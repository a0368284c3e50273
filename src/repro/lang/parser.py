"""Recursive-descent parser for the W2-like Warp source language.

Grammar (EBNF, ``{}`` repetition, ``[]`` option)::

    module   = "module" IDENT { section } "end"
    section  = "section" IDENT "(" "cells" INT ".." INT ")" { function } "end"
    function = "function" IDENT "(" [ param { "," param } ] ")" [ ":" type ]
               [ "var" { decl } ] "begin" { stmt } "end"
    param    = IDENT ":" type
    decl     = IDENT { "," IDENT } ":" type ";"
    type     = "int" | "float" | "array" "[" INT "]" "of" type
    stmt     = if | for | while | return | send | receive | assign_or_call
    if       = "if" expr "then" { stmt } [ "else" { stmt } ] "end" ";"
    for      = "for" IDENT ":=" expr "to" expr [ "by" expr ] "do" { stmt } "end" ";"
    while    = "while" expr "do" { stmt } "end" ";"
    return   = "return" [ expr ] ";"
    send     = "send" "(" expr ")" ";"
    receive  = "receive" "(" postfix ")" ";"
    assign_or_call = postfix [ ":=" expr ] ";"

Expression precedence, low to high: ``or`` < ``and`` < ``not`` <
comparisons < additive < multiplicative < unary minus < postfix < primary.
The binary levels and ``not`` are parsed by one precedence-climbing loop
over a table of binding powers; comparisons do not associate, so ``a < b
< c`` is an error.

Errors are reported to the sink and the parser synchronizes at statement
boundaries, so a single compilation reports as many problems as possible —
the master process aborts parallel compilation only after parsing the whole
program (paper §3.2).

A node's ``span`` is the offset pair from its first token's start to its
last token's end.  The sink the parser reports to is bound to the source
its tokens were lexed from (lexing binds it), and the parser reads that
text once more per function, to count the function's lines.
"""

from __future__ import annotations

from typing import List, Optional

from . import ast_nodes as ast
from .diagnostics import DiagnosticSink
from .lexer import tokenize
from .source import SourceFile
from .tokens import Token, TokenKind
from .types import ArrayType, FLOAT, INT, Type, VOID


class _ParseError(Exception):
    """Internal signal: the current construct cannot be parsed further."""


#: Binary operators and their binding power, loosest first.  Equal powers
#: associate to the left, except comparisons, which do not associate.
_BINARY_OPS = {
    TokenKind.OR: ("or", 1),
    TokenKind.AND: ("and", 2),
    TokenKind.EQ: ("=", 4),
    TokenKind.NE: ("<>", 4),
    TokenKind.LT: ("<", 4),
    TokenKind.LE: ("<=", 4),
    TokenKind.GT: (">", 4),
    TokenKind.GE: (">=", 4),
    TokenKind.PLUS: ("+", 5),
    TokenKind.MINUS: ("-", 5),
    TokenKind.STAR: ("*", 6),
    TokenKind.SLASH: ("/", 6),
    TokenKind.PERCENT: ("%", 6),
}

#: ``not`` binds between ``and`` and the comparisons; it is a prefix only
#: where an operand of that power or looser is expected.
_NOT_POWER = 3
_COMPARISON_POWER = 4
_TIGHTEST = 6

_STATEMENT_STARTERS = {
    TokenKind.IF,
    TokenKind.FOR,
    TokenKind.WHILE,
    TokenKind.RETURN,
    TokenKind.SEND,
    TokenKind.RECEIVE,
    TokenKind.IDENT,
}


class Parser:
    """Parses one source file into a :class:`repro.lang.ast_nodes.Module`."""

    def __init__(self, tokens: List[Token], sink: DiagnosticSink):
        self._tokens = tokens
        self._sink = sink
        self._text = sink.source.text
        self._index = 0

    # -- token stream helpers ---------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._index].kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._at(kind):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind) -> Token:
        if self._at(kind):
            return self._advance()
        self._sink.error(
            f"expected {kind.value!r}, found {self._current.text!r}",
            self._current.span,
        )
        raise _ParseError()

    def _span_from(self, start: ast.Offsets) -> ast.Offsets:
        """From ``start``'s start to the end of the last token consumed."""
        return (start[0], self._tokens[max(self._index - 1, 0)].end)

    def _lines_from(self, start: ast.Offsets) -> int:
        """Source lines :meth:`_span_from` covers."""
        return self._text.count("\n", *self._span_from(start)) + 1

    # -- program structure --------------------------------------------------

    def parse_module(self) -> ast.Module:
        start = self._current.span
        try:
            self._expect(TokenKind.MODULE)
            name = self._expect(TokenKind.IDENT).text
        except _ParseError:
            return ast.Module(name="<error>", sections=[], span=start)
        sections: List[ast.Section] = []
        while self._at(TokenKind.SECTION):
            section = self._parse_section()
            if section is not None:
                sections.append(section)
        if not self._accept(TokenKind.END):
            self._sink.error(
                f"expected 'section' or 'end', found {self._current.text!r}",
                self._current.span,
            )
        if not self._at(TokenKind.EOF):
            self._sink.error(
                f"trailing input after module end: {self._current.text!r}",
                self._current.span,
            )
        return ast.Module(name=name, sections=sections, span=self._span_from(start))

    def _parse_section(self) -> Optional[ast.Section]:
        start = self._current.span
        try:
            self._expect(TokenKind.SECTION)
            name = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.LPAREN)
            self._expect(TokenKind.CELLS)
            first = self._expect(TokenKind.INT_LIT).value
            self._expect(TokenKind.DOTDOT)
            last = self._expect(TokenKind.INT_LIT).value
            self._expect(TokenKind.RPAREN)
        except _ParseError:
            self._synchronize_to({TokenKind.SECTION, TokenKind.END})
            return None
        functions: List[ast.Function] = []
        while self._at(TokenKind.FUNCTION):
            fn = self._parse_function()
            if fn is not None:
                functions.append(fn)
        try:
            self._expect(TokenKind.END)
        except _ParseError:
            self._synchronize_to({TokenKind.SECTION, TokenKind.END})
            self._accept(TokenKind.END)
        return ast.Section(
            name=name,
            first_cell=first,
            last_cell=last,
            functions=functions,
            span=self._span_from(start),
        )

    def parse_function(self) -> Optional[ast.Function]:
        """Parse exactly one function, then require EOF.

        Entry point for the incremental front end: the token stream is one
        function's byte window (from the boundary scanner), lexed from
        the window's own text, so every span is measured from the window
        — offset 0, line 1, no filename.  Unconsumed tokens mean the
        window and the grammar disagree — an error, which makes the
        caller fall back to the sequential parse for canonical
        diagnostics.
        """
        fn = self._parse_function()
        if not self._at(TokenKind.EOF):
            self._sink.error(
                f"trailing input after function end: {self._current.text!r}",
                self._current.span,
            )
        return fn

    def parse_function_signature(self) -> Optional[ast.Function]:
        """Header-only parse: name, parameters, return type.

        Used by the incremental front end's signature pass; the
        result is a body-less stub whose signature is exactly what the
        per-function checkers (and the parse-cache key) need.  Tokens
        after the return type (the ``var`` block) are deliberately left
        unconsumed — the body window's full parse validates them.
        Returns ``None`` when the header itself is malformed.
        """
        start = self._current.span
        try:
            self._expect(TokenKind.FUNCTION)
            name = self._expect(TokenKind.IDENT).text
            params = self._parse_params()
            return_type: Type = VOID
            if self._accept(TokenKind.COLON):
                return_type = self._parse_type()
        except _ParseError:
            return None
        return ast.Function(
            name=name,
            params=params,
            return_type=return_type,
            locals=[],
            body=[],
            span=self._span_from(start),
            lines=self._lines_from(start),
        )

    def _parse_function(self) -> Optional[ast.Function]:
        start = self._current.span
        try:
            self._expect(TokenKind.FUNCTION)
            name = self._expect(TokenKind.IDENT).text
            params = self._parse_params()
            return_type: Type = VOID
            if self._accept(TokenKind.COLON):
                return_type = self._parse_type()
            local_decls = self._parse_var_block()
            self._expect(TokenKind.BEGIN)
        except _ParseError:
            self._synchronize_to(
                {TokenKind.FUNCTION, TokenKind.SECTION, TokenKind.END}
            )
            return None
        body = self._parse_statements(terminators={TokenKind.END})
        try:
            self._expect(TokenKind.END)
        except _ParseError:
            self._synchronize_to({TokenKind.FUNCTION, TokenKind.SECTION})
        return ast.Function(
            name=name,
            params=params,
            return_type=return_type,
            locals=local_decls,
            body=body,
            span=self._span_from(start),
            lines=self._lines_from(start),
        )

    def _parse_params(self) -> List[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: List[ast.Param] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                name_tok = self._expect(TokenKind.IDENT)
                self._expect(TokenKind.COLON)
                param_type = self._parse_type()
                params.append(
                    ast.Param(name=name_tok.text, type=param_type, span=name_tok.span)
                )
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_var_block(self) -> List[ast.VarDecl]:
        decls: List[ast.VarDecl] = []
        if not self._accept(TokenKind.VAR):
            return decls
        while self._at(TokenKind.IDENT):
            names = [self._expect(TokenKind.IDENT)]
            while self._accept(TokenKind.COMMA):
                names.append(self._expect(TokenKind.IDENT))
            self._expect(TokenKind.COLON)
            decl_type = self._parse_type()
            self._expect(TokenKind.SEMICOLON)
            for tok in names:
                decls.append(ast.VarDecl(name=tok.text, type=decl_type, span=tok.span))
        return decls

    def _parse_type(self) -> Type:
        if self._accept(TokenKind.INT):
            return INT
        if self._accept(TokenKind.FLOAT):
            return FLOAT
        if self._accept(TokenKind.ARRAY):
            self._expect(TokenKind.LBRACKET)
            length_tok = self._expect(TokenKind.INT_LIT)
            self._expect(TokenKind.RBRACKET)
            self._expect(TokenKind.OF)
            element = self._parse_type()
            if isinstance(element, ArrayType):
                self._sink.error(
                    "multi-dimensional arrays are not supported", length_tok.span
                )
            return ArrayType(element=element, length=length_tok.value)
        self._sink.error(
            f"expected a type, found {self._current.text!r}", self._current.span
        )
        raise _ParseError()

    # -- statements -----------------------------------------------------------

    def _parse_statements(self, terminators) -> List[ast.Stmt]:
        stmts: List[ast.Stmt] = []
        stop = set(terminators) | {TokenKind.EOF}
        while self._current.kind not in stop:
            if self._current.kind not in _STATEMENT_STARTERS:
                self._sink.error(
                    f"expected a statement, found {self._current.text!r}",
                    self._current.span,
                )
                self._synchronize_to(stop | {TokenKind.SEMICOLON})
                self._accept(TokenKind.SEMICOLON)
                continue
            try:
                stmts.append(self._parse_statement())
            except _ParseError:
                self._synchronize_to(stop | {TokenKind.SEMICOLON})
                self._accept(TokenKind.SEMICOLON)
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        kind = self._current.kind
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.FOR:
            return self._parse_for()
        if kind is TokenKind.WHILE:
            return self._parse_while()
        if kind is TokenKind.RETURN:
            return self._parse_return()
        if kind is TokenKind.SEND:
            return self._parse_send()
        if kind is TokenKind.RECEIVE:
            return self._parse_receive()
        return self._parse_assign_or_call()

    def _parse_if(self) -> ast.IfStmt:
        start = self._expect(TokenKind.IF).span
        condition = self._parse_expr()
        self._expect(TokenKind.THEN)
        then_body = self._parse_statements({TokenKind.ELSE, TokenKind.END})
        else_body: List[ast.Stmt] = []
        if self._accept(TokenKind.ELSE):
            else_body = self._parse_statements({TokenKind.END})
        self._expect(TokenKind.END)
        self._expect(TokenKind.SEMICOLON)
        return ast.IfStmt(
            span=self._span_from(start),
            condition=condition,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_for(self) -> ast.ForStmt:
        start = self._expect(TokenKind.FOR).span
        var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.ASSIGN)
        low = self._parse_expr()
        self._expect(TokenKind.TO)
        high = self._parse_expr()
        step: Optional[ast.Expr] = None
        if self._accept(TokenKind.BY):
            step = self._parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_statements({TokenKind.END})
        self._expect(TokenKind.END)
        self._expect(TokenKind.SEMICOLON)
        return ast.ForStmt(
            span=self._span_from(start),
            var=var,
            low=low,
            high=high,
            step=step,
            body=body,
        )

    def _parse_while(self) -> ast.WhileStmt:
        start = self._expect(TokenKind.WHILE).span
        condition = self._parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_statements({TokenKind.END})
        self._expect(TokenKind.END)
        self._expect(TokenKind.SEMICOLON)
        return ast.WhileStmt(
            span=self._span_from(start), condition=condition, body=body
        )

    def _parse_return(self) -> ast.ReturnStmt:
        start = self._expect(TokenKind.RETURN).span
        value: Optional[ast.Expr] = None
        if not self._at(TokenKind.SEMICOLON):
            value = self._parse_expr()
        self._expect(TokenKind.SEMICOLON)
        return ast.ReturnStmt(span=self._span_from(start), value=value)

    def _parse_send(self) -> ast.SendStmt:
        start = self._expect(TokenKind.SEND).span
        self._expect(TokenKind.LPAREN)
        value = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return ast.SendStmt(span=self._span_from(start), value=value)

    def _parse_receive(self) -> ast.ReceiveStmt:
        start = self._expect(TokenKind.RECEIVE).span
        self._expect(TokenKind.LPAREN)
        target = self._parse_postfix()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return ast.ReceiveStmt(span=self._span_from(start), target=target)

    def _parse_assign_or_call(self) -> ast.Stmt:
        start = self._current.span
        target = self._parse_postfix()
        if self._accept(TokenKind.ASSIGN):
            value = self._parse_expr()
            self._expect(TokenKind.SEMICOLON)
            return ast.AssignStmt(
                span=self._span_from(start), target=target, value=value
            )
        self._expect(TokenKind.SEMICOLON)
        if isinstance(target, ast.CallExpr):
            return ast.CallStmt(span=self._span_from(start), call=target)
        self._sink.error("expression statement must be a call", target.span)
        raise _ParseError()

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self, power: int = 1) -> ast.Expr:
        """An expression whose operators all bind at least as tightly as
        ``power`` (precedence climbing over :data:`_BINARY_OPS`)."""
        if power <= _NOT_POWER and self._at(TokenKind.NOT):
            start = self._advance().span
            operand = self._parse_expr(_NOT_POWER)
            expr = ast.UnaryExpr(
                span=(start[0], operand.span[1]), op="not", operand=operand
            )
            # ``not`` took every tighter operator: only looser ones follow.
            ceiling = _NOT_POWER - 1
        else:
            expr = self._parse_unary()
            ceiling = _TIGHTEST
        while True:
            entry = _BINARY_OPS.get(self._tokens[self._index].kind)
            if entry is None:
                return expr
            op, op_power = entry
            if op_power < power or op_power > ceiling:
                return expr
            self._advance()
            right = self._parse_expr(op_power + 1)
            expr = ast.BinaryExpr(
                span=(expr.span[0], right.span[1]), op=op, left=expr, right=right
            )
            # The right operand took every tighter operator, and a
            # comparison does not take another comparison.
            ceiling = op_power - 1 if op_power == _COMPARISON_POWER else op_power

    def _parse_unary(self) -> ast.Expr:
        if self._at(TokenKind.MINUS):
            start = self._advance().span
            operand = self._parse_unary()
            return ast.UnaryExpr(
                span=(start[0], operand.span[1]), op="-", operand=operand
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._at(TokenKind.LBRACKET):
                self._advance()
                index = self._parse_expr()
                end = self._expect(TokenKind.RBRACKET).span
                expr = ast.IndexExpr(
                    span=(expr.span[0], end[1]), base=expr, index=index
                )
            elif self._at(TokenKind.LPAREN) and isinstance(expr, ast.VarRef):
                self._advance()
                args: List[ast.Expr] = []
                if not self._at(TokenKind.RPAREN):
                    args.append(self._parse_expr())
                    while self._accept(TokenKind.COMMA):
                        args.append(self._parse_expr())
                end = self._expect(TokenKind.RPAREN).span
                expr = ast.CallExpr(
                    span=(expr.span[0], end[1]), callee=expr.name, args=args
                )
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLiteral(span=token.span, value=token.value)
        if token.kind is TokenKind.FLOAT_LIT:
            self._advance()
            return ast.FloatLiteral(span=token.span, value=token.value)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.VarRef(span=token.span, name=token.text)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        self._sink.error(
            f"expected an expression, found {token.text!r}", token.span
        )
        raise _ParseError()

    # -- error recovery ----------------------------------------------------------

    def _synchronize_to(self, kinds) -> None:
        """Skip tokens until one of ``kinds`` (or EOF) is current."""
        stop = set(kinds) | {TokenKind.EOF}
        while self._current.kind not in stop:
            self._advance()


def parse_source(source: SourceFile, sink: DiagnosticSink) -> ast.Module:
    """Lex and parse ``source`` into a module, reporting problems to ``sink``."""
    tokens = tokenize(source, sink)
    return Parser(tokens, sink).parse_module()


def parse_text(text: str, sink: DiagnosticSink, filename: str = "<input>") -> ast.Module:
    """Parse a string of source text (convenience for tests and examples)."""
    return parse_source(SourceFile(filename, text), sink)
