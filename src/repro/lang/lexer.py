"""Lexer for the W2-like Warp source language: one master pattern.

Comments run from ``--`` to end of line.  A word starts at a letter
(``str.isalpha``) or underscore and continues over letters, digits and
underscores (``\\w``); keywords are ASCII.  Numbers are decimal digits
(``\\d``, exactly what ``int`` and ``float`` accept); a number with a
fraction (a ``.`` that is not the ``..`` range operator) or an exponent
(an ``e`` that a digit actually follows) is a float literal.

The range contract: :func:`tokenize` reads ``[start, end)`` of a source
(by default all of it) exactly as it would read ``text[start:end]`` —
the text ends at ``end`` for every pattern — but measures each position
in the whole source.  It asks :meth:`SourceFile.position_at` for one
position, ``start``'s, and carries line and column forward from it: a
token never contains a newline, so only trivia advances the line, and
a token's offset is its match offset, so no token needs a lookup.  The
incremental front end lexes the skeleton and the function headers as
ranges of the file; a function window is a source of its own.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .diagnostics import DiagnosticSink
from .source import Position, SourceFile, Span
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_OPERATORS = {**dict(MULTI_CHAR_OPERATORS), **SINGLE_CHAR_OPERATORS}

#: Lexeme classes.  ``WORD`` also matches at the characters that are
#: ``\w`` without being letters or decimal digits (``²``, ``½``): no word
#: starts there, which ``tokens`` checks on an identifier's first character.
COMMENT = r"--[^\n]*\n?"
WORD = r"[^\W\d]\w*"
FLOAT = r"\d+(?:\.(?!\.)\d*(?:[eE][+-]?\d+)?|[eE][+-]?\d+)"

#: Every lexeme class, tried in this order at each offset.
MASTER = re.compile(
    rf"(?P<trivia>(?:[ \t\r\n]+|{COMMENT})+)|(?P<word>{WORD})"
    rf"|(?P<float>{FLOAT})|(?P<int>\d+)|(?P<op>%s|[%s])|(?P<other>.)"
    % (
        "|".join(re.escape(lexeme) for lexeme, _ in MULTI_CHAR_OPERATORS),
        "".join(re.escape(ch) for ch in SINGLE_CHAR_OPERATORS),
    ),
    re.DOTALL,
)


class Lexer:
    """Converts a range of a source (see the module docstring) into a
    token stream."""

    def __init__(self, source: SourceFile, sink: DiagnosticSink):
        self._source = source
        self._sink = sink

    def tokens(self, start: int = 0, end: Optional[int] = None) -> List[Token]:
        """Lex ``[start, end)``, ending with exactly one EOF token."""
        text = self._source.text
        filename = self._source.filename
        stop = len(text) if end is None else end
        first = self._source.position_at(start)
        # The token at offset o sits at column o - margin of ``line``.
        line, margin = first.line, start - first.column
        result: List[Token] = []
        emit = result.append
        pos = start
        while pos is not None:
            matches = MASTER.finditer(text, pos, stop)
            pos = None
            for match in matches:
                group = match.lastgroup
                begin, finish = match.span()
                if group == "trivia":
                    newlines = text.count("\n", begin, finish)
                    if newlines:
                        line += newlines
                        margin = text.rfind("\n", begin, finish)
                    continue
                lexeme = match.group()
                kind = value = None  # no kind: an unexpected character
                if group == "word":
                    kind = KEYWORDS.get(lexeme)
                    if kind is None:
                        initial = lexeme[0]
                        if initial.isalpha() or initial == "_":
                            kind, value = TokenKind.IDENT, lexeme
                        else:
                            # No word starts here: resume behind it.
                            pos = finish = begin + 1
                elif group == "op":
                    kind = _OPERATORS[lexeme]
                elif group == "int":
                    kind, value = TokenKind.INT_LIT, int(lexeme)
                elif group == "float":
                    kind, value = TokenKind.FLOAT_LIT, float(lexeme)
                span = Span(
                    filename,
                    Position(line, begin - margin, begin),
                    Position(line, finish - margin, finish),
                )
                if kind is not None:
                    emit(Token(kind, lexeme, span, value))
                    continue
                self._sink.error(f"unexpected character {text[begin]!r}", span)
                if pos is not None:
                    break
        eof = Position(line, stop - margin, stop)
        emit(Token(TokenKind.EOF, "", Span(filename, eof, eof), None))
        return result


def tokenize(
    source: SourceFile,
    sink: DiagnosticSink,
    start: int = 0,
    end: Optional[int] = None,
) -> List[Token]:
    """Lex ``source``, or its range ``[start, end)``, reporting problems
    to ``sink``."""
    return Lexer(source, sink).tokens(start, end)
