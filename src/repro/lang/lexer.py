"""Lexer for the W2-like Warp source language: one master pattern.

Comments run from ``--`` to end of line.  A word starts at a letter
(``str.isalpha``) or underscore and continues over letters, digits and
underscores (``\\w``); keywords are ASCII.  Numbers are decimal digits
(``\\d``, exactly what ``int`` and ``float`` accept); a number with a
fraction (a ``.`` that is not the ``..`` range operator) or an exponent
(an ``e`` that a digit actually follows) is a float literal.

A source is anything with ``text``, ``filename`` and a ``position_at``
that answers for offset 0.  The lexer asks for that one position and
carries line and column forward from it: a token never contains a
newline, so only trivia advances the line, and offsets only grow, so no
token needs a lookup.  A whole file and a window into one are therefore
the same case — the first line's columns start at the base column,
every later line's at 1.
"""

from __future__ import annotations

import re
from typing import List

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
    """Converts a source (see the module docstring) into a token stream."""

    def __init__(self, source: SourceFile, sink: DiagnosticSink):
        self._source = source
        self._sink = sink

    def tokens(self) -> List[Token]:
        """Lex the whole text, ending with exactly one EOF token."""
        text = self._source.text
        filename = self._source.filename
        base = self._source.position_at(0)
        # The token at offset o sits at column o - margin of ``line`` and
        # at absolute offset o + shift.
        line, margin, shift = base.line, -base.column, base.offset
        result: List[Token] = []
        emit = result.append
        pos = 0
        while pos is not None:
            matches = MASTER.finditer(text, pos)
            pos = None
            for match in matches:
                group = match.lastgroup
                start, end = match.span()
                if group == "trivia":
                    newlines = text.count("\n", start, end)
                    if newlines:
                        line += newlines
                        margin = text.rfind("\n", start, end)
                    continue
                lexeme = match.group()
                kind = value = None  # no kind: an unexpected character
                if group == "word":
                    kind = KEYWORDS.get(lexeme)
                    if kind is None:
                        first = lexeme[0]
                        if first.isalpha() or first == "_":
                            kind, value = TokenKind.IDENT, lexeme
                        else:
                            # No word starts here: resume behind it.
                            pos = end = start + 1
                elif group == "op":
                    kind = _OPERATORS[lexeme]
                elif group == "int":
                    kind, value = TokenKind.INT_LIT, int(lexeme)
                elif group == "float":
                    kind, value = TokenKind.FLOAT_LIT, float(lexeme)
                span = Span(
                    filename,
                    Position(line, start - margin, start + shift),
                    Position(line, end - margin, end + shift),
                )
                if kind is not None:
                    emit(Token(kind, lexeme, span, value))
                    continue
                self._sink.error(f"unexpected character {text[start]!r}", span)
                if pos is not None:
                    break
        end = len(text)
        eof = Position(line, end - margin, end + shift)
        emit(Token(TokenKind.EOF, "", Span(filename, eof, eof), None))
        return result


def tokenize(source: SourceFile, sink: DiagnosticSink) -> List[Token]:
    """Convenience wrapper: lex ``source``, reporting problems to ``sink``."""
    return Lexer(source, sink).tokens()
