"""Lexer for the W2-like Warp source language: one master pattern.

Comments run from ``--`` to end of line.  A word starts at a letter
(``str.isalpha``) or underscore and continues over letters, digits and
underscores (``\\w``); keywords are ASCII.  Numbers are decimal digits
(``\\d``, exactly what ``int`` and ``float`` accept); a number with a
fraction (a ``.`` that is not the ``..`` range operator) or an exponent
(an ``e`` that a digit actually follows) is a float literal.

The range contract: :func:`tokenize` reads ``[start, end)`` of a source
(by default all of it) exactly as it would read ``text[start:end]`` —
the text ends at ``end`` for every pattern — but gives every token the
offsets of the whole source, so a range's tokens are the whole file's
tokens for the same lexemes.  A token holds its kind, text, value and
offsets: the lexer builds one object per lexeme and never a line or a
column, which are derived from an offset only when a diagnostic is
reported (its sink is bound to the same source).  The incremental front
end lexes the skeleton and the function headers as ranges of the file;
a function window is a source of its own.
"""

from __future__ import annotations

import re
from typing import List, Optional

from .diagnostics import DiagnosticSink
from .source import SourceFile
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


def tokenize(
    source: SourceFile,
    sink: DiagnosticSink,
    start: int = 0,
    end: Optional[int] = None,
) -> List[Token]:
    """Lex ``source``, or its range ``[start, end)`` (see the module
    docstring), into tokens ending with exactly one EOF token.

    Binds ``sink`` to ``source``: whatever reports to the sink next — the
    lexer, a parser of these tokens, a checker of their tree — reports
    offsets into ``source``.
    """
    sink.source = source
    text = source.text
    stop = len(text) if end is None else end
    result: List[Token] = []
    emit = result.append
    pos = start
    while pos is not None:
        matches = MASTER.finditer(text, pos, stop)
        pos = None
        for match in matches:
            group = match.lastgroup
            if group == "trivia":
                continue
            lexeme = match.group()
            begin, finish = match.span()
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
            if kind is not None:
                emit(Token(kind, lexeme, value, begin, finish))
                continue
            sink.error(f"unexpected character {text[begin]!r}", (begin, finish))
            if pos is not None:
                break
    emit(Token(TokenKind.EOF, "", None, stop, stop))
    return result
