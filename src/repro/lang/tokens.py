"""Token definitions for the W2-like Warp source language.

The language mirrors the structure described in the paper (§3.1): a *module*
contains *section programs*, each section program contains one or more
*functions*.  Within functions the language is a small Pascal-like loop
language — the workloads the Warp compiler was built for are deeply nested
loop kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple, Union


class TokenKind(enum.Enum):
    # Literals and identifiers
    IDENT = "identifier"
    INT_LIT = "integer literal"
    FLOAT_LIT = "float literal"

    # Keywords
    MODULE = "module"
    SECTION = "section"
    CELLS = "cells"
    FUNCTION = "function"
    VAR = "var"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    FOR = "for"
    TO = "to"
    BY = "by"
    DO = "do"
    WHILE = "while"
    RETURN = "return"
    SEND = "send"
    RECEIVE = "receive"
    INT = "int"
    FLOAT = "float"
    ARRAY = "array"
    OF = "of"
    AND = "and"
    OR = "or"
    NOT = "not"

    # Punctuation and operators
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    ASSIGN = ":="
    DOTDOT = ".."
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    # End of file
    EOF = "end of file"


KEYWORDS = {
    "module": TokenKind.MODULE,
    "section": TokenKind.SECTION,
    "cells": TokenKind.CELLS,
    "function": TokenKind.FUNCTION,
    "var": TokenKind.VAR,
    "begin": TokenKind.BEGIN,
    "end": TokenKind.END,
    "if": TokenKind.IF,
    "then": TokenKind.THEN,
    "else": TokenKind.ELSE,
    "for": TokenKind.FOR,
    "to": TokenKind.TO,
    "by": TokenKind.BY,
    "do": TokenKind.DO,
    "while": TokenKind.WHILE,
    "return": TokenKind.RETURN,
    "send": TokenKind.SEND,
    "receive": TokenKind.RECEIVE,
    "int": TokenKind.INT,
    "float": TokenKind.FLOAT,
    "array": TokenKind.ARRAY,
    "of": TokenKind.OF,
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
}

#: Multi-character operators, longest first so the lexer can try them in order.
MULTI_CHAR_OPERATORS = [
    (":=", TokenKind.ASSIGN),
    ("..", TokenKind.DOTDOT),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("<>", TokenKind.NE),
]

SINGLE_CHAR_OPERATORS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ":": TokenKind.COLON,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "=": TokenKind.EQ,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
}


@dataclass
class Token:
    """One lexeme: its kind, source text, decoded value, and the offsets
    ``[start, end)`` of the text it was lexed from.  One small object per
    lexeme (``__slots__``, and not frozen: a frozen dataclass builds
    through ``object.__setattr__``); line and column are derived from
    ``start`` only when a diagnostic needs them."""

    __slots__ = ("kind", "text", "value", "start", "end")

    kind: TokenKind
    text: str
    value: Union[int, float, str, None]
    start: int
    end: int

    @property
    def span(self) -> Tuple[int, int]:
        """The offset pair ``(start, end)``."""
        return (self.start, self.end)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
