"""Lexer unit tests."""

import pytest

from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.source import SourceFile
from repro.lang.tokens import TokenKind


def lex(text: str):
    sink = DiagnosticSink()
    tokens = tokenize(SourceFile("<test>", text), sink)
    return tokens, sink


def kinds(text: str):
    tokens, sink = lex(text)
    assert not sink.has_errors, sink.render()
    return [t.kind for t in tokens]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only(self):
        assert kinds("  \t\n  \r\n") == [TokenKind.EOF]

    def test_identifier(self):
        tokens, _ = lex("foo_bar42")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo_bar42"

    def test_keywords_are_not_identifiers(self):
        assert kinds("module section function begin end") == [
            TokenKind.MODULE,
            TokenKind.SECTION,
            TokenKind.FUNCTION,
            TokenKind.BEGIN,
            TokenKind.END,
            TokenKind.EOF,
        ]

    def test_keyword_prefix_is_identifier(self):
        tokens, _ = lex("formula")
        assert tokens[0].kind is TokenKind.IDENT

    def test_case_sensitive_keywords(self):
        tokens, _ = lex("Module")
        assert tokens[0].kind is TokenKind.IDENT


class TestNumbers:
    def test_integer_literal(self):
        tokens, _ = lex("42")
        assert tokens[0].kind is TokenKind.INT_LIT
        assert tokens[0].value == 42

    def test_float_literal(self):
        tokens, _ = lex("3.25")
        assert tokens[0].kind is TokenKind.FLOAT_LIT
        assert tokens[0].value == 3.25

    def test_float_with_exponent(self):
        tokens, _ = lex("1e3 2.5e-2")
        assert tokens[0].value == 1000.0
        assert tokens[1].value == 0.025

    def test_integer_followed_by_dotdot_is_not_float(self):
        assert kinds("0..7") == [
            TokenKind.INT_LIT,
            TokenKind.DOTDOT,
            TokenKind.INT_LIT,
            TokenKind.EOF,
        ]

    def test_zero(self):
        tokens, _ = lex("0")
        assert tokens[0].value == 0


class TestOperators:
    def test_assign_vs_colon(self):
        assert kinds(": :=") == [
            TokenKind.COLON,
            TokenKind.ASSIGN,
            TokenKind.EOF,
        ]

    def test_comparison_operators(self):
        assert kinds("= <> < <= > >=") == [
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
            TokenKind.EOF,
        ]

    def test_arithmetic(self):
        assert kinds("+ - * / %") == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
            TokenKind.EOF,
        ]

    def test_brackets(self):
        assert kinds("( ) [ ]") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.EOF,
        ]


class TestCommentsAndErrors:
    def test_comment_to_end_of_line(self):
        assert kinds("a -- comment here\nb") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_comment_at_eof_without_newline(self):
        assert kinds("a -- trailing") == [TokenKind.IDENT, TokenKind.EOF]

    def test_double_minus_is_comment_not_two_minuses(self):
        assert kinds("1 --x\n- 2") == [
            TokenKind.INT_LIT,
            TokenKind.MINUS,
            TokenKind.INT_LIT,
            TokenKind.EOF,
        ]

    def test_unknown_character_reports_error(self):
        tokens, sink = lex("a @ b")
        assert sink.has_errors
        assert "unexpected character" in sink.render()
        # Lexing continues past the bad character.
        assert [t.kind for t in tokens] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]


class TestNonDecimalDigits:
    """``str.isdigit`` is true for ``²`` and ``int("1²")`` is not a number:
    such a character is neither a digit of a literal nor a word start."""

    def errors(self, text):
        tokens, sink = lex(text)
        return tokens, [
            (d.message, d.span.start.column, d.span.end.column)
            for d in sink.merged_in_source_order()
        ]

    def test_bare_superscript_is_an_unexpected_character(self):
        tokens, errors = self.errors("x ² y")
        assert errors == [("unexpected character '²'", 3, 4)]
        assert [t.text for t in tokens] == ["x", "y", ""]

    def test_superscript_after_a_digit_ends_the_literal(self):
        tokens, errors = self.errors("return 1²;")
        assert errors == [("unexpected character '²'", 9, 10)]
        assert [(t.kind, t.value) for t in tokens[:3]] == [
            (TokenKind.RETURN, None),
            (TokenKind.INT_LIT, 1),
            (TokenKind.SEMICOLON, None),
        ]

    def test_superscript_inside_a_word_stays_an_identifier(self):
        tokens, errors = self.errors("x²")
        assert errors == []
        assert (tokens[0].kind, tokens[0].value) == (TokenKind.IDENT, "x²")

    def test_numeric_that_is_no_letter_starts_no_word(self):
        # '½' is \w but neither a letter nor a digit: lexing resumes
        # right behind it, as it always has.
        tokens, errors = self.errors("½abc ²x")
        assert [message for message, _, _ in errors] == [
            "unexpected character '½'",
            "unexpected character '²'",
        ]
        assert [t.value for t in tokens[:-1]] == ["abc", "x"]

    def test_decimal_digits_of_any_script_are_numbers(self):
        tokens, errors = self.errors("٣ ٣.٥")
        assert errors == []
        assert [t.value for t in tokens[:-1]] == [3, 3.5]


class TestNumberEdges:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1..2", [("1", 1), ("..", None), ("2", 2)]),
            ("2..", [("2", 2), ("..", None)]),
            ("1.e5", [("1.e5", 100000.0)]),
            ("1.", [("1.", 1.0)]),
            ("1e", [("1", 1), ("e", "e")]),
            ("1e+", [("1", 1), ("e", "e"), ("+", None)]),
            ("1e5end", [("1e5", 100000.0), ("end", None)]),
        ],
    )
    def test_number_edges(self, text, expected):
        tokens, sink = lex(text)
        assert not sink.has_errors
        assert [(t.text, t.value) for t in tokens[:-1]] == expected


class TestSpans:
    def test_token_positions(self):
        source = SourceFile("<test>", "ab\ncd")
        tokens = tokenize(source, DiagnosticSink())
        assert [(t.start, t.end) for t in tokens] == [(0, 2), (3, 5), (5, 5)]
        assert str(source.position_at(tokens[0].start)) == "1:1"
        assert str(source.position_at(tokens[1].start)) == "2:1"

    def test_span_covers_token_text(self):
        tokens, _ = lex("  hello  ")
        assert (tokens[0].start, tokens[0].end) == (2, 2 + len("hello"))
