"""Source positions, spans, diagnostics, and the type lattice."""

import pytest

from repro.lang.diagnostics import (
    CompileError,
    Diagnostic,
    DiagnosticSink,
    Severity,
)
from repro.lang.source import Position, SourceFile, Span
from repro.lang.types import (
    ArrayType,
    FLOAT,
    INT,
    VOID,
    is_assignable,
    unify_arithmetic,
)


class TestSourceFile:
    def test_position_at_start(self):
        src = SourceFile("f", "abc\ndef")
        pos = src.position_at(0)
        assert (pos.line, pos.column) == (1, 1)

    def test_position_after_newline(self):
        src = SourceFile("f", "abc\ndef")
        pos = src.position_at(4)
        assert (pos.line, pos.column) == (2, 1)

    def test_position_mid_line(self):
        src = SourceFile("f", "abc\ndef")
        pos = src.position_at(6)
        assert (pos.line, pos.column) == (2, 3)

    def test_position_at_eof(self):
        src = SourceFile("f", "ab")
        assert src.position_at(2).column == 3

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            SourceFile("f", "ab").position_at(5)

    def test_line_text(self):
        src = SourceFile("f", "first\nsecond\nthird")
        assert src.line_text(2) == "second"
        assert src.line_text(3) == "third"

    def test_line_text_out_of_range(self):
        with pytest.raises(ValueError):
            SourceFile("f", "one").line_text(5)

    def test_count_lines(self):
        assert SourceFile("f", "").count_lines() == 1
        assert SourceFile("f", "a\nb\nc").count_lines() == 3
        assert SourceFile("f", "a\n").count_lines() == 2


class TestSpan:
    def test_str_form(self):
        assert str(Span("f", Position(1, 1, 0), Position(1, 2, 1))) == "f:1:1"

    def test_offsets_become_positions_in_their_file(self):
        span = SourceFile("f", "ab\ncde").span(4, 6)
        assert span == Span("f", Position(2, 2, 4), Position(2, 4, 6))


class TestDiagnostics:
    def test_render_format(self):
        sink = DiagnosticSink(SourceFile("f", "\n\n      bad\n"))
        sink.error("bad thing", (8, 11))
        assert sink.render() == "f:3:7: error: bad thing"
        assert sink.diagnostics[0].span.end == Position(3, 10, 11)

    def test_warnings_do_not_count_as_errors(self):
        sink = DiagnosticSink()
        sink.warning("meh")
        assert not sink.has_errors
        sink.check()  # no raise

    def test_check_raises_with_summary(self):
        sink = DiagnosticSink()
        for i in range(5):
            sink.error(f"e{i}")
        with pytest.raises(CompileError) as excinfo:
            sink.check()
        assert "+2 more" in str(excinfo.value)
        assert len(excinfo.value.diagnostics) == 5

    def test_merged_in_source_order(self):
        sink = DiagnosticSink(SourceFile("f", "early\n" * 9))
        sink.error("later", (48, 49))
        sink.error("earlier", (6, 7))
        ordered = sink.merged_in_source_order()
        assert [d.message for d in ordered] == ["earlier", "later"]

    def test_extend_merges_sinks(self):
        a, b = DiagnosticSink(), DiagnosticSink()
        a.error("one")
        b.error("two")
        a.extend(b)
        assert a.error_count == 2


class TestTypes:
    def test_assignability(self):
        assert is_assignable(INT, INT)
        assert is_assignable(FLOAT, FLOAT)
        assert is_assignable(FLOAT, INT)  # widening
        assert not is_assignable(INT, FLOAT)  # narrowing
        assert not is_assignable(ArrayType(INT, 4), ArrayType(INT, 4))

    def test_unify_arithmetic(self):
        assert unify_arithmetic(INT, INT) == INT
        assert unify_arithmetic(INT, FLOAT) == FLOAT
        assert unify_arithmetic(FLOAT, FLOAT) == FLOAT
        assert unify_arithmetic(VOID, INT) is None
        assert unify_arithmetic(ArrayType(INT, 2), INT) is None

    def test_str_forms(self):
        assert str(ArrayType(FLOAT, 8)) == "array[8] of float"
        assert str(INT) == "int"
        assert str(VOID) == "void"

    def test_scalar_predicates(self):
        assert INT.is_scalar() and INT.is_numeric()
        assert not VOID.is_scalar()
        assert not ArrayType(INT, 2).is_scalar()
