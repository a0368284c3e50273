"""Unit tests for the boundary scanner (the parallel front end's splitter).

The scanner's contract: on any module the sequential parser accepts, the
function windows it reports coincide exactly with the parser's function
spans; on anything it cannot classify with certainty it returns None
(fallback), never a wrong split.
"""

from repro.lang.boundary import scan_boundaries
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.source import SourceFile


def _parse(source: str):
    sink = DiagnosticSink()
    tokens = tokenize(SourceFile("<input>", source), sink)
    module = Parser(tokens, sink).parse_module()
    assert not sink.has_errors, sink.render()
    return module


def _assert_windows_match_parser(source: str):
    """Every window's [start, end) must equal the parser's function span
    offsets, and header_end must be the 'begin' keyword's offset."""
    boundaries = scan_boundaries(source)
    assert boundaries is not None
    module = _parse(source)
    assert len(boundaries.sections) == len(module.sections)
    for sec_bounds, section in zip(boundaries.sections, module.sections):
        assert len(sec_bounds.function_windows) == len(section.functions)
        for window, fn in zip(sec_bounds.function_windows, section.functions):
            assert (window.start, window.end) == fn.span
            assert source[window.header_end:].startswith("begin")


SIMPLE = """\
module m
  section s (cells 0..1)
    function f(x: float): float
    begin
      return x + 1.0;
    end
    function g(): int
    var
      n: int;
    begin
      n := 2;
      return n;
    end
  end
end
"""


def test_windows_match_parser_spans():
    _assert_windows_match_parser(SIMPLE)


def test_nested_blocks_tracked():
    source = """\
module m
  section s (cells 0..1)
    function f(n: int): int
    var
      i, acc: int;
    begin
      acc := 0;
      for i := 0 to n do
        if acc > 3 then
          acc := acc + 1;
        else
          while acc < 2 do
            acc := acc + 2;
          end;
        end;
      end;
      return acc;
    end
  end
end
"""
    _assert_windows_match_parser(source)


def test_keywords_in_comments_are_invisible():
    source = """\
module m
  -- function end begin section module
  section s (cells 0..1)
    -- end function
    function f(): int  -- begin end
    begin
      -- if end while
      return 1;
    end
  end
end
"""
    _assert_windows_match_parser(source)


def test_number_keyword_adjacency():
    """'1e5end' lexes as FLOAT then 'end' — the scanner's number skim
    must agree with the lexer, or the body's closing 'end' is missed."""
    source = (
        "module m section s (cells 0..1) "
        "function f(): float var x: float; begin x := 1e5end "
        "function g(): float begin return 2.5e-1; end end end"
    )
    # '1e5end' is a float literal immediately followed by 'end': the
    # statement is missing its ';' so the *parser* rejects it, but the
    # scanner must still split at the same place the lexer would.
    boundaries = scan_boundaries(source)
    assert boundaries is not None
    windows = boundaries.all_windows()
    assert len(windows) == 2
    first = source[windows[0].start : windows[0].end]
    assert first.endswith("1e5end")


def test_range_op_not_a_fraction():
    """'0..1' must not be consumed as a float fraction."""
    source = SIMPLE.replace("cells 0..1", "cells 0..3")
    _assert_windows_match_parser(source)


def test_weird_spacing_and_one_line_module():
    source = (
        "module m section s(cells 0..1) function   f(  ):int "
        "begin return 1 ; end function g():int begin return 2; end end end"
    )
    _assert_windows_match_parser(source)


# -- fallback cases: the scanner must refuse, never mis-split ----------


def test_missing_function_end_falls_back():
    assert scan_boundaries(
        "module m section s (cells 0..1) function f(): int begin return 1; end"
    ) is None  # section/module 'end's consumed by the body scan


def test_missing_module_keyword_falls_back():
    assert scan_boundaries("section s (cells 0..1) end") is None


def test_nested_begin_falls_back():
    assert scan_boundaries(
        "module m section s (cells 0..1) function f(): int begin begin "
        "return 1; end end end end"
    ) is None


def test_structural_keyword_in_body_falls_back():
    assert scan_boundaries(
        "module m section s (cells 0..1) function f(): int begin "
        "section return 1; end end end"
    ) is None


def test_header_without_begin_falls_back():
    assert scan_boundaries(
        "module m section s (cells 0..1) function f(): int end end end"
    ) is None


def test_trailing_words_fall_back():
    assert scan_boundaries(SIMPLE + "stray") is None


def test_eof_mid_body_falls_back():
    assert scan_boundaries(
        "module m section s (cells 0..1) function f(): int begin return 1;"
    ) is None


def test_empty_section_scans():
    """A function-less section is structurally fine for the scanner
    (sema rejects it later, canonically, via the fallback path)."""
    boundaries = scan_boundaries("module m section s (cells 0..1) end end")
    assert boundaries is not None
    assert boundaries.function_count() == 0
