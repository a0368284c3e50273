"""Boundary scanner: split a module at ``section``/``function`` heads.

The incremental front end needs to know *where* each function's text
lives before it can parse the functions one by one — but deriving that
from a full parse would defeat the point.  This scanner is the answer for a
block-structured grammar: a single skim built from the lexer's own
comment, number and word classes (so a ``function`` inside a ``--``
comment or glued to a float literal is never mistaken for a keyword)
that tracks block depth through ``begin``/``if``/``for``/
``while``/``end``.  Only those keywords reach Python: the regex engine
passes over every other word, and a run of them is one entry, since the
scan only asks whether one stands where a keyword must.  It never builds
tokens or an AST; its output is one
half-open byte window per function plus the offset where the header ends
(the ``begin`` keyword), which is all the window parser and the
signature pass need.

The scanner only has to be *right on valid modules*: whenever the input
deviates from the expected module/section/function shape it returns
``None`` and the caller falls back to the sequential front end, which
reports the canonical diagnostics.  Operator-level garbage is invisible
to the word skim, but it always lands either inside a function window
(caught by that window's real parse) or in the skeleton between windows
(caught by the skeleton's real parse) — both trigger the same fallback.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .lexer import COMMENT, FLOAT, WORD

#: keywords that open a nested ``... end`` block inside a function body
_BLOCK_OPENERS = frozenset({"if", "for", "while"})

#: structural words that may never appear inside a function body/header
_STRUCTURE_WORDS = frozenset({"module", "section", "function"})


@dataclass(frozen=True)
class FunctionWindow:
    """Byte offsets of one function: ``[start, end)`` covers the text
    from its ``function`` keyword through its closing ``end`` inclusive;
    ``header_end`` is the offset of the ``begin`` keyword (the header —
    name, parameters, return type, var block — is ``[start, header_end)``)."""

    start: int
    header_end: int
    end: int


@dataclass(frozen=True)
class SectionBoundaries:
    """The function windows of one section, in source order."""

    function_windows: Tuple[FunctionWindow, ...]


@dataclass(frozen=True)
class ModuleBoundaries:
    """Every section's function windows, in source order."""

    sections: Tuple[SectionBoundaries, ...]

    def all_windows(self) -> List[FunctionWindow]:
        return [w for sec in self.sections for w in sec.function_windows]

    def function_count(self) -> int:
        return sum(len(sec.function_windows) for sec in self.sections)


#: What the skim passes over between words: runs of characters no word
#: contains, the lexer's numbers and comments (neither may hide or fake a
#: keyword: ``1e5end`` lexes as FLOAT_LIT then ``end``), a lone ``-``.
_GAP = rf"[^\w-]+|{FLOAT}|\d+|{COMMENT}|-"
#: every word the scan below asks about; the skim surfaces these alone
_KEYWORDS = _STRUCTURE_WORDS | _BLOCK_OPENERS | {"begin", "end"}
_KEYWORD = rf"(?:{'|'.join(sorted(_KEYWORDS))})(?!\w)"
#: what a header passes over: any word but begin, end or a structural one
_SKIPPED = _BLOCK_OPENERS | {""}
#: the next word, whatever it is (a module's first two)
_WORD = re.compile(rf"(?:{_GAP})*({WORD})?")
#: up to and including the next keyword; group 1: the first other word
_SKIM = re.compile(
    rf"(?:{_GAP})*(?:((?!{_KEYWORD}){WORD})(?:{_GAP}|(?!{_KEYWORD}){WORD})*)?"
    rf"({_KEYWORD})?"
)


def scan_boundaries(text: str) -> Optional[ModuleBoundaries]:
    """Skim ``text`` and return its function windows, or ``None`` when its
    keywords do not make a well-formed module (the caller must fall back
    to the sequential front end)."""
    head = _WORD.match(text)
    if head[1] != "module":
        return None
    # past the name (any word); a run of other words is one "" entry
    words = [
        (word, *match.span(group))
        for match in _SKIM.finditer(text, _WORD.match(text, head.end()).end())
        for word, group in (("", 1), (match[2], 2))
        if match.start(group) >= 0
    ]
    n = len(words)

    def word_at(j: int) -> Optional[str]:
        return words[j][0] if j < n else None

    i = 0
    sections: List[SectionBoundaries] = []
    while word_at(i) == "section":
        i += 1
        # Section header: name + 'cells' (the punctuation is invisible).
        # Skim to the first structural word; a malformed header either
        # trips the checks below or fails the skeleton parse later.
        while word_at(i) in _SKIPPED:
            i += 1
        windows: List[FunctionWindow] = []
        while word_at(i) == "function":
            fn_start = words[i][1]
            i += 1
            # Header: everything up to 'begin'.  A structural word (or
            # 'end', or EOF) before 'begin' means a malformed header.
            while word_at(i) in _SKIPPED:
                i += 1
            if word_at(i) != "begin":
                return None
            header_end = words[i][1]
            i += 1
            depth = 1
            fn_end: Optional[int] = None
            while i < n and depth > 0:
                word = words[i][0]
                if word in _BLOCK_OPENERS:
                    depth += 1
                elif word == "end":
                    depth -= 1
                    if depth == 0:
                        fn_end = words[i][2]
                elif word == "begin" or word in _STRUCTURE_WORDS:
                    return None  # cannot nest inside a function body
                i += 1
            if fn_end is None:
                return None  # ran out of input before the body closed
            windows.append(FunctionWindow(fn_start, header_end, fn_end))
        if word_at(i) != "end":
            return None  # section never closed
        i += 1
        sections.append(SectionBoundaries(tuple(windows)))
    if word_at(i) != "end":
        return None  # module never closed
    i += 1
    if i != n:
        return None  # words after the module's end: a keyword or others
    # Trailing *operator* garbage (e.g. a stray ';') is invisible here;
    # it lands in the final skeleton gap and fails the skeleton parse.
    return ModuleBoundaries(tuple(sections))
