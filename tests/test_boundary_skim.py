"""The keyword skim against the all-words scanner it replaced.

:func:`repro.lang.boundary.scan_boundaries` hands only the structural
keywords to Python.  ``reference_scan`` below is the scanner it
replaced, which walked every word of the module; on every input the two
must return the same windows, or both refuse.  The inputs are the
corpus, generator programs of each size class, and mutations of them
that aim at the skim's edges: keywords inserted or deleted, ``--``
comments, numbers glued to keywords, words after the module's end.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz import config_for_size_class, generate_program
from repro.lang.boundary import scan_boundaries
from repro.lang.lexer import COMMENT, FLOAT, WORD
from repro.workloads.sizes import SIZE_ORDER
from repro.workloads.synthetic import synthetic_program

from test_lexer_pins import INPUTS

_SKIM_ALL = re.compile(rf"(?:[^\w-]+|{FLOAT}|\d+|{COMMENT}|-)*({WORD})?")


def reference_scan(text):
    """The all-words scanner: ``(start, header_end, end)`` windows per
    section, or None."""
    words = [
        (match[1], *match.span(1))
        for match in _SKIM_ALL.finditer(text)
        if match.lastindex
    ]
    n = len(words)

    def word_at(j):
        return words[j][0] if j < n else None

    if word_at(0) != "module":
        return None
    i = 2
    sections = []
    while word_at(i) == "section":
        i += 1
        while i < n and word_at(i) not in (
            "function", "end", "section", "module", "begin",
        ):
            i += 1
        windows = []
        while word_at(i) == "function":
            fn_start = words[i][1]
            i += 1
            while i < n and word_at(i) not in (
                "begin", "end", "function", "section", "module",
            ):
                i += 1
            if word_at(i) != "begin":
                return None
            header_end = words[i][1]
            i += 1
            depth = 1
            fn_end = None
            while i < n and depth > 0:
                word = words[i][0]
                if word in ("if", "for", "while"):
                    depth += 1
                elif word == "end":
                    depth -= 1
                    if depth == 0:
                        fn_end = words[i][2]
                elif word in ("begin", "module", "section", "function"):
                    return None
                i += 1
            if fn_end is None:
                return None
            windows.append((fn_start, header_end, fn_end))
        if word_at(i) != "end":
            return None
        i += 1
        sections.append(windows)
    if word_at(i) != "end":
        return None
    i += 1
    if i != n:
        return None
    return sections


def skim(text):
    boundaries = scan_boundaries(text)
    if boundaries is None:
        return None
    return [
        [(w.start, w.header_end, w.end) for w in section.function_windows]
        for section in boundaries.sections
    ]


def assert_same(text):
    assert skim(text) == reference_scan(text), text[:200]


def test_every_corpus_module():
    for name, text in INPUTS.items():
        assert reference_scan(text) is not None, name
        assert_same(text)


def test_generator_programs_of_each_size_class():
    for size_class in ("tiny", "small", "medium", "large"):
        config = config_for_size_class(size_class)
        for seed in range(10):
            assert_same(generate_program(seed, config).source)
    for size_class in SIZE_ORDER:
        assert_same(synthetic_program(size_class, 3))


def test_hand_picked_edges():
    base = "module m section s (cells 0..1) function f() begin end end end"
    for text in (
        "",
        "module",
        "module m",
        "m module",
        "module end section s (cells 0..0) function f() begin end end end",
        "module m x section s (cells 0..0) function f() begin end end end",
        base.replace("begin end", "begin end x", 1),
        base.replace("begin end", "begin end 1e5end", 1),
        base.replace("begin end", "begin endx end", 1),
        base.replace("begin", "begin -- end\n", 1),
        base + " x y",
        base + " end",
        base + " 1e5",
        base + " -- trailing comment",
    ):
        assert_same(text)


SEEDS = [generate_program(seed, config_for_size_class("small")).source
         for seed in range(4)]
PIECES = [
    "module", "section", "function", "begin", "end", "if", "for", "while",
    "x", "endx", "xend", "1e5end", "1.5e", "--end\n", "-- section\n", ";",
    "-", "..", "½",
]


@st.composite
def mutants(draw):
    text = draw(st.sampled_from(SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("insert", "delete", "trail")))
        if kind == "insert":
            at = draw(st.integers(0, len(text)))
            glue = draw(st.sampled_from(("", " ", "\n")))
            text = text[:at] + glue + draw(st.sampled_from(PIECES)) + glue + text[at:]
        elif kind == "delete":
            keywords = [m.span() for m in re.finditer(
                r"\b(?:module|section|function|begin|end|if|for|while)\b", text
            )]
            if keywords:
                start, end = draw(st.sampled_from(keywords))
                text = text[:start] + text[end:]
        else:
            text += " " + draw(st.sampled_from(PIECES))
    return text


@settings(max_examples=300, deadline=None)
@given(mutants())
def test_mutations_give_the_same_windows_or_the_same_refusal(text):
    assert_same(text)
