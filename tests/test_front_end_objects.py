"""A clean compile builds no position objects.

Tokens and AST nodes carry integer offsets; a :class:`Position` and a
:class:`Span` exist only for a diagnostic.  This guard counts every one
built — by wrapping the classes' constructors — while a workload module
and the user program compile through both compilers, and while a module
with one error is reported.
"""

from collections import Counter

import pytest

from repro.cache import ParseCache
from repro.driver.function_master import clear_phase1_cache
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fuzz import config_for_size_class, generate_program
from repro.lang.diagnostics import CompileError
from repro.lang.source import Position, Span
from repro.parallel.local import SerialBackend
from repro.workloads.user_program import user_program

#: cold_branchy's ``fz1`` and the paper's user program
PROGRAMS = {
    "fz1": generate_program(1, config_for_size_class("large")).source,
    "user_program": user_program(),
}


@pytest.fixture
def built(monkeypatch):
    """How many of each position class were constructed."""
    counts = Counter()
    for cls in (Position, Span):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def _compilers(tmp_path):
    yield SequentialCompiler()
    yield ParallelCompiler(backend=SerialBackend())
    yield ParallelCompiler(
        backend=SerialBackend(), parse_cache=ParseCache(tmp_path)
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_clean_compile_builds_no_position(name, built, tmp_path):
    digests = set()
    for compiler in _compilers(tmp_path):
        clear_phase1_cache()
        result = compiler.compile(PROGRAMS[name], f"{name}.w2")
        assert result.diagnostics_text == ""
        digests.add(result.digest)
    assert len(digests) == 1
    assert built == {}


def test_one_error_builds_the_positions_of_its_diagnostic_only(built):
    source = PROGRAMS["user_program"].replace("t := x;", "t := x9;", 1)
    for compiler in (SequentialCompiler(), ParallelCompiler(backend=SerialBackend())):
        clear_phase1_cache()
        built.clear()
        with pytest.raises(CompileError) as error:
            compiler.compile(source, "u.w2")
        assert [d.render() for d in error.value.diagnostics] == [
            "u.w2:11:10: error: undeclared variable 'x9'"
        ]
        assert built == {"Span": 1, "Position": 2}
