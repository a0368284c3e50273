"""Window tasks: a function master parses only its own function.

A task carries its function's window and its section's signature
headers, never the module.  With no cache tier the master parses no
window itself (a *window plan*): its function masters do, and it
finishes phase 1 from their facts.  Whatever a window does wrong, the
compile's error report is the sequential front end's, byte for byte,
and no farm retries or quarantines anything for it; in the master's own
process a function master reads the master's checked tree, so no window
is parsed twice there.
"""

import pickle
from collections import Counter

import pytest

from repro.cache import ArtifactCache, LinkCache, ParseCache
from repro.driver import phases
from repro.driver.function_master import (
    clear_phase1_cache,
    run_compile_task,
)
from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.lang import parser as parser_module
from repro.lang.diagnostics import CompileError
from repro.parallel.local import SerialBackend
from repro.parallel.supervisor import SupervisedBackend
from repro.parallel.warm_pool import WarmPoolBackend
from repro.workloads.synthetic import synthetic_program

from helpers import function_task, function_tasks

MODULE = """
module m
section s (cells 0..0)
  function f(x: float) : float
  begin
    return g(x) + 1.0;
  end
  function g(x: float) : float
  var i: int;
  begin
    BODY
    return x * 2.0;
  end
end
end
"""

ERRORS = {
    "type_error_in_a_body": MODULE.replace("BODY", "i := 0.5;"),
    "undefined_callee": MODULE.replace("BODY", "x := nothere(x);"),
    "call_cycle": MODULE.replace("BODY", "x := f(x);"),
    "duplicate_names": MODULE.replace("BODY", "").replace(
        "function g(", "function f("
    ),
}


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_phase1_cache()
    yield
    clear_phase1_cache()


@pytest.fixture(scope="module")
def pool():
    with WarmPoolBackend(2) as backend:
        yield backend


def _error_text(compile_):
    with pytest.raises(CompileError) as error:
        compile_()
    return "\n".join(d.render() for d in error.value.diagnostics)


@pytest.mark.parametrize("kind", sorted(ERRORS))
@pytest.mark.parametrize("farm", ["serial", "warm_pool"])
def test_a_bad_window_reports_the_sequential_error(kind, farm, pool):
    source = ERRORS[kind]
    want = _error_text(lambda: SequentialCompiler().compile(source, "m.w2"))
    backend = SupervisedBackend(SerialBackend() if farm == "serial" else pool)
    compiler = ParallelCompiler(backend=backend)
    assert _error_text(lambda: compiler.compile(source, "m.w2")) == want
    assert backend.counts["retries"] == 0
    assert backend.counts["quarantines"] == 0
    assert backend.counts["poisoned_tasks"] == 0


def test_a_refusal_survives_a_farm_that_corrupts_every_payload():
    """The chaos farm's corrupt fault flips a byte of each result's code;
    a refused window has none, and still reports the sequential error."""
    from repro.parallel import ChaosBackend, FaultSchedule

    source = ERRORS["type_error_in_a_body"]
    want = _error_text(lambda: SequentialCompiler().compile(source))
    chaos = ChaosBackend(SerialBackend(), FaultSchedule(5, {"corrupt": 1.0}))
    backend = SupervisedBackend(chaos, hedge_after=None)
    assert _error_text(lambda: ParallelCompiler(backend).compile(source)) == want


def test_a_window_plan_finishes_phase_one_from_the_facts():
    source = synthetic_program("small", 4)
    want = SequentialCompiler().compile(source)
    compiler = ParallelCompiler()
    got = compiler.compile(source)
    assert got.digest == want.digest
    assert got.profile.phase1_mode == "windows"
    assert (got.profile.parse_work, got.profile.sema_work) == (
        want.profile.parse_work, want.profile.sema_work,
    )
    assert got.profile.counts == {}
    # a late cycle is the sequential front end's report, and counted
    with pytest.raises(CompileError):
        compiler.compile(ERRORS["call_cycle"])
    assert compiler.last_phase1_stats.mode == "fallback"


def test_a_task_is_its_window_not_the_module():
    source = synthetic_program("medium", 4)
    tasks = function_tasks(source)
    for task in tasks.values():
        assert task.window in source and task.window.startswith("function")
        assert all(header in source for header in task.headers)
        assert len(pickle.dumps(task)) < len(source) / 2


def test_a_function_master_without_the_memo_reads_only_its_window(
    monkeypatch,
):
    """A memo with no entry for the module: the function master lexes
    its window and its section's headers, nothing else, and never parses
    a module."""
    source = synthetic_program("small", 3)
    task = function_task(source, "sec1", "f2")
    lexed, modules = [], []
    tokenize = phases.tokenize
    monkeypatch.setattr(
        phases, "tokenize",
        lambda source, sink, start=0, end=None: lexed.append(
            source.text[start:end]
        ) or tokenize(source, sink, start, end),
    )
    parse_module = parser_module.Parser.parse_module
    monkeypatch.setattr(
        parser_module.Parser, "parse_module",
        lambda self: modules.append(self) or parse_module(self),
    )
    (result,) = run_compile_task(task)
    assert not result.refused
    assert sorted(lexed) == sorted([*task.headers, task.window])
    assert modules == []


def test_a_one_edit_compile_parses_the_edited_window_once(
    tmp_path, monkeypatch
):
    """All three tiers, in process: the master parses the edited window
    for its fingerprint text and its function master reads that tree."""
    source = synthetic_program("small", 8)
    edited = source.replace(
        "acc := 0.0;", "acc := 0.0;\n    acc := acc + 1.0;", 1
    )

    def compile_(text):
        clear_phase1_cache()
        return ParallelCompiler(
            backend=SerialBackend(),
            cache=ArtifactCache(tmp_path),
            parse_cache=ParseCache(tmp_path),
            link_cache=LinkCache(tmp_path),
        ).compile(text)

    compile_(source)
    parsed = Counter()
    parse_function = parser_module.Parser.parse_function
    monkeypatch.setattr(
        parser_module.Parser, "parse_function",
        lambda self: parsed.update(["window"]) or parse_function(self),
    )
    result = compile_(edited)
    monkeypatch.undo()
    assert result.profile.counts["artifact_cache.misses"] == 1
    assert parsed == {"window": 1}
    assert result.digest == SequentialCompiler().compile(edited).digest
