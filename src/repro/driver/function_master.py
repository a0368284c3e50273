"""Function masters: the per-function worker processes.

"The number of processes on the function level ... is equal to the total
number of processes in the program.  Function masters are Common Lisp
processes.  The task of a function master is to implement phases 2 and 3
of the compiler" (§3.2).

Our function masters are Python processes (or in-process calls for the
serial backend).  Each receives a small, picklable :class:`FunctionTask`
— its function's window and its section's signature headers, never the
module — parses and checks only that window
(:func:`~repro.driver.phases.window_program`), compiles it and returns
the window's facts with its result.  A window that does not parse, check
or agree with its task is *refused* in a result, never a failure a
supervisor would retry.  In the master's own process a function master
reads the master's tree instead when the :func:`phase1_cached` entry its
task names holds it (a parse hit's stub is none) — the master's memo, a
bounded LRU keyed by ``(sha256(source text), filename)``, which no
worker process consults.  Module diagnostics live in the master's sink.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from ..asmlink.encode import encode_function, function_words
from ..asmlink.objformat import ObjectFunction
from ..facts import from_facts
from ..options import CompileOptions
from .phases import (
    ParsedProgram,
    WindowFacts,
    WindowRefused,
    attach_windows,
    compile_one_function,
    phase1_parse_and_check,
    window_program,
)
from .results import FunctionReport


@dataclass
class FunctionTask:
    """Everything a function master needs to compile one function,
    cheap to pickle; on the fabric wire a header-only entry of exactly
    these fields.  (The paper's original plan, one worker per section
    program, §3.1, lives on the simulated cluster only.)
    """

    section_name: str
    function_name: str
    #: the function's text, ``function`` through its closing ``end``
    window: str
    #: its section's function headers in source order: the signatures
    #: its calls are checked and lowered against
    headers: List[str]
    #: pre-compilation cost estimate (§4.3 lines + loop nesting, read
    #: from the window's text); drives size-aware batching.
    cost_hint: float = 1.0
    #: the compile's options, whole — what the cache fingerprint hashes
    options: CompileOptions = CompileOptions()
    #: the master's :func:`phase1_cached` entry, whose tree of this
    #: function a function master in the master's process reads
    phase1_key: Optional[Tuple[str, str]] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.section_name, self.function_name)


@dataclass
class FunctionTaskResult:
    """What a function master sends back to its section master: the
    compiled function as bytes, and the facts read without them.

    This is the one form of a compiled function, in the process that
    compiled it and everywhere else.  Outside the process it is one
    entry — :func:`result_facts` as the header, ``code`` as the body —
    on disk, in a fabric frame and in the cache server; only the pool's
    own IPC pickles it.
    """

    section_name: str
    function_name: str
    #: the function's assembled code as
    #: :func:`~repro.asmlink.encode.encode_function` wrote it — what the
    #: linker splices into its section's program
    code: bytes
    report: FunctionReport
    #: sha256 of ``code``, sealed by the function master.  Every boundary
    #: a result crosses re-hashes the bytes against it (the supervisor,
    #: the wire, the network tier, the cache entry's header) and so does
    #: the linker: damaged bytes are re-run, refused or missed, never
    #: linked.
    payload_digest: str
    #: work units of assembling this function, counted by the function
    #: master so that nobody needs the code to answer it
    assembly_work: int
    #: what the supervisor says of this function (a poison warning, an
    #: isolation traceback); the module's diagnostics are the master's
    diagnostics: List[str] = field(default_factory=list)
    #: worker that produced this result, when the backend knows (the
    #: fault-injection suite's simulated workers report it; real pools
    #: leave it None).  Drives the supervisor's health tracking.
    worker: Optional[str] = None
    #: the facts of the window its function master parsed (None: it read
    #: the master's tree, or a cache served it), for a window plan
    window: Optional[WindowFacts] = None
    #: why its window was refused ("": it was not); then it has no code
    refused: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        """The key of the task this answers."""
        return (self.section_name, self.function_name)


def result_payload_digest(result: FunctionTaskResult) -> str:
    """Digest of a result's object-code payload: the SHA-256 of its
    ``code`` — exactly what the linker consumes, not the result's
    diagnostics or telemetry, which the master legitimately rewrites
    on cache hits."""
    return hashlib.sha256(result.code).hexdigest()


def result_facts(result: FunctionTaskResult) -> Tuple[dict, bytes]:
    """A result as ``(header facts, body)``: the body is ``code``,
    verbatim; the facts are its other fields but ``worker`` (it belongs
    to the run that compiled it), the ``payload_digest`` as the entry's
    ``sha256`` — as sealed, not re-derived, so a result damaged between
    seal and write makes an entry that fails its check."""
    facts = asdict(result)
    del facts["worker"]
    facts["sha256"] = facts.pop("payload_digest")
    return facts, facts.pop("code")


def result_from_facts(facts: dict, code: bytes) -> FunctionTaskResult:
    """The way back: exact field set and every type checked, the
    report's included; whoever opened the entry hashed ``code``."""
    fields = dict(facts, code=code, worker=None)
    fields["payload_digest"] = fields.pop("sha256")
    return from_facts(FunctionTaskResult, fields)


def attach_assembly(
    obj: ObjectFunction, report: FunctionReport
) -> FunctionTaskResult:
    """Seal one compiled function into its result: assemble it as it is
    encoded (:func:`~repro.asmlink.encode.encode_function` resolves its
    block labels), count the assembly work — the words the blob says it
    holds — and hash the bytes.  The graph is not kept: the section link
    splices the bytes, in this process or any other."""
    code = encode_function(obj)
    return FunctionTaskResult(
        section_name=report.section_name,
        function_name=report.name,
        code=code,
        report=report,
        payload_digest=hashlib.sha256(code).hexdigest(),
        assembly_work=function_words(code),
    )


# ---------------------------------------------------------------------------
# The master's phase-1 memo: a module compiled again skips its phase 1,
# and a function master in the master's process reads its checked tree.
# A window plan is kept apart from a checked parse, which holds trees.
# ---------------------------------------------------------------------------


#: modules the memo holds per process (LRU eviction beyond it)
PHASE1_CACHE_CAPACITY = 8

_phase1_cache: "OrderedDict[Tuple[str, str, bool], ParsedProgram]" = OrderedDict()
#: The compile service runs many job threads in one process, all sharing
#: this cache; LRU bookkeeping (move_to_end + eviction) must not race.
_phase1_lock = threading.Lock()


def clear_phase1_cache() -> None:
    """Drop all cached parses."""
    with _phase1_lock:
        _phase1_cache.clear()


def phase1_key(source_text: str, filename: str) -> Tuple[str, str]:
    """What the memo keys a module by: its text's SHA-256 and its name."""
    return hashlib.sha256(source_text.encode("utf-8")).hexdigest(), filename


def phase1_cached(
    source_text: str, filename: str = "<input>", front=None, checked=True
) -> Tuple[ParsedProgram, bool]:
    """Phase 1 through the master's memo; returns ``(parsed, hit)``.

    ``front`` (a ``(source_text, filename) -> ParsedProgram`` callable)
    is what runs on a miss; it defaults to the sequential
    :func:`~repro.driver.phases.phase1_parse_and_check`, with the windows
    tasks carry attached.  With ``checked`` False a window plan serves
    as well as a checked parse.
    Only successful parses are cached — a module with errors raises
    :class:`~repro.lang.diagnostics.CompileError` every time.
    """
    key = phase1_key(source_text, filename)
    cached = memo_program(key, checked)
    if cached is not None:
        return cached, True
    # Parse outside the lock: concurrent job threads parsing *different*
    # modules must not serialize on each other.  Two threads racing the
    # same module both parse; last writer wins, results are identical.
    if front is None:
        parsed = phase1_parse_and_check(source_text, filename)
        parsed = attach_windows(parsed, source_text)
    else:
        parsed = front(source_text, filename)
    with _phase1_lock:
        _phase1_cache[(*key, parsed.checked)] = parsed
        while len(_phase1_cache) > PHASE1_CACHE_CAPACITY:
            _phase1_cache.popitem(last=False)
    return parsed, False


def memo_program(key, checked: bool = True) -> Optional[ParsedProgram]:
    """The memo's checked parse under ``key`` — with ``checked`` False a
    window plan too — or None; under a task's ``phase1_key``, the
    master's program when the caller runs in the master's process."""
    if key is None:
        return None
    with _phase1_lock:
        for kind in (True,) if checked else (True, False):
            cached = _phase1_cache.get((*key, kind))
            if cached is not None:
                _phase1_cache.move_to_end((*key, kind))
                return cached
    return None


def run_function_master(task: FunctionTask) -> FunctionTaskResult:
    """Entry point of one function master (picklable module-level fn):
    the master's tree of this function if this process holds it, else
    the task's window parsed and checked — a window that does not is
    refused."""
    parsed, facts = memo_program(task.phase1_key), None
    if parsed is None or parsed.function(*task.key).body is None:
        try:
            parsed, facts = window_program(*task.key, task.window, task.headers)
        except WindowRefused as refusal:
            return refused_result(task, str(refusal))
    result = attach_assembly(
        *compile_one_function(parsed, *task.key, task.options)
    )
    result.window = facts
    return result


def refused_result(task: FunctionTask, reason: str) -> FunctionTaskResult:
    """The answer to a task whose window was refused: no code, and why."""
    report = FunctionReport(*task.key, 0, 0, 0, 0, 0, 0)
    digest = hashlib.sha256(b"").hexdigest()
    return FunctionTaskResult(*task.key, b"", report, digest, 0, refused=reason)


def run_compile_task(task: FunctionTask) -> List[FunctionTaskResult]:
    """Worker entry point: :func:`run_function_master`, its one result
    in a list.  (``benchmarks/e2e/tracing.py`` binds this name and sizes
    what it returns, once per task; every backend enters a task through
    it.  The list goes with the next benchmark change.)"""
    return [run_function_master(task)]


def run_compile_batch(tasks: List[FunctionTask]) -> List[FunctionTaskResult]:
    """Run a whole batch of tasks in one worker round-trip.

    Backends submit size-aware batches through this entry point so tiny
    functions (the paper's f_tiny pathology) share one IPC round-trip.
    """
    results: List[FunctionTaskResult] = []
    for task in tasks:
        results.extend(run_compile_task(task))
    return results
