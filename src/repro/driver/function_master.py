"""Function masters: the per-function worker processes.

"The number of processes on the function level ... is equal to the total
number of processes in the program.  Function masters are Common Lisp
processes.  The task of a function master is to implement phases 2 and 3
of the compiler" (§3.2).

Our function masters are Python processes (or in-process calls for the
serial backend).  Each worker receives a small, picklable
:class:`FunctionTask` and compiles its one function to
object code.  Phase-1 state is re-derived from the source text — the
moral equivalent of a fresh Lisp process interpreting its initializing
information — but memoized per worker process: a warm worker that
receives its second task for the same module skips parsing and semantic
checking entirely (see :func:`phase1_cached`).  The cache is a bounded
LRU keyed by ``(sha256(source text), filename)``, so two different
modules that happen to share a filename can never collide.
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
    compile_one_function,
    phase1_parse_and_check,
)
from .results import FunctionReport


@dataclass
class FunctionTask:
    """Everything a function master needs to compile one function,
    cheap to pickle; on the fabric wire a header-only entry of exactly
    these fields.  (The paper's original plan, one worker per section
    program, §3.1, lives on the simulated cluster only.)
    """

    source_text: str
    filename: str
    section_name: str
    function_name: str
    #: pre-compilation cost estimate (§4.3 lines + loop nesting), filled
    #: in by the master from the parse; drives size-aware batching.
    cost_hint: float = 1.0
    #: the compile's options, whole — what the cache fingerprint hashes
    options: CompileOptions = CompileOptions()

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
    diagnostics: List[str] = field(default_factory=list)
    #: worker that produced this result, when the backend knows (the
    #: fault-injection suite's simulated workers report it; real pools
    #: leave it None).  Drives the supervisor's health tracking.
    worker: Optional[str] = None
    #: whether the function master found its module in the per-process
    #: phase-1 memo (None: nobody ran one here — a cached or remote
    #: result).  Like ``worker``, it belongs to the run, not the result.
    phase1_memo_hit: Optional[bool] = None

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
    verbatim; the facts are its other fields but ``worker`` and
    ``phase1_memo_hit`` (they belong to the run that compiled it), the
    ``payload_digest`` as the entry's ``sha256`` — as sealed, not
    re-derived, so a result damaged between seal and write makes an
    entry that fails its check."""
    facts = asdict(result)
    del facts["worker"], facts["phase1_memo_hit"]
    facts["sha256"] = facts.pop("payload_digest")
    return facts, facts.pop("code")


def result_from_facts(facts: dict, code: bytes) -> FunctionTaskResult:
    """The way back: exact field set and every type checked, the
    report's included; whoever opened the entry hashed ``code``."""
    fields = dict(facts, code=code, worker=None, phase1_memo_hit=None)
    fields["payload_digest"] = fields.pop("sha256")
    return from_facts(FunctionTaskResult, fields)


def attach_assembly(
    obj: ObjectFunction, report: FunctionReport, diagnostics: List[str]
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
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Per-worker phase-1 cache.
#
# Module-level so it lives exactly as long as the worker process: a cold
# worker misses once per module, then every further task for the same
# module is parse-free.  With a fork start method (Linux default) workers
# even inherit the master's parse, so their first task hits too.
# ---------------------------------------------------------------------------


#: modules the memo holds per process (LRU eviction beyond it)
PHASE1_CACHE_CAPACITY = 8

_phase1_cache: "OrderedDict[Tuple[str, str], ParsedProgram]" = OrderedDict()
#: The compile service runs many job threads in one process, all sharing
#: this cache; LRU bookkeeping (move_to_end + eviction) must not race.
_phase1_lock = threading.Lock()


def clear_phase1_cache() -> None:
    """Drop all cached parses."""
    with _phase1_lock:
        _phase1_cache.clear()


def phase1_cached(
    source_text: str, filename: str = "<input>", front=None
) -> Tuple[ParsedProgram, bool]:
    """Phase 1 through the per-worker memo; returns ``(parsed, hit)``.

    ``front`` (a ``(source_text, filename) -> ParsedProgram`` callable)
    is what runs on a miss; it defaults to the sequential
    :func:`phase1_parse_and_check` — what a worker that misses its memo
    runs.  Only successful parses are cached — a module with errors raises
    :class:`~repro.lang.diagnostics.CompileError` every time.
    """
    key = (
        hashlib.sha256(source_text.encode("utf-8")).hexdigest(),
        filename,
    )
    with _phase1_lock:
        cached = _phase1_cache.get(key)
        if cached is not None:
            _phase1_cache.move_to_end(key)
            return cached, True
    # Parse outside the lock: concurrent job threads parsing *different*
    # modules must not serialize on each other.  Two threads racing the
    # same module both parse; last writer wins, results are identical.
    builder = front if front is not None else phase1_parse_and_check
    parsed = builder(source_text, filename)
    with _phase1_lock:
        _phase1_cache[key] = parsed
        while len(_phase1_cache) > PHASE1_CACHE_CAPACITY:
            _phase1_cache.popitem(last=False)
    return parsed, False


def run_function_master(task: FunctionTask) -> FunctionTaskResult:
    """Entry point of one function master (picklable module-level fn)."""
    parsed, hit = phase1_cached(task.source_text, task.filename)
    obj, report = compile_one_function(
        parsed, task.section_name, task.function_name, task.options
    )
    result = attach_assembly(
        obj, report, [d.render() for d in parsed.sink.diagnostics]
    )
    result.phase1_memo_hit = hit
    return result


def run_compile_task(task: FunctionTask) -> List[FunctionTaskResult]:
    """Worker entry point: :func:`run_function_master`, its one result
    in a list.  (``benchmarks/e2e/tracing.py`` binds this name and sizes
    what it returns, once per task; every backend enters a task through
    it.  The list goes with the next benchmark change.)"""
    return [run_function_master(task)]


def run_compile_batch(tasks: List[FunctionTask]) -> List[FunctionTaskResult]:
    """Run a whole batch of tasks in one worker round-trip.

    Backends submit size-aware batches through this entry point so tiny
    functions (the paper's f_tiny pathology) share one IPC round-trip —
    and, thanks to the phase-1 cache above, one parse.
    """
    results: List[FunctionTaskResult] = []
    for task in tasks:
        results.extend(run_compile_task(task))
    return results
