"""Watch-mode speculation: precompile what the user is editing.

A watch client streams full module sources as the user edits (the
``watch`` protocol verb).  For each update the manager parses the
source through the shared phase-1 cache, fingerprints every function,
and diffs against the previous snapshot for that watch key — the edited
function *plus any sibling whose fingerprint changed* (fingerprints
cover section context, so an interface edit dirties its dependents).
If anything changed, the whole module is submitted as one speculative
job: the artifact cache serves the unchanged functions, so the job
compiles exactly the dirty set, and its results land in the ordinary
artifact/parse/link caches — the user's eventual interactive submit
becomes cache hits.

Safety rules (speculation must never hurt a real tenant):

- speculative jobs run under the dedicated :data:`SPECULATION_TENANT`
  at ``batch`` priority — the fair-share queue dispatches them only
  when no ``interactive``/``normal`` task is pending, i.e. capacity is
  donated only when otherwise idle;
- a newer edit for the same watch key cancels the previous speculative
  job (supersession) before submitting the next one;
- hard caps: at most :data:`MAX_INFLIGHT` live speculative jobs across
  all watches, and no submission when fewer than :data:`QUEUE_HEADROOM`
  job slots remain — speculation can never push a real tenant into
  backpressure;
- at most :data:`MAX_WATCHES` watch keys keep a snapshot, so a
  long-running service's table stays bounded;
- admission rejections are swallowed (speculation is best-effort), and
  a source that does not parse is skipped without disturbing the
  previous snapshot or its in-flight job.

Correctness is structural: speculation only warms content-addressed
caches, so speculation on/off cannot change any digest.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache.fingerprint import module_fingerprints
from ..driver.function_master import phase1_cached
from ..options import CompileOptions

#: tenant all speculative jobs run under (fair-share isolates it; the
#: per-tenant inflight cap applies to it like anyone else)
SPECULATION_TENANT = "speculation"

#: live speculative jobs allowed across all watches
MAX_INFLIGHT = 2

#: watch keys that keep a snapshot (the least recently updated are
#: forgotten first; a key whose speculative job is live never is)
MAX_WATCHES = 256

#: free admission-queue depth a speculative submit leaves untouched
QUEUE_HEADROOM = 2


@dataclass
class _WatchState:
    """Per-watch-key snapshot and in-flight speculative job."""

    fingerprints: Dict[Tuple[str, str], str] = field(default_factory=dict)
    job_id: Optional[str] = None
    updates: int = 0


class SpeculationManager:
    """Turns watch updates into capped, supersedable speculative jobs.

    Lock discipline: the manager lock guards only its own state and is
    never held across a call into the service — the service may call
    :meth:`stats` while holding its own condition, so holding both in
    the other order would deadlock.
    """

    def __init__(self, service):
        self._service = service
        self.max_inflight = MAX_INFLIGHT
        self.queue_headroom = QUEUE_HEADROOM
        self._lock = threading.Lock()
        self._watches: "OrderedDict[str, _WatchState]" = OrderedDict()
        #: ``updates``, ``launched``, ``superseded``, ``suppressed``,
        #: ``rejected``, ``clean``, ``parse_errors``: bumped under the
        #: lock, read without it by :meth:`stats`
        self.counts: Counter = Counter()

    # -- the one entry point -------------------------------------------

    def update(
        self,
        source: str,
        *,
        watch: str = "default",
        filename: str = "<watch>",
        options: CompileOptions = CompileOptions(),
    ) -> dict:
        """Process one edit; returns the outcome document the protocol
        replies with.  Never raises for speculation-side failures."""
        outcome = {
            "watch": watch,
            "speculation": True,
            "job": None,
            "dirty": 0,
            "functions": [],
            "superseded": False,
            "reason": None,
        }
        with self._lock:
            self.counts["updates"] += 1
        try:
            parsed, _ = phase1_cached(source, filename)
            fingerprints = module_fingerprints(
                parsed.module, options, texts=parsed.fingerprint_texts
            )
        except Exception:
            # A broken intermediate edit state: skip, keep the previous
            # snapshot (and any job speculating on it) untouched.
            with self._lock:
                self.counts["parse_errors"] += 1
            outcome["reason"] = "parse-error"
            return outcome

        with self._lock:
            state = self._watches.pop(watch, None) or _WatchState()
            self._forget_watches()
            self._watches[watch] = state
            state.updates += 1
            dirty = sorted(
                key
                for key, fp in fingerprints.items()
                if state.fingerprints.get(key) != fp
            )
            state.fingerprints = fingerprints
            previous_job = state.job_id
        outcome["dirty"] = len(dirty)
        outcome["functions"] = [f"{s}.{f}" for s, f in dirty[:16]]
        if not dirty:
            with self._lock:
                self.counts["clean"] += 1
            outcome["reason"] = "clean"
            return outcome

        # Supersession: a newer edit invalidates the previous job.
        if previous_job is not None and self._cancel(previous_job):
            with self._lock:
                self.counts["superseded"] += 1
            outcome["superseded"] = True
        with self._lock:
            if state.job_id == previous_job:
                state.job_id = None

        # Hard caps, checked against live service state.
        reason = self._capacity_block()
        if reason is not None:
            with self._lock:
                self.counts["suppressed"] += 1
            outcome["reason"] = reason
            return outcome

        from ..service.server import AdmissionError  # lazy: avoid cycle

        try:
            job_id = self._service.submit(
                source,
                tenant=SPECULATION_TENANT,
                filename=filename,
                priority="batch",
                options=options,
            )
        except AdmissionError as error:
            with self._lock:
                self.counts["rejected"] += 1
            outcome["reason"] = f"rejected:{error.reason}"
            return outcome
        with self._lock:
            self.counts["launched"] += 1
            state.job_id = job_id
        outcome["job"] = job_id
        outcome["reason"] = "speculating"
        return outcome

    def _forget_watches(self) -> None:
        """Make room for one more key under :data:`MAX_WATCHES`: forget
        the least recently updated keys with no speculative job on
        record (caller holds the lock).  A forgotten key's next update
        diffs against an empty snapshot, so every function is dirty
        and the artifact cache serves the unchanged ones."""
        excess = len(self._watches) + 1 - MAX_WATCHES
        idle = [
            key for key, state in self._watches.items()
            if state.job_id is None
        ]
        for key in idle[:max(0, excess)]:
            del self._watches[key]

    # -- helpers (no manager lock held when calling the service) -------

    def _cancel(self, job_id: str) -> bool:
        try:
            return self._service.cancel(job_id)
        except KeyError:
            return False  # evicted → long terminal → nothing to cancel

    def _live_jobs(self) -> List[str]:
        """Speculative job ids that are not terminal (prunes state)."""
        with self._lock:
            tracked = [
                (key, state.job_id)
                for key, state in self._watches.items()
                if state.job_id is not None
            ]
        live: List[str] = []
        stale: List[str] = []
        for key, job_id in tracked:
            try:
                job = self._service.job(job_id)
                # a cancelled-but-not-yet-terminal job is already dying;
                # counting it against the cap would block its successor
                terminal = job.terminal or job.cancel_requested
            except KeyError:
                terminal = True  # evicted → long terminal
            if terminal:
                stale.append(key)
            else:
                live.append(job_id)
        if stale:
            with self._lock:
                for key in stale:
                    state = self._watches.get(key)
                    if state is not None:
                        state.job_id = None
        return live

    def _capacity_block(self) -> Optional[str]:
        if len(self._live_jobs()) >= self.max_inflight:
            return "inflight-cap"
        stats = self._service.service_stats()
        queued = stats.get("jobs", {}).get("queued", 0)
        if queued > self._service.max_queued - max(self.queue_headroom, 1):
            return "queue-headroom"
        return None

    # -- telemetry -----------------------------------------------------

    def stats(self) -> dict:
        """The counts and ``watches``.  One copy of the counter, safe
        without the manager lock (and callable while the service holds
        its own)."""
        return {**self.counts, "watches": len(self._watches)}
