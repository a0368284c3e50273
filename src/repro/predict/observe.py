"""Learned compile-cost model over a persistent observation store.

The paper's scheduler costs tasks with a static "lines + nesting"
estimate (§4.3, :func:`~repro.parallel.schedule.window_cost_hint`).  After
enough compiles the system has ground truth the estimate never sees:
the wall-clock each function actually took.  This module closes the
loop:

- :class:`ObservationStore` persists one :class:`CostObservation` per
  content fingerprint (an EWMA, its sample count, the static hint it
  was observed under).  Same Store machinery as
  the artifact/parse/link/variant tiers: atomic writes, LRU eviction,
  corrupt entries deleted and counted.
- :class:`LearnedCostModel` estimates a
  :class:`~repro.driver.function_master.FunctionTask`'s cost **in
  static-hint units** so learned and unseen tasks stay comparable
  inside one fair-share queue.  Unit conversion uses a calibration
  record — an EWMA of observed ``static hint / seconds`` — so ``cost =
  predicted_seconds * hints_per_second``.  The compile service asks it
  once per task and writes the answer into the task's ``cost_hint``,
  which the queue, the LPT packer and the supervisor's deadlines read.

Fallback rules keep the model harmless: unseen fingerprint, too few
samples, missing calibration, a module this process holds no parse
of, any internal error —
all fall back to the task's static ``cost_hint``.  Learned costs
reorder dispatch; they can never alter a compile result (results are
routed by (section, function) key, not by cost).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..cache.fingerprint import function_fingerprint
from ..cache.store import FactsCodec, Store
from ..driver.function_master import FunctionTask, memo_program
from ..parallel.schedule import window_cost_hint

#: fingerprint of the synthetic calibration record (hint-units-per-second
#: EWMA; ordinary fingerprints are hex digests so this can't collide)
CALIBRATION_KEY = "calibration"


@dataclass
class CostObservation:
    """Accumulated timing evidence for one function fingerprint."""

    fingerprint: str
    count: int = 0
    ewma_s: float = 0.0
    #: static §4.3 hint recorded with the last observation — the
    #: calibration pair tying seconds back to hint units
    hint: float = 1.0


class ObservationStore(Store):
    """Persistent per-fingerprint compile-time observations (``observe/``)."""

    SUBDIR = "observe"
    #: 4: hints read from the window's text (3 kept no sample window,
    #: 2 kept one; 1 was a pickle)
    SCHEMA = 4
    codec = FactsCodec(CostObservation)


def task_fingerprint(task: FunctionTask) -> Optional[str]:
    """The content fingerprint a task's artifact is cached under, read
    off the master's phase-1 memo entry the task names.

    Observations must key on *content*, not names, so a renamed file or
    a different module with the same function bodies shares history.  A
    task whose module this process holds no parse of returns None —
    callers fall back to the static hint.
    """
    try:
        parsed = memo_program(task.phase1_key, checked=False)
        if parsed is None:
            return None
        function = parsed.function(task.section_name, task.function_name)
        section = parsed.module.section_named(task.section_name)
        return function_fingerprint(section, function, task.options)
    except Exception:
        return None


class LearnedCostModel:
    """EWMA cost estimator over an :class:`ObservationStore`.

    :meth:`cost_for` returns a task's estimated cost in static-hint
    units.  All state is guarded by one lock; the store's atomic writes
    make concurrent processes last-writer-wins, which is fine for
    advisory data.  The class constants are values no caller varies; a
    test that needs another sets it on the instance.
    """

    #: EWMA weight of the newest sample
    alpha: float = 0.25
    #: observations a fingerprint (and the calibration) needs before its
    #: estimate is trusted
    min_samples: int = 2
    #: observations the in-memory memo holds, least recently used
    #: evicted first; the store stays the record
    memo_entries: int = 4096

    def __init__(self, store: ObservationStore):
        self.store = store
        self._lock = threading.Lock()
        #: write-through LRU memo so the hot estimate path stays off disk
        self._memo: "OrderedDict[str, CostObservation]" = OrderedDict()
        #: ``recorded`` observations, ``learned`` estimates served,
        #: static-hint ``fallbacks``
        self.counts: Counter = Counter()

    # -- recording -----------------------------------------------------

    def observe_task(self, task: FunctionTask, seconds: float) -> None:
        """Record one task's measured wall clock (no-op when the task
        has no content fingerprint).  The calibration pairs it with the
        window's static §4.3 hint, never ``task.cost_hint``: that may
        be this model's own estimate, which must not feed its own
        calibration."""
        fingerprint = task_fingerprint(task)
        if fingerprint is not None:
            self.observe(
                fingerprint, seconds, hint=window_cost_hint(task.window)
            )

    def observe(
        self, fingerprint: str, seconds: float, hint: float = 1.0
    ) -> CostObservation:
        """Fold one sample into the fingerprint's observation and the
        global calibration record; persists both."""
        seconds = max(float(seconds), 1e-6)
        with self._lock:
            obs = self._update(
                fingerprint, seconds, hint=max(float(hint), 1.0)
            )
            # Calibration: EWMA of hint/seconds, keyed like any entry.
            self._update(CALIBRATION_KEY, max(hint, 1.0) / seconds, hint=1.0)
            self.counts["recorded"] += 1
            return obs

    def _update(
        self, fingerprint: str, value: float, hint: float
    ) -> CostObservation:
        """EWMA update for one entry (caller holds the lock)."""
        obs = self._load(fingerprint)
        if obs is None:
            obs = CostObservation(fingerprint=fingerprint)
        if obs.count == 0:
            obs.ewma_s = value
        else:
            obs.ewma_s += self.alpha * (value - obs.ewma_s)
        obs.count += 1
        obs.hint = hint
        self._remember(fingerprint, obs)
        try:
            self.store.put(fingerprint, obs)
        except OSError:
            pass  # advisory data: a full/broken disk must not fail a compile
        return obs

    def _load(self, fingerprint: str) -> Optional[CostObservation]:
        obs = self._memo.get(fingerprint)
        if obs is None:
            obs = self.store.get(fingerprint)
            if obs is not None:
                self._remember(fingerprint, obs)
        else:
            self._memo.move_to_end(fingerprint)
        return obs

    def _remember(self, fingerprint: str, obs: CostObservation) -> None:
        self._memo[fingerprint] = obs
        self._memo.move_to_end(fingerprint)
        if len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    # -- estimation ----------------------------------------------------

    def estimate_seconds(self, fingerprint: str) -> Optional[float]:
        """Predicted wall clock for a fingerprint, or None (unseen or
        fewer than ``min_samples`` observations)."""
        with self._lock:
            obs = self._load(fingerprint)
            if obs is None or obs.count < self.min_samples:
                return None
            return obs.ewma_s

    def _hints_per_second(self) -> Optional[float]:
        calibration = self._load(CALIBRATION_KEY)
        if calibration is None or calibration.count < self.min_samples:
            return None
        if calibration.ewma_s <= 0:
            return None
        return calibration.ewma_s

    def cost_for(self, task: FunctionTask) -> float:
        """Estimated cost in static-hint units.

        Never raises; anything short of solid evidence returns the
        task's ``cost_hint`` unchanged.
        """
        try:
            fingerprint = task_fingerprint(task)
            if fingerprint is not None:
                with self._lock:
                    obs = self._load(fingerprint)
                    ratio = self._hints_per_second()
                    if (
                        obs is not None
                        and obs.count >= self.min_samples
                        and ratio is not None
                    ):
                        self.counts["learned"] += 1
                        return max(obs.ewma_s * ratio, 1e-6)
        except Exception:
            pass
        self.counts["fallbacks"] += 1
        return float(task.cost_hint)

    # -- telemetry -----------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            calibration = self._load(CALIBRATION_KEY)
            return {
                **self.counts,
                "fingerprints": len(self._memo),
                "hints_per_second": (
                    round(calibration.ewma_s, 6)
                    if calibration is not None and calibration.count
                    else None
                ),
            }
