"""The one fault plan: every seeded fault any chaos layer injects.

Three places inject faults, and each only asks :meth:`FaultSchedule.fires`:

- :class:`~repro.parallel.fault_tolerance.ChaosBackend`, a simulated
  farm (``crash``, ``hang``, ``corrupt``);
- :class:`~repro.fabric.chaos.ChaosTransport`, a worker node's
  connection (``kill``, ``truncate``, ``delay``, ``duplicate``,
  ``heartbeat-drop``);
- the cache server's response hook (``cache-fail``, ``cache-corrupt``).

A decision is a pure function of ``(seed, kind, key, attempt)`` hashed
through sha256, so a seed produces the same faults however threads,
retries or hedges interleave, and a failing seed from CI replays
locally, exactly.  Per-``(kind, key)`` budgets bound how often a fault
may hit one key, so the retry after an injected fault can succeed.  One
lock covers every decision and counter: a supervisor's wave, retry and
hedge threads may share one plan.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Dict, Mapping, Optional, Tuple


class FaultSchedule:
    """Seeded draws, the rate and budget of each fault kind, and what
    fired.

    ``rates`` maps a kind to its probability per attempt; a kind it does
    not name never fires.  ``budgets`` overrides :attr:`BUDGETS` (a kind
    absent from both is unbounded).  ``delay`` is the seconds a ``hang``
    or ``delay`` fault sleeps.  ``fired`` counts the faults injected, by
    kind.
    """

    #: every fault kind a chaos layer injects
    KINDS = (
        "crash", "hang", "corrupt",
        "kill", "truncate", "delay", "duplicate", "heartbeat-drop",
        "cache-fail", "cache-corrupt",
    )
    #: faults per (kind, key) before that key is spared
    BUDGETS: Mapping[str, int] = {
        "hang": 1, "corrupt": 1, "kill": 1, "truncate": 1,
        "cache-corrupt": 1,
    }

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[str, float]] = None,
        budgets: Optional[Mapping[str, Optional[int]]] = None,
        delay: float = 0.25,
    ):
        self.seed = seed
        self.rates: Dict[str, float] = dict(rates or {})
        for kind, rate in self.rates.items():
            self._check_kind(kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
        self.budgets: Dict[str, Optional[int]] = {
            **self.BUDGETS, **(budgets or {})
        }
        for kind in self.budgets:
            self._check_kind(kind)
        self.delay = delay
        self.fired: Counter = Counter()
        self._counts: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def _check_kind(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; choose from {list(self.KINDS)}"
            )

    def roll(self, kind: str, key: str, attempt: int) -> float:
        """Deterministic uniform [0, 1) draw for one decision."""
        material = f"{self.seed}:{kind}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def take(self, kind: str, key: str) -> int:
        """Post-increment the ``(kind, key)`` counter: numbers a key's
        attempts (kinds outside :attr:`KINDS`, like ``attempt``)."""
        with self._lock:
            taken = self._counts.get((kind, key), 0)
            self._counts[(kind, key)] = taken + 1
            return taken

    def record(self, kind: str) -> None:
        """Count a fault a layer injects unconditionally (a poison task,
        a dead worker) beside the seeded ones."""
        with self._lock:
            self.fired[kind] += 1

    def fires(self, kind: str, key: str, attempt: Optional[int]) -> bool:
        """Does fault ``kind`` hit this attempt of ``key``?  Yes when its
        draw lands under the kind's rate and the key has budget left; a
        yes spends one and counts it.  ``attempt`` None numbers the
        attempt by the faults of this kind already served to the key."""
        self._check_kind(kind)
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        budget = self.budgets.get(kind)
        with self._lock:
            spent = self._counts.get((kind, key), 0)
            draw = self.roll(kind, key, spent if attempt is None else attempt)
            if draw >= rate or (budget is not None and spent >= budget):
                return False
            self._counts[(kind, key)] = spent + 1
            self.fired[kind] += 1
            return True
