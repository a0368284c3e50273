"""The one seeded fault schedule behind every chaos layer.

Every injected fault — :class:`~repro.parallel.fault_tolerance.ChaosBackend`'s
crashes, hangs and corruptions, the fabric transport's kills and
truncations, the cache tier's scribbles — is decided here, by a pure
function of ``(seed, kind, key, attempt)`` hashed through sha256.  A
given seed therefore produces the same faults no matter how threads,
retries or hedges interleave, and a failing seed from CI replays
locally, exactly.  Per-``(kind, key)`` counters bound how often a fault
may hit one key, so the retry after an injected fault can succeed.

Not thread-safe on its own: a plan shared between threads takes its own
lock around a decision (and the telemetry it updates with it).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, Optional, Tuple


class FaultSchedule:
    """Seeded draws plus the per-key counters that budget them."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._counts: Dict[Tuple[str, str], int] = defaultdict(int)

    def roll(self, kind: str, key: str, attempt: int) -> float:
        """Deterministic uniform [0, 1) draw for one fault decision."""
        material = f"{self.seed}:{kind}:{key}:{attempt}".encode("utf-8")
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def count(self, kind: str, key: str) -> int:
        """How often ``kind`` has been taken for ``key`` so far."""
        return self._counts[(kind, key)]

    def take(self, kind: str, key: str) -> int:
        """Post-increment the ``(kind, key)`` counter: numbers a key's
        attempts, or spends one unit of a fault's budget."""
        taken = self._counts[(kind, key)]
        self._counts[(kind, key)] = taken + 1
        return taken

    def fires(
        self,
        kind: str,
        key: str,
        attempt: int,
        rate: float,
        budget: Optional[int] = None,
    ) -> bool:
        """Does fault ``kind`` hit this attempt of ``key``?  Yes when
        its draw lands under ``rate`` and fewer than ``budget`` (None:
        unbounded) have hit the key already; a yes spends one."""
        if self.roll(kind, key, attempt) >= rate:
            return False
        if budget is not None and self.count(kind, key) >= budget:
            return False
        self.take(kind, key)
        return True
