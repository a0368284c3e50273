"""Discrete-event simulation kernel.

A tiny, deterministic event queue: callbacks fire in (time, sequence)
order, so two events at the same instant run in scheduling order.  All of
the cluster model (CPUs, Ethernet, file server) is built from this kernel
plus the processor-sharing resource in :mod:`repro.cluster.network`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class Simulator:
    """Deterministic event loop with virtual time."""

    def __init__(self):
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self._running = False

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._sequence), callback)
        )

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue (or stop at ``until``); returns the final time."""
        self._running = True
        while self._queue:
            time, _seq, callback = heapq.heappop(self._queue)
            if until is not None and time > until:
                heapq.heappush(self._queue, (time, _seq, callback))
                break
            self.now = time
            callback()
        self._running = False
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._queue)
