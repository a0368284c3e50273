"""Pausing the cyclic collector while a burst of long-lived objects is built.

Decoding a program from its bytes allocates tens of thousands of small
containers, none of them garbage, yet every allocation threshold crossed
starts a collection over them (and now and then over the whole heap:
25 ms where a compile has just run).  :func:`collector_paused` switches
the collector off for the load and puts it back the way the outermost
pause found it.  The switch is process-wide, so the bookkeeping is too:
pauses nest and overlap across threads, and the collector comes back on
when the last one ends.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_pauses = 0
_resume = False


@contextmanager
def collector_paused() -> Iterator[None]:
    global _pauses, _resume
    with _lock:
        if _pauses == 0:
            _resume = gc.isenabled()
            gc.disable()
        _pauses += 1
    try:
        yield
    finally:
        with _lock:
            _pauses -= 1
            if _pauses == 0 and _resume:
                gc.enable()
