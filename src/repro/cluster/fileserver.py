"""The shared NFS file server of the diskless-workstation network.

All forty workstations "share the same file system" (§3.3): every Lisp
core image, source file, and result object moves through this one box.
It is a processor-sharing resource — concurrent requests split its
throughput — which is why starting many function masters at once gets
increasingly expensive ("multiple processes swap off the same file
server", §4.2.3).
"""

from __future__ import annotations

from typing import Callable

from .events import Simulator
from .network import SharedResource


class FileServer:
    """Thin veneer over a processor-sharing resource, in words/sec."""

    def __init__(self, sim: Simulator, rate: float):
        self.resource = SharedResource(sim, "file-server", rate)

    def request(self, words: float, done: Callable[[], None]) -> None:
        self.resource.submit(words, done)

    @property
    def busy_time(self) -> float:
        return self.resource.busy_time
