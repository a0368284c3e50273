"""Distributed compile fabric: remote worker nodes over JSON lines.

The paper's host was "an Ethernet network of diskless SUN workstations";
everything so far has emulated that fleet with local OS processes.  This
package puts the network back: a central :class:`~repro.fabric.hub.FabricHub`
schedules function-master tasks onto worker-node agents
(:class:`~repro.fabric.node.WorkerNodeAgent`, ``warpcc worker``) that each
front a machine's warm pool, and :class:`~repro.fabric.hub.RemoteBackend`
— :class:`~repro.parallel.supervisor.SupervisedBackend` over the hub —
exposes the fleet through the standard ``run_tasks_streaming`` surface so
the driver, the compile service, and the fuzz oracle compose unchanged.

Robustness model (INTERNALS.md §Distributed fabric): the hub reports —
a node's lease expired, a result frame that does not verify — and the
supervisor decides, by the one policy a local pool has: lost tasks are
retried under one attempt budget, first result per task wins, zero live
nodes degrades to the local fallback pool.  Every task and result
crosses the wire as a sealed entry under a content digest, and the
two-tier artifact cache (:mod:`repro.fabric.netcache`) treats every
network-tier failure as a miss — trouble can cost a recompile, never a
wrong artifact and never a failed compile.

Security model: nothing read from a socket is unpickled — a blob is a
hashed entry whose JSON header must name exactly a record's typed
fields — and setting ``WARPCC_FABRIC_SECRET`` on every hub, worker, and
cache process additionally authenticates node registration
(challenge-response) and every blob (HMAC-SHA256, constant-time
compared before anything is parsed).  Without the secret the
ports are unauthenticated and must only be exposed on trusted networks
— the defaults bind 127.0.0.1.
"""

from .hub import FabricHub, RemoteBackend
from .netcache import CacheServiceServer, NetworkCacheClient, TieredCache
from .node import WorkerNodeAgent
from .wire import (
    FABRIC_SECRET_ENV,
    AuthenticationError,
    Connection,
    ProtocolError,
    WireCorruption,
    backoff_delays,
    decode_frame,
    fabric_secret,
    read_frame_line,
)

__all__ = [
    "AuthenticationError",
    "CacheServiceServer",
    "Connection",
    "FABRIC_SECRET_ENV",
    "FabricHub",
    "NetworkCacheClient",
    "ProtocolError",
    "RemoteBackend",
    "TieredCache",
    "WireCorruption",
    "WorkerNodeAgent",
    "backoff_delays",
    "decode_frame",
    "fabric_secret",
    "read_frame_line",
]
