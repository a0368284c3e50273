"""Compile service: a multi-tenant job scheduler over the warm farm.

The paper's hierarchy compiles *one* module at a time over a pool of
workstations (§3); this package turns that into a long-lived service:
many concurrent compile jobs from many tenants share ONE warm worker
pool and ONE artifact cache, with weighted fair-share scheduling at the
function-task level so a tiny module never waits behind an entire huge
one — the paper's small/medium/large load-balancing observation (§4.3)
replayed at the job level.
"""

from .queue import PRIORITY_CLASSES, FairShareQueue, QueuedTask
from .server import (
    AdmissionError,
    CompileService,
    JobCancelled,
    ServiceSocketServer,
)
from .client import ServiceClient, ServiceError, resolve_address
from .loadgen import (
    EditSessionReport,
    EditSessionSpec,
    LoadReport,
    LoadSpec,
    plan_edit_session,
    plan_load,
    replay_edit_session,
    run_load,
)

__all__ = [
    "AdmissionError",
    "CompileService",
    "EditSessionReport",
    "EditSessionSpec",
    "FairShareQueue",
    "JobCancelled",
    "LoadReport",
    "LoadSpec",
    "PRIORITY_CLASSES",
    "QueuedTask",
    "ServiceClient",
    "ServiceError",
    "ServiceSocketServer",
    "plan_edit_session",
    "plan_load",
    "replay_edit_session",
    "resolve_address",
    "run_load",
]
