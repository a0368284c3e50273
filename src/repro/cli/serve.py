"""The long-running processes.  ``warpcc serve`` runs the multi-tenant
compile service (one shared warm pool + artifact cache, fair-share
scheduling across tenants); ``warpcc worker --connect HOST:PORT`` runs
a worker-node agent (register this machine's pool with a fabric hub and
compile the tasks it leases us); ``warpcc cache-server`` runs the
content-addressed network artifact-cache tier (clients: ``--cache-url
HOST:PORT``)."""

from __future__ import annotations

import argparse
import sys
import threading
from typing import List

from ..cache.store import DEFAULT_MAX_BYTES
from ..parallel.fault_schedule import FaultSchedule
from . import options, stack


def register_serve(sub):
    parser = sub.add_parser(
        "serve",
        help="run the multi-tenant compile service over one shared "
        "warm pool (JSON-lines protocol; see 'warpcc submit')",
    )
    options.bind(parser)
    options.workers(parser)
    parser.add_argument(
        "--max-queued", type=int, default=32,
        help="admission bound: queued jobs beyond this are rejected "
        "with explicit backpressure (default 32)",
    )
    parser.add_argument(
        "--max-running", type=int, default=4,
        help="concurrent compile jobs (default 4)",
    )
    parser.add_argument(
        "--per-tenant", type=int, default=8, metavar="N",
        help="per-tenant in-flight job cap (default 8)",
    )
    parser.add_argument(
        "--tenant-weight", action="append", default=[],
        metavar="TENANT=WEIGHT",
        help="fair-share weight for a tenant (repeatable; default 1.0)",
    )
    options.caches(parser, cache_url=True)
    options.supervision(parser)
    parser.add_argument(
        "--fabric-port", type=int, default=None, metavar="PORT",
        help="also run a fabric hub on this port (0: pick a free port) "
        "and schedule compile tasks onto registered 'warpcc worker' "
        "nodes; the local pool remains the fallback when zero nodes "
        "hold live leases.  Export WARPCC_FABRIC_SECRET (same value on "
        "every hub/worker/cache process) to require authenticated "
        "registration and HMAC-tagged payloads; without it the port is "
        "unauthenticated — trusted networks only",
    )
    parser.set_defaults(run=run_serve)
    return parser


def _parse_tenant_weights(entries: List[str]) -> dict:
    weights = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep or not name.strip():
            raise ValueError(
                f"--tenant-weight expects TENANT=WEIGHT, got {entry!r}"
            )
        weights[name.strip()] = float(value)
    return weights


def run_serve(args) -> int:
    from ..service import CompileService, ServiceSocketServer
    from ..service.client import ADDRESS_ENV

    try:
        weights = _parse_tenant_weights(args.tenant_weight)
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2

    pool = stack.build_pool(args)
    farm = pool
    hub = None
    if args.fabric_port is not None:
        from ..fabric import FabricHub, RemoteBackend

        # The local pool is where the fleet's supervisor degrades to:
        # zero live worker nodes is exactly the single-machine service.
        hub = FabricHub(
            host=args.host, port=args.fabric_port, fallback=pool
        )
        farm = RemoteBackend(hub)
    backend = stack.build_backend(args, farm)
    caches = {}
    try:
        caches = stack.open_caches(args, "artifact cache")
        service = CompileService(
            backend,
            caches.get("artifact cache"),
            max_queued=args.max_queued,
            max_running=args.max_running,
            per_tenant_inflight=args.per_tenant,
            tenant_weights=weights,
        )
        server = ServiceSocketServer(
            service, host=args.host, port=args.port
        )
        print(
            f"warpcc service on {server.address} "
            f"({service.worker_count} worker(s), "
            f"max {args.max_running} concurrent job(s)); "
            f"clients: warpcc submit --connect {server.address} "
            f"or export {ADDRESS_ENV}={server.address}",
            flush=True,
        )
        if hub is not None:
            print(
                f"warpcc fabric on {hub.address}; nodes: "
                f"warpcc worker --connect {hub.address}",
                flush=True,
            )
        if service.speculation is not None:
            print(
                "speculation on; editors: "
                f"warpcc watch FILE --connect {server.address}",
                flush=True,
            )
        server.serve_until_shutdown()
        return 0
    finally:
        # The service borrows the backend (see driver ownership rules);
        # the process that built the pool tears it down.
        if hub is not None:
            hub.close()
        stack.close_caches(caches)
        stack.shutdown_backend(pool)


#: Transport fault rates for each ``--chaos-fault`` family, by kind.
#: Seeded and deterministic (see repro.fabric.chaos); the CI
#: fabric-chaos matrix drives these from the command line.
_CHAOS_FAULTS = {
    "node-kill": {"kill": 0.4},
    "heartbeat-drop": {"heartbeat-drop": 0.7},
    "truncate": {"truncate": 0.4},
    "delay-dup": {"delay": 0.3, "duplicate": 0.3},
    "mixed": {
        "kill": 0.2,
        "heartbeat-drop": 0.2,
        "truncate": 0.15,
        "delay": 0.15,
        "duplicate": 0.15,
    },
}
#: seconds a delayed result frame waits
_CHAOS_DELAY = 0.05


def register_worker(sub):
    parser = sub.add_parser(
        "worker",
        help="run a worker-node agent: register this machine's pool "
        "with a fabric hub and compile the tasks it leases us",
    )
    options.connect(parser, required=True)
    options.workers(parser)
    parser.add_argument(
        "--node-id", default=None,
        help="stable node identity (default: hostname-pid)",
    )
    parser.add_argument(
        "--chaos", type=int, default=None, metavar="SEED",
        help="inject deterministic transport faults seeded by SEED "
        "(fault suite; see --chaos-fault)",
    )
    parser.add_argument(
        "--chaos-fault", default="mixed", choices=sorted(_CHAOS_FAULTS),
        help="which transport fault family --chaos injects",
    )
    parser.set_defaults(run=run_worker)
    return parser


def run_worker(args) -> int:
    from ..fabric import WorkerNodeAgent

    backend = stack.build_pool(args)
    chaos = None
    if args.chaos is not None:
        chaos = FaultSchedule(
            args.chaos, _CHAOS_FAULTS[args.chaos_fault], delay=_CHAOS_DELAY
        )
    try:
        agent = WorkerNodeAgent(
            args.connect,
            backend,
            node_id=args.node_id,
            chaos=chaos,
        )
    except ValueError as error:
        print(f"warpcc: {error}", file=sys.stderr)
        return 2
    print(
        f"warpcc worker {agent.node_id}: {backend.worker_count} "
        f"worker(s) leased to {args.connect}",
        flush=True,
    )
    try:
        agent.run_forever()
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        stack.shutdown_backend(backend)


def _positive_bytes(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"the size bound must be at least 1 byte, got {value}"
        )
    return value


def register_cache_server(sub):
    parser = sub.add_parser(
        "cache-server",
        help="run the content-addressed network artifact-cache tier "
        "(clients: --cache-url HOST:PORT)",
    )
    options.bind(parser)
    options.caches(parser, no_cache=False)
    parser.add_argument(
        "--max-bytes", type=_positive_bytes, default=DEFAULT_MAX_BYTES,
        metavar="N",
        help="LRU size bound for the blob store "
        f"(default {DEFAULT_MAX_BYTES})",
    )
    parser.set_defaults(run=run_cache_server)
    return parser


def run_cache_server(args) -> int:
    from ..fabric import CacheServiceServer

    server = CacheServiceServer(
        args.cache_dir,
        host=args.host,
        port=args.port,
        max_bytes=args.max_bytes,
    )
    print(
        f"warpcc cache tier on {server.address} "
        f"({server.store.entry_count()} entr(ies) on disk); "
        f"clients: warpcc compile --cache-url {server.address} "
        f"or export WARPCC_CACHE_URL={server.address}",
        flush=True,
    )
    try:
        threading.Event().wait()  # serve until interrupted
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    finally:
        server.close()
