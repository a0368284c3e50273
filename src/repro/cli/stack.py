"""What a verb's flags build: the execution backend and the cache tiers.

This is the only module under :mod:`repro.cli` that constructs a
backend or opens a cache; compile, search, bench and serve get a
supervised farm from :func:`build_backend`, worker its bare pool from
:func:`build_pool`, and every verb its tiers from :func:`open_caches`.
"""

from __future__ import annotations

import os
from typing import Dict

from ..cache import ArtifactCache, LinkCache, ParseCache, VariantStore
from ..parallel.fault_schedule import FaultSchedule
from ..parallel.fault_tolerance import ChaosBackend
from ..parallel.local import SerialBackend
from ..parallel.supervisor import SupervisedBackend
from ..parallel.warm_pool import WarmPoolBackend

#: report label -> store class, for every tier --cache-dir can hold
TIERS = {
    "artifact cache": ArtifactCache,
    "parse cache": ParseCache,
    "link cache": LinkCache,
    "variant store": VariantStore,
}


def build_pool(args):
    """The bare farm ``args.workers`` asks for — the one rule behind
    ``--jobs`` and ``--workers``: N>1 is a warm pool of N this command
    owns, 1 is in-process serial, unset is a pool of cores-1 (a verb
    whose documented default is serial sets the flag's default to 1).
    Only ``worker`` runs it bare: the hub's supervisor is a node's
    policy."""
    if args.workers is None or args.workers > 1:
        return WarmPoolBackend(args.workers)
    return SerialBackend()


def chaos_farm(seed, poison=None):
    """``compile --chaos SEED``'s farm: a simulated flaky farm around an
    in-process executor, deterministic under the seed; ``poison`` is the
    key of the task that crashes everywhere."""
    schedule = FaultSchedule(
        seed, {"crash": 0.2, "hang": 0.2, "corrupt": 0.1}, delay=0.2
    )
    return ChaosBackend(
        SerialBackend(), schedule, poison=(poison,) if poison else ()
    )


def build_backend(args, farm=None):
    """``farm`` (default: :func:`build_pool`) under the one supervisor,
    tuned by whichever of ``--task-timeout`` / ``--hedge-after`` /
    ``--max-attempts`` / ``--poison-threshold`` the verb has (the
    supervisor's defaults for the rest).  A fleet is born supervised
    (``RemoteBackend``): the flags tune that supervisor, not a second."""
    if farm is None:
        farm = build_pool(args)
    given = vars(args)
    tuning = {
        name: given[name]
        for name in ("task_timeout", "max_attempts", "poison_threshold")
        if name in given
    }
    hedge = given.get("hedge_after")
    if hedge is not None:
        tuning["hedge_after"] = hedge if hedge > 0 else None
    if isinstance(farm, SupervisedBackend):
        vars(farm).update(tuning)
        return farm
    return SupervisedBackend(farm, **tuning)


def shutdown_backend(backend) -> None:
    """Stop a backend this command owns (serial ones have nothing to stop)."""
    shutdown = getattr(backend, "shutdown", None)
    if shutdown is not None:
        shutdown()


def open_caches(args, *tiers: str) -> Dict[str, object]:
    """The named tiers (by report label) opened under ``--cache-dir``,
    in the order given; empty under ``--no-cache``.  On a verb that
    takes ``--cache-url`` the artifact cache is tiered behind the
    network cache that flag or $WARPCC_CACHE_URL names."""
    if args.no_cache:
        return {}
    caches = {tier: TIERS[tier](args.cache_dir) for tier in tiers}
    options = vars(args)
    if "cache_url" in options and "artifact cache" in caches:
        url = options["cache_url"] or os.environ.get("WARPCC_CACHE_URL")
        if url:
            from ..fabric import NetworkCacheClient, TieredCache

            caches["artifact cache"] = TieredCache(
                args.cache_dir, NetworkCacheClient(url)
            )
    return caches


def close_caches(caches: Dict[str, object]) -> None:
    """Flush and close a tiered cache (plain stores have no close)."""
    for store in caches.values():
        closer = getattr(store, "close", None)
        if closer is not None:
            closer()


def cache_counts(store) -> dict:
    """One cache tier's counts — a network tier's ride along — and its
    bytes on disk: what its report line and ``--json`` show."""
    remote = getattr(store, "remote", None)
    return {
        **store.counts,
        **(remote.counts if remote is not None else {}),
        "bytes_on_disk": store.size_bytes(),
    }
