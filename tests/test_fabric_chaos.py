"""Chaos matrix for the distributed fabric.

The acceptance bar: compiled digests are bit-identical across {local
pool, 2 remote nodes, 2 remote nodes with seeded faults, cache tier
down}.  Faults never change *what* is produced, only *how long* it
takes and which stats counters tick.

CI sweeps ``WARPCC_FABRIC_FAULT`` / ``WARPCC_FABRIC_SEED`` over a
node-kill / heartbeat-drop / corrupt-cache-response matrix; locally the
defaults exercise a mixed fault load.  The 200-seed matrix reuses one
fleet per 50-seed block so the whole sweep stays fast.
"""

import os

import pytest

from repro.driver.master import ParallelCompiler
from repro.driver.sequential import SequentialCompiler
from repro.fabric import (
    CacheChaos,
    CacheServiceServer,
    FabricChaos,
    FabricHub,
    NetworkCacheClient,
    RemoteBackend,
    TieredCache,
    WorkerNodeAgent,
)
from repro.fuzz import config_for_size_class, generate_program
from repro.parallel.local import SerialBackend

FAULT_PROFILES = {
    "node-kill": {"kill_rate": 0.35},
    "heartbeat-drop": {"heartbeat_drop_rate": 0.7},
    "truncate": {"truncate_rate": 0.35},
    "delay-dup": {"delay_rate": 0.3, "duplicate_rate": 0.3, "delay_s": 0.01},
    "mixed": {
        "kill_rate": 0.2,
        "heartbeat_drop_rate": 0.2,
        "delay_rate": 0.15,
        "duplicate_rate": 0.15,
        "truncate_rate": 0.15,
        "delay_s": 0.01,
    },
    # Cache-tier faults are injected at the cache server, not the hub
    # transport; the fabric itself runs fault-free in that leg.
    "corrupt-cache-response": {},
}

#: (lease TTL, heartbeat interval) of the test hub.  Heartbeat-drop
#: beats faster than one compile takes, so every block sends — and, on
#: the schedule, drops — heartbeats however quickly its programs
#: compile; the lease still spans five beats, as everywhere else.
HUB_TIMING = {"heartbeat-drop": (0.25, 0.05)}

ENV_FAULT = os.environ.get("WARPCC_FABRIC_FAULT", "mixed")
ENV_SEED = int(os.environ.get("WARPCC_FABRIC_SEED", "0"))


def _sources(seeds, size_class):
    config = config_for_size_class(size_class)
    return [generate_program(seed, config).source for seed in seeds]


class _Fleet:
    """One hub with a chaos-wrapped node and a healthy node.

    The healthy node guarantees forward progress no matter how nasty the
    chaos profile is; the chaotic one exists to die, stall, and corrupt.
    """

    def __init__(self, fault: str, seed: int):
        profile = FAULT_PROFILES[fault]
        ttl, interval = HUB_TIMING.get(fault, (2.0, 0.4))
        self.hub = FabricHub(lease_ttl=ttl, heartbeat_interval=interval)
        self.chaos = FabricChaos(seed=seed, **profile) if profile else None
        self.agents = [
            WorkerNodeAgent(
                self.hub.address,
                SerialBackend(),
                node_id="chaotic",
                chaos=self.chaos,
            ).start(),
            WorkerNodeAgent(
                self.hub.address, SerialBackend(), node_id="healthy"
            ).start(),
        ]
        assert self.hub.wait_for_nodes(2, timeout=15.0)
        self.backend = RemoteBackend(self.hub)

    def compile(self, source: str):
        return ParallelCompiler(backend=self.backend).compile(source)

    def close(self):
        for agent in self.agents:
            agent.stop()
        self.hub.close()


@pytest.fixture
def fleet():
    f = _Fleet(ENV_FAULT, ENV_SEED)
    yield f
    f.close()


class TestDigestIdentity:
    """One program, every deployment shape, one digest."""

    SEED = 11

    def test_all_shapes_agree(self, fleet, tmp_path):
        source = _sources([self.SEED], "small")[0]
        reference = SequentialCompiler().compile(source).digest

        # Local pool (the shape every earlier PR proved).
        local = ParallelCompiler().compile(source)
        assert local.digest == reference

        # Two remote nodes, seeded faults on one of them.
        remote = fleet.compile(source)
        assert remote.digest == reference

        # Cache tier down: a client pointed at a dead endpoint must
        # degrade to local-only caching, not fail the compile.
        dead_client = NetworkCacheClient("127.0.0.1:1", timeout=0.2)
        cache = TieredCache(tmp_path / "cache", dead_client)
        try:
            cached = ParallelCompiler(cache=cache).compile(source)
        finally:
            cache.close()
        assert cached.digest == reference
        assert dead_client.disabled

    def test_corrupt_cache_responses_never_poison_a_compile(self, tmp_path):
        source = _sources([self.SEED], "small")[0]
        reference = SequentialCompiler().compile(source).digest
        chaos = CacheChaos(seed=ENV_SEED, corrupt_rate=1.0)
        with CacheServiceServer(tmp_path / "server", chaos=chaos) as server:
            # Warm the remote tier with real artifacts first.
            warm_client = NetworkCacheClient(server.address)
            warm = TieredCache(tmp_path / "warm", warm_client)
            try:
                assert ParallelCompiler(cache=warm).compile(source).digest == reference
                warm.flush()
            finally:
                warm.close()

            # A cold machine now reads corrupt responses: every one must
            # be rejected by payload-digest validation and fall through
            # to a real compile with the right answer.
            client = NetworkCacheClient(server.address)
            cache = TieredCache(tmp_path / "cold", client)
            try:
                result = ParallelCompiler(cache=cache).compile(source)
            finally:
                cache.close()
        assert result.digest == reference
        assert client.corrupt_responses > 0


class TestChaosMatrix:
    """200 seeds, four blocks, one fleet per block.

    Every generated program must compile to the same digest through the
    chaotic fabric as through the sequential reference.
    """

    @pytest.mark.parametrize("block", range(4))
    def test_block(self, block):
        size_class = ("tiny", "small", "medium", "small")[block]
        seeds = range(block * 50, block * 50 + 50)
        sources = _sources(seeds, size_class)
        references = [
            SequentialCompiler().compile(source).digest for source in sources
        ]
        fleet = _Fleet(ENV_FAULT, ENV_SEED + block)
        try:
            for source, reference in zip(sources, references):
                assert fleet.compile(source).digest == reference
        finally:
            fleet.close()
        # The suite is only meaningful if faults actually fired (the
        # cache-response fault leg injects nothing at the hub transport).
        if fleet.chaos is not None and ENV_FAULT != "corrupt-cache-response":
            fired = (
                fleet.chaos.kills_injected
                + fleet.chaos.heartbeats_dropped
                + fleet.chaos.frames_delayed
                + fleet.chaos.frames_duplicated
                + fleet.chaos.frames_truncated
            )
            assert fired > 0, "chaos profile injected nothing"


class TestRequeueAccounting:
    def test_node_kill_chaos_requeues_and_dedups_consistently(self):
        """Under a pure node-kill profile the one set of books must
        balance: every kill loses a node and costs a retry for each task
        the node held, every retry is one more task frame (the healthy
        node keeps the fleet alive), no task is ever out of attempts
        (the kill budget is one per task, whichever wave the retry
        rides in), and nothing is lost or doubled."""
        fleet = _Fleet("node-kill", ENV_SEED)
        tasks = 0
        try:
            for source in _sources(range(3), "small"):
                reference = SequentialCompiler().compile(source).digest
                result = fleet.compile(source)
                assert result.digest == reference
                tasks += len(result.profile.functions)
            stats = fleet.hub.stats.copy()
        finally:
            fleet.close()
        supervision = fleet.backend.supervision
        kills = fleet.chaos.kills_injected
        # The first kill lands on a live connection; a later one may hit
        # a connection an earlier kill closed (the old session's thread
        # finishing late), so kills bound the losses only from below.
        if kills:
            assert stats.nodes_lost >= 1
            assert supervision.retries >= 1
        if supervision.retries:
            assert stats.nodes_lost >= 1
        assert stats.tasks_dispatched == tasks + supervision.retries
        assert supervision.poisoned_tasks == 0
        assert supervision.degradations == 0
        assert supervision.timeouts == 0
