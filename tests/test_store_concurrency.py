"""PickleStore under concurrent multi-process writers.

The store's contract (src/repro/cache/store.py): atomic tmp+os.replace
writes mean racing readers see old bytes or new bytes, never a torn
write; garbage on disk is quarantined (deleted + counted) and reported
as a miss, never returned as an artifact.  These tests hammer one store
directory from many real processes to prove it.
"""

import gc
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache.store import PickleStore
from repro.fabric.netcache import NetworkBlobStore

KEYS = [f"{i:02x}" * 32 for i in range(8)]


def _value_for(key: str, round_no: int) -> bytes:
    """A payload derived from its key: a torn or cross-wired read is
    detectable by content, not just by pickle failing to parse."""
    return (f"{key}:{round_no}:" + "x" * 4096).encode("ascii")


def _writer(args):
    """Worker process: write every key many times into a shared store."""
    cache_dir, worker_id, rounds = args
    store = NetworkBlobStore(cache_dir)
    for round_no in range(rounds):
        for key in KEYS:
            store.put(key, _value_for(key, round_no))
    return worker_id


def _reader(args):
    """Worker process: read every key continuously; return violations."""
    cache_dir, rounds = args
    store = NetworkBlobStore(cache_dir)
    violations = []
    for _ in range(rounds):
        for key in KEYS:
            blob = store.get(key)
            if blob is None:
                continue  # not written yet / raced with replace: a miss is fine
            text = blob.decode("ascii", errors="replace")
            if not text.startswith(f"{key}:") or not text.endswith("x" * 4096):
                violations.append((key, text[:64]))
    return violations, store.stats.corrupt


class TestConcurrentWriters:
    def test_parallel_writers_and_readers_never_tear(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        with ProcessPoolExecutor(max_workers=6) as pool:
            writers = [
                pool.submit(_writer, (cache_dir, i, 20)) for i in range(4)
            ]
            readers = [
                pool.submit(_reader, (cache_dir, 40)) for _ in range(2)
            ]
            for future in writers:
                future.result(timeout=120)
            for future in readers:
                violations, corrupt = future.result(timeout=120)
                assert violations == [], violations
                # Atomic replace means racing processes never manufacture
                # corruption — every read was old bytes or new bytes.
                assert corrupt == 0

        # The store converged: every key holds some writer's final round.
        store = NetworkBlobStore(cache_dir)
        for key in KEYS:
            blob = store.get(key)
            assert blob is not None
            assert blob == _value_for(key, 19)

    def test_last_writer_wins_per_key(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        store = NetworkBlobStore(cache_dir)
        store.put(KEYS[0], _value_for(KEYS[0], 0))
        store.put(KEYS[0], _value_for(KEYS[0], 1))
        assert store.get(KEYS[0]) == _value_for(KEYS[0], 1)
        assert store.entry_count() == 1


class TestQuarantine:
    def test_garbage_entry_is_deleted_and_counted(self, tmp_path):
        store = NetworkBlobStore(tmp_path / "s")
        key = KEYS[0]
        store.put(key, _value_for(key, 0))
        path = store._entry_path(key)
        path.write_bytes(b"\x00\x01 this is not a pickle")
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not path.exists(), "corrupt entry must be quarantined"
        # The slot is reusable immediately.
        store.put(key, _value_for(key, 1))
        assert store.get(key) == _value_for(key, 1)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        store = NetworkBlobStore(tmp_path / "s")
        key = KEYS[1]
        store.put(key, _value_for(key, 0))
        path = store._entry_path(key)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # a crashed writer's stub
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_wrong_payload_type_is_quarantined(self, tmp_path):
        store = NetworkBlobStore(tmp_path / "s")
        key = KEYS[2]
        path = store._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A valid pickle of the WRONG type (tier/schema confusion).
        path.write_bytes(pickle.dumps({"not": "bytes"}))
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_tmp_files_never_count_as_entries(self, tmp_path):
        store = NetworkBlobStore(tmp_path / "s")
        key = KEYS[3]
        store.put(key, _value_for(key, 0))
        shard = store._entry_path(key).parent
        (shard / ".tmp-dead-writer.pkl").write_bytes(b"partial")
        assert store.entry_count() == 1
        assert store.get(key) == _value_for(key, 0)


def _collector_state():
    for _ in range(2000):  # Python code, so a thread switch can land here
        pass
    return gc.isenabled()


class _DuringLoad:
    """Unpickles to whether the cyclic collector is on *during* the load."""

    def __reduce__(self):
        return _collector_state, ()


class TestCollectorPausedAroundUnpickle:
    """``PickleStore.get`` switches the cyclic collector off for the
    unpickle and puts it back the way it found it."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    def test_off_during_the_load_and_restored_on_a_hit(self, tmp_path):
        store = PickleStore(tmp_path / "s")
        store.put(KEYS[0], _DuringLoad())
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            assert store.get(KEYS[0]) is False  # collector off in the load
            assert gc.isenabled() is before
        assert store.stats.hits == 2

    def test_restored_on_miss_and_corrupt_entry(self, tmp_path):
        store = PickleStore(tmp_path / "s")
        store.put(KEYS[1], [1, 2, 3])
        store._entry_path(KEYS[1]).write_bytes(b"\x80\x04 not a pickle")
        for before in (True, False):
            (gc.enable if before else gc.disable)()
            assert store.get(KEYS[0]) is None  # never written: a miss
            assert gc.isenabled() is before
        gc.enable()
        assert store.get(KEYS[1]) is None
        assert store.stats.corrupt == 1
        assert gc.isenabled()

    def test_two_threads_leave_it_as_they_found_it(self, tmp_path):
        """The switch is process-wide: if saves and restores from two
        threads interleaved, the first to finish would turn the collector
        back on under the other's load, or the last would put back the
        "off" it saw while another had it paused."""
        store = PickleStore(tmp_path / "s")
        store.put(KEYS[2], [_DuringLoad() for _ in range(20)])
        seen, failures = [], []

        def reader():
            try:
                for _ in range(10):
                    seen.extend(store.get(KEYS[2]))
            except BaseException as exc:  # pragma: no cover - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        gc.enable()
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(seen) == 4 * 10 * 20 and not any(seen)
        assert gc.isenabled()
