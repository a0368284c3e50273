"""The entry store under concurrent multi-process writers.

The store's contract (src/repro/cache/store.py): atomic tmp+os.replace
writes mean racing readers see old bytes or new bytes, never a torn
write; garbage on disk is quarantined (deleted + counted) and reported
as a miss, never returned as an artifact.  These tests hammer one store
directory from many real processes to prove it.
"""

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.cache.store import FactsCodec, Store, seal_entry

KEYS = [f"{i:02x}" * 32 for i in range(8)]


class _BytesCodec:
    """Entry body = the payload, which is bytes; no facts."""

    def pack(self, blob: bytes):
        return {}, blob

    def unpack(self, facts: dict, body: bytes) -> bytes:
        return body


class _BlobStore(Store):
    """A tier of raw bytes for these tests: the store machinery with
    the least codec there can be."""

    SUBDIR = "blobs"
    codec = _BytesCodec()


@dataclass
class _Number:
    value: int


@dataclass
class _Word:
    value: str


class _Numbers(Store):
    SUBDIR = "probe"
    codec = FactsCodec(_Number)


class _Words(Store):
    """Another record type in the same tier directory."""

    SUBDIR = "probe"
    codec = FactsCodec(_Word)


def _value_for(key: str, round_no: int) -> bytes:
    """A payload derived from its key: a torn or cross-wired read is
    detectable by content, not just by pickle failing to parse."""
    return (f"{key}:{round_no}:" + "x" * 4096).encode("ascii")


def _writer(args):
    """Worker process: write every key many times into a shared store."""
    cache_dir, worker_id, rounds = args
    store = _BlobStore(cache_dir)
    for round_no in range(rounds):
        for key in KEYS:
            store.put(key, _value_for(key, round_no))
    return worker_id


def _reader(args):
    """Worker process: read every key continuously; return violations."""
    cache_dir, rounds = args
    store = _BlobStore(cache_dir)
    violations = []
    for _ in range(rounds):
        for key in KEYS:
            blob = store.get(key)
            if blob is None:
                continue  # not written yet / raced with replace: a miss is fine
            text = blob.decode("ascii", errors="replace")
            if not text.startswith(f"{key}:") or not text.endswith("x" * 4096):
                violations.append((key, text[:64]))
    return violations, store.counts["corrupt"]


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
        store = _BlobStore(cache_dir)
        for key in KEYS:
            blob = store.get(key)
            assert blob is not None
            assert blob == _value_for(key, 19)

    def test_last_writer_wins_per_key(self, tmp_path):
        cache_dir = str(tmp_path / "shared")
        store = _BlobStore(cache_dir)
        store.put(KEYS[0], _value_for(KEYS[0], 0))
        store.put(KEYS[0], _value_for(KEYS[0], 1))
        assert store.get(KEYS[0]) == _value_for(KEYS[0], 1)
        assert store.entry_count() == 1


class TestQuarantine:
    def test_garbage_entry_is_deleted_and_counted(self, tmp_path):
        store = _BlobStore(tmp_path / "s")
        key = KEYS[0]
        store.put(key, _value_for(key, 0))
        path = store._entry_path(key)
        path.write_bytes(b"\x00\x01 this is not a pickle")
        assert store.get(key) is None
        assert store.counts["corrupt"] == 1
        assert not path.exists(), "corrupt entry must be quarantined"
        # The slot is reusable immediately.
        store.put(key, _value_for(key, 1))
        assert store.get(key) == _value_for(key, 1)

    def test_truncated_entry_is_quarantined(self, tmp_path):
        store = _BlobStore(tmp_path / "s")
        key = KEYS[1]
        store.put(key, _value_for(key, 0))
        path = store._entry_path(key)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # a crashed writer's stub
        assert store.get(key) is None
        assert store.counts["corrupt"] == 1
        assert not path.exists()

    def test_wrong_payload_type_is_quarantined(self, tmp_path):
        store = _Numbers(tmp_path / "s")
        key = KEYS[2]
        # A well-formed entry whose facts are of the WRONG type.
        _Words(tmp_path / "s").put(key, _Word("not a number"))
        path = store._entry_path(key)
        assert path.exists()
        assert store.get(key) is None
        assert store.counts["corrupt"] == 1
        assert not path.exists()

    def test_entry_of_another_tier_is_quarantined(self, tmp_path):
        """Tier confusion: a sound entry, moved under another tier's
        directory, names the tier it was written for."""
        blobs = _BlobStore(tmp_path / "s")
        numbers = _Numbers(tmp_path / "s")
        key = KEYS[2]
        numbers.put(key, _Number(7))
        target = blobs._entry_path(key)
        target.parent.mkdir(parents=True)
        os.replace(numbers._entry_path(key), target)
        assert blobs.get(key) is None
        assert blobs.counts["corrupt"] == 1
        assert not target.exists()

    def test_flipped_header_or_body_byte_is_quarantined(self, tmp_path):
        store = _BlobStore(tmp_path / "s")
        key = KEYS[4]
        store.put(key, _value_for(key, 0))
        path = store._entry_path(key)
        whole = path.read_bytes()
        header_at = whole.index(b'"tier"')
        for corrupt, position in enumerate((header_at, len(whole) - 1), 1):
            damaged = bytearray(whole)
            damaged[position] ^= 0x01
            path.write_bytes(bytes(damaged))
            assert store.get(key) is None
            assert store.counts["corrupt"] == corrupt
            assert not path.exists()

    def test_pickle_naming_a_foreign_global_never_runs(self, tmp_path):
        """The disk is a trust boundary: an entry whose sound header sits
        beside a pickle naming ``os.system`` is corrupt — no tier
        unpickles — and nothing it names is called."""
        canary = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.system, (f"touch {canary}",))

        store = _Numbers(tmp_path / "s")
        key = KEYS[5]
        path = store._entry_path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(seal_entry(
            _Numbers.SUBDIR, _Numbers.SCHEMA, {"value": 7},
            pickle.dumps(Evil()),  # a writer is free to write anything
        ))
        assert store.get(key) is None
        assert store.counts["corrupt"] == 1
        assert not path.exists()
        assert not canary.exists(), "an entry's payload was executed"

    def test_tmp_files_never_count_as_entries(self, tmp_path):
        store = _BlobStore(tmp_path / "s")
        key = KEYS[3]
        store.put(key, _value_for(key, 0))
        shard = store._entry_path(key).parent
        (shard / ".tmp-dead-writer.pkl").write_bytes(b"partial")
        assert store.entry_count() == 1
        assert store.get(key) == _value_for(key, 0)


class TestSizeBound:
    """``put`` keeps a running total and rescans the tier only when the
    total crosses ``max_bytes``."""

    @staticmethod
    def _count_scans(store, monkeypatch):
        scans = []
        entries = store._entries
        monkeypatch.setattr(
            store, "_entries", lambda: scans.append(1) or entries()
        )
        return scans

    def test_puts_under_the_bound_scan_the_tier_once(
        self, tmp_path, monkeypatch
    ):
        store = _BlobStore(tmp_path / "s")
        scans = self._count_scans(store, monkeypatch)
        for round_no in range(5):
            for key in KEYS:
                store.put(key, _value_for(key, round_no))
        assert len(scans) == 1
        assert store.counts["evictions"] == 0

    def test_crossing_the_bound_rescans_and_evicts(self, tmp_path, monkeypatch):
        entry = len(_value_for(KEYS[0], 0)) + 256  # body + header, roughly
        store = _BlobStore(tmp_path / "s", max_bytes=3 * entry)
        scans = self._count_scans(store, monkeypatch)
        for key in KEYS:
            store.put(key, _value_for(key, 0))
        assert store.size_bytes() <= 3 * entry
        assert store.counts["evictions"] >= len(KEYS) - 3
        assert 1 < len(scans) <= len(KEYS) + 1  # not one per entry evicted
        # The newest entry always survives its own put.
        assert store.get(KEYS[-1]) == _value_for(KEYS[-1], 0)

    def test_two_handles_converge_on_the_bound(self, tmp_path):
        """Each handle counts only its own puts, but the scan a crossing
        triggers reads the disk: whoever crosses evicts for both."""
        entry = len(_value_for(KEYS[0], 0)) + 256
        first = _BlobStore(tmp_path / "s", max_bytes=4 * entry)
        second = _BlobStore(tmp_path / "s", max_bytes=4 * entry)
        for round_no in range(4):
            for index, key in enumerate(KEYS):
                writer = first if index % 2 else second
                writer.put(key, _value_for(key, round_no))
        assert first.size_bytes() <= 4 * entry
        assert first.counts["evictions"] + second.counts["evictions"] > 0

    def test_entries_of_an_older_format_age_out(self, tmp_path):
        """Every file of the tier counts toward the bound and is evicted
        oldest-first, whatever wrote it — a pre-bump ``.pkl`` included."""
        entry = len(_value_for(KEYS[0], 0)) + 256
        store = _BlobStore(tmp_path / "s", max_bytes=2 * entry)
        store.put(KEYS[0], _value_for(KEYS[0], 0))
        shard = store._entry_path(KEYS[0]).parent
        old = shard / (KEYS[0] + ".pkl")
        old.write_bytes(pickle.dumps("x" * (2 * entry)))
        os.utime(old, (1, 1))  # the oldest file of the tier
        assert store.entry_count() == 2
        assert store.size_bytes() > 2 * entry
        # The next process to write sees it in its first scan.
        _BlobStore(tmp_path / "s", max_bytes=2 * entry).put(
            KEYS[1], _value_for(KEYS[1], 0)
        )
        assert not old.exists()
        assert store.size_bytes() <= 2 * entry

