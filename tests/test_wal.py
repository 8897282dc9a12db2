import os
import random
import struct
import zlib

import pytest

from fidstore.atrest_storage import AtRestLayer, SealedBlockStore
from fidstore.durability import DurableBuffer, SnapshotStore
from fidstore.errors import CorruptLog
from fidstore.fid_codec import OFFSET_BITS
from fidstore.mapping_store import MappingStore, PartitionKind
from fidstore.wal import (
    CHECKPOINT_INTERVAL_BYTES,
    EPOCH_MARKER,
    KIND_PUT,
    MAX_UNSYNCED_PUTS,
    PUT_REC,
    Wal,
    advance_epoch,
    checkpoint_truncate,
    frame,
    frame_record,
    read_frames,
    recover_store,
)

from .oracles import replay_store_records


KEY = bytes(range(32))


def _no_crash(site: str) -> None:
    pass


def _recover(snaps: SnapshotStore, buf: DurableBuffer,
             sealed: SealedBlockStore | None = None):
    return recover_store(snaps, buf, sealed or SealedBlockStore(), KEY)


def _at_rest(store: MappingStore) -> AtRestLayer:
    """The layer a checkpoint of store seals through; no block hook is
    attached, so the checkpoint seals every block the first time."""
    return AtRestLayer(store, KEY, sealed_store=SealedBlockStore())


def _store_with_wal():
    buf = DurableBuffer()
    wal = Wal(buf)
    store = MappingStore(journal=wal)
    return store, wal, buf


def _live_mapping(store: MappingStore) -> dict[int, bytes]:
    out = {}
    for pid in store.partition_ids():
        for fid in store.live_fids(pid):
            out[fid] = store.get(fid)
    return out


def test_lsns_monotonic_from_one():
    _, wal, _ = _store_with_wal()
    lsns = [wal.log_put(i, b"v") for i in range(3)]
    assert lsns == [1, 2, 3]


def test_flush_empty_buffer_is_noop():
    _, wal, buf = _store_with_wal()
    wal.log_put(1, b"a")
    first = wal.flush()
    size = buf.durable_len
    assert wal.flush() == first
    assert buf.durable_len == size


def test_advance_epoch_counts_recoveries():
    snaps = SnapshotStore()
    assert [advance_epoch(snaps) for _ in range(3)] == [1, 2, 3]
    assert snaps.get(EPOCH_MARKER) == frame(struct.pack("<Q", 3))


def test_failed_flush_leaves_the_durable_copy_as_it_was(tmp_path, fail_io):
    """A failed fsync propagates out of Wal.flush as the OSError it is, and
    the durable copy holds only what earlier syncs made durable. A crash
    cuts the file back to that copy, so the failed put is lost, and the
    records appended after recovery follow intact frames with increasing
    LSNs."""
    path = str(tmp_path / "store.wal")
    buf = DurableBuffer(path)
    wal = Wal(buf)
    store = MappingStore(journal=wal)
    pid = store.create_partition(PartitionKind.PERMANENT)
    kept = store.put(pid, b"a")
    wal.flush()
    synced = buf.durable
    store.put(pid, b"b")
    fail_io("fsync")
    with pytest.raises(OSError):
        wal.flush()
    assert buf.durable == synced and wal.durable_lsn == 2
    buf.crash()
    assert buf.pending_len == 0
    assert DurableBuffer(path).durable == buf.durable == synced
    result = _recover(SnapshotStore(), buf)
    assert _live_mapping(result.store) == {kept: b"a"}
    result.store.journal = result.wal
    later = result.store.put(pid, b"c")
    result.wal.flush()
    reopened = _recover(SnapshotStore(), DurableBuffer(path))
    assert _live_mapping(reopened.store) == {kept: b"a", later: b"c"}


def test_failed_replace_keeps_the_old_copy(tmp_path, fail_io):
    """A journal truncation or a snapshot write whose os.replace fails
    leaves the old bytes, both in memory and in the file."""
    buf = DurableBuffer(str(tmp_path / "db.wal"))
    buf.append(b"journal")
    buf.sync()
    snaps = SnapshotStore(str(tmp_path / "snaps"))
    snaps.put_atomic("image", b"old")
    fail_io("replace")
    with pytest.raises(OSError):
        buf.replace(b"")
    fail_io("replace")
    with pytest.raises(OSError):
        snaps.put_atomic("image", b"new")
    assert buf.durable == (tmp_path / "db.wal").read_bytes() == b"journal"
    assert snaps.get("image") == (tmp_path / "snaps" / "image").read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path / "snaps")) == ["image"]


def test_empty_log_recovers_empty():
    snaps = SnapshotStore()
    result = _recover(snaps, DurableBuffer())
    assert result.replayed_count == 0
    assert result.store.partition_ids() == []


def test_replay_k_puts():
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    for i in range(25):
        store.put(pid, bytes([i]) * 10)
    wal.flush()
    result = _recover(SnapshotStore(), buf)
    assert result.store.stats().live_count == 25
    assert _live_mapping(result.store) == _live_mapping(store)


def test_unflushed_records_do_not_survive():
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"durable")
    wal.flush()
    store.put(pid, b"volatile")
    buf.crash()
    result = _recover(SnapshotStore(), buf)
    values = set(_live_mapping(result.store).values())
    assert b"durable" in values
    assert b"volatile" not in values


def test_append_continues_after_recovery():
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"one")
    wal.flush()
    last = wal.durable_lsn
    buf.crash()
    result = _recover(SnapshotStore(), buf)
    assert result.wal.next_lsn == last + 1
    nxt = result.wal.log_put(123, b"x")
    assert nxt == last + 1


def test_torn_tail_discarded_corrupt_middle_raises():
    frames = [frame_record(i + 1, KIND_PUT, PUT_REC.pack(i) + b"v")
              for i in range(3)]
    # torn tail: final frame cut short
    data = b"".join(frames[:2]) + frames[2][:-1]
    assert len(read_frames(data)) == 2
    # mid-log corruption with intact frames after it: tampering
    corrupted = bytearray(b"".join(frames))
    corrupted[12] ^= 0xFF  # inside the first record body
    with pytest.raises(CorruptLog):
        read_frames(bytes(corrupted))


def test_recovery_is_idempotent():
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes([i]) * 5) for i in range(10)]
    store.delete(fids[3])
    wal.flush()
    r1 = _recover(SnapshotStore(), buf)
    r2 = _recover(SnapshotStore(), buf)
    assert _live_mapping(r1.store) == _live_mapping(r2.store)
    assert r1.replayed_count == r2.replayed_count


def test_recovered_partition_ids_match():
    store, wal, buf = _store_with_wal()
    ids = [store.create_partition(PartitionKind.PERMANENT)
           for _ in range(5)]
    wal.flush()
    result = _recover(SnapshotStore(), buf)
    assert result.store.partition_ids() == ids


def test_checkpoint_truncate_equivalence():
    store, wal, buf = _store_with_wal()
    snaps = SnapshotStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    rng = random.Random(3)
    live = []
    for _ in range(300):
        if live and rng.random() < 0.3:
            store.delete(live.pop(rng.randrange(len(live))))
        else:
            live.append(store.put(pid, rng.randbytes(rng.randrange(1, 64))))
    before = _live_mapping(store)
    wal.flush()
    atrest = _at_rest(store)
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    assert buf.durable_len == 0
    result = _recover(snaps, buf, atrest.sealed)
    assert _live_mapping(result.store) == before
    assert result.replayed_count == 0
    # nothing durable since: the checkpoint writes no image
    marker = snaps.get("store.ckpt")
    store.put(pid, b"pending")
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    assert snaps.get("store.ckpt") is marker


def test_size_bound_triggers_truncation():
    """Only a flush checkpoints, right after the sync that took the journal
    past the interval, so the journal never holds more than one interval
    plus one flush."""
    buf = DurableBuffer()
    wal = Wal(buf)
    store = MappingStore(journal=wal)
    snaps = SnapshotStore()
    atrest = _at_rest(store)
    checkpoints = []

    def checkpoint():
        checkpoints.append(wal.durable_lsn)
        checkpoint_truncate(store, wal, snaps, atrest, _no_crash)

    wal.on_checkpoint = checkpoint
    pid = store.create_partition(PartitionKind.PERMANENT)
    payload = bytes(1000)
    flush_bytes = 0
    for i in range(2200):  # > 2 MiB of records against the 1 MiB interval
        store.put(pid, payload)
        if i % 10 == 9:
            flush_bytes = max(flush_bytes, buf.pending_len)
            wal.flush()
        assert buf.durable_len <= CHECKPOINT_INTERVAL_BYTES + flush_bytes
    assert len(checkpoints) == 2
    assert snaps.get("store.ckpt")[8:16] == struct.pack("<Q", checkpoints[-1])
    # recovery from image + truncated log equals the live store
    wal.flush()
    assert _live_mapping(_recover(snaps, buf, atrest.sealed).store) == \
        _live_mapping(store)


def test_checkpoint_keeps_a_record_appended_after_the_last_flush():
    store, wal, buf = _store_with_wal()
    snaps = SnapshotStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"durable")
    wal.flush()
    late = store.put(pid, b"appended after the flush")
    atrest = _at_rest(store)
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    assert buf.durable_len == 0 and buf.pending_len > 0
    wal.flush()
    result = _recover(snaps, buf, atrest.sealed)
    assert result.replayed_count == 1
    assert result.store.get(late) == b"appended after the flush"
    assert _live_mapping(result.store) == _live_mapping(store)


def test_crash_between_image_and_truncation_replays_nothing():
    """The image covers the whole durable journal; recovery cuts that
    covered prefix instead of replaying it."""
    store, wal, buf = _store_with_wal()
    snaps = SnapshotStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    for i in range(20):
        store.put(pid, bytes([i]) * 9)
    wal.flush()

    def crash(site):
        if site == "privacy-checkpoint-before-truncate":
            raise RuntimeError(site)

    atrest = _at_rest(store)
    with pytest.raises(RuntimeError):
        checkpoint_truncate(store, wal, snaps, atrest, crash)
    assert buf.durable_len > 0
    result = _recover(snaps, buf, atrest.sealed)
    assert (buf.durable_len, result.replayed_count) == (0, 0)
    assert _live_mapping(result.store) == _live_mapping(store)
    assert result.wal.next_lsn == wal.next_lsn


@pytest.mark.parametrize("torn_value", [b"two", b"two" * 200],
                         ids=["corrupt-middle", "silent-loss"])
def test_torn_tail_is_cut_so_later_records_survive(torn_value):
    """A crash tears the unsynced tail; records the recovered log appends
    and flushes survive the next recovery. Left in place, the torn frame
    either made that recovery raise CorruptLog or, when its declared length
    ran past the end, silently dropped every later record."""
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"one")
    wal.flush()
    store.put(pid, torn_value)
    buf.crash(torn_bytes=13)
    durable = buf.durable_len
    first = _recover(SnapshotStore(), buf)
    assert buf.durable_len == durable - 13
    first.store.journal = first.wal
    late = first.store.put(pid, b"three")
    first.wal.flush()
    second = _recover(SnapshotStore(), buf)
    assert second.store.get(late) == b"three"
    assert _live_mapping(second.store) == _live_mapping(first.store)


def test_crash_at_random_byte_matches_prefix_oracle():
    """Randomized workload, crash at a random byte inside the unsynced
    tail; the recovered state must equal the oracle's replay of exactly
    the surviving complete records."""
    failures = 0
    for seed in range(60):
        rng = random.Random(seed)
        store, wal, buf = _store_with_wal()
        pid = store.create_partition(PartitionKind.PERMANENT)
        live = []
        for _ in range(rng.randrange(50, 250)):
            roll = rng.random()
            if roll < 0.6 or not live:
                live.append(store.put(pid, rng.randbytes(rng.randrange(1, 48))))
            elif roll < 0.8:
                store.delete(live.pop(rng.randrange(len(live))))
            if rng.random() < 0.1:
                wal.flush()
        torn = rng.randrange(buf.pending_len + 1)
        buf.crash(torn_bytes=torn)

        expected = replay_store_records(buf.durable)
        result = _recover(SnapshotStore(), buf)
        got = _live_mapping(result.store)
        if got != expected:
            failures += 1
    assert failures == 0


def test_recovery_replay_time_is_linear():
    import time

    def replay_time(n):
        store, wal, buf = _store_with_wal()
        pid = store.create_partition(PartitionKind.PERMANENT)
        for i in range(n):
            store.put(pid, struct.pack("<q", i))
        wal.flush()
        t0 = time.perf_counter()
        _recover(SnapshotStore(), buf)
        return time.perf_counter() - t0

    replay_time(2000)  # warm-up
    t1 = max(replay_time(5000), 1e-4)
    t4 = replay_time(20000)
    assert t4 / t1 < 16, f"replay scaled superlinearly: {t4 / t1:.1f}x for 4x records"


def _hand_frame(lsn: int, kind: int, payload: bytes) -> bytes:
    body = struct.pack("<QB", lsn, kind) + payload
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


@pytest.mark.parametrize("kind", ["put", "delete", "create"])
def test_privacy_record_bytes(kind):
    """Each privacy record kind's durable bytes, packed by hand: frame
    {u32 len, u32 crc32}, head {u64 lsn, u8 kind}, then its payload."""
    buf = DurableBuffer()
    wal = Wal(buf, start_lsn=7)
    if kind == "put":
        wal.log_put(0x0003_0000_0000_0011, b"secret")
        expected = _hand_frame(7, 1, struct.pack("<Q", 0x0003_0000_0000_0011)
                               + b"secret")
    elif kind == "delete":
        wal.log_delete(0x0003_0000_0000_0011)
        expected = _hand_frame(7, 2, struct.pack("<Q", 0x0003_0000_0000_0011))
    else:
        wal.log_create(5)
        expected = _hand_frame(7, 3, struct.pack("<I", 5))
    wal.flush()
    assert buf.durable == expected


# Hand-framed privacy records that recovery must refuse: (kind, payload).
# A payload must be exactly its kind's struct, and a put needs its fid and a
# value of one byte or more, since put stores no empty value. The store
# must accept what a record asks: partition 0 holds one value, so its
# allocation counter is 1 there. Kind 5, a block seal's {u32 partition,
# u64 block index, u64 counter}, is retired: a record of it is an unknown
# kind at any length, its old 20 bytes too.
_FID = struct.pack("<Q", 0x0000_0000_0000_0001)
_MISSING = struct.pack("<Q", 5 << OFFSET_BITS)  # partition 5 does not exist
_MALFORMED = {
    "short_put": (1, b"\x01\x00"),
    "put_of_no_value": (1, _FID),
    "short_delete": (2, b"\x01\x00\x00"),
    "long_delete": (2, _FID + b"\x00"),
    "short_create": (3, b"\x07\x00"),
    "long_create": (3, struct.pack("<I", 7) + b"\x00"),
    "short_seal": (5, struct.pack("<IQ", 0, 0)),
    "long_seal": (5, struct.pack("<IQQ", 0, 0, 1) + b"\x00"),
    "retired_seal": (5, struct.pack("<IQQ", 0, 0, 1)),
    "put_past_every_unsynced_put": (1, struct.pack("<Q", 1 + MAX_UNSYNCED_PUTS) + b"x"),
    "put_of_a_value_too_long": (1, _FID + bytes(100_000)),
    "create_past_the_prefix": (3, struct.pack("<I", 70_000)),
    "put_to_a_missing_partition": (1, _MISSING + b"x"),
    "delete_in_a_missing_partition": (2, _MISSING),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_recovery_refuses_a_malformed_record(case):
    """Recovery raises CorruptLog on a record with a valid checksum of a
    retired kind, whose payload is too short or too long for its kind, or
    that asks the store for what it refuses or no crash could leave,
    instead of failing on it with another error or replaying it."""
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"kept")
    wal.flush()
    assert _recover(SnapshotStore(), buf).replayed_count == 2
    kind, payload = _MALFORMED[case]
    buf.replace(buf.durable + _hand_frame(3, kind, payload))
    with pytest.raises(CorruptLog, match="unknown kind" if kind == 5 else None):
        _recover(SnapshotStore(), buf)
