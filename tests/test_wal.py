import os
import random
import struct
import zlib

import pytest

import fidstore.wal as wal_module
from fidstore.atrest_storage import AtRestLayer, SealedBlockStore
from fidstore.durability import DurableBuffer, SnapshotStore
from fidstore.errors import CorruptLog
from fidstore.fid_codec import OFFSET_BITS
from fidstore.mapping_store import MappingStore, PartitionKind
from fidstore.wal import (
    CHECKPOINT_INTERVAL_BYTES,
    DELETE_REC,
    EPOCH_MARKER,
    KIND_DELETE,
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


def _checkpointing(store: MappingStore, wal: Wal, capacity_blocks: int | None = None):
    """Wires wal's checkpoint to store and a block hook to store, as the
    privacy zone does; returns the snapshots and the at-rest layer the
    checkpoint writes to. A put is durable once a flush with the
    checkpoint flag returns."""
    snaps = SnapshotStore()
    atrest = AtRestLayer(store, KEY, sealed_store=SealedBlockStore(),
                         capacity_blocks=capacity_blocks)
    store.blocks = atrest
    wal.on_checkpoint = lambda: checkpoint_truncate(store, wal, snaps, atrest,
                                                    _no_crash)
    return snaps, atrest


def _live_mapping(store: MappingStore) -> dict[int, bytes]:
    out = {}
    for pid in store.partition_ids():
        for fid in store.live_fids(pid):
            out[fid] = store.get(fid)
    return out


def test_lsns_monotonic_from_one():
    _, wal, _ = _store_with_wal()
    lsns = [wal.log_delete(i) for i in range(3)]
    assert lsns == [1, 2, 3]


def test_flush_empty_buffer_is_noop():
    _, wal, buf = _store_with_wal()
    wal.log_delete(1)
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
    cuts the file back to that copy, so the failed record is lost, and the
    records appended after recovery follow intact frames with increasing
    LSNs."""
    path = str(tmp_path / "store.wal")
    buf = DurableBuffer(path)
    wal = Wal(buf)
    store = MappingStore(journal=wal)
    kept = store.create_partition(PartitionKind.PERMANENT)
    wal.flush()
    synced = buf.durable
    store.create_partition(PartitionKind.PERMANENT)
    fail_io("fsync")
    with pytest.raises(OSError):
        wal.flush()
    assert buf.durable == synced and wal.durable_lsn == 1
    buf.crash()
    assert buf.pending_len == 0
    assert DurableBuffer(path).durable == buf.durable == synced
    result = _recover(SnapshotStore(), buf)
    assert result.store.partition_ids() == [kept]
    result.store.journal = result.wal
    later = result.store.create_partition(PartitionKind.PERMANENT)
    result.wal.flush()
    reopened = _recover(SnapshotStore(), DurableBuffer(path))
    assert reopened.store.partition_ids() == [kept, later]
    assert reopened.wal.next_lsn == 3


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
    """25 puts are durable once a checkpoint seals them, and the k delete
    records flushed after it replay on top of the image."""
    store, wal, buf = _store_with_wal()
    snaps, atrest = _checkpointing(store, wal)
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes([i]) * 10) for i in range(25)]
    wal.flush(checkpoint=True)
    for fid in fids[::3]:
        store.delete(fid)
    wal.flush()
    result = _recover(snaps, buf, atrest.sealed)
    assert (len(result.store.live_fids(pid)), result.replayed_count) == (16, 9)
    assert _live_mapping(result.store) == _live_mapping(store)


def test_unflushed_records_do_not_survive():
    """Neither a put no checkpoint covers nor a delete no flush made
    durable survives a crash."""
    store, wal, buf = _store_with_wal()
    snaps, atrest = _checkpointing(store, wal)
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"durable")
    doomed = store.put(pid, b"deleted, but not durably")
    wal.flush(checkpoint=True)
    store.put(pid, b"volatile")
    wal.flush()
    store.delete(doomed)
    buf.crash()
    result = _recover(snaps, buf, atrest.sealed)
    values = set(_live_mapping(result.store).values())
    assert values == {b"durable", b"deleted, but not durably"}


def test_append_continues_after_recovery():
    store, wal, buf = _store_with_wal()
    store.create_partition(PartitionKind.PERMANENT)
    wal.flush()
    last = wal.durable_lsn
    buf.crash()
    result = _recover(SnapshotStore(), buf)
    assert result.wal.next_lsn == last + 1
    nxt = result.wal.log_delete(123)
    assert nxt == last + 1


def test_torn_tail_discarded_corrupt_middle_raises():
    frames = [frame_record(i + 1, KIND_DELETE, DELETE_REC.pack(i))
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
    snaps, atrest = _checkpointing(store, wal)
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes([i]) * 5) for i in range(10)]
    wal.flush(checkpoint=True)
    store.delete(fids[3])
    wal.flush()
    r1 = _recover(snaps, buf, atrest.sealed)
    r2 = _recover(snaps, buf, atrest.sealed)
    assert r1.replayed_count == 1
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
    # no record and no put since: the checkpoint writes no image
    marker = snaps.get("store.ckpt")
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    assert snaps.get("store.ckpt") is marker
    # a put since: the next one does, under an LSN of its own
    store.blocks = atrest
    late = store.put(pid, b"a put no record names")
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    (first_lsn,) = struct.unpack_from("<Q", marker, 8)
    assert snaps.get("store.ckpt")[8:16] == struct.pack("<Q", first_lsn + 1)
    assert wal.durable_lsn == first_lsn + 1 == wal.next_lsn - 1
    result = _recover(snaps, buf, atrest.sealed)
    assert result.store.get(late) == b"a put no record names"


def test_the_put_that_reaches_the_cap_is_in_the_checkpoint_it_runs(monkeypatch):
    """The put that reaches wal.MAX_UNSYNCED_PUTS checkpoints only once its
    block is marked dirty, so the checkpoint seals the block with the value
    in it. With the cap at 1 every put checkpoints, and behind a 1-block
    cache the puts alternate between two size classes' blocks, so each
    goes to a block that left the cache clean, with a current copy; a crash
    right after loses none of them."""
    monkeypatch.setattr(wal_module, "MAX_UNSYNCED_PUTS", 1)
    store, wal, buf = _store_with_wal()
    snaps, atrest = _checkpointing(store, wal, capacity_blocks=1)
    pid = store.create_partition(PartitionKind.PERMANENT)
    values = {}
    for i in range(1, 7):
        value = bytes([i]) * (8 if i % 2 else 40)  # class 16, or class 64
        values[store.put(pid, value)] = value
    assert wal.puts == 0 and len(atrest.copies) == 2
    buf.crash()
    assert _live_mapping(_recover(snaps, buf, atrest.sealed).store) == values


def test_size_bound_triggers_truncation(monkeypatch):
    """Only a flush checkpoints, right after the sync that took the journal
    past the interval, so the journal never holds more than one interval
    plus one flush. The interval is lowered to 4 KiB, since a delete
    record is 25 bytes."""
    monkeypatch.setattr(wal_module, "CHECKPOINT_INTERVAL_BYTES", 4096)
    store, wal, buf = _store_with_wal()
    snaps, atrest = _checkpointing(store, wal)
    checkpoints = []
    checkpoint = wal.on_checkpoint

    def counted():
        checkpoint()
        checkpoints.append(wal.durable_lsn)

    wal.on_checkpoint = counted
    pid = store.create_partition(PartitionKind.PERMANENT)
    flush_bytes = 0
    for i in range(400):  # > 8 KiB of delete records against the interval
        store.delete(store.put(pid, bytes([i % 256]) * 8))
        store.put(pid, bytes([i % 256]) * 8)
        if i % 10 == 9:
            flush_bytes = max(flush_bytes, buf.pending_len)
            wal.flush()
        assert buf.durable_len <= 4096 + flush_bytes
    assert len(checkpoints) == 2
    assert snaps.get("store.ckpt")[8:16] == struct.pack("<Q", checkpoints[-1])
    # once a checkpoint seals the last puts, recovery equals the live store
    wal.flush(checkpoint=True)
    assert _live_mapping(_recover(snaps, buf, atrest.sealed).store) == \
        _live_mapping(store)


def test_checkpoint_keeps_a_record_appended_after_the_last_flush():
    """A record appended after the last flush stays pending across the
    truncation. The image holds its effect and an LSN past it, so once a
    sync makes it durable, recovery cuts it instead of replaying it."""
    store, wal, buf = _store_with_wal()
    snaps = SnapshotStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    gone = store.put(pid, b"deleted after the flush")
    store.put(pid, b"kept")
    wal.flush()
    store.delete(gone)
    atrest = _at_rest(store)
    checkpoint_truncate(store, wal, snaps, atrest, _no_crash)
    assert buf.durable_len == 0 and buf.pending_len > 0
    wal.flush()
    result = _recover(snaps, buf, atrest.sealed)
    assert (result.replayed_count, buf.durable_len) == (0, 0)
    assert not result.store.is_live(gone)
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


@pytest.mark.parametrize("torn", [13, 3], ids=["corrupt-middle", "silent-loss"])
def test_torn_tail_is_cut_so_later_records_survive(torn):
    """A crash tears the unsynced tail, here a delete record; records the
    recovered log appends and flushes survive the next recovery. Left in
    place, the torn frame either made that recovery raise CorruptLog (torn
    inside its body) or, when its declared length ran past the end (torn
    inside its length, which then takes a byte of the next frame), silently
    dropped every later record."""
    store, wal, buf = _store_with_wal()
    pid = store.create_partition(PartitionKind.PERMANENT)
    wal.flush()
    store.delete(store.put(pid, b"one"))
    buf.crash(torn_bytes=torn)
    durable = buf.durable_len
    first = _recover(SnapshotStore(), buf)
    assert buf.durable_len == durable - torn
    first.store.journal = first.wal
    late = first.store.create_partition(PartitionKind.PERMANENT)
    first.wal.flush()
    second = _recover(SnapshotStore(), buf)
    assert second.store.partition_ids() == [pid, late]
    assert second.replayed_count == 2


def test_crash_at_random_byte_matches_prefix_oracle():
    """Randomized workload, crash at a random byte inside the unsynced
    tail; the recovered state must equal the oracle's replay of exactly
    the surviving complete records over the last checkpoint's mapping."""
    failures = 0
    for seed in range(60):
        rng = random.Random(seed)
        store, wal, buf = _store_with_wal()
        snaps, atrest = _checkpointing(store, wal)
        pid = store.create_partition(PartitionKind.PERMANENT)
        live = []
        image = {}
        for _ in range(rng.randrange(50, 250)):
            roll = rng.random()
            if roll < 0.6 or not live:
                live.append(store.put(pid, rng.randbytes(rng.randrange(1, 48))))
            elif roll < 0.8:
                store.delete(live.pop(rng.randrange(len(live))))
            if rng.random() < 0.1:
                checkpoint = rng.random() < 0.3
                wal.flush(checkpoint=checkpoint)
                if checkpoint:
                    image = _live_mapping(store)
        torn = rng.randrange(buf.pending_len + 1)
        buf.crash(torn_bytes=torn)

        expected = replay_store_records(buf.durable, image)
        result = _recover(snaps, buf, atrest.sealed)
        got = _live_mapping(result.store)
        if got != expected:
            failures += 1
    assert failures == 0


def test_recovery_replay_time_is_linear():
    import time

    def replay_time(n):
        """Recovery of an image of n values and n delete records."""
        store, wal, buf = _store_with_wal()
        snaps, atrest = _checkpointing(store, wal)
        pid = store.create_partition(PartitionKind.PERMANENT)
        fids = [store.put(pid, struct.pack("<q", i)) for i in range(2 * n)]
        wal.flush(checkpoint=True)
        for fid in fids[::2]:
            store.delete(fid)
        wal.flush()
        t0 = time.perf_counter()
        _recover(snaps, buf, atrest.sealed)
        return time.perf_counter() - t0

    replay_time(2000)  # warm-up
    t1 = max(replay_time(5000), 1e-4)
    t4 = replay_time(20000)
    assert t4 / t1 < 16, f"replay scaled superlinearly: {t4 / t1:.1f}x for 4x records"


def _hand_frame(lsn: int, kind: int, payload: bytes) -> bytes:
    body = struct.pack("<QB", lsn, kind) + payload
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


@pytest.mark.parametrize("kind", ["delete", "create"])
def test_privacy_record_bytes(kind):
    """Each privacy record kind's durable bytes, packed by hand: frame
    {u32 len, u32 crc32}, head {u64 lsn, u8 kind}, then its payload."""
    buf = DurableBuffer()
    wal = Wal(buf, start_lsn=7)
    if kind == "delete":
        wal.log_delete(0x0003_0000_0000_0011)
        expected = _hand_frame(7, 2, struct.pack("<Q", 0x0003_0000_0000_0011))
    else:
        wal.log_create(5)
        expected = _hand_frame(7, 3, struct.pack("<I", 5))
    wal.flush()
    assert buf.durable == expected


# Hand-framed privacy records that recovery must refuse: (kind, payload).
# A payload must be exactly its kind's struct, and the store must accept
# what a record asks: partition 0 exists. Kinds 1 and 5 are retired: a
# record of either is an unknown kind at any length, its old one too. Kind
# 1 was a put, PUT_REC {u64 fid} and then the value; kind 5 a block seal's
# {u32 partition, u64 block index, u64 counter}.
_FID = struct.pack("<Q", 0x0000_0000_0000_0001)
_MISSING = struct.pack("<Q", 5 << OFFSET_BITS)  # partition 5 does not exist
_MALFORMED = {
    "short_put": (1, b"\x01\x00"),
    "put_of_no_value": (1, _FID),
    "retired_put": (1, _FID + b"secret"),
    "short_delete": (2, b"\x01\x00\x00"),
    "long_delete": (2, _FID + b"\x00"),
    "short_create": (3, b"\x07\x00"),
    "long_create": (3, struct.pack("<I", 7) + b"\x00"),
    "short_seal": (5, struct.pack("<IQ", 0, 0)),
    "long_seal": (5, struct.pack("<IQQ", 0, 0, 1) + b"\x00"),
    "retired_seal": (5, struct.pack("<IQQ", 0, 0, 1)),
    "create_past_the_prefix": (3, struct.pack("<I", 70_000)),
    "delete_in_a_missing_partition": (2, _MISSING),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_recovery_refuses_a_malformed_record(case):
    """Recovery raises CorruptLog on a record with a valid checksum of a
    retired kind, whose payload is too short or too long for its kind, or
    that asks the store for what it refuses or no crash could leave,
    instead of failing on it with another error or replaying it."""
    store, wal, buf = _store_with_wal()
    store.create_partition(PartitionKind.PERMANENT)
    wal.flush()
    assert _recover(SnapshotStore(), buf).replayed_count == 1
    kind, payload = _MALFORMED[case]
    buf.replace(buf.durable + _hand_frame(3, kind, payload))
    with pytest.raises(CorruptLog, match="unknown kind" if kind in (1, 5) else None):
        _recover(SnapshotStore(), buf)
