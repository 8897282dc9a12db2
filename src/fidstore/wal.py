"""Append-only redo log for permanent-partition mutations.

Record framing is {u32 len, u32 crc32, body}, little-endian, crc over the
body. A length/crc mismatch in the tail region means a torn write and ends
replay; the same mismatch with intact frames after it means tampering and
raises CorruptLog. The log is redo-only: aborts are handled by version
visibility in the table engine, never by undo.

flush() has group-commit semantics: one call makes every record buffered
so far durable, regardless of which transaction appended it.

Both zones checkpoint their journal at one interval,
CHECKPOINT_INTERVAL_BYTES of records written since the last checkpoint:
this log through checkpoint_truncate, the integrity zone's log through
Database.checkpoint (integrity_dbms). So each zone's recovery replays at
most about one interval of records on top of its checkpoint image.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field

from .durability import DurableBuffer, SnapshotStore
from .errors import CorruptLog, IoFailure, LogClosed
from .fid_codec import FidConfig
from .mapping_store import MappingStore

FRAME = struct.Struct("<II")
REC_HEAD = struct.Struct("<QB")

KIND_PUT = 1
KIND_DELETE = 2
KIND_CREATE_PARTITION = 3
KIND_CHECKPOINT = 4
KIND_SEAL = 5

# Bytes a zone's journal may grow by between two checkpoints. Read at each
# check, never bound at import, so a test may lower it for both zones.
CHECKPOINT_INTERVAL_BYTES = 1024 * 1024

CKPT_MARKER = "store.ckpt"
FRESHNESS_SNAPSHOT = "store.freshness"
EPOCH_MARKER = "store.epoch"


@dataclass
class WalRecord:
    lsn: int
    kind: int
    fid: int = 0
    value: bytes = b""
    partition_id: int = 0
    partition_kind: int = 0
    layout: int = 0
    width: int = 0
    durable_lsn: int = 0
    block_index: int = 0
    counter: int = 0

    def encode_body(self) -> bytes:
        head = REC_HEAD.pack(self.lsn, self.kind)
        k = self.kind
        if k == KIND_PUT:
            return head + struct.pack("<Q", self.fid) + self.value
        if k == KIND_DELETE:
            return head + struct.pack("<Q", self.fid)
        if k == KIND_CREATE_PARTITION:
            return head + struct.pack("<IBBI", self.partition_id,
                                      self.partition_kind, self.layout, self.width)
        if k == KIND_CHECKPOINT:
            return head + struct.pack("<Q", self.durable_lsn)
        if k == KIND_SEAL:
            return head + struct.pack("<IQQ", self.partition_id,
                                      self.block_index, self.counter)
        raise ValueError(f"unknown record kind {k}")

    @classmethod
    def decode_body(cls, body: bytes) -> "WalRecord":
        lsn, kind = REC_HEAD.unpack_from(body, 0)
        pos = REC_HEAD.size
        rec = cls(lsn=lsn, kind=kind)
        if kind == KIND_PUT:
            (rec.fid,) = struct.unpack_from("<Q", body, pos)
            rec.value = body[pos + 8:]
        elif kind == KIND_DELETE:
            (rec.fid,) = struct.unpack_from("<Q", body, pos)
        elif kind == KIND_CREATE_PARTITION:
            (rec.partition_id, rec.partition_kind, rec.layout,
             rec.width) = struct.unpack_from("<IBBI", body, pos)
        elif kind == KIND_CHECKPOINT:
            (rec.durable_lsn,) = struct.unpack_from("<Q", body, pos)
        elif kind == KIND_SEAL:
            (rec.partition_id, rec.block_index,
             rec.counter) = struct.unpack_from("<IQQ", body, pos)
        else:
            raise CorruptLog(f"unknown record kind {kind}")
        return rec


def frame_record(body: bytes) -> bytes:
    return FRAME.pack(len(body), zlib.crc32(body)) + body


def read_frames(data: bytes) -> list[bytes]:
    """Parse framed records; discards a torn tail, raises CorruptLog on
    damage that cannot be a simple truncation."""
    out = []
    pos = 0
    size = len(data)
    while pos < size:
        if pos + FRAME.size > size:
            break  # torn frame header
        length, crc = FRAME.unpack_from(data, pos)
        end = pos + FRAME.size + length
        if end > size:
            break  # torn body
        body = data[pos + FRAME.size:end]
        if zlib.crc32(body) != crc:
            if end < size:
                raise CorruptLog(f"checksum mismatch at offset {pos} before the tail")
            break  # torn rewrite of the final record
        out.append(body)
        pos = end
    return out


class Wal:
    """Mapping-store journal, checkpointed at the interval both zones share.

    When appending a record would take the bytes written since the last
    checkpoint past CHECKPOINT_INTERVAL_BYTES, the checkpoint callback runs
    first and truncates the log, so the record opens the next interval.
    """

    def __init__(self, buffer: DurableBuffer, *, start_lsn: int = 1,
                 bytes_since_checkpoint: int = 0):
        self.buffer = buffer
        self.next_lsn = start_lsn
        self.durable_lsn = start_lsn - 1
        self._flushed_lsn_pending = start_lsn - 1
        self.bytes_since_checkpoint = bytes_since_checkpoint
        self.on_checkpoint = None  # set by the owning runtime
        self.closed = False
        # reentrant: an interval checkpoint flushes from inside append
        self._lock = threading.RLock()

    # -- append paths -------------------------------------------------

    def append(self, record: WalRecord) -> int:
        if self.closed:
            raise LogClosed("wal is closed")
        with self._lock:
            record.lsn = self.next_lsn
            framed = frame_record(record.encode_body())
            if (self.on_checkpoint is not None
                    and record.kind != KIND_CHECKPOINT
                    and self.bytes_since_checkpoint + len(framed)
                    > CHECKPOINT_INTERVAL_BYTES):
                self.on_checkpoint()
                record.lsn = self.next_lsn
                framed = frame_record(record.encode_body())
            self.next_lsn += 1
            self.buffer.append(framed)
            self._flushed_lsn_pending = record.lsn
            self.bytes_since_checkpoint += len(framed)
            return record.lsn

    def log_put(self, fid: int, value: bytes) -> int:
        return self.append(WalRecord(0, KIND_PUT, fid=fid, value=value))

    def log_delete(self, fid: int) -> int:
        return self.append(WalRecord(0, KIND_DELETE, fid=fid))

    def log_create(self, pid: int, kind: int, layout: int, width: int) -> int:
        return self.append(WalRecord(0, KIND_CREATE_PARTITION, partition_id=pid,
                                     partition_kind=kind, layout=layout, width=width))

    def log_seal(self, pid: int, block_index: int, counter: int) -> int:
        return self.append(WalRecord(0, KIND_SEAL, partition_id=pid,
                                     block_index=block_index, counter=counter))

    # -- durability ----------------------------------------------------

    def flush(self) -> int:
        """Blocking flush of everything buffered; returns highest durable lsn."""
        if self.closed:
            raise LogClosed("wal is closed")
        with self._lock:
            try:
                self.buffer.sync()
            except OSError as exc:
                raise IoFailure(str(exc)) from exc
            self.durable_lsn = self._flushed_lsn_pending
            return self.durable_lsn

    def close(self) -> None:
        self.closed = True


# ----------------------------------------------------------------------
# checkpoint and recovery


def checkpoint_truncate(store: MappingStore, wal: Wal, snapshots: SnapshotStore,
                        freshness=None, crash_hook=None) -> None:
    """Persist a store image and drop the log prefix it covers.

    Order matters for crash consistency: flush first (so the image never
    reflects un-journaled state), write images, then the marker, then swap
    in a fresh log seeded with a checkpoint record. Replay after a crash at
    any point in this sequence reconstructs the same state because record
    application is idempotent. crash_hook, if given, is called with a site
    name once the image and its marker are written and again once the log
    is truncated.
    """
    if wal.bytes_since_checkpoint == 0 and wal.buffer.pending_len == 0:
        return
    wal.flush()
    covered = wal.durable_lsn
    for pid in store.partition_ids():
        p = store.partition(pid)
        if p.kind != 1:  # PartitionKind.PERMANENT
            continue
        data, state = store.dump_partition(pid)
        snapshots.put_atomic(f"part-{pid:05d}.dat", data)
        snapshots.put_atomic(f"part-{pid:05d}.state", state)
    if freshness is not None:
        snapshots.put_atomic(FRESHNESS_SNAPSHOT, freshness.snapshot_bytes())
    snapshots.put_atomic(CKPT_MARKER, struct.pack("<Q", covered))
    if crash_hook is not None:
        crash_hook("privacy_checkpoint_image")
    # the checkpoint record reuses the covered LSN, so LSNs, and the durable
    # LSN a flush reports, run on as if no checkpoint had happened
    ckpt = WalRecord(covered, KIND_CHECKPOINT, durable_lsn=covered)
    wal.buffer.replace(frame_record(ckpt.encode_body()))
    wal.bytes_since_checkpoint = 0
    if crash_hook is not None:
        crash_hook("privacy_checkpoint_truncated")


@dataclass
class RecoveryResult:
    store: MappingStore
    wal: Wal
    replayed_count: int
    freshness_entries: dict = field(default_factory=dict)
    epoch: int = 0


def recover_store(snapshots: SnapshotStore, wal_buffer: DurableBuffer,
                  config: FidConfig | None = None) -> RecoveryResult:
    """Rebuild a MappingStore from the last checkpoint image plus the
    durable log suffix. Running it twice over the same files yields the
    same state (replay application is idempotent and pure)."""
    store = MappingStore(config)
    marker = snapshots.get(CKPT_MARKER)
    ckpt_lsn = struct.unpack("<Q", marker)[0] if marker else 0
    for name in snapshots.names():
        if not name.endswith(".dat") or not name.startswith("part-"):
            continue
        pid = int(name[5:10])
        state = snapshots.get(f"part-{pid:05d}.state") or b""
        store.load_partition(pid, snapshots.get(name), state)

    freshness_entries: dict[tuple[int, int], int] = {}
    snap = snapshots.get(FRESHNESS_SNAPSHOT)
    if snap:
        for off in range(0, len(snap), 20):
            pid, bidx, counter = struct.unpack_from("<IQQ", snap, off)
            freshness_entries[(pid, bidx)] = counter

    replayed = 0
    last_lsn = ckpt_lsn
    prev_lsn = 0
    for body in read_frames(wal_buffer.durable):
        rec = WalRecord.decode_body(body)
        if rec.lsn <= prev_lsn:
            raise CorruptLog(f"lsn {rec.lsn} not increasing after {prev_lsn}")
        prev_lsn = rec.lsn
        if rec.lsn <= ckpt_lsn:
            continue  # already folded into the checkpoint image
        last_lsn = max(last_lsn, rec.lsn)
        if rec.kind == KIND_PUT:
            store.apply_put(rec.fid, rec.value)
        elif rec.kind == KIND_DELETE:
            store.apply_delete(rec.fid)
        elif rec.kind == KIND_CREATE_PARTITION:
            store.apply_create(rec.partition_id, rec.partition_kind,
                               rec.layout, rec.width)
        elif rec.kind == KIND_SEAL:
            key = (rec.partition_id, rec.block_index)
            if freshness_entries.get(key, 0) < rec.counter:
                freshness_entries[key] = rec.counter
        # checkpoint records carry no state
        replayed += 1
    store.rebuild_free_lists()

    epoch_raw = snapshots.get(EPOCH_MARKER)
    epoch = struct.unpack("<Q", epoch_raw)[0] if epoch_raw else 0

    wal = Wal(wal_buffer, start_lsn=last_lsn + 1,
              bytes_since_checkpoint=wal_buffer.durable_len)
    return RecoveryResult(store=store, wal=wal, replayed_count=replayed,
                          freshness_entries=freshness_entries, epoch=epoch)
