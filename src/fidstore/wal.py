"""Append-only redo log for permanent-partition mutations.

Record framing is {u32 len, u32 crc32, body}, little-endian, crc over the
body; every body of both zones' journals is REC_HEAD {u64 lsn, u8 kind}
and then the kind's payload, and this module alone frames and parses it
(frame_record, journal_after). A length/crc mismatch in the tail region
means a torn write and ends replay; the same mismatch with intact frames
after it means tampering and raises CorruptLog. The log is redo-only:
aborts are handled by version visibility in the table engine, never by
undo.

The privacy zone's payloads, one struct per kind:

- KIND_PUT: PUT_REC {u64 fid}, then the value;
- KIND_DELETE: DELETE_REC {u64 fid};
- KIND_CREATE_PARTITION: CREATE_REC {u32 partition id} (always a permanent
  partition: temporaries are never journaled);
- KIND_SEAL: SEAL_REC {u32 partition, u64 block index, u64 counter}; a
  seal, or the counter advance of a dropped block's retired sealed copy.

flush() has group-commit semantics: one call makes every record buffered
so far durable, regardless of which transaction appended it. No commit
waits for it: the privacy journal syncs when MSG_FLUSH_LOG asks (see
messages) and before MSG_PROMOTE replies. A committed put that a crash
loses from the unsynced tail comes back from its recipe in the integrity
journal (MSG_RESTORE), and every integrity checkpoint flushes this journal
before it drops its recipes, so the restore work after a crash is bounded
by one integrity checkpoint interval of puts. The journal also syncs
itself, inside the put, once MAX_UNSYNCED_PUTS puts are pending, so a
crash loses fewer allocations than that from any partition; MSG_RESTORE
refuses a FID beyond that many offsets past its partition's recovered
allocation counter. No workload reaches the cap between two flushes.

One checkpoint rule holds for both zones' journals: a zone checkpoints
right after a sync that took its journal past CHECKPOINT_INTERVAL_BYTES
(past_interval), or at quiesce, if its journal holds records. Here both
happen inside flush, so inside MSG_FLUSH_LOG; quiesce is the flag on the
flush that ends Database.orphan_gc, which runs with no transaction active.
Its image holds the last LSN it covers, and the journal is truncated to
empty. LSNs increase along each journal, and recovery reads it through
journal_after, which replays only the records past the cover. So each zone
replays at most one interval plus one sync on top of its image, and none
after maintenance.

Besides the partition images, the privacy zone's snapshots hold the
freshness table (FreshnessTable owns its bytes) and the epoch marker
{u64 epoch}, which advance_epoch alone reads and writes.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from .atrest_storage import FreshnessTable
from .durability import DurableBuffer, SnapshotStore
from .errors import CorruptLog, FidStoreError
from .fid_codec import OFFSET_BITS, OFFSET_MASK
from .mapping_store import MappingStore, PartitionKind

FRAME = struct.Struct("<II")
REC_HEAD = struct.Struct("<QB")  # lsn, kind: the head of every record body

KIND_PUT = 1
KIND_DELETE = 2
KIND_CREATE_PARTITION = 3
KIND_SEAL = 5

PUT_REC = struct.Struct("<Q")  # fid; the value follows
DELETE_REC = struct.Struct("<Q")  # fid
CREATE_REC = struct.Struct("<I")  # partition id
SEAL_REC = struct.Struct("<IQQ")  # partition, block index, counter

_U64 = struct.Struct("<Q")  # the checkpoint marker's LSN; the epoch marker

# Bytes a zone's journal may grow by between two checkpoints. Read at each
# check, never bound at import, so a test may lower it for both zones.
CHECKPOINT_INTERVAL_BYTES = 1024 * 1024
# Puts the journal may hold unsynced: the put that reaches it syncs. Read
# at each check, like the interval.
MAX_UNSYNCED_PUTS = 1 << 16

CKPT_MARKER = "store.ckpt"
FRESHNESS_SNAPSHOT = "store.freshness"
EPOCH_MARKER = "store.epoch"


def frame_record(lsn: int, kind: int, payload: bytes) -> bytes:
    """One journal record's bytes: the frame around REC_HEAD and payload."""
    body = REC_HEAD.pack(lsn, kind) + payload
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


def past_interval(buffer: DurableBuffer) -> bool:
    """The checkpoint trigger both zones share, asked right after a sync: a
    checkpoint truncates its journal to empty, so the journal's durable
    length is the bytes synced since the last one."""
    return buffer.durable_len > CHECKPOINT_INTERVAL_BYTES


def journal_after(buffer: DurableBuffer,
                  covered_lsn: int) -> list[tuple[int, int, bytes]]:
    """The durable journal's records past covered_lsn, in order, each as
    (lsn, kind, payload); raises CorruptLog unless LSNs increase along the
    journal.

    Cuts the journal to exactly the records it returns: a prefix the image
    covers (left by a crash between writing the image and truncating) and a
    torn tail both go, so records appended after recovery follow intact
    frames and the journal's length counts toward the next checkpoint."""
    records = []
    start = end = prev_lsn = 0
    head = REC_HEAD.size
    for body in read_frames(buffer.durable):
        lsn, kind = REC_HEAD.unpack_from(body, 0)
        if lsn <= prev_lsn:
            raise CorruptLog(f"lsn {lsn} not increasing after {prev_lsn}")
        prev_lsn = lsn
        end += FRAME.size + len(body)
        if lsn <= covered_lsn:
            start = end
        else:
            records.append((lsn, kind, body[head:]))
    if (start, end) != (0, buffer.durable_len):
        buffer.replace(buffer.durable[start:end])
    return records


class Wal:
    """Mapping-store journal. A flush that takes the journal past the
    checkpoint interval, or a flush at quiesce, runs the checkpoint
    callback right after its sync, before it replies."""

    def __init__(self, buffer: DurableBuffer, *, start_lsn: int = 1):
        self.buffer = buffer
        self.next_lsn = start_lsn
        self.durable_lsn = start_lsn - 1
        self.unsynced_puts = 0
        self.on_checkpoint = None  # set by the owning runtime

    # -- append paths -------------------------------------------------

    def append(self, kind: int, payload: bytes) -> int:
        """Buffers one record; returns its LSN."""
        lsn = self.next_lsn
        self.next_lsn = lsn + 1
        self.buffer.append(frame_record(lsn, kind, payload))
        return lsn

    def log_put(self, fid: int, value: bytes) -> int:
        lsn = self.append(KIND_PUT, PUT_REC.pack(fid) + value)
        self.unsynced_puts += 1
        if self.unsynced_puts >= MAX_UNSYNCED_PUTS:
            self._sync()
        return lsn

    def log_delete(self, fid: int) -> int:
        return self.append(KIND_DELETE, DELETE_REC.pack(fid))

    def log_create(self, pid: int) -> int:
        return self.append(KIND_CREATE_PARTITION, CREATE_REC.pack(pid))

    def log_seal(self, pid: int, block_index: int, counter: int) -> int:
        return self.append(KIND_SEAL, SEAL_REC.pack(pid, block_index, counter))

    # -- durability ----------------------------------------------------

    def flush(self, quiesce: bool = False) -> int:
        """Blocking flush of everything buffered; returns highest durable lsn.
        Checkpoints after the sync past the interval, or with quiesce."""
        self._sync()
        if self.on_checkpoint is not None and (quiesce or past_interval(self.buffer)):
            self.on_checkpoint()
        return self.durable_lsn

    def _sync(self) -> None:
        self.buffer.sync()
        self.durable_lsn = self.next_lsn - 1
        self.unsynced_puts = 0


# ----------------------------------------------------------------------
# checkpoint and recovery


def checkpoint_truncate(store: MappingStore, wal: Wal, snapshots: SnapshotStore,
                        freshness: FreshnessTable, crash_hook) -> None:
    """Persist a store image covering the durable LSN, then truncate the
    journal to empty.

    The partition images and the freshness table go first, then the marker
    holding the covered LSN. A record appended after the last flush is not
    covered: it stays pending across the truncation and is replayed after
    the image. Replay after a crash at any point in this sequence
    reconstructs the same state because record application is idempotent.
    crash_hook is called with the crash point's name once the image and its
    marker are written and again once the journal is truncated.
    """
    if wal.buffer.durable_len == 0:
        return  # the journal holds nothing an image would cover
    for pid in store.partition_ids():
        if store.partition(pid).kind == PartitionKind.PERMANENT:
            snapshots.put_atomic(f"part-{pid:05d}.dat", store.dump_partition(pid))
    snapshots.put_atomic(FRESHNESS_SNAPSHOT, freshness.snapshot_bytes())
    snapshots.put_atomic(CKPT_MARKER, _U64.pack(wal.durable_lsn))
    crash_hook("privacy-checkpoint-before-truncate")
    wal.buffer.replace(b"")
    crash_hook("privacy-checkpoint-after-truncate")


@dataclass
class RecoveryResult:
    store: MappingStore
    wal: Wal
    replayed_count: int
    freshness: FreshnessTable


def recover_store(snapshots: SnapshotStore, wal_buffer: DurableBuffer) -> RecoveryResult:
    """Rebuild a MappingStore and the freshness table from the last
    checkpoint image plus the durable log suffix. Running it twice over the
    same files yields the same state (replay application is idempotent and
    pure).

    A record of an unknown kind, one whose payload is not its kind's struct
    (for KIND_PUT, the struct and a value), one the store refuses, or a put
    MAX_UNSYNCED_PUTS or more offsets past its partition's allocation
    counter, which no crash can leave, raises CorruptLog."""
    store = MappingStore()
    marker = snapshots.get(CKPT_MARKER)
    last_lsn = _U64.unpack(marker)[0] if marker else 0
    for name in snapshots.names():
        if name.endswith(".dat") and name.startswith("part-"):
            store.load_partition(int(name[5:10]), snapshots.get(name))
    freshness = FreshnessTable.from_snapshot(snapshots.get(FRESHNESS_SNAPSHOT))

    records = journal_after(wal_buffer, last_lsn)
    for lsn, kind, payload in records:
        last_lsn = lsn
        try:
            if kind == KIND_PUT:
                (fid,) = PUT_REC.unpack_from(payload)
                off = fid & OFFSET_MASK
                if off >= store.partition(fid >> OFFSET_BITS).alloc_counter \
                        + MAX_UNSYNCED_PUTS:
                    raise CorruptLog(f"offset {off} lies past every unsynced put")
                store.apply_put(fid, payload[PUT_REC.size:])
            elif kind == KIND_DELETE:
                store.apply_delete(*DELETE_REC.unpack(payload))
            elif kind == KIND_CREATE_PARTITION:
                store.apply_create(*CREATE_REC.unpack(payload))
            elif kind == KIND_SEAL:
                freshness.replay_seal(*SEAL_REC.unpack(payload))
            else:
                raise CorruptLog(f"unknown kind {kind}")
        except (struct.error, FidStoreError) as exc:
            raise CorruptLog(f"privacy record {lsn}: {exc}") from None
    store.rebuild_free_lists()

    wal = Wal(wal_buffer, start_lsn=last_lsn + 1)
    return RecoveryResult(store=store, wal=wal, replayed_count=len(records),
                          freshness=freshness)


def advance_epoch(snapshots: SnapshotStore) -> int:
    """Advances the recovery epoch marker by one and returns the new epoch
    (1 after the first recovery)."""
    raw = snapshots.get(EPOCH_MARKER)
    epoch = (_U64.unpack(raw)[0] if raw else 0) + 1
    snapshots.put_atomic(EPOCH_MARKER, _U64.pack(epoch))
    return epoch
