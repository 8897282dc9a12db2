"""Append-only redo logs: both zones' record framing, and the privacy
zone's journal of permanent-partition deletes and creations.

Record framing is {u32 len, u32 crc32, body}, little-endian, crc over the
body; every body of both zones' journals is REC_HEAD {u64 lsn, u8 kind}
and then the kind's payload, and this module alone frames and parses it
(frame_record, journal_after). A length/crc mismatch in the tail region
means a torn write and ends replay; the same mismatch with intact frames
after it means tampering and raises CorruptLog. The log is redo-only:
aborts are handled by version visibility in the table engine, never by
undo. The same frame wraps each snapshot not sealed (frame, unframe): the
engine's image, and here the checkpoint marker and the epoch marker; a
loader raises CorruptLog unless the snapshot is exactly one intact frame.

The privacy zone's payloads, one struct per kind:

- KIND_DELETE: DELETE_REC {u64 fid};
- KIND_CREATE_PARTITION: CREATE_REC {u32 partition id} (always a permanent
  partition: temporaries are never journaled).

So the journal holds FIDs and partition ids, never a value, and the
at-rest layer never writes to it (its seal counter comes back from the
slot maps, see recover_store). A put is not journaled: a secret is durable
once a privacy checkpoint seals it, and until then the integrity journal
holds the recipe that wrote it (messages), which MSG_RESTORE re-runs after
a crash. The journal counts the puts to permanent partitions since the
last checkpoint instead (note_put), and the put that reaches
MAX_UNSYNCED_PUTS runs a checkpoint, once its block is marked dirty, so a
crash loses fewer allocations than that from any partition; MSG_RESTORE
refuses a FID beyond that many offsets past its partition's recovered
allocation counter. No workload reaches the cap between two checkpoints.

flush() has group-commit semantics: one call makes every record buffered
so far durable, regardless of which transaction appended it. No commit
waits for it: the privacy journal syncs when MSG_FLUSH_LOG asks (see
messages). Only a flush that checkpoints makes a put durable.

One checkpoint rule holds for both zones' journals: a zone checkpoints
right after a sync that took its journal past CHECKPOINT_INTERVAL_BYTES
(past_interval), or when the other zone asks. Here both happen inside
flush, so inside MSG_FLUSH_LOG; the ask is its checkpoint flag, which the
engine sets on each flush that must make secrets durable (messages), and
which MSG_PROMOTE and the put cap set themselves. An asked checkpoint runs
if the journal holds records or a put came since the last checkpoint, so
after it this journal holds no record older than the ask, and every secret
put before the ask is sealed. A record a plain flush made durable (a
delete's, a partition's) stays until the next privacy checkpoint. The
privacy zone's own interval still applies, since the engine does not drive
every flush of this journal (vacuum's deletes, the cipher baseline). An
image holds an LSN of its own, past every record it covers, and the
journal is truncated to empty. LSNs increase along each journal, and
recovery reads it through journal_after, which replays only the records
past the cover. So each zone replays at most one interval plus one sync on
top of its image, and none after maintenance.

The privacy checkpoint writes no plaintext. It seals, through the at-rest
layer, every block of a permanent partition that lacks a current sealed
copy, and writes each such block back: the copy becomes the block's
current one and the block turns clean, so no eviction seals it again until
it is written (AtRestLayer.checkpoint_copies). Then it writes per
permanent partition a slot map sealed under (partition, MAP_INDEX, covered
LSN, epoch) and named by the covered LSN (map_name): a u32 copy count, a
COPY_REC {u64 block index, u64 counter, u64 epoch} per block copy it
keeps, in address order, then MappingStore.slot_map. Last comes the
marker: MARKER_HEAD {u64 covered LSN, u64 epoch}, then a u32 per permanent
partition, that list sealed like a slot map under the partition id
MARKER_PID, which no partition reaches, so no partition can be struck from
it. Only once the marker is written do the kept copies replace the last
checkpoint's (SealedBlockStore.retain) and older maps go, so a crash
anywhere before leaves the last checkpoint whole. recover_store opens the
marker's list, exactly its maps and the copies they name, rebuilds each
partition through MappingStore.load_slot_map and then replays the journal,
so a wrong, old or missing copy, map or list raises CorruptLog before
recovery deletes a copy. The epoch marker {u64 epoch} is advance_epoch's
alone.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from .atrest_storage import AtRestLayer, BlockSealer, SealedBlockStore
from .durability import DurableBuffer, SnapshotStore
from .errors import AuthFailure, CorruptLog, FidStoreError, StaleBlock
from .fid_codec import MAX_PARTITIONS
from .mapping_store import MappingStore, PartitionKind

FRAME = struct.Struct("<II")
REC_HEAD = struct.Struct("<QB")  # lsn, kind: the head of every record body

# Kinds 1 (KIND_PUT: PUT_REC {u64 fid}, then the value), 4 and 5 are retired
# and never reused.
KIND_DELETE = 2
KIND_CREATE_PARTITION = 3

DELETE_REC = struct.Struct("<Q")  # fid
CREATE_REC = struct.Struct("<I")  # partition id

_U64 = struct.Struct("<Q")  # the epoch marker
_U32 = struct.Struct("<I")  # a slot map's copy count
MARKER_HEAD = struct.Struct("<QQ")  # covered lsn, epoch of the slot maps' seals
COPY_REC = struct.Struct("<QQQ")  # block index, counter, epoch of a kept copy
MARKER_PID = MAX_PARTITIONS  # the marker's partition list is sealed under it

# Bytes a zone's journal may grow by between two checkpoints. Read at each
# check, never bound at import, so a test may lower it for both zones.
CHECKPOINT_INTERVAL_BYTES = 1024 * 1024
# Puts to permanent partitions allowed between two privacy checkpoints: the
# put that reaches it checkpoints. Read at each check, like the interval.
MAX_UNSYNCED_PUTS = 1 << 16

CKPT_MARKER = "store.ckpt"
EPOCH_MARKER = "store.epoch"


def frame(body: bytes) -> bytes:
    """body in one CRC frame."""
    return FRAME.pack(len(body), zlib.crc32(body)) + body


def unframe(data: bytes, name: str) -> bytes:
    """The body of snapshot name, framed whole by frame; CorruptLog unless
    data is exactly one intact frame."""
    if len(data) >= FRAME.size:
        length, crc = FRAME.unpack_from(data, 0)
        body = data[FRAME.size:]
        if length == len(body) and zlib.crc32(body) == crc:
            return body
    raise CorruptLog(f"snapshot {name} is damaged")


def frame_record(lsn: int, kind: int, payload: bytes) -> bytes:
    """One journal record's bytes: the frame around REC_HEAD and payload."""
    return frame(REC_HEAD.pack(lsn, kind) + payload)


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
    checkpoint interval, or a flush with the checkpoint flag, runs the
    checkpoint callback right after its sync, before it replies. puts
    counts the puts to permanent partitions since the last checkpoint."""

    def __init__(self, buffer: DurableBuffer, *, start_lsn: int = 1):
        self.buffer = buffer
        self.next_lsn = start_lsn
        self.durable_lsn = start_lsn - 1
        self.puts = 0
        self.on_checkpoint = None  # set by the owning runtime

    # -- append paths -------------------------------------------------

    def append(self, kind: int, payload: bytes) -> int:
        """Buffers one record; returns its LSN."""
        lsn = self.next_lsn
        self.next_lsn = lsn + 1
        self.buffer.append(frame_record(lsn, kind, payload))
        return lsn

    def note_put(self) -> None:
        """Counts a put to a permanent partition, once its block is marked
        dirty; the put that reaches MAX_UNSYNCED_PUTS checkpoints."""
        self.puts += 1
        if self.puts >= MAX_UNSYNCED_PUTS:
            self.flush(checkpoint=True)

    def log_delete(self, fid: int) -> int:
        return self.append(KIND_DELETE, DELETE_REC.pack(fid))

    def log_create(self, pid: int) -> int:
        return self.append(KIND_CREATE_PARTITION, CREATE_REC.pack(pid))

    # -- durability ----------------------------------------------------

    def flush(self, checkpoint: bool = False) -> int:
        """Blocking flush of everything buffered; returns highest durable lsn.
        Checkpoints after the sync past the interval, or with checkpoint."""
        self.buffer.sync()
        self.durable_lsn = self.next_lsn - 1
        if self.on_checkpoint is not None and (checkpoint
                                               or past_interval(self.buffer)):
            self.on_checkpoint()
        return self.durable_lsn


# ----------------------------------------------------------------------
# checkpoint and recovery


def map_name(pid: int, lsn: int) -> str:
    """The snapshot name of partition pid's slot map in the checkpoint that
    covers lsn."""
    return f"part-{pid:05d}-{lsn:016x}.map"


def checkpoint_truncate(store: MappingStore, wal: Wal, snapshots: SnapshotStore,
                        atrest: AtRestLayer, crash_hook) -> None:
    """Persist a store image covering the durable journal, under an LSN of
    its own past every record, then truncate the journal to empty, and
    reset the journal's put count. Does nothing if the journal holds no
    record and no put came since the last checkpoint.

    The seals come first, then the slot maps, which name the counter and
    epoch of every copy the checkpoint keeps, then the marker holding the
    covered LSN; then the kept copies and maps replace the old ones (format
    and order in the module docstring). A record appended after the last
    flush is covered too, since the image holds its effect: it stays
    pending across the truncation, and recovery cuts it once a sync makes
    it durable. Replay after a crash at any point in this sequence
    reconstructs the same state because record application is
    idempotent. crash_hook is called with the crash
    point's name once the seals are written, once the image and its marker
    are written and once the journal is truncated.
    """
    if not wal.buffer.durable_len and not wal.puts:
        return  # the last image still holds everything
    pids = [pid for pid in store.partition_ids()
            if store.partition(pid).kind == PartitionKind.PERMANENT]
    kept = {pid: atrest.checkpoint_copies(pid) for pid in pids}
    crash_hook("privacy-checkpoint-after-seal")
    lsn = wal.durable_lsn = wal.next_lsn
    wal.next_lsn += 1
    sealer = atrest.sealer
    for pid in pids:
        body = b"".join([_U32.pack(len(kept[pid])),
                         *(COPY_REC.pack(*copy) for copy in kept[pid]),
                         store.slot_map(pid)])
        snapshots.put_atomic(map_name(pid, lsn), sealer.seal_map(pid, lsn, body))
    pid_list = sealer.seal_map(MARKER_PID, lsn, struct.pack(f"<{len(pids)}I", *pids))
    snapshots.put_atomic(CKPT_MARKER, frame(MARKER_HEAD.pack(lsn, sealer.epoch)
                                            + pid_list))
    atrest.sealed.retain({(pid, block_index, counter) for pid in pids
                          for block_index, counter, _ in kept[pid]}, atrest.trace)
    maps = {map_name(pid, lsn) for pid in pids}
    for name in snapshots.names():
        if name.endswith(".map") and name not in maps:
            snapshots.delete(name)
    crash_hook("privacy-checkpoint-before-truncate")
    wal.buffer.replace(b"")
    wal.puts = 0
    crash_hook("privacy-checkpoint-after-truncate")


@dataclass
class RecoveryResult:
    store: MappingStore
    wal: Wal
    replayed_count: int
    counter: int
    copies: dict[tuple[int, int], tuple[int, int]]


def recover_store(snapshots: SnapshotStore, wal_buffer: DurableBuffer,
                  sealed: SealedBlockStore, key: bytes, trace=None) -> RecoveryResult:
    """Rebuild a MappingStore from the last checkpoint (its slot maps and
    the sealed copies they keep, opened with key) plus the durable log
    suffix, then delete every sealed copy the checkpoint does not keep. A
    put the checkpoint does not hold is gone: the committed ones come back
    from their recipes (MSG_RESTORE). Running it twice over the same files
    yields the same state (replay application is idempotent and pure). Each
    copy it opens is a BlockRead in trace, and each copy it deletes a
    BlockDrop.

    The result's copies are the current copies the at-rest layer starts
    from: the kept copy of each block that replay left as the copy holds
    it. A block replay changed has none, so the next checkpoint seals it.
    The result's counter is the highest counter among the kept copies (0
    when there are none): the at-rest layer's seals go on from it, so none
    reuses a kept copy's name, and every copy above it is deleted here.

    A damaged snapshot, a marker whose partition list fails to open, a map
    or kept copy that is missing, fails to open or is not the one the
    marker and map name, a record of an unknown kind, one whose payload is
    not its kind's struct, or one the store refuses raises CorruptLog."""
    store = MappingStore()
    sealer = BlockSealer(key)
    last_lsn = 0
    kept: dict[tuple[int, int], tuple[int, int, bytes]] = {}  # counter, epoch, plaintext
    marker = snapshots.get(CKPT_MARKER)
    try:
        if marker is not None:
            body = unframe(marker, CKPT_MARKER)
            last_lsn, epoch = MARKER_HEAD.unpack_from(body)
            pid_list = sealer.open_map(MARKER_PID, last_lsn, epoch,
                                       body[MARKER_HEAD.size:])
            for pid in struct.unpack(f"<{len(pid_list) // 4}I", pid_list):
                data = snapshots.get(map_name(pid, last_lsn))
                if data is None:
                    raise CorruptLog(f"partition {pid}'s slot map is missing")
                data = sealer.open_map(pid, last_lsn, epoch, data)
                (n,) = _U32.unpack_from(data)
                blocks = {}
                for block_index, counter, copy_epoch in COPY_REC.iter_unpack(
                        data[_U32.size:_U32.size + n * COPY_REC.size]):
                    copy = sealed.read(pid, block_index, counter)
                    if copy is None:
                        raise CorruptLog(f"block ({pid}, {block_index:#x})'s copy "
                                         f"{counter} is missing")
                    if trace is not None:
                        trace.block_read(pid, block_index)
                    blocks[block_index] = sealer.open(pid, block_index, copy, counter,
                                                      copy_epoch)
                    kept[(pid, block_index)] = counter, copy_epoch, blocks[block_index]
                store.load_slot_map(pid, data[_U32.size + n * COPY_REC.size:], blocks)
    except (struct.error, AuthFailure, StaleBlock) as exc:
        raise CorruptLog(f"the privacy checkpoint: {exc}") from None

    records = journal_after(wal_buffer, last_lsn)
    for lsn, kind, payload in records:
        last_lsn = lsn
        try:
            if kind == KIND_DELETE:
                store.apply_delete(*DELETE_REC.unpack(payload))
            elif kind == KIND_CREATE_PARTITION:
                store.apply_create(*CREATE_REC.unpack(payload))
            else:
                raise CorruptLog(f"unknown kind {kind}")
        except (struct.error, FidStoreError) as exc:
            raise CorruptLog(f"privacy record {lsn}: {exc}") from None
    store.rebuild_free_lists()

    spanned = {(pid, b) for pid in store.partition_ids()
               for b in store.partition_blocks(pid)}
    copies = {key: (counter, epoch) for key, (counter, epoch, plaintext) in kept.items()
              if key in spanned and store.read_block(*key) == plaintext}
    sealed.retain({(pid, b, counter) for (pid, b), (counter, _, _) in kept.items()},
                  trace)
    wal = Wal(wal_buffer, start_lsn=last_lsn + 1)
    return RecoveryResult(store=store, wal=wal, replayed_count=len(records),
                          counter=max((c for c, _, _ in kept.values()), default=0),
                          copies=copies)


def advance_epoch(snapshots: SnapshotStore) -> int:
    """Advances the recovery epoch marker by one and returns the new epoch
    (1 after the first recovery)."""
    raw = snapshots.get(EPOCH_MARKER)
    try:
        epoch = (0 if raw is None else _U64.unpack(unframe(raw, EPOCH_MARKER))[0]) + 1
    except struct.error:
        raise CorruptLog(f"snapshot {EPOCH_MARKER} is damaged") from None
    snapshots.put_atomic(EPOCH_MARKER, frame(_U64.pack(epoch)))
    return epoch
