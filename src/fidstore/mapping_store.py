"""Partitioned FID-to-secret store: every partition keeps its values in
slab-style size-class buckets.

A FID splits into (partition, offset) by fid_codec's fixed layout, and
slots are O(1) direct-indexed by the offset; a partition holds at most
MAX_OFFSET offsets. Delete is logical: the offset joins the partition free
list and the next same-partition put reuses it (LIFO) before any fresh
offset is allocated. Equal secrets never share a slot: FID assignment
depends only on allocation order, never on value bytes.

A value lives in its size class's bucket, which stays dense: a put
appends, and a delete moves the class's last value into the freed bucket
slot, so a bucket of n values spans exactly ceil(n * class size / 4096)
blocks. The FID-to-(class, bucket slot) indirection never leaves the
store, so a moved value keeps its FID. A block the bucket shrinks past is
dropped from the page cache and the sealed area (on_drop), so durable
state follows the live values, not the peak. Which blocks move and drop
depends only on the live count per class, which the op sequence fixes.

Temporary partitions are volatile scratch space dropped at end of query;
permanent partitions journal every delete and creation for crash recovery,
count their puts toward the next checkpoint (see wal) and report
block-level accesses to the page-cache layer.

A permanent partition's checkpoint image holds no value: the values are
in its sealed blocks (see atrest_storage), and slot_map describes how they
lie there, for wal to seal beside them. The slot map is SLOT_HEAD {u64
allocation counter, u8 prefix bits, u8 owner width, u8 class count}, a
u32 live count per size class up to the last that holds a value, then per
class with values its bucket slots' owner offsets (owner width bytes each,
the narrowest of 1, 2, 4 and 8 that holds every offset the counter allows)
and their u16 value lengths, in bucket order. load_slot_map rebuilds
the buckets from it and the opened blocks. put, restore and load_slot_map
all place through _put_at's checks; load_slot_map raises CorruptLog on a
map or blocks the store could not have written.

The store is single-threaded: no method takes a lock, so callers must not
use one store from several threads at once.
"""

from __future__ import annotations

import struct
from enum import IntEnum

from .errors import (
    CorruptLog,
    FidStoreError,
    NotLive,
    OutOfRange,
    PartitionFull,
    PartitionSpaceExhausted,
    UnknownPartition,
    ValueTooLarge,
    WrongPartitionKind,
)
from .fid_codec import MAX_OFFSET, MAX_PARTITIONS, OFFSET_BITS, OFFSET_MASK, PREFIX_BITS

BLOCK_SIZE = 4096
MIN_CLASS = 16
MAX_VALUE_LEN = 4096

# allocation counter, prefix bits, owner width, class count
SLOT_HEAD = struct.Struct("<QBBB")
UINT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # width -> unsigned struct code

# block ids carry the size class in the high half
CLASS_SHIFT = 32


class PartitionKind(IntEnum):
    TEMPORARY = 0
    PERMANENT = 1


def size_classes(max_value_len: int) -> list[int]:
    """Powers of two from 16 B up to max_value_len (fragmentation < 2x)."""
    classes = []
    size = MIN_CLASS
    while size < max_value_len:
        classes.append(size)
        size *= 2
    classes.append(max_value_len if size > max_value_len else size)
    return classes


def narrowest_width(counter: int) -> int:
    """The narrowest of 1, 2, 4 and 8 bytes that holds every value below
    counter."""
    return next(w for w in UINT_CODES if counter <= 1 << 8 * w)


def class_index(length: int, classes: list[int]) -> int:
    if length <= MIN_CLASS:
        return 0
    idx = (length - 1).bit_length() - 4
    return min(idx, len(classes) - 1)


class Partition:
    """One FID namespace: allocator state plus its size-class buckets."""

    __slots__ = (
        "pid",
        "kind",
        "fid_base",
        "alloc_counter",
        "free_list",
        "slots",
        "buckets",
        "owners",
        "tracked",
    )

    def __init__(self, pid: int, kind: PartitionKind, n_classes: int):
        self.pid = pid
        self.kind = kind
        self.fid_base = pid << OFFSET_BITS
        self.alloc_counter = 0
        self.free_list: list[int] = []
        # slots[off] is None when not live, else its (class, bucket slot)
        # cell. A bucket holds only live values, packed from slot 0, and
        # owners[cls][slot] is the offset whose value sits in
        # buckets[cls][slot].
        self.slots: list = []
        self.buckets: list[list[bytes]] = [[] for _ in range(n_classes)]
        self.owners: list[list[int]] = [[] for _ in range(n_classes)]
        self.tracked = kind == PartitionKind.PERMANENT

    @property
    def live(self) -> int:
        return self.alloc_counter - len(self.free_list)


class MappingStore:
    """The crypto-free mapping core: put/get/delete/promote over partitions."""

    def __init__(self, *, journal=None, blocks=None):
        self.classes = size_classes(MAX_VALUE_LEN)
        self.journal = journal      # duck-typed: note_put/log_delete/log_create
        self.blocks = blocks        # duck-typed: on_read/on_write per block
        self._parts: dict[int, Partition] = {}
        self._next_probe = 0

    # ------------------------------------------------------------------
    # partition management

    def create_partition(self, kind: PartitionKind) -> int:
        pid = self._next_free_id()
        self._register(pid, kind)
        if self.journal is not None and kind == PartitionKind.PERMANENT:
            self.journal.log_create(pid)
        return pid

    def _next_free_id(self) -> int:
        if len(self._parts) >= MAX_PARTITIONS:
            raise PartitionSpaceExhausted(f"all {MAX_PARTITIONS} partition ids in use")
        pid = self._next_probe
        for _ in range(MAX_PARTITIONS):
            if pid >= MAX_PARTITIONS:
                pid = 0
            if pid not in self._parts:
                self._next_probe = pid + 1
                return pid
            pid += 1
        raise PartitionSpaceExhausted(f"all {MAX_PARTITIONS} partition ids in use")

    def _register(self, pid: int, kind: PartitionKind) -> Partition:
        if pid >= MAX_PARTITIONS:
            raise OutOfRange(f"partition id {pid} (max {MAX_PARTITIONS - 1})")
        p = Partition(pid, kind, len(self.classes))
        self._parts[pid] = p
        return p

    def release_partition(self, pid: int) -> None:
        """Unregister a temporary partition so its id can be recycled."""
        p = self._parts.get(pid)
        if p is None:
            return
        if p.kind != PartitionKind.TEMPORARY:
            raise WrongPartitionKind(f"partition {pid} is permanent")
        del self._parts[pid]
        if pid < self._next_probe:
            self._next_probe = pid

    def partition_ids(self) -> list[int]:
        return sorted(self._parts)

    def partition(self, pid: int) -> Partition:
        try:
            return self._parts[pid]
        except KeyError:
            raise UnknownPartition(f"no partition {pid}") from None

    def has_partition(self, pid: int) -> bool:
        return pid in self._parts

    # ------------------------------------------------------------------
    # the hot path

    def put(self, partition_id: int, secret: bytes) -> int:
        try:
            p = self._parts[partition_id]
        except KeyError:
            raise UnknownPartition(f"no partition {partition_id}") from None
        free = p.free_list
        off = free[-1] if free else p.alloc_counter
        cell = self._put_at(p, off, secret)
        if free:
            free.pop()
        if p.tracked:
            # the block is dirty before the count may run a checkpoint
            if self.blocks is not None:
                self.blocks.on_write(p.pid, self._block_of(cell))
            if self.journal is not None:
                self.journal.note_put()
        return p.fid_base | off

    def get(self, fid: int) -> bytes | None:
        """Returns the secret bytes, or None when the FID has no live mapping."""
        p = self._parts.get(fid >> OFFSET_BITS)
        if p is None:
            return None
        off = fid & OFFSET_MASK
        slots = p.slots
        if off >= len(slots):
            return None
        cell = slots[off]
        if cell is None:
            return None
        value = p.buckets[cell[0]][cell[1]]
        if p.tracked and self.blocks is not None:
            self.blocks.on_read(p.pid, self._block_of(cell))
        return value

    def delete(self, fid: int) -> None:
        p = self._parts.get(fid >> OFFSET_BITS)
        if p is None:
            raise NotLive(f"fid {fid:#x} has no partition")
        off = fid & OFFSET_MASK
        if off >= len(p.slots) or p.slots[off] is None:
            raise NotLive(f"fid {fid:#x} is not live")
        p.free_list.append(off)
        if p.tracked and self.journal is not None:
            self.journal.log_delete(fid)
        self._free(p, off)

    def _put_at(self, p: Partition, off: int, value: bytes) -> tuple[int, int]:
        """Puts value at offset off, which is not live; returns its (class,
        bucket slot) cell. Checks the value and the offset before it changes
        anything. An offset past the counter moves the counter and slots
        past it. The free list is the caller's."""
        n = len(value)
        if not 0 < n <= MAX_VALUE_LEN:
            raise ValueTooLarge(f"value of {n} bytes (max {MAX_VALUE_LEN})")
        if off >= MAX_OFFSET:
            raise PartitionFull(f"partition {p.pid} offsets exhausted")
        if off >= p.alloc_counter:
            p.slots.extend([None] * (off + 1 - p.alloc_counter))
            p.alloc_counter = off + 1
        cls = class_index(n, self.classes)
        bucket = p.buckets[cls]
        cell = p.slots[off] = cls, len(bucket)
        bucket.append(value)
        p.owners[cls].append(off)
        return cell

    def _free(self, p: Partition, off: int) -> None:
        """Unmap a live offset. Its bucket stays dense: the class's
        last value moves into the freed bucket slot and the bucket shrinks
        by one. The block hooks fire only once the bucket is updated, since
        one may evict and seal through read_block: a write to each block
        that changed, and a drop of a block now past the bucket's end."""
        cell = p.slots[off]
        p.slots[off] = None
        cls, slot = cell
        bucket = p.buckets[cls]
        owners = p.owners[cls]
        tail_value = bucket.pop()
        tail_owner = owners.pop()
        last = len(bucket)  # the tail value's old bucket slot
        if slot != last:
            bucket[slot] = tail_value
            owners[slot] = tail_owner
            p.slots[tail_owner] = cell
        blocks = self.blocks
        if blocks is None or not p.tracked:
            return
        pid = p.pid
        size = self.classes[cls]
        base = cls << CLASS_SHIFT
        hole = slot * size // BLOCK_SIZE
        tail = last * size // BLOCK_SIZE
        end = (last * size + BLOCK_SIZE - 1) // BLOCK_SIZE  # blocks still spanned
        if hole < end:
            blocks.on_write(pid, base | hole)
            if hole < tail < end:
                blocks.on_write(pid, base | tail)
        gone = ((last + 1) * size + BLOCK_SIZE - 1) // BLOCK_SIZE
        while end < gone:
            blocks.on_drop(pid, base | end)
            end += 1

    def _block_of(self, cell: tuple[int, int]) -> int:
        cls, slot = cell
        return (cls << CLASS_SHIFT) | ((slot * self.classes[cls]) // BLOCK_SIZE)

    # ------------------------------------------------------------------
    # lifetime management

    def promote(self, temp_fid: int, perm_partition: int) -> int:
        src = self._parts.get(temp_fid >> OFFSET_BITS)
        if src is None:
            raise NotLive(f"fid {temp_fid:#x} has no partition")
        if src.kind != PartitionKind.TEMPORARY:
            raise WrongPartitionKind("promote source must be a temporary partition")
        dst = self._parts.get(perm_partition)
        if dst is None:
            raise UnknownPartition(f"no partition {perm_partition}")
        if dst.kind != PartitionKind.PERMANENT:
            raise WrongPartitionKind("promote target must be a permanent partition")
        value = self.get(temp_fid)
        if value is None:
            raise NotLive(f"fid {temp_fid:#x} is not live")
        return self.put(perm_partition, value)

    def restore(self, fid: int, secret: bytes) -> None:
        """Puts secret at exactly fid, a FID of a permanent partition that
        is not live, through put, so the put is counted and the block
        hooks fire as for any other. restore only arranges the free list:
        the offset goes to its end, where put takes it next. The offsets put
        skipped to reach it join the list after; a refused put takes it off."""
        p = self.partition(fid >> OFFSET_BITS)
        off = fid & OFFSET_MASK
        free = p.free_list
        counter = p.alloc_counter
        if off < counter:
            if p.slots[off] is not None:
                raise ValueError(f"fid {fid:#x} is live")
            free.remove(off)
        free.append(off)
        try:
            self.put(p.pid, secret)
        except FidStoreError:
            if off >= counter:
                free.pop()
            raise
        free.extend(range(counter, off))

    def drop_temporary(self, partition_id: int) -> int:
        p = self.partition(partition_id)
        if p.kind != PartitionKind.TEMPORARY:
            raise WrongPartitionKind(f"partition {partition_id} is not temporary")
        self._register(partition_id, p.kind)  # an empty partition in its place
        return p.live

    # ------------------------------------------------------------------
    # inspection

    def is_live(self, fid: int) -> bool:
        p = self._parts.get(fid >> OFFSET_BITS)
        if p is None:
            return False
        off = fid & OFFSET_MASK
        return off < len(p.slots) and p.slots[off] is not None

    def peek(self, fid: int) -> bytes | None:
        """The value get would return, read without the cache hook or the
        get counter: a check's look at trusted memory, which loads, seals
        and traces nothing."""
        if not self.is_live(fid):
            return None
        p = self._parts[fid >> OFFSET_BITS]
        cls, slot = p.slots[fid & OFFSET_MASK]
        return p.buckets[cls][slot]

    def in_permanent(self, fid: int) -> bool:
        """True iff fid's partition exists and is permanent."""
        p = self._parts.get(fid >> OFFSET_BITS)
        return p is not None and p.kind == PartitionKind.PERMANENT

    def live_fids(self, partition_id: int) -> list[int]:
        p = self.partition(partition_id)
        base = p.fid_base
        return [base | off for off, cell in enumerate(p.slots) if cell is not None]

    # ------------------------------------------------------------------
    # block assembly for the at-rest layer

    def partition_blocks(self, pid: int) -> list[int]:
        """Block indices currently backing a partition, in address order."""
        p = self.partition(pid)
        out = []
        for cls, bucket in enumerate(p.buckets):
            nbytes = len(bucket) * self.classes[cls]
            for i in range((nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE):
                out.append((cls << CLASS_SHIFT) | i)
        return out

    def read_block(self, pid: int, block_index: int) -> bytes:
        """Assemble the 4096-byte plaintext image of one storage block."""
        p = self.partition(pid)
        buf = bytearray(BLOCK_SIZE)
        cls = block_index >> CLASS_SHIFT
        size = self.classes[cls]
        bucket = p.buckets[cls]
        start = (block_index & 0xFFFFFFFF) * BLOCK_SIZE
        first = start // size
        last = min((start + BLOCK_SIZE + size - 1) // size, len(bucket))
        for idx in range(first, last):
            v = bucket[idx]
            pos = idx * size - start
            lo = max(pos, 0)
            hi = min(pos + len(v), BLOCK_SIZE)
            if hi > lo:
                buf[lo:hi] = v[lo - pos:hi - pos]
        return bytes(buf)

    # ------------------------------------------------------------------
    # persistence (the slot map, bit-exact; format in the module docstring)

    def slot_map(self, pid: int) -> bytes:
        """Where partition pid's values lie in its blocks, and how long each
        is: the slot map."""
        p = self.partition(pid)
        width = narrowest_width(p.alloc_counter)
        code = UINT_CODES[width]
        counts = [len(bucket) for bucket in p.buckets]
        while counts and not counts[-1]:
            counts.pop()
        chunks = [SLOT_HEAD.pack(p.alloc_counter, PREFIX_BITS, width, len(counts)),
                  struct.pack(f"<{len(counts)}I", *counts)]
        for n, bucket, owners in zip(counts, p.buckets, p.owners):
            if n:
                chunks.append(struct.pack(f"<{n}{code}", *owners))
                chunks.append(struct.pack(f"<{n}H", *map(len, bucket)))
        return b"".join(chunks)

    def load_slot_map(self, pid: int, data: bytes, blocks: dict[int, bytes]) -> None:
        """Registers permanent partition pid from its slot map and the
        plaintext of every block it spans, by block index, placing each
        value through _put_at in bucket order; CorruptLog unless the store
        could have written both."""
        if pid in self._parts:
            raise CorruptLog(f"partition {pid} is imaged twice")
        try:
            alloc_counter, prefix_bits, width, n_classes = SLOT_HEAD.unpack_from(data, 0)
            if prefix_bits != PREFIX_BITS:
                raise CorruptLog(f"prefix_bits={prefix_bits}, FIDs use {PREFIX_BITS}")
            code = UINT_CODES.get(width)
            if code is None or alloc_counter > MAX_OFFSET or n_classes > len(self.classes):
                raise CorruptLog(f"owner width {width}, {alloc_counter} offsets, "
                                 f"{n_classes} classes")
            pos = SLOT_HEAD.size + 4 * n_classes
            counts = struct.unpack_from(f"<{n_classes}I", data, SLOT_HEAD.size)
            p = self._register(pid, PartitionKind.PERMANENT)
            spanned = 0
            for cls, n in enumerate(counts):
                if not n:
                    continue
                owners = struct.unpack_from(f"<{n}{code}", data, pos)
                pos += n * width
                lengths = struct.unpack_from(f"<{n}H", data, pos)
                pos += 2 * n
                size = self.classes[cls]
                n_blocks = (n * size + BLOCK_SIZE - 1) // BLOCK_SIZE
                base = cls << CLASS_SHIFT
                image = b"".join([blocks[base | i] for i in range(n_blocks)])
                spanned += n_blocks
                for slot, (off, length) in enumerate(zip(owners, lengths)):
                    if (off >= alloc_counter or class_index(length, self.classes) != cls
                            or off < p.alloc_counter and p.slots[off] is not None):
                        raise CorruptLog(f"slot {slot} of class {cls}: offset {off}, "
                                         f"{length} bytes")
                    start = slot * size
                    self._put_at(p, off, image[start:start + length])
            if pos != len(data) or spanned != len(blocks):
                raise CorruptLog(f"the map is {len(data)} bytes and names {len(blocks)} "
                                 f"blocks; its slots end at {pos} in {spanned} blocks")
        except (struct.error, KeyError, FidStoreError) as exc:
            self._parts.pop(pid, None)
            raise CorruptLog(f"partition {pid}'s slot map: {exc}") from None
        p.slots.extend([None] * (alloc_counter - p.alloc_counter))
        p.alloc_counter = alloc_counter
        self.rebuild_free_lists(pid)

    # ------------------------------------------------------------------
    # replay (idempotent application of journal records)

    def apply_create(self, pid: int) -> None:
        if pid not in self._parts:
            self._register(pid, PartitionKind.PERMANENT)

    def apply_delete(self, fid: int) -> None:
        off = fid & OFFSET_MASK
        p = self.partition(fid >> OFFSET_BITS)
        if off < len(p.slots) and p.slots[off] is not None:
            self._free(p, off)

    def rebuild_free_lists(self, pid: int | None = None) -> None:
        """Recompute free lists from slot liveness after load/replay."""
        pids = [pid] if pid is not None else list(self._parts)
        for i in pids:
            p = self._parts[i]
            p.free_list = [off for off in range(p.alloc_counter)
                           if p.slots[off] is None]

