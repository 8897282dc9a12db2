"""Partitioned FID-to-secret store: packed arrays for fixed-width values,
slab-style size-class buckets for variable-length ones.

Slots are O(1) direct-indexed by the FID offset. Delete is logical: the
slot joins the partition free list and the next same-partition put reuses
it (LIFO) before any fresh slot is allocated, so a delete/put cycle never
grows the data footprint. Equal secrets never share a slot: FID assignment
depends only on allocation order, never on value bytes.

Temporary partitions are volatile scratch space dropped at end of query;
permanent partitions journal every mutation for crash recovery and report
block-level accesses to the page-cache layer.

The store is single-threaded: no method takes a lock, so callers must not
use one store from several threads at once.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    NotLive,
    PartitionFull,
    PartitionSpaceExhausted,
    UnknownPartition,
    ValueTooLarge,
    WidthMismatch,
    WrongPartitionKind,
)
from .fid_codec import FidConfig

BLOCK_SIZE = 4096
MIN_CLASS = 16
DEFAULT_MAX_VALUE_LEN = 4096

SUPERBLOCK = struct.Struct("<8sBBBIQ9x")  # 32 bytes, little-endian
MAGIC = b"FIDSTOR1"

SLOT_UNUSED = 0
SLOT_LIVE = 1
SLOT_DELETED = 2

# varlen block ids carry the size class in the high half
VARLEN_CLASS_SHIFT = 32


class PartitionKind(IntEnum):
    TEMPORARY = 0
    PERMANENT = 1


class ValueLayout(IntEnum):
    FIXED = 1
    VARLEN = 2


def size_classes(max_value_len: int) -> list[int]:
    """Powers of two from 16 B up to max_value_len (fragmentation < 2x)."""
    classes = []
    size = MIN_CLASS
    while size < max_value_len:
        classes.append(size)
        size *= 2
    classes.append(max_value_len if size > max_value_len else size)
    return classes


def class_index(length: int, classes: list[int]) -> int:
    if length <= MIN_CLASS:
        return 0
    idx = (length - 1).bit_length() - 4
    return min(idx, len(classes) - 1)


@dataclass
class StoreStats:
    """Aggregate accounting used by the benchmarks and tests.

    bytes_metadata counts exactly 8 bytes per live externally held FID;
    the AEAD-envelope scheme this design replaces pays 28 bytes per field.
    """

    live_count: int = 0
    deleted_count: int = 0
    fresh_allocations: int = 0
    reused_slots: int = 0
    gets: int = 0
    bytes_data: int = 0
    bytes_metadata: int = 0
    page_faults_simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def puts(self) -> int:
        return self.fresh_allocations + self.reused_slots


class Partition:
    """One FID namespace: allocator state plus slot storage for one layout."""

    __slots__ = (
        "pid",
        "kind",
        "layout",
        "width",
        "fid_base",
        "limit",
        "alloc_counter",
        "free_list",
        "slots",
        "buckets",
        "class_free",
        "class_live",
        "reused",
        "tracked",
    )

    def __init__(self, pid: int, kind: PartitionKind, layout: ValueLayout,
                 width: int | None, offset_bits: int, n_classes: int):
        self.pid = pid
        self.kind = kind
        self.layout = layout
        self.width = width if layout == ValueLayout.FIXED else None
        self.fid_base = pid << offset_bits
        self.limit = 1 << offset_bits
        self.alloc_counter = 0
        self.free_list: list[int] = []
        # slots[off] is None when not live; otherwise FIXED: the value bytes,
        # VARLEN: (class_idx, bucket_slot) into buckets
        self.slots: list = []
        self.buckets: list[list[bytes | None]] = [[] for _ in range(n_classes)]
        self.class_free: list[list[int]] = [[] for _ in range(n_classes)]
        self.class_live: list[int] = [0] * n_classes
        self.reused = 0
        self.tracked = kind == PartitionKind.PERMANENT

    @property
    def live(self) -> int:
        return self.alloc_counter - len(self.free_list)


class MappingStore:
    """The crypto-free mapping core: put/get/delete/promote over partitions."""

    def __init__(self, config: FidConfig | None = None, *,
                 max_value_len: int = DEFAULT_MAX_VALUE_LEN,
                 journal=None, blocks=None):
        self.config = config or FidConfig()
        self.max_value_len = max_value_len
        self.classes = size_classes(max_value_len)
        self.journal = journal      # duck-typed: log_put/log_delete/log_create
        self.blocks = blocks        # duck-typed: on_read/on_write per block
        self._parts: dict[int, Partition] = {}
        self._offset_bits = self.config.offset_bits
        self._offset_mask = self.config.offset_mask
        self._next_probe = 0
        self.gets = 0

    # ------------------------------------------------------------------
    # partition management

    def create_partition(self, kind: PartitionKind, layout: ValueLayout,
                         width: int | None = None) -> int:
        if layout == ValueLayout.FIXED:
            if not width or width < 1 or width > self.max_value_len:
                raise WidthMismatch(f"bad fixed width {width}")
        pid = self._next_free_id()
        self._register(pid, kind, layout, width)
        if self.journal is not None and kind == PartitionKind.PERMANENT:
            self.journal.log_create(pid, int(kind), int(layout), width or 0)
        return pid

    def _next_free_id(self) -> int:
        limit = self.config.max_partitions
        if len(self._parts) >= limit:
            raise PartitionSpaceExhausted(f"all {limit} partition ids in use")
        pid = self._next_probe
        for _ in range(limit):
            if pid >= limit:
                pid = 0
            if pid not in self._parts:
                self._next_probe = pid + 1
                return pid
            pid += 1
        raise PartitionSpaceExhausted(f"all {limit} partition ids in use")

    def _register(self, pid: int, kind: PartitionKind, layout: ValueLayout,
                  width: int | None) -> Partition:
        p = Partition(pid, kind, layout, width, self._offset_bits,
                      len(self.classes))
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
        width = p.width
        if width is not None:
            if len(secret) != width:
                raise WidthMismatch(
                    f"partition {partition_id} holds {width}-byte values, "
                    f"got {len(secret)}"
                )
        elif not 0 < len(secret) <= self.max_value_len:
            raise ValueTooLarge(
                f"value of {len(secret)} bytes (max {self.max_value_len})")
        free = p.free_list
        if not free and p.alloc_counter >= p.limit:
            raise PartitionFull(f"partition {partition_id} offsets exhausted")
        cell = secret if width is not None else self._place(p, secret)
        if free:
            off = free.pop()
            p.slots[off] = cell
            p.reused += 1
        else:
            off = p.alloc_counter
            p.alloc_counter = off + 1
            p.slots.append(cell)
        fid = p.fid_base | off
        if p.tracked:
            self._track_write(p, off, fid, secret)
        return fid

    def get(self, fid: int) -> bytes | None:
        """Returns the secret bytes, or None when the FID has no live mapping."""
        self.gets += 1
        p = self._parts.get(fid >> self._offset_bits)
        if p is None:
            return None
        off = fid & self._offset_mask
        slots = p.slots
        if off >= len(slots):
            return None
        value = slots[off]
        if value is None:
            return None
        if p.width is None:
            value = p.buckets[value[0]][value[1]]
        if p.tracked and self.blocks is not None:
            self.blocks.on_read(p.pid, self._block_of(p, off))
        return value

    def delete(self, fid: int) -> None:
        p = self._parts.get(fid >> self._offset_bits)
        if p is None:
            raise NotLive(f"fid {fid:#x} has no partition")
        off = fid & self._offset_mask
        if off >= len(p.slots) or p.slots[off] is None:
            raise NotLive(f"fid {fid:#x} is not live")
        block_index = None
        if p.tracked and self.blocks is not None:
            block_index = self._block_of(p, off)
        self._free(p, off)
        p.free_list.append(off)
        if p.tracked:
            if self.journal is not None:
                self.journal.log_delete(fid)
            if block_index is not None:
                self.blocks.on_write(p.pid, block_index)

    def _place(self, p: Partition, value: bytes) -> tuple[int, int]:
        """Store a varlen value in its size-class bucket, reusing a freed
        bucket slot first; returns the (class, bucket slot) cell."""
        cls = class_index(len(value), self.classes)
        cfree = p.class_free[cls]
        bucket = p.buckets[cls]
        if cfree:
            slot = cfree.pop()
            bucket[slot] = value
        else:
            slot = len(bucket)
            bucket.append(value)
        p.class_live[cls] += 1
        return cls, slot

    def _free(self, p: Partition, off: int) -> None:
        """Unmap a live offset, returning a varlen bucket slot to its class."""
        if p.width is None:
            cls, slot = p.slots[off]
            p.buckets[cls][slot] = None
            p.class_free[cls].append(slot)
            p.class_live[cls] -= 1
        p.slots[off] = None

    def _track_write(self, p: Partition, off: int, fid: int, secret: bytes) -> None:
        if self.journal is not None:
            self.journal.log_put(fid, secret)
        if self.blocks is not None:
            self.blocks.on_write(p.pid, self._block_of(p, off))

    def _block_of(self, p: Partition, off: int) -> int:
        if p.width is not None:
            return (off * p.width) // BLOCK_SIZE
        cls, slot = p.slots[off]
        return (cls << VARLEN_CLASS_SHIFT) | ((slot * self.classes[cls]) // BLOCK_SIZE)

    # ------------------------------------------------------------------
    # lifetime management

    def promote(self, temp_fid: int, perm_partition: int) -> int:
        src = self._parts.get(temp_fid >> self._offset_bits)
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

    def drop_temporary(self, partition_id: int) -> int:
        p = self.partition(partition_id)
        if p.kind != PartitionKind.TEMPORARY:
            raise WrongPartitionKind(f"partition {partition_id} is not temporary")
        discarded = p.live
        p.alloc_counter = 0
        p.free_list.clear()
        p.slots.clear()
        for bucket in p.buckets:
            bucket.clear()
        for cfree in p.class_free:
            cfree.clear()
        p.class_live = [0] * len(self.classes)
        p.reused = 0
        return discarded

    # ------------------------------------------------------------------
    # inspection

    def is_live(self, fid: int) -> bool:
        p = self._parts.get(fid >> self._offset_bits)
        if p is None:
            return False
        off = fid & self._offset_mask
        return off < len(p.slots) and p.slots[off] is not None

    def live_fids(self, partition_id: int) -> list[int]:
        p = self.partition(partition_id)
        base = p.fid_base
        return [base | off for off, cell in enumerate(p.slots) if cell is not None]

    def stats(self) -> StoreStats:
        s = StoreStats(gets=self.gets)
        for p in self._parts.values():
            live = p.live
            s.live_count += live
            s.deleted_count += len(p.free_list)
            s.fresh_allocations += p.alloc_counter
            s.reused_slots += p.reused
            if p.width is not None:
                s.bytes_data += live * p.width
            else:
                for cls, n in enumerate(p.class_live):
                    s.bytes_data += n * self.classes[cls]
            s.bytes_metadata += live * 8
        if self.blocks is not None:
            s.cache_hits = self.blocks.hits
            s.cache_misses = self.blocks.misses
            s.page_faults_simulated = self.blocks.faults
        return s

    # ------------------------------------------------------------------
    # block assembly for the at-rest layer

    def partition_blocks(self, pid: int) -> list[int]:
        """Block indices currently backing a partition, in address order."""
        p = self.partition(pid)
        if p.width is not None:
            nbytes = p.alloc_counter * p.width
            return list(range((nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE))
        out = []
        for cls, bucket in enumerate(p.buckets):
            nbytes = len(bucket) * self.classes[cls]
            for i in range((nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE):
                out.append((cls << VARLEN_CLASS_SHIFT) | i)
        return out

    def read_block(self, pid: int, block_index: int) -> bytes:
        """Assemble the 4096-byte plaintext image of one storage block."""
        p = self.partition(pid)
        buf = bytearray(BLOCK_SIZE)
        if p.width is not None:
            width = p.width
            start = block_index * BLOCK_SIZE
            first = start // width
            last = min((start + BLOCK_SIZE + width - 1) // width, len(p.slots))
            for idx in range(first, last):
                v = p.slots[idx]
                if v is None:
                    continue
                pos = idx * width - start
                lo = max(pos, 0)
                hi = min(pos + width, BLOCK_SIZE)
                buf[lo:hi] = v[lo - pos:hi - pos]
        else:
            cls = block_index >> VARLEN_CLASS_SHIFT
            size = self.classes[cls]
            bucket = p.buckets[cls]
            start = (block_index & 0xFFFFFFFF) * BLOCK_SIZE
            first = start // size
            last = min((start + BLOCK_SIZE + size - 1) // size, len(bucket))
            for idx in range(first, last):
                v = bucket[idx]
                if v is None:
                    continue
                pos = idx * size - start
                lo = max(pos, 0)
                hi = min(pos + len(v), BLOCK_SIZE)
                if hi > lo:
                    buf[lo:hi] = v[lo - pos:hi - pos]
        return bytes(buf)

    # ------------------------------------------------------------------
    # persistence (checkpoint image format, bit-exact)

    def dump_partition(self, pid: int) -> tuple[bytes, bytes]:
        """Serialize a partition to (data file bytes, state sidecar bytes)."""
        p = self.partition(pid)
        width = p.width if p.width is not None else 0
        header = SUPERBLOCK.pack(MAGIC, self.config.prefix_bits, int(p.kind),
                                 int(p.layout), width, p.alloc_counter)
        chunks = [header]
        states = bytearray((p.alloc_counter + 3) // 4)
        zeros = b"\x00" * (width or 4)  # a dead fixed slot, or a zero length prefix
        for off in range(p.alloc_counter):
            cell = p.slots[off]
            if cell is None:
                chunks.append(zeros)
                _set_state(states, off, SLOT_DELETED)
                continue
            if width:
                chunks.append(cell)
            else:
                v = p.buckets[cell[0]][cell[1]]
                chunks.append(struct.pack("<I", len(v)) + v)
            _set_state(states, off, SLOT_LIVE)
        return b"".join(chunks), bytes(states)

    def load_partition(self, pid: int, data: bytes, state: bytes) -> None:
        """Reconstruct a partition from its checkpoint image."""
        magic, prefix_bits, kind, layout, width, alloc_counter = SUPERBLOCK.unpack_from(data, 0)
        if magic != MAGIC:
            raise ValueError(f"bad partition magic {magic!r}")
        if prefix_bits != self.config.prefix_bits:
            raise ValueError(
                f"partition image uses prefix_bits={prefix_bits}, store uses "
                f"{self.config.prefix_bits}"
            )
        p = self._register(pid, PartitionKind(kind), ValueLayout(layout),
                           width or None)
        pos = SUPERBLOCK.size
        for off in range(alloc_counter):
            ln = p.width
            if ln is None:
                (ln,) = struct.unpack_from("<I", data, pos)
                pos += 4
            cell = None
            if _get_state(state, off) == SLOT_LIVE:
                cell = bytes(data[pos:pos + ln])
                if p.width is None:
                    cell = self._place(p, cell)
            p.slots.append(cell)
            pos += ln
        p.alloc_counter = alloc_counter
        self.rebuild_free_lists(pid)

    # ------------------------------------------------------------------
    # replay (blind, idempotent application of journal records)

    def apply_create(self, pid: int, kind: int, layout: int, width: int) -> None:
        if pid in self._parts:
            return
        self._register(pid, PartitionKind(kind), ValueLayout(layout), width or None)

    def apply_put(self, fid: int, value: bytes) -> None:
        off = fid & self._offset_mask
        p = self.partition(fid >> self._offset_bits)
        slots = p.slots
        if len(slots) <= off:
            slots.extend([None] * (off + 1 - len(slots)))
        elif slots[off] is not None:
            self._free(p, off)
        slots[off] = value if p.width is not None else self._place(p, value)
        if off >= p.alloc_counter:
            p.alloc_counter = off + 1

    def apply_delete(self, fid: int) -> None:
        off = fid & self._offset_mask
        p = self.partition(fid >> self._offset_bits)
        if off < len(p.slots) and p.slots[off] is not None:
            self._free(p, off)

    def rebuild_free_lists(self, pid: int | None = None) -> None:
        """Recompute free lists from slot liveness after load/replay."""
        pids = [pid] if pid is not None else list(self._parts)
        for i in pids:
            p = self._parts[i]
            p.free_list = [off for off in range(p.alloc_counter)
                           if p.slots[off] is None]


def _set_state(buf: bytearray, slot: int, value: int) -> None:
    buf[slot >> 2] |= value << ((slot & 3) * 2)


def _get_state(buf: bytes, slot: int) -> int:
    return (buf[slot >> 2] >> ((slot & 3) * 2)) & 3
