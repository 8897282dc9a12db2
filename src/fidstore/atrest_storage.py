"""Block-level authenticated encryption for data evicted from trusted
memory, with counter-based freshness to catch rollback.

Fields are never encrypted individually: a 4096-byte block is sealed once
on eviction (36 bytes of overhead for the whole block) and opened once on
fault. Query execution over cached blocks performs zero crypto operations;
the per-field amortized overhead is 36/fields-per-block instead of the 28
bytes per field that envelope schemes pay.

Each seal binds (partition, block index, counter, epoch) as AEAD
associated data. The at-rest layer keeps one counter and each seal takes
the next value, so counters strictly increase per block: replaying a
superseded sealed block fails freshness (StaleBlock) and any bit flip
fails the tag (AuthFailure). The epoch increments at every recovery and
the sealed record does not carry it: trusted state names the counter and
epoch of each copy it will open. Between recoveries that is the at-rest
layer's current copy of each block; across a recovery it is the privacy
checkpoint's slot map (see wal), so a copy a checkpoint keeps opens in any
later epoch, while a copy sealed after the last checkpoint is never opened
again: recovery deletes it, and so rebuilds no value from a block that
may hold a put no checkpoint covers. Recovery starts the counter at the
highest one the slot maps keep, so no later seal reuses a kept copy's name.

The privacy checkpoint's slot maps are sealed by BlockSealer too
(seal_map), under the block index MAP_INDEX, which no size class reaches.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .durability import atomic_write, read_dir
from .errors import AuthFailure, CorruptLog, StaleBlock, UnknownPartition
from .mapping_store import BLOCK_SIZE

NONCE_LEN = 12
TAG_LEN = 16
SEALED_OVERHEAD = 8 + NONCE_LEN + TAG_LEN  # counter + nonce + tag = 36 bytes

_AAD = struct.Struct("<IQQQ")  # partition, block_index, counter, epoch
_SEALED_REC = struct.Struct(f"<Q{NONCE_LEN}s{TAG_LEN}s{BLOCK_SIZE}s")
# the block index a slot map is sealed under: past every size class's blocks
MAP_INDEX = (1 << 64) - 1


@dataclass(frozen=True)
class SealedBlock:
    counter: int
    nonce: bytes
    tag: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return _SEALED_REC.pack(self.counter, self.nonce, self.tag, self.ciphertext)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SealedBlock":
        return cls(*_SEALED_REC.unpack(data))


class SealedBlockStore:
    """The untrusted block area: everything written here is adversary
    readable and survives any crash.

    blocks holds every copy on disk, one entry per copy, keyed (partition,
    block index, counter): a block's current copy, and the copy the last
    privacy checkpoint keeps of it (kept), which stays until the next
    checkpoint's marker is written, even once a newer copy supersedes it or
    its block is dropped. So right after a checkpoint the area holds exactly
    one copy per block the partitions span. With dirpath, each copy is also
    a file there, named by its key, written atomically like a snapshot.

    Like a durability primitive, each write and each copy that discard or
    retain deletes first calls hook, if set, as hook(method, name, b""):
    "write", "discard" or "retain", and the copy's file name."""

    def __init__(self, dirpath: str | None = None):
        self.dirpath = dirpath
        self.blocks: dict[tuple[int, int, int], SealedBlock] = {}
        self.kept: set[tuple[int, int, int]] = set()
        self.hook = None
        for name, data in (read_dir(dirpath) if dirpath is not None else {}).items():
            try:
                key = tuple(int(part, 16) for part in name.split("-"))
                sealed = SealedBlock.from_bytes(data)
            except (ValueError, struct.error):
                raise CorruptLog(f"sealed copy {name} is malformed") from None
            if len(key) != 3 or _name(key) != name:
                raise CorruptLog(f"sealed copy {name} is misnamed")
            self.blocks[key] = sealed

    def write(self, pid: int, block_index: int, sealed: SealedBlock) -> None:
        key = (pid, block_index, sealed.counter)
        if self.hook is not None:
            self.hook("write", _name(key), b"")
        if self.dirpath is not None:
            atomic_write(os.path.join(self.dirpath, _name(key)), sealed.to_bytes())
        self.blocks[key] = sealed

    def read(self, pid: int, block_index: int, counter: int) -> SealedBlock | None:
        return self.blocks.get((pid, block_index, counter))

    def discard(self, pid: int, block_index: int, counter: int) -> None:
        """Deletes a superseded or retired copy, unless the last checkpoint
        keeps it."""
        key = (pid, block_index, counter)
        if key not in self.kept:
            self._delete(key, "discard")

    def retain(self, keys: set, trace) -> None:
        """Makes keys the kept copies and deletes every other copy, in key
        order, each a BlockDrop in trace when one is given."""
        self.kept = set(keys)
        for key in sorted(self.blocks.keys() - self.kept):
            self._delete(key, "retain")
            if trace is not None:
                trace.block_drop(key[0], key[1])

    def _delete(self, key: tuple[int, int, int], method: str) -> None:
        if key not in self.blocks:
            return
        if self.hook is not None:
            self.hook(method, _name(key), b"")
        if self.dirpath is not None:
            os.remove(os.path.join(self.dirpath, _name(key)))
        del self.blocks[key]


def _name(key: tuple[int, int, int]) -> str:
    return "%x-%x-%x" % key


class BlockSealer:
    """AES-256-GCM over whole blocks with (block id, counter, epoch) AAD."""

    def __init__(self, key: bytes, nonce_source=os.urandom, epoch: int = 0):
        self._aead = AESGCM(key)
        self._nonce_source = nonce_source
        self.epoch = epoch
        self.seals = 0
        self.opens = 0

    def seal(self, pid: int, block_index: int, counter: int,
             plaintext: bytes) -> SealedBlock:
        nonce = self._nonce_source(NONCE_LEN)
        aad = _AAD.pack(pid, block_index, counter, self.epoch)
        out = self._aead.encrypt(nonce, plaintext, aad)
        self.seals += 1
        return SealedBlock(counter, nonce, out[-TAG_LEN:], out[:-TAG_LEN])

    def open(self, pid: int, block_index: int, sealed: SealedBlock,
             expected_counter: int | None, epoch: int) -> bytes:
        """Verifies sealed as a seal of epoch and decrypts it; StaleBlock
        unless it carries expected_counter (None: no copy is expected)."""
        aad = _AAD.pack(pid, block_index, sealed.counter, epoch)
        try:
            plaintext = self._aead.decrypt(sealed.nonce,
                                           sealed.ciphertext + sealed.tag, aad)
        except InvalidTag:
            raise AuthFailure(
                f"block ({pid}, {block_index}) failed authentication"
            ) from None
        self.opens += 1
        if sealed.counter != expected_counter:
            raise StaleBlock(
                f"block ({pid}, {block_index}) carries counter {sealed.counter}, "
                f"expected {expected_counter}"
            )
        return plaintext

    def seal_map(self, pid: int, lsn: int, plaintext: bytes) -> bytes:
        """A partition's slot map sealed for the checkpoint covering lsn:
        nonce, tag and ciphertext, bound to (pid, MAP_INDEX, lsn, epoch)."""
        sealed = self.seal(pid, MAP_INDEX, lsn, plaintext)
        return sealed.nonce + sealed.tag + sealed.ciphertext

    def open_map(self, pid: int, lsn: int, epoch: int, data: bytes) -> bytes:
        """Opens what seal_map returned at lsn in epoch; AuthFailure if it is
        anything else."""
        if len(data) < NONCE_LEN + TAG_LEN:
            raise AuthFailure(f"partition {pid}'s slot map is {len(data)} bytes")
        sealed = SealedBlock(lsn, data[:NONCE_LEN], data[NONCE_LEN:NONCE_LEN + TAG_LEN],
                             data[NONCE_LEN + TAG_LEN:])
        return self.open(pid, MAP_INDEX, sealed, lsn, epoch)


class AtRestLayer:
    """LRU page cache over 4 KiB blocks plus the seal/open machinery.

    The cache models the trusted-memory budget: an access to a resident
    block is free of crypto; a miss on a block with a current sealed copy
    opens that copy (one decrypt per block, not per field); evicting a
    dirty block seals it as the block's new current copy. Prefetch is
    speculative: it loads a partition's blocks only into free cache slots
    and stops when the cache is full, so it never evicts a resident block.
    Its loads count as prefetched, not as simulated major faults, and stay
    out of the hit rate, which counts demand accesses only.

    copies is trusted state: the (counter, epoch) of each block's current
    copy, the one a fault opens. It starts from what recovery hands over:
    the copies the last privacy checkpoint kept of the blocks replay left
    as they were, so a kept copy opens across recoveries. A block replay
    changed has no current copy until a seal gives it one. counter is the
    last counter a seal took; recovery hands over the highest one the
    checkpoint's slot maps keep, so a seal never names a kept copy.

    The store keeps each size-class bucket dense, so a bucket that
    shrinks past a block drops it (on_drop): the block leaves the cache
    unsealed and its current copy is retired, so the sealed area holds the
    blocks that back live values and no more. A retired copy is never
    opened again, since copies no longer names it; a put-back copy of it is
    ignored.

    The privacy checkpoint asks checkpoint_copies for one copy per block,
    sealing a block that lacks a current copy and writing it back, as a
    page cache's checkpoint writes back its dirty pages: the copy becomes
    current and the block clean, so the cache seals a block at most once
    per write, at the checkpoint or at its eviction, never at both.

    The store owns the layer (its blocks hook); the layer reads the store
    through a weak proxy, so the pair forms no reference cycle and a
    crashed zone's plaintext is freed as soon as its host drops the store.
    """

    def __init__(self, store, key: bytes, *, capacity_blocks: int | None = None,
                 nonce_source=os.urandom,
                 sealed_store: SealedBlockStore | None = None,
                 trace=None, epoch: int = 0, counter: int = 0,
                 copies: dict[tuple[int, int], tuple[int, int]] | None = None):
        self.store = weakref.proxy(store)
        self.sealer = BlockSealer(key, nonce_source, epoch)
        self.sealed = sealed_store or SealedBlockStore()
        self.counter = counter
        self.trace = trace
        self.capacity_blocks = capacity_blocks
        self.copies = copies or {}
        self._lru: dict[tuple[int, int], bool] = {}  # key -> dirty, in LRU order
        self.hits = 0
        self.faults = 0
        self.prefetched = 0
        self.stale_dropped = 0

    # -- mapping-store hooks (the critical path) ------------------------

    def on_read(self, pid: int, block_index: int) -> None:
        self._access(pid, block_index, dirty=False, prefetch=False)

    def on_write(self, pid: int, block_index: int) -> None:
        self._access(pid, block_index, dirty=True, prefetch=False)

    def on_drop(self, pid: int, block_index: int) -> None:
        """The block no longer backs any value: forget it without sealing,
        and retire its current copy, if any."""
        key = (pid, block_index)
        self._lru.pop(key, None)
        copy = self.copies.pop(key, None)
        if copy is None:
            return  # no copy to retire: never sealed, or already retired
        self.sealed.discard(pid, block_index, copy[0])
        if self.trace is not None:
            self.trace.block_drop(pid, block_index)

    def _access(self, pid: int, block_index: int, dirty: bool, prefetch: bool) -> None:
        key = (pid, block_index)
        lru = self._lru
        was_dirty = lru.pop(key, None)
        if was_dirty is not None:
            lru[key] = was_dirty or dirty  # back in at the MRU position
            if not prefetch:
                self.hits += 1
            return
        if prefetch:
            self.prefetched += 1
        else:
            self.faults += 1
        copy = self.copies.get(key)
        if copy is not None:
            try:
                self.open_block(pid, block_index,
                                self.sealed.read(pid, block_index, copy[0]))
            except (AuthFailure, StaleBlock):
                # the untrusted side lost or altered the current copy; the
                # store's plaintext is authoritative, and the next eviction
                # seals it again
                self.stale_dropped += 1
                dirty = True
        lru[key] = dirty
        capacity = self.capacity_blocks
        if capacity is not None:
            while len(lru) > capacity:
                old_key, old_dirty = next(iter(lru.items()))
                del lru[old_key]
                if old_dirty:
                    self.seal_block(*old_key, self.store.read_block(*old_key))

    # -- public operations ----------------------------------------------

    def seal_block(self, pid: int, block_index: int, plaintext: bytes) -> SealedBlock:
        """Seal one block image and publish it to untrusted storage as the
        block's current copy; the copy it supersedes is discarded."""
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"plaintext must be exactly {BLOCK_SIZE} bytes")
        self.counter += 1
        sealed = self.sealer.seal(pid, block_index, self.counter, plaintext)
        self.sealed.write(pid, block_index, sealed)
        if self.trace is not None:
            self.trace.block_write(pid, block_index)
        old = self.copies.get((pid, block_index))
        self.copies[(pid, block_index)] = (self.counter, self.sealer.epoch)
        if old is not None:
            self.sealed.discard(pid, block_index, old[0])
        return sealed

    def open_block(self, pid: int, block_index: int,
                   sealed: SealedBlock | None) -> bytes:
        """Verify and decrypt a sealed block as the block's current copy;
        strict freshness semantics, and StaleBlock when the block has no
        current copy or the copy is gone. The read is adversary visible
        whether or not the block verifies."""
        counter, epoch = self.copies.get((pid, block_index), (None, self.sealer.epoch))
        if sealed is None:
            raise StaleBlock(f"block ({pid}, {block_index}) has no sealed copy")
        if self.trace is not None:
            self.trace.block_read(pid, block_index)
        return self.sealer.open(pid, block_index, sealed, counter, epoch)

    def checkpoint_copies(self, pid: int) -> list[tuple[int, int, int]]:
        """The copy a privacy checkpoint keeps of each block of partition
        pid, as (block index, counter, epoch) in address order. A block that
        lacks a current copy, because it is dirty or no copy backs it, is
        sealed first, and that seal writes the block back: the copy becomes
        the block's current one and a resident block turns clean, so its
        eviction seals nothing until a write dirties it again. The slot maps
        the checkpoint seals before its marker hold these counters, as they
        hold every kept copy's; without the marker recovery deletes the
        copies."""
        out = []
        copies = self.copies
        lru = self._lru
        for block_index in self.store.partition_blocks(pid):
            key = (pid, block_index)
            if lru.get(key) or key not in copies:
                self.seal_block(pid, block_index,
                                self.store.read_block(pid, block_index))
                if key in lru:
                    lru[key] = False
            out.append((block_index, *copies[key]))
        return out

    def prefetch_partition(self, pid: int) -> int:
        """Warm the cache with a partition's blocks (off the critical path),
        filling free slots only; returns the number of blocks walked."""
        if not self.store.has_partition(pid):
            raise UnknownPartition(f"no partition {pid}")
        capacity = self.capacity_blocks
        n = 0
        for block_index in self.store.partition_blocks(pid):
            if capacity is not None and len(self._lru) >= capacity:
                break
            self._access(pid, block_index, dirty=False, prefetch=True)
            n += 1
        return n

    def flush_dirty(self) -> int:
        """Seal every dirty resident block. No zone calls it: a privacy
        checkpoint writes dirty blocks back itself (checkpoint_copies)."""
        n = 0
        for key, dirty in list(self._lru.items()):
            if dirty:
                self.seal_block(*key, self.store.read_block(*key))
                self._lru[key] = False
                n += 1
        return n
