"""Block-level authenticated encryption for data evicted from trusted
memory, with counter-based freshness to catch rollback.

Fields are never encrypted individually: a 4096-byte block is sealed once
on eviction (36 bytes of overhead for the whole block) and opened once on
fault. Query execution over cached blocks performs zero crypto operations;
the per-field amortized overhead is 36/fields-per-block instead of the 28
bytes per field that envelope schemes pay.

Each seal binds (partition, block index, counter, epoch) as AEAD
associated data. Counters strictly increase per block, so replaying a
superseded sealed block fails freshness (StaleBlock) and any bit flip
fails the tag (AuthFailure). The epoch increments at every recovery, which
cryptographically retires sealed blocks whose seal events had not reached
the durable journal before a crash.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, StaleBlock, UnknownPartition
from .mapping_store import BLOCK_SIZE

NONCE_LEN = 12
TAG_LEN = 16
SEALED_OVERHEAD = 8 + NONCE_LEN + TAG_LEN  # counter + nonce + tag = 36 bytes

_AAD = struct.Struct("<IQQQ")  # partition, block_index, counter, epoch
_SEALED_REC = struct.Struct(f"<Q{NONCE_LEN}s{TAG_LEN}s{BLOCK_SIZE}s")


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
        counter, nonce, tag, ciphertext = _SEALED_REC.unpack(data)
        return cls(counter, nonce, tag, ciphertext)


class FreshnessTable:
    """Latest accepted counter per block, held in trusted state.

    The table snapshot rides the store checkpoint and seal events are
    journaled, so counter values survive crashes and are never reissued.
    """

    def __init__(self, entries: dict[tuple[int, int], int] | None = None):
        self.counters: dict[tuple[int, int], int] = dict(entries or {})

    def next_counter(self, pid: int, block_index: int) -> int:
        c = self.counters.get((pid, block_index), 0) + 1
        self.counters[(pid, block_index)] = c
        return c

    def expected(self, pid: int, block_index: int) -> int:
        return self.counters.get((pid, block_index), 0)

    def snapshot_bytes(self) -> bytes:
        out = []
        for (pid, bidx), counter in sorted(self.counters.items()):
            out.append(struct.pack("<IQQ", pid, bidx, counter))
        return b"".join(out)


class SealedBlockStore:
    """The untrusted block area: everything written here is adversary
    readable and survives any crash."""

    def __init__(self):
        self.blocks: dict[tuple[int, int], SealedBlock] = {}

    def write(self, pid: int, block_index: int, sealed: SealedBlock) -> None:
        self.blocks[(pid, block_index)] = sealed

    def read(self, pid: int, block_index: int) -> SealedBlock | None:
        return self.blocks.get((pid, block_index))

    def partition_file_bytes(self, pid: int) -> bytes:
        """Per-partition sealed file: records in block-index order, one per
        index up to the highest sealed block; counter 0 marks a hole."""
        indices = [b for (p, b) in self.blocks if p == pid]
        if not indices:
            return b""
        hole = SealedBlock(0, b"\x00" * NONCE_LEN, b"\x00" * TAG_LEN,
                           b"\x00" * BLOCK_SIZE)
        out = []
        for bidx in range(max(indices) + 1):
            out.append((self.blocks.get((pid, bidx)) or hole).to_bytes())
        return b"".join(out)

    def load_partition_file(self, pid: int, data: bytes) -> None:
        rec = _SEALED_REC.size
        for bidx in range(len(data) // rec):
            sealed = SealedBlock.from_bytes(data[bidx * rec:(bidx + 1) * rec])
            if sealed.counter != 0:
                self.blocks[(pid, bidx)] = sealed


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
        if len(plaintext) != BLOCK_SIZE:
            raise ValueError(f"plaintext must be exactly {BLOCK_SIZE} bytes")
        nonce = self._nonce_source(NONCE_LEN)
        aad = _AAD.pack(pid, block_index, counter, self.epoch)
        out = self._aead.encrypt(nonce, plaintext, aad)
        self.seals += 1
        return SealedBlock(counter, nonce, out[-TAG_LEN:], out[:-TAG_LEN])

    def open(self, pid: int, block_index: int, sealed: SealedBlock,
             expected_counter: int) -> bytes:
        aad = _AAD.pack(pid, block_index, sealed.counter, self.epoch)
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


class AtRestLayer:
    """LRU page cache over 4 KiB blocks plus the seal/open machinery.

    The cache models the trusted-memory budget: an access to a resident
    block is free of crypto; a miss on a previously sealed block opens it
    (one decrypt per block, not per field); evicting a dirty block seals
    it. Prefetch loads a partition's blocks off the critical path, so those
    loads count as prefetched, not as simulated major faults.
    """

    def __init__(self, store, key: bytes, *, capacity_blocks: int | None = None,
                 nonce_source=os.urandom, freshness: FreshnessTable | None = None,
                 sealed_store: SealedBlockStore | None = None,
                 journal=None, trace=None, epoch: int = 0):
        self.store = store
        self.sealer = BlockSealer(key, nonce_source, epoch)
        self.freshness = freshness or FreshnessTable()
        self.sealed = sealed_store or SealedBlockStore()
        self.journal = journal
        self.trace = trace
        self.capacity_blocks = capacity_blocks
        self._lru: dict[tuple[int, int], bool] = {}  # key -> dirty, in LRU order
        self.hits = 0
        self.misses = 0
        self.faults = 0
        self.prefetched = 0
        self.stale_dropped = 0

    # -- mapping-store hooks (the critical path) ------------------------

    def on_read(self, pid: int, block_index: int) -> None:
        self._access(pid, block_index, dirty=False, prefetch=False)

    def on_write(self, pid: int, block_index: int) -> None:
        self._access(pid, block_index, dirty=True, prefetch=False)

    def _access(self, pid: int, block_index: int, dirty: bool, prefetch: bool) -> None:
        key = (pid, block_index)
        lru = self._lru
        if key in lru:
            if dirty:
                lru[key] = True
            lru[key] = lru.pop(key)  # move to MRU position
            if not prefetch:
                self.hits += 1
            return
        self.misses += 1
        if prefetch:
            self.prefetched += 1
        else:
            self.faults += 1
        sealed = self.sealed.read(pid, block_index)
        if sealed is not None:
            if self.trace is not None:
                self.trace.block_read(pid, block_index)
            try:
                self.sealer.open(pid, block_index, sealed,
                                 self.freshness.expected(pid, block_index))
            except (AuthFailure, StaleBlock):
                # sealed copy predates the last recovery (its seal event
                # never became durable); the replayed store is authoritative
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
        """Seal one block image and publish it to untrusted storage."""
        counter = self.freshness.next_counter(pid, block_index)
        sealed = self.sealer.seal(pid, block_index, counter, plaintext)
        self.sealed.write(pid, block_index, sealed)
        if self.journal is not None:
            self.journal.log_seal(pid, block_index, counter)
        if self.trace is not None:
            self.trace.block_write(pid, block_index)
        return sealed

    def open_block(self, pid: int, block_index: int,
                   sealed: SealedBlock) -> bytes:
        """Verify and decrypt a sealed block; strict freshness semantics."""
        plaintext = self.sealer.open(pid, block_index, sealed,
                                     self.freshness.expected(pid, block_index))
        if self.trace is not None:
            self.trace.block_read(pid, block_index)
        return plaintext

    def prefetch_partition(self, pid: int) -> int:
        """Warm the cache with a partition's blocks (off the critical path)."""
        if not self.store.has_partition(pid):
            raise UnknownPartition(f"no partition {pid}")
        n = 0
        for block_index in self.store.partition_blocks(pid):
            self._access(pid, block_index, dirty=False, prefetch=True)
            n += 1
        return n

    def flush_dirty(self) -> int:
        """Seal every dirty resident block (used at shutdown/quiesce)."""
        n = 0
        for key, dirty in list(self._lru.items()):
            if dirty:
                self.seal_block(*key, self.store.read_block(*key))
                self._lru[key] = False
                n += 1
        return n
