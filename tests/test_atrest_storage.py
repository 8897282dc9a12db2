import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidstore.atrest_storage import (
    AtRestLayer,
    BLOCK_SIZE,
    SEALED_OVERHEAD,
    SealedBlock,
)
from fidstore.errors import AuthFailure, StaleBlock, UnknownPartition
from fidstore.mapping_store import (
    CLASS_SHIFT,
    MappingStore,
    PartitionKind,
    class_index,
)
from fidstore.zone_sim import AdversaryTrace, ZoneTopology


def _layer(capacity=None, store=None):
    store = store or MappingStore()
    layer = AtRestLayer(store, os.urandom(32), capacity_blocks=capacity)
    return store, layer


def test_seal_open_round_trip():
    _, layer = _layer()
    block = os.urandom(BLOCK_SIZE)
    sealed = layer.seal_block(0, 0, block)
    assert layer.open_block(0, 0, sealed) == block


def test_counters_strictly_increase():
    _, layer = _layer()
    s1 = layer.seal_block(1, 5, bytes(BLOCK_SIZE))
    s2 = layer.seal_block(1, 5, bytes(BLOCK_SIZE))
    assert s2.counter == s1.counter + 1


def test_identical_plaintext_distinct_ciphertext():
    _, layer = _layer()
    block = bytes(BLOCK_SIZE)
    s1 = layer.seal_block(2, 0, block)
    s2 = layer.seal_block(2, 0, block)
    assert s1.ciphertext != s2.ciphertext
    assert s1.nonce != s2.nonce


def test_replay_superseded_block_is_stale():
    _, layer = _layer()
    old = layer.seal_block(3, 7, os.urandom(BLOCK_SIZE))
    layer.seal_block(3, 7, os.urandom(BLOCK_SIZE))
    layer.trace = AdversaryTrace()
    with pytest.raises(StaleBlock):
        layer.open_block(3, 7, old)
    # the untrusted side saw the read whether or not the block verified
    assert layer.trace.events == [("BlockRead", (3 << 40) | 7)]


def test_corruption_is_auth_failure():
    _, layer = _layer()
    sealed = layer.seal_block(4, 1, os.urandom(BLOCK_SIZE))
    bad_ct = bytearray(sealed.ciphertext)
    bad_ct[100] ^= 0x01
    with pytest.raises(AuthFailure):
        layer.open_block(4, 1, SealedBlock(sealed.counter, sealed.nonce,
                                           sealed.tag, bytes(bad_ct)))
    bad_ctr = SealedBlock(sealed.counter + 9, sealed.nonce, sealed.tag,
                          sealed.ciphertext)
    with pytest.raises(AuthFailure):
        # the counter is bound via AAD, so a forged counter fails the tag
        layer.open_block(4, 1, bad_ctr)


def test_amortized_overhead_arithmetic():
    assert SEALED_OVERHEAD == 36
    per_field = SEALED_OVERHEAD / (BLOCK_SIZE // 8)  # 512 8-byte slots
    assert per_field < 0.08
    assert per_field < 28  # field-level AEAD metadata


def test_cache_hits_and_faults_counting():
    store = MappingStore()
    _, layer = _layer(capacity=4, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    # 8 slots per block; touch 6 distinct blocks cold
    fids = [store.put(pid, bytes(512)) for _ in range(48)]
    assert layer.faults == 6
    store.get(fids[-1])  # resident block
    assert layer.hits == 43  # 48 puts hit after first touch of each block + this get
    # evictions sealed the dirty blocks that fell out of the 4-block cache
    assert layer.sealer.seals == 2
    # fault back a sealed block: one open
    store.get(fids[0])
    assert layer.sealer.opens == 1
    assert layer.faults == 7


def test_eviction_off_critical_path():
    """A get on a cached block performs zero seal/open operations."""
    store = MappingStore()
    _, layer = _layer(capacity=None, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes(8)) for _ in range(1000)]
    seals, opens = layer.sealer.seals, layer.sealer.opens
    for fid in fids:
        store.get(fid)
    assert layer.sealer.seals == seals
    assert layer.sealer.opens == opens


def test_prefetch_then_sequential_gets_no_faults():
    store = MappingStore()
    _, layer = _layer(capacity=64, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes(256)) for _ in range(256)]  # 16 blocks
    layer.flush_dirty()
    layer._lru.clear()  # cold cache
    layer.faults = 0
    layer.prefetch_partition(pid)
    assert layer.prefetched == 16
    assert layer.faults == 0
    for fid in fids:
        store.get(fid)
    assert layer.faults == 0

    with pytest.raises(UnknownPartition):
        layer.prefetch_partition(99)


def _cold_partition(capacity):
    """A partition of 16 sealed blocks (256 B values, 16 per block) behind
    an empty cache of `capacity` blocks."""
    store = MappingStore()
    _, layer = _layer(capacity=None, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes(256)) for _ in range(256)]
    layer.flush_dirty()
    layer._lru.clear()
    layer.capacity_blocks = capacity
    return store, layer, pid, fids


def test_prefetch_into_full_cache_does_nothing():
    store, layer, pid, fids = _cold_partition(capacity=4)
    for fid in fids[-4 * 16::16]:  # the last 4 blocks fill the cache
        store.get(fid)
    resident = list(layer._lru)
    seals, opens = layer.sealer.seals, layer.sealer.opens
    layer.trace = AdversaryTrace()
    layer.prefetch_partition(pid)
    assert list(layer._lru) == resident
    assert (layer.sealer.seals, layer.sealer.opens) == (seals, opens)
    assert layer.prefetched == 0
    assert layer.trace.events == []


def test_prefetch_fills_exactly_the_free_slots():
    store, layer, pid, fids = _cold_partition(capacity=6)
    store.get(fids[-1])  # block 15 resident, 5 slots free
    seals, opens = layer.sealer.seals, layer.sealer.opens
    layer.trace = AdversaryTrace()
    layer.prefetch_partition(pid)
    assert layer.prefetched == 5
    assert layer.sealer.opens == opens + 5
    assert len(layer._lru) == 6
    base = class_index(256, store.classes) << CLASS_SHIFT
    assert set(layer._lru) == {(pid, base | b) for b in (0, 1, 2, 3, 4, 15)}
    assert layer.sealer.seals == seals
    assert [k for k, _ in layer.trace.events] == ["BlockRead"] * 5


def test_hit_rate_counts_demand_accesses_only():
    topo = ZoneTopology(5, cache_capacity_blocks=64)
    store = topo.privacy.store
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes(256)) for _ in range(256)]  # 16 blocks
    layer = topo.privacy.atrest
    layer.flush_dirty()
    layer._lru.clear()
    prefetched, hits, faults = layer.prefetched, layer.hits, layer.faults
    layer.prefetch_partition(pid)
    assert (layer.prefetched - prefetched, layer.hits, layer.faults) == (16, hits, faults)
    for fid in fids:
        store.get(fid)
    assert (layer.hits - hits, layer.faults - faults) == (256, 0)


def test_cold_gets_fault_once_per_block():
    store = MappingStore()
    _, layer = _layer(capacity=64, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes(256)) for _ in range(256)]
    layer.flush_dirty()
    layer._lru.clear()
    layer.faults = 0
    for fid in fids:
        store.get(fid)
    assert layer.faults == 16  # one major fault per distinct block


def test_zipfian_beats_uniform_hit_rate():
    def hit_rate(zipf: bool, seed: int) -> float:
        store = MappingStore()
        _, layer = _layer(capacity=8, store=store)
        store.blocks = layer
        pid = store.create_partition(PartitionKind.PERMANENT)
        fids = [store.put(pid, bytes(64)) for _ in range(4096)]  # 64 blocks
        rng = random.Random(seed)
        if zipf:
            weights = [1.0 / (i ** 0.8) for i in range(1, len(fids) + 1)]
            total = sum(weights)
            import bisect
            acc, cum = 0.0, []
            for w in weights:
                acc += w / total
                cum.append(acc)
            picks = [fids[bisect.bisect_left(cum, rng.random())]
                     for _ in range(20000)]
        else:
            picks = [fids[rng.randrange(len(fids))] for _ in range(20000)]
        layer.hits = layer.faults = 0
        for fid in picks:
            store.get(fid)
        return layer.hits / (layer.hits + layer.faults)

    for seed in range(5):
        assert hit_rate(True, seed) > hit_rate(False, seed)


# lengths from the 16-byte class and from the classes of a few values per
# block, so buckets span several blocks within a short op sequence
_length = st.integers(1, 16) | st.integers(1025, 4096)
_store_op = st.one_of(
    st.tuples(st.just("put"), _length),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16)),
    st.tuples(st.just("restore"), st.integers(0, 1 << 16), _length),
    st.tuples(st.just("apply_delete"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=120, deadline=None, database=None)
@given(ops=st.lists(_store_op, max_size=60), capacity=st.integers(2, 4))
def test_varlen_buckets_stay_dense_under_any_op_sequence(ops, capacity):
    """Puts, deletes, restores (at a free offset or one past the allocated
    ones) and replayed deletes on a permanent varlen partition behind a
    small cache:
    every bucket stays packed, the partition spans exactly the blocks its
    live values need, no cached block or current copy lies past a bucket's
    end, the sealed area holds exactly the current copies, and every value
    reads back, also from the slot map and the block images."""
    store = MappingStore()
    _, layer = _layer(capacity=capacity, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    p = store.partition(pid)
    rng = random.Random(len(ops))
    model: dict[int, bytes] = {}
    for op in ops:
        if op[0] == "put":
            value = rng.randbytes(op[1])
            model[store.put(pid, value)] = value
        elif op[0] == "flush":
            layer.flush_dirty()
        elif op[0] == "delete":
            if model:
                fid = sorted(model)[op[1] % len(model)]
                store.delete(fid)
                del model[fid]
        else:
            # a restore or a replayed delete names a live offset or one up
            # to 2 past the allocated ones; a restore skips a live one, and
            # the free lists are rebuilt after replay
            fid = p.fid_base | (op[1] % (p.alloc_counter + 3))
            if op[0] == "restore":
                if fid not in model:
                    model[fid] = rng.randbytes(op[2])
                    store.restore(fid, model[fid])
            else:
                model.pop(fid, None)
                store.apply_delete(fid)
                store.rebuild_free_lists(pid)

        spanned = set()
        for cls, bucket in enumerate(p.buckets):
            assert None not in bucket
            n = -(-len(bucket) * store.classes[cls] // BLOCK_SIZE)
            spanned.update((cls << CLASS_SHIFT) | i for i in range(n))
        assert set(store.partition_blocks(pid)) == spanned
        assert {b for _, b in layer._lru} <= spanned
        assert {b for _, b in layer.copies} <= spanned
        assert {(b, c) for _, b, c in layer.sealed.blocks} == {
            (b, c) for (_, b), (c, _) in layer.copies.items()}

    for fid, value in model.items():
        assert store.get(fid) == value
    other = MappingStore()
    other.load_slot_map(pid, store.slot_map(pid), {
        b: store.read_block(pid, b) for b in store.partition_blocks(pid)})
    assert {fid: other.get(fid) for fid in model} == model
    assert other.live_fids(pid) == sorted(model)


@pytest.mark.parametrize("order", ["grow_then_restore", "restore_then_grow"])
def test_dropped_block_copy_is_refused_when_put_back(order):
    """A bucket shrinks past a sealed block, so its current copy is deleted
    and the block has none. If the untrusted side keeps that copy and
    puts it back, whether the bucket grows again before or after, faulting
    the block never opens it, since the block has no current copy, the
    value read is still right, and opening the copy raises StaleBlock."""
    store = MappingStore()
    _, layer = _layer(capacity=2, store=store)
    store.blocks = layer
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, bytes([i]) * 2048) for i in range(4)]  # 2 per block
    layer.flush_dirty()
    block = (class_index(2048, store.classes) << CLASS_SHIFT) | 1
    counter, _ = layer.copies[(pid, block)]
    old = layer.sealed.read(pid, block, counter)
    assert old is not None

    store.delete(fids[3])
    store.delete(fids[2])
    assert store.partition_blocks(pid) == [block - 1]
    assert layer.sealed.read(pid, block, counter) is None
    assert (pid, block) not in layer._lru and (pid, block) not in layer.copies

    value = b"\x07" * 2048
    opens = layer.sealer.opens
    if order == "grow_then_restore":
        # a restore grows the bucket at the freed FID: the block's fault
        store.restore(fids[2], value)
        layer.sealed.write(pid, block, old)
        assert store.get(fids[2]) == value
    else:
        layer.sealed.write(pid, block, old)
        assert store.put(pid, value) == fids[2]  # the fault
        assert store.get(fids[2]) == value
    assert (layer.sealer.opens, layer.stale_dropped) == (opens, 0)
    with pytest.raises(StaleBlock):
        layer.open_block(pid, block, old)
