import random
import struct

import pytest

from fidstore.errors import (
    CorruptLog,
    NotLive,
    PartitionFull,
    PartitionSpaceExhausted,
    UnknownPartition,
    ValueTooLarge,
    WrongPartitionKind,
)
from fidstore import mapping_store
from fidstore.fid_codec import MAX_OFFSET, OFFSET_BITS, OFFSET_MASK, decode_fid
from fidstore.mapping_store import (
    BLOCK_SIZE,
    SLOT_HEAD,
    MappingStore,
    PartitionKind,
    size_classes,
)

from .oracles import ModelStore


@pytest.fixture
def store():
    return MappingStore()


def test_same_plaintext_distinct_fids(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY)
    f1 = store.put(tmp, b"\x2a\x00\x00\x00")
    f2 = store.put(tmp, b"\x2a\x00\x00\x00")
    assert f1 != f2


def test_monotonic_offsets_from_zero(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    offsets = [decode_fid(store.put(pid, b"abcd"))[1] for _ in range(10)]
    assert offsets == list(range(10))


def test_delete_then_put_reuses_slot(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"v001")
    f1 = store.put(pid, b"v002")
    store.put(pid, b"v003")
    counter_before = store.partition(pid).alloc_counter
    store.delete(f1)
    f2 = store.put(pid, b"v004")
    assert f2 == f1
    assert store.partition(pid).alloc_counter == counter_before


def test_read_your_write_and_absent(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    fid = store.put(pid, b"abc")
    assert store.get(fid) == b"abc"
    assert store.get(fid + 1) is None          # never allocated
    assert store.get(0xDEAD << 48) is None     # unknown partition


def test_delete_semantics(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    fid = store.put(pid, b"abc")
    store.delete(fid)
    assert store.get(fid) is None
    with pytest.raises(NotLive):
        store.delete(fid)


def test_data_bytes_do_not_grow_on_same_class_reuse(store):
    pid = store.create_partition(PartitionKind.PERMANENT)

    def data_bytes():  # the bytes the partition's size-class buckets span
        return sum(len(bucket) * size
                   for bucket, size in zip(store.partition(pid).buckets, store.classes))

    for _ in range(50):
        store.put(pid, b"x" * 30)
    before = data_bytes()
    victim = store.put(pid, b"y" * 30)
    grown = data_bytes()
    assert grown > before
    store.delete(victim)
    store.put(pid, b"z" * 25)  # same 32-byte class
    assert data_bytes() == grown


def test_promote_copies_and_keeps_temp_live(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY)
    perm = store.create_partition(PartitionKind.PERMANENT)
    t = store.put(tmp, b"hello")
    p = store.promote(t, perm)
    assert store.get(p) == b"hello"
    assert store.get(t) == b"hello"
    assert decode_fid(p)[0] == perm


def test_promote_kind_checks(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY)
    perm = store.create_partition(PartitionKind.PERMANENT)
    p = store.put(perm, b"xx")
    with pytest.raises(WrongPartitionKind):
        store.promote(p, perm)
    t = store.put(tmp, b"yy")
    with pytest.raises(WrongPartitionKind):
        store.promote(t, tmp)
    store.delete(t)
    with pytest.raises(NotLive):
        store.promote(t, perm)


def test_drop_temporary(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY)
    fids = [store.put(tmp, bytes([i]) * 8) for i in range(7)]
    store.delete(fids[2])
    assert store.drop_temporary(tmp) == 6
    assert store.drop_temporary(tmp) == 0
    for fid in fids:
        assert store.get(fid) is None
    assert store.partition(tmp).alloc_counter == 0
    perm = store.create_partition(PartitionKind.PERMANENT)
    with pytest.raises(WrongPartitionKind):
        store.drop_temporary(perm)


def test_partition_space_exhausted(monkeypatch):
    # creating all 65 536 ids would take a second; _next_free_id reads the
    # module's limit at call time
    monkeypatch.setattr(mapping_store, "MAX_PARTITIONS", 16)
    store = MappingStore()
    for _ in range(16):
        store.create_partition(PartitionKind.TEMPORARY)
    with pytest.raises(PartitionSpaceExhausted):
        store.create_partition(PartitionKind.TEMPORARY)


def test_partition_full():
    store = MappingStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    p = store.partition(pid)
    p.alloc_counter = MAX_OFFSET  # simulate an exhausted offset space
    with pytest.raises(PartitionFull):
        store.put(pid, b"abcd")
    # a refused put takes no bucket slot
    assert not any(p.buckets) and not any(p.owners)


def test_size_validation(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    with pytest.raises(ValueTooLarge):
        store.put(pid, b"x" * 5000)
    with pytest.raises(ValueTooLarge):
        store.put(pid, b"")  # an image marks a dead offset by length 0
    with pytest.raises(UnknownPartition):
        store.put(99, b"abcd")


def test_size_classes_cover_and_ascend():
    classes = size_classes(4096)
    assert classes[0] == 16
    assert classes[-1] == 4096
    assert classes == sorted(classes)
    for a, b in zip(classes, classes[1:]):
        assert b == a * 2


def test_fid_data_independence(store):
    """Same call sequence with different equal-length payloads yields the
    identical FID sequence."""
    def run(payload_of):
        s = MappingStore()
        tmp = s.create_partition(PartitionKind.TEMPORARY)
        perm = s.create_partition(PartitionKind.PERMANENT)
        rng = random.Random(99)
        fids = []
        live = []
        for i in range(2000):
            roll = rng.random()
            if roll < 0.55 or not live:
                f = s.put(tmp if rng.random() < 0.5 else perm, payload_of(i))
                fids.append(f)
                live.append(f)
            elif roll < 0.8:
                f = live.pop(rng.randrange(len(live)))
                s.delete(f)
            else:
                f = live[rng.randrange(len(live))]
                s.get(f)
        return fids

    a = run(lambda i: bytes([i % 250 + 1]) * 24)
    b = run(lambda i: bytes([(i * 7 + 3) % 250 + 1]) * 24)
    assert a == b


def test_oracle_equivalence_random_ops():
    """10^5 random put/get/delete/promote/drop ops match the naive model."""
    store = MappingStore()
    model = ModelStore(16)
    rng = random.Random(0xACE)

    pairs = []  # (kind, store_pid, model_pid)
    for kind in (PartitionKind.TEMPORARY, PartitionKind.PERMANENT,
                 PartitionKind.TEMPORARY, PartitionKind.PERMANENT):
        sp = store.create_partition(kind)
        mp = model.create_partition(int(kind))
        assert sp == mp
        pairs.append((kind, sp))

    live: list[int] = []
    history: list[int] = []
    checked = 0
    for i in range(100_000):
        roll = rng.random()
        if roll < 0.40 or not live:
            kind, pid = pairs[rng.randrange(len(pairs))]
            value = rng.randbytes(rng.randrange(1, 80))
            fs = store.put(pid, value)
            fm = model.put(pid, value)
            assert fs == fm
            live.append(fs)
            history.append(fs)
        elif roll < 0.70:
            fid = history[rng.randrange(len(history))]
            assert store.get(fid) == model.get(fid), f"divergence at op {i}"
            checked += 1
        elif roll < 0.85:
            fid = live.pop(rng.randrange(len(live)))
            ok = model.delete(fid)
            if ok:
                store.delete(fid)
            else:
                with pytest.raises(NotLive):
                    store.delete(fid)
        elif roll < 0.95:
            src = live[rng.randrange(len(live))]
            kind, pid = pairs[1]  # a permanent partition
            if (src >> OFFSET_BITS) in (pairs[0][1], pairs[2][1]):
                fs = store.promote(src, pid)
                fm = model.promote(src, pid)
                assert fs == fm
                live.append(fs)
                history.append(fs)
        else:
            tmp_pid = pairs[0][1] if rng.random() < 0.5 else pairs[2][1]
            ns = store.drop_temporary(tmp_pid)
            nm = model.drop_temporary(tmp_pid)
            assert ns == nm
            live = [f for f in live if (f >> OFFSET_BITS) != tmp_pid]
    # final sweep: every fid ever issued agrees
    for fid in history:
        assert store.get(fid) == model.get(fid)
    assert checked > 10_000


def test_slot_reuse_only_from_freed_offsets():
    store = MappingStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    rng = random.Random(5)
    live = [store.put(pid, b"aaaa") for _ in range(200)]
    freed = set()
    for _ in range(500):
        if live and rng.random() < 0.5:
            fid = live.pop(rng.randrange(len(live)))
            store.delete(fid)
            freed.add(fid & OFFSET_MASK)
        else:
            counter_before = store.partition(pid).alloc_counter
            fid = store.put(pid, b"bbbb")
            off = fid & OFFSET_MASK
            if freed:
                assert off in freed, "fresh allocation while free list non-empty"
                freed.discard(off)
            else:
                assert off == counter_before
            live.append(fid)


def test_metadata_accounting(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    fids = [store.put(pid, b"abcd") for _ in range(100)]
    assert store.live_fids(pid) == fids
    for fid in fids[:40]:
        store.delete(fid)
    p = store.partition(pid)
    assert store.live_fids(pid) == fids[40:]
    assert (len(p.free_list), p.alloc_counter) == (40, 100)


def test_varlen_bucket_occupancy_matches_live_count(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    rng = random.Random(11)
    live = []
    for _ in range(3000):
        if live and rng.random() < 0.4:
            store.delete(live.pop(rng.randrange(len(live))))
        else:
            live.append(store.put(pid, rng.randbytes(rng.randrange(1, 300))))
    p = store.partition(pid)
    for cls, bucket in enumerate(p.buckets):
        assert None not in bucket
        for slot, off in enumerate(p.owners[cls]):
            assert p.slots[off] == (cls, slot)
    assert sum(len(bucket) for bucket in p.buckets) == len(live)


def _blocks(store, pid) -> dict[int, bytes]:
    return {b: store.read_block(pid, b) for b in store.partition_blocks(pid)}


def test_slot_map_round_trip(store):
    """A partition rebuilt from its slot map and its block images holds
    every value at its FID, in the same bucket slots, with the same
    allocation counter and free offsets."""
    pid = store.create_partition(PartitionKind.PERMANENT)
    rng = random.Random(pid)
    fids = []
    for _ in range(100):
        fids.append(store.put(pid, rng.randbytes(rng.randrange(1, 200))))
    for fid in fids[::3]:
        store.delete(fid)

    other = MappingStore()
    other.load_slot_map(pid, store.slot_map(pid), _blocks(store, pid))
    for fid in fids:
        assert other.get(fid) == store.get(fid)
    p, q = store.partition(pid), other.partition(pid)
    assert (q.alloc_counter, q.owners, q.buckets) == (p.alloc_counter, p.owners,
                                                      p.buckets)
    assert sorted(q.free_list) == sorted(p.free_list)
    assert other.slot_map(pid) == store.slot_map(pid)


def test_slot_map_layout_bit_exact(store):
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"abcd")
    dead = store.put(pid, b"efg")
    store.put(pid, b"hi")
    store.put(pid, bytes(20))
    store.delete(dead)
    assert store.slot_map(pid) == (
        (4).to_bytes(8, "little")              # allocation counter
        + bytes([16, 1, 2])                    # prefix bits, owner width, classes
        + struct.pack("<2I", 2, 1)             # values per class
        + bytes([0, 2]) + struct.pack("<2H", 4, 2)  # class 16: owners, lengths
        + bytes([3]) + struct.pack("<H", 20))       # class 32


def test_slot_map_owner_width_is_the_narrowest_that_holds_every_offset(store):
    """An owner takes 1 byte up to 256 offsets and 2 from 257 on; an empty
    partition's map lists no class."""
    empty = store.create_partition(PartitionKind.PERMANENT)
    assert store.slot_map(empty) == SLOT_HEAD.pack(0, 16, 1, 0)
    pid = store.create_partition(PartitionKind.PERMANENT)
    for n in (256, 257):
        while store.partition(pid).alloc_counter < n:
            store.put(pid, b"x")
        head = store.slot_map(pid)[:SLOT_HEAD.size]
        assert SLOT_HEAD.unpack(head) == (n, 16, 1 if n == 256 else 2, 1)


def test_a_slot_map_naming_an_offset_twice_is_refused(store):
    """A map that places one offset in two bucket slots, or names a block
    the slots do not span, is refused, and no partition is left behind."""
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"abcd")
    store.put(pid, b"efgh")
    data = bytearray(store.slot_map(pid))
    owners = SLOT_HEAD.size + 4  # past the one class count
    assert data[owners:owners + 2] == bytes([0, 1])
    data[owners + 1] = 0
    other = MappingStore()
    with pytest.raises(CorruptLog, match="offset 0"):
        other.load_slot_map(pid, bytes(data), _blocks(store, pid))
    assert not other.has_partition(pid)
    extra = {**_blocks(store, pid), 1: bytes(BLOCK_SIZE)}
    with pytest.raises(CorruptLog):
        other.load_slot_map(pid, store.slot_map(pid), extra)
    assert not other.has_partition(pid)


def test_image_with_another_prefix_width_is_refused(store):
    """The slot map's prefix byte is the one check of the FID layout on
    input read from disk: a map minted under another width is refused."""
    pid = store.create_partition(PartitionKind.PERMANENT)
    store.put(pid, b"abcd")
    image = bytearray(store.slot_map(pid))
    assert image[8] == 16
    image[8] = 24
    other = MappingStore()
    with pytest.raises(CorruptLog, match="prefix_bits=24"):
        other.load_slot_map(pid, bytes(image), _blocks(store, pid))
    assert not other.has_partition(pid)
