import random

import pytest

from fidstore.errors import (
    NotLive,
    PartitionFull,
    PartitionSpaceExhausted,
    UnknownPartition,
    ValueTooLarge,
    WidthMismatch,
    WrongPartitionKind,
)
from fidstore.fid_codec import FidConfig, decode_fid
from fidstore.mapping_store import (
    MappingStore,
    PartitionKind,
    ValueLayout,
    size_classes,
)

from .oracles import ModelStore


@pytest.fixture
def store():
    return MappingStore(FidConfig(16))


def test_same_plaintext_distinct_fids(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY, ValueLayout.FIXED, 4)
    f1 = store.put(tmp, b"\x2a\x00\x00\x00")
    f2 = store.put(tmp, b"\x2a\x00\x00\x00")
    assert f1 != f2


def test_monotonic_offsets_from_zero(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 4)
    cfg = store.config
    offsets = [decode_fid(cfg, store.put(pid, b"abcd"))[1] for _ in range(10)]
    assert offsets == list(range(10))


def test_delete_then_put_reuses_slot(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 4)
    store.put(pid, b"v001")
    f1 = store.put(pid, b"v002")
    store.put(pid, b"v003")
    counter_before = store.partition(pid).alloc_counter
    store.delete(f1)
    f2 = store.put(pid, b"v004")
    assert f2 == f1
    assert store.partition(pid).alloc_counter == counter_before


def test_read_your_write_and_absent(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    fid = store.put(pid, b"abc")
    assert store.get(fid) == b"abc"
    assert store.get(fid + 1) is None          # never allocated
    assert store.get(0xDEAD << 48) is None     # unknown partition


def test_delete_semantics(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    fid = store.put(pid, b"abc")
    store.delete(fid)
    assert store.get(fid) is None
    with pytest.raises(NotLive):
        store.delete(fid)


def test_data_bytes_do_not_grow_on_same_class_reuse(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    for _ in range(50):
        store.put(pid, b"x" * 30)
    before = store.stats().bytes_data
    victim = store.put(pid, b"y" * 30)
    grown = store.stats().bytes_data
    assert grown > before
    store.delete(victim)
    store.put(pid, b"z" * 25)  # same 32-byte class
    assert store.stats().bytes_data == grown


def test_promote_copies_and_keeps_temp_live(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)
    perm = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    t = store.put(tmp, b"hello")
    p = store.promote(t, perm)
    assert store.get(p) == b"hello"
    assert store.get(t) == b"hello"
    assert decode_fid(store.config, p)[0] == perm


def test_promote_kind_checks(store):
    tmp = store.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)
    perm = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
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
    tmp = store.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)
    fids = [store.put(tmp, bytes([i]) * 8) for i in range(7)]
    store.delete(fids[2])
    assert store.drop_temporary(tmp) == 6
    assert store.drop_temporary(tmp) == 0
    for fid in fids:
        assert store.get(fid) is None
    assert store.partition(tmp).alloc_counter == 0
    perm = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    with pytest.raises(WrongPartitionKind):
        store.drop_temporary(perm)


def test_partition_space_exhausted():
    store = MappingStore(FidConfig(4))
    for _ in range(16):
        store.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)
    with pytest.raises(PartitionSpaceExhausted):
        store.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)


def test_partition_full():
    store = MappingStore(FidConfig(32))  # 32-bit offsets would take too long;
    for layout, width in ((ValueLayout.FIXED, 4), (ValueLayout.VARLEN, None)):
        pid = store.create_partition(PartitionKind.PERMANENT, layout, width)
        p = store.partition(pid)
        p.alloc_counter = p.limit  # simulate an exhausted offset space
        p.slots = [None] * 0
        with pytest.raises(PartitionFull):
            store.put(pid, b"abcd")
        # a refused put takes no bucket slot
        assert sum(p.class_live) == 0 and not any(p.buckets)


def test_width_and_size_validation(store):
    fixed = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 8)
    with pytest.raises(WidthMismatch):
        store.put(fixed, b"short")
    var = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    with pytest.raises(ValueTooLarge):
        store.put(var, b"x" * 5000)
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
        s = MappingStore(FidConfig(16))
        tmp = s.create_partition(PartitionKind.TEMPORARY, ValueLayout.VARLEN)
        perm = s.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
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
    store = MappingStore(FidConfig(16))
    model = ModelStore(16)
    rng = random.Random(0xACE)

    pairs = []  # (kind, store_pid, model_pid)
    for kind in (PartitionKind.TEMPORARY, PartitionKind.PERMANENT,
                 PartitionKind.TEMPORARY, PartitionKind.PERMANENT):
        sp = store.create_partition(kind, ValueLayout.VARLEN)
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
            if (src >> store.config.offset_bits) in (pairs[0][1], pairs[2][1]):
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
            shift = store.config.offset_bits
            live = [f for f in live if (f >> shift) != tmp_pid]
    # final sweep: every fid ever issued agrees
    for fid in history:
        assert store.get(fid) == model.get(fid)
    assert checked > 10_000


def test_slot_reuse_only_from_freed_offsets():
    store = MappingStore(FidConfig(16))
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 4)
    rng = random.Random(5)
    live = [store.put(pid, b"aaaa") for _ in range(200)]
    freed = set()
    for _ in range(500):
        if live and rng.random() < 0.5:
            fid = live.pop(rng.randrange(len(live)))
            store.delete(fid)
            freed.add(fid & store.config.offset_mask)
        else:
            counter_before = store.partition(pid).alloc_counter
            fid = store.put(pid, b"bbbb")
            off = fid & store.config.offset_mask
            if freed:
                assert off in freed, "fresh allocation while free list non-empty"
                freed.discard(off)
            else:
                assert off == counter_before
            live.append(fid)


def test_metadata_accounting(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 4)
    fids = [store.put(pid, b"abcd") for _ in range(100)]
    assert store.stats().bytes_metadata == 100 * 8
    for fid in fids[:40]:
        store.delete(fid)
    stats = store.stats()
    assert stats.bytes_metadata == 60 * 8
    assert stats.live_count == 60
    assert stats.deleted_count == 40
    assert stats.reused_slots + stats.fresh_allocations == 100


def test_varlen_bucket_occupancy_matches_live_count(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.VARLEN)
    rng = random.Random(11)
    live = []
    for _ in range(3000):
        if live and rng.random() < 0.4:
            store.delete(live.pop(rng.randrange(len(live))))
        else:
            live.append(store.put(pid, rng.randbytes(rng.randrange(1, 300))))
    p = store.partition(pid)
    for cls, bucket in enumerate(p.buckets):
        occupied = sum(1 for v in bucket if v is not None)
        assert occupied == p.class_live[cls]
    assert sum(p.class_live) == len(live)


def test_dump_load_round_trip(store):
    for layout, width in ((ValueLayout.FIXED, 16), (ValueLayout.VARLEN, None)):
        pid = store.create_partition(PartitionKind.PERMANENT, layout, width)
        rng = random.Random(pid)
        fids = []
        for _ in range(100):
            v = rng.randbytes(width or rng.randrange(1, 200))
            fids.append(store.put(pid, v))
        for fid in fids[::3]:
            store.delete(fid)
        data, state = store.dump_partition(pid)

        other = MappingStore(FidConfig(16))
        other.load_partition(pid, data, state)
        for fid in fids:
            assert other.get(fid) == store.get(fid)
        assert other.partition(pid).alloc_counter == store.partition(pid).alloc_counter
        assert sorted(other.partition(pid).free_list) == \
            sorted(store.partition(pid).free_list)


def test_superblock_layout_bit_exact(store):
    pid = store.create_partition(PartitionKind.PERMANENT, ValueLayout.FIXED, 4)
    store.put(pid, b"abcd")
    store.put(pid, b"efgh")
    data, state = store.dump_partition(pid)
    assert data[:8] == b"FIDSTOR1"
    assert data[8] == 16            # prefix_bits
    assert data[9] == 1             # permanent
    assert data[10] == 1            # fixed layout
    assert data[11:15] == (4).to_bytes(4, "little")
    assert data[15:23] == (2).to_bytes(8, "little")
    assert len(data) == 32 + 2 * 4
    assert data[32:36] == b"abcd"
    assert state == bytes([0b0101])  # two live slots, 2 bits each
