import random

import pytest

from fidstore.errors import OutOfRange
from fidstore.fid_codec import (
    MAX_OFFSET,
    MAX_PARTITIONS,
    decode_fid,
    encode_fid,
)
from fidstore.integrity_dbms import Column, ColumnType, FidBackend, Table


def test_zero_case():
    assert encode_fid(0, 0) == 0
    assert decode_fid(0) == (0, 0)


def test_known_value_shift_or():
    # oracle: partition 3 in the high 16 bits, offset 7 in the low 48
    expected = 3 * (2 ** 48) + 7
    assert expected == 0x0003_0000_0000_0007
    assert encode_fid(3, 7) == expected
    assert decode_fid(0x0003_0000_0000_0007) == (3, 7)


def test_offset_width_boundary():
    with pytest.raises(OutOfRange):
        encode_fid(0, 2 ** 48)
    with pytest.raises(OutOfRange):
        encode_fid(2 ** 16, 0)
    # the largest representable pair is fine
    assert decode_fid(encode_fid(2 ** 16 - 1, 2 ** 48 - 1)) == (
        2 ** 16 - 1, 2 ** 48 - 1)


def test_round_trip_random_pairs():
    rng = random.Random(0xF1D)
    for _ in range(100_000):
        p = rng.randrange(MAX_PARTITIONS)
        o = rng.randrange(MAX_OFFSET)
        assert decode_fid(encode_fid(p, o)) == (p, o)


def test_partition_segmentation():
    rng = random.Random(1)
    for _ in range(1000):
        p1, p2 = rng.sample(range(MAX_PARTITIONS), 2)
        o = rng.randrange(MAX_OFFSET)
        assert encode_fid(p1, o) != encode_fid(p2, o)


def test_wire_form_little_endian():
    """A FID cell is 8 little-endian bytes in the engine's rows."""
    fid = encode_fid(3, 7)
    table = Table("t", 0, [Column("k", ColumnType.SENSITIVE_INT)], 3, FidBackend.ref_code)
    raw = table.encode([fid])
    assert raw == bytes([7, 0, 0, 0, 0, 0, 3, 0])
    assert table.decode(raw, 0) == ([fid], 8)
