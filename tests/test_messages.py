import struct

import pytest

from fidstore.errors import DivideByZero, NotLive, UnknownPartition, WrongPartitionKind
from fidstore.fid_codec import decode_fid
from fidstore.messages import OP_DEST, QUERY_TEMP_TARGET
from fidstore.privacy_proxy import OperatorRequest, OpKind, ValueType, encode_int64
from fidstore.zone_sim import ZoneTopology


@pytest.fixture
def topo():
    return ZoneTopology(999)


def test_header_layout(topo):
    captured = []
    original = topo.channel.request

    def spy(raw):
        captured.append(raw)
        return original(raw)

    topo.channel.request = spy
    topo.client.create_partition(1, 2, 0)
    raw = captured[0]
    kind, query_id = struct.unpack_from("<BQ", raw, 0)
    assert kind == 8  # create-partition
    assert query_id == 0


def test_fids_travel_little_endian(topo):
    pid = topo.client.create_partition(1, 2, 0)
    tmp_fid = topo.client.ingest(1, topo.client_encrypt(encode_int64(5)))
    captured = []
    original = topo.channel.request

    def spy(raw):
        captured.append(raw)
        return original(raw)

    topo.channel.request = spy
    perm_fid = topo.client.promote(tmp_fid, pid)
    raw = captured[0]
    assert raw[9:17] == tmp_fid.to_bytes(8, "little")
    assert struct.unpack_from("<I", raw, 17)[0] == pid
    assert topo.client.is_live(perm_fid)


def test_error_codes_cross_the_wire(topo):
    with pytest.raises(UnknownPartition):
        topo.client.prefetch(12345)
    with pytest.raises(NotLive):
        topo.client.delete(0xABCDEF)
    pid = topo.client.create_partition(1, 2, 0)
    fid = topo.client.promote(
        topo.client.ingest(7, topo.client_encrypt(b"value-1")), pid)
    topo.client.delete(fid)
    with pytest.raises(NotLive):
        topo.client.reveal(7, fid)


def test_operator_batch_positional_errors(topo):
    a = topo.client.ingest(3, topo.client_encrypt(encode_int64(9)))
    z = topo.client.ingest(3, topo.client_encrypt(encode_int64(0)))
    out = topo.client.exec_batch(3, [
        OperatorRequest(OpKind.DIV, ValueType.INT64, [a, z]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, a]),
    ], 16)
    assert out[0].error_code == DivideByZero.code
    assert out[1].error_code == 0 and out[1].fid is not None


def test_booleans_are_one_byte(topo):
    a = topo.client.ingest(4, topo.client_encrypt(encode_int64(1)))
    b = topo.client.ingest(4, topo.client_encrypt(encode_int64(2)))
    captured = []
    original = topo.channel.request

    def spy(raw):
        resp = original(raw)
        captured.append(resp)
        return resp

    topo.channel.request = spy
    resp = topo.client.exec_batch(
        4, [OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [a, b])], 8)
    assert resp[0].boolean is True
    # response: status, count u16, elem status, result_kind, bool
    assert captured[0] == b"\x00\x01\x00\x00\x01\x01"


def test_cipher_backend_round_trip(topo):
    env = topo.client_encrypt(encode_int64(21))
    zone_env = topo.client.cipher_ingest(5, env)
    assert zone_env != env
    out = topo.client.cipher_exec(
        5, [(OpKind.ADD, ValueType.INT64, [zone_env, zone_env])], 4)
    result_env, flag, code = out[0]
    assert code == 0 and flag is None
    back = topo.client.cipher_reveal(5, result_env)
    from fidstore.privacy_proxy import decode_int64
    assert decode_int64(topo.client_decrypt(back)) == 42
    crypto = topo.privacy.zone_codec.encrypts + topo.privacy.zone_codec.decrypts
    assert crypto >= 5  # ingest(1 enc) + op(2 dec + 1 enc) + reveal(1 dec)


def test_end_query_via_wire_is_idempotent(topo):
    fid = topo.client.ingest(6, topo.client_encrypt(b"temp-value"))
    assert topo.client.is_live(fid)
    topo.client.end_query(6)
    assert not topo.client.is_live(fid)
    topo.client.end_query(6)  # no error


def test_destination_must_be_own_temp_or_permanent(topo):
    """Ingest and operator results go to the caller's own temporaries or to
    a permanent partition; naming another query's temporary partition is
    refused and leaves that partition as it was."""
    victim = topo.client.ingest(5, topo.client_encrypt(encode_int64(1)))
    temp5 = decode_fid(topo.config, victim)[0]
    with pytest.raises(WrongPartitionKind):
        topo.client.ingest(6, topo.client_encrypt(encode_int64(2)), temp5)
    out = topo.client.exec_batch(6, [OperatorRequest(
        OpKind.ADD, ValueType.INT64, [victim, victim], temp5)], 4)
    assert out[0].error_code == WrongPartitionKind.code
    assert topo.privacy.store.live_fids(temp5) == [victim]

    perm = topo.client.create_partition(1, 2, 0)
    own = topo.client.ingest(6, topo.client_encrypt(encode_int64(3)),
                             QUERY_TEMP_TARGET)
    temp6 = decode_fid(topo.config, own)[0]
    out = topo.client.exec_batch(6, [
        OperatorRequest(OpKind.ADD, ValueType.INT64, [own, own]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [own, own], QUERY_TEMP_TARGET),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [own, own], perm),
    ], 4)
    assert [decode_fid(topo.config, r.fid)[0] for r in out] == [temp6, temp6, perm]
    topo.client.end_query(6)
    assert not topo.client.is_live(out[0].fid)
    assert topo.client.is_live(out[2].fid)
    assert topo.client.is_live(victim)


def test_operator_destination_on_the_wire(topo):
    """Only an element that names a destination carries one: its op byte
    has OP_DEST set and a u32 partition id follows the element head."""
    a = topo.client.ingest(8, topo.client_encrypt(encode_int64(4)))
    perm = topo.client.create_partition(1, 2, 0)
    captured = []
    original = topo.channel.request

    def spy(raw):
        captured.append(raw)
        return original(raw)

    topo.channel.request = spy
    topo.client.exec_batch(8, [
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, a]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, a], perm),
    ], 4)
    fids = struct.pack("<QQ", a, a)
    assert captured[0][9:] == (
        struct.pack("<HBBH", 2, OpKind.ADD, ValueType.INT64, 2) + fids
        + struct.pack("<BBHI", OpKind.ADD | OP_DEST, ValueType.INT64, 2, perm) + fids)
