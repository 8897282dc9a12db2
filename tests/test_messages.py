import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidstore.errors import (
    AuthFailure,
    DivideByZero,
    NotLive,
    TypeMismatch,
    UnknownPartition,
    ValueTooLarge,
    WrongPartitionKind,
)
from fidstore import wal
from fidstore.fid_codec import MAX_OFFSET, decode_fid, encode_fid
from fidstore.mapping_store import MAX_VALUE_LEN
from fidstore.messages import (
    MSG_CIPHER_EXEC,
    MSG_CIPHER_INGEST,
    MSG_CIPHER_REVEAL,
    MSG_CREATE_PARTITION,
    MSG_DELETE,
    MSG_END_QUERY,
    MSG_EXEC_BATCH,
    MSG_FLUSH_LOG,
    MSG_INGEST,
    MSG_IS_LIVE,
    MSG_LIST_LIVE,
    MSG_PREFETCH,
    MSG_PROMOTE,
    MSG_RESTORE,
    MSG_REVEAL,
    OP_CONST,
    OP_DEST,
    OP_REVEAL,
    QUERY_FLAG,
    QUERY_TEMP_TARGET,
    CHECKPOINT,
    RECIPE_EXEC,
    RECIPE_INGEST,
    ProxyClient,
    _blob,
    _read_blob,
    _read_blobs,
    _read_op,
    _read_ops,
    _read_u64,
    _req,
    _split,
    _write_op,
    _writes_temp,
)
from fidstore.privacy_proxy import (
    OperatorRequest,
    OperatorResponse,
    OpKind,
    ValueType,
    decode_int64,
    encode_float64,
    encode_int64,
)
from fidstore.zone_sim import ZoneTopology


@pytest.fixture
def topo():
    return ZoneTopology(999)


def test_header_layout(topo):
    """A request that names no temporary is its kind byte and its payload:
    a create is the kind byte alone. One that does, a temp-target ingest,
    sets QUERY_FLAG in the kind byte and puts its u64 query id after it."""
    captured = _capture(topo)
    topo.client.create_partition()
    env = topo.client_encrypt(b"x")
    topo.client.ingest(0x0102, [env], 1)
    assert [raw for raw, _ in captured] == [
        bytes([8]),  # create-partition
        struct.pack("<BQII", MSG_INGEST | QUERY_FLAG, 0x0102, QUERY_TEMP_TARGET,
                    len(env)) + env]


def _one_element(kind: int, op: int, vtype: int) -> bytes:
    return _req(kind, struct.pack("<BBH", op, vtype, 0))


def _flagged(build):
    """A request build makes from the topology, with QUERY_FLAG and a query
    id spliced in after its kind byte."""
    def make(topo):
        raw = build(topo)
        return struct.pack("<BQ", raw[0] | QUERY_FLAG, 1) + raw[1:]
    return make


def _live_fid(topo) -> int:
    """A live int64 FID in a new permanent partition."""
    pid = topo.client.create_partition()
    return topo.client.ingest(1, [topo.client_encrypt(encode_int64(1))], 1, pid)[0]


def _good_element(topo) -> bytes:
    """An ADD of a live permanent FID to itself into its partition: an
    element that writes no temporary."""
    fid = _live_fid(topo)
    return _one_op(OperatorRequest(OpKind.ADD, ValueType.INT64, [fid, fid],
                                   decode_fid(fid)[0]))


def _zone_envelope(topo) -> bytes:
    return topo.client.cipher_ingest(1, [topo.client_encrypt(encode_int64(1))], 1)[0]


# 31, the largest op the op byte's five low bits hold, names no OpKind
_UNKNOWN_OP = 31

_MALFORMED = {
    "unknown-op": (_one_element(MSG_EXEC_BATCH, _UNKNOWN_OP, ValueType.INT64),
                   TypeMismatch),
    "unknown-value-type": (_one_element(MSG_EXEC_BATCH, OpKind.ADD, 9), TypeMismatch),
    "cipher-unknown-op": (_one_element(MSG_CIPHER_EXEC, _UNKNOWN_OP, ValueType.INT64),
                          TypeMismatch),
    # an empty batch: elements run to the end of the payload, at least one
    "batch-without-its-elements": (_req(MSG_EXEC_BATCH), TypeMismatch),
    "batch-ends-in-a-partial-element": (lambda topo: _req(
        MSG_EXEC_BATCH, _good_element(topo) + struct.pack("<BB", OpKind.ADD, 1)),
        TypeMismatch),
    "one-byte-reveal": (_req(MSG_REVEAL, b"\x01"), TypeMismatch),
    "short-header": (bytes([MSG_INGEST | QUERY_FLAG, 0, 0]), TypeMismatch),
    "short-zone-envelope": (_req(MSG_CIPHER_REVEAL, bytes(5)), AuthFailure),
    # the payload a client sent when a create named a kind, layout and width
    "create-with-payload": (_req(MSG_CREATE_PARTITION, struct.pack("<BBI", 1, 2, 0)),
                            TypeMismatch),
    "unknown-kind": (_req(MSG_CREATE_PARTITION, struct.pack("<BBI", 5, 2, 0)),
                     TypeMismatch),
    "delete-part-of-a-fid": (_req(MSG_DELETE, bytes(12)), TypeMismatch),
    "flush-unknown-flag": (_req(MSG_FLUSH_LOG, b"\x02"), TypeMismatch),
    "flush-long-payload": (_req(MSG_FLUSH_LOG, b"\x01\x00"), TypeMismatch),
    # cases built from the topology, which holds the client key
    "ingest-trailing-bytes": (lambda topo: _req(
        MSG_INGEST, struct.pack("<I", QUERY_TEMP_TARGET)
        + _blob(topo.client_encrypt(b"x")) + b"garbage!", 1), TypeMismatch),
    "cipher-ingest-trailing-bytes": (lambda topo: _req(
        MSG_CIPHER_INGEST, _blob(topo.client_encrypt(b"x")) + b"\x00\x00"),
        TypeMismatch),
    "ingest-bad-envelope-in-batch": (lambda topo: _req(
        MSG_INGEST, struct.pack("<I", topo.client.create_partition())
        + b"".join(_blob(e) for e in _second_of_three_tampered(topo))),
        AuthFailure),
    # a query id only where a temporary is named, and always there
    "unflagged-temp-ingest": (lambda topo: _req(
        MSG_INGEST, struct.pack("<I", QUERY_TEMP_TARGET)
        + _blob(topo.client_encrypt(b"x"))), TypeMismatch),
    "flagged-permanent-ingest": (lambda topo: _req(
        MSG_INGEST, struct.pack("<I", topo.client.create_partition())
        + _blob(topo.client_encrypt(b"x")), 1), TypeMismatch),
    "flagged-batch-without-a-temporary": (lambda topo: _req(
        MSG_EXEC_BATCH, _good_element(topo), 1), TypeMismatch),
    "unflagged-end-query": (_req(MSG_END_QUERY), TypeMismatch),
    "end-query-with-payload": (_req(MSG_END_QUERY, b"\x00", 1), TypeMismatch),
    "flagged-reveal": (_flagged(lambda topo: _req(
        MSG_REVEAL, struct.pack("<Q", _live_fid(topo)))), TypeMismatch),
    "flagged-delete": (_flagged(lambda topo: _req(
        MSG_DELETE, struct.pack("<Q", _live_fid(topo)))), TypeMismatch),
    "flagged-flush": (_flagged(lambda topo: _req(MSG_FLUSH_LOG, CHECKPOINT)),
                      TypeMismatch),
    "flagged-create": (_req(MSG_CREATE_PARTITION, query_id=1), TypeMismatch),
    "flagged-promote": (_flagged(lambda topo: _req(MSG_PROMOTE, struct.pack(
        "<QI", topo.client.ingest(1, [topo.client_encrypt(b"x")], 1)[0],
        topo.client.create_partition()))), TypeMismatch),
    "flagged-prefetch": (_flagged(lambda topo: _req(
        MSG_PREFETCH, struct.pack("<I", topo.client.create_partition()))),
        TypeMismatch),
    "flagged-is-live": (_flagged(lambda topo: _req(
        MSG_IS_LIVE, struct.pack("<Q", _live_fid(topo)))), TypeMismatch),
    "flagged-list": (_flagged(lambda topo: _req(
        MSG_LIST_LIVE, struct.pack("<I", topo.client.create_partition()))),
        TypeMismatch),
    "flagged-restore": (_flagged(lambda topo: _restore(
        _restore_window(topo).client_pid, [topo.client_encrypt(b"x")])),
        TypeMismatch),
    "flagged-cipher-ingest": (_flagged(lambda topo: _req(
        MSG_CIPHER_INGEST, _blob(topo.client_encrypt(b"x")))), TypeMismatch),
    "flagged-cipher-reveal": (_flagged(lambda topo: _req(
        MSG_CIPHER_REVEAL, _zone_envelope(topo))), TypeMismatch),
    "flagged-cipher-exec": (_flagged(lambda topo: _req(MSG_CIPHER_EXEC, _write_op(
        OperatorRequest(OpKind.ADD, ValueType.INT64, [_zone_envelope(topo)] * 2),
        _blob))), TypeMismatch),
    # MSG_RESTORE, refused before anything is stored
    "restore-outside-recovery": (lambda topo: _restore(
        topo.client.create_partition(), [topo.client_encrypt(b"x")]), TypeMismatch),
    "restore-temporary-partition": (lambda topo: _restore(
        _restore_window(topo).privacy.proxy.query_temp(7),
        [topo.client_encrypt(b"x")]), WrongPartitionKind),
    "restore-bad-envelope-in-batch": (lambda topo: _restore(
        _restore_window(topo).client_pid, _second_of_three_tampered(topo)),
        AuthFailure),
    "restore-trailing-bytes": (lambda topo: _restore(
        _restore_window(topo).client_pid, [topo.client_encrypt(b"x")]) + b"garbage!",
        TypeMismatch),
    # put refuses the value after restore has moved the offset, which lies
    # past the counter, to the free list's end: restore takes it off again
    "restore-value-too-long": (lambda topo: _restore(
        _restore_window(topo).client_pid,
        [topo.client_encrypt(bytes(MAX_VALUE_LEN + 1))]), ValueTooLarge),
    # a good ingest item, then a STORE recipe whose constant fails its tag
    "restore-store-bad-envelope": (lambda topo: _restore(
        _restore_window(topo).client_pid, [topo.client_encrypt(b"x")])
        + struct.pack("<Q", encode_fid(topo.client_pid, 1)) + _blob(
            RECIPE_EXEC + _one_op(OperatorRequest(
                OpKind.STORE, ValueType.BYTES, [], topo.client_pid,
                _second_of_three_tampered(topo)[1]))), AuthFailure),
    # one item near the top of the offset space, after a good one
    "restore-offset-past-any-lost-put": (lambda topo: _restore(
        _restore_window(topo).client_pid, [topo.client_encrypt(b"x")])
        + struct.pack("<Q", encode_fid(topo.client_pid, MAX_OFFSET - 1))
        + _blob(RECIPE_INGEST + topo.client_encrypt(b"y")), TypeMismatch),
}


def _restore(pid: int, envelopes: list[bytes]) -> bytes:
    """A MSG_RESTORE of ingest recipes for offsets 0, 1, ... of pid."""
    return _req(MSG_RESTORE, b"".join(
        struct.pack("<Q", encode_fid(pid, i)) + _blob(RECIPE_INGEST + e)
        for i, e in enumerate(envelopes)))


def _restore_window(topo):
    """Creates a permanent partition, makes it durable and restarts the
    privacy zone, which then accepts MSG_RESTORE until its next request of
    another kind; the partition's id is topo.client_pid."""
    topo.client_pid = topo.client.create_partition()
    topo.client.flush_log()
    topo.privacy.crash()
    topo.privacy.recover()
    return topo


def _second_of_three_tampered(topo) -> list[bytes]:
    envelopes = [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 3)]
    tampered = bytearray(envelopes[1])
    tampered[12] ^= 1  # the first byte of the tag
    envelopes[1] = bytes(tampered)
    return envelopes


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_request_gets_a_status(topo, case):
    """A request the privacy zone cannot decode is refused with a status
    byte, never an exception, and stores, journals and creates nothing:
    well-formed requests still work, and so does recovery of everything
    journaled."""
    raw, error = _MALFORMED[case]
    if callable(raw):
        raw = raw(topo)
    store, journal = topo.privacy.store, topo.store_wal_buffer
    partitions = store.partition_ids()
    def live():
        return sum(len(store.live_fids(pid)) for pid in store.partition_ids())

    before, pending = live(), journal.pending_len
    assert topo.channel.request(raw) == bytes([error.code])
    assert store.partition_ids() == partitions
    assert (live(), journal.pending_len) == (before, pending)
    fid = topo.client.ingest(2, [topo.client_encrypt(b"after")], 1)[0]
    assert topo.client_decrypt(topo.client.reveal(2, fid)) == b"after"
    topo.client.flush_log()
    topo.privacy.crash()
    topo.privacy.recover()
    topo.client.create_partition()


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_one_envelope_ingest_keeps_its_wire_bytes(topo, backend):
    """A one-envelope ingest has the single-envelope layout: {u32 target,
    u32 len, envelope} and a u64 FID back on the FID path, {u32 len,
    envelope} and a zone envelope blob back on the cipher path. Neither
    names a temporary, so neither carries a query id."""
    env = topo.client_encrypt(encode_int64(4))
    perm = topo.client.create_partition()
    captured = _capture(topo)
    if backend == "fid":
        (fid,) = topo.client.ingest(3, [env], 1, perm)
        assert captured == [(struct.pack("<BII", MSG_INGEST, perm, len(env)) + env,
                             b"\x00" + struct.pack("<Q", fid))]
    else:
        (zone,) = topo.client.cipher_ingest(3, [env], 1)
        assert captured == [(struct.pack("<BI", MSG_CIPHER_INGEST, len(env)) + env,
                             b"\x00" + struct.pack("<I", len(zone)) + zone)]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_ingest_splits_by_batch_size(backend):
    """n envelopes go out in ceil(n / batch_size) messages of consecutive
    envelopes, and one result per envelope comes back, in order. Each fid
    message goes to the query's temporaries, so it carries the query id."""
    topo = ZoneTopology(999, backend=backend)
    client = topo.client
    ingest, reveal, kind, skip = {
        "fid": (client.ingest, client.reveal, MSG_INGEST | QUERY_FLAG, 13),
        "cipher": (client.cipher_ingest, client.cipher_reveal, MSG_CIPHER_INGEST, 1),
    }[backend]
    values = [encode_int64(v) for v in range(5)]
    captured = _capture(topo)
    refs = ingest(3, [topo.client_encrypt(v) for v in values], 2)
    assert [raw[0] for raw, _ in captured] == [kind] * 3
    assert [len(_read_blobs(raw[skip:], 0)) for raw, _ in captured] == [2, 2, 1]
    assert [topo.client_decrypt(reveal(3, ref)) for ref in refs] == values


def test_every_split_refuses_batch_size_zero(topo):
    """Each call that splits a list by batch_size refuses a batch_size
    below 1 before it sends anything."""
    client = topo.client
    env = topo.client_encrypt(b"x")
    req = OperatorRequest(OpKind.ADD, ValueType.INT64, [1, 1])
    calls = [lambda: client.ingest(1, [env], 0),
             lambda: client.cipher_ingest(1, [env], 0),
             lambda: client.exec_batch(1, [req], 0),
             lambda: client.cipher_exec(1, [req], 0),
             lambda: client.delete([1], 0)]
    before = topo.channel.round_trips
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert topo.channel.round_trips == before


def test_refused_ingests_leave_no_partition(topo):
    """The privacy zone creates a query's temporary partition before it
    checks an ingested envelope, so a refused ingest may leave one; the
    client records the query first, and ending it drops the partition."""
    partitions = topo.privacy.store.partition_ids()
    for query_id in (1, 2, 3):
        with pytest.raises(AuthFailure):
            topo.client.ingest(query_id, [bytes(5)], 1)
    assert len(topo.privacy.store.partition_ids()) == len(partitions) + 3
    for query_id in (1, 2, 3):
        topo.client.end_query(query_id)
    assert topo.privacy.store.partition_ids() == partitions


def test_fids_travel_little_endian(topo):
    pid = topo.client.create_partition()
    tmp_fid = topo.client.ingest(1, [topo.client_encrypt(encode_int64(5))], 1)[0]
    captured = []
    original = topo.channel.request

    def spy(raw):
        captured.append(raw)
        return original(raw)

    topo.channel.request = spy
    perm_fid = topo.client.promote(tmp_fid, pid)
    raw = captured[0]
    assert raw[1:9] == tmp_fid.to_bytes(8, "little")
    assert struct.unpack_from("<I", raw, 9)[0] == pid
    assert topo.client.is_live(perm_fid)


def test_error_codes_cross_the_wire(topo):
    with pytest.raises(UnknownPartition):
        topo.client.prefetch(12345)
    pid = topo.client.create_partition()
    fid = topo.client.promote(
        topo.client.ingest(7, [topo.client_encrypt(b"value-1")], 1)[0], pid)
    before = topo.channel.round_trips
    assert topo.client.delete([0xABCDEF, fid, fid], 8) == [False, True, False]
    assert topo.channel.round_trips == before + 1
    with pytest.raises(NotLive):
        topo.client.reveal(7, fid)


def test_operator_batch_positional_errors(topo):
    a = topo.client.ingest(3, [topo.client_encrypt(encode_int64(9))], 1)[0]
    z = topo.client.ingest(3, [topo.client_encrypt(encode_int64(0))], 1)[0]
    out = topo.client.exec_batch(3, [
        OperatorRequest(OpKind.DIV, ValueType.INT64, [a, z]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, a]),
    ], 16)
    assert out[0].error_code == DivideByZero.code
    assert out[1].error_code == 0 and out[1].fid is not None


def test_booleans_are_one_byte(topo):
    a = topo.client.ingest(4, [topo.client_encrypt(encode_int64(1))], 1)[0]
    b = topo.client.ingest(4, [topo.client_encrypt(encode_int64(2))], 1)[0]
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
    # response: status, elem status, result_kind, bool
    assert captured[0] == b"\x00\x00\x01\x01"


def test_cipher_backend_round_trip(topo):
    env = topo.client_encrypt(encode_int64(21))
    zone_env = topo.client.cipher_ingest(5, [env], 1)[0]
    assert zone_env != env
    out = topo.client.cipher_exec(
        5, [OperatorRequest(OpKind.ADD, ValueType.INT64, [zone_env, zone_env])], 4)
    assert out[0].error_code == 0 and out[0].boolean is None
    back = topo.client.cipher_reveal(5, out[0].fid)
    assert decode_int64(topo.client_decrypt(back)) == 42
    crypto = topo.privacy.zone_codec.encrypts + topo.privacy.zone_codec.decrypts
    assert crypto >= 5  # ingest(1 enc) + op(2 dec + 1 enc) + reveal(1 dec)


def test_restore_skips_a_live_fid_and_writes_the_others_at_their_fids():
    """In the recovery window MSG_RESTORE re-runs each recipe into exactly
    its FID: a live FID keeps its value and counts no put, an ingest
    recipe and an operator recipe over a permanent operand write their
    values, and no put is journaled. A FID past the allocation counter
    moves it, and the offsets it skips are handed out next. The first
    request of another kind closes the window."""
    topo = ZoneTopology(999)
    pid = topo.client.create_partition()
    (live,) = topo.client.ingest(1, [topo.client_encrypt(encode_int64(40))], 1, pid)
    topo.client.flush_log(checkpoint=True)
    topo.privacy.crash()
    topo.privacy.recover()
    journal = topo.store_wal_buffer
    element = OperatorRequest(OpKind.ADD, ValueType.INT64, [live], pid,
                              topo.client_encrypt(encode_int64(2)))
    payload = b"".join(
        struct.pack("<Q", fid) + _blob(recipe) for fid, recipe in [
            (live, RECIPE_INGEST + topo.client_encrypt(encode_int64(7))),
            (encode_fid(pid, 3), RECIPE_INGEST + topo.client_encrypt(encode_int64(8))),
            (encode_fid(pid, 1), RECIPE_EXEC + _one_op(element)),
        ])
    assert topo.channel.request(_req(MSG_RESTORE, payload)) == b"\x00"
    assert topo.privacy.wal.puts == 2
    assert journal.pending_len == journal.durable_len == 0
    store = topo.privacy.store
    assert {fid: decode_int64(store.get(fid)) for fid in store.live_fids(pid)} == {
        live: 40, encode_fid(pid, 1): 42, encode_fid(pid, 3): 8}
    (next_fid,) = topo.client.ingest(1, [topo.client_encrypt(encode_int64(9))], 1, pid)
    assert next_fid == encode_fid(pid, 2)
    assert topo.channel.request(_req(MSG_RESTORE, payload)) == bytes(
        [TypeMismatch.code])


def test_restore_reaches_no_further_than_a_crash_could_lose(monkeypatch):
    """The privacy zone checkpoints inside the put that makes
    wal.MAX_UNSYNCED_PUTS of them since its last checkpoint, so a crash
    loses fewer allocations than that, and MSG_RESTORE refuses a FID that many offsets
    or more past its partition's recovered allocation counter, however far
    earlier items of the window moved the counter."""
    monkeypatch.setattr(wal, "MAX_UNSYNCED_PUTS", 4)
    topo = ZoneTopology(999)
    pid = topo.client.create_partition()
    topo.client.flush_log()

    def ingest(value):
        topo.client.ingest(1, [topo.client_encrypt(encode_int64(value))], 1, pid)

    for value in range(3):
        ingest(value)
    assert topo.privacy.wal.puts == 3
    assert topo.priv_snapshots.get(wal.CKPT_MARKER) is None
    ingest(3)
    assert topo.privacy.wal.puts == 0  # the fourth put checkpointed
    assert topo.priv_snapshots.get(wal.CKPT_MARKER) is not None
    ingest(4)
    ingest(5)
    topo.privacy.crash()
    topo.privacy.recover()
    assert topo.privacy.store.partition(pid).alloc_counter == 4

    def restore(offset, value):
        return topo.channel.request(_req(MSG_RESTORE, struct.pack(
            "<Q", encode_fid(pid, offset)) + _blob(
            RECIPE_INGEST + topo.client_encrypt(encode_int64(value)))))

    assert restore(8, 8) == bytes([TypeMismatch.code])
    assert restore(7, 7) == b"\x00"
    assert restore(8, 8) == bytes([TypeMismatch.code])  # still 4 past 4
    store = topo.privacy.store
    assert store.live_fids(pid) == [encode_fid(pid, i) for i in (0, 1, 2, 3, 7)]
    assert decode_int64(store.get(encode_fid(pid, 7))) == 7


def _one_op(req: OperatorRequest) -> bytes:
    """One operator element's bytes, as the client's batch codec writes it."""
    return _write_op(req, lambda fid: struct.pack("<Q", fid))


def test_flush_reply_is_the_status_byte_alone():
    """The MSG_FLUSH_LOG reply tells the integrity zone nothing about the
    privacy journal: it is the status byte alone while the journal is
    empty, and after it grows by create and delete records while the
    at-rest layer seals and drops blocks, which it journals nothing of, and
    after a checkpoint."""
    topo = ZoneTopology(999, cache_capacity_blocks=1)
    flush = _req(MSG_FLUSH_LOG)
    replies = [topo.channel.request(flush)]
    pid = topo.client.create_partition()
    # 2 per block; the second block's puts seal the first
    fids = topo.client.ingest(1, [topo.client_encrypt(bytes([i + 1]) * 2048)
                                  for i in range(4)], 1, pid)
    topo.privacy.atrest.flush_dirty()
    topo.client.delete(fids[2:], 8)  # the bucket shrinks past a sealed block
    kinds = [kind for kind, _ in topo.trace.events]
    assert "BlockWrite" in kinds and "BlockDrop" in kinds
    replies.append(topo.channel.request(flush))
    replies.append(topo.channel.request(_req(MSG_FLUSH_LOG, CHECKPOINT)))
    assert replies == [b"\x00"] * 3
    # the create and 2 deletes, then the checkpoint's own LSN
    assert topo.privacy.wal.durable_lsn == 4


def test_end_query_via_wire_is_idempotent(topo):
    fid = topo.client.ingest(6, [topo.client_encrypt(b"temp-value")], 1)[0]
    assert topo.client.is_live(fid)
    topo.client.end_query(6)
    assert not topo.client.is_live(fid)
    topo.client.end_query(6)  # no error


def test_destination_must_be_own_temp_or_permanent(topo):
    """Ingest and operator results go to the caller's own temporaries or to
    a permanent partition; naming another query's temporary partition is
    refused and leaves that partition as it was. A result for a permanent
    partition takes permanent operands only, so its recipe can be re-run
    at recovery: one computed from a temporary is refused with
    TypeMismatch and stores nothing."""
    victim = topo.client.ingest(5, [topo.client_encrypt(encode_int64(1))], 1)[0]
    temp5 = decode_fid(victim)[0]
    with pytest.raises(WrongPartitionKind):
        topo.client.ingest(6, [topo.client_encrypt(encode_int64(2))], 1, temp5)[0]
    out = topo.client.exec_batch(6, [OperatorRequest(
        OpKind.ADD, ValueType.INT64, [victim, victim], temp5)], 4)
    assert out[0].error_code == WrongPartitionKind.code
    assert topo.privacy.store.live_fids(temp5) == [victim]

    perm = topo.client.create_partition()
    own = topo.client.ingest(6, [topo.client_encrypt(encode_int64(3))], 1,
                             QUERY_TEMP_TARGET)[0]
    temp6 = decode_fid(own)[0]
    stored = topo.client.ingest(6, [topo.client_encrypt(encode_int64(4))], 1, perm)[0]
    out = topo.client.exec_batch(6, [
        OperatorRequest(OpKind.ADD, ValueType.INT64, [own, own]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [own, own], QUERY_TEMP_TARGET),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [stored, stored], perm),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [stored, own], perm),
    ], 4)
    assert [decode_fid(r.fid)[0] for r in out[:3]] == [temp6, temp6, perm]
    assert out[3].error_code == TypeMismatch.code
    assert topo.privacy.store.live_fids(perm) == [stored, out[2].fid]
    topo.client.end_query(6)
    assert not topo.client.is_live(out[0].fid)
    assert topo.client.is_live(out[2].fid)
    assert topo.client.is_live(victim)


def test_operator_destination_on_the_wire(topo):
    """Only an element that names a destination carries one: its op byte
    has OP_DEST set and a u32 partition id follows the element head. The
    elements follow the query id with no count, since the first writes a
    temporary."""
    a = topo.client.ingest(8, [topo.client_encrypt(encode_int64(4))], 1)[0]
    perm = topo.client.create_partition()
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
    assert captured[0] == (
        struct.pack("<BQ", MSG_EXEC_BATCH | QUERY_FLAG, 8)
        + struct.pack("<BBH", OpKind.ADD, ValueType.INT64, 2) + fids
        + struct.pack("<BBHI", OpKind.ADD | OP_DEST, ValueType.INT64, 2, perm) + fids)


def _capture(topo) -> list:
    """Records (request, response) for every message from now on."""
    captured = []
    original = topo.channel.request

    def spy(raw):
        resp = original(raw)
        captured.append((raw, resp))
        return resp

    topo.channel.request = spy
    return captured


def test_unflagged_elements_keep_their_wire_bytes(topo):
    """An element with neither an inline constant nor a reveal carries no
    byte for either: its head, its destination if any and its operands,
    on both operator messages. The fid batch's SUM_AGG writes a temporary,
    so that message carries the query id; the cipher one carries none."""
    a = topo.client.ingest(8, [topo.client_encrypt(encode_int64(4))], 1)[0]
    zone = topo.client.cipher_ingest(8, [topo.client_encrypt(encode_int64(4))], 1)[0]
    perm = topo.client.create_partition()
    captured = _capture(topo)
    topo.client.exec_batch(8, [
        OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [a, a]),
        OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, [a, a, a]),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, a], perm),
    ], 4)
    topo.client.cipher_exec(8, [OperatorRequest(OpKind.ADD, ValueType.INT64,
                                                [zone, zone])], 4)
    fid = struct.pack("<Q", a)
    assert captured[0][0] == (
        struct.pack("<BQ", MSG_EXEC_BATCH | QUERY_FLAG, 8)
        + struct.pack("<BBH", OpKind.CMP_LT, ValueType.INT64, 2) + fid * 2
        + struct.pack("<BBH", OpKind.SUM_AGG, ValueType.INT64, 3) + fid * 3
        + struct.pack("<BBHI", OpKind.ADD | OP_DEST, ValueType.INT64, 2, perm)
        + fid * 2)
    env = struct.pack("<I", len(zone)) + zone
    assert captured[1][0] == (
        bytes([MSG_CIPHER_EXEC])
        + struct.pack("<BBH", OpKind.ADD, ValueType.INT64, 2) + env * 2)


def test_flagged_elements_on_the_wire(topo):
    """An inline constant follows the stored operands as a length-prefixed
    client envelope and is not counted in argc; a revealed result comes
    back as result kind 2 and a client envelope, and is not stored. The
    batch writes no temporary, so it carries no query id."""
    a = topo.client.ingest(9, [topo.client_encrypt(encode_int64(40))], 1)[0]
    const = topo.client_encrypt(encode_int64(2))
    store = topo.privacy.store
    temp = decode_fid(a)[0]
    captured = _capture(topo)
    out = topo.client.exec_batch(9, [OperatorRequest(
        OpKind.ADD, ValueType.INT64, [a], constant=const, reveal=True)], 4)
    raw, resp = captured[0]
    assert raw == (bytes([MSG_EXEC_BATCH])
                       + struct.pack("<BBH", OpKind.ADD | OP_REVEAL | OP_CONST,
                                     ValueType.INT64, 1)
                       + struct.pack("<Q", a) + struct.pack("<I", len(const)) + const)
    assert resp[:3] == b"\x00\x00\x02"
    assert _read_blob(resp, 3)[0] == out[0].envelope
    assert out[0].fid is None and out[0].error_code == 0
    assert decode_int64(topo.client_decrypt(out[0].envelope)) == 42
    assert store.live_fids(temp) == [a]


_operand = {"fid": st.integers(0, 2**64 - 1), "cipher": st.binary(max_size=40)}


def _elements(codec):
    return st.lists(st.builds(
        OperatorRequest,
        st.sampled_from(list(OpKind)),
        st.sampled_from(list(ValueType)),
        st.lists(_operand[codec], max_size=4),
        st.none() | st.integers(0, 2**32 - 1),
        st.none() | st.binary(max_size=60),
        st.booleans()), max_size=12)


@pytest.mark.parametrize("codec", ["fid", "cipher"])
def test_batch_codec_round_trip(codec):
    """Whatever the client's operator-batch codec encodes, the privacy
    zone's decoder reads back unchanged, over every flag combination and
    across message splits; a fid message carries the query id exactly when
    one of its elements writes a temporary, a cipher message never."""
    kind, write, read = {
        "fid": (MSG_EXEC_BATCH, lambda f: struct.pack("<Q", f), _read_u64),
        "cipher": (MSG_CIPHER_EXEC, _blob, _read_blob)}[codec]

    @settings(max_examples=150, deadline=None, database=None)
    @given(elements=_elements(codec), batch_size=st.integers(1, 5))
    def round_trip(elements, batch_size):
        decoded = []

        class Wire:
            def request(self, raw):
                got, query_id, payload = _split(raw)
                assert got == kind
                ops = _read_ops(payload, read)
                assert (query_id is not None) == (
                    codec == "fid" and any(map(_writes_temp, ops)))
                decoded.extend(ops)
                # every element answered with a positional error
                return b"\x00" + bytes([TypeMismatch.code]) * len(ops)

        client = ProxyClient(Wire())
        query_id = 3 if codec == "fid" else None  # as cipher_exec passes it
        sent, out = client._batch(kind, query_id, elements, batch_size, write, read)
        assert decoded == elements
        assert [_read_op(e, 0, read)[0] for e in sent] == elements
        assert out == [OperatorResponse(error_code=TypeMismatch.code)] * len(elements)

    round_trip()


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_invalid_flag_combinations_fail_positionally(backend):
    """A reveal on a comparison, a reveal with a destination and an inline
    constant with no stored operand each fail with TypeMismatch in their
    own position and write nothing, while the rest of the batch still
    runs, on FID and on envelope batches."""
    topo = ZoneTopology(999, backend=backend)
    client = topo.client
    if backend == "fid":
        ingest, run, reveal = client.ingest, client.exec_batch, client.reveal
    else:
        ingest, run, reveal = (client.cipher_ingest, client.cipher_exec,
                               client.cipher_reveal)
    perm = client.create_partition()
    const = topo.client_encrypt(encode_int64(2))
    bad = TypeMismatch.code
    a = ingest(7, [topo.client_encrypt(encode_int64(40))], 1)[0]
    out = run(7, [
        OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [a], constant=const,
                        reveal=True),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a], constant=const),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a], perm, const, True),
        OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, [], constant=const),
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a], constant=const,
                        reveal=True),
    ], 8)
    assert [r.error_code for r in out] == [bad, 0, bad, bad, 0]
    assert decode_int64(topo.client_decrypt(reveal(7, out[1].fid))) == 42
    assert decode_int64(topo.client_decrypt(out[4].envelope)) == 42
    assert topo.privacy.store.live_fids(perm) == []
    if backend == "fid":
        temp = decode_fid(a)[0]
        assert topo.privacy.store.live_fids(temp) == [a, out[1].fid]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_malformed_store_elements_fail_positionally(backend):
    """A STORE with a stored operand, without a constant or with a reveal
    fails alone with TypeMismatch and writes nothing; a well-formed STORE
    beside them writes its constant's value, on FID and envelope batches."""
    topo = ZoneTopology(998, backend=backend)
    client = topo.client
    run, reveal = ((client.exec_batch, client.reveal) if backend == "fid"
                   else (client.cipher_exec, client.cipher_reveal))
    perm = client.create_partition()
    const = topo.client_encrypt(encode_int64(9))
    operand = (client.ingest(7, [const], 1, perm)[0] if backend == "fid"
               else client.cipher_ingest(7, [const], 1)[0])
    live = topo.privacy.store.live_fids(perm)
    out = run(7, [
        OperatorRequest(OpKind.STORE, ValueType.INT64, [operand], perm, const),
        OperatorRequest(OpKind.STORE, ValueType.INT64, [], perm),
        OperatorRequest(OpKind.STORE, ValueType.INT64, [], None, const, True),
        OperatorRequest(OpKind.STORE, ValueType.INT64, [], perm, const),
    ], 8)
    bad = TypeMismatch.code
    assert [r.error_code for r in out] == [bad, bad, bad, 0]
    assert decode_int64(topo.client_decrypt(reveal(7, out[3].fid))) == 9
    assert topo.privacy.store.live_fids(perm) == live + (
        [out[3].fid] if backend == "fid" else [])


_POOL = ([encode_int64(v) for v in (0, 3, -7, 2**63 - 1)]
         + [encode_float64(v) for v in (0.0, 2.5, -1.25)]
         + [b"xy", b"value-of-13-b"])

_pooled = st.integers(0, len(_POOL) - 1)
_element = st.tuples(
    st.sampled_from(list(OpKind)),
    st.sampled_from(list(ValueType)),
    st.lists(_pooled, min_size=1, max_size=2)    # stored operands
    | st.lists(_pooled, max_size=3),
    st.booleans(),                               # a table partition as destination
    st.none() | st.none() | _pooled,             # inline constant
    st.booleans())                               # reveal


@settings(max_examples=200, deadline=None, database=None)
@given(elements=st.lists(_element, min_size=1, max_size=12),
       batch_size=st.integers(1, 4))
def test_both_backends_run_the_same_operators(elements, batch_size):
    """The same batch over the same plaintexts gives the same error codes,
    booleans and result plaintexts through exec_batch on FIDs and through
    cipher_exec on zone envelopes, whether a result is revealed or stored,
    over every op kind and value type, bad arities, overflow, division by
    zero and every combination of constant, destination and reveal. The
    FIDs are in a table's partition, since a result with a destination
    takes permanent operands only."""
    outcomes = []
    for backend in ("fid", "cipher"):
        topo = ZoneTopology(5, backend=backend)
        client = topo.client
        perm = client.create_partition()
        if backend == "fid":
            run, reveal = client.exec_batch, client.reveal
            refs = client.ingest(1, [topo.client_encrypt(v) for v in _POOL], 1, perm)
        else:
            run, reveal = client.cipher_exec, client.cipher_reveal
            refs = client.cipher_ingest(1, [topo.client_encrypt(v) for v in _POOL], 1)
        reqs = [OperatorRequest(op, vtype, [refs[i] for i in operands],
                                perm if dest else None,
                                None if const is None else topo.client_encrypt(_POOL[const]),
                                revealed)
                for op, vtype, operands, dest, const, revealed in elements]
        seen = []
        for r in run(1, reqs, batch_size):
            if r.envelope is not None:
                value = ("revealed", topo.client_decrypt(r.envelope))
            elif r.fid is not None:
                value = ("stored", topo.client_decrypt(reveal(1, r.fid)))
            else:
                value = None
            seen.append((r.error_code, r.boolean, value))
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]


def test_live_checks_record_the_fids_they_carry(topo):
    """is_live records the FID it sends and list_live each FID of its
    reply as FidObserved, like every other call that carries FIDs."""
    pid = topo.client.create_partition()
    fids = topo.client.ingest(1, [topo.client_encrypt(bytes([i])) for i in range(3)],
                              8, pid)
    before = len(topo.trace.events)
    assert topo.client.list_live(pid) == fids
    assert topo.client.is_live(fids[1])
    events = topo.trace.events[before:]
    assert [arg for kind, arg in events if kind == "FidObserved"] == fids + [fids[1]]


def test_unflagged_temporary_element_fails_alone(topo):
    """An operator element whose value result goes to the query's
    temporaries, in a batch that carries no query id, fails alone with
    TypeMismatch and stores nothing; the batch's other elements run."""
    pid = topo.client.create_partition()
    (fid,) = topo.client.ingest(1, [topo.client_encrypt(encode_int64(20))], 1, pid)
    elements = [OperatorRequest(OpKind.ADD, ValueType.INT64, [fid, fid]),
                OperatorRequest(OpKind.ADD, ValueType.INT64, [fid, fid], pid),
                OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [fid, fid])]
    store = topo.privacy.store
    partitions, pending = store.partition_ids(), topo.store_wal_buffer.pending_len
    captured = _capture(topo)
    out = topo.client._batch(MSG_EXEC_BATCH, None, elements, 8,
                             lambda f: struct.pack("<Q", f), _read_u64)[1]
    assert captured[0][0][0] == MSG_EXEC_BATCH  # no query id
    assert [r.error_code for r in out] == [TypeMismatch.code, 0, 0]
    assert decode_int64(store.get(out[1].fid)) == 40 and out[2].boolean is False
    assert store.partition_ids() == partitions
    assert store.live_fids(pid) == [fid, out[1].fid]
    assert topo.privacy.proxy._query_temps == {}
    assert topo.store_wal_buffer.pending_len == pending


class _Replay:
    """A channel that answers every request with one fixed reply."""

    def __init__(self, reply: bytes):
        self.reply = reply

    def request(self, raw: bytes) -> bytes:
        return self.reply


_ADD = OperatorRequest(OpKind.ADD, ValueType.INT64, [1, 2])
_VALUE_REPLY = b"\x00" + bytes([0, 0]) + struct.pack("<Q", 7)  # one element


@pytest.mark.parametrize("reply,error", [
    (_VALUE_REPLY, None),
    (b"\x00", TypeMismatch),                                  # no element
    (_VALUE_REPLY[:-3], TypeMismatch),                        # a partial one
    (_VALUE_REPLY + bytes([DivideByZero.code]), TypeMismatch),  # an extra one
    (_VALUE_REPLY + b"\x00", TypeMismatch),                    # a trailing byte
    (bytes([NotLive.code]), NotLive),                          # a refusal
], ids=["exact", "missing-element", "partial-element", "extra-element",
        "trailing-byte", "refused"])
def test_client_checks_the_batch_reply(reply, error):
    """The client reads exactly one response element per request element
    from an operator batch's reply and refuses a reply with one missing or
    extra, or a byte after the last."""
    client = ProxyClient(_Replay(reply))
    if error is None:
        assert client.exec_batch(1, [_ADD], 8) == [OperatorResponse(fid=7)]
    else:
        with pytest.raises(error):
            client.exec_batch(1, [_ADD], 8)


_FLAG_KINDS = st.integers(0, 0x7F).flatmap(
    lambda k: st.sampled_from([k, k | QUERY_FLAG]))


@settings(max_examples=300, deadline=None, database=None)
@given(kind=_FLAG_KINDS, query_id=st.none() | st.integers(0, 2**64 - 1),
       payload=st.binary(max_size=40))
def test_any_request_gets_a_status_byte(kind, query_id, payload):
    """Whatever kind byte, with or without QUERY_FLAG, and whatever payload,
    PrivacyDispatcher.handle returns a reply that starts with a status byte
    and never raises; a refused request leaves the live FIDs, the
    partitions and the privacy journal's pending bytes as they were."""
    topo = ZoneTopology(997)
    pid = topo.client.create_partition()
    topo.client.ingest(1, [topo.client_encrypt(b"v")], 1, pid)
    topo.client.ingest(1, [topo.client_encrypt(b"t")], 1)
    store, journal = topo.privacy.store, topo.store_wal_buffer
    raw = bytes([kind]) + (b"" if query_id is None else struct.pack("<Q", query_id))
    raw += payload

    def state():
        return (store.partition_ids(), journal.pending_len,
                [store.live_fids(p) for p in store.partition_ids()])

    before = state()
    reply = topo.privacy.dispatcher.handle(raw)
    assert reply
    if reply[0] != 0:
        assert state() == before
