import random
import struct
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fidstore.errors import (
    AuthFailure,
    DivideByZero,
    NotLive,
    Overflow,
    TypeMismatch,
    UnknownPartition,
    ValueTooLarge,
    WrongPartitionKind,
)
from fidstore import wal
from fidstore.fid_codec import MAX_OFFSET, decode_fid, encode_fid
from fidstore.mapping_store import MAX_VALUE_LEN, MappingStore, PartitionKind
from fidstore.messages import (
    MSG_CIPHER_EXEC,
    MSG_CIPHER_INGEST,
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
    OP_CONST,
    OP_DEST,
    OP_NEXT_CONST,
    OP_REVEAL,
    QUERY_FLAG,
    QUERY_TEMP_TARGET,
    CHECKPOINT,
    FIXED_ENVELOPE_LEN,
    RECIPE_EXEC,
    RECIPE_INGEST,
    PrivacyDispatcher,
    ProxyClient,
    _blob,
    _pack_fids,
    _read_blobs,
    _read_envelope,
    _read_envelopes,
    _read_fids,
    _read_op,
    _read_ops,
    _read_restore,
    _read_u64,
    _req,
    _split,
    _write_envelopes,
    _write_op,
    _writes_temp,
)
from fidstore.privacy_proxy import (
    ENVELOPE_OVERHEAD,
    NONCE_LEN,
    EnvelopeCodec,
    OperatorRequest,
    OperatorResponse,
    OpKind,
    PrivacyProxy,
    ValueType,
    decode_int64,
    encode_float64,
    encode_int64,
    pack_values,
)
from fidstore.zone_sim import ZoneTopology, pad_sensitive, unpad_sensitive


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


def _load_head(argc: int, vtype: int = ValueType.INT64) -> bytes:
    """A LOAD element's head: the op with OP_REVEAL, the value type and
    argc."""
    return struct.pack("<BBH", OpKind.LOAD | OP_REVEAL, vtype, argc)


def _sized(value: bytes) -> bytes:
    """A packed value but the last: after its u16 length (pack_values)."""
    return struct.pack("<H", len(value)) + value


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
    # an element that both carries a constant and continues a run
    "element-carries-and-continues": (lambda topo: _req(
        MSG_EXEC_BATCH, _good_element(topo) + struct.pack(
            "<BBH", OpKind.STORE | OP_CONST | OP_NEXT_CONST, ValueType.INT64, 0)
        + _blob(topo.client_encrypt(encode_int64(1)))), TypeMismatch),
    # a LOAD element, the reveal, that ends inside its argc operands
    # fails the whole batch, as any element that does not parse
    "one-byte-reveal": (_req(MSG_EXEC_BATCH, _load_head(1) + b"\x01"), TypeMismatch),
    "reveal-without-a-fid": (_req(MSG_EXEC_BATCH, _load_head(1)), TypeMismatch),
    "reveal-part-of-a-fid": (lambda topo: _req(
        MSG_EXEC_BATCH, _load_head(2) + struct.pack("<Q", _live_fid(topo)) + bytes(4)),
        TypeMismatch),
    "cipher-reveal-without-an-envelope": (_req(MSG_CIPHER_EXEC, _load_head(1)),
                                          TypeMismatch),
    "cipher-reveal-length-overruns": (lambda topo: _req(
        MSG_CIPHER_EXEC, _load_head(2, ValueType.BYTES) + _blob(_zone_envelope(topo))
        + struct.pack("<I", FIXED_ENVELOPE_LEN + 1) + _zone_envelope(topo)),
        TypeMismatch),
    "cipher-reveal-ends-in-a-length": (lambda topo: _req(
        MSG_CIPHER_EXEC, _load_head(2, ValueType.BYTES) + _blob(_zone_envelope(topo))
        + b"\x01"), TypeMismatch),
    "short-header": (bytes([MSG_INGEST | QUERY_FLAG, 0, 0]), TypeMismatch),
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
        MSG_EXEC_BATCH, _load_head(1) + struct.pack("<Q", _live_fid(topo)))),
        TypeMismatch),
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
        MSG_CIPHER_EXEC, _load_head(1) + _zone_envelope(topo))), TypeMismatch),
    "flagged-cipher-exec": (_flagged(lambda topo: _req(MSG_CIPHER_EXEC, _write_op(
        OperatorRequest(OpKind.ADD, ValueType.INT64, [_zone_envelope(topo)] * 2),
        _write_envelopes))), TypeMismatch),
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


def _load(refs: list, vtype: int = ValueType.BYTES) -> OperatorRequest:
    return OperatorRequest(OpKind.LOAD, vtype, list(refs), reveal=True)


def test_batched_reveals_on_the_wire(topo):
    """A LOAD element of n FIDs is its head and the FIDs bare, and its
    reply the status byte, the element's status and result kind, and one
    client envelope of the values in order, each but the last after its
    u16 length: 28 + the values' bytes + 2(n-1) bytes, one encrypt. On the
    cipher path its zone envelopes go as its value type writes them, as
    blobs for raw bytes. reveal is one such element of one FID and seals
    the value alone. batch_size counts the elements of a message, not the
    operands of one."""
    pid = topo.client.create_partition()
    values = [encode_int64(7), b"a longer value", b"x"]
    fids = topo.client.ingest(1, [topo.client_encrypt(v) for v in values], 8, pid)
    zones = topo.client.cipher_ingest(1, [topo.client_encrypt(v) for v in values], 8)
    codec = topo.privacy.proxy.client_codec
    encrypts = codec.encrypts
    captured = _capture(topo)
    [resp] = topo.client.exec_batch(None, [_load(fids)], 8)
    got = resp.envelope
    assert topo.client_open(got, 3) == values
    assert topo.client_decrypt(got) == _sized(values[0]) + _sized(values[1]) + values[2]
    assert len(got) == 28 + sum(map(len, values)) + 2 * 2
    assert captured[0] == (
        _req(MSG_EXEC_BATCH, _load_head(3, ValueType.BYTES)
             + b"".join(struct.pack("<Q", f) for f in fids)), b"\x00\x00\x02" + got)
    one = topo.client.reveal(1, fids[1])
    assert captured[1] == (_req(MSG_EXEC_BATCH, _load_head(1, ValueType.BYTES)
                                + struct.pack("<Q", fids[1])), b"\x00\x00\x02" + one)
    assert topo.client_decrypt(one) == values[1]
    [resp] = topo.client.cipher_exec(None, [_load(zones)], 8)
    assert topo.client_open(resp.envelope, 3) == values
    assert captured[2] == (_req(MSG_CIPHER_EXEC, _load_head(3, ValueType.BYTES)
                                + b"".join(map(_blob, zones))),
                           b"\x00\x00\x02" + resp.envelope)
    assert codec.encrypts == encrypts + 3
    # batch_size elements a message, an envelope each
    out = topo.client.exec_batch(None, [_load(fids[:2]), _load(fids[2:])], 1)
    assert [topo.client_open(r.envelope, n) for r, n in zip(out, (2, 1))] == [
        values[:2], values[2:]]
    assert [len(raw) for raw, _ in captured[3:]] == [21, 13]


# A one-value reveal on each path and its reply, from a dispatcher over
# fixed keys and nonce streams: one LOAD element of raw bytes, whose reply
# is the element's status and result kind and an envelope byte for byte
# what it was when each revealed value had an envelope, and a reveal a
# message kind, of its own.
_ONE_VALUE_REVEALS = [
    ("034e0301000000000000000000",
     "000002f572ae5b2072191f9a7146ad4b6b776d9baea8b1b2bb81737989556721531a4e0a7391a0"),
    ("144e03010028000000834ce73379363f0eeca1920c08e5b17a40aa098133c1240513a2eb74f3"
     "1579a61a54ab263e5137b8",
     "00000209da7bd2746ba3124b6ced8084f768eb52f235412e260e1a8cd4ff60ff74a807a5eb685"
     "0de4a9a1e"),
]


def test_a_one_value_reveal_keeps_its_bytes():
    store = MappingStore()
    fid = store.put(store.create_partition(PartitionKind.PERMANENT), encode_int64(-42))
    proxy = PrivacyProxy(store, bytes(range(32)), random.Random("reply").randbytes)
    zone = EnvelopeCodec(bytes(range(32, 64)), random.Random("zone").randbytes)
    dispatcher = PrivacyDispatcher(proxy, None, None, zone)
    requests = [_req(MSG_EXEC_BATCH, _load_head(1, ValueType.BYTES)
                     + struct.pack("<Q", fid)),
                _req(MSG_CIPHER_EXEC, _load_head(1, ValueType.BYTES)
                     + _blob(zone.encrypt(b"padded value").to_bytes()))]
    assert [(raw.hex(), dispatcher.handle(raw).hex())
            for raw in requests] == _ONE_VALUE_REVEALS
    assert proxy.client_codec.encrypts == 2


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_bad_item_refuses_the_whole_reveal(topo, backend):
    """A FID that is not live among live ones fails the whole LOAD element
    with NotLive, and a zone envelope that fails its tag among good ones,
    or one too short for its nonce and tag, fails it with AuthFailure,
    before any client envelope is encrypted: the reply is that element's
    status alone."""
    envelopes = [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 3)]
    if backend == "fid":
        pid = topo.client.create_partition()
        items = topo.client.ingest(1, envelopes, 8, pid)
        topo.privacy.store.delete(items[1])
        payload, error = b"".join(struct.pack("<Q", f) for f in items), NotLive
        kind = MSG_EXEC_BATCH
    else:
        items = topo.client.cipher_ingest(1, envelopes, 8)
        bad = bytearray(items[1])
        bad[12] ^= 1  # the first byte of the tag
        items[1] = bytes(bad)
        payload, error = b"".join(items), AuthFailure
        kind = MSG_CIPHER_EXEC
    codec = topo.privacy.proxy.client_codec
    encrypts = codec.encrypts
    assert topo.channel.request(_req(kind, _load_head(3) + payload)) == bytes(
        [0, error.code])
    if backend == "cipher":  # a zone envelope too short for its nonce and tag
        assert topo.channel.request(_req(kind, _load_head(1, ValueType.BYTES)
                                         + _blob(bytes(5)))) == bytes(
            [0, AuthFailure.code])
    assert codec.encrypts == encrypts


def test_the_retired_reveal_kinds_are_refused(topo):
    """Kinds 2 and 22, the retired MSG_REVEAL and MSG_CIPHER_REVEAL, name
    no message: the privacy zone refuses them as any unknown kind."""
    fid = _live_fid(topo)
    for kind, payload in ((2, struct.pack("<Q", fid)),
                          (22, struct.pack("<H", FIXED_ENVELOPE_LEN)
                           + _zone_envelope(topo))):
        assert topo.channel.request(bytes([kind]) + payload) == b"\xff"


@pytest.mark.parametrize("reply,error", [
    (b"\x00" + struct.pack("<QQ", 5, 6), None),
    (b"\x00", None),                                  # an empty partition
    (b"\x00" + struct.pack("<Q", 5) + b"\x00", TypeMismatch),  # part of a FID
], ids=["two-fids", "no-fid", "trailing-byte"])
def test_list_live_reply_is_its_fids_alone(reply, error):
    """A MSG_LIST_LIVE reply is the partition's live FIDs, 8 bytes each, up
    to its end, with no count; the client refuses one that ends inside a
    FID."""
    client = ProxyClient(_Replay(reply))
    if error is None:
        assert client.list_live(1) == [f for (f,) in struct.iter_unpack("<Q", reply[1:])]
    else:
        with pytest.raises(error):
            client.list_live(1)


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
    values, and no put is journaled; the reply counts the FIDs written. A
    FID past the allocation counter moves it, and the offsets it skips are
    handed out next. The first request of another kind closes the
    window."""
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
    assert topo.channel.request(_req(MSG_RESTORE, payload)) == b"\x00" + struct.pack(
        "<I", 2)
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
    assert restore(7, 7) == b"\x00" + struct.pack("<I", 1)
    assert restore(8, 8) == bytes([TypeMismatch.code])  # still 4 past 4
    store = topo.privacy.store
    assert store.live_fids(pid) == [encode_fid(pid, i) for i in (0, 1, 2, 3, 7)]
    assert decode_int64(store.get(encode_fid(pid, 7))) == 7


def _one_op(req: OperatorRequest) -> bytes:
    """One operator element's bytes, as the client's batch codec writes it."""
    return _write_op(req, _pack_fids)


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
    so that message carries the query id; the cipher one carries none. An
    INT64 element's zone envelopes go bare, FIXED_ENVELOPE_LEN bytes each
    (they took a u32 length each before the value type fixed it)."""
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
    assert len(zone) == FIXED_ENVELOPE_LEN
    assert captured[1][0] == (
        bytes([MSG_CIPHER_EXEC])
        + struct.pack("<BBH", OpKind.ADD, ValueType.INT64, 2) + zone * 2)
    # a BYTES element's envelope keeps its length
    text = topo.client.cipher_ingest(8, [topo.client_encrypt(b"text")], 1)[0]
    topo.client.cipher_exec(8, [OperatorRequest(OpKind.CMP_EQ, ValueType.BYTES,
                                                [text, text])], 4)
    assert captured[-1][0] == (
        bytes([MSG_CIPHER_EXEC])
        + struct.pack("<BBH", OpKind.CMP_EQ, ValueType.BYTES, 2)
        + (struct.pack("<I", len(text)) + text) * 2)


def test_flagged_elements_on_the_wire(topo):
    """An inline constant follows the stored operands as a length-prefixed
    client envelope and is not counted in argc; a revealed result comes
    back as result kind 2 and a client envelope, and is not stored. The
    batch writes no temporary, so it carries no query id. The INT64
    result's envelope is bare, the rest of the reply (it took a u32 length
    before the value type fixed it)."""
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
    assert resp[3:] == out[0].envelope and len(resp) == 3 + FIXED_ENVELOPE_LEN
    assert out[0].fid is None and out[0].error_code == 0
    assert decode_int64(topo.client_decrypt(out[0].envelope)) == 42
    assert store.live_fids(temp) == [a]


def _operand(codec, vtype):
    """A wire-carriable operand of an element of vtype: any FID, or a zone
    envelope, FIXED_ENVELOPE_LEN bytes when vtype fixes its length."""
    if codec == "fid":
        return st.integers(0, 2**64 - 1)
    if vtype == ValueType.BYTES:
        return st.binary(max_size=40)
    return st.binary(min_size=FIXED_ENVELOPE_LEN, max_size=FIXED_ENVELOPE_LEN)


def _elements(codec):
    return st.lists(st.sampled_from(list(ValueType)).flatmap(lambda vtype: st.builds(
        OperatorRequest,
        st.sampled_from(list(OpKind)),
        st.just(vtype),
        st.lists(_operand(codec, vtype), max_size=4),
        st.none() | st.integers(0, 2**32 - 1),
        st.none() | st.binary(max_size=60),
        st.booleans())), max_size=12)


@pytest.mark.parametrize("codec", ["fid", "cipher"])
def test_batch_codec_round_trip(codec):
    """Whatever the client's operator-batch codec encodes, the privacy
    zone's decoder reads back unchanged, over every flag combination and
    across message splits; a fid message carries the query id exactly when
    one of its elements writes a temporary, a cipher message never."""
    kind, write, read, read_result = {
        "fid": (MSG_EXEC_BATCH, _pack_fids, _read_fids, _read_u64),
        "cipher": (MSG_CIPHER_EXEC, _write_envelopes, _read_envelopes,
                   _read_envelope)}[codec]

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
        sent, out = client._batch(kind, query_id, elements, batch_size, write,
                                  read_result)
        assert decoded == elements
        assert [_read_op(e, 0, read)[0] for e in sent] == elements
        assert out == [OperatorResponse(error_code=TypeMismatch.code)] * len(elements)

    round_trip()


def test_an_uncarriable_cipher_operand_fails_alone(topo):
    """A cipher element whose zone envelope is not as long as its value
    type fixes cannot go bare: it fails alone with TypeMismatch and is not
    sent, as the privacy zone fails an int64 operand of another length;
    the batch's other elements cross in one message. A batch left with no
    element sends nothing."""
    zone = topo.client.cipher_ingest(1, [topo.client_encrypt(encode_int64(4))], 1)[0]
    text = topo.client.cipher_ingest(1, [topo.client_encrypt(b"xy")], 1)[0]
    captured = _capture(topo)
    bad = OperatorRequest(OpKind.ADD, ValueType.INT64, [zone, text], reveal=True)
    good = OperatorRequest(OpKind.ADD, ValueType.INT64, [zone, zone], reveal=True)
    out = topo.client.cipher_exec(1, [bad, good, bad], 8)
    assert [r.error_code for r in out] == [TypeMismatch.code, 0, TypeMismatch.code]
    assert decode_int64(topo.client_decrypt(out[1].envelope)) == 8
    assert [raw for raw, _ in captured] == [_req(MSG_CIPHER_EXEC, _write_op(
        good, _write_envelopes))]
    assert topo.client.cipher_exec(1, [bad], 8) == [
        OperatorResponse(error_code=TypeMismatch.code)]
    assert len(captured) == 1


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


def _revealed_values(topo, reqs: list[OperatorRequest],
                     out: list[OperatorResponse]) -> list:
    """Each response's revealed values, None where it revealed nothing: the
    revealed responses of one message share its envelope, which seals their
    values in element order, a LOAD's argc and any other element's one,
    and another message's envelope has another nonce."""
    values = [None] * len(out)
    revealed = [i for i, r in enumerate(out) if r.envelope is not None]
    for envelope, group in groupby(revealed, key=lambda i: out[i].envelope):
        group = list(group)
        opened = iter(topo.client_open(envelope,
                                       sum(reqs[i].n_revealed for i in group)))
        for i in group:
            values[i] = [next(opened) for _ in range(reqs[i].n_revealed)]
    return values


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
    over every op kind, LOAD's reveal of its operands too, and value type,
    bad arities, overflow, division by zero and every combination of
    constant, destination and reveal. The
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
        out = run(1, reqs, batch_size)
        for r, revealed in zip(out, _revealed_values(topo, reqs, out)):
            if r.envelope is not None:
                value = ("revealed", revealed)
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
                             _pack_fids, _read_u64)[1]
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
_SUM = OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, [1, 2], reveal=True)
_REVEALED = bytes([0, 2])  # an element whose result is in the envelope
_ONE_SEALED = bytes(FIXED_ENVELOPE_LEN)  # an envelope's length for one 8-byte value
_TWO_SEALED = bytes(FIXED_ENVELOPE_LEN + 10)  # and for two


@pytest.mark.parametrize("reqs,reply,error", [
    ([_ADD], _VALUE_REPLY, None),
    ([_ADD], b"\x00", TypeMismatch),                                  # no element
    ([_ADD], _VALUE_REPLY[:-3], TypeMismatch),                        # a partial one
    ([_ADD], _VALUE_REPLY + bytes([DivideByZero.code]), TypeMismatch),  # an extra one
    ([_ADD], _VALUE_REPLY + b"\x00", TypeMismatch),                    # a trailing byte
    ([_ADD], bytes([NotLive.code]), NotLive),                          # a refusal
    ([_SUM, _SUM], b"\x00" + _REVEALED * 2 + _TWO_SEALED, None),
    ([_SUM], b"\x00" + _REVEALED, TypeMismatch),                      # no envelope
    ([_SUM], b"\x00" + _REVEALED + _ONE_SEALED + b"\x00", TypeMismatch),
    ([_SUM, _SUM], b"\x00" + _REVEALED * 2 + _ONE_SEALED, TypeMismatch),
    ([_SUM], b"\x00" + _REVEALED + bytes(ENVELOPE_OVERHEAD - 1), TypeMismatch),
    ([_SUM], b"\x00" + bytes([Overflow.code]) + _ONE_SEALED, TypeMismatch),
], ids=["exact", "missing-element", "partial-element", "extra-element",
        "trailing-byte", "refused", "revealed-exact", "revealed-without-envelope",
        "revealed-trailing-byte", "envelope-of-one-for-two", "envelope-too-short",
        "envelope-without-a-revealed-element"])
def test_client_checks_the_batch_reply(reqs, reply, error):
    """The client reads exactly one response element per request element
    from an operator batch's reply, then the one envelope of its revealed
    results if it marks one revealed, and refuses a reply with an element
    missing or extra, an envelope missing, of a length its 8-byte values
    cannot make, or where nothing was revealed, or a byte after it all.
    Each revealed response holds the envelope."""
    client = ProxyClient(_Replay(reply))
    if error is None:
        expected = ([OperatorResponse(fid=7)] if reqs == [_ADD]
                    else [OperatorResponse(envelope=_TWO_SEALED)] * 2)
        assert client.exec_batch(1, reqs, 8) == expected
    else:
        with pytest.raises(error):
            client.exec_batch(1, reqs, 8)


# the shortest envelope of two 1-byte values, and the one envelope of the
# two 8-byte values of two INT64 zone envelopes
_TWO_SHORTEST = bytes(ENVELOPE_OVERHEAD + 2 * 3 - 2)
_TWO_ZONE_VALUES = bytes(ENVELOPE_OVERHEAD + 2 * 10 - 2)


@pytest.mark.parametrize("backend,reply,error", [
    ("fid", _TWO_SHORTEST, None),
    ("fid", _TWO_SHORTEST + bytes(100), None),  # the values may be longer
    ("fid", _TWO_SHORTEST[:-1], TypeMismatch),
    ("cipher", _TWO_ZONE_VALUES, None),
    ("cipher", _TWO_ZONE_VALUES[:-1], TypeMismatch),
    ("cipher", _TWO_ZONE_VALUES + b"\x00", TypeMismatch),
], ids=["fid-shortest", "fid-longer", "fid-too-short", "cipher-exact",
        "cipher-too-short", "cipher-trailing-byte"])
def test_client_checks_the_reveal_reply(backend, reply, error):
    """The client takes the reply of a LOAD element of two operands as one
    envelope of two values, and refuses one too short to seal a value per
    operand of raw bytes, or, for two INT64 zone envelopes, of another
    length than their 8-byte values make."""
    client = ProxyClient(_Replay(b"\x00" + _REVEALED + reply))
    if backend == "fid":
        reveal = lambda: client.exec_batch(None, [_load([1, 2])], 8)  # noqa: E731
    else:
        zone = bytes(FIXED_ENVELOPE_LEN)
        reveal = lambda: client.cipher_exec(  # noqa: E731
            None, [_load([zone, zone], ValueType.INT64)], 8)
    if error is None:
        assert reveal() == [OperatorResponse(envelope=reply)]
    else:
        with pytest.raises(error):
            reveal()


# the topology whose client and privacy zone the opener tests share
_OPENER = ZoneTopology(996)


@settings(max_examples=100, deadline=None, database=None)
@given(values=st.lists(st.binary(max_size=128), min_size=1, max_size=300))
def test_client_open_splits_what_pack_values_packed(values):
    """The one envelope of a reply's values opens into those values, in
    order: 28 + their bytes + 2(n-1) bytes, and one value packs to
    itself."""
    topo = _OPENER
    envelope = topo.privacy.proxy.seal(values)
    assert len(envelope) == ENVELOPE_OVERHEAD + sum(map(len, values)) + 2 * (len(values) - 1)
    assert topo.client_open(envelope, len(values)) == values
    if len(values) == 1:
        assert topo.client_decrypt(envelope) == values[0]


@pytest.mark.parametrize("plaintext,n", [
    (b"", 2),
    (b"\x01", 2),
    (struct.pack("<H", 9) + encode_int64(1), 2),
    (pack_values([encode_int64(1000)]), 2),
], ids=["ends-before-a-length", "ends-inside-a-length", "length-overruns",
        "value-read-as-a-length-overruns"])
def test_client_open_refuses_a_plaintext_that_does_not_split(plaintext, n):
    """A plaintext that ends before its n-th value starts, or whose length
    runs past its end, gets TypeMismatch from client_open itself."""
    with pytest.raises(TypeMismatch):
        _OPENER.client_open(_OPENER.client_encrypt(plaintext), n)


@settings(max_examples=100, deadline=None, database=None)
@given(values=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=40),
       surplus=st.sampled_from([-1, 1]))
def test_a_plaintext_of_another_count_is_refused(values, surplus):
    """A packed plaintext of one value too few or too many for n never reads
    as n values of a fixed width: the split or the value's decoder refuses
    it with TypeMismatch. (A surplus value lands in the last, which runs to
    the end, so only its width shows it.)"""
    n = len(values) + surplus
    if n < 1:
        return
    envelope = _OPENER.privacy.proxy.seal([encode_int64(v) for v in values])
    with pytest.raises(TypeMismatch):
        [decode_int64(v) for v in _OPENER.client_open(envelope, n)]
    padded = _OPENER.privacy.proxy.seal([pad_sensitive(b"%d" % v) for v in values])
    with pytest.raises(TypeMismatch):
        [unpad_sensitive(v) for v in _OPENER.client_open(padded, n)]


@pytest.mark.parametrize("at", [0, NONCE_LEN, ENVELOPE_OVERHEAD, -1],
                         ids=["nonce", "tag", "first-value", "last-value"])
def test_a_flipped_byte_in_a_grouped_envelope_fails_its_tag(topo, at):
    """A reply's one envelope authenticates all its values at once: a
    flipped byte anywhere in it fails client_open with AuthFailure."""
    pid = topo.client.create_partition()
    fids = topo.client.ingest(
        1, [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 3)], 8, pid)
    [resp] = topo.client.exec_batch(None, [_load(fids, ValueType.INT64)], 8)
    envelope = resp.envelope
    bad = bytearray(envelope)
    bad[at] ^= 1
    with pytest.raises(AuthFailure):
        topo.client_open(bytes(bad), 3)
    assert [decode_int64(v) for v in topo.client_open(envelope, 3)] == [1, 2, 3]


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


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_sum_that_fails_alone_leaves_the_envelope_to_the_others(backend):
    """A pass's READs and SUMs cross in one batch, a LOAD element of the
    READs' refs and an element per SUM, and its reply costs one encrypt. A
    SUM element that overflows fails alone: its reply holds that element's
    error status and one envelope of the other values only, in element
    order. A batch whose every revealed element fails carries no envelope
    and costs no encrypt."""
    topo = ZoneTopology(995, backend=backend)
    client = topo.client
    envelopes = [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 2**63 - 1, 3)]
    if backend == "fid":
        refs = client.ingest(1, envelopes, 8, client.create_partition())
        run = client.exec_batch
    else:
        refs = client.cipher_ingest(1, envelopes, 8)
        run = client.cipher_exec

    def total(*at):
        return OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, [refs[i] for i in at],
                               reveal=True)

    codec = topo.privacy.proxy.client_codec
    encrypts = codec.encrypts
    captured = _capture(topo)
    reads = _load([refs[0], refs[3]], ValueType.INT64)
    out = run(None, [reads, total(0, 1), total(1, 2), total(0, 3)], 8)
    assert codec.encrypts == encrypts + 1
    assert [r.error_code for r in out] == [0, 0, Overflow.code, 0]
    assert out[0].envelope == out[1].envelope == out[3].envelope
    assert out[2].envelope is None
    assert [decode_int64(v) for v in topo.client_open(out[0].envelope, 4)] == [1, 3,
                                                                             3, 4]
    assert captured[0][1] == (b"\x00" + _REVEALED * 2 + bytes([Overflow.code])
                              + _REVEALED + out[0].envelope)
    assert len(out[0].envelope) == FIXED_ENVELOPE_LEN + 30
    assert run(None, [total(1, 2)], 8) == [OperatorResponse(error_code=Overflow.code)]
    assert captured[1][1] == bytes([0, Overflow.code])
    assert codec.encrypts == encrypts + 1


def _two_backends(backend):
    """A topology of backend, its operator call, and three int64 refs of
    values 1, 2 and 3 in a table's partition (zone envelopes on cipher)."""
    topo = ZoneTopology(994, backend=backend)
    client = topo.client
    envelopes = [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 3)]
    if backend == "fid":
        return topo, client.exec_batch, client.ingest(1, envelopes, 8,
                                                      client.create_partition())
    return topo, client.cipher_exec, client.cipher_ingest(1, envelopes, 8)


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("case", ["argc-0", "destination", "constant", "no-reveal"])
def test_a_malformed_load_fails_alone(backend, case):
    """A LOAD with no stored operand, a destination, a constant or without
    OP_REVEAL fails alone with TypeMismatch and writes nothing, while a
    good LOAD beside it reveals its values."""
    topo, run, refs = _two_backends(backend)
    store = topo.privacy.store
    state = [store.live_fids(p) for p in store.partition_ids()]
    bad = {"argc-0": _load([], ValueType.INT64),
           "destination": OperatorRequest(OpKind.LOAD, ValueType.INT64, refs[:1],
                                          topo.client.create_partition(),
                                          reveal=True),
           "constant": OperatorRequest(OpKind.LOAD, ValueType.INT64, refs[:1],
                                       constant=topo.client_encrypt(encode_int64(9)),
                                       reveal=True),
           "no-reveal": OperatorRequest(OpKind.LOAD, ValueType.INT64, refs[:1])}[case]
    out = run(None, [bad, _load(refs[1:], ValueType.INT64), bad], 8)
    assert [r.error_code for r in out] == [TypeMismatch.code, 0, TypeMismatch.code]
    assert [decode_int64(v) for v in topo.client_open(out[1].envelope, 2)] == [2, 3]
    assert [store.live_fids(p) for p in store.partition_ids()[:len(state)]] == state


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_load_of_a_dead_operand_fails_alone(backend):
    """A LOAD whose operand is not live (on cipher, a zone envelope that
    fails its tag) fails alone, with NotLive's code (AuthFailure's), and the
    batch's other revealed values still arrive in its one envelope."""
    topo, run, refs = _two_backends(backend)
    if backend == "fid":
        topo.privacy.store.delete(refs[1])
        dead, code = refs[1], NotLive.code
    else:
        tampered = bytearray(refs[1])
        tampered[12] ^= 1  # the first byte of the tag
        dead, code = bytes(tampered), AuthFailure.code
    total = OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, [refs[0], refs[2]],
                            reveal=True)
    out = run(None, [_load([refs[0]], ValueType.INT64),
                     _load([refs[2], dead], ValueType.INT64), total], 8)
    assert [r.error_code for r in out] == [0, code, 0]
    assert out[0].envelope == out[2].envelope and out[1].envelope is None
    assert [decode_int64(v) for v in topo.client_open(out[0].envelope, 2)] == [1, 4]


_LOAD3 = _load([1, 2, 3], ValueType.INT64)


@pytest.mark.parametrize("reqs,reply,error", [
    ([_LOAD3, _SUM], _REVEALED * 2 + bytes(FIXED_ENVELOPE_LEN + 30), None),
    # an envelope of one value per revealed element, not per value
    ([_LOAD3, _SUM], _REVEALED * 2 + _TWO_SEALED, TypeMismatch),
    ([_LOAD3, _SUM], _REVEALED * 2 + bytes(FIXED_ENVELOPE_LEN + 30) + b"\x00",
     TypeMismatch),
    ([_LOAD3, _SUM], bytes([NotLive.code]) + _REVEALED + _ONE_SEALED, None),
    ([_LOAD3, _SUM], bytes([NotLive.code]) + _REVEALED + _TWO_SEALED, TypeMismatch),
    ([_LOAD3], _REVEALED + bytes(FIXED_ENVELOPE_LEN + 20), None),
    ([_LOAD3], _REVEALED + _ONE_SEALED, TypeMismatch),
], ids=["three-and-one", "one-per-element", "trailing-byte", "failed-load",
        "failed-load-counted", "load-alone", "load-as-one-value"])
def test_client_counts_a_loads_values_in_the_envelope(reqs, reply, error):
    """The client checks a reply's envelope against the values its revealed
    elements that succeeded seal: argc for a LOAD element, one for any
    other, so an envelope of another length, or a byte after it, is refused
    with TypeMismatch."""
    client = ProxyClient(_Replay(b"\x00" + reply))
    if error is None:
        out = client.exec_batch(None, reqs, 8)
        assert len(out) == len(reqs)
    else:
        with pytest.raises(error):
            client.exec_batch(None, reqs, 8)


_WRITE_BATCH = st.lists(st.one_of(
    st.tuples(st.just("load"), st.sampled_from([ValueType.INT64, ValueType.BYTES]),
              st.lists(st.integers(0, 2), min_size=1, max_size=4)),
    st.tuples(st.just("sum"), st.lists(st.integers(0, 2), min_size=1, max_size=3)),
    st.tuples(st.just("add"), st.integers(0, 2), st.integers(-9, 9)),
    st.tuples(st.just("store"), st.integers(-9, 9))), min_size=1, max_size=10)


@settings(max_examples=60, deadline=None, database=None)
@given(elements=_WRITE_BATCH, batch_size=st.integers(1, 4))
def test_load_sum_and_write_batches_round_trip(elements, batch_size):
    """A batch that mixes LOAD elements, revealed SUMs and a commit's ADD
    and STORE writes into a table's partition decodes to the elements the
    client encoded, on either operand codec, and runs to the same values on
    both backends: each LOAD reveals its operands' values in order, each
    SUM its total, and each write stores its value."""
    outcomes = []
    for backend in ("fid", "cipher"):
        topo, run, refs = _two_backends(backend)
        perm = topo.client.create_partition() if backend == "fid" else None
        reqs = []
        for element in elements:
            kind = element[0]
            if kind == "load":
                reqs.append(_load([refs[i] for i in element[2]], element[1]))
            elif kind == "sum":
                reqs.append(OperatorRequest(OpKind.SUM_AGG, ValueType.INT64,
                                            [refs[i] for i in element[1]], reveal=True))
            elif kind == "add":
                reqs.append(OperatorRequest(OpKind.ADD, ValueType.INT64, [refs[element[1]]],
                                            perm, topo.client_encrypt(encode_int64(element[2]))))
            else:
                reqs.append(OperatorRequest(OpKind.STORE, ValueType.INT64, [], perm,
                                            topo.client_encrypt(encode_int64(element[1]))))
        write, read = ((_pack_fids, _read_fids) if backend == "fid"
                       else (_write_envelopes, _read_envelopes))
        assert _read_ops(b"".join(_write_op(r, write) for r in reqs), read) == reqs
        out = run(None, reqs, batch_size)
        assert [r.error_code for r in out] == [0] * len(reqs)
        seen = []
        reveal = topo.client.reveal if backend == "fid" else topo.client.cipher_reveal
        for r, values in zip(out, _revealed_values(topo, reqs, out)):
            seen.append([decode_int64(v) for v in values] if values is not None
                        else decode_int64(topo.client_decrypt(reveal(1, r.fid))))
        outcomes.append(seen)
    assert outcomes[0] == outcomes[1]


def _run(topo, pid: int, refs: list, deltas: list[int]) -> list[OperatorRequest]:
    """One txn's writes as they cross: an ADD of each delta over its ref
    into pid, one run whose envelope, the first element's constant, seals
    the deltas in order."""
    envelope = topo.client_seal([encode_int64(d) for d in deltas])
    return [OperatorRequest(OpKind.ADD, ValueType.INT64, [ref], pid, envelope,
                            next_const=i > 0) for i, ref in enumerate(refs)]


def _permanent_ints(topo, values: list[int]) -> tuple[int, list[int]]:
    pid = topo.client.create_partition()
    return pid, topo.client.ingest(1, [topo.client_encrypt(encode_int64(v))
                                       for v in values], 8, pid)


def test_a_run_carries_its_envelope_once(topo):
    """A run's first element carries OP_CONST and its envelope, which seals
    the run's values in order; each later element carries OP_NEXT_CONST
    and no constant byte, and reads back with the same envelope. A run of
    one is the element a lone constant always gave. The privacy zone opens
    the run's envelope once."""
    pid, refs = _permanent_ints(topo, [10, 20, 30])
    lone = OperatorRequest(OpKind.ADD, ValueType.INT64, refs[:1], pid,
                           topo.client_encrypt(encode_int64(1)))
    assert _write_op(lone, _pack_fids) == (
        struct.pack("<BBHIQ", OpKind.ADD | OP_DEST | OP_CONST, ValueType.INT64, 1, pid,
                    refs[0]) + _blob(lone.constant))
    run = _run(topo, pid, refs, [1, 2, 3])
    elements = [_write_op(r, _pack_fids) for r in run]
    assert elements[0] == (struct.pack("<BBHIQ", OpKind.ADD | OP_DEST | OP_CONST,
                                       ValueType.INT64, 1, pid, refs[0])
                           + _blob(run[0].constant))
    assert elements[1:] == [struct.pack("<BBHIQ", OpKind.ADD | OP_DEST | OP_NEXT_CONST,
                                        ValueType.INT64, 1, pid, ref)
                            for ref in refs[1:]]
    assert len(run[0].constant) == ENVELOPE_OVERHEAD + 3 * 8 + 2 * 2
    assert _read_ops(b"".join(elements), _read_fids) == run
    codec = topo.privacy.proxy.client_codec
    decrypts = codec.decrypts
    out = topo.client.exec_writes(None, run, 8)
    assert codec.decrypts == decrypts + 1
    store = topo.privacy.store
    assert [decode_int64(store.get(resp.fid)) for resp, _ in out] == [11, 22, 33]
    assert [recipe for _, recipe in out] == [RECIPE_EXEC + e for e in elements]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_bad_envelope_fails_its_whole_run(topo, backend):
    """A run whose envelope fails its tag fails every element of its run
    with AuthFailure, and one whose envelope seals too few values fails
    each with TypeMismatch, while the other runs of the batch run."""
    pid, refs = _permanent_ints(topo, [10, 20, 30, 40, 50])
    if backend == "cipher":
        refs = topo.client.cipher_ingest(
            1, [topo.client_encrypt(encode_int64(v)) for v in (10, 20, 30, 40, 50)], 8)
    bad, good = _run(topo, pid, refs[:2], [1, 2]), _run(topo, pid, refs[2:3], [3])
    flipped = bad[0].constant[:-1] + bytes([bad[0].constant[-1] ^ 1])
    for r in bad:
        r.constant = flipped
    short = _run(topo, pid, refs[3:], [4])  # two elements, one value
    call = topo.client.exec_batch if backend == "fid" else topo.client.cipher_exec
    out = call(None, bad + good + short, 8)
    assert [r.error_code for r in out] == [AuthFailure.code] * 2 + [0] + [
        TypeMismatch.code] * 2


def test_a_message_never_splits_a_run(topo):
    """batch_size elements a message, except that a message runs on to the
    last element of a run it holds: its continuations could not be read
    apart from their envelope."""
    pid, refs = _permanent_ints(topo, [10, 20, 30, 40])
    lone = _run(topo, pid, refs[:1], [1])
    reqs = lone + _run(topo, pid, refs[1:3], [2, 3]) + _run(topo, pid, refs[3:], [4])
    captured = _capture(topo)
    out = topo.client.exec_batch(None, reqs, 2)
    assert [r.error_code for r in out] == [0] * 4
    sizes = [len(_read_ops(_split(raw)[2], _read_fids)) for raw, _ in captured]
    assert sizes == [3, 1]
    store = topo.privacy.store
    assert [decode_int64(store.get(r.fid)) for r in out] == [11, 22, 33, 44]


def test_a_continuation_with_no_run_fails_alone(topo):
    """A continuation whose element before it in its message carries no
    constant fails alone with TypeMismatch: the client does not send it,
    and the privacy zone refuses one that comes first in its message."""
    pid, refs = _permanent_ints(topo, [10, 20])
    run = _run(topo, pid, refs, [1, 2])
    plain = OperatorRequest(OpKind.ADD, ValueType.INT64, refs, pid)
    captured = _capture(topo)
    out = topo.client.exec_batch(None, [plain, run[1]], 8)
    assert [r.error_code for r in out] == [0, TypeMismatch.code]
    assert len(_read_ops(_split(captured[0][0])[2], _read_fids)) == 1
    reply = topo.channel.request(_req(MSG_EXEC_BATCH, _write_op(run[1], _pack_fids)
                                      + _write_op(plain, _pack_fids)))
    assert reply[:3] == bytes([0, TypeMismatch.code, 0])


def test_a_restore_message_holds_whole_runs(topo):
    """MSG_RESTORE items go batch_size a message, but a message runs on to
    the last continuation of a run it holds, an ingest recipe between
    them included, so each continuation crosses with its run's envelope
    and is restored as its next value; a continuation with no head before
    it is refused before anything is sent."""
    pid, refs = _permanent_ints(topo, [10, 20])
    topo.client.flush_log(checkpoint=True)  # the operands survive the crash
    envelope = topo.client_encrypt(encode_int64(7))
    (fid,) = topo.client.ingest(1, [envelope], 1, pid)
    written = topo.client.exec_writes(None, _run(topo, pid, refs, [1, 2]), 8)
    (a, head), (b, continuation) = [(resp.fid, recipe) for resp, recipe in written]
    items = [(a, head), (fid, RECIPE_INGEST + envelope), (b, continuation)]
    topo.privacy.crash()
    topo.privacy.recover()
    with pytest.raises(TypeMismatch):
        topo.client.restore(items[2:], 1)
    captured = _capture(topo)
    assert topo.client.restore(items, 1) == 3
    assert [len(_read_restore(_split(raw)[2])) for raw, _ in captured] == [3]
    store = topo.privacy.store
    assert [decode_int64(store.get(f)) for f in (a, fid, b)] == [11, 7, 22]
