import os
import random
import struct

import pytest

from fidstore.errors import (
    AuthFailure,
    DivideByZero,
    NotLive,
    Overflow,
    TypeMismatch,
)
from fidstore.fid_codec import OFFSET_BITS
from fidstore.mapping_store import MappingStore, PartitionKind
from fidstore.privacy_proxy import (
    ClientEnvelope,
    EnvelopeCodec,
    OperatorRequest,
    OpKind,
    PrivacyProxy,
    ValueType,
    check_operator,
    decode_float64,
    decode_int64,
    encode_int64,
    unpack_values,
)


@pytest.fixture
def setup():
    store = MappingStore()
    key = os.urandom(32)
    proxy = PrivacyProxy(store, key)
    client = EnvelopeCodec(key)
    return store, proxy, client


def _put_ints(proxy, query_id, *values):
    pid = proxy.query_temp(query_id)
    return [proxy.store.put(pid, encode_int64(v)) for v in values]


def test_envelope_overhead_is_28_bytes(setup):
    _, _, client = setup
    env = client.encrypt(b"\x05\x00\x00\x00")
    raw = env.to_bytes()
    assert len(raw) == 4 + 28
    assert len(env.nonce) == 12 and len(env.tag) == 16


def test_ingest_round_trip(setup):
    store, proxy, client = setup
    fid = proxy.ingest([client.encrypt(encode_int64(5))], proxy.query_temp(1))[0]
    assert decode_int64(store.get(fid)) == 5


def test_ingest_tampered_envelope(setup):
    """One envelope failing its tag fails the whole ingest before any put,
    wherever it stands in the batch."""
    store, proxy, client = setup
    env = client.encrypt(b"payload")
    flipped = bytearray(env.ciphertext)
    flipped[0] ^= 1
    bad = ClientEnvelope(env.nonce, env.tag, bytes(flipped))
    pid = proxy.query_temp(1)
    for batch in ([bad], [env, bad, env], [env, env, bad]):
        with pytest.raises(AuthFailure):
            proxy.ingest(batch, pid)
        assert store.live_fids(pid) == []


def test_ingest_same_plaintext_distinct_fids(setup):
    _, proxy, client = setup
    pid = proxy.query_temp(1)
    f1 = proxy.ingest([client.encrypt(b"same")], pid)[0]
    f2 = proxy.ingest([client.encrypt(b"same")], pid)[0]
    assert f1 != f2


def test_reveal_fresh_nonces_same_plaintext(setup):
    """Each reveal seals under a fresh nonce, and one reveal of n FIDs
    seals their values in one envelope, with one encrypt."""
    _, proxy, client = setup
    fid = proxy.ingest([client.encrypt(b"secret-x")], proxy.query_temp(1))[0]
    e1, e2 = (ClientEnvelope.from_bytes(proxy.reveal([fid])) for _ in range(2))
    assert e1.nonce != e2.nonce
    assert e1.ciphertext != e2.ciphertext
    assert client.decrypt(e1) == client.decrypt(e2) == b"secret-x"
    encrypts = proxy.client_codec.encrypts
    both = ClientEnvelope.from_bytes(proxy.reveal([fid, fid]))
    assert proxy.client_codec.encrypts == encrypts + 1
    assert unpack_values(client.decrypt(both), 2) == [b"secret-x"] * 2


def test_reveal_not_live(setup):
    store, proxy, client = setup
    fid = proxy.ingest([client.encrypt(b"gone")], proxy.query_temp(1))[0]
    store.delete(fid)
    with pytest.raises(NotLive):
        proxy.reveal([fid])


def test_arithmetic_and_comparisons(setup):
    store, proxy, _ = setup
    a, b = _put_ints(proxy, 1, 2, 3)
    resp = proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [a, b]), 1)
    assert decode_int64(store.get(resp.fid)) == 5
    resp = proxy.exec_operator(OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [a, b]), 1)
    assert resp.boolean is True
    resp = proxy.exec_operator(OperatorRequest(OpKind.CMP_GT, ValueType.INT64, [a, b]), 1)
    assert resp.boolean is False
    resp = proxy.exec_operator(OperatorRequest(OpKind.CMP_EQ, ValueType.INT64, [a, a]), 1)
    assert resp.boolean is True


def test_truncating_division_and_mod(setup):
    store, proxy, _ = setup
    cases = [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)]
    for x, y, q, r in cases:
        a, b = _put_ints(proxy, 1, x, y)
        resp = proxy.exec_operator(OperatorRequest(OpKind.DIV, ValueType.INT64, [a, b]), 1)
        assert decode_int64(store.get(resp.fid)) == q
        resp = proxy.exec_operator(OperatorRequest(OpKind.MOD, ValueType.INT64, [a, b]), 1)
        assert decode_int64(store.get(resp.fid)) == r


def test_divide_by_zero_and_overflow(setup):
    _, proxy, _ = setup
    a, z = _put_ints(proxy, 1, 10, 0)
    with pytest.raises(DivideByZero):
        proxy.exec_operator(OperatorRequest(OpKind.DIV, ValueType.INT64, [a, z]), 1)
    big, one = _put_ints(proxy, 1, 2 ** 63 - 1, 1)
    with pytest.raises(Overflow):
        proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [big, one]), 1)


def test_type_and_arity_checks(setup):
    _, proxy, _ = setup
    pid = proxy.query_temp(1)
    short = proxy.store.put(pid, b"xy")  # not 8 bytes
    a, b = _put_ints(proxy, 1, 1, 2)
    with pytest.raises(TypeMismatch):
        proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [short, b]), 1)
    with pytest.raises(TypeMismatch):
        proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [a]), 1)
    with pytest.raises(TypeMismatch):
        proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.BYTES, [a, b]), 1)


@pytest.mark.parametrize("n_stored, constant, reveal", [(1, True, False),
                                                        (0, False, False),
                                                        (0, True, True)],
                         ids=["stored-operand", "no-constant", "reveal"])
def test_a_malformed_store_is_refused(n_stored, constant, reveal):
    """STORE takes its inline constant alone and stores it: a stored
    operand, a missing constant or a reveal is refused, with a destination
    or without."""
    for destination in (None, 3):
        with pytest.raises(TypeMismatch):
            check_operator(OpKind.STORE, n_stored, constant, destination, reveal)
    check_operator(OpKind.STORE, 0, True, 3, False)


def test_store_writes_its_constant_as_it_is(setup):
    """A STORE's value result is its constant's value: any bytes, or 8
    bytes for an int64, into the destination; its constant is decrypted
    once."""
    store, proxy, client = setup
    pid = store.create_partition(PartitionKind.PERMANENT)
    decrypts = proxy.client_codec.decrypts
    for vtype, value in ((ValueType.BYTES, b"any length"),
                         (ValueType.INT64, encode_int64(-5))):
        resp = proxy.exec_operator(OperatorRequest(
            OpKind.STORE, vtype, [], pid, client.encrypt(value).to_bytes()), 1)
        assert resp.fid >> OFFSET_BITS == pid and store.get(resp.fid) == value
    assert proxy.client_codec.decrypts == decrypts + 2
    with pytest.raises(TypeMismatch):
        proxy.exec_operator(OperatorRequest(
            OpKind.STORE, ValueType.INT64, [], pid, client.encrypt(b"xy").to_bytes()), 1)


def test_operand_not_live(setup):
    store, proxy, _ = setup
    a, b = _put_ints(proxy, 1, 1, 2)
    store.delete(a)
    with pytest.raises(NotLive):
        proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [a, b]), 1)


def test_sum_agg_closed_form(setup):
    store, proxy, _ = setup
    fids = _put_ints(proxy, 1, *range(1, 101))
    resp = proxy.exec_operator(
        OperatorRequest(OpKind.SUM_AGG, ValueType.INT64, fids), 1)
    assert decode_int64(store.get(resp.fid)) == 5050


def test_min_max_avg(setup):
    store, proxy, _ = setup
    fids = _put_ints(proxy, 1, 9, -4, 17, 2)
    get = lambda r: store.get(r.fid)
    assert decode_int64(get(proxy.exec_operator(
        OperatorRequest(OpKind.MIN_AGG, ValueType.INT64, fids), 1))) == -4
    assert decode_int64(get(proxy.exec_operator(
        OperatorRequest(OpKind.MAX_AGG, ValueType.INT64, fids), 1))) == 17
    avg = proxy.exec_operator(OperatorRequest(OpKind.AVG_AGG, ValueType.INT64, fids), 1)
    assert decode_float64(get(avg)) == pytest.approx(6.0)


def test_float_ops(setup):
    store, proxy, _ = setup
    pid = proxy.query_temp(1)
    a = proxy.store.put(pid, struct.pack("<d", 1.5))
    b = proxy.store.put(pid, struct.pack("<d", 2.25))
    resp = proxy.exec_operator(OperatorRequest(OpKind.MUL, ValueType.FLOAT64, [a, b]), 1)
    assert decode_float64(store.get(resp.fid)) == pytest.approx(3.375)


def test_bytes_comparison(setup):
    _, proxy, _ = setup
    pid = proxy.query_temp(1)
    a = proxy.store.put(pid, b"apple")
    b = proxy.store.put(pid, b"banana")
    resp = proxy.exec_operator(OperatorRequest(OpKind.CMP_LT, ValueType.BYTES, [a, b]), 1)
    assert resp.boolean is True


def test_listing_fidelity_gets_and_puts(setup):
    """The operator path is exactly {get operands, compute, put result}."""
    store, proxy, _ = setup
    a, b = _put_ints(proxy, 1, 4, 9)
    calls = []
    for name in ("get", "put"):
        def counted(*args, _call=getattr(store, name), _name=name):
            calls.append(_name)
            return _call(*args)
        setattr(store, name, counted)
    proxy.exec_operator(OperatorRequest(OpKind.ADD, ValueType.INT64, [a, b]), 1)
    assert calls == ["get", "get", "put"]
    calls.clear()
    proxy.exec_operator(OperatorRequest(OpKind.CMP_LT, ValueType.INT64, [a, b]), 1)
    assert calls == ["get", "get"]  # comparisons put nothing


def test_batch_matches_sequential(setup):
    store, proxy, _ = setup
    rng = random.Random(77)
    seq_store = MappingStore()
    seq_proxy = PrivacyProxy(seq_store, os.urandom(32))

    def build(proxy_obj, n):
        pid = proxy_obj.query_temp(9)
        fids = [proxy_obj.store.put(pid, encode_int64(rng.randrange(-50, 50)))
                for _ in range(40)]
        reqs = []
        r = random.Random(4242)
        for _ in range(n):
            op = r.choice([OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                           OpKind.CMP_LT, OpKind.CMP_EQ])
            reqs.append(OperatorRequest(op, ValueType.INT64,
                                        [r.choice(fids), r.choice(fids)]))
        return reqs

    rng = random.Random(77)
    reqs_a = build(proxy, 10_000)
    rng = random.Random(77)
    reqs_b = build(seq_proxy, 10_000)

    batch = proxy.exec_batch(reqs_a, 9)
    sequential = []
    for req in reqs_b:
        try:
            sequential.append(seq_proxy.exec_operator(req, 9))
        except Exception as exc:
            code = getattr(exc, "code", 0)
            from fidstore.privacy_proxy import OperatorResponse
            sequential.append(OperatorResponse(error_code=code))

    assert len(batch) == len(sequential)
    for got, want in zip(batch, sequential):
        assert got.error_code == want.error_code
        assert got.boolean == want.boolean
        if want.fid is not None:
            assert store.get(got.fid) == seq_store.get(want.fid)


def test_batch_reports_errors_positionally(setup):
    store, proxy, _ = setup
    a, b, z = _put_ints(proxy, 1, 6, 3, 0)
    reqs = [
        OperatorRequest(OpKind.ADD, ValueType.INT64, [a, b]),
        OperatorRequest(OpKind.DIV, ValueType.INT64, [a, z]),
        OperatorRequest(OpKind.SUB, ValueType.INT64, [a, b]),
    ]
    out = proxy.exec_batch(reqs, 1)
    assert out[0].error_code == 0
    assert out[1].error_code == DivideByZero.code
    assert out[2].error_code == 0
    assert decode_int64(store.get(out[2].fid)) == 3


def test_end_query_drops_only_that_query(setup):
    store, proxy, client = setup
    perm = store.create_partition(PartitionKind.PERMANENT)
    keep = store.put(perm, b"keep-me")
    f1 = proxy.ingest([client.encrypt(b"q1-value")], proxy.query_temp(1))[0]
    f2 = proxy.ingest([client.encrypt(b"q2-value")], proxy.query_temp(2))[0]
    proxy.end_query(1)
    assert store.get(f1) is None
    assert store.get(f2) == b"q2-value"
    assert store.get(keep) == b"keep-me"
    proxy.end_query(1)  # idempotent
    assert store.get(keep) == b"keep-me"
