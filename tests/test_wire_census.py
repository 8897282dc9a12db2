"""The cross-zone frame, message by message: what small programs of the
benchmark's shapes send. The paths that name a query's temporaries, and
so send its id, are tested in test_zone_sim
(test_query_with_temporaries_still_ends_them)."""

from collections import defaultdict

import pytest

from fidstore.messages import (
    MSG_CIPHER_EXEC,
    MSG_CIPHER_INGEST,
    MSG_CREATE_PARTITION,
    MSG_DELETE,
    MSG_EXEC_BATCH,
    MSG_FLUSH_LOG,
    MSG_INGEST,
    MSG_LIST_LIVE,
    _pack_fids,
    _read_envelope,
    _read_envelopes,
    _read_fids,
    _read_ops,
    _read_u64,
    _split,
    _write_envelopes,
    _write_op,
)
from fidstore.integrity_dbms import Database
from fidstore.privacy_proxy import ENVELOPE_OVERHEAD, OpKind
from fidstore.workload import Mode, WorkloadSpec, generate_workload
from fidstore.zone_sim import ZoneTopology

# per operator kind: an element's operands' writer and reader, and a
# value result's reader
_OPERANDS = {MSG_EXEC_BATCH: (_pack_fids, _read_fids, _read_u64),
             MSG_CIPHER_EXEC: (_write_envelopes, _read_envelopes, _read_envelope)}

# (mode, backend) -> {kind: (requests, request bytes, response bytes)} over
# seed 3's program of 2 tables x 30 rows, 40 ops and 2 clients at batch 16,
# preload and maintenance included. Each request is 8 bytes shorter than
# when every request carried a query id, an operator batch 2 shorter again
# and its reply 2 shorter (no element count), a MSG_REVEAL reply 4 shorter
# and a MSG_CIPHER_REVEAL request and reply 4 shorter each (a bare
# envelope).
# The runner then began to send the reveals its waiting clients queued in
# one crossing: the 80 READs' reveals take 53 messages, not 80, 27 kind and
# 27 status bytes fewer; a fid reply gives each envelope but the last a u16
# length (27 in all, so its bytes are as before), a cipher request each of
# its 80 zone envelopes. The range sums of a pass share a batch: one batch
# fewer in read-write, 20 fewer in range select. An INT64 element's zone
# envelope operands and value results and every revealed INT64 result go
# bare, 4 bytes fewer each (cipher: 125 operands and 44 results in read
# write, 27 and 27 in write only, 400 and 40 in range select; fid: 9 and
# 40 revealed sums), and a MSG_LIST_LIVE reply lost its u32 count.
# Each reply that reveals values then came to carry one client envelope of
# them all (28 bytes and 2(n-1) inner lengths over the values): the 53
# reveal replies of 80 values take 27 x 28 = 756 bytes fewer on fid and
# 27 x 26 = 702 fewer on cipher, whose replies had no inner lengths, so
# both are 2 231 bytes; a batch of 2 revealed sums 26 fewer (1 in
# read-write, all 20 in range select).
# The reveals then became LOAD elements of operator batches, and a commit's
# write batch began to carry the reveals other clients queued: read-write
# sends 83 operator batches where it sent 53 MSG_REVEAL and 43 batches.
# Its 53 LOAD elements, one per pass or rider group, add a 4-byte head each
# to the requests and a 2-byte status and result kind each to the replies;
# 13 crossings fewer take 13 kind and 13 status bytes, 4 envelopes that
# now share a reply 26 bytes each, and on cipher the 80 INT64 zone
# envelopes go bare, 2 bytes fewer each (3 452 + 2 940 bytes on fid
# before, 9 352 + 3 920 on cipher). The other modes reveal no READ and
# keep every count.
# The commits of a pass then came to cross as one group, in one operator
# batch: 16 batches fewer in read-write (83 before) and 14 in write-only
# (34), each 1 kind byte and 1 status byte, since a group's elements and
# its reply's results are those its members' batches carried. Every other
# count is as before.
# The constants of a txn's writes that cross together then came to share
# one client envelope, carried by the run's first element: each of the 34
# continuations in write-only drops its u32 length and its envelope's 28
# bytes of nonce and tag, and the head's envelope gains its 2-byte inner
# length, 30 bytes fewer each (8 420 and 9 176 request bytes before).
# Read-write's txns write once and keep every count.
_PINNED = {
    (Mode.READ_WRITE, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (67, 3635, 2913),
        MSG_FLUSH_LOG: (6, 8, 6), MSG_DELETE: (4, 284, 39),
        MSG_LIST_LIVE: (4, 20, 1924)},
    (Mode.READ_WRITE, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (67, 9375, 3893),
        MSG_FLUSH_LOG: (3, 4, 3)},
    (Mode.WRITE_ONLY, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (20, 7400, 700), MSG_FLUSH_LOG: (6, 8, 6),
        MSG_DELETE: (5, 549, 73), MSG_LIST_LIVE: (4, 20, 1924)},
    (Mode.WRITE_ONLY, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (20, 8156, 7688), MSG_FLUSH_LOG: (3, 4, 3)},
    (Mode.RANGE_SELECT, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (20, 3380, 1020), MSG_FLUSH_LOG: (2, 2, 2),
        MSG_LIST_LIVE: (2, 10, 962)},
    (Mode.RANGE_SELECT, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (20, 14580, 1020), MSG_FLUSH_LOG: (2, 2, 2)},
}


def _capture(topo) -> list:
    """Records (request, response) for every message from now on."""
    captured = []
    request = topo.channel.request

    def spy(raw):
        resp = request(raw)
        captured.append((raw, resp))
        return resp

    topo.channel.request = spy
    return captured


@pytest.mark.parametrize("mode,backend", list(_PINNED),
                         ids=lambda v: getattr(v, "value", v))
def test_a_program_sends_no_byte_its_receiver_knows(mode, backend):
    """No message of a program that names no temporary carries a query id:
    an operator batch request is its kind byte and its elements' bytes
    alone, a LOAD's operands as bare as its value type allows, and its
    reply one element each. Every reply that reveals values is its elements
    and one client envelope of those values: 28 bytes, the values and
    2(n-1) inner lengths, one encrypt each. In read-write some commits
    carry riders: the reveals after the write elements, in the same batch
    and envelope. The bytes per kind, the values revealed and the encrypts
    are pinned."""
    spec = WorkloadSpec(mode=mode, tables=2, rows_per_table=30, duration_ops=40,
                        threads_simulated=2, batch_size=16, abort_ratio=0.1)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    captured = _capture(topo)
    report = topo.run_program(generate_workload(spec, 3))
    assert report.invariant_holds
    per_kind = defaultdict(lambda: [0, 0, 0])
    revealed = encrypts = riders = 0
    for raw, resp in captured:
        kind, query_id, payload = _split(raw)
        assert query_id is None and kind == raw[0]
        assert resp[0] == 0
        n = 0  # the values the reply's envelope seals, after head bytes
        head = 1
        if kind in _OPERANDS:
            write, read, read_result = _OPERANDS[kind]
            ops = _read_ops(payload, read)
            assert b"".join(_write_op(op, write) for op in ops) == payload
            for op in ops:  # none fails: its status, its result kind, a value
                assert resp[head:head + 2] == bytes([0, 2 if op.reveal else 0])
                head += 2
                if not op.reveal:
                    _, head = read_result(resp, head, op.value_type)
            n = sum(op.n_revealed for op in ops)
            revealed += sum(op.n_revealed for op in ops if op.op == OpKind.LOAD)
            # a commit's writes, with the reveals that ride after them
            if n and any(op.destination is not None for op in ops):
                riders += 1
                assert not any(op.destination is not None for op in ops
                               [[op.reveal for op in ops].index(True):])
        if n:
            values = topo.client_open(resp[head:], n)
            assert len(resp) == (head + ENVELOPE_OVERHEAD + sum(map(len, values))
                                 + 2 * (n - 1))
            if kind == MSG_CIPHER_EXEC:
                loaded = [z for op in ops if op.op == OpKind.LOAD
                          for z in op.operand_fids]
                assert [len(v) for v in values[:len(loaded)]] == [
                    len(z) - ENVELOPE_OVERHEAD for z in loaded]
            encrypts += 1
        counts = per_kind[kind]
        counts[0] += 1
        counts[1] += len(raw)
        counts[2] += len(resp)
    assert {k: tuple(v) for k, v in per_kind.items()} == _PINNED[mode, backend]
    assert revealed == (80 if mode == Mode.READ_WRITE else 0)
    assert (riders > 0) == (mode == Mode.READ_WRITE)
    assert topo.privacy.proxy.client_codec.encrypts == encrypts


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", [Mode.WRITE_ONLY, Mode.READ_WRITE],
                         ids=lambda m: m.value)
def test_no_message_carries_two_envelopes_of_one_txn(mode, backend, monkeypatch):
    """The client seals a txn's held constants in one envelope each time
    its writes cross (Database.supply_constants). Each such envelope
    crosses once, carried by the first element of its run, and no operator
    message carries two envelopes of one txn; every continuation reads as
    the next value of the envelope before it. Write-only txns cross two
    constants at once, read-write ones one."""
    spec = WorkloadSpec(mode=mode, tables=2, rows_per_table=30, duration_ops=40,
                        threads_simulated=2, batch_size=16, abort_ratio=0.1)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    owner = {}  # each supplied envelope -> the txn it seals constants of
    supply = Database.supply_constants

    def recorded(db, txn, envelope):
        owner[envelope] = txn.txn_id
        supply(db, txn, envelope)

    monkeypatch.setattr(Database, "supply_constants", recorded)
    captured = _capture(topo)
    assert topo.run_program(generate_workload(spec, 3)).invariant_holds
    carried = []
    continued = 0
    for raw, _ in captured:
        kind, _, payload = _split(raw)
        if kind not in _OPERANDS:
            continue
        ops = _read_ops(payload, _OPERANDS[kind][1])
        heads = [owner[op.constant] for op in ops
                 if op.constant is not None and not op.next_const]
        assert len(heads) == len(set(heads))
        carried += [op.constant for op in ops if op.constant is not None
                    and not op.next_const]
        assert all(op.constant in owner for op in ops if op.next_const)
        continued += sum(op.next_const for op in ops)
    assert sorted(carried) == sorted(owner)
    assert (continued > 0) == (mode == Mode.WRITE_ONLY)
