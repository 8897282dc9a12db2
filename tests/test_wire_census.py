"""The cross-zone frame, message by message: what small programs of the
benchmark's shapes send. The paths that name a query's temporaries, and
so send its id, are tested in test_zone_sim
(test_query_with_temporaries_still_ends_them)."""

from collections import defaultdict

import pytest

from fidstore.messages import (
    MSG_CIPHER_EXEC,
    MSG_CIPHER_INGEST,
    MSG_CIPHER_REVEAL,
    MSG_CREATE_PARTITION,
    MSG_DELETE,
    MSG_EXEC_BATCH,
    MSG_FLUSH_LOG,
    MSG_INGEST,
    MSG_LIST_LIVE,
    MSG_REVEAL,
    _pack_fid,
    _read_envelope,
    _read_blobs,
    _read_ops,
    _read_sized,
    _read_u64,
    _split,
    _write_envelope,
    _write_op,
)
from fidstore.privacy_proxy import ENVELOPE_OVERHEAD
from fidstore.workload import Mode, WorkloadSpec, generate_workload
from fidstore.zone_sim import ZoneTopology

_OPERANDS = {MSG_EXEC_BATCH: (_pack_fid, _read_u64),
             MSG_CIPHER_EXEC: (_write_envelope, _read_envelope)}

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
_PINNED = {
    (Mode.READ_WRITE, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_REVEAL: (53, 693, 2231), MSG_EXEC_BATCH: (43, 2759, 709),
        MSG_FLUSH_LOG: (6, 8, 6), MSG_DELETE: (4, 284, 39),
        MSG_LIST_LIVE: (4, 20, 1924)},
    (Mode.READ_WRITE, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_REVEAL: (53, 3093, 2231), MSG_CIPHER_EXEC: (43, 6259, 1689),
        MSG_FLUSH_LOG: (3, 4, 3)},
    (Mode.WRITE_ONLY, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (34, 8434, 714), MSG_FLUSH_LOG: (6, 8, 6),
        MSG_DELETE: (5, 549, 73), MSG_LIST_LIVE: (4, 20, 1924)},
    (Mode.WRITE_ONLY, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (34, 9190, 7702), MSG_FLUSH_LOG: (3, 4, 3)},
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
    a MSG_REVEAL request is its kind and its FIDs, and a cipher reveal its
    zone envelopes each after its u16 length; an operator batch request is
    its kind byte and its elements' bytes alone, one reply element each.
    Every reply that reveals values is its elements, if any, and one client
    envelope of those values: 28 bytes, the values and 2(n-1) inner lengths,
    one encrypt each. The bytes per kind, the values revealed and the
    encrypts are pinned."""
    spec = WorkloadSpec(mode=mode, tables=2, rows_per_table=30, duration_ops=40,
                        threads_simulated=2, batch_size=16, abort_ratio=0.1)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    captured = _capture(topo)
    report = topo.run_program(generate_workload(spec, 3))
    assert report.invariant_holds
    per_kind = defaultdict(lambda: [0, 0, 0])
    revealed = encrypts = 0
    for raw, resp in captured:
        kind, query_id, payload = _split(raw)
        assert query_id is None and kind == raw[0]
        assert resp[0] == 0
        n = 0  # the values the reply's envelope seals, after head bytes
        head = 1
        if kind == MSG_REVEAL:
            assert payload and len(payload) % 8 == 0
            n = len(payload) // 8
            revealed += n
        elif kind == MSG_CIPHER_REVEAL:
            zones = _read_blobs(payload, 0, _read_sized)
            n = len(zones)
            revealed += n
        elif kind in _OPERANDS:
            write, read = _OPERANDS[kind]
            ops = _read_ops(payload, read)
            assert b"".join(_write_op(op, write) for op in ops) == payload
            n = sum(op.reveal for op in ops)
            if n:  # a batch of sums, none of which fails
                head += 2 * len(ops)
                assert resp[1:head] == bytes([0, 2]) * len(ops)
        if n:
            values = topo.client_open(resp[head:], n)
            assert len(resp) == (head + ENVELOPE_OVERHEAD + sum(map(len, values))
                                 + 2 * (n - 1))
            if kind == MSG_CIPHER_REVEAL:
                assert [len(v) for v in values] == [len(z) - ENVELOPE_OVERHEAD
                                                    for z in zones]
            encrypts += 1
        counts = per_kind[kind]
        counts[0] += 1
        counts[1] += len(raw)
        counts[2] += len(resp)
    assert {k: tuple(v) for k, v in per_kind.items()} == _PINNED[mode, backend]
    assert revealed == (80 if mode == Mode.READ_WRITE else 0)
    assert topo.privacy.proxy.client_codec.encrypts == encrypts
