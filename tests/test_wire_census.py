"""The cross-zone frame, message by message: what small programs of the
benchmark's shapes send. The paths that name a query's temporaries, and
so send its id, are tested in test_zone_sim
(test_query_with_temporaries_still_ends_them)."""

import struct
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
    _blob,
    _read_blob,
    _read_ops,
    _read_u64,
    _split,
    _write_op,
)
from fidstore.privacy_proxy import ClientEnvelope
from fidstore.workload import Mode, WorkloadSpec, generate_workload
from fidstore.zone_sim import ZoneTopology

_OPERANDS = {MSG_EXEC_BATCH: (lambda fid: struct.pack("<Q", fid), _read_u64),
             MSG_CIPHER_EXEC: (_blob, _read_blob)}

# (mode, backend) -> {kind: (requests, request bytes, response bytes)} over
# seed 3's program of 2 tables x 30 rows, 40 ops and 2 clients at batch 16,
# preload and maintenance included. Each request is 8 bytes shorter than
# when every request carried a query id, an operator batch 2 shorter again
# and its reply 2 shorter (no element count), a MSG_REVEAL reply 4 shorter
# and a MSG_CIPHER_REVEAL request and reply 4 shorter each (a bare
# envelope); the counts are as before.
_PINNED = {
    (Mode.READ_WRITE, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_REVEAL: (80, 720, 2960), MSG_EXEC_BATCH: (44, 2760, 772),
        MSG_FLUSH_LOG: (6, 8, 6), MSG_DELETE: (4, 284, 39),
        MSG_LIST_LIVE: (4, 20, 1940)},
    (Mode.READ_WRITE, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_REVEAL: (80, 2960, 2960), MSG_CIPHER_EXEC: (44, 6760, 1892),
        MSG_FLUSH_LOG: (3, 4, 3)},
    (Mode.WRITE_ONLY, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (34, 8434, 714), MSG_FLUSH_LOG: (6, 8, 6),
        MSG_DELETE: (5, 549, 73), MSG_LIST_LIVE: (4, 20, 1940)},
    (Mode.WRITE_ONLY, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (34, 9298, 7810), MSG_FLUSH_LOG: (3, 4, 3)},
    (Mode.RANGE_SELECT, "fid"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_INGEST: (8, 12040, 968),
        MSG_EXEC_BATCH: (40, 3400, 1720), MSG_FLUSH_LOG: (2, 2, 2),
        MSG_LIST_LIVE: (2, 10, 970)},
    (Mode.RANGE_SELECT, "cipher"): {
        MSG_CREATE_PARTITION: (2, 2, 10), MSG_CIPHER_INGEST: (8, 12008, 12008),
        MSG_CIPHER_EXEC: (40, 16200, 1720), MSG_FLUSH_LOG: (2, 2, 2)},
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
    a MSG_REVEAL request is its kind and FID, 9 bytes, and its reply the
    status byte and the client envelope; an operator batch request is its
    kind byte and its elements' bytes alone, one reply element each; a
    cipher reveal carries a zone envelope bare. The bytes per kind are
    pinned."""
    spec = WorkloadSpec(mode=mode, tables=2, rows_per_table=30, duration_ops=40,
                        threads_simulated=2, batch_size=16, abort_ratio=0.1)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    captured = _capture(topo)
    report = topo.run_program(generate_workload(spec, 3))
    assert report.invariant_holds
    per_kind = defaultdict(lambda: [0, 0, 0])
    for raw, resp in captured:
        kind, query_id, payload = _split(raw)
        assert query_id is None and kind == raw[0]
        assert resp[0] == 0
        if kind == MSG_REVEAL:
            assert len(raw) == 9
            topo.client_decrypt(resp[1:])  # the rest is one client envelope
        elif kind == MSG_CIPHER_REVEAL:
            ClientEnvelope.from_bytes(payload)  # a zone envelope, bare
            topo.client_decrypt(resp[1:])
        elif kind in _OPERANDS:
            write, read = _OPERANDS[kind]
            ops = _read_ops(payload, read)
            assert b"".join(_write_op(op, write) for op in ops) == payload
        counts = per_kind[kind]
        counts[0] += 1
        counts[1] += len(raw)
        counts[2] += len(resp)
    assert {k: tuple(v) for k, v in per_kind.items()} == _PINNED[mode, backend]
