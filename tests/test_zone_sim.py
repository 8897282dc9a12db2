import json
from collections import Counter

import pytest

from fidstore import messages as m
from fidstore.errors import NoCrashPending, StructureMismatch, Unavailable
from fidstore.integrity_dbms import Column, ColumnType, Predicate
from fidstore.privacy_proxy import OperatorRequest, OpKind, ValueType, encode_int64
from fidstore.workload import (
    Distribution,
    Mode,
    WorkloadSpec,
    flatten_schedule,
    generate_workload,
)
from fidstore.zone_sim import (
    CrashPoint,
    CrashPointId,
    CrashTarget,
    InvariantReport,
    ZoneTopology,
    trace_indistinguishability,
)

from .oracles import ShadowRunner

SCHEMA = [
    Column("id", ColumnType.PLAIN_INT),
    Column("k", ColumnType.SENSITIVE_INT),
]


def _small_spec(**kw):
    defaults = dict(mode=Mode.READ_WRITE, tables=2, rows_per_table=30,
                    duration_ops=40, threads_simulated=2, batch_size=16,
                    abort_ratio=0.1)
    defaults.update(kw)
    return WorkloadSpec(**defaults)


def test_same_seed_identical_trace_and_state():
    spec = _small_spec()
    t1 = ZoneTopology(11, batch_size=spec.batch_size)
    r1 = t1.run_workload(spec)
    t2 = ZoneTopology(11, batch_size=spec.batch_size)
    r2 = t2.run_workload(spec)
    assert t1.trace.events == t2.trace.events
    assert r1.revealed == r2.revealed
    assert t1.store_wal_buffer.durable == t2.store_wal_buffer.durable
    assert t1.dbwal_buffer.durable == t2.dbwal_buffer.durable
    for name in t1.priv_snapshots.names():
        assert t1.priv_snapshots.get(name) == t2.priv_snapshots.get(name)


def test_different_seeds_differ():
    spec = _small_spec()
    t1 = ZoneTopology(1, batch_size=spec.batch_size)
    t1.run_workload(spec)
    t2 = ZoneTopology(2, batch_size=spec.batch_size)
    t2.run_workload(spec)
    assert t1.trace.events != t2.trace.events


def test_batch_round_trip_accounting():
    topo = ZoneTopology(5)
    proxy = topo.privacy.proxy
    pid = proxy.query_temp(1)
    fids = [topo.privacy.store.put(pid, encode_int64(i)) for i in range(64)]
    reqs = [OperatorRequest(OpKind.ADD, ValueType.INT64,
                            [fids[i % 64], fids[(i * 7) % 64]])
            for i in range(512)]
    before = topo.channel.round_trips
    out = topo.client.exec_batch(1, reqs, 256)
    assert topo.channel.round_trips - before == 2  # ceil(512/256)
    assert len(out) == 512
    before = topo.channel.round_trips
    assert topo.client.exec_batch(1, [], 256) == []
    assert topo.channel.round_trips == before  # empty batch: zero trips


def test_crash_privacy_mid_query_aborts_txn():
    topo = ZoneTopology(9)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    fid = topo.client.ingest(txn.query_id, topo.client_encrypt(encode_int64(4)))
    db.insert_row(txn, table, [1, fid])
    topo.inject_crash(CrashPoint(CrashPointId.RANDOM_BYTE, CrashTarget.PRIVACY,
                                 at_occurrence=0))
    with pytest.raises(Unavailable):
        db.commit(txn)
    assert txn.state.name == "ABORTED"
    report = topo.recover_all()
    assert report.integrity_stalled
    assert not report.parallel_replays
    assert report.invariant.holds


def test_crash_both_after_db_commit_preserves_txn():
    topo = ZoneTopology(10)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    fid = topo.client.ingest(setup.query_id, topo.client_encrypt(encode_int64(41)))
    db.insert_row(setup, table, [1, fid])
    db.commit(setup)

    topo.inject_crash(CrashPoint(CrashPointId.AFTER_DB_COMMIT, CrashTarget.BOTH))
    txn = db.begin()
    fid = topo.client.ingest(txn.query_id, topo.client_encrypt(encode_int64(42)))
    db.insert_row(txn, table, [2, fid])
    from fidstore.zone_sim import ZoneCrashed
    with pytest.raises(ZoneCrashed):
        db.commit(txn)
    report = topo.recover_all()
    assert report.parallel_replays
    assert report.invariant.holds
    db = topo.integrity.db
    table = db.tables["t"]
    reader = db.begin()
    assert db.visible_version(table, 1, reader) is not None
    assert db.visible_version(table, 2, reader) is not None  # commit completed
    db.abort(reader)


def test_crash_before_privacy_flush_absent_everywhere():
    topo = ZoneTopology(12)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    topo.inject_crash(CrashPoint(CrashPointId.BEFORE_PRIVACY_FLUSH,
                                 CrashTarget.BOTH))
    txn = db.begin()
    fid = topo.client.ingest(txn.query_id, topo.client_encrypt(encode_int64(7)))
    db.insert_row(txn, table, [1, fid])
    from fidstore.zone_sim import ZoneCrashed
    with pytest.raises(ZoneCrashed):
        db.commit(txn)
    report = topo.recover_all()
    assert report.invariant.holds
    assert report.invariant.orphans == 0  # nothing reached either journal
    db = topo.integrity.db
    reader = db.begin()
    assert db.visible_version(db.tables["t"], 1, reader) is None
    db.abort(reader)


def test_orphans_after_commit_gap_crash_then_gc():
    topo = ZoneTopology(13)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    topo.inject_crash(CrashPoint(
        CrashPointId.AFTER_PRIVACY_FLUSH_BEFORE_DB_COMMIT, CrashTarget.BOTH))
    txn = db.begin()
    fid = topo.client.ingest(txn.query_id, topo.client_encrypt(encode_int64(7)))
    db.insert_row(txn, table, [1, fid])
    put_count = len(txn.promoted)
    from fidstore.zone_sim import ZoneCrashed
    with pytest.raises(ZoneCrashed):
        db.commit(txn)
    report = topo.recover_all()
    assert report.invariant.holds
    assert report.invariant.orphans == put_count == 1
    assert topo.integrity.db.orphan_gc() == 1
    assert topo.check_invariant().orphans == 0


def test_recover_without_crash_raises():
    topo = ZoneTopology(14)
    with pytest.raises(NoCrashPending):
        topo.recover_all()


def test_invariant_detector_self_test():
    topo = ZoneTopology(15)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    fid = topo.client.ingest(txn.query_id, topo.client_encrypt(encode_int64(3)))
    db.insert_row(txn, table, [1, fid])
    db.commit(txn)
    assert topo.check_invariant().holds
    # test hook: delete a referenced secret behind the engine's back
    version = db.tables["t"].rows[1][-1]
    topo.privacy.store.delete(version.cells[1])
    report = topo.check_invariant()
    assert not report.holds
    assert version.cells[1] in report.violations


def test_trace_indistinguishability_same_shape():
    base = _small_spec(abort_ratio=0.0)
    for seed in (21, 22, 23):
        a = WorkloadSpec(**{**vars(base), "value_seed": 1111})
        b = WorkloadSpec(**{**vars(base), "value_seed": 2222})
        assert trace_indistinguishability(a, b, seed)


def test_structure_mismatch_detected():
    a = _small_spec(rows_per_table=30)
    b = _small_spec(rows_per_table=31)
    with pytest.raises(StructureMismatch):
        trace_indistinguishability(a, b, 5)


def test_comparison_outcome_flip_breaks_indistinguishability():
    """Two runs identical except one row value crossing a predicate
    threshold: the CmpBool event differs, everything else matches."""

    def run(value):
        topo = ZoneTopology(33)
        db = topo.integrity.db
        table = db.create_table("t", list(SCHEMA))
        txn = db.begin()
        fid = topo.client.ingest(txn.query_id,
                                 topo.client_encrypt(encode_int64(value)))
        db.insert_row(txn, table, [1, fid])
        db.commit(txn)
        query = db.begin()
        const = topo.client.ingest(query.query_id,
                                   topo.client_encrypt(encode_int64(10)))
        rows = db.select(query, table, Predicate("k", OpKind.CMP_GT, const))
        db.abort(query)
        return topo.trace.events, len(rows)

    trace_low, n_low = run(5)
    trace_high, n_high = run(15)
    assert (n_low, n_high) == (0, 1)
    assert trace_low != trace_high
    diffs = [(a, b) for a, b in zip(trace_low, trace_high) if a != b]
    assert ("CmpBool", 0) in [d[0] for d in diffs]
    assert ("CmpBool", 1) in [d[1] for d in diffs]


def test_plaintext_never_crosses_the_boundary():
    """Sentinel secrets must not appear in any cross-zone message, in
    untrusted sealed storage, in the integrity zone's durable state, or in
    the trace. (Privacy-zone files are excluded: they model storage behind
    transparent disk encryption.)"""
    sentinel = bytes(range(16, 32))
    topo = ZoneTopology(44, cache_capacity_blocks=1)
    captured = []
    original = topo.channel.request

    def spy(raw):
        captured.append(raw)
        response = original(raw)
        captured.append(response)
        return response

    topo.channel.request = spy
    db = topo.integrity.db
    table = db.create_table("t", [Column("id", ColumnType.PLAIN_INT),
                                  Column("c", ColumnType.SENSITIVE_BYTES)])
    txn = db.begin()
    for i in range(40):
        fid = topo.client.ingest(txn.query_id, topo.client_encrypt(sentinel))
        db.insert_row(txn, table, [i, fid])
    db.commit(txn)
    topo.privacy.atrest.flush_dirty()  # force sealed writes to untrusted area

    blobs = list(captured)
    blobs.append(topo.dbwal_buffer.durable)
    for name in topo.db_snapshots.names():
        blobs.append(topo.db_snapshots.get(name))
    for (pid, _), sealed in topo.sealed_store.blocks.items():
        blobs.append(sealed.to_bytes())
    blobs.append(topo.trace.dump_jsonl().encode())
    for blob in blobs:
        assert sentinel not in blob
    # the secret genuinely lives in the privacy zone
    version = db.tables["t"].rows[1][-1]
    assert topo.privacy.store.get(version.cells[1]) == sentinel


def test_trace_vocabulary_is_exactly_the_leakage_list():
    spec = _small_spec(mode=Mode.RANGE_SELECT)
    topo = ZoneTopology(55, batch_size=spec.batch_size,
                        cache_capacity_blocks=2)
    topo.run_workload(spec)
    kinds = {k for k, _ in topo.trace.events}
    allowed = {"FidObserved", "BlockRead", "BlockWrite", "MsgBytes",
               "ResultSize", "CmpBool", "OpKindObserved"}
    assert kinds <= allowed
    assert "MsgBytes" in kinds and "FidObserved" in kinds


def test_trace_jsonl_dump_parses():
    topo = ZoneTopology(66)
    topo.run_workload(_small_spec(duration_ops=5, tables=1, rows_per_table=5))
    lines = topo.trace.dump_jsonl().splitlines()
    assert lines
    for i, line in enumerate(lines[:50]):
        doc = json.loads(line)
        assert doc["t"] == i
        assert isinstance(doc["kind"], str)


@pytest.mark.parametrize("mode", list(Mode))
def test_all_modes_run_clean(mode):
    spec = _small_spec(mode=mode, duration_ops=25, abort_ratio=0.05)
    topo = ZoneTopology(77, batch_size=spec.batch_size,
                        cache_capacity_blocks=64)
    report = topo.run_workload(spec)
    assert report.crashed_at is None
    assert report.invariant_holds
    assert report.violations == 0
    assert report.ops_completed > 0


def test_zipfian_distribution_skews_access():
    spec = _small_spec(mode=Mode.POINT_SELECT, distribution=Distribution.ZIPFIAN,
                       theta=0.8, duration_ops=200, rows_per_table=100,
                       abort_ratio=0.0)
    topo = ZoneTopology(88, batch_size=spec.batch_size)
    report = topo.run_workload(spec)
    keys = [r[2] for r in report.revealed]
    from collections import Counter
    top = Counter(keys).most_common(5)
    assert top[0][1] >= 5  # a hot key emerges under theta=0.8


_PINNED = {
    # message kind -> count through the maintenance phase, (privacy WAL,
    # integrity WAL) durable bytes, (seals, opens)
    "fid": ({m.MSG_INGEST: 160, m.MSG_REVEAL: 89, m.MSG_EXEC_BATCH: 49,
             m.MSG_END_QUERY: 42, m.MSG_PROMOTE: 160, m.MSG_DELETE: 40,
             m.MSG_FLUSH_LOG: 41, m.MSG_CREATE_PARTITION: 2,
             m.MSG_LIST_LIVE: 2},
            (13682, 12740), (4, 2)),
    "cipher": ({m.MSG_END_QUERY: 42, m.MSG_FLUSH_LOG: 41,
                m.MSG_CREATE_PARTITION: 2, m.MSG_CIPHER_EXEC: 49,
                m.MSG_CIPHER_INGEST: 160, m.MSG_CIPHER_REVEAL: 89},
               (54, 30440), (0, 0)),
}


@pytest.mark.parametrize("backend", sorted(_PINNED))
def test_pinned_counts_through_maintenance(backend):
    """Exact per-kind traffic, durable WAL bytes, seals/opens and revealed
    values for one small seed, all taken when the invariant check starts."""
    spec = _small_spec()
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=2)
    kinds = Counter()
    seen = {}
    request, check = topo.channel.request, topo.check_invariant

    def counting_request(raw):
        kinds[raw[0]] += 1
        return request(raw)

    def snapshot_then_check():
        sealer = topo.privacy.atrest.sealer
        seen.setdefault("at_check", (
            dict(kinds),
            (topo.store_wal_buffer.durable_len, topo.dbwal_buffer.durable_len),
            (sealer.seals, sealer.opens)))
        return check()

    topo.channel.request = counting_request
    topo.check_invariant = snapshot_then_check
    program = generate_workload(spec, 3)
    report = topo.run_program(program)
    assert seen["at_check"] == _PINNED[backend]
    expected = ShadowRunner(program, flatten_schedule(program)).run().revealed
    assert report.revealed == expected
    assert len(expected) == 89
    assert sum(r[3] for r in expected) == 33_106_490


def test_run_report_excludes_checker_traffic():
    """The invariant check talks to the privacy zone, but its messages are
    not workload traffic: a run whose check sends nothing reports the same
    round trips and bytes."""
    spec = _small_spec()
    checked = ZoneTopology(4, batch_size=spec.batch_size)
    check = checked.check_invariant
    check_trips = []

    def counted_check():
        before = checked.channel.round_trips
        result = check()
        check_trips.append(checked.channel.round_trips - before)
        return result

    checked.check_invariant = counted_check
    with_check = checked.run_workload(spec)
    silent = ZoneTopology(4, batch_size=spec.batch_size)
    silent.check_invariant = lambda: InvariantReport(True, [], 0, 0)
    without_check = silent.run_workload(spec)
    assert with_check.invariant_holds and check_trips[0] > 0
    assert (with_check.round_trips, with_check.msg_bytes) == \
        (without_check.round_trips, without_check.msg_bytes)
