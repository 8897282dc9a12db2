import gc
import hashlib
import inspect
import json
import struct
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fidstore import messages as m
from fidstore import zone_sim
from fidstore.bench import lost_values, restart_violations, row_states
from fidstore import wal
from fidstore.errors import (
    AuthFailure,
    NoCrashPending,
    Overflow,
    StructureMismatch,
    Unavailable,
    WriteConflict,
)
from fidstore.integrity_dbms import (
    CHECKPOINT_IMAGE,
    DB_COMMIT,
    Column,
    ColumnType,
    Database,
    Predicate,
)
from fidstore.privacy_proxy import (
    QUERY_TEMP_TARGET,
    ClientEnvelope,
    OperatorRequest,
    OpKind,
    ValueType,
    decode_int64,
    encode_int64,
)
from fidstore.workload import (
    ADD,
    INSERT,
    READ,
    SET,
    SUM,
    Distribution,
    Mode,
    TxnTemplate,
    WorkloadSpec,
    ZipfianSampler,
    flatten_schedule,
    generate_workload,
)
from fidstore.zone_sim import (
    AdversaryTrace,
    CrashTarget,
    ZoneCrashed,
    ZoneTopology,
    _Runner,
    pad_sensitive,
    trace_indistinguishability,
    unpad_sensitive,
)

from .crashes import commit_sync, crash_at
from .oracles import ShadowRunner
from .test_checkpoint import _permanent_mapping, _strip_checkpoint_events

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


def _ingest_int(topo, query_id, value, target=QUERY_TEMP_TARGET):
    """An int64 secret's FID, ingested alone in one MSG_INGEST."""
    envelope = topo.client_encrypt(encode_int64(value))
    (fid,) = topo.client.ingest(query_id, [envelope], 1, target)
    return fid


def _envelope(topo, value) -> ClientEnvelope:
    """An int64 secret as the client envelope a row write takes."""
    return ClientEnvelope.from_bytes(topo.client_encrypt(encode_int64(value)))


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


def test_file_backed_run_matches_the_in_memory_run(tmp_path, monkeypatch,
                                                  integrity_checkpoints):
    """With a data directory each zone mirrors its journal to a file and
    writes its snapshots under it; the run is the same as in memory, and
    the files hold exactly the in-memory run's durable bytes: after the run
    the quiesce checkpoints' images and empty journals, and after one more
    commit and a vacuum the journal records they synced: the engine's
    commit and removal, and the privacy zone's delete of the superseded
    ref."""
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", 4096)
    spec = _small_spec()
    on_disk = ZoneTopology(11, batch_size=spec.batch_size, cache_capacity_blocks=4,
                           data_dir=str(tmp_path))
    in_memory = ZoneTopology(11, batch_size=spec.batch_size, cache_capacity_blocks=4)
    disk_report = on_disk.run_workload(spec)
    memory_report = in_memory.run_workload(spec)
    assert on_disk.trace.events == in_memory.trace.events
    assert disk_report.revealed == memory_report.revealed
    assert disk_report.invariant_holds
    assert len(integrity_checkpoints) >= 4  # an interval and a quiesce one each
    for zone, snapshots in (("privacy", in_memory.priv_snapshots),
                            ("integrity", in_memory.db_snapshots)):
        names = snapshots.names()
        assert sorted(p.name for p in (tmp_path / zone).iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / zone / name).read_bytes() == snapshots.get(name)
    assert in_memory.db_snapshots.get(CHECKPOINT_IMAGE)
    for topo in (on_disk, in_memory):
        _commit_one_update(topo)
        assert topo.integrity.db.vacuum(topo.integrity.db.tables_by_idx[0]) == 1
    store_wal = (tmp_path / "store.wal").read_bytes()
    db_wal = (tmp_path / "db.wal").read_bytes()
    assert store_wal == in_memory.store_wal_buffer.durable != b""
    assert db_wal == in_memory.dbwal_buffer.durable != b""


def _commit_one_update(topo) -> None:
    """Commits a new secret for row 1's k in table 0."""
    db = topo.integrity.db
    table = db.tables_by_idx[0]
    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 5)})
    db.commit(txn)


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
    """A txn still active when the privacy zone restarts is aborted, since
    a secret it stored may be lost."""
    topo = ZoneTopology(9)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 4)])
    db.send_writes(txn)
    topo.privacy.crash()
    with pytest.raises(Unavailable):
        _ingest_int(topo, txn.query_id, 5)
    report = topo.recover_all()
    assert txn.state.name == "ABORTED"
    with pytest.raises(ValueError):
        db.commit(txn)
    assert report.integrity_stalled
    assert not report.parallel_replays
    assert report.invariant.holds


def test_crash_both_after_db_commit_preserves_txn():
    """A crash of both zones right after a commit's record is durable, the
    last write here, so a crash after the commit returns."""
    topo = ZoneTopology(10)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    db.insert_row(setup, table, [1, _envelope(topo, 41)])
    db.commit(setup)

    written = topo.record_writes()
    txn = db.begin()
    db.insert_row(txn, table, [2, _envelope(topo, 42)])
    db.commit(txn)
    assert [commit_sync(w) for w in written] == [True]
    topo.privacy.crash()
    topo.integrity.crash()
    report = topo.recover_all()
    assert report.parallel_replays
    assert report.invariant.holds
    db = topo.integrity.db
    table = db.tables["t"]
    reader = db.begin()
    assert db.visible_version(table, 1, reader) is not None
    assert db.visible_version(table, 2, reader) is not None  # commit completed
    db.abort(reader)


def test_crash_before_db_commit_absent_everywhere():
    topo = ZoneTopology(12)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    crash_at(topo, commit_sync)
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 7)])
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
    crash_at(topo, commit_sync)
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 7)])
    db.send_writes(txn)
    db.flush_privacy(checkpoint=True)  # the secret is durable, its row is not
    put_count = len(txn.promoted)
    with pytest.raises(ZoneCrashed):
        db.commit(txn)
    report = topo.recover_all()
    assert report.invariant.holds
    assert report.invariant.orphans == put_count == 1
    assert topo.integrity.db.orphan_gc() == 1
    assert topo.check_invariant().orphans == 0


def _write_row(topo, db, table, txn, key, value):
    db.insert_row(txn, table, [key, _envelope(topo, value)])


def _read_k(topo, key):
    db = topo.integrity.db
    reader = db.begin()
    version = db.visible_version(db.tables["t"], key, reader)
    db.abort(reader)
    if version is None:
        return None
    return decode_int64(topo.client_decrypt(
        topo.client.reveal(reader.query_id, version.cells[1])))


def test_a_fid_commit_sends_no_message():
    """Once its writes are sent, a fid commit syncs only the integrity
    journal, which holds each fresh secret's recipe, and sends nothing more
    to the privacy zone: its one durable write is its DB_COMMIT's sync.
    When both zones crash before any flush, recovery restores every
    committed secret from its recipe."""
    topo = ZoneTopology(16)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    t1, t2 = db.begin(), db.begin()
    _write_row(topo, db, table, t1, 1, 10)
    _write_row(topo, db, table, t2, 2, 20)
    t3 = db.begin()
    _write_row(topo, db, table, t3, 3, 30)
    for txn in (t1, t2, t3):
        db.send_writes(txn)
    trips, privacy_durable = topo.channel.round_trips, topo.store_wal_buffer.durable
    written = topo.record_writes()
    for txn in (t1, t2, t3):
        db.commit(txn)
    assert topo.channel.round_trips == trips
    assert topo.store_wal_buffer.durable == privacy_durable
    assert len(db.recipes) == 3
    assert [commit_sync(w) for w in written] == [True] * 3
    topo.privacy.crash()
    topo.integrity.crash()
    kinds = _count_kinds(topo)
    report = topo.recover_all()
    assert kinds[m.MSG_RESTORE] == 1 and kinds[m.MSG_FLUSH_LOG] == 1
    assert report.invariant.holds and report.invariant.orphans == 0
    assert [_read_k(topo, key) for key in (1, 2, 3)] == [10, 20, 30]


def test_cipher_commit_sends_nothing():
    """The cipher baseline's envelopes live in its rows, so once its writes
    are sent its commit never waits on the privacy zone's journal."""
    topo = ZoneTopology(17, backend="cipher")
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 5)])
    db.send_writes(txn)
    trips, durable = topo.channel.round_trips, topo.store_wal_buffer.durable_len
    written = topo.record_writes()
    db.commit(txn)
    assert topo.channel.round_trips == trips
    assert topo.store_wal_buffer.durable_len == durable
    assert [commit_sync(w) for w in written] == [True]
    topo.integrity.crash()
    topo.recover_all()
    reader = topo.integrity.db.begin()
    version = topo.integrity.db.visible_version(
        topo.integrity.db.tables["t"], 1, reader)
    assert decode_int64(topo.client_decrypt(
        topo.client.cipher_reveal(reader.query_id, version.cells[1]))) == 5


def _covered_commit_crash(target):
    """T1 and T2 write, T1 commits, T2 sends its writes, then a crash of
    target just before T2's commit record is synced; returns the topology,
    T2, whether T2's commit raised and the round trips T2's commit sent."""
    topo = ZoneTopology(18)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    t1, t2 = db.begin(), db.begin()
    _write_row(topo, db, table, t1, 1, 10)
    _write_row(topo, db, table, t2, 2, 20)
    db.commit(t1)
    db.send_writes(t2)
    crash_at(topo, commit_sync, target=target)
    trips = topo.channel.round_trips
    try:
        db.commit(t2)
        raised = False
    except ZoneCrashed:
        raised = True
    assert topo.fired is not None
    return topo, t2, raised, topo.channel.round_trips - trips


def test_crash_before_a_covered_commit():
    """A crash just before a commit's record is synced, in a commit, which
    sends no flush. A crash of both zones there loses T2 and every secret written since the last
    checkpoint; recovery restores T1's from its recipe, and T2's, never
    sealed, is no orphan. A crash of the privacy zone alone cannot stop T2,
    whose commit needs nothing from it: recovery restores both txns'
    secrets."""
    topo, t2, raised, trips = _covered_commit_crash(CrashTarget.BOTH)
    assert raised and trips == 0
    report = topo.recover_all()
    assert report.invariant.holds
    assert report.invariant.orphans == 0
    assert (_read_k(topo, 1), _read_k(topo, 2)) == (10, None)

    topo, t2, raised, trips = _covered_commit_crash(CrashTarget.PRIVACY)
    assert not raised and trips == 0
    assert t2.state.name == "COMMITTED"
    report = topo.recover_all()
    assert report.invariant.holds and report.invariant.orphans == 0
    assert (_read_k(topo, 1), _read_k(topo, 2)) == (10, 20)


def test_privacy_restart_aborts_txns_holding_refs():
    """A privacy-only crash loses T's unflushed secret, so once the privacy
    zone is back T cannot commit it; a txn whose insert is still pending
    stored nothing and commits."""
    topo = ZoneTopology(19)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn, other = db.begin(), db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    db.send_writes(txn)
    _write_row(topo, db, table, other, 2, 3)
    topo.privacy.crash()
    topo.recover_all()
    assert txn.state.name == "ABORTED"
    with pytest.raises(ValueError):
        db.commit(txn)
    db.commit(other)
    report = topo.check_invariant()
    assert report.holds and report.orphans == 0
    assert (_read_k(topo, 1), _read_k(topo, 2)) == (None, 3)


def test_privacy_restart_forgets_abort_garbage():
    """An aborted txn's secret lost in a privacy crash frees its slot for
    the next write; vacuum must not release that slot's new secret."""
    topo = ZoneTopology(5)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    aborted = db.begin()
    _write_row(topo, db, table, aborted, 1, 10)
    db.send_writes(aborted)
    (lost,) = aborted.promoted
    db.abort(aborted)
    topo.privacy.crash()
    topo.recover_all()
    txn = db.begin()
    _write_row(topo, db, table, txn, 2, 20)
    db.send_writes(txn)
    assert txn.promoted == [lost]  # recovery handed the lost slot out again
    db.commit(txn)
    assert db.vacuum(table) == 0
    assert topo.check_invariant().holds
    assert _read_k(topo, 2) == 20


def test_integrity_crash_after_vacuums_deletes_are_durable():
    """Once vacuum's deletes are durable, its removals are too: a recovered
    engine never releases a freed slot again after a new secret took it."""
    topo = ZoneTopology(20)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    db.commit(txn)
    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 11)})
    db.commit(txn)
    flush = topo.client.flush_log
    flushes = []
    from fidstore.zone_sim import ZoneCrashed

    def flush_then_crash(checkpoint=False):
        flush(checkpoint)
        flushes.append(checkpoint)
        if len(flushes) == 2:  # the first makes the recipes' secrets durable
            topo.integrity.crash()
            raise ZoneCrashed("after vacuum's flush")

    topo.client.flush_log = flush_then_crash
    with pytest.raises(ZoneCrashed):
        db.vacuum(table)
    topo.client.flush_log = flush
    assert topo.recover_all().invariant.holds
    db = topo.integrity.db
    table = db.tables["t"]
    txn = db.begin()
    _write_row(topo, db, table, txn, 2, 20)  # takes the slot vacuum freed
    db.commit(txn)
    db.vacuum(table)
    assert topo.check_invariant().holds
    assert (_read_k(topo, 1), _read_k(topo, 2)) == (11, 20)


def _add_one(topo, db, table, txn, key):
    """Updates row key's k to k + 1 and sends the txn's writes, this ADD's
    in one operator message, the result written fresh to the table's
    partition; returns the new FID."""
    version = db.visible_version(table, key, txn)
    db.update_row(txn, table, key, {"k": OperatorRequest(
        OpKind.ADD, ValueType.INT64, [version.cells[1]], table.partition_id,
        topo.client_encrypt(encode_int64(1)))})
    db.send_writes(txn)
    return db.visible_version(table, key, txn).cells[1]


@pytest.mark.parametrize("target", [CrashTarget.PRIVACY, CrashTarget.BOTH],
                         ids=lambda t: t.value)
def test_a_reused_slot_is_restored_from_its_newest_recipe(target):
    """Vacuum frees FID X; a later update reuses X, commits and is never
    flushed, then the privacy zone (or both zones) crashes. Recovery
    restores X from the newest of its recipes, an operator element over a
    FID W written in the same txn, not from the ingest that first wrote X,
    and restores W first, though X's first recipe is older than W's."""
    topo = ZoneTopology(21)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    _write_row(topo, db, table, txn, 2, 20)
    db.commit(txn)
    x = txn.promoted[0]
    txn = db.begin()
    _add_one(topo, db, table, txn, 1)
    _add_one(topo, db, table, txn, 2)
    db.commit(txn)
    assert db.vacuum(table) == 2  # releases X and row 2's first secret
    txn = db.begin()
    _write_row(topo, db, table, txn, 3, 30)
    assert _add_one(topo, db, table, txn, 3) == x
    db.commit(txn)
    w = txn.promoted[0]
    assert list(db.recipes) == [w, x]
    topo.privacy.crash()
    if target == CrashTarget.BOTH:
        topo.integrity.crash()
    report = topo.recover_all()
    assert report.invariant.holds and report.invariant.orphans == 0
    assert [_read_k(topo, key) for key in (1, 2, 3)] == [11, 21, 31]
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert [_read_k(topo, key) for key in (1, 2, 3)] == [11, 21, 31]


def test_recovery_restores_only_fids_a_row_version_holds():
    """A's ingest is in the engine's image, B = A + 1 and C = B + 1 are in
    its journal, and vacuum released A and B. After a crash of both
    zones recovery keeps C's recipe alone: no recovered version holds B,
    whose recipe reads A, which has no recipe left. C is durable, so it is
    skipped, and nothing is restored that no row holds."""
    topo = ZoneTopology(25)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    db.commit(txn)
    db.checkpoint()
    for _ in range(2):
        txn = db.begin()
        c = _add_one(topo, db, table, txn, 1)
        db.commit(txn)
    assert db.vacuum(table) == 2
    topo.privacy.crash()
    topo.integrity.crash()
    restored = []
    restore = topo.client.restore

    def recorded(items, batch_size):
        restored.extend(fid for fid, _ in items)
        return restore(items, batch_size)

    topo.client.restore = recorded
    report = topo.recover_all()
    assert restored == [c]
    assert report.invariant.holds and report.invariant.orphans == 0
    assert _read_k(topo, 1) == 12


def test_a_crash_inside_vacuum_leaves_each_kept_recipe_its_operands():
    """Y's recipe reads X, and vacuum removes the version holding X. Both
    zones crash after vacuum's removals are durable and its deletes sent,
    before its closing flush. Recovery drops X's recipe, since no version
    holds X, but vacuum's first flush made X and Y durable, so Y's recipe
    is skipped and X is only an orphan."""
    topo = ZoneTopology(22)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    db.commit(txn)
    txn = db.begin()
    _add_one(topo, db, table, txn, 1)
    db.commit(txn)
    delete = topo.client.delete
    from fidstore.zone_sim import ZoneCrashed

    def delete_then_crash(fids, batch_size):
        delete(fids, batch_size)
        topo.privacy.crash()
        topo.integrity.crash()
        raise ZoneCrashed("before vacuum's closing flush")

    topo.client.delete = delete_then_crash
    with pytest.raises(ZoneCrashed):
        db.vacuum(table)
    topo.client.delete = delete
    report = topo.recover_all()
    assert report.invariant.holds and report.invariant.orphans == 1
    assert _read_k(topo, 1) == 11
    assert topo.integrity.db.orphan_gc() == 1


def test_a_commit_during_a_privacy_outage_is_restored():
    """Once its writes are sent, a commit needs nothing from the privacy
    zone, so a txn whose secret the privacy zone lost in a crash still
    commits while the zone is down; recovery writes the secret back from
    its recipe before any other request."""
    topo = ZoneTopology(23)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _write_row(topo, db, table, txn, 1, 10)
    db.send_writes(txn)
    topo.privacy.crash()
    db.commit(txn)
    assert txn.state.name == "COMMITTED"
    kinds = _count_kinds(topo)
    sent = []
    request = topo.channel.request

    def recorded(raw):
        sent.append(raw[0])
        return request(raw)

    topo.channel.request = recorded
    report = topo.recover_all()
    assert sent[:2] == [m.MSG_RESTORE, m.MSG_FLUSH_LOG]
    assert kinds[m.MSG_RESTORE] == 1
    assert report.invariant.holds and report.invariant.orphans == 0
    assert _read_k(topo, 1) == 10



@pytest.mark.parametrize("source", ["ingest", "operator"])
def test_a_recipe_is_journaled_only_if_its_operand_comes_back_first(source):
    """A txn writes A = 10 into row 1, then B = A + 1 over it, and commits;
    A is an inserted envelope, or a committed 9 plus one. The ADD reaches
    the txn's own placeholder, so A is sent and claimed before B is, and
    B's recipe, whose one operand is A, is journaled after A's, with no
    flush. A privacy crash loses both, and restore re-runs the recipes in
    that claim order, so every committed version comes back."""
    topo = ZoneTopology(26)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    first = []
    if source == "operator":
        txn = db.begin()
        _write_row(topo, db, table, txn, 1, 9)
        db.commit(txn)
        first = [txn.promoted[0]]
    txn = db.begin()
    if source == "operator":
        _add_one(topo, db, table, txn, 1)
    else:
        _write_row(topo, db, table, txn, 1, 10)
    b = _add_one(topo, db, table, txn, 1)
    a = table.rows[1][-2].cells[1]
    kinds = _count_kinds(topo)
    db.commit(txn)
    assert kinds[m.MSG_FLUSH_LOG] == 0
    assert list(db.recipes) == first + [a, b]
    topo.privacy.crash()
    report = topo.recover_all()
    assert report.invariant.holds and report.invariant.orphans == 0
    assert _read_k(topo, 1) == 11
    store = topo.privacy.store
    assert [decode_int64(store.peek(f)) for f in (a, b)] == [10, 11]


def test_no_client_envelope_outlives_maintenance(monkeypatch):
    """Between checkpoints the integrity journal holds the client envelopes
    of fresh secrets' recipes; once maintenance ends in both zones'
    quiesce checkpoints, no envelope the run sent is in either journal, in
    any snapshot or in a sealed block."""
    spec = _small_spec(mode=Mode.WRITE_ONLY, duration_ops=60)
    topo = ZoneTopology(24, batch_size=spec.batch_size, cache_capacity_blocks=2)
    sent = []
    codec = topo._client_codec
    encrypt = codec.encrypt

    def recorded(plaintext):
        envelope = encrypt(plaintext)
        sent.append(envelope.to_bytes())
        return envelope

    codec.encrypt = recorded
    journals = []
    vacuum = Database.vacuum

    def journal_then_vacuum(db, table):
        journals.append(db.dbwal.durable)
        return vacuum(db, table)

    monkeypatch.setattr(Database, "vacuum", journal_then_vacuum)
    report = topo.run_workload(spec)
    assert report.invariant_holds and len(sent) > 100
    assert any(e in journals[0] for e in sent)
    durable = [topo.store_wal_buffer.durable, topo.dbwal_buffer.durable,
               *(b.to_bytes() for b in topo.sealed_store.blocks.values())]
    for snapshots in (topo.priv_snapshots, topo.db_snapshots):
        durable.extend(snapshots.get(name) for name in snapshots.names())
    assert not any(e in blob for e in sent for blob in durable)


def test_recover_without_crash_raises():
    topo = ZoneTopology(14)
    with pytest.raises(NoCrashPending):
        topo.recover_all()


def test_invariant_detector_self_test():
    topo = ZoneTopology(15)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 3)])
    db.commit(txn)
    assert topo.check_invariant().holds
    # test hook: delete a referenced secret behind the engine's back
    version = db.tables["t"].rows[1][-1]
    topo.privacy.store.delete(version.cells[1])
    report = topo.check_invariant()
    assert not report.holds
    assert version.cells[1] in report.violations


@pytest.mark.parametrize("cache", [None, 4], ids=["unbounded", "cache4"])
@pytest.mark.parametrize("mode", [Mode.RANGE_SELECT, Mode.READ_ONLY,
                                  Mode.READ_WRITE, Mode.WRITE_ONLY,
                                  Mode.INSERT_ONLY], ids=lambda m: m.value)
def test_trace_indistinguishability_same_shape(mode, cache):
    base = _small_spec(mode=mode, rows_per_table=300, duration_ops=200,
                       abort_ratio=0.0)
    for seed in (21, 22, 23):
        a = generate_workload(replace(base, value_seed=1111), seed)
        b = generate_workload(replace(base, value_seed=2222), seed)
        assert trace_indistinguishability(a, b, seed, cache_capacity_blocks=cache)


@pytest.mark.parametrize("cache", [None, 4], ids=["unbounded", "cache4"])
def test_vacuum_deletes_in_ascending_fid_order(cache):
    """Each vacuum call's MSG_DELETE payloads, in send order, name strictly
    ascending FIDs, so its deletes walk the partition's blocks in address
    order. FIDs follow allocation order, not values, so the order leaks
    nothing: test_trace_indistinguishability_same_shape covers the write
    modes with a cold cache."""
    spec = _small_spec(mode=Mode.WRITE_ONLY, rows_per_table=300, duration_ops=200,
                       abort_ratio=0.0)
    topo = ZoneTopology(3, batch_size=spec.batch_size, cache_capacity_blocks=cache)
    db = topo.integrity.db
    per_vacuum = []
    state = {"in_vacuum": False}
    request = topo.channel.request

    def recording(raw):
        if raw[0] == m.MSG_DELETE and state["in_vacuum"]:
            per_vacuum[-1].extend(
                fid for (fid,) in struct.iter_unpack("<Q", raw[1:]))
        return request(raw)

    vacuum = db.vacuum

    def tracked(table):
        per_vacuum.append([])
        state["in_vacuum"] = True
        try:
            return vacuum(table)
        finally:
            state["in_vacuum"] = False

    topo.channel.request = recording
    db.vacuum = tracked
    assert topo.run_program(generate_workload(spec, 3)).invariant_holds
    assert len(per_vacuum) == spec.tables
    for fids in per_vacuum:
        assert len(fids) > 2 * spec.batch_size  # spans several messages
        assert fids == sorted(set(fids))


def _count_kinds(topo) -> Counter:
    """Counts the messages the channel carries from now on, per kind."""
    kinds = Counter()
    request = topo.channel.request

    def counting_request(raw):
        kinds[raw[0]] += 1
        return request(raw)

    topo.channel.request = counting_request
    return kinds


@pytest.mark.parametrize("mode", [Mode.READ_WRITE, Mode.WRITE_ONLY,
                                  Mode.INSERT_ONLY], ids=lambda m: m.value)
def test_runner_write_path_sends_no_promote(mode):
    """Preload, inserts and updates write each stored secret straight into
    its table's partition."""
    spec = _small_spec(mode=mode)
    topo = ZoneTopology(3, batch_size=spec.batch_size)
    kinds = _count_kinds(topo)
    report = topo.run_workload(spec)
    assert report.invariant_holds and report.ops_completed > 0
    assert kinds[m.MSG_INGEST] > 0
    assert kinds[m.MSG_PROMOTE] == 0


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("statement", [(ADD, 0, "k", 1, 5),
                                       (SET, 0, "c", 1, b"new-c")],
                         ids=["update_add", "update_bytes"])
def test_conflicting_update_writes_nothing(statement, backend):
    """An update that loses first-updater-wins raises before it sends any
    message, so it leaves no secret in the table's partition."""
    spec = _small_spec(tables=1, rows_per_table=4, duration_ops=0)
    topo = ZoneTopology(6, backend=backend, batch_size=spec.batch_size)
    runner = _Runner(topo, generate_workload(spec, 6))
    db = topo.integrity.db
    tables = runner._preload(db)
    first, second = db.begin(), db.begin()
    runner._execute(db, tables, first, statement)
    store, pid = topo.privacy.store, tables[0].partition_id
    live, trips = store.live_fids(pid), topo.channel.round_trips
    with pytest.raises(WriteConflict):
        runner._execute(db, tables, second, statement)
    assert topo.channel.round_trips == trips
    assert store.live_fids(pid) == live


# A txn holds its writes until it commits (integrity_dbms): the tests below
# run statements as the runner does, on one table of six rows.
_EXEC_KIND = {"fid": m.MSG_EXEC_BATCH, "cipher": m.MSG_CIPHER_EXEC}
_INGEST_KIND = {"fid": m.MSG_INGEST, "cipher": m.MSG_CIPHER_INGEST}
# a row the tests below insert into the six: id 7, k, c and pad
_ROW_7 = (7, 70, b"seven", b"sb-pad")


def _six_rows(backend, txns=()):
    """A topology and its runner over a one-table program of six rows and
    the given TxnTemplates, run by one client."""
    spec = _small_spec(tables=1, rows_per_table=6, duration_ops=0,
                       threads_simulated=1)
    program = generate_workload(spec, 8)
    program.txns = list(txns)
    topo = ZoneTopology(8, backend=backend, batch_size=spec.batch_size)
    return topo, _Runner(topo, program)


def _rows_after(program, writes) -> dict:
    """Row id -> (k, c) of the program's preload after the (ADD, SET or
    INSERT) statements, in order; an inserted row's id is its first
    value."""
    rows = {row[0]: (row[1], row[2]) for row in program.tables[0].rows}
    for kind, _, *rest in writes:
        if kind == INSERT:
            rows[rest[0][0]] = rest[0][1:3]
            continue
        _, key, value = rest
        k, c = rows[key]
        rows[key] = (k + value, c) if kind == ADD else (k, value)
    return rows


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_write_only_txn_crosses_once_at_its_commit(backend):
    """A txn's writes send nothing until its commit sends them all: its
    updates in one operator message, its insert's envelopes in one ingest.
    An aborted txn, inserts too, and one that loses a write conflict send
    nothing at all and store nothing."""
    topo, runner = _six_rows(backend)
    db = topo.integrity.db
    tables = runner._preload(db)
    kinds = _count_kinds(topo)
    writes = [(ADD, 0, "k", 1, 5), (INSERT, 0, _ROW_7), (SET, 0, "c", 2, b"new-c"),
              (ADD, 0, "k", 3, -4)]
    txn = db.begin()
    for statement in writes:
        runner._execute(db, tables, txn, statement)
    assert not kinds
    runner._seal(db, txn)
    db.commit(txn)
    sent = Counter({_EXEC_KIND[backend]: 1, _INGEST_KIND[backend]: 1})
    assert kinds == sent
    live = _permanent_mapping(topo)
    aborted = db.begin()
    for statement in writes[:2] + [(INSERT, 0, (8,) + _ROW_7[1:])]:
        runner._execute(db, tables, aborted, statement)
    runner._abort(db, aborted)
    first, second = db.begin(), db.begin()
    runner._execute(db, tables, first, (ADD, 0, "k", 4, 1))
    with pytest.raises(WriteConflict):
        runner._execute(db, tables, second, (ADD, 0, "k", 4, 2))
    runner._abort(db, second)
    assert kinds == sent and _permanent_mapping(topo) == live
    runner._seal(db, first)
    db.commit(first)
    assert kinds == sent + Counter({_EXEC_KIND[backend]: 1})
    assert topo.check_invariant().holds
    expected = _rows_after(runner.program, writes + [(ADD, 0, "k", 4, 1)])
    assert _visible_rows(topo) == [expected]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_txn_reads_back_what_it_wrote(backend):
    """A READ or SUM of a row the txn wrote or inserted, or a second write
    to it, sends the txn's writes first and sees the new value; a statement
    over rows the txn did not write sends none of them."""
    statements = [(INSERT, 0, _ROW_7), (READ, 0, "k", 7), (SUM, 0, "k", 5, 8),
                  (ADD, 0, "k", 1, 5), (READ, 0, "k", 2), (SUM, 0, "k", 1, 4),
                  (READ, 0, "k", 1), (SET, 0, "c", 2, b"set"), (ADD, 0, "k", 2, 3)]
    topo, runner = _six_rows(backend, [TxnTemplate(statements, False)])
    sent = []
    request, preload = topo.channel.request, runner._preload

    def recorded(raw):
        sent.append(raw[0])
        return request(raw)

    def preload_then_record(db):
        tables = preload(db)
        topo.channel.request = recorded
        return tables

    runner._preload = preload_then_record
    report = runner.run()
    program = runner.program
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    assert report.revealed == shadow.revealed
    k = {row[0]: row[1] for row in program.tables[0].rows}
    assert [r[3] for r in report.revealed] == [
        70, k[5] + k[6] + 70, k[2], k[1] + 5 + k[2] + k[3], k[1] + 5]
    exec_ = _EXEC_KIND[backend]
    # the READ of row 7 sends its insert, then its reveal crosses; the SUM
    # crosses; the READ of row 2 sends no write; the SUM reaches row 1's and
    # sends it; the ADD to row 2 reaches the SET's; the commit sends the
    # ADD; then maintenance flushes
    assert sent[:10] == [_INGEST_KIND[backend]] + [exec_] * 8 + [m.MSG_FLUSH_LOG]
    assert _visible_rows(topo) == [{row_id: (cells[1], cells[2]) for row_id, cells
                                    in shadow.db.quiescent_rows(0).items()}]


def _four_clients(backend, txns, rows=6, batch_size=16):
    """A topology and its runner over a one-table program of the given
    TxnTemplates, run by 4 clients, which take its txns round robin."""
    spec = _small_spec(tables=1, rows_per_table=rows, duration_ops=0,
                       threads_simulated=4, batch_size=batch_size)
    program = generate_workload(spec, 8)
    program.txns = list(txns)
    topo = ZoneTopology(8, backend=backend, batch_size=spec.batch_size)
    return topo, _Runner(topo, program)


def _elements(raw: bytes) -> list:
    """An operator batch's elements, [] for any other kind of request."""
    kind, _, payload = m._split(raw)
    if kind == m.MSG_EXEC_BATCH:
        return m._read_ops(payload, m._read_fids)
    if kind == m.MSG_CIPHER_EXEC:
        return m._read_ops(payload, m._read_envelopes)
    return []


def _items(raw: bytes) -> tuple[int, tuple]:
    """A request's kind and its items: per operator batch element "write"
    (a value result into a table), ("load", argc), "sum" (a revealed
    result) or "partial" (a stored result, a reduction's earlier level),
    and none for any other kind."""
    def item(op):
        if op.op == OpKind.LOAD:
            return "load", len(op.operand_fids)
        if op.destination is not None:
            return "write"
        return "sum" if op.reveal else "partial"

    return raw[0] & ~m.QUERY_FLAG, tuple(map(item, _elements(raw)))


def _record_txn_phase(topo, runner) -> list:
    """Records _items of each message the run sends after its preload."""
    sent = []
    request, preload = topo.channel.request, runner._preload

    def recorded(raw):
        sent.append(_items(raw))
        return request(raw)

    def preload_then_record(db):
        tables = preload(db)
        topo.channel.request = recorded
        return tables

    runner._preload = preload_then_record
    return sent


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_waiting_clients_share_a_crossing(backend):
    """The reveals the 4 clients queue cross together, just before the next
    entry of a client that waits on one: the 3 READs of the first pass in
    one LOAD element, then the next pass's 2 READs in one LOAD and its SUM
    in the same operator batch. Client 2's READ of the row its own ADD
    wrote sends that write first and reveals the added value. Client 3's
    commit, which queued reveals wait on, writes nothing, so none rides."""
    txns = [TxnTemplate([(READ, 0, "k", 1), (READ, 0, "k", 2), (ADD, 0, "k", 3, 1)],
                        False),
            TxnTemplate([(READ, 0, "k", 4), (SUM, 0, "k", 1, 4)], False),
            TxnTemplate([(ADD, 0, "k", 5, 2), (READ, 0, "k", 5)], False),
            TxnTemplate([(READ, 0, "k", 6)], False)]
    topo, runner = _four_clients(backend, txns)
    sent = _record_txn_phase(topo, runner)
    report = runner.run()
    program = runner.program
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    assert report.revealed == shadow.revealed
    k = {row[0]: row[1] for row in program.tables[0].rows}
    assert report.revealed == [("point", 0, 1, k[1]), ("point", 0, 4, k[4]),
                               ("point", 0, 6, k[6]), ("point", 0, 2, k[2]),
                               ("sum", 0, 1, k[1] + k[2] + k[3]),
                               ("point", 0, 5, k[5] + 2)]
    exec_ = _EXEC_KIND[backend]
    # reads 1, 4, 6; client 2's ADD, sent by its READ; reads 2 and 5 with
    # the SUM; client 0's commit; then maintenance
    assert sent[:5] == [(exec_, (("load", 3),)), (exec_, ("write",)),
                        (exec_, (("load", 2), "sum")), (exec_, ("write",)),
                        (m.MSG_FLUSH_LOG, ())]
    assert report.invariant_holds


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_point_select_pass_crosses_once(backend):
    """Point selects by 4 clients: the 4 READs of a pass cross in one LOAD
    element, so 8 txns send 2 messages before maintenance."""
    topo, runner = _four_clients(backend, [TxnTemplate([(READ, 0, "k", key)], False)
                                           for key in (1, 2, 3, 4, 5, 6, 1, 2)])
    sent = _record_txn_phase(topo, runner)
    report = runner.run()
    program = runner.program
    assert report.revealed == ShadowRunner(program, flatten_schedule(program)).run().revealed
    exec_ = _EXEC_KIND[backend]
    # then maintenance: its closing flush and, on fid, orphan_gc's list of
    # the table's partition
    assert sent[:2] == [(exec_, (("load", 4),))] * 2
    assert {kind for kind, _ in sent[2:]} <= {m.MSG_FLUSH_LOG, m.MSG_LIST_LIVE}


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_deep_sums_cross_with_their_pass(backend):
    """SUMs over more refs than batch_size reduce their earlier levels into
    their queries' temporaries when their turn comes; their last elements
    cross together in one batch and read those temporaries, which the
    queries drop only afterwards, at their finish."""
    txns = [TxnTemplate([(SUM, 0, "k", 1, 11)], False),
            TxnTemplate([(SUM, 0, "k", 2, 12), (READ, 0, "k", 3)], False)]
    topo, runner = _four_clients(backend, txns, rows=12, batch_size=4)
    sent = _record_txn_phase(topo, runner)
    report = runner.run()
    program = runner.program
    assert report.revealed == ShadowRunner(program, flatten_schedule(program)).run().revealed
    exec_ = _EXEC_KIND[backend]
    # each SUM: 3 partial sums of up to 4 refs, one a message; then both
    # last elements in one batch before client 0 finishes, and the READ's
    # reveal alone before client 1 does; on fid each finish then drops its
    # query's temporaries
    drop = [(m.MSG_END_QUERY, ())] if backend == "fid" else []
    expected = ([(exec_, ("partial",))] * 6 + [(exec_, ("sum", "sum"))] + drop
                + [(exec_, (("load", 1),))] + drop)
    assert sent[:len(expected)] == expected
    assert {kind for kind, _ in sent[len(expected):]} <= {m.MSG_FLUSH_LOG,
                                                           m.MSG_LIST_LIVE}
    assert topo.privacy.store.partition_ids() == [t.partition_id for t in
                                                 topo.integrity.db.tables_by_idx]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_crash_drops_the_queued_reveals(backend):
    """A privacy crash at a crossing drops the reveals it carried, with
    their slots: report.revealed holds the oracle's values for every
    statement the run completed, less those, and no unresolved one.
    Recovery then finds the invariant holding."""
    spec = _small_spec(threads_simulated=4, abort_ratio=0.0)
    program = generate_workload(spec, 3)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    runner = _Runner(topo, program)
    request = topo.channel.request
    crossings = []

    def crash_at_third_grouped_reveal(raw):
        if sum(op.n_revealed for op in _elements(raw)) >= 2:
            crossings.append(([slot for slot, _, _ in runner._pending],
                              len(runner.report.revealed)))
            if len(crossings) == 3:
                topo.privacy.crash()
        return request(raw)

    topo.channel.request = crash_at_third_grouped_reveal
    report = runner.run()
    assert report.crashed_at == "privacy-unavailable"
    dropped, reached = crossings[-1]
    assert len(dropped) >= 2
    expected = ShadowRunner(program, flatten_schedule(program)).run().revealed[:reached]
    assert report.revealed == [r for slot, r in enumerate(expected) if slot not in dropped]
    assert runner._pending == []
    assert topo.recover_all().invariant.holds


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", [Mode.READ_WRITE, Mode.RANGE_SELECT],
                         ids=lambda m: m.value)
def test_each_reply_that_reveals_costs_one_encrypt(mode, backend):
    """Over a 4-client program, the privacy zone's client codec encrypts
    exactly once per reply message that reveals at least one value, however
    many values the reply carries, and every revealed value still matches
    the oracle."""
    program = generate_workload(_small_spec(mode=mode, threads_simulated=4,
                                            duration_ops=60), 3)
    topo = ZoneTopology(3, backend=backend, batch_size=program.spec.batch_size)
    client = topo.client
    send_ops = client._send_ops
    replies = []  # the count of values each revealing reply carries

    def counted_send_ops(kind, query_id, ready, read_result):
        out = send_ops(kind, query_id, ready, read_result)
        n = sum(r.n_revealed for (r, _), resp in zip(ready, out)
                if resp.envelope is not None)
        if n:
            replies.append(n)
        return out

    client._send_ops = counted_send_ops
    report = topo.run_program(program)
    assert report.revealed == ShadowRunner(program, flatten_schedule(program)).run().revealed
    codec = topo.privacy.proxy.client_codec
    assert codec.encrypts == len(replies)
    revealed = [r for r in report.revealed if r[3] is not None]
    assert sum(replies) == len(revealed) > len(replies)


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", [Mode.READ_WRITE, Mode.POINT_SELECT],
                         ids=lambda m: m.value)
def test_grouped_crossings_are_indistinguishable(mode, backend):
    """Two 4-client programs that differ only in their values give the same
    adversary trace: which reveals share a crossing depends on the
    statements' kinds and keys alone."""
    base = _small_spec(mode=mode, threads_simulated=4, duration_ops=60)
    for seed in (31, 32):
        a = generate_workload(replace(base, value_seed=1111), seed)
        b = generate_workload(replace(base, value_seed=2222), seed)
        assert trace_indistinguishability(a, b, seed, backend=backend)


# The runner's crossing rule on a 4-client read-write program: the queued
# reveals cross before the next entry of a client that waits on one, or
# ride in a commit's write batch that comes first.
def _rw_four_clients(backend):
    spec = _small_spec(threads_simulated=4, duration_ops=40, abort_ratio=0.1)
    program = generate_workload(spec, 3)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    return topo, _Runner(topo, program)


def _carries_riders(raw) -> bool:
    """Whether a request is a commit's write batch with reveals after its
    writes."""
    ops = _elements(raw)
    return (any(op.destination is not None for op in ops)
            and any(op.reveal for op in ops))


# (backend) -> messages per kind through maintenance, and of those the
# operator batches that carry a commit's writes and riders. When a reveal
# message of its own carried a pass's READs, the program sent 31 of them
# and 40 operator batches, 71 where 59 batches went when each commit sent
# its own: then 9 commits carried the queued reveals, and a pass sent its
# READs and SUMs in one batch. The commits of a pass now cross as one
# group: 41 operator batches, 14 of them a group's writes with riders;
# every other kind's count is as before.
_PINNED_CROSSINGS = {
    "fid": ({m.MSG_CREATE_PARTITION: 2, m.MSG_FLUSH_LOG: 6, m.MSG_INGEST: 8,
             m.MSG_EXEC_BATCH: 41, m.MSG_DELETE: 3, m.MSG_LIST_LIVE: 4}, 14),
    "cipher": ({m.MSG_CREATE_PARTITION: 2, m.MSG_FLUSH_LOG: 3,
                m.MSG_CIPHER_INGEST: 8, m.MSG_CIPHER_EXEC: 41}, 14),
}


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_the_crossing_census_of_a_four_client_program(backend):
    """The messages a 4-client read-write program sends, per kind, and how
    many of its operator batches are commits that carry riders, are
    pinned; no message of the retired reveal kinds goes."""
    topo, runner = _rw_four_clients(backend)
    kinds = Counter()
    riders = []
    request = topo.channel.request

    def counted(raw):
        kinds[raw[0]] += 1
        riders.append(_carries_riders(raw))
        return request(raw)

    topo.channel.request = counted
    report = runner.run()
    program = runner.program
    assert report.revealed == ShadowRunner(program, flatten_schedule(program)).run().revealed
    assert (dict(kinds), sum(riders)) == _PINNED_CROSSINGS[backend]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_each_client_has_its_values_before_its_next_entry(backend):
    """No schedule entry of a client runs while a reveal of its own is
    queued: its statements' slots are filled by then, by a pass crossing
    or by a group of commits that its reveal rode in."""
    topo, runner = _rw_four_clients(backend)
    owner = {}  # slot -> the client whose statement it holds
    current = []
    schedule = zone_sim.flatten_schedule

    def watched(program):
        for entry in schedule(program):
            current[:] = [entry[1]]
            yield entry

    def check():
        queued = {slot for slot, _, _ in runner._pending}
        assert not any(owner[slot] == current[0] for slot in queued)

    execute, flush, end = runner._execute, runner._flush, runner._end_query_quietly
    landed = []  # per group of commits: whether riders went and landed

    def checked_execute(db, tables, txn, statement):
        check()
        before = len(runner.report.revealed)
        execute(db, tables, txn, statement)
        for slot in range(before, len(runner.report.revealed)):
            owner[slot] = current[0]

    def checked_flush(db, active):
        rode = bool(runner._pending and runner._commits)
        flush(db, active)
        landed.append(rode and not runner._pending)

    def checked_end(txn):  # at each finish entry of a live txn
        check()
        end(txn)

    runner._execute, runner._flush = checked_execute, checked_flush
    runner._end_query_quietly = checked_end
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zone_sim, "flatten_schedule", watched)
        report = runner.run()
    program = runner.program
    assert report.revealed == ShadowRunner(program, flatten_schedule(program)).run().revealed
    assert sum(landed) > 0


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_riders_change_no_commit_record(backend):
    """A group of commits that carries riders journals the DB_COMMIT bytes
    the same group journals when the queued reveals cross on their own
    instead, and the run leaves the same durable bytes and reveals the same
    values."""
    runs = []
    for ride in (True, False):
        topo, runner = _rw_four_clients(backend)
        db = topo.integrity.db
        if not ride:
            def bare(*txns, riders=None, send=db.send_writes):
                send(*txns)

            db.send_writes = bare
        journal, records = db._journal, []

        def recorded(kind, payload, journal=journal, records=records):
            records.append((kind, payload))
            journal(kind, payload)

        db._journal = recorded
        crossings = _count_kinds(topo)
        report = runner.run()
        runs.append((records, _durable_state(topo), report.revealed,
                     sum(crossings.values())))
    (records, durable, revealed, sent), (bare, durable_bare, revealed_bare,
                                         sent_bare) = runs
    assert records == bare and durable == durable_bare and revealed == revealed_bare
    assert any(kind == DB_COMMIT for kind, _ in records)
    assert sent < sent_bare


def _durable_state(topo) -> tuple:
    sealed = topo.sealed_store.blocks
    return (topo.store_wal_buffer.durable, topo.dbwal_buffer.durable,
            {n: topo.priv_snapshots.get(n) for n in topo.priv_snapshots.names()},
            {n: topo.db_snapshots.get(n) for n in topo.db_snapshots.names()},
            {key: sealed[key].to_bytes() for key in sealed})


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_failed_write_fills_its_riders_slots_first(backend):
    """Client 1's READ is queued when client 0 commits an ADD that
    overflows: the READ rides in that commit's batch, its slot is filled
    from the reply, and then the write's error propagates out of the run,
    as it does with no rider."""
    topo, runner = _four_clients(backend, [
        TxnTemplate([(ADD, 0, "k", 2, 1)], False),
        TxnTemplate([(READ, 0, "k", 1)], False)])
    rows = runner.program.tables[0].rows
    rows[1] = (2, 2**63 - 1) + rows[1][2:]
    sent = _record_txn_phase(topo, runner)
    with pytest.raises(Overflow):
        runner.run()
    assert sent == [(_EXEC_KIND[backend], ("write", ("load", 1)))]
    assert runner.report.revealed == [("point", 0, 1, rows[0][1])]
    assert runner._pending == []


@pytest.mark.parametrize("backend,at", [
    ("fid", "crossing-privacy"), ("fid", "crossing-both"), ("fid", "commit-sync"),
    ("cipher", "crossing-privacy"), ("cipher", "commit-sync")])
def test_a_crash_in_a_riding_commit_drops_only_the_queued_slots(backend, at,
                                                                 monkeypatch):
    """A crash inside the first write batch that carries riders, of the
    privacy zone alone (Unavailable) or of both (ZoneCrashed), drops the
    riders' slots, since their reply never came; a crash of both at that
    commit's DB_COMMIT sync comes after the reply, so their slots are
    filled and nothing queued is left to drop. Either way report.revealed
    is the oracle's values for the slots reached, less those dropped, and
    recovery finds the invariant holding. On fid the crash inside the batch
    comes at the first durable write of a privacy checkpoint that its first
    put runs; the cipher baseline's privacy zone writes nothing there, so
    it crashes as the batch goes."""
    monkeypatch.setattr(wal, "MAX_UNSYNCED_PUTS", wal.MAX_UNSYNCED_PUTS)
    topo, runner = _rw_four_clients(backend)
    request = topo.channel.request
    seen = []  # (queued slots, slots so far) at the batch

    def crash_inside(raw):
        if _carries_riders(raw) and not seen:
            seen.append(([slot for slot, _, _ in runner._pending],
                         len(runner.report.revealed)))
            if at == "commit-sync":
                crash_at(topo, commit_sync)
            elif backend == "cipher":
                topo.privacy.crash()
            else:
                wal.MAX_UNSYNCED_PUTS = topo.privacy.wal.puts + 1
                crash_at(topo, lambda w: w.zone == "privacy",
                         target=(CrashTarget.PRIVACY if at == "crossing-privacy"
                                 else CrashTarget.BOTH))
        return request(raw)

    topo.channel.request = crash_inside
    report = runner.run()
    queued, reached = seen[0]
    assert report.crashed_at is not None and queued
    dropped = set() if at == "commit-sync" else set(queued)
    program = runner.program
    expected = ShadowRunner(program, flatten_schedule(program)).run().revealed[:reached]
    assert report.revealed == [r for slot, r in enumerate(expected) if slot not in dropped]
    assert runner._pending == []
    assert topo.recover_all().invariant.holds


# The commits of one pass cross as one group (_Runner): the txns whose
# finish entries came since the last begin, or since the last entry of a
# waiting client, send their writes in one Database.send_writes and then
# commit one by one.
@settings(max_examples=25, deadline=None, database=None)
@given(seed=st.integers(0, 2**16),
       mode=st.sampled_from([Mode.READ_WRITE, Mode.WRITE_ONLY, Mode.INSERT_ONLY]),
       clients=st.integers(1, 6),
       distribution=st.sampled_from(list(Distribution)),
       abort_ratio=st.floats(0.0, 0.3))
@example(seed=3, mode=Mode.WRITE_ONLY, clients=4, distribution=Distribution.ZIPFIAN,
         abort_ratio=0.3)
def test_group_commit_matches_the_oracle(seed, mode, clients, distribution,
                                         abort_ratio):
    """Grouping the commits of a pass changes no outcome: on both backends
    the runner reveals the shadow oracle's values and commits, aborts and
    conflicts as it does, and leaves its rows; with the program run by 4
    clients, two value seeds give the same adversary trace."""
    spec = _small_spec(mode=mode, threads_simulated=clients, distribution=distribution,
                       abort_ratio=abort_ratio, rows_per_table=12, duration_ops=40)
    program = generate_workload(spec, seed)
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    rows = [{row_id: (cells[1], cells[2]) for row_id, cells
             in shadow.db.quiescent_rows(t).items()} for t in range(spec.tables)]
    four = replace(spec, threads_simulated=4)
    a, b = (generate_workload(replace(four, value_seed=v), seed) for v in (1111, 2222))
    for backend in ("fid", "cipher"):
        topo = ZoneTopology(seed, backend=backend, batch_size=spec.batch_size)
        report = topo.run_program(program)
        assert (report.revealed, report.txns_committed, report.txns_aborted,
                report.write_conflicts) == (shadow.revealed, shadow.committed,
                                            shadow.aborted, shadow.conflicts)
        assert report.invariant_holds and _visible_rows(topo) == rows
        assert trace_indistinguishability(a, b, seed, backend=backend)


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_the_commits_of_a_pass_cross_once(backend):
    """Four clients' write-only txns that finish in one pass cross as one
    operator batch at the end of the schedule, and then commit in finish
    order, one DB_COMMIT record and sync each."""
    adds = [(ADD, 0, "k", key, 10 * key) for key in range(1, 5)]
    topo, runner = _four_clients(backend, [TxnTemplate([s], False) for s in adds])
    sent = _record_txn_phase(topo, runner)
    db = topo.integrity.db
    journal, committers = db._journal, []  # the txn of each DB_COMMIT, in order

    def recorded(kind, payload):
        if kind == DB_COMMIT:
            committers.append(struct.unpack_from("<Q", payload)[0])
        journal(kind, payload)

    db._journal = recorded
    report = runner.run()
    assert sent[0] == (_EXEC_KIND[backend], ("write",) * 4)
    assert {kind for kind, _ in sent[1:]} <= {m.MSG_FLUSH_LOG, m.MSG_LIST_LIVE,
                                               m.MSG_DELETE}
    # the preload's txn 1, then the four in finish order
    assert report.txns_committed == 4 and committers == [1, 2, 3, 4, 5]
    assert _visible_rows(topo) == [_rows_after(runner.program, adds)]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_failed_member_leaves_its_group_committing(backend):
    """In a group of two, one txn's ADD overflows: the other txn, an insert
    and an update, commits and survives a crash of both zones; the failing
    txn keeps every write pending, its commit raises without sending them
    again and leaves it active, and abort then works. On fid the ref its
    SET stored is an orphan, which orphan_gc reclaims."""
    topo, runner = _six_rows(backend)
    rows = runner.program.tables[0].rows
    rows[0] = (1, 2**63 - 1) + rows[0][2:]
    db = topo.integrity.db
    tables = runner._preload(db)
    good_writes = [(ADD, 0, "k", 2, 5), (INSERT, 0, _ROW_7)]
    good, bad = db.begin(), db.begin()
    for statement in good_writes:
        runner._execute(db, tables, good, statement)
    for statement in [(SET, 0, "c", 3, b"never"), (ADD, 0, "k", 1, 1)]:
        runner._execute(db, tables, bad, statement)
    kinds = _count_kinds(topo)
    runner._seal(db, good)
    runner._seal(db, bad)
    db.send_writes(good, bad)
    assert kinds == Counter({_EXEC_KIND[backend]: 1, _INGEST_KIND[backend]: 1})
    assert isinstance(bad.failure, Overflow) and good.failure is None
    assert not good.pending and len(bad.pending) == 2 and not bad.promoted
    db.commit(good)
    with pytest.raises(Overflow):
        db.commit(bad)
    assert bad.state.name == "ACTIVE" and len(bad.pending) == 2
    assert sum(kinds.values()) == 2
    db.abort(bad)
    assert bad.state.name == "ABORTED"
    assert db.orphan_gc() == (1 if backend == "fid" else 0)
    assert topo.check_invariant().orphans == 0
    expected = [_rows_after(runner.program, good_writes)]
    assert _visible_rows(topo) == expected
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert _visible_rows(topo) == expected


@pytest.mark.parametrize("target", [CrashTarget.BOTH, CrashTarget.PRIVACY],
                         ids=lambda t: t.value)
@pytest.mark.parametrize("at", ["crossing", 1, 2, 3, 4], ids=str)
def test_a_crash_across_a_group_of_four_commits(at, target, monkeypatch):
    """A crash of target before each durable write of a group of four
    commits: inside its one crossing (at the first write of a privacy
    checkpoint that the crossing's first put runs), or before a member's
    DB_COMMIT sync. Recovery finds the external-synchrony invariant
    holding and loses no value, and exactly the members whose DB_COMMIT
    synced are visible: none after the crossing's crash, those before the
    one at the crash of both, and all four when the privacy zone alone
    crashes, since the engine's syncs then still run. A privacy crash
    inside the crossing leaves the four queued txns active, and the runner
    aborts and counts them. The report names the write the crash preceded,
    a privacy-only crash at an integrity write too, though no request
    failed then."""
    monkeypatch.setattr(wal, "MAX_UNSYNCED_PUTS", wal.MAX_UNSYNCED_PUTS)
    adds = [(ADD, 0, "k", key, 10 * key) for key in range(1, 5)]
    topo, runner = _four_clients("fid", [TxnTemplate([s], False) for s in adds])
    preload = runner._preload
    before = []

    def preload_then_arm(db):
        tables = preload(db)
        states = lambda: before.append(row_states(topo))
        if at == "crossing":
            wal.MAX_UNSYNCED_PUTS = topo.privacy.wal.puts + 1
            crash_at(topo, lambda w: w.zone == "privacy", target=target, before=states)
        else:
            crash_at(topo, commit_sync, nth=at, target=target, before=states)
        return tables

    runner._preload = preload_then_arm
    report = runner.run()
    quiet = at != "crossing" and target == CrashTarget.PRIVACY  # no request failed
    assert topo.fired is not None
    assert report.crashed_at == topo.fired.label
    synced = 4 if quiet else 0 if at == "crossing" else at - 1
    assert report.txns_committed == synced
    if at == "crossing" and target == CrashTarget.PRIVACY:
        assert report.txns_aborted == 4
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    assert lost_values(before[0], topo) == 0
    assert _visible_rows(topo) == [_rows_after(runner.program, adds[:synced])]
    topo.integrity.db.orphan_gc()
    assert topo.check_invariant().orphans == 0


# Three ADD+SET txns run by 4 clients: the third's last ADD writes the row
# its first wrote, so its first two writes cross early, as a run of their
# own, and the group's crossing carries three runs: [ADD 1, SET 2], [ADD 3,
# SET 4] and [ADD 5] after the early run [ADD 5, SET 6].
_POOLED_GROUP = [TxnTemplate([(ADD, 0, "k", 1, 5), (SET, 0, "c", 2, b"two")], False),
                 TxnTemplate([(ADD, 0, "k", 3, -4), (SET, 0, "c", 4, b"four")], False),
                 TxnTemplate([(ADD, 0, "k", 5, 7), (SET, 0, "c", 6, b"six"),
                              (ADD, 0, "k", 5, 1)], False)]


def _pooled_group_crashed(target, before: list):
    """Runs _POOLED_GROUP, batch 32, with a crash of target right after the
    group's last DB_COMMIT sync, at the privacy checkpoint that vacuum then
    opens with: so the privacy zone loses every secret the preload and the
    group wrote, and one MSG_RESTORE carries all their recipes. Appends the
    row states just before the crash to before; returns the topology, the
    runner and the run's report."""
    topo, runner = _four_clients("fid", _POOLED_GROUP, batch_size=32)
    preload = runner._preload

    def preload_then_arm(db):
        tables = preload(db)
        crash_at(topo, commit_sync, nth=3, after=True, target=target,
                 before=lambda: before.append(row_states(topo)))
        return tables

    runner._preload = preload_then_arm
    return topo, runner, runner.run()


@pytest.mark.parametrize("target", [CrashTarget.PRIVACY, CrashTarget.BOTH],
                         ids=lambda t: t.value)
def test_pooled_recipes_restore_every_lost_value(target):
    """Each run's recipes hold its envelope once, with its first element;
    a continuation's recipe is its element alone. After a crash of target
    right after the group's DB_COMMIT syncs, the restore writes the value
    of every lost FID again from its run's envelope, one decrypt a run: no
    value is lost, and the rows are the oracle's."""
    before = []
    topo, runner, report = _pooled_group_crashed(target, before)
    assert report.crashed_at == topo.fired.label and report.txns_committed == 3
    db = topo.integrity.db
    recipes = list(db.recipes.values())[-7:]  # the group's, after the preload's
    flags = [recipe[1] & (m.OP_CONST | m.OP_NEXT_CONST) for recipe in recipes]
    assert flags == [m.OP_CONST, m.OP_NEXT_CONST] * 3 + [m.OP_CONST]
    restored = []
    restore = topo.client.restore

    def recorded(items, batch_size):
        restored.append(restore(items, batch_size))
        return restored[-1]

    topo.client.restore = recorded
    codecs = []  # the recovered proxy's client codec
    recover = topo.privacy.recover

    def recover_then_keep_codec():
        replayed = recover()
        codecs.append(topo.privacy.proxy.client_codec)
        return replayed

    topo.privacy.recover = recover_then_keep_codec
    assert topo.recover_all().invariant.holds
    # the preload's 12 ingests, and the group's 7 writes in 4 runs
    assert restored == [12 + 7] and codecs[0].decrypts == 12 + 4
    assert lost_values(before[0], topo) == 0
    writes = [s for t in _POOLED_GROUP for s in t.statements]
    assert _visible_rows(topo) == [_rows_after(runner.program, writes)]


def test_a_flipped_byte_in_a_pooled_envelope_fails_the_restore():
    """A pooled envelope whose byte flipped fails its tag: the restore
    raises AuthFailure before it stores any FID, those of the runs before
    it included."""
    topo, _, _ = _pooled_group_crashed(CrashTarget.PRIVACY, [])
    db = topo.integrity.db
    (fid, recipe), (_, continuation) = list(db.recipes.items())[-3:-1]
    assert recipe[1] & m.OP_CONST and continuation[1] & m.OP_NEXT_CONST
    db.recipes[fid] = recipe[:-1] + bytes([recipe[-1] ^ 1])
    topo.privacy.recover()
    store, pid = topo.privacy.store, db.tables_by_idx[0].partition_id
    live = store.live_fids(pid)
    assert not set(db.recipes) <= set(live)
    with pytest.raises(AuthFailure):
        db.restore_recipes()
    assert store.live_fids(pid) == live


# The txn-phase round trips (from the end of the preload to the first
# vacuum) of seed 3's small program run by 4 clients, per mode, on either
# backend: 33 and 59 when each commit crossed alone.
_PINNED_TXN_ROUND_TRIPS = {Mode.WRITE_ONLY: 10, Mode.READ_WRITE: 41}


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", list(_PINNED_TXN_ROUND_TRIPS), ids=lambda m: m.value)
def test_pinned_txn_phase_round_trips_of_four_clients(mode, backend):
    """The exact round trips of a 4-client program's txn phase, with the
    oracle's revealed values and commit, abort and conflict counts."""
    program = generate_workload(_small_spec(mode=mode, threads_simulated=4), 3)
    topo = ZoneTopology(3, backend=backend, batch_size=program.spec.batch_size)
    runner = _Runner(topo, program)
    marks = []
    preload, db = runner._preload, topo.integrity.db
    vacuum = db.vacuum

    def preload_then_mark(db):
        tables = preload(db)
        marks.append(topo.channel.round_trips)
        return tables

    def mark_then_vacuum(table):
        if len(marks) == 1:
            marks.append(topo.channel.round_trips)
        return vacuum(table)

    runner._preload, db.vacuum = preload_then_mark, mark_then_vacuum
    report = runner.run()
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    assert (report.revealed, report.txns_committed, report.txns_aborted,
            report.write_conflicts) == (shadow.revealed, shadow.committed,
                                        shadow.aborted, shadow.conflicts)
    assert marks[1] - marks[0] == _PINNED_TXN_ROUND_TRIPS[mode]


# The same program in write-only mode: its txn phase's client-constant
# decrypts, one per (txn, crossing) pair whose writes carry a constant; 66,
# one per constant, when each constant had an envelope of its own.
_PINNED_CONSTANT_OPENS = 33


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_txns_constants_cost_one_decrypt_per_crossing(backend):
    """In the txn phase of seed 3's small write-only program run by 4
    clients, each txn's ADD deltas and SET values that cross together are
    opened by one client-constant decrypt: the decrypts equal the (txn,
    crossing) pairs that carry a constant, fewer than the constants, and
    both are pinned."""
    spec = _small_spec(mode=Mode.WRITE_ONLY, threads_simulated=4)
    program = generate_workload(spec, 3)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size)
    runner = _Runner(topo, program)
    codec = topo.privacy.proxy.client_codec
    marks, pairs = [], []
    preload, db = runner._preload, topo.integrity.db
    vacuum, send_writes = db.vacuum, db.send_writes

    def preload_then_mark(db):
        tables = preload(db)
        marks.append(codec.decrypts)
        return tables

    def mark_then_vacuum(table):
        if len(marks) == 1:
            marks.append(codec.decrypts)
        return vacuum(table)

    def counted_send(*txns, riders=None):
        for txn in txns:
            constants = sum(isinstance(w, OperatorRequest) and w.constant is not None
                            for _, w in txn.writes)
            if constants and txn.failure is None:
                pairs.append(constants)
        return send_writes(*txns, riders=riders)

    runner._preload, db.vacuum, db.send_writes = (preload_then_mark, mark_then_vacuum,
                                                  counted_send)
    report = runner.run()
    assert report.invariant_holds and report.txns_committed
    assert marks[1] - marks[0] == len(pairs) == _PINNED_CONSTANT_OPENS < sum(pairs)


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_txn_that_writes_a_row_twice_matches_the_oracle(backend):
    """Txns that write one row twice or more, commit or abort, give the
    oracle's rows, and so does a recovery of both zones from the journal
    that holds each version."""
    txns = [TxnTemplate([(ADD, 0, "k", 1, 5), (ADD, 0, "k", 1, 7),
                         (SET, 0, "c", 1, b"one"), (SET, 0, "c", 1, b"two")], False),
            TxnTemplate([(ADD, 0, "k", 1, 100), (ADD, 0, "k", 1, 1)], True),
            TxnTemplate([(SET, 0, "c", 3, b"three"), (ADD, 0, "k", 3, -2),
                         (ADD, 0, "k", 1, -1), (SET, 0, "c", 3, b"four")], False)]
    topo, runner = _six_rows(backend, txns)
    report = runner.run()
    program = runner.program
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    expected = [{row_id: (cells[1], cells[2]) for row_id, cells
                 in shadow.db.quiescent_rows(0).items()}]
    assert (report.txns_committed, report.txns_aborted) == (2, 1)
    assert report.invariant_holds
    assert _visible_rows(topo) == expected
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert _visible_rows(topo) == expected


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_privacy_crash_while_a_txn_holds_only_pending_writes(backend):
    """A txn whose writes, an insert among them, are all pending stored no
    ref, so a privacy crash does not abort it: recovery restores the
    committed secret its ADD reads, from its recipe, and the txn then
    commits with the invariant holding and the rows as the oracle's."""
    topo, runner = _six_rows(backend)
    db = topo.integrity.db
    tables = runner._preload(db)
    committed = [(ADD, 0, "k", 1, 1)]
    txn = db.begin()
    runner._execute(db, tables, txn, committed[0])
    runner._seal(db, txn)
    db.commit(txn)
    pending = [(ADD, 0, "k", 1, 5), (INSERT, 0, _ROW_7), (SET, 0, "c", 2, b"after")]
    txn = db.begin()
    for statement in pending:
        runner._execute(db, tables, txn, statement)
    assert txn.pending and not txn.promoted
    topo.privacy.crash()
    report = topo.recover_all()
    assert report.invariant.holds
    assert txn.state.name == "ACTIVE"
    runner._seal(db, txn)
    db.commit(txn)
    invariant = topo.check_invariant()
    assert invariant.holds and invariant.orphans == 0
    expected = _rows_after(runner.program, committed + pending)
    assert _visible_rows(topo) == [expected]


def test_a_write_batch_with_a_failing_element_journals_nothing():
    """A commit whose write batch holds a STORE with an envelope that fails
    its tag raises once the batch has run: the txn journals nothing, claims
    nothing and still holds every write, and the FIDs the batch's other
    elements wrote are orphans, which orphan_gc reclaims once it aborts.
    The client keeps no record of them."""
    topo, runner = _six_rows("fid")
    db = topo.integrity.db
    tables = runner._preload(db)
    table, store = tables[0], topo.privacy.store
    bad = bytearray(topo.client_encrypt(pad_sensitive(b"bad")))
    bad[-1] ^= 1
    txn = db.begin()
    runner._execute(db, tables, txn, (ADD, 0, "k", 1, 5))
    runner._seal(db, txn)  # held constants cross as a run right after its head
    db.update_row(txn, table, 2, {"c": OperatorRequest(
        OpKind.STORE, ValueType.BYTES, [], table.partition_id, bytes(bad))})
    runner._execute(db, tables, txn, (ADD, 0, "k", 3, 1))
    runner._seal(db, txn)
    journal, live = db.dbwal.durable_len, set(store.live_fids(table.partition_id))
    with pytest.raises(AuthFailure):
        db.commit(txn)
    assert db.dbwal.durable_len == journal and db.dbwal.pending_len == 0
    assert txn.state.name == "ACTIVE" and len(txn.pending) == 3
    assert not (txn.recipes or txn.promoted or txn.staged)
    assert len(set(store.live_fids(table.partition_id)) - live) == 2
    assert vars(topo.client).keys() == {"channel", "trace", "_temp_queries"}
    db.abort(txn)
    assert db.orphan_gc() == 2
    assert topo.check_invariant().orphans == 0
    assert _visible_rows(topo) == [_rows_after(runner.program, [])]


def test_a_store_recipe_is_restored_after_a_privacy_crash():
    """A SET commits a STORE element as its new secret's recipe; after a
    privacy crash the restore re-runs it and the row reads its value."""
    topo, runner = _six_rows("fid")
    db = topo.integrity.db
    tables = runner._preload(db)
    txn = db.begin()
    runner._execute(db, tables, txn, (SET, 0, "c", 2, b"stored"))
    runner._seal(db, txn)
    db.commit(txn)
    fid, recipe = list(db.recipes.items())[-1]  # after the preload's
    assert recipe[:1] == m.RECIPE_EXEC and recipe[1] & 0x1F == OpKind.STORE
    topo.privacy.crash()
    assert topo.recover_all().invariant.holds
    assert _visible_rows(topo)[0][2] == (runner.program.tables[0].rows[1][1], b"stored")


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_no_query_temporary_outlives_its_query(mode, backend):
    """The runner's queries write nothing to their temporary partitions, so
    no request carries a query id, no query sends MSG_END_QUERY and the
    store ends with only the tables' partitions."""
    spec = _small_spec(mode=mode, duration_ops=25)
    topo = ZoneTopology(7, backend=backend, batch_size=spec.batch_size)
    kinds = _count_kinds(topo)
    report = topo.run_workload(spec)
    assert report.ops_completed > 0 and report.invariant_holds
    assert not [kind for kind in kinds if kind & m.QUERY_FLAG]
    assert kinds[m.MSG_END_QUERY] == 0
    assert topo.privacy.proxy._query_temps == {}
    assert topo.privacy.store.partition_ids() == sorted(
        t.partition_id for t in topo.integrity.db.tables_by_idx)


@pytest.mark.parametrize("query", ["deep_reduction", "ingested_predicate"])
def test_query_with_temporaries_still_ends_them(query):
    """A reduction over more refs than batch_size keeps its partial sums in
    the query's temporary partition, and so does a predicate constant
    ingested there: each message that writes there carries QUERY_FLAG and
    the query id, the others none, and ending either query sends
    MSG_END_QUERY, once, with the id, and drops that partition."""
    topo = ZoneTopology(8, batch_size=4)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    for key in range(1, 11):
        db.insert_row(txn, table, [key, _envelope(topo, key)])
    db.commit(txn)
    sent = []
    request = topo.channel.request

    def recorded(raw):
        sent.append(m._split(raw)[:2])
        return request(raw)

    topo.channel.request = recorded
    q = db.begin()
    if query == "deep_reduction":
        refs = [table.rows[key][-1].cells[1] for key in range(1, 11)]
        env = db.backend.aggregate(q.query_id, OpKind.SUM_AGG, ValueType.INT64,
                                   refs, 4, reveal=True)
        assert decode_int64(topo.client_decrypt(env)) == 55
        # 3 partial sums of up to 4 refs, one a message, then the revealed total
        expected = [(m.MSG_EXEC_BATCH, q.query_id)] * 3 + [(m.MSG_EXEC_BATCH, None)]
    else:
        const = _ingest_int(topo, q.query_id, 7)
        rows = db.select(q, table, Predicate("k", OpKind.CMP_GT, const))
        assert [v.row_id for v in rows] == [8, 9, 10]
        # 10 comparisons, 2 a message (4 operand fields)
        expected = [(m.MSG_INGEST, q.query_id)] + [(m.MSG_EXEC_BATCH, None)] * 5
    assert q.query_id in topo.privacy.proxy._query_temps
    db.commit(q)
    topo.client.end_query(q.query_id)
    topo.client.end_query(q.query_id)
    assert sent == expected + [(m.MSG_END_QUERY, q.query_id)]
    assert topo.privacy.proxy._query_temps == {}
    assert topo.privacy.store.partition_ids() == [table.partition_id]


def test_structure_mismatch_detected():
    """Programs that differ in rows, or in one secret's length, are refused
    before they run; programs that differ in their values alone are not."""
    a = generate_workload(_small_spec(rows_per_table=30), 5)
    b = generate_workload(_small_spec(rows_per_table=31), 5)
    with pytest.raises(StructureMismatch):
        trace_indistinguishability(a, b, 5)
    spec = _small_spec(mode=Mode.WRITE_ONLY, duration_ops=10)
    longer = generate_workload(spec, 5)
    statements = next(t.statements for t in longer.txns
                      if any(s[0] == SET for s in t.statements))
    at = next(i for i, s in enumerate(statements) if s[0] == SET)
    statements[at] = statements[at][:4] + (statements[at][4] + b"x",)
    with pytest.raises(StructureMismatch):
        trace_indistinguishability(generate_workload(spec, 5), longer, 5)
    other_values = generate_workload(replace(spec, value_seed=99), 5)
    assert trace_indistinguishability(generate_workload(spec, 5), other_values, 5)


def test_comparison_outcome_flip_breaks_indistinguishability():
    """Two runs identical except one row value crossing a predicate
    threshold: the CmpBool event differs, everything else matches."""

    def run(value):
        topo = ZoneTopology(33)
        db = topo.integrity.db
        table = db.create_table("t", list(SCHEMA))
        txn = db.begin()
        db.insert_row(txn, table, [1, _envelope(topo, value)])
        db.commit(txn)
        query = db.begin()
        const = _ingest_int(topo, query.query_id, 10)
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
    the trace. (The privacy zone's journal and snapshots are excluded here;
    test_no_secret_in_any_file_once_quiesced checks every file once a
    checkpoint has sealed what the journal held.)"""
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
        db.insert_row(txn, table,
                      [i, ClientEnvelope.from_bytes(topo.client_encrypt(sentinel))])
    db.commit(txn)
    topo.privacy.atrest.flush_dirty()  # force sealed writes to untrusted area

    blobs = list(captured)
    blobs.append(topo.dbwal_buffer.durable)
    for name in topo.db_snapshots.names():
        blobs.append(topo.db_snapshots.get(name))
    for sealed in topo.sealed_store.blocks.values():
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
    allowed = {"FidObserved", "BlockRead", "BlockWrite", "BlockDrop", "MsgBytes",
               "ResultSize", "CmpBool", "OpKindObserved"}
    assert kinds <= allowed
    assert "MsgBytes" in kinds and "FidObserved" in kinds


def test_run_program_refuses_another_batch_size():
    """A topology has one batch size: a program whose spec batches another
    number of values is refused before it sends anything."""
    spec = _small_spec(batch_size=16)
    topo = ZoneTopology(66, batch_size=32)
    with pytest.raises(ValueError, match="batches 16"):
        topo.run_program(generate_workload(spec, 66))
    assert topo.channel.round_trips == 0


def test_trace_jsonl_dump_parses():
    spec = _small_spec(duration_ops=5, tables=1, rows_per_table=5)
    topo = ZoneTopology(66, batch_size=spec.batch_size)
    topo.run_workload(spec)
    lines = topo.trace.dump_jsonl().splitlines()
    assert lines
    for i, line in enumerate(lines[:50]):
        doc = json.loads(line)
        assert doc["t"] == i
        assert isinstance(doc["kind"], str)


# (mode, distribution, backend), (events, sha256 of dump_jsonl) of seed 3's
# small program less the block events its privacy checkpoints emit, and
# those events, per case: read-write on fid and on cipher (named by their
# backend), and every other mode, and write-only under zipfian too, on fid.
# Fid runs behind a 2-block cache, so block events occur. The two
# read-write values were taken from the list-of-tuples trace that the flat
# buffers replaced; the others from the op-tuple programs that the statement
# form replaced. A privacy checkpoint seals the blocks the cache holds dirty
# (a table partition's block 0 of class 0 is arg (partition << 40) | 0;
# class 3, 128 bytes, is 3 << 32 more), and a second one drops the copies
# the first kept that it superseded. The four fid write cases were re-pinned
# when the privacy journal stopped holding puts: vacuum's opening flush, sent
# while the run's recipes are pending, now checkpoints, so their runs make
# two privacy checkpoints, vacuum's and orphan_gc's, where they made one,
# and the blocks vacuum's checkpoint writes back are not sealed again by a
# later eviction (2 fewer BlockWrites in write-only, write-only-zipfian and
# insert-only). Every event before the first vacuum is as before.
# fid, cipher, write-only and write-only-zipfian were re-pinned (from 1204,
# 555, 1151 and 1147 events) when txns began to hold their writes until
# commit: an aborted or conflicting txn's writes no longer cross, a txn's
# writes cross together in one message at its commit, and the FidObserved
# events of the new versions' cells follow that message. Their checkpoint
# events are unchanged.
# All eight were re-pinned, with the same event counts, when the frame lost
# the bytes its receiver knows: only MsgBytes arguments moved, each request
# 8 fewer (no query id; none of these programs names a temporary), an
# operator batch request 2 fewer again and its reply 2 fewer (no element
# count), a MSG_REVEAL reply 4 fewer and a MSG_CIPHER_REVEAL request and
# reply 4 fewer each (a bare envelope).
# The seven fid cases were then re-pinned when list_live began to record
# the FIDs of its reply: every event is as before, and a FidObserved per
# live FID follows each MSG_LIST_LIVE reply, orphan_gc's and the invariant
# check's (120 more where only the check lists the 2 tables' 60 rows, 240
# in the writing modes, 384 in insert-only). The cipher case lists nothing.
# All eight were re-pinned when the runner began to send its waiting
# clients' reveals in one crossing per pass: every event but the messages'
# own is as before (the same multiset, each revealed FID's FidObserved now
# inside the crossing), the checkpoint events too, and there are fewer
# messages, 3 events each: 28 fewer in read-write (27 reveals and a batch
# of 2 sums), 80 in read-only, 20 in point-select and range-select. The
# MsgBytes arguments moved with them: a reveal reply gives each envelope
# but the last a u16 length, a cipher reveal request each of its
# envelopes, and an INT64 element's zone envelopes and revealed results go
# bare (4 bytes fewer each). In the writing modes only a MSG_LIST_LIVE
# reply moved, 4 bytes shorter (no count).
# Five were re-pinned when each reply that reveals values began to carry
# one client envelope of them all: only the MsgBytes arguments of those
# replies moved, each 28 bytes fewer per value past the first (26 on a
# cipher reveal, whose reply had no inner lengths, and on a batch of
# revealed sums): 28 replies in read-write on fid and cipher, 80 in
# read-only, 20 in point-select and range-select. The three writing modes
# reveal nothing and keep their hashes.
# Four were re-pinned when the reveals became LOAD elements of operator
# batches and a commit's write batch began to carry the reveals other
# clients queued: read-write on fid and on cipher send 13 messages fewer,
# 39 events (1320 and 456 before), and every other event is as before, in
# the same order on cipher, while on fid a rider's FidObserved moves up to
# the commit batch that carries it; read-only and point-select keep every
# event but the MsgBytes of their reveals, now a LOAD's batch and reply.
# range-select and the writing modes reveal no READ and keep their hashes,
# and every case keeps its checkpoint events.
# Five were re-pinned when the commits of a pass began to cross as one
# group: there are fewer messages, 3 events each, and every other event
# keeps its multiset, the checkpoint events too. read-write sends 16
# messages fewer on fid and on cipher (48 events; 1281 and 417 before),
# write-only 14 (42; 1181), write-only-zipfian 15 (45; 1238) and
# insert-only 10 (30; 1050). On cipher the other events keep their order
# as well; on fid a group's FidObserved events follow its one reply, so
# they move up with it. read-only, point-select and range-select commit
# no write and keep their hashes.
# Two were re-pinned when a txn's constants that cross together came to
# share one client envelope: only the MsgBytes of the write batches moved,
# 30 bytes fewer per continuation (its 4-byte length and 28-byte envelope
# overhead, less the head's 2-byte inner length): 20 batches in write-only
# and 19 in write-only-zipfian, every other event as before, in order. The
# other modes cross no txn's two constants at once and keep their hashes.
_B = 1 << 40
_PINNED_TRACE = {
    "fid": (Mode.READ_WRITE, Distribution.UNIFORM, "fid", 1233,
            "95f4329bb8680ad6698a70a32559008a440b007741b8040f7524e1e71595216a",
            [("BlockWrite", 0), ("BlockWrite", _B), ("BlockWrite", 0),
             ("BlockWrite", _B), ("BlockDrop", 0), ("BlockDrop", _B)]),
    "cipher": (Mode.READ_WRITE, Distribution.UNIFORM, "cipher", 369,
               "5336a0afb1a3b63b9ac6481be0cc0a603d1f394489de2dd642337541b5efdc75",
               []),
    "read-only": (Mode.READ_ONLY, Distribution.UNIFORM, "fid", 1328,
                  "a0c9e60a9b324b61961fa95de55438b3485a4c08ae130add376de53c74dd1a5a",
                  []),
    "write-only": (Mode.WRITE_ONLY, Distribution.UNIFORM, "fid", 1139,
                   "e04a1e6f40c60df1f8306898be6c44c337b8ba5cd5540f36cfe302b47c1b124a",
                   [("BlockWrite", _B), ("BlockWrite", _B | 3 << 32 | 1),
                    ("BlockWrite", _B), ("BlockWrite", _B | 3 << 32),
                    ("BlockDrop", 0), ("BlockDrop", 3 << 32), ("BlockDrop", 3 << 32 | 1),
                    ("BlockDrop", _B), ("BlockDrop", _B | 3 << 32),
                    ("BlockDrop", _B | 3 << 32 | 1)]),
    "write-only-zipfian": (
        Mode.WRITE_ONLY, Distribution.ZIPFIAN, "fid", 1193,
        "6cfaec3d1600f2a2b4514f5cf2c5079acf9006c635c1a70d3f2cf0a0e98e0c39",
        [("BlockWrite", 3 << 32 | 1), ("BlockWrite", _B), ("BlockWrite", _B | 3 << 32),
         ("BlockDrop", 0), ("BlockDrop", 3 << 32), ("BlockDrop", 3 << 32 | 1),
         ("BlockDrop", _B), ("BlockDrop", _B | 3 << 32), ("BlockDrop", _B | 3 << 32 | 1)]),
    "insert-only": (Mode.INSERT_ONLY, Distribution.UNIFORM, "fid", 1020,
                    "06976f250d1fd49a8f1f979109c481853bbe4c9f0428217b9cae060cc77c2c3d",
                    [("BlockWrite", _B), ("BlockWrite", _B | 3 << 32 | 1)]),
    "point-select": (Mode.POINT_SELECT, Distribution.UNIFORM, "fid", 548,
                     "5fb4db7615399f4271d36b319932f4658440caa704bc0579f70cf464bd1aace6",
                     []),
    "range-select": (Mode.RANGE_SELECT, Distribution.UNIFORM, "fid", 908,
                     "2e7690c6cac7aae88d4bcd60f879ed1698cbcd5abbd9ccdb53c2ba1e5d33cd58",
                     []),
}


@pytest.mark.parametrize("case", list(_PINNED_TRACE))
def test_pinned_trace_dump(case, monkeypatch):
    """The adversary trace's JSONL dump, byte for byte, and its length,
    less the privacy checkpoint's own block events, which are pinned apart:
    a checkpoint changes no other event."""
    mode, distribution, backend, *pinned, checkpoint_events = _PINNED_TRACE[case]
    spec = _small_spec(mode=mode, distribution=distribution)
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=2 if backend == "fid" else None)
    strip = _strip_checkpoint_events(monkeypatch, topo)
    topo.run_program(generate_workload(spec, 3))
    emitted = []
    events = strip(topo.trace.events, emitted)
    dump = "\n".join(json.dumps({"t": i, "kind": k, "arg": a})
                     for i, (k, a) in enumerate(events)).encode()
    assert [len(events), hashlib.sha256(dump).hexdigest()] == pinned
    assert emitted == checkpoint_events
    kinds = {k for k, _ in events}
    assert ("BlockRead" in kinds) == (backend == "fid")


def test_trace_keeps_at_most_16_bytes_an_event():
    """What the trace's own code keeps allocated over a run, as
    tracemalloc attributes it to the trace's lines, is at most 16 bytes
    per event it holds."""
    spec = _small_spec(rows_per_table=100, duration_ops=200)
    program = generate_workload(spec, 8)
    lines, first = inspect.getsourcelines(AdversaryTrace)
    tracemalloc.start()
    try:
        topo = ZoneTopology(8, batch_size=spec.batch_size, cache_capacity_blocks=4)
        topo.run_program(program)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    own = snapshot.filter_traces([tracemalloc.Filter(True, inspect.getsourcefile(
        AdversaryTrace))])
    kept = sum(stat.size for stat in own.statistics("lineno")
               if first <= stat.traceback[0].lineno < first + len(lines))
    events = len(topo.trace)
    assert events > 5000
    assert 9 * events <= kept <= 16 * events  # a kind byte and a u64 each


def test_trace_equality_compares_events():
    a, b = AdversaryTrace(), AdversaryTrace()
    for trace in (a, b):
        trace.fid(1 << 63)
        trace.block_read(3, 7)
    assert a == b and a.events == b.events == [("FidObserved", 1 << 63),
                                               ("BlockRead", (3 << 40) | 7)]
    b.msg(1)
    assert a != b
    a.result_size(1)
    assert a != b and len(a) == len(b) == 3


def test_flatten_schedule_is_a_round_robin_iterator():
    """Clients take turns, one entry each, in thread order; a client whose
    txns are done drops out. The schedule is generated lazily."""
    spec = _small_spec(threads_simulated=2, duration_ops=3)
    program = generate_workload(spec, 1)
    for template, n_statements in zip(program.txns, (2, 1, 1)):
        del template.statements[n_statements:]
    schedule = flatten_schedule(program)
    assert iter(schedule) is schedule and not isinstance(schedule, list)
    assert list(schedule) == [
        ("begin", 0, 0), ("begin", 1, 1), ("op", 0, 0, 0), ("op", 1, 1, 0),
        ("op", 0, 0, 1), ("finish", 1, 1), ("finish", 0, 0),
        ("begin", 0, 2), ("op", 0, 2, 0), ("finish", 0, 2)]


def test_a_recovered_privacy_zone_frees_its_old_state_without_gc():
    """After recover_all, reference counting alone frees the crashed privacy
    zone's store, at-rest layer, proxy and journal, and every plaintext in
    them: none of them sits in a reference cycle."""
    spec = _small_spec()
    topo = ZoneTopology(3, batch_size=spec.batch_size, cache_capacity_blocks=2)
    topo.run_program(generate_workload(spec, 3))
    gc.collect()
    gc.disable()
    try:
        privacy = topo.privacy
        old = {name: weakref.ref(getattr(privacy, name))
               for name in ("store", "atrest", "proxy", "wal")}
        privacy.crash()
        topo.integrity.crash()
        topo.recover_all()
        assert [name for name, ref in old.items() if ref() is not None] == []
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", list(Mode))
def test_all_modes_run_clean(mode):
    """Every mode on both backends agrees with the plaintext oracle: the
    revealed values, the committed, aborted and conflicting txns, and each
    visible row's (k, c) after the run."""
    spec = _small_spec(mode=mode, duration_ops=25, abort_ratio=0.05)
    program = generate_workload(spec, 77)
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    for backend in ("fid", "cipher"):
        topo = ZoneTopology(77, backend=backend, batch_size=spec.batch_size,
                            cache_capacity_blocks=64)
        report = topo.run_program(program)
        assert report.crashed_at is None
        assert report.invariant_holds
        assert report.violations == 0
        assert report.ops_completed > 0
        assert report.revealed == shadow.revealed
        assert ((report.txns_committed, report.txns_aborted, report.write_conflicts)
                == (shadow.committed, shadow.aborted, shadow.conflicts))
        assert _visible_rows(topo) == [
            {row_id: (cells[1], cells[2]) for row_id, cells in
             shadow.db.quiescent_rows(t).items()}
            for t in range(spec.tables)]


def _visible_rows(topo) -> list[dict]:
    """Per table: row id -> (k, c) of each row a fresh txn sees."""
    db = topo.integrity.db
    client = topo.client
    reveal = client.cipher_reveal if topo.backend_name == "cipher" else client.reveal
    reader = db.begin()
    tables = [{} for _ in db.tables_by_idx]
    for rows, table in zip(tables, db.tables_by_idx):
        for row_id in table.rows:
            version = db.visible_version(table, row_id, reader)
            if version is not None:
                k, c = (topo.client_decrypt(reveal(reader.query_id, version.cells[i]))
                        for i in (1, 2))
                rows[row_id] = (decode_int64(k), unpad_sensitive(c))
    db.abort(reader)
    return tables


def test_zipfian_sampler_stays_below_n():
    """The largest draw random() returns lands on the last rank: the
    cumulative weights end at exactly 1.0, not at a rounded sum below it."""

    class LargestDraw:
        def random(self):
            return 1 - 2**-53

    assert ZipfianSampler(500, 0.8).sample(LargestDraw()) == 499


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
    # integrity WAL) durable bytes, (seals, opens), (client codec, zone
    # codec) encrypt+decrypt counts in the privacy zone; then the integrity
    # WAL's durable bytes when the first vacuum starts, the size of the
    # write path's journal. A commit sends no flush: the six are
    # create_table's two, vacuum's first (recipes were pending), which
    # checkpoints the privacy zone, and one after each table's deletes, and
    # orphan_gc's checkpoint flush, after which both journals are empty.
    # An insert's cells take 10 bytes less on fid (no cell count, no length
    # before a FID or a PLAIN_INT) and 2 less on cipher (no count). A txn
    # holds its ADD until its commit, so the 5 of aborted txns are never
    # sent: 5 operator messages and 5 constant decrypts fewer (49 and 249
    # when each ADD was sent as it ran), and on cipher 10 zone envelope
    # opens and seals fewer (370); every committed byte is as before.
    # A commit is one record, so each row version takes 25 bytes less (no
    # frame, record head or txn of its own), a commit with recipes 21 less
    # and one without 4 more, and a vacuum pass one record: 24 968 and
    # 26 028 bytes at the first vacuum when a commit took a record per row
    # version, one for its recipes and one for itself.
    # The runner sends its waiting clients' reveals in one crossing per
    # pass: the 80 point reveals take 53 messages, and two of the range
    # sums share a batch, so 44 operator messages became 43 (80 and 44
    # before); every other count and byte is as before.
    # Each reply that reveals values then came to seal them in one client
    # envelope: 216 client codec calls, 28 fewer, one per value past the
    # first of the 27 grouped reveals and of the batch of 2 sums (244
    # before); every other count and byte is as before.
    # The reveals then became LOAD elements of operator batches, riding in
    # a commit's write batch where one comes first: 83 operator messages
    # where 53 reveals and 43 batches went; 212 client codec calls, since 4
    # replies now seal values that took two (216 before); every other
    # count and byte is as before.
    # The commits of a pass then came to cross as one group: 67 operator
    # messages where 83 went; every other count and byte is as before, the
    # journals' and images' too.
    "fid": ({m.MSG_INGEST: 8, m.MSG_EXEC_BATCH: 67,
             m.MSG_DELETE: 4, m.MSG_FLUSH_LOG: 6, m.MSG_CREATE_PARTITION: 2,
             m.MSG_LIST_LIVE: 2},
            (0, 0), (14, 2), (212, 0), 21816),
    "cipher": ({m.MSG_FLUSH_LOG: 3, m.MSG_CREATE_PARTITION: 2,
                m.MSG_CIPHER_EXEC: 67, m.MSG_CIPHER_INGEST: 8},
               (0, 0), (3, 0), (212, 360), 23801),
}
# The seals count the privacy checkpoints': on fid, 4 cache evictions, then
# vacuum's checkpoint and the quiesce one, each 2 dirty blocks, 2 slot maps
# and its marker's partition list (9 before the put record was deleted,
# when vacuum's opening flush did not checkpoint); on cipher, which keeps
# no recipe, the quiesce checkpoint's slot maps of its 2 empty partitions
# and the list.
# (privacy, integrity) snapshot bytes after the run: the images the
# quiesce checkpoints wrote. The privacy zone's are its sealed slot maps,
# which name the counter of each copy the checkpoint keeps, and the framed
# marker; the engine's holds its tables, in one 8-byte frame. Its version
# heads take 1 or 2 bytes a field and its cells no count (4 716 and 15 276
# bytes when each head took 24 bytes, each writer a 16-byte commit seq pair
# and each cell a u32 length).
_PINNED_IMAGES = {"fid": (634, 2383), "cipher": (146, 13423)}


def _snapshot_bytes(topo) -> tuple[int, int]:
    return tuple(sum(len(snapshots.get(name)) for name in snapshots.names())
                 for snapshots in (topo.priv_snapshots, topo.db_snapshots))


def _snapshot_at_check(topo) -> dict:
    """Counts messages per kind; when the invariant check starts, stores
    them with both WALs' durable bytes, (seals, opens) and the privacy
    zone's (client codec, zone codec) encrypt+decrypt counts under
    "at_check" in the returned dict."""
    kinds = _count_kinds(topo)
    seen = {}
    check = topo.check_invariant

    def snapshot_then_check():
        privacy = topo.privacy
        sealer = privacy.atrest.sealer
        client, zone = privacy.proxy.client_codec, privacy.zone_codec
        seen.setdefault("at_check", (
            dict(kinds),
            (topo.store_wal_buffer.durable_len, topo.dbwal_buffer.durable_len),
            (sealer.seals, sealer.opens),
            (client.encrypts + client.decrypts, zone.encrypts + zone.decrypts)))
        return check()

    topo.check_invariant = snapshot_then_check
    return seen


@pytest.mark.parametrize("backend", sorted(_PINNED))
def test_pinned_counts_through_maintenance(backend):
    """Exact per-kind traffic, durable WAL bytes, seals/opens, envelope
    crypto counts and revealed values for one small seed, all taken when
    the invariant check starts, the integrity WAL's durable bytes when the
    first vacuum starts, and the snapshot bytes after the run."""
    spec = _small_spec()
    topo = ZoneTopology(3, backend=backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=2)
    seen = _snapshot_at_check(topo)
    db = topo.integrity.db
    vacuum = db.vacuum

    def measure_then_vacuum(table):
        seen.setdefault("at_vacuum", topo.dbwal_buffer.durable_len)
        return vacuum(table)

    db.vacuum = measure_then_vacuum
    program = generate_workload(spec, 3)
    report = topo.run_program(program)
    assert seen["at_check"] + (seen["at_vacuum"],) == _PINNED[backend]
    assert _snapshot_bytes(topo) == _PINNED_IMAGES[backend]
    expected = ShadowRunner(program, flatten_schedule(program)).run().revealed
    assert report.revealed == expected
    assert len(expected) == 89
    assert sum(r[3] for r in expected) == 33_106_490


# RANGE_SELECT over 24 data blocks behind a 4-block cache, taken when the
# invariant check starts: per-kind counts, (privacy WAL, integrity WAL)
# durable bytes, (seals, opens), (client codec, zone codec) crypto counts.
# Only create_table flushes: the preload's secrets stay unsynced, and the
# integrity journal holds their recipes (600 inserts, 10 bytes each less
# than when the cells had a count and a length before each, and 25 less
# again, 178 418 B in all, when each took a record of its own; each of
# the 2 preload commits takes 21 less, one commit head in place of a
# commit record and a recipe record's head). The 2 clients' range sums of a
# pass cross in one batch: 50 operator messages, 100 when each crossed
# alone, and one encrypt each, since each reply seals its 2 sums in one
# client envelope: 1 250 client codec calls, the 1 200 ingest decrypts and
# 50 encrypts (1 300 when each sum had an envelope of its own).
_PINNED_RANGE_SELECT = (
    {m.MSG_INGEST: 76, m.MSG_EXEC_BATCH: 50, m.MSG_FLUSH_LOG: 2,
     m.MSG_CREATE_PARTITION: 2},
    (42, 163376), (24, 4), (1250, 0))


def _range_select_run():
    spec = _small_spec(mode=Mode.RANGE_SELECT, rows_per_table=300,
                       duration_ops=100)
    topo = ZoneTopology(3, batch_size=spec.batch_size, cache_capacity_blocks=4)
    program = generate_workload(spec, 3)
    return topo, program


def test_pinned_counts_range_select_cold_cache():
    """A range sum sends no prefetch and a commit sends nothing: only
    create_table flushes, and a committed txn opens fewer than 2 blocks."""
    topo, program = _range_select_run()
    seen = _snapshot_at_check(topo)
    report = topo.run_program(program)
    assert seen["at_check"] == _PINNED_RANGE_SELECT
    assert topo.privacy.atrest.sealer.opens < 2 * report.txns_committed
    expected = ShadowRunner(program, flatten_schedule(program)).run().revealed
    assert report.revealed == expected


def test_a_benchmark_sized_preload_ends_in_a_checkpoint():
    """A fid preload of the benchmark's shape, 2 tables of 2 000 rows at
    batch 256, takes the engine journal past wal.CHECKPOINT_INTERVAL_BYTES
    with its second commit, so it ends with both zones checkpointed: an
    engine image, an empty engine journal, no recipe pending and every
    block of both partitions sealed. A cold scan's space_amp rests on this:
    without the checkpoint the journal keeps every recipe and no block has
    a sealed copy."""
    spec = WorkloadSpec(mode=Mode.RANGE_SELECT, tables=2, rows_per_table=2000,
                        duration_ops=0, threads_simulated=4, batch_size=256)
    topo = ZoneTopology(1, batch_size=spec.batch_size)
    db = topo.integrity.db
    journal = []
    commit = db.commit

    def commit_then_measure(txn):
        commit(txn)
        journal.append(topo.dbwal_buffer.durable_len)

    db.commit = commit_then_measure
    tables = _Runner(topo, generate_workload(spec, 1))._preload(db)
    assert journal[0] < wal.CHECKPOINT_INTERVAL_BYTES and journal[1] == 0
    assert topo.db_snapshots.get(CHECKPOINT_IMAGE) is not None
    assert not db.recipes
    store = topo.privacy.store
    spanned = {(t.partition_id, b) for t in tables
               for b in store.partition_blocks(t.partition_id)}
    assert {(pid, b) for pid, b, _ in topo.sealed_store.kept} == spanned


def test_an_insert_sends_its_row_in_one_ingest(monkeypatch):
    """An INSERT statement sends nothing: its txn's commit sends the row's
    k and c in one MSG_INGEST, shared with the rows the other txns of its
    group insert into the same table, and an aborted txn's insert never
    crosses."""
    spec = _small_spec(mode=Mode.INSERT_ONLY)
    topo = ZoneTopology(3, batch_size=spec.batch_size)
    kinds = _count_kinds(topo)
    sent = []
    execute = _Runner._execute
    at_send = []  # per send of the txn phase: (senders, their tables, ingests sent)
    send_writes = Database.send_writes

    def counting_execute(runner, db, tables, txn, statement):
        before = kinds[m.MSG_INGEST]
        execute(runner, db, tables, txn, statement)
        sent.append((statement[0], len(statement[2]), kinds[m.MSG_INGEST] - before))

    def counting_send(db, *txns, riders=None):
        before = kinds[m.MSG_INGEST]
        senders = [txn for txn in txns if txn.pending]
        tables = {pid for txn in senders for pid, _ in txn.writes}
        send_writes(db, *txns, riders=riders)
        if senders and txns[0].txn_id > spec.tables:  # past the preload's
            at_send.append((len(senders), len(tables), kinds[m.MSG_INGEST] - before))

    monkeypatch.setattr(_Runner, "_execute", counting_execute)
    monkeypatch.setattr(Database, "send_writes", counting_send)
    report = topo.run_program(generate_workload(spec, 3))
    assert report.ops_completed == spec.duration_ops and report.txns_aborted
    assert sent == [(INSERT, 4, 0)] * spec.duration_ops
    assert all(ingests == tables for _, tables, ingests in at_send)
    assert sum(senders for senders, _, _ in at_send) == report.txns_committed
    assert max(senders for senders, _, _ in at_send) > 1
    preload = spec.tables * -(-2 * spec.rows_per_table // spec.batch_size)
    assert kinds[m.MSG_INGEST] == preload + sum(ingests for _, _, ingests in at_send)


def _preload_state(seed: int, spec: WorkloadSpec, cache: int | None) -> tuple:
    """Preloads spec's tables; returns every row version's cells, both
    journals' bytes, the sealed blocks, the untrusted block events and then,
    after a checkpoint flush, the privacy zone's image."""
    topo = ZoneTopology(seed, batch_size=spec.batch_size, cache_capacity_blocks=cache)
    db = topo.integrity.db
    tables = _Runner(topo, generate_workload(spec, seed))._preload(db)
    cells = [[v.cells for chain in t.rows.values() for v in chain] for t in tables]
    state = (cells, topo.store_wal_buffer.durable, topo.store_wal_buffer.pending_len,
             topo.dbwal_buffer.durable, dict(topo.sealed_store.blocks),
             [e for e in topo.trace.events if e[0].startswith("Block")])
    topo.client.flush_log(checkpoint=True)
    snapshots = topo.priv_snapshots
    return state + ({name: snapshots.get(name) for name in snapshots.names()},)


@settings(max_examples=15, deadline=None, database=None)
@given(seed=st.integers(0, 2**16), tables=st.integers(1, 2),
       rows=st.integers(1, 150), batch_size=st.integers(2, 256),
       cache=st.sampled_from([None, 1, 3]))
@example(seed=3, tables=2, rows=150, batch_size=256, cache=1)
def test_preload_batching_changes_no_durable_byte(seed, tables, rows, batch_size,
                                                  cache):
    """The preload stores the same values in the same order at any batch
    size: one ingest per value and batch_size values per message give the
    same FIDs, journal bytes, sealed blocks, block I/O and image."""
    spec = _small_spec(tables=tables, rows_per_table=rows, batch_size=1)
    one = _preload_state(seed, spec, cache)
    batched = _preload_state(seed, replace(spec, batch_size=batch_size), cache)
    assert batched == one


def test_privacy_crash_between_preload_ingests():
    """A privacy crash between two of the preload's ingest messages loses
    what no checkpoint covered and leaves no dangling FID; what an earlier
    checkpoint made durable, and no row claims, orphan_gc reclaims."""
    spec = _small_spec()
    topo = ZoneTopology(3, batch_size=spec.batch_size)
    request = topo.channel.request
    ingests = []

    def request_then_crash(raw):
        response = request(raw)
        if raw[0] == m.MSG_INGEST:
            ingests.append(raw)
            # another client's maintenance checkpoints the batch
            topo.client.flush_log(checkpoint=True)
            topo.privacy.crash()
        return response

    topo.channel.request = request_then_crash
    report = topo.run_program(generate_workload(spec, 3))
    assert report.crashed_at == "privacy-unavailable"
    assert len(ingests) == 1
    topo.channel.request = request
    recovery = topo.recover_all()
    assert recovery.invariant.violations == []
    assert recovery.invariant.orphans == spec.batch_size
    assert topo.integrity.db.orphan_gc() == spec.batch_size
    after = topo.check_invariant()
    assert after.holds and after.orphans == 0


def test_crash_after_read_only_commits_reads_back_replay_state(monkeypatch):
    """Read-only commits do not flush or checkpoint, so no checkpoint keeps
    a block sealed during the run when both zones crash. Recovery must
    bring every row back at its replayed value, never as a wrong value.
    No checkpoint holds the preload's secrets either: recovery leaves the
    partitions empty, recovery deletes every sealed copy, since no
    checkpoint keeps one, and restore writes each secret back from its
    recipe, so no sealed copy is ever opened."""
    _crash_after_read_only_commits(monkeypatch, flushed=False)


def test_crash_after_read_only_commits_drops_stale_sealed_copies(monkeypatch):
    """As above, with a privacy checkpoint between the preload's two
    commits, as an integrity checkpoint would ask for in a longer run: the
    first table's secrets are durable in the copies it keeps, and recovery
    rebuilds them from those. Every copy sealed after it is deleted as
    stale, the second table's secrets come back from their recipes, and no
    fault later meets a stale copy (no stale_dropped)."""
    _crash_after_read_only_commits(monkeypatch, flushed=True)


def _crash_after_read_only_commits(monkeypatch, flushed: bool) -> None:
    if flushed:
        preload = _Runner._preload

        def preload_with_a_checkpoint(runner, db):
            commit = db.commit

            def commit_then_checkpoint(txn):
                commit(txn)
                db.commit = commit  # the first table's commit only
                db.flush_privacy(checkpoint=True)

            db.commit = commit_then_checkpoint
            return preload(runner, db)

        monkeypatch.setattr(_Runner, "_preload", preload_with_a_checkpoint)
    preloaded, preload_program = _range_select_run()
    _Runner(preloaded, preload_program)._preload(preloaded.integrity.db)
    topo, program = _range_select_run()
    topo.run_program(program)
    assert topo.privacy.atrest.sealer.seals > preloaded.privacy.atrest.sealer.seals
    secrets = 2 * sum(len(decl.rows) for decl in program.tables)
    assert len(topo.integrity.db.recipes) == (secrets // 2 if flushed else secrets)
    stale = len(topo.sealed_store.blocks) - len(topo.sealed_store.kept)
    assert stale > 0 and bool(topo.sealed_store.kept) == flushed
    topo.privacy.crash()
    topo.integrity.crash()
    before = len(topo.trace)
    assert topo.recover_all().invariant.holds
    assert topo.integrity.db.recipes == {}
    assert [k for k, _ in topo.trace.events[before:]].count("BlockDrop") == stale

    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    assert _visible_rows(topo) == [
        {row_id: (cells[1], cells[2]) for row_id, cells in
         shadow.db.quiescent_rows(t).items()}
        for t in range(program.spec.tables)]
    assert topo.privacy.atrest.stale_dropped == 0


# (sealed blocks, blocks the table partitions span) after a cold WRITE_ONLY
# run, and again after both zones crash and recover
_PINNED_SEALED_AREA = ((10, 10), (10, 10))


def test_sealed_area_holds_only_blocks_that_back_values():
    """Vacuum shrinks the size-class buckets, and each block a bucket
    shrinks past leaves the sealed area (a BlockDrop in the trace), so the
    sealed area never outgrows the blocks the live values span, before or
    after recovery."""
    spec = _small_spec(mode=Mode.WRITE_ONLY, rows_per_table=100, duration_ops=200)
    topo = ZoneTopology(3, batch_size=spec.batch_size, cache_capacity_blocks=4)
    topo.run_program(generate_workload(spec, 3))

    def sealed_and_spanned():
        store = topo.privacy.store
        return (len(topo.sealed_store.blocks),
                sum(len(store.partition_blocks(t.partition_id))
                    for t in topo.integrity.db.tables_by_idx))

    after_run = sealed_and_spanned()
    assert any(kind == "BlockDrop" for kind, _ in topo.trace.events)
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert (after_run, sealed_and_spanned()) == _PINNED_SEALED_AREA


def test_recovery_retires_sealed_copies_past_a_buckets_end():
    """Blocks sealed from puts that never became durable survive a crash of
    both zones, but recovery does not bring the puts back. It retires each
    such sealed copy (a BlockDrop), so the sealed area again holds only the
    blocks the recovered buckets span."""
    topo = ZoneTopology(3, cache_capacity_blocks=1)
    pid = topo.client.create_partition()
    topo.client.flush_log()
    for i in range(200):
        envelope = topo.client_encrypt(pad_sensitive(encode_int64(i)))
        topo.client.ingest(1, [envelope], 1, pid)
    topo.privacy.atrest.flush_dirty()
    assert len(topo.sealed_store.blocks) == 7  # 200 values of 128 B
    topo.privacy.crash()
    topo.integrity.crash()
    before = len(topo.trace.events)
    assert topo.recover_all().invariant.holds
    assert topo.privacy.store.partition_blocks(pid) == []
    assert topo.sealed_store.blocks == {}
    assert [kind for kind, _ in topo.trace.events[before:]].count("BlockDrop") == 7


@pytest.mark.parametrize("seed, ops", [(1, 204), (2, 205)])
def test_a_torn_tail_is_cut_before_the_next_commit(seed, ops):
    """A crash in the middle of a synced record, here the first delete
    record of the sync that makes vacuum's first MSG_DELETE batch durable,
    of which only 13 bytes reach the disk, leaves a torn tail. Recovery
    cuts it before the restore, so the restored secrets and those of a row
    committed afterwards survive the next crash of both zones."""
    spec = WorkloadSpec(mode=Mode.WRITE_ONLY, tables=2, rows_per_table=50,
                        duration_ops=ops, threads_simulated=2, batch_size=16)
    topo = ZoneTopology(seed, batch_size=spec.batch_size)
    crash_at(topo, lambda w: w.method == "sync" and w.kind == wal.KIND_DELETE
             and w.zone == "privacy", torn_bytes=13)
    assert topo.run_workload(spec).crashed_at == topo.fired.label
    assert topo.fired.kind == wal.KIND_DELETE and topo.fired.size > 13
    torn = topo.store_wal_buffer.durable_len
    at_restore = []
    restore = topo.client.restore

    def recorded(items, batch_size):
        at_restore.append(topo.store_wal_buffer.durable_len)
        return restore(items, batch_size)

    topo.client.restore = recorded
    assert topo.recover_all().invariant.holds
    assert at_restore and at_restore[0] < torn
    assert restart_violations(topo) == 0
