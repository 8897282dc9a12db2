import struct
import zlib

import pytest

from fidstore.errors import (
    CorruptLog,
    NotLive,
    SchemaMismatch,
    TypeMismatch,
    WriteConflict,
    WrongPartitionKind,
)
from fidstore.integrity_dbms import DB_REMOVE, Column, ColumnType, Predicate
from fidstore.messages import MSG_INGEST
from fidstore.privacy_proxy import (
    QUERY_TEMP_TARGET,
    ClientEnvelope,
    OperatorRequest,
    OpKind,
    ValueType,
    decode_int64,
    encode_int64,
)
from fidstore.wal import DELETE_REC, KIND_DELETE, journal_after, read_frames
from fidstore.workload import SUM, TableDecl, WorkloadProgram, WorkloadSpec
from fidstore.zone_sim import CrashTarget, ZoneTopology, _Runner

from .crashes import commit_sync

SCHEMA = [
    Column("id", ColumnType.PLAIN_INT),
    Column("k", ColumnType.SENSITIVE_INT),
    Column("note", ColumnType.PLAIN_BYTES),
]


@pytest.fixture
def topo():
    return ZoneTopology(321, batch_size=32)


def _ingest_int(topo, query_id, value, target=QUERY_TEMP_TARGET):
    """An int64 secret's FID, ingested alone in one MSG_INGEST."""
    envelope = topo.client_encrypt(encode_int64(value))
    (fid,) = topo.client.ingest(query_id, [envelope], 1, target)
    return fid


def _reveal_int(topo, query_id, fid):
    return decode_int64(topo.client_decrypt(topo.client.reveal(query_id, fid)))


def _envelope(topo, value):
    """An int64 secret as the client envelope a row write takes."""
    return ClientEnvelope.from_bytes(topo.client_encrypt(encode_int64(value)))


def _insert(topo, db, table, txn, key, value):
    return db.insert_row(txn, table, [key, _envelope(topo, value), b"n"])


def _record_writes(topo) -> list:
    """Arms topo, which must not be armed yet: its write record, which
    fills with its durable writes from now on."""
    assert topo.writes is None
    return topo.record_writes()


def test_begin_ids_distinct(topo):
    db = topo.integrity.db
    t1, t2 = db.begin(), db.begin()
    assert t1.txn_id != t2.txn_id
    db.abort(t1)
    db.abort(t2)


def test_snapshot_excludes_uncommitted(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    writer = db.begin()
    _insert(topo, db, table, writer, 1, 42)
    reader = db.begin()
    assert db.visible_version(table, 1, reader) is None
    db.commit(writer)
    # still invisible to the old snapshot, visible to a new one
    assert db.visible_version(table, 1, reader) is None
    late = db.begin()
    assert db.visible_version(table, 1, late) is not None
    db.abort(reader)
    db.abort(late)


def _kinds(topo) -> list[int]:
    """The kind of every message sent so far, as the adversary trace saw it."""
    return [arg for kind, arg in topo.trace.events if kind == "OpKindObserved"]


def test_insert_promotes_each_sensitive_field(topo):
    """insert_row sends nothing: the txn holds its row's client envelopes
    until its commit writes them in one backend call, one MSG_INGEST for
    the row's two sensitive fields, and nothing is promoted."""
    db = topo.integrity.db
    schema = SCHEMA + [Column("extra", ColumnType.SENSITIVE_INT)]
    table = db.create_table("t", schema)
    txn = db.begin()
    before = len(_kinds(topo))
    db.insert_row(txn, table, [1, _envelope(topo, 7), b"x", _envelope(topo, 8)])
    assert len(_kinds(topo)) == before and table.rows[1][0].cells[1] is None
    db.commit(txn)
    assert _kinds(topo)[before:] == [MSG_INGEST]
    reader = db.begin()
    cells = db.visible_version(table, 1, reader).cells
    assert [_reveal_int(topo, reader.query_id, cells[i]) for i in (1, 3)] == [7, 8]
    db.abort(reader)


def test_a_ref_another_row_version_holds_is_refused(topo):
    """A row stores only refs its engine wrote for it: inserting row 2 or
    updating it with row 1's FID raises before any message and changes
    nothing, so updating row 2 and vacuuming cannot release row 1's
    secret."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 1)
    _insert(topo, db, table, txn, 2, 2)
    db.commit(txn)
    k1 = table.rows[1][0].cells[1]
    txn = db.begin()
    trips = topo.channel.round_trips
    with pytest.raises(SchemaMismatch):
        db.insert_row(txn, table, [3, k1, b"n"])
    with pytest.raises(SchemaMismatch):
        db.update_row(txn, table, 2, {"k": k1})
    assert topo.channel.round_trips == trips
    assert 3 not in table.rows and len(table.rows[2]) == 1
    assert not (txn.write_set or txn.pending or txn.staged)
    db.update_row(txn, table, 2, {"k": _envelope(topo, 3)})
    db.commit(txn)
    db.vacuum(table)
    assert topo.check_invariant().holds
    reader = db.begin()
    assert _reveal_int(topo, reader.query_id, k1) == 1
    db.abort(reader)


def test_a_refused_row_claims_nothing(topo):
    """A row is checked whole before anything is installed: when one cell
    holds a ref, the insert or update is refused, no write of its other
    cells is held, and a retry with client envelopes succeeds with nothing
    orphaned."""
    db = topo.integrity.db
    table = db.create_table("t", [Column("id", ColumnType.PLAIN_INT),
                                  Column("c", ColumnType.SENSITIVE_INT),
                                  Column("a", ColumnType.SENSITIVE_INT)])
    txn = db.begin()
    db.insert_row(txn, table, [1, _envelope(topo, 1), _envelope(topo, 2)])
    db.commit(txn)
    a = table.rows[1][0].cells[2]
    txn = db.begin()
    with pytest.raises(SchemaMismatch):
        db.insert_row(txn, table, [2, _envelope(topo, 3), a])
    with pytest.raises(SchemaMismatch):
        db.update_row(txn, table, 1, {"c": _envelope(topo, 4), "a": a})
    assert 2 not in table.rows and len(table.rows[1]) == 1
    assert not (txn.write_set or txn.pending or txn.promoted)
    db.insert_row(txn, table, [2, _envelope(topo, 3), _envelope(topo, 5)])
    db.update_row(txn, table, 1, {"c": _envelope(topo, 4), "a": _envelope(topo, 6)})
    db.commit(txn)
    report = topo.check_invariant()
    assert report.holds and report.orphans == 0


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_the_engine_refuses_a_value_it_did_not_write(backend):
    """Every ref a row holds is one its engine wrote for that cell. A stored
    ref (a FID, or on the cipher path a zone envelope) handed to insert_row
    or update_row, and an operator write that reads any ref but the one of
    the cell it replaces, that an insert makes at all, or that does not
    store a value in the table's partition, each raise before any message
    is sent, with nothing installed or held."""
    topo = ZoneTopology(321, backend=backend, batch_size=32)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 1)
    _insert(topo, db, table, txn, 2, 2)
    db.commit(txn)
    k1, k2 = (table.rows[key][0].cells[1] for key in (1, 2))
    pid = table.partition_id
    delta = topo.client_encrypt(encode_int64(5))

    def add(*operands, destination=pid, op=OpKind.ADD):
        return OperatorRequest(op, ValueType.INT64, list(operands), destination, delta)

    txn = db.begin()
    trips = topo.channel.round_trips
    refused = [
        (SchemaMismatch, lambda: db.insert_row(txn, table, [3, k1, b"n"])),
        (SchemaMismatch, lambda: db.update_row(txn, table, 2, {"k": k1})),
        (WrongPartitionKind, lambda: db.update_row(txn, table, 2, {"k": add(k1)})),
        (WrongPartitionKind, lambda: db.update_row(txn, table, 2, {"k": add(k2, k1)})),
        (WrongPartitionKind, lambda: db.insert_row(txn, table, [3, add(k1), b"n"])),
        (WrongPartitionKind, lambda: db.update_row(
            txn, table, 2, {"k": add(k2, destination=None)})),
        (WrongPartitionKind, lambda: db.update_row(
            txn, table, 2, {"k": add(k2, op=OpKind.CMP_LT)})),
    ]
    for error, call in refused:
        with pytest.raises(error):
            call()
    assert topo.channel.round_trips == trips
    assert 3 not in table.rows and len(table.rows[2]) == 1
    assert not (txn.write_set or txn.pending or txn.staged)
    db.update_row(txn, table, 2, {"k": add(k2)})
    db.commit(txn)
    reader = db.begin()
    got = [db.visible_version(table, key, reader).cells[1] for key in (1, 2)]
    reveal = db.backend.reveal
    assert [decode_int64(topo.client_decrypt(reveal(reader.query_id, ref)))
            for ref in got] == [1, 7]
    db.abort(reader)


def test_plain_only_insert_no_privacy_calls(topo):
    db = topo.integrity.db
    table = db.create_table("t", [Column("id", ColumnType.PLAIN_INT),
                                  Column("note", ColumnType.PLAIN_BYTES)])
    written = _record_writes(topo)
    trips_before = topo.channel.round_trips
    txn = db.begin()
    db.insert_row(txn, table, [1, b"plain"])
    assert topo.channel.round_trips == trips_before
    db.commit(txn)  # no secret to make durable: only the commit record
    assert topo.channel.round_trips == trips_before
    assert [commit_sync(w) for w in written] == [True]


def test_schema_validation(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    with pytest.raises(SchemaMismatch):
        db.insert_row(txn, table, [1, 2])  # arity
    with pytest.raises(SchemaMismatch):
        db.insert_row(txn, table, ["no", 2, b"x"])  # plain-int type
    db.abort(txn)


def test_update_then_abort_restores_reads(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 100)
    db.commit(setup)

    txn = db.begin()
    for _ in range(5):
        db.update_row(txn, table, 1, {"k": _envelope(topo, 999)})
        db.send_writes(txn)
    db.abort(txn)

    reader = db.begin()
    version = db.visible_version(table, 1, reader)
    assert _reveal_int(topo, reader.query_id, version.cells[1]) == 100
    db.abort(reader)


def test_update_commit_old_fid_reclaimed_only_after_vacuum(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 100)
    db.commit(setup)
    old_fid = table.rows[1][0].cells[1]

    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 200)})
    db.commit(txn)

    reader = db.begin()
    version = db.visible_version(table, 1, reader)
    assert _reveal_int(topo, reader.query_id, version.cells[1]) == 200
    db.abort(reader)

    assert topo.client.is_live(old_fid)  # still live until vacuum
    reclaimed = db.vacuum(table)
    assert reclaimed == 1
    assert not topo.client.is_live(old_fid)


def test_first_updater_wins(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 5)
    db.commit(setup)

    t1, t2 = db.begin(), db.begin()
    db.update_row(t1, table, 1, {"k": _envelope(topo, 6)})
    with pytest.raises(WriteConflict):
        db.update_row(t2, table, 1, {"k": _envelope(topo, 7)})
    db.abort(t2)
    db.commit(t1)
    # a txn whose snapshot predates t1's commit also conflicts
    t3 = db.begin()
    db.commit(db.begin())  # advance commit sequence
    stale = db.begin()
    db.update_row(stale, table, 1, {"k": _envelope(topo, 8)})
    db.commit(stale)
    with pytest.raises(WriteConflict):
        db.update_row(t3, table, 1, {"k": _envelope(topo, 9)})
    db.abort(t3)


def test_commit_ordering_events(topo):
    """Each writing commit makes one durable write, its DB_COMMIT's sync,
    after its writes are sent, and that record is durable when it returns;
    a read-only commit writes nothing."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    written = _record_writes(topo)
    for i in range(5):
        txn = db.begin()
        _insert(topo, db, table, txn, i + 1, i)
        sent, durable = topo.channel.round_trips, db.dbwal.durable_len
        db.commit(txn)
        assert topo.channel.round_trips == sent + 1  # its ingest
        assert len(written) == i + 1 and commit_sync(written[-1])
        assert db.dbwal.durable_len == durable + written[-1].size
    reader = db.begin()
    assert db.visible_version(table, 1, reader) is not None
    db.commit(reader)
    assert len(written) == 5


def test_read_only_commit_sends_nothing(topo):
    """A txn that staged nothing commits without the two-zone protocol,
    yet takes a commit sequence number and leaves the active set. It names
    no row version, so the engine keeps no commit seq for it."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 7)
    db.commit(setup)
    reader = db.begin()
    version = db.visible_version(table, 1, reader)
    assert _reveal_int(topo, reader.query_id, version.cells[1]) == 7
    trips, durable = topo.channel.round_trips, db.dbwal.durable_len
    written, seq = _record_writes(topo), db.next_commit_seq
    db.commit(reader)
    assert topo.channel.round_trips == trips
    assert db.dbwal.durable_len == durable
    assert written == []
    assert reader.state.name == "COMMITTED"
    assert reader.txn_id not in db.committed
    assert db.committed == {setup.txn_id: seq - 1}
    assert db.next_commit_seq == seq + 1
    assert reader.txn_id not in db.active_txns


def test_abort_many_updates_restores_all(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    for key in range(1, 11):
        _insert(topo, db, table, setup, key, key * 10)
    db.commit(setup)

    txn = db.begin()
    for key in range(1, 11):
        for _ in range(10):
            db.update_row(txn, table, key,
                          {"k": _envelope(topo, 0)})
    db.abort(txn)

    reader = db.begin()
    for key in range(1, 11):
        version = db.visible_version(table, key, reader)
        assert _reveal_int(topo, reader.query_id, version.cells[1]) == key * 10
    db.abort(reader)


def test_abort_readonly_txn_no_store_effect(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 1)
    db.commit(setup)
    live_before = topo.client.list_live(table.partition_id)
    txn = db.begin()
    db.visible_version(table, 1, txn)
    db.abort(txn)
    assert topo.client.list_live(table.partition_id) == live_before


def test_abort_then_vacuum_deletes_new_fids(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 1)
    db.commit(setup)

    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 77)})
    db.send_writes(txn)  # as a read of its own row would
    promoted = list(txn.promoted)
    db.abort(txn)
    assert all(topo.client.is_live(f) for f in promoted)
    reclaimed = db.vacuum(table)
    assert reclaimed == len(promoted) == 1
    assert not any(topo.client.is_live(f) for f in promoted)


def test_vacuum_respects_old_snapshots(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 50)
    db.commit(setup)
    old_reader = db.begin()  # snapshot before the update

    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 60)})
    db.commit(txn)

    assert db.vacuum(table) == 0  # old version still visible to old_reader
    version = db.visible_version(table, 1, old_reader)
    assert _reveal_int(topo, old_reader.query_id, version.cells[1]) == 50
    db.abort(old_reader)
    assert db.vacuum(table) == 1


def test_vacuum_k_updates_reclaims_k(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 0)
    db.commit(setup)
    k = 7
    for i in range(k):
        txn = db.begin()
        db.update_row(txn, table, 1, {"k": _envelope(topo, i)})
        db.commit(txn)
    assert db.vacuum(table) == k


def test_live_set_after_vacuum_matches_visible_rows(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    for key in range(1, 21):
        _insert(topo, db, table, setup, key, key)
    db.commit(setup)
    for key in range(1, 21, 2):
        txn = db.begin()
        db.update_row(txn, table, key, {"k": _envelope(topo, -key)})
        db.commit(txn)
    db.vacuum(table)
    reader = db.begin()
    referenced = set()
    for key in range(1, 21):
        referenced.add(db.visible_version(table, key, reader).cells[1])
    db.abort(reader)
    assert set(topo.client.list_live(table.partition_id)) == referenced


def test_orphan_gc_clean_database_and_idempotence(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    for key in range(1, 6):
        _insert(topo, db, table, setup, key, key)
    db.commit(setup)
    assert db.orphan_gc() == 0
    assert db.orphan_gc() == 0
    active = db.begin()
    with pytest.raises(ValueError):
        db.orphan_gc()
    db.abort(active)


def _delete_records(topo) -> list[int]:
    """The FIDs of the privacy journal's durable delete records, in order."""
    return [DELETE_REC.unpack(payload)[0]
            for _, kind, payload in journal_after(topo.store_wal_buffer, 0)
            if kind == KIND_DELETE]


def test_release_sends_batch_size_refs_per_message():
    """vacuum and orphan_gc delete batch_size refs per MSG_DELETE in
    ascending FID order, journal one delete record per live ref in that
    order, and count a ref that is no longer live as not reclaimed.
    vacuum syncs its DB_REMOVE, then the privacy journal its delete
    records; orphan_gc's closing flush checkpoints, so its records are read
    when the privacy checkpoint starts, and the engine's checkpoint writes
    its image and truncates its journal last."""
    topo = ZoneTopology(322, batch_size=4)
    db = topo.integrity.db
    written = _record_writes(topo)
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    for key in range(1, 11):
        _insert(topo, db, table, setup, key, key)
    db.commit(setup)
    old = [v.cells[1] for v in (table.rows[key][0] for key in range(1, 11))]
    txn = db.begin()
    for key in range(1, 11):
        db.update_row(txn, table, key, {"k": _envelope(topo, -key)})
    db.commit(txn)
    aborted = db.begin()
    db.update_row(aborted, table, 1, {"k": _envelope(topo, 0)})
    db.send_writes(aborted)
    garbage = list(aborted.promoted)
    db.abort(aborted)
    topo.privacy.store.delete(old[0])  # reclaimed behind the engine's back
    db.flush_privacy(checkpoint=True)  # no recipe pending: vacuum opens with no flush
    deletes_before = _delete_records(topo)
    trips, n = topo.channel.round_trips, len(written)
    assert db.vacuum(table) == 10  # 11 refs, one of them not live
    assert topo.channel.round_trips - trips == 3 + 1  # ceil(11 / 4) + flush
    assert [(w.zone, w.method, w.kind) for w in written[n:]] == [
        ("integrity", "sync", DB_REMOVE), ("privacy", "sync", KIND_DELETE)]
    assert _delete_records(topo) == deletes_before + sorted(old[1:] + garbage)

    orphans = [topo.privacy.store.put(table.partition_id, encode_int64(i))
               for i in range(5)]
    journal = []
    checkpoint = topo.privacy.wal.on_checkpoint

    def read_then_checkpoint():
        journal.append(_delete_records(topo))
        checkpoint()

    topo.privacy.wal.on_checkpoint = read_then_checkpoint
    trips, n = topo.channel.round_trips, len(written)
    assert db.orphan_gc() == 5
    assert topo.channel.round_trips - trips == 1 + 2 + 1  # list, ceil(5 / 4), flush
    assert (written[n].zone, written[n].kind) == ("privacy", KIND_DELETE)
    assert [(w.method, w.name) for w in written[-2:]] == [
        ("put_atomic", "db.ckpt"), ("replace", "db.wal")]
    assert journal[-1][-5:] == sorted(orphans)
    assert topo.store_wal_buffer.durable_len == 0


def test_vacuum_that_releases_nothing_sends_nothing(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 1)
    db.commit(setup)
    db.flush_privacy(checkpoint=True)  # no recipe pending
    trips = topo.channel.round_trips
    assert db.vacuum(table) == 0
    assert topo.channel.round_trips == trips


def test_orphan_gc_reclaims_unreferenced(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    _insert(topo, db, table, setup, 1, 1)
    db.commit(setup)
    # plant an orphan directly in the store (no row references it)
    orphan = topo.privacy.store.put(table.partition_id, encode_int64(404))
    assert db.orphan_gc() == 1
    assert not topo.client.is_live(orphan)


def test_select_predicate_matches_plaintext_reference(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    values = {key: (key * 37) % 100 for key in range(1, 31)}
    setup = db.begin()
    for key, val in values.items():
        _insert(topo, db, table, setup, key, val)
    db.commit(setup)

    txn = db.begin()
    const = _ingest_int(topo, txn.query_id, 50)
    rows = db.select(txn, table, Predicate("k", OpKind.CMP_GT, const))
    got = {v.cells[0] for v in rows}
    want = {key for key, val in values.items() if val > 50}
    assert got == want
    # plain-column predicate agrees with local evaluation
    rows = db.select(txn, table, Predicate("id", OpKind.CMP_LT, 5))
    assert {v.cells[0] for v in rows} == {1, 2, 3, 4}
    db.abort(txn)


def test_sum_closed_form_and_empty(topo):
    """A SUM statement over 1 000 rows reveals their closed-form total; one
    over an empty key range reveals 0 and sends no message."""
    program = WorkloadProgram(
        spec=WorkloadSpec(batch_size=32),
        tables=[TableDecl("t", tuple(SCHEMA),
                          [(key, key, b"n") for key in range(1, 1001)])],
        txns=[])
    runner = _Runner(topo, program)
    db = topo.integrity.db
    tables = runner._preload(db)
    txn = db.begin()
    runner._execute(db, tables, txn, (SUM, 0, "k", 1, 1001))
    trips = topo.channel.round_trips
    runner._execute(db, tables, txn, (SUM, 0, "k", 1001, 1011))
    assert topo.channel.round_trips == trips
    assert runner.report.revealed == [("sum", 0, 1, 500500), ("sum", 0, 1001, 0)]
    db.abort(txn)


@pytest.mark.parametrize("name", ["fid", "cipher"])
def test_tree_aggregate_rejects_avg(name):
    """Tree levels feed partial results back in as int64 operands, which
    float64 partial averages are not: AVG_AGG is refused before any message
    is sent, while SUM_AGG still reduces over several levels."""
    topo = ZoneTopology(321, backend=name)
    client = topo.client
    ingest = client.cipher_ingest if name == "cipher" else client.ingest
    reveal = client.cipher_reveal if name == "cipher" else client.reveal
    refs = ingest(1, [topo.client_encrypt(encode_int64(v)) for v in (1, 2, 3, 4, 100)],
                  1)
    backend = topo.integrity.db.backend
    before = topo.channel.round_trips
    with pytest.raises(TypeMismatch):
        backend.aggregate(1, OpKind.AVG_AGG, ValueType.INT64, refs, 2)
    assert topo.channel.round_trips == before
    total = backend.aggregate(1, OpKind.SUM_AGG, ValueType.INT64, refs, 2)
    assert decode_int64(topo.client_decrypt(reveal(1, total))) == 110


def test_recovery_txn_ids_advance(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 9)
    db.commit(txn)
    highest = txn.txn_id

    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.integrity.crashed
    topo.recover_all()
    fresh = topo.integrity.db.begin()
    assert fresh.txn_id > highest
    topo.integrity.db.abort(fresh)


def test_stale_temp_fid_raises_not_live(topo):
    """A predicate constant ingested into its query's temporary partition
    is gone once the query ends: a select that names it raises NotLive."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 5)
    db.commit(txn)
    query = db.begin()
    const = _ingest_int(topo, query.query_id, 5)
    topo.client.end_query(query.query_id)  # drops the temp partition under it
    with pytest.raises(NotLive):
        db.select(query, table, Predicate("k", OpKind.CMP_EQ, const))
    db.abort(query)


def _hand_frame(lsn: int, kind: int, payload: bytes) -> bytes:
    body = struct.pack("<QB", lsn, kind) + payload
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


def _row_cells(fid: int, note: bytes = b"n") -> bytes:
    """A SCHEMA row's cells (Table.encode): id 1, k fid, note's length,
    then note."""
    return struct.pack("<qQI", 1, fid, len(note)) + note


def _commit(rows: list[bytes], recipes: bytes = b"", txn: int = 9) -> tuple:
    """A commit record of txn holding rows, each {u32 table, u64 row, u64
    vseq} and its cells, then recipes."""
    return 7, struct.pack("<QI", txn, len(rows)) + b"".join(rows) + recipes


def _row(cells: bytes, table: int = 0, row: int = 1, vseq: int = 2) -> bytes:
    return struct.pack("<IQQ", table, row, vseq) + cells


@pytest.mark.parametrize("kind", ["table", "commit", "remove"])
def test_engine_record_bytes(topo, kind):
    """Each engine journal record kind's durable bytes, packed by hand:
    frame {u32 len, u32 crc32}, head {u64 lsn, u8 kind}, then its payload.
    The journal holds the table's creation, the commit of an insert and
    the commit of an update of the row, each one record: {u64 txn, u32
    rows}, per row {u32 table, u64 row, u64 vseq} and its cells, then per
    fresh FID {u64 fid, u32 length} and its recipe. Then the vacuum's
    remove of the superseded version, one record: {u32 table}, then per
    version {u64 row, u64 vseq}. No record ends a version: the update's
    row implies it."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    writer = db.begin()
    first = _envelope(topo, 100)
    db.insert_row(writer, table, [1, first, b"n"])
    db.commit(writer)
    old = table.rows[1][0].cells[1]
    updater = db.begin()
    second = _envelope(topo, 200)
    db.update_row(updater, table, 1, {"k": second})
    db.commit(updater)
    new = table.rows[1][-1].cells[1]
    assert db.vacuum(table) == 1

    def commit(lsn, txn, vseq, fid, envelope):
        recipe = b"\x01" + envelope.to_bytes()
        return _hand_frame(lsn, *_commit([_row(_row_cells(fid), vseq=vseq)],
                                         struct.pack("<QI", fid, len(recipe)) + recipe,
                                         txn.txn_id))

    frames = {
        "table": [_hand_frame(1, 6, struct.pack("<III", table.partition_id, 3, 1) + b"t"
                              + struct.pack("<BI", 1, 2) + b"id"
                              + struct.pack("<BI", 3, 1) + b"k"
                              + struct.pack("<BI", 2, 4) + b"note")],
        "commit": [commit(2, writer, 1, old, first), commit(3, updater, 2, new, second)],
        "remove": [_hand_frame(4, 8, struct.pack("<I", 0) + struct.pack("<QQ", 1, 1))],
    }
    journal = db.dbwal.durable
    got, pos = [], 0
    while pos < len(journal):
        (length,) = struct.unpack_from("<I", journal, pos)
        frame = journal[pos:pos + 8 + length]
        if frame in frames[kind]:
            got.append(frame)
        pos += 8 + length
    assert pos == len(journal) == sum(map(len, sum(frames.values(), [])))
    assert got == frames[kind]


_RECIPE = struct.pack("<QI", 1 << 48, 2) + b"\x01x"  # {u64 fid, u32 length}, recipe

# hand-framed records a recovery past LSN 2 must refuse, kind 6 table, 7
# commit (_commit), 8 remove ({u32 table}, then {u64 row, u64 vseq} per
# version); kinds 1 to 5 are retired, each case in the layout it had: 1 a
# row {u64 txn, u32 table, u64 row, u64 vseq} and its cells, 2 a version's
# end, 3 a remove {u32 table, u64 row, u64 vseq}, 4 a commit {u64 txn}, 5
# a txn's recipes {u64 txn} and its items. A table record is a {u32
# partition, u32 columns, u32 name length} head and the name, then per
# column {u8 type, u32 name length} and the name. Every record is CRC-valid.
_MALFORMED = {
    "unknown-kind": [(9, b"")],
    "retired-end-kind": [(2, struct.pack("<QIQQ", 9, 0, 1, 1)
                          + struct.pack("<HIQ", 1, 8, 1 << 48))],
    "retired-insert-kind": [(1, struct.pack("<QIQQ", 9, 0, 1, 2) + _row_cells(1 << 48))],
    "retired-remove-kind": [(3, struct.pack("<IQQ", 0, 1, 1))],
    "retired-commit-kind": [(4, struct.pack("<Q", 9))],
    "retired-recipe-kind": [(5, struct.pack("<Q", 9) + _RECIPE)],
    "insert-names-no-table": [_commit([_row(_row_cells(1 << 48), table=7)])],
    "remove-names-no-table": [(8, struct.pack("<IQQ", 7, 1, 1))],
    "short-commit": [(7, struct.pack("<Q", 9))],
    "commit-of-no-row": [_commit([])],
    "txn-commits-twice": [_commit([_row(_row_cells(1 << 48))]),
                          _commit([_row(_row_cells(1 << 48), vseq=3)])],
    "short-insert": [_commit([struct.pack("<IQ", 0, 1)])],
    "row-count-overruns-record": [(7, struct.pack("<QI", 9, 2)
                                   + _row(_row_cells(1 << 48)))],
    "too-few-cells": [_commit([_row(struct.pack("<q", 1))])],
    "cells-overrun-record": [_commit([_row(_row_cells(1 << 48)[:-1])])],
    "bytes-past-cells": [_commit([_row(_row_cells(1 << 48))], b"x")],
    "short-recipe-item": [_commit([_row(_row_cells(1 << 48))],
                                  struct.pack("<Q", 1 << 48))],
    "recipe-overruns-record": [_commit([_row(_row_cells(1 << 48))],
                                       struct.pack("<QI", 1 << 48, 64) + b"\x01")],
    "bytes-past-recipes": [_commit([_row(_row_cells(1 << 48))], _RECIPE + b"x")],
    "short-remove": [(8, struct.pack("<IQ", 0, 1))],
    "bytes-past-removals": [(8, struct.pack("<IQQ", 0, 1, 1) + b"x")],
    "short-table": [(6, struct.pack("<II", 1, 0))],
    "table-name-overruns-record": [(6, struct.pack("<III", 1, 0, 9) + b"u")],
    "unknown-column-type": [(6, struct.pack("<III", 1, 1, 1) + b"u"
                             + struct.pack("<BI", 9, 1) + b"x")],
    "bytes-past-columns": [(6, struct.pack("<III", 1, 1, 1) + b"u"
                            + struct.pack("<BI", 1, 1) + b"x" + b"!")],
    "table-created-twice": [(6, struct.pack("<III", 1, 0, 1) + b"t")],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_recovery_refuses_a_malformed_record(topo, case):
    """Recovery raises CorruptLog on a record with a valid checksum that it
    cannot apply: an unknown or retired kind, a table no earlier record
    creates or one created twice, an unknown column type, a commit of no
    row or of a txn that already committed, a row count, cells or recipe
    that run past the record, or a payload too short or too long for its
    kind, instead of counting it as replayed or failing on it with another
    error."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 1)
    db.commit(txn)
    journal = topo.dbwal_buffer.durable
    assert len(read_frames(journal)) == 2  # the table, the commit
    topo.dbwal_buffer.replace(journal + b"".join(
        _hand_frame(lsn, kind, payload)
        for lsn, (kind, payload) in enumerate(_MALFORMED[case], start=3)))
    topo.integrity.crash()
    with pytest.raises(CorruptLog):
        topo.integrity.recover()


def test_recovery_reads_the_hand_framed_layouts(topo):
    """The well-formed twins of _MALFORMED's commit and remove cases
    recover: a commit of row 1's second version with its recipe, then the
    removal of its first version."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    _insert(topo, db, table, txn, 1, 1)
    db.commit(txn)
    topo.dbwal_buffer.replace(topo.dbwal_buffer.durable + b"".join(
        _hand_frame(lsn, kind, payload) for lsn, (kind, payload) in enumerate(
            [_commit([_row(_row_cells(1 << 48))], _RECIPE),
             (8, struct.pack("<IQQ", 0, 1, 1))], start=3)))
    topo.integrity.crash()
    assert topo.integrity.recover() == 4
    db = topo.integrity.db
    (version,) = db.tables["t"].rows[1]
    assert (version.vseq, version.begin_txn, version.cells) == (2, 9, [1, 1 << 48, b"n"])
    assert db.recipes == {1 << 48: b"\x01x"}


def _engine_state(db) -> tuple:
    """What a recovery rebuilds of the engine: each row's chain as (vseq,
    begin txn, end txn, cells), each table's next row id and vseq, the
    next_* counters, the commit seqs and the pending recipes."""
    return ({(t.idx, row_id): [(v.vseq, v.begin_txn, v.end_txn, v.cells) for v in chain]
             for t in db.tables_by_idx for row_id, chain in t.rows.items()},
            [(t.next_row_id, t.next_vseq) for t in db.tables_by_idx],
            (db.next_txn_id, db.next_commit_seq, db.next_lsn), db.committed,
            db.recipes)


def _torn_commit_setup(backend) -> tuple:
    """Commits rows 1 and 2, then an update of row 1; then a last txn
    updates row 2 by an ADD, inserts row 3 and commits. Returns the
    topology, the last txn and the engine journal's length before its
    commit."""
    topo = ZoneTopology(321, backend=backend, batch_size=32)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    for key in (1, 2):
        _insert(topo, db, table, txn, key, key)
    db.commit(txn)
    txn = db.begin()
    db.update_row(txn, table, 1, {"k": _envelope(topo, 10)})
    db.commit(txn)
    last = db.begin()
    db.update_row(last, table, 2, {"k": OperatorRequest(
        OpKind.ADD, ValueType.INT64, [table.rows[2][-1].cells[1]], table.partition_id,
        topo.client_encrypt(encode_int64(1)))})
    _insert(topo, db, table, last, 3, 3)
    start = topo.dbwal_buffer.durable_len
    db.commit(last)
    return topo, last, start


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_a_torn_commit_record_recovers_the_state_before_it(backend):
    """A crash that cuts the engine journal at any offset inside its last
    commit record recovers exactly what the journal without that record
    recovers: rows, next_* counters, commit seqs and pending recipes.
    Nothing of the txn survives: on fid its two fresh FIDs are orphans,
    which orphan_gc reclaims; the cipher baseline stores none."""
    topo, last, start = _torn_commit_setup(backend)
    journal = topo.dbwal_buffer.durable
    states = []
    for cut in (start, len(journal)):
        topo.integrity.crash()
        topo.dbwal_buffer.replace(journal[:cut])
        topo.integrity.recover()
        states.append(_engine_state(topo.integrity.db))
    before, after = states
    assert (0, 3) not in before[0] and (0, 3) in after[0]
    fresh = 2 if backend == "fid" else 0
    for cut in range(start + 1, len(journal)):
        topo, last, _ = _torn_commit_setup(backend)
        assert topo.dbwal_buffer.durable == journal
        topo.integrity.crash()
        topo.dbwal_buffer.replace(journal[:cut])
        report = topo.recover_all()
        assert _engine_state(topo.integrity.db) == before, cut
        assert report.invariant.holds and report.invariant.orphans == fresh
        assert topo.integrity.db.orphan_gc() == fresh
        assert topo.check_invariant().orphans == 0


def _supersession_setup(topo) -> tuple:
    """Commits rows 1 to 3, then: one txn updates row 1 twice, an update of
    row 2 sends its write and aborts, and a plain update of row 3 commits.
    Returns the table and the refs the aborted update promoted."""
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    for key in (1, 2, 3):
        _insert(topo, db, table, txn, key, key)
    db.commit(txn)
    twice = db.begin()
    for value in (10, 11):
        db.update_row(twice, table, 1, {"k": _envelope(topo, value)})
    db.commit(twice)
    aborted = db.begin()
    db.update_row(aborted, table, 2, {"k": _envelope(topo, 20)})
    db.send_writes(aborted)
    db.abort(aborted)
    plain = db.begin()
    db.update_row(plain, table, 3, {"note": b"m"})
    db.commit(plain)
    return table, aborted.promoted


def _committed_chains(db) -> dict:
    """(vseq, begin txn, end txn) of each committed version of each row,
    the end only if its txn committed."""
    committed = db.committed
    return {(t.idx, row_id): [(v.vseq, v.begin_txn,
                               v.end_txn if v.end_txn in committed else None)
                              for v in chain if v.begin_txn in committed]
            for t in db.tables_by_idx for row_id, chain in t.rows.items()}


def _vacuum_released(topo) -> list:
    """Vacuums table 0; returns the refs it released, in order."""
    db = topo.integrity.db
    release = db.backend.release
    released = []

    def record_then_release(refs, batch_size):
        released.extend(refs)
        return release(refs, batch_size)

    db.backend.release = record_then_release
    db.vacuum(db.tables_by_idx[0])
    return released


@pytest.mark.parametrize("target", [CrashTarget.INTEGRITY, CrashTarget.BOTH],
                         ids=lambda t: t.value)
def test_recovery_rebuilds_supersession_exactly(target):
    """No record ends a version, yet a crash before vacuum loses no end:
    recovery rebuilds every chain's (vseq, begin, end) as the engine held
    it, vacuum then releases exactly the refs a twin that did not crash
    releases for its superseded versions (the twin also releases the
    aborted update's refs, which recovery leaves as orphans), and
    orphan_gc leaves no orphan."""
    twin = ZoneTopology(321, batch_size=32)
    _, garbage = _supersession_setup(twin)
    twin_released = _vacuum_released(twin)
    topo = ZoneTopology(321, batch_size=32)
    _supersession_setup(topo)
    before = _committed_chains(topo.integrity.db)
    _, (_, begin, end), (_, last_begin, _) = before[(0, 1)]
    assert begin == end == last_begin  # one txn began and ended the middle version
    topo.integrity.crash()
    if target == CrashTarget.BOTH:
        topo.privacy.crash()
    assert topo.recover_all().invariant.holds
    db = topo.integrity.db
    assert _committed_chains(db) == before
    released = _vacuum_released(topo)
    assert len(released) == 2 and sorted(released + garbage) == sorted(twin_released)
    db.orphan_gc()
    report = topo.check_invariant()
    assert report.holds and report.orphans == 0
