import pytest

from fidstore.errors import NotLive, SchemaMismatch, TypeMismatch, WriteConflict
from fidstore.integrity_dbms import Column, ColumnType, Predicate
from fidstore.privacy_proxy import OpKind, ValueType, decode_int64, encode_int64
from fidstore.zone_sim import ZoneTopology

SCHEMA = [
    Column("id", ColumnType.PLAIN_INT),
    Column("k", ColumnType.SENSITIVE_INT),
    Column("note", ColumnType.PLAIN_BYTES),
]


@pytest.fixture
def topo():
    return ZoneTopology(321, batch_size=32)


def _ingest_int(topo, query_id, value):
    return topo.client.ingest(query_id, topo.client_encrypt(encode_int64(value)))


def _reveal_int(topo, query_id, fid):
    return decode_int64(topo.client_decrypt(topo.client.reveal(query_id, fid)))


def _insert(topo, db, table, txn, key, value):
    fid = _ingest_int(topo, txn.query_id, value)
    return db.insert_row(txn, table, [key, fid, b"n"])


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


def test_insert_promotes_each_sensitive_field(topo):
    db = topo.integrity.db
    schema = SCHEMA + [Column("extra", ColumnType.SENSITIVE_INT)]
    table = db.create_table("t", schema)
    txn = db.begin()
    f1 = _ingest_int(topo, txn.query_id, 7)
    f2 = _ingest_int(topo, txn.query_id, 8)
    before = topo.client.promote_calls
    db.insert_row(txn, table, [1, f1, b"x", f2])
    assert topo.client.promote_calls - before == 2
    db.commit(txn)


def test_plain_only_insert_no_privacy_calls(topo):
    db = topo.integrity.db
    table = db.create_table("t", [Column("id", ColumnType.PLAIN_INT),
                                  Column("note", ColumnType.PLAIN_BYTES)])
    trips_before = topo.channel.round_trips
    txn = db.begin()
    db.insert_row(txn, table, [1, b"plain"])
    assert topo.channel.round_trips == trips_before
    db.commit(txn)  # commit still orders the journals (one flush RPC)
    assert topo.channel.round_trips == trips_before + 1


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
        new_fid = _ingest_int(topo, txn.query_id, 999)
        db.update_row(txn, table, 1, {"k": new_fid})
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
    db.update_row(txn, table, 1, {"k": _ingest_int(topo, txn.query_id, 200)})
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
    db.update_row(t1, table, 1, {"k": _ingest_int(topo, t1.query_id, 6)})
    with pytest.raises(WriteConflict):
        db.update_row(t2, table, 1, {"k": _ingest_int(topo, t2.query_id, 7)})
    db.abort(t2)
    db.commit(t1)
    # a txn whose snapshot predates t1's commit also conflicts
    t3 = db.begin()
    db.commit(db.begin())  # advance commit sequence
    stale = db.begin()
    db.update_row(stale, table, 1, {"k": _ingest_int(topo, stale.query_id, 8)})
    db.commit(stale)
    with pytest.raises(WriteConflict):
        db.update_row(t3, table, 1, {"k": _ingest_int(topo, t3.query_id, 9)})
    db.abort(t3)


def test_commit_ordering_events(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    for i in range(5):
        txn = db.begin()
        _insert(topo, db, table, txn, i + 1, i)
        db.commit(txn)
    events = topo.protocol_events
    for txn_id in {t for _, t in events}:
        flush_idx = events.index(("privacy_flush_done", txn_id))
        commit_idx = events.index(("db_commit_durable", txn_id))
        assert flush_idx < commit_idx


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
                          {"k": _ingest_int(topo, txn.query_id, 0)})
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
    db.update_row(txn, table, 1, {"k": _ingest_int(topo, txn.query_id, 77)})
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
    db.update_row(txn, table, 1, {"k": _ingest_int(topo, txn.query_id, 60)})
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
        db.update_row(txn, table, 1, {"k": _ingest_int(topo, txn.query_id, i)})
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
        db.update_row(txn, table, key, {"k": _ingest_int(topo, txn.query_id, -key)})
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
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    setup = db.begin()
    for key in range(1, 1001):
        _insert(topo, db, table, setup, key, key)
    db.commit(setup)

    txn = db.begin()
    agg = db.sum_column(txn, table, "k")
    assert _reveal_int(topo, txn.query_id, agg) == 500500
    empty = db.create_table("empty", list(SCHEMA))
    zero = _ingest_int(topo, txn.query_id, 0)
    agg = db.sum_column(txn, empty, "k", zero_ref=zero)
    assert _reveal_int(topo, txn.query_id, agg) == 0
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
    refs = [ingest(1, topo.client_encrypt(encode_int64(v)))
            for v in (1, 2, 3, 4, 100)]
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

    from fidstore.zone_sim import CrashPoint, CrashPointId, CrashTarget
    topo.inject_crash(CrashPoint(CrashPointId.RANDOM_BYTE, CrashTarget.BOTH,
                                 at_occurrence=0))
    assert topo.integrity.crashed
    topo.recover_all()
    fresh = topo.integrity.db.begin()
    assert fresh.txn_id > highest
    topo.integrity.db.abort(fresh)


def test_stale_temp_fid_raises_not_live(topo):
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    fid = _ingest_int(topo, txn.query_id, 5)
    topo.client.end_query(txn.query_id)  # drops the temp partition under it
    with pytest.raises(NotLive):
        db.insert_row(txn, table, [1, fid, b"x"])
    db.abort(txn)
