"""Fail-stop on I/O errors: a durable write that raises OSError stops the
zone that made it, and crash recovery takes over. Each test runs on a data
directory and injects the failure at the OS layer (the fail_io fixture),
then checks which zone stopped, the invariant after recover_all, and that
a fresh reopen of the directory rebuilds the same state."""

import os

import pytest

from fidstore.errors import Unavailable
from fidstore.integrity_dbms import Column, ColumnType, TxnState
from fidstore.privacy_proxy import ClientEnvelope, decode_int64, encode_int64
from fidstore.zone_sim import ZoneCrashed, ZoneTopology

from .test_checkpoint import _newest_committed, _permanent_mapping

SEED = 5
BATCH = 8
SCHEMA = [
    Column("id", ColumnType.PLAIN_INT),
    Column("k", ColumnType.SENSITIVE_INT),
    Column("note", ColumnType.PLAIN_BYTES),
]


def _open(tmp_path) -> ZoneTopology:
    return ZoneTopology(SEED, batch_size=BATCH, data_dir=str(tmp_path))


def _envelope(topo, value: int) -> ClientEnvelope:
    """value as the client envelope a row write takes: the commit that
    stores it ingests it into the table's partition and journals its
    recipe."""
    return ClientEnvelope.from_bytes(topo.client_encrypt(encode_int64(value)))


def _insert(topo, txn, table, value: int) -> int:
    return topo.integrity.db.insert_row(
        txn, table, [value, _envelope(topo, value), b"n"])


def _setup(tmp_path):
    """Rows 1-3 committed with k = 1-3, then updated to k = -1..-3 by a
    second commit; returns the topology, the table and the three refs the
    superseded versions will release."""
    topo = _open(tmp_path)
    db = topo.integrity.db
    table = db.create_table("t", list(SCHEMA))
    txn = db.begin()
    for value in (1, 2, 3):
        _insert(topo, txn, table, value)
    db.commit(txn)
    old = [table.rows[row][0].cells[1] for row in (1, 2, 3)]
    txn = db.begin()
    for row in (1, 2, 3):
        db.update_row(txn, table, row, {"k": _envelope(topo, -row)})
    db.commit(txn)
    return topo, table, old


def _state(topo) -> tuple:
    """What recovery rebuilds: each row's newest committed version and the
    secrets of the table partitions that row versions hold. An orphan whose
    put was never synced is not durable, so a reopen may lack it."""
    db = topo.integrity.db
    held = db.referenced_refs()
    return _newest_committed(db), {fid: value for fid, value
                                   in _permanent_mapping(topo).items() if fid in held}


def _k_values(topo) -> dict:
    """k of every row a fresh snapshot sees, by row id."""
    db = topo.integrity.db
    table = db.tables["t"]
    reader = db.begin()
    out = {}
    for row_id in sorted(table.rows):
        version = db.visible_version(table, row_id, reader)
        if version is not None:
            out[row_id] = decode_int64(topo.client_decrypt(
                topo.client.reveal(reader.query_id, version.cells[1])))
    db.abort(reader)
    topo.client.end_query(reader.query_id)
    return out


def _recover_and_reopen(topo, tmp_path) -> ZoneTopology:
    """recover_all, the invariant, and a reopen of the directory that
    rebuilds the same rows and secrets; returns the reopened topology."""
    report = topo.recover_all()
    assert report.invariant.holds
    recovered = _state(topo)
    reopened = _open(tmp_path)
    assert _state(reopened) == recovered
    assert reopened.check_invariant().holds
    return reopened


def test_failed_privacy_flush_stops_the_privacy_zone(tmp_path, fail_io):
    """A failed durable write in vacuum's opening flush, which checkpoints
    the privacy zone while recipes are pending, crashes the privacy zone:
    the checkpoint's first seal fails, the flush raises Unavailable, and so
    does any request until recovery, such as a commit that sends its
    inserts. Recovery restores from their recipes the committed secrets the
    failed checkpoint did not seal, and a txn whose insert is still pending
    stored nothing, so it survives and commits. The failed seal leaves no
    file, so the journal's LSNs still increase after a later commit, and
    the directory reopens without CorruptLog."""
    topo, table, _ = _setup(tmp_path)
    db = topo.integrity.db
    txn = db.begin()
    _insert(topo, txn, table, 4)
    failed = fail_io("fsync")
    with pytest.raises(Unavailable):
        db.vacuum(table)
    assert "_dispatch" in failed["stack"] and "flush" in failed["stack"]
    assert "vacuum" in failed["stack"] and "checkpoint_copies" in failed["stack"]
    assert topo.privacy.crashed and not topo.integrity.crashed
    assert db.dbwal.pending_len == 0 and len(table.rows[1]) == 2  # removed nothing
    later = db.begin()
    _insert(topo, later, table, 5)
    with pytest.raises(Unavailable):
        db.commit(later)
    db.abort(later)

    topo.recover_all()
    assert txn.state == TxnState.ACTIVE  # it stored nothing the crash lost
    db.commit(txn)
    txn = db.begin()
    _insert(topo, txn, table, 6)
    db.commit(txn)
    expected = {1: -1, 2: -2, 3: -3, 4: 4, 6: 6}
    assert _k_values(topo) == expected
    topo.privacy.crash()
    topo.integrity.crash()
    reopened = _recover_and_reopen(topo, tmp_path)
    assert _k_values(reopened) == expected


def test_failed_integrity_commit_sync_stops_the_integrity_zone(tmp_path, fail_io):
    """A failed sync of the commit record crashes the integrity zone: the
    commit raises ZoneCrashed, so its outcome is unknown, never a txn
    reported ABORTED that a later recovery brings back. The bytes of the
    failed sync are lost, so recovery drops the txn and its flushed secret
    is an orphan while the privacy zone holds it."""
    topo, table, _ = _setup(tmp_path)
    db = topo.integrity.db
    txn = db.begin()
    _insert(topo, txn, table, 4)
    failed = fail_io("fsync")  # a commit syncs only this journal
    with pytest.raises(ZoneCrashed, match="io_failure"):
        db.commit(txn)
    assert "_journal" in failed["stack"] and "commit" in failed["stack"]
    assert topo.integrity.crashed and not topo.privacy.crashed
    assert txn.state != TxnState.ABORTED
    reopened = _recover_and_reopen(topo, tmp_path)
    assert _k_values(topo) == _k_values(reopened) == {1: -1, 2: -2, 3: -3}
    assert topo.check_invariant().orphans == 1


def test_failed_vacuum_sync_then_recovery_reclaims_exactly(tmp_path, fail_io):
    """A failed sync of vacuum's removal records crashes the integrity zone
    before any ref is released. Recovery brings the pruned versions back,
    so the next vacuum reclaims exactly their three refs and no orphan is
    left for orphan_gc."""
    topo, table, old = _setup(tmp_path)
    trips = topo.channel.round_trips
    failed = fail_io("fsync", 5)  # the first 4 are the privacy checkpoint's
    with pytest.raises(ZoneCrashed, match="io_failure"):
        topo.integrity.db.vacuum(table)
    assert "vacuum" in failed["stack"] and "_journal" in failed["stack"]
    assert topo.channel.round_trips == trips + 1  # the flush, no MSG_DELETE
    assert topo.integrity.crashed and not topo.privacy.crashed
    _recover_and_reopen(topo, tmp_path)
    assert topo.check_invariant().orphans == 0
    db = topo.integrity.db
    assert db.vacuum(db.tables["t"]) == 3
    assert topo.check_invariant().orphans == 0
    assert not any(topo.client.is_live(fid) for fid in old)


def _create_table(topo, table):
    topo.integrity.db.create_table("u", list(SCHEMA))


def _commit_a_row(topo, table):
    db = topo.integrity.db
    txn = db.begin()
    _insert(topo, txn, table, 4)
    db.commit(txn)


def _vacuum(topo, table):
    topo.integrity.db.vacuum(table)


def _orphan_gc(topo, table):
    topo.integrity.db.orphan_gc()


# (site, the action that reaches it, the os call that fails and which of
# its calls in the action, the zone that stops, a function on the stack at
# the failing call, the file a failing os.replace targets). orphan_gc ends
# in the quiesce checkpoint of both zones: the privacy zone seals the one
# block its partition spans (copy 1 of partition 0's block 0), writes its
# slot map (named by the checkpoint's own LSN, 2, past the create record's)
# and marker, then truncates its journal; then the engine writes its image
# and truncates its journal. vacuum's opening flush runs the same privacy
# checkpoint, since the setup's recipes are pending (4 fsyncs); then vacuum
# syncs its removals and the privacy journal syncs its deletes.
# create_table syncs the privacy journal, then journals its table in its
# own.
IO_SITES = [
    ("privacy-journal-sync", _vacuum, "fsync", 6, "privacy", "_dispatch", None),
    ("privacy-checkpoint-seal", _orphan_gc, "replace", 1, "privacy",
     "checkpoint_copies", "0-0-1"),
    ("privacy-checkpoint-image", _orphan_gc, "replace", 2, "privacy",
     "checkpoint_truncate", "part-00000-0000000000000002.map"),
    ("privacy-checkpoint-marker", _orphan_gc, "replace", 3, "privacy",
     "checkpoint_truncate", "store.ckpt"),
    ("privacy-checkpoint-truncation", _orphan_gc, "replace", 4, "privacy",
     "checkpoint_truncate", "store.wal"),
    ("integrity-commit-sync", _commit_a_row, "fsync", 1, "integrity", "commit", None),
    ("integrity-vacuum-sync", _vacuum, "fsync", 5, "integrity", "vacuum", None),
    ("integrity-checkpoint-image", _orphan_gc, "replace", 5, "integrity",
     "checkpoint", "db.ckpt"),
    ("integrity-checkpoint-truncation", _orphan_gc, "replace", 6, "integrity",
     "checkpoint", "db.wal"),
    ("integrity-create-table-sync", _create_table, "fsync", 2, "integrity",
     "create_table", None),
]


@pytest.mark.parametrize("site, action, call, nth, zone, frame, target", IO_SITES,
                         ids=[s[0] for s in IO_SITES])
def test_io_failure_stops_its_zone(tmp_path, fail_io, site, action, call, nth,
                                   zone, frame, target):
    """At every durable write of both zones, an I/O failure stops exactly
    the zone that wrote; after recover_all the invariant holds and a reopen
    of the directory rebuilds the same state; vacuum and orphan_gc then
    release every superseded ref and leave only the refs rows hold."""
    topo, table, old = _setup(tmp_path)
    failed = fail_io(call, nth)
    with pytest.raises(Unavailable if zone == "privacy" else ZoneCrashed):
        action(topo, table)
    assert frame in failed["stack"]
    if target is not None:
        assert os.path.basename(failed["args"][1]) == target
    assert topo.privacy.crashed == (zone == "privacy")
    assert topo.integrity.crashed == (zone == "integrity")

    reopened = _recover_and_reopen(topo, tmp_path)
    db = reopened.integrity.db
    db.vacuum(db.tables["t"])
    db.orphan_gc()
    assert not any(reopened.client.is_live(fid) for fid in old)
    assert sorted(reopened.client.list_live(table.partition_id)) == sorted(
        db.referenced_refs())
    assert reopened.check_invariant().holds


def test_failed_epoch_write_in_recovery_then_retry(tmp_path, fail_io):
    """A failed write of the epoch marker during recovery leaves the
    privacy zone down; a second recover_all completes at epoch 1, and a
    reopen of the directory recovers once more, to epoch 2."""
    topo, _, _ = _setup(tmp_path)
    topo.privacy.crash()
    topo.integrity.crash()
    failed = fail_io("replace")
    with pytest.raises(OSError):
        topo.recover_all()
    assert "advance_epoch" in failed["stack"]
    assert os.path.basename(failed["args"][1]) == "store.epoch"
    assert topo.privacy.crashed

    assert topo.recover_all().invariant.holds
    assert topo.privacy.epoch == 1
    reopened = _open(tmp_path)
    assert reopened.check_invariant().holds
    assert reopened.privacy.epoch == 2
