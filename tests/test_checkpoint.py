"""Checkpoints of both zones' journals: crashes inside them, bounded
replay, recovery against the plaintext oracle, reopening a data directory,
the quiesce checkpoint that ends maintenance, the privacy checkpoint that
comes with each integrity checkpoint and writes back what it seals, the
row encodings the engine image reuses, and the image's layout: refused
when damaged or in an older layout, and enough to update every row it
holds after a recovery. Each test lowers the one shared
interval so that a small run crosses it several times in both zones."""

import os
import struct
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fidstore import atrest_storage, durability, wal, zone_sim
from fidstore.bench import lost_values, restart_violations, row_states
from fidstore.errors import CorruptLog
from fidstore.fid_codec import OFFSET_MASK
from fidstore.integrity_dbms import (
    _IMAGE_HEAD,
    _TABLE_HEAD,
    CHECKPOINT_IMAGE,
    DB_COMMIT,
    DB_REMOVE,
    Column,
    ColumnType,
)
from fidstore.mapping_store import UINT_CODES, MappingStore
from fidstore.messages import CHECKPOINT, MSG_FLUSH_LOG, _req
from fidstore.privacy_proxy import ClientEnvelope, decode_int64, encode_int64
from fidstore.wal import FRAME, REC_HEAD, read_frames
from fidstore.workload import Mode, WorkloadSpec, flatten_schedule, generate_workload
from fidstore.zone_sim import (
    CrashTarget,
    ZoneTopology,
    pad_sensitive,
    unpad_sensitive,
)

from .crashes import commit_sync, crash_at, crash_at_point, first_slot_map, writes
from .oracles import ShadowRunner

INTERVAL = 16 * 1024
SPEC = WorkloadSpec(mode=Mode.READ_WRITE, tables=2, rows_per_table=60,
                    duration_ops=600, threads_simulated=2, batch_size=16,
                    abort_ratio=0.1)


@pytest.fixture(autouse=True)
def small_interval(monkeypatch):
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", INTERVAL)


def _envelope(topo, plaintext: bytes) -> ClientEnvelope:
    """plaintext as the client envelope a row write takes."""
    return ClientEnvelope.from_bytes(topo.client_encrypt(plaintext))


def _read_rows(topo) -> list[dict]:
    """(k, c) of every row a fresh snapshot sees, per table."""
    db = topo.integrity.db
    client = topo.client
    reveal = client.cipher_reveal if topo.backend_name == "cipher" else client.reveal
    reader = db.begin()
    tables = []
    for table in db.tables_by_idx:
        rows = {}
        for row_id in table.rows:
            version = db.visible_version(table, row_id, reader)
            if version is None:
                continue
            k = decode_int64(topo.client_decrypt(reveal(reader.query_id,
                                                        version.cells[1])))
            c = unpad_sensitive(topo.client_decrypt(reveal(reader.query_id,
                                                           version.cells[2])))
            rows[row_id] = (k, c)
        tables.append(rows)
    db.abort(reader)
    client.end_query(reader.query_id)
    return tables


def _oracle_rows(program) -> list[dict]:
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    return [{row_id: (cells[1], cells[2])
             for row_id, cells in shadow.db.quiescent_rows(t).items()}
            for t in range(program.spec.tables)]


def _newest_committed(db) -> dict:
    """The newest committed version of every row, the one state recovery
    must rebuild: no snapshot outlives a crash to see an older one."""
    out = {}
    for table in db.tables_by_idx:
        for row_id, chain in table.rows.items():
            for v in reversed(chain):
                if v.begin_txn in db.committed:
                    out[(table.idx, row_id)] = (v.vseq, v.begin_txn, list(v.cells))
                    break
    return out


def _chains(db) -> dict:
    return {(table.idx, row_id): [(v.vseq, v.begin_txn, list(v.cells)) for v in chain]
            for table in db.tables_by_idx for row_id, chain in table.rows.items()}


def _permanent_mapping(topo) -> dict:
    store = topo.privacy.store
    mapping = {}
    for table in topo.integrity.db.tables_by_idx:
        for fid in store.live_fids(table.partition_id):
            mapping[fid] = store.get(fid)
    return mapping


def _crash_and_capture(point: str, target: CrashTarget):
    """Runs SPEC with a crash of target by the rule of the named point, in
    the second checkpoint of its zone; returns the topology and the newest
    committed versions and permanent secrets just before the crash."""
    topo = ZoneTopology(3, batch_size=SPEC.batch_size)
    seen = {}

    def capture():
        seen["versions"] = _newest_committed(topo.integrity.db)
        seen["mapping"] = _permanent_mapping(topo)

    chosen = crash_at_point(topo, point, nth=2, target=target, before=capture)
    report = topo.run_workload(SPEC)
    assert report.crashed_at == topo.fired.label
    assert topo.fired.ordinal == chosen[0].ordinal and seen
    return topo, seen


@pytest.mark.parametrize("point", ["integrity-checkpoint-before-truncate",
                                   "integrity-checkpoint-after-truncate"])
def test_crash_inside_integrity_checkpoint(point, integrity_checkpoints):
    """A crash just before the second integrity checkpoint truncates its
    journal, once its image is written, or just after, recovers the newest
    committed version of every row exactly once, with the same cells and
    secrets, and replays none of the covered journal."""
    topo, seen = _crash_and_capture(point, CrashTarget.BOTH)
    assert len(integrity_checkpoints) == 2
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    assert recovery.db_replayed == 0
    db = topo.integrity.db
    # recovery cuts a journal the image covers, and writes no image itself
    assert topo.dbwal_buffer.durable_len == 0
    assert len(integrity_checkpoints) == 2
    assert _chains(db) == {key: [v] for key, v in seen["versions"].items()}
    store = topo.privacy.store
    for _, _, cells in seen["versions"].values():
        for fid in (cells[1], cells[2]):
            assert store.get(fid) == seen["mapping"][fid]
    db.orphan_gc()
    assert topo.check_invariant().holds


@pytest.mark.parametrize("target", [CrashTarget.PRIVACY, CrashTarget.BOTH],
                         ids=lambda t: t.value)
@pytest.mark.parametrize("point", ["privacy-checkpoint-after-seal",
                                   "privacy-checkpoint-before-truncate",
                                   "privacy-checkpoint-after-truncate"])
def test_crash_inside_privacy_checkpoint(point, target, monkeypatch):
    """A crash in the second privacy checkpoint: just before its first slot
    map, once its seals are written, just before its journal's truncation,
    or just after it. A privacy crash inside the checkpoint fails the
    MSG_FLUSH_LOG that asked for it; recovery rebuilds exactly the image's
    secrets and
    cuts a journal prefix the image covers, and every committed row keeps
    its values. A crash between the checkpoint's seals and its marker
    leaves the last checkpoint whole: recovery rebuilds from it, deletes
    the new seals and restores from their recipes the committed secrets
    put since, which were live at the crash. After a privacy-only crash the
    engine runs on until a request needs the privacy zone, since a commit
    needs nothing from it; recovery restores the secrets of those commits
    from their recipes, and after a crash past the marker they are all the
    store gains."""
    topo, seen = _crash_and_capture(point, target)
    if target == CrashTarget.PRIVACY:
        seen["versions"] = _newest_committed(topo.integrity.db)
    # a crash before the marker leaves seals the last checkpoint does not keep
    unkept = set(topo.sealed_store.blocks) != topo.sealed_store.kept
    restored = []
    restore = MappingStore.restore

    def recorded(store, fid, secret):
        restored.append(fid)
        restore(store, fid, secret)

    monkeypatch.setattr(MappingStore, "restore", recorded)
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    after_seal = point == "privacy-checkpoint-after-seal"
    assert after_seal == unkept
    assert after_seal == bool(set(restored) & set(seen["mapping"]))
    mapping = _permanent_mapping(topo)
    held = {fid for _, _, cells in seen["versions"].values() for fid in cells[1:3]}
    kept = seen["mapping"] if not after_seal else {
        fid: value for fid, value in seen["mapping"].items() if fid in held}
    assert {fid: mapping.get(fid) for fid in kept} == kept
    new = set(mapping) - set(seen["mapping"])
    assert new <= set(restored) and (after_seal or new == set(restored))
    assert _newest_committed(topo.integrity.db) == seen["versions"]
    topo.integrity.db.orphan_gc()
    assert topo.check_invariant().holds


def test_the_put_cap_checkpoints_so_a_crash_restores_every_row(monkeypatch,
                                                               privacy_checkpoints):
    """With wal.MAX_UNSYNCED_PUTS lowered to 40 and an interval no run
    reaches, nothing but the cap checkpoints the privacy zone before
    maintenance, yet the run puts hundreds of values: each 40th put
    checkpoints, so a privacy crash loses fewer than 40 allocations of any
    partition, and recover_all restores every committed row from its
    recipes, none past the offset bound MSG_RESTORE checks."""
    monkeypatch.setattr(wal, "MAX_UNSYNCED_PUTS", 40)
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", 1 << 40)
    spec = replace(SPEC, mode=Mode.WRITE_ONLY, duration_ops=300)
    topo = ZoneTopology(23, batch_size=spec.batch_size)
    chosen = crash_at(topo, commit_sync, nth=250, after=True,
                      target=CrashTarget.PRIVACY)
    assert topo.run_workload(spec).crashed_at == topo.fired.label
    assert topo.fired.ordinal == chosen[0].ordinal
    puts = sum(topo.privacy.store.partition(t.partition_id).alloc_counter
               for t in topo.integrity.db.tables_by_idx)
    assert len(privacy_checkpoints) >= puts // 40 >= 5
    assert topo.privacy.wal.puts < 40
    before = row_states(topo)
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    assert lost_values(before, topo) == 0


def test_privacy_checkpoint_point_refuses_an_integrity_only_crash():
    """The privacy zone writes only inside its own requests and recoveries,
    so an integrity-only crash at a privacy write, here just before the
    first privacy checkpoint's truncation, is refused when the run reaches
    it; a torn crash must come at a sync of a zone it crashes."""
    topo = ZoneTopology(3, batch_size=SPEC.batch_size)
    crash_at_point(topo, "privacy-checkpoint-before-truncate",
                   target=CrashTarget.INTEGRITY)
    with pytest.raises(ValueError, match="integrity-only"):
        topo.run_workload(SPEC)
    topo = ZoneTopology(3, batch_size=SPEC.batch_size)
    crash_at(topo, writes("replace", "db.wal"), torn_bytes=1)
    with pytest.raises(ValueError, match="cannot tear"):
        topo.run_workload(SPEC)


def test_replay_is_bounded_by_the_interval(privacy_checkpoints,
                                           integrity_checkpoints):
    """A crash late in a run that crossed several checkpoints in both
    zones: each zone replays at most one interval plus one sync, and the
    recipes recovery restores fit in the integrity journal's part of it.
    Every integrity checkpoint's flush checkpoints the privacy zone too, so
    privacy replay reaches back no further than the last integrity
    checkpoint: here the privacy journal holds no record that
    checkpoint's flush made durable. The restore's closing flush
    checkpoints, so the restored secrets survive a second crash, which
    replays no record."""
    topo = ZoneTopology(5, batch_size=SPEC.batch_size)
    buffers = (topo.dbwal_buffer, topo.store_wal_buffer)
    synced = {buffer: [0] for buffer in buffers}  # bytes each sync made durable
    for buffer in buffers:
        def sized(sync=buffer.sync, buffer=buffer):
            synced[buffer].append(buffer.pending_len)
            return sync()

        buffer.sync = sized
    db = topo.integrity.db
    covered = []  # the privacy journal's durable LSN after each integrity checkpoint
    checkpoint = db.checkpoint

    def recorded():
        checkpoint()
        covered.append(topo.privacy.wal.durable_lsn)

    db.checkpoint = recorded
    chosen = crash_at(topo, commit_sync, nth=1300, after=True)
    report = topo.run_workload(replace(SPEC, duration_ops=2000))
    assert report.crashed_at == topo.fired.label
    assert topo.fired.ordinal == chosen[0].ordinal
    assert len(integrity_checkpoints) >= 3
    assert len(privacy_checkpoints) >= 3
    durable = [buffer.durable_len for buffer in buffers]
    journaled = [REC_HEAD.unpack_from(body)[0]
                 for body in read_frames(topo.store_wal_buffer.durable)]
    assert all(lsn > covered[-1] for lsn in journaled)
    restored = []
    restore = topo.client.restore

    def recorded_restore(items, batch_size):
        restored.extend(items)
        return restore(items, batch_size)

    topo.client.restore = recorded_restore
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    assert 0 < recovery.db_replayed
    assert recovery.privacy_replayed == len(journaled)
    for buffer, nbytes in zip(buffers, durable):
        assert nbytes <= INTERVAL + max(synced[buffer])
    assert restored
    assert sum(len(recipe) for _, recipe in restored) < durable[0]

    assert topo.store_wal_buffer.durable_len == 0
    mapping = _permanent_mapping(topo)  # the restored secrets among them
    topo.privacy.crash()
    topo.integrity.crash()
    recovery = topo.recover_all()
    assert recovery.invariant.holds
    assert recovery.privacy_replayed == 0
    assert _permanent_mapping(topo) == mapping


_CHECKPOINT_FLUSH = (_req(MSG_FLUSH_LOG, CHECKPOINT), b"\x00")
_CHECKPOINT_FLUSH_EVENTS = [("OpKindObserved", MSG_FLUSH_LOG),
                            ("MsgBytes", len(_CHECKPOINT_FLUSH[0])), ("MsgBytes", 1)]
_BLOCK_EVENTS = ("BlockRead", "BlockWrite", "BlockDrop")


def _without_checkpoint_flushes(messages: list, events: list) -> tuple[list, list]:
    """The messages and trace events of a run, less every MSG_FLUSH_LOG
    with the checkpoint flag."""
    kept = []
    i = 0
    while i < len(events):
        if events[i:i + 3] == _CHECKPOINT_FLUSH_EVENTS:
            i += 3
        else:
            kept.append(events[i])
            i += 1
    return [m for m in messages if m != _CHECKPOINT_FLUSH], kept


def _strip_checkpoint_events(monkeypatch, topo):
    """Makes each privacy checkpoint of topo record the span of trace
    events it emits; returns a function of the trace's events that drops
    those spans."""
    spans = []
    checkpoint = zone_sim.checkpoint_truncate

    def recorded(*args):
        start = len(topo.trace)
        try:
            checkpoint(*args)
        finally:
            spans.append((start, len(topo.trace)))

    monkeypatch.setattr(zone_sim, "checkpoint_truncate", recorded)

    def strip(events: list, emitted: list | None = None) -> list:
        """events less the checkpoints' own, which go to emitted if given."""
        inside = {i for start, end in spans for i in range(start, end)}
        if emitted is not None:
            emitted.extend(e for i, e in enumerate(events) if i in inside)
        return [e for i, e in enumerate(events) if i not in inside]

    return strip


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_checkpoints_change_no_message(backend, monkeypatch, privacy_checkpoints,
                                       integrity_checkpoints):
    """Checkpoints past the interval add one message kind's worth of
    traffic and change no other message: every other request and response,
    and the adversary trace less the block events, equal a run that
    checkpoints only in maintenance: the privacy zone in vacuum's opening
    flush, sent while a recipe is pending, and both zones in orphan_gc's
    closing flush. The messages a checkpoint adds are the MSG_FLUSH_LOGs an integrity
    checkpoint sends while a recipe is pending, each with the checkpoint
    flag, so the cipher baseline, which keeps no recipe, sends exactly the
    same messages, and its trace less the privacy checkpoints' own events
    is the same too. On fid a privacy checkpoint writes back what it seals,
    so the cache's evictions seal fewer blocks, and it draws no nonce the
    proxy would."""
    runs = []
    for interval in (INTERVAL, 1 << 40):
        monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", interval)
        topo = ZoneTopology(8, backend=backend, batch_size=SPEC.batch_size,
                            cache_capacity_blocks=4)
        strip = _strip_checkpoint_events(monkeypatch, topo)
        messages = []
        request = topo.channel.request

        def recorded(raw, request=request, messages=messages):
            response = request(raw)
            messages.append((raw, response))
            return response

        topo.channel.request = recorded
        topo.run_workload(SPEC)
        runs.append((messages, strip(topo.trace.events), len(privacy_checkpoints),
                     len(integrity_checkpoints)))
    (checkpointed, trace, privacy_before, before), (
        plain, plain_trace, privacy_after, after) = runs
    assert before >= 3 and after == before + 1
    assert privacy_before >= (3 if backend == "fid" else 1)
    maintenance = 2 if backend == "fid" else 1  # the cipher keeps no recipe
    assert privacy_after == privacy_before + maintenance
    assert plain.count(_CHECKPOINT_FLUSH) == maintenance
    if backend == "fid":
        assert checkpointed.count(_CHECKPOINT_FLUSH) > 1
        checkpointed, trace = _without_checkpoint_flushes(checkpointed, trace)
        plain, plain_trace = _without_checkpoint_flushes(plain, plain_trace)
        # an eviction seals no block a checkpoint wrote back since its write
        evicted, plain_evicted = (sum(e[0] == "BlockWrite" for e in t)
                                  for t in (trace, plain_trace))
        assert evicted < plain_evicted
        trace = [e for e in trace if e[0] not in _BLOCK_EVENTS]
        plain_trace = [e for e in plain_trace if e[0] not in _BLOCK_EVENTS]
    else:
        assert checkpointed.count(_CHECKPOINT_FLUSH) == 1
    assert checkpointed == plain
    assert trace == plain_trace


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_recovered_rows_match_the_oracle(backend, integrity_checkpoints):
    """Crash both zones after a run that checkpointed, recover twice: every
    row reads back as the plaintext replay's final state."""
    program = generate_workload(SPEC, 9)
    topo = ZoneTopology(9, backend=backend, batch_size=SPEC.batch_size)
    report = topo.run_program(program)
    assert report.invariant_holds
    assert len(integrity_checkpoints) >= 2
    expected = _oracle_rows(program)
    for _ in range(2):
        topo.privacy.crash()
        topo.integrity.crash()
        assert topo.recover_all().invariant.holds
        assert _read_rows(topo) == expected


def test_committed_holds_only_the_txns_versions_name():
    topo = ZoneTopology(4, batch_size=SPEC.batch_size)
    report = topo.run_workload(SPEC)
    db = topo.integrity.db

    def named():
        return {t for table in db.tables_by_idx for chain in table.rows.values()
                for v in chain for t in (v.begin_txn, v.end_txn)} - {None}

    assert set(db.committed) == named()
    assert len(db.committed) < report.txns_committed
    topo.integrity.crash()
    topo.recover_all()
    db = topo.integrity.db
    assert set(db.committed) == named()


def _is_snapshot_name(name: str) -> bool:
    return name.startswith("part-") and name.endswith(".map") or name in (
        wal.CKPT_MARKER, wal.EPOCH_MARKER, CHECKPOINT_IMAGE)


def test_reopening_a_data_directory_recovers_it(tmp_path, integrity_checkpoints):
    """A reopened directory recovers both zones. The snapshot stores load
    snapshots only: the journals live outside them, and a temporary file an
    interrupted atomic write left behind is skipped."""
    program = generate_workload(SPEC, 6)
    first = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    first.run_program(program)
    assert len(integrity_checkpoints) >= 1
    assert (tmp_path / "integrity" / CHECKPOINT_IMAGE).exists()
    rows = _read_rows(first)
    assert rows == _oracle_rows(program)
    del first
    (tmp_path / "privacy" / ".tmp-leftover").write_bytes(b"half a partition image")

    reopened = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    db = reopened.integrity.db
    assert [t.name for t in db.tables_by_idx] == ["sb0", "sb1"]
    assert reopened.privacy.store.partition_ids() == [
        t.partition_id for t in db.tables_by_idx]
    assert _read_rows(reopened) == rows
    assert reopened.check_invariant().holds
    for snapshots in (reopened.priv_snapshots, reopened.db_snapshots):
        assert snapshots.names()
        assert all(_is_snapshot_name(name) for name in snapshots.names())


def test_reopening_a_directory_whose_journals_were_just_truncated(tmp_path):
    """Both journals empty after the quiesce checkpoint that ends a run:
    the snapshots alone still recover the directory."""
    program = generate_workload(SPEC, 6)
    first = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    first.run_program(program)
    rows = _read_rows(first)
    assert (tmp_path / "store.wal").read_bytes() == b""
    assert (tmp_path / "db.wal").read_bytes() == b""
    del first

    reopened = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    assert [t.name for t in reopened.integrity.db.tables_by_idx] == ["sb0", "sb1"]
    assert _read_rows(reopened) == rows
    assert reopened.check_invariant().holds


def _quiesced_round(tmp_path) -> ZoneTopology:
    """A small round on a data directory. Its maintenance ends in the
    quiesce checkpoint of both zones, so both journals are empty."""
    topo = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    topo.run_program(generate_workload(SPEC, 6))
    assert topo.store_wal_buffer.durable_len == topo.dbwal_buffer.durable_len == 0
    return topo


def _map_names(tmp_path) -> list[str]:
    return sorted(name for name in os.listdir(tmp_path / "privacy")
                  if name.endswith(".map"))


def test_a_quiesced_round_leaves_only_the_images(tmp_path):
    """The engine keeps its tables in its image and journal, so after a
    quiesced round integrity/ holds db.ckpt alone. privacy/ holds one
    sealed slot map per table partition, named by the covered LSN, the
    marker, and the epoch marker once a recovery ran; sealed/ holds exactly
    one copy per block the partitions span. A reopen rebuilds each table's
    name, schema and partition."""
    first = _quiesced_round(tmp_path)
    tables = [(t.name, t.schema, t.partition_id)
              for t in first.integrity.db.tables_by_idx]
    lsn = first.privacy.wal.durable_lsn
    maps = [wal.map_name(pid, lsn) for _, _, pid in tables]
    privacy = sorted(maps + [wal.CKPT_MARKER])
    store = first.privacy.store
    spanned = sorted((pid, b) for _, _, pid in tables
                     for b in store.partition_blocks(pid))
    assert sorted(os.listdir(tmp_path / "integrity")) == [CHECKPOINT_IMAGE]
    assert sorted(os.listdir(tmp_path / "privacy")) == privacy
    assert sorted((pid, b) for pid, b, _ in first.sealed_store.blocks) == spanned
    assert len(os.listdir(tmp_path / "sealed")) == len(spanned)
    del first

    reopened = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    assert [(t.name, t.schema, t.partition_id)
            for t in reopened.integrity.db.tables_by_idx] == tables
    assert sorted(os.listdir(tmp_path / "integrity")) == [CHECKPOINT_IMAGE]
    assert sorted(os.listdir(tmp_path / "privacy")) == sorted(
        privacy + [wal.EPOCH_MARKER])
    assert len(os.listdir(tmp_path / "sealed")) == len(spanned)


@pytest.mark.parametrize("image, damage", [
    ("map", "cut"),
    ("map", "flip"),
    ("integrity/db.ckpt", "cut"),
], ids=["partition-cut", "partition-flipped", "engine-cut"])
def test_a_damaged_image_is_corrupt(tmp_path, image, damage):
    """A partition's slot map or the engine's image cut in half, or a slot
    map with byte 20 flipped (inside its tag), fails the reopen with
    CorruptLog, not with the error of the parse it broke."""
    _quiesced_round(tmp_path)
    path = (tmp_path / "privacy" / _map_names(tmp_path)[0] if image == "map"
            else tmp_path / image)
    data = bytearray(path.read_bytes())
    if damage == "cut":
        del data[len(data) // 2:]
    else:
        data[20] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptLog):
        ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))


@pytest.mark.parametrize("strike", ["last-pid", "every-pid", "older-lsn"])
def test_a_marker_rewritten_with_its_crc_is_corrupt(tmp_path, strike):
    """The marker's partition list is sealed under its covered LSN and
    epoch, so a marker rewritten behind a valid CRC, with a partition
    struck from its list, with no list at all, or naming another LSN, fails
    the reopen with CorruptLog; recovery skips no partition and deletes
    none of the copies its map keeps."""
    _quiesced_round(tmp_path)
    path = tmp_path / "privacy" / wal.CKPT_MARKER
    body = wal.unframe(path.read_bytes(), wal.CKPT_MARKER)
    head, pid_list = body[:wal.MARKER_HEAD.size], body[wal.MARKER_HEAD.size:]
    lsn, epoch = wal.MARKER_HEAD.unpack(head)
    if strike == "last-pid":
        body = head + pid_list[:-4]
    elif strike == "every-pid":
        body = head
    else:
        body = wal.MARKER_HEAD.pack(lsn - 1, epoch) + pid_list
    path.write_bytes(wal.frame(body))
    copies = sorted(os.listdir(tmp_path / "sealed"))
    with pytest.raises(CorruptLog):
        ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path / "sealed")) == copies


def test_no_secret_in_any_file_once_quiesced(tmp_path):
    """On a data directory, a committed canary secret and every preloaded
    padded c value are in no file once maintenance quiesced both zones, and
    again after a crash of both, a recovery and another quiesce: the
    privacy checkpoint keeps values only in sealed blocks, its slot maps are
    sealed, and the engine holds FIDs. A fresh reopen of the directory
    reads every committed value back. The privacy journal holds no value
    between checkpoints either (test_no_plaintext_on_disk_at_any_moment)."""
    canary = b"canary:7d1c5e0b9a"
    program = generate_workload(SPEC, 6)
    topo = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    topo.run_program(program)
    db = topo.integrity.db
    table = db.tables_by_idx[0]
    row_id = table.next_row_id
    txn = db.begin()
    topo.insert_rows(txn, table, [(row_id, 41, canary, b"")])
    db.commit(txn)
    topo.client.end_query(txn.query_id)
    expected = _oracle_rows(program)
    expected[0][row_id] = (41, canary)
    secrets = [canary] + [pad_sensitive(row[2]) for decl in program.tables
                          for row in decl.rows]

    def files() -> dict:
        return {path: path.read_bytes() for path in tmp_path.rglob("*")
                if path.is_file()}

    db.orphan_gc()
    for _ in range(2):
        assert topo.store_wal_buffer.durable_len == 0
        assert len(files()) > 5
        assert [p.name for p, data in files().items()
                if any(secret in data for secret in secrets)] == []
        topo.privacy.crash()
        topo.integrity.crash()
        assert topo.recover_all().invariant.holds
        topo.integrity.db.orphan_gc()
    assert _read_rows(topo) == expected
    del topo
    reopened = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    assert _read_rows(reopened) == expected


def _kept_copy_path(tmp_path, topo):
    """The file of one copy the last checkpoint keeps, of table 0's block 0."""
    pid = topo.integrity.db.tables_by_idx[0].partition_id
    (key,) = [k for k in topo.sealed_store.kept if k[:2] == (pid, 0)]
    return tmp_path / "sealed" / ("%x-%x-%x" % key)


@pytest.mark.parametrize("tamper", ["flip", "rollback", "rollback-renamed", "delete"])
def test_a_tampered_kept_copy_fails_recovery(tmp_path, tamper):
    """Recovery opens exactly the copies the slot maps name and rebuilds
    values from them, so a kept copy with a flipped byte, an older copy of
    the block put back in its place (under the kept copy's name, or under
    its own with the kept one gone) or a deleted kept copy fails the reopen
    with CorruptLog, with no silent rebuild. The older copy is the block's
    copy from the checkpoint before, which the later one deleted."""
    first = _quiesced_round(tmp_path)
    old_path = _kept_copy_path(tmp_path, first)
    old = old_path.read_bytes()
    db = first.integrity.db
    table = db.tables_by_idx[0]
    txn = db.begin()
    for row_id in range(1, 4):  # new secrets in table 0's first blocks
        db.update_row(txn, table, row_id,
                      {"k": _envelope(first, encode_int64(-row_id))})
    db.commit(txn)
    db.vacuum(table)
    db.orphan_gc()
    path = _kept_copy_path(tmp_path, first)
    assert path != old_path and not old_path.exists()
    del first
    if tamper == "flip":
        data = bytearray(path.read_bytes())
        data[100] ^= 0x01
        path.write_bytes(bytes(data))
    elif tamper == "rollback":
        path.write_bytes(old)
    elif tamper == "rollback-renamed":
        path.unlink()
        old_path.write_bytes(old)
    else:
        path.unlink()
    with pytest.raises(CorruptLog):
        ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))


def test_a_damaged_engine_lsn_is_corrupt(tmp_path):
    """The engine's image is CRC-framed: a flipped next_lsn in db.ckpt
    fails the reopen with CorruptLog instead of recovering silently."""
    _quiesced_round(tmp_path)
    path = tmp_path / "integrity" / CHECKPOINT_IMAGE
    good = path.read_bytes()
    damaged = bytearray(good)
    # next_lsn's low byte: the head's third u64, after next txn id and seq
    damaged[wal.FRAME.size + struct.calcsize(_IMAGE_HEAD.format[:3])] ^= 0x01
    path.write_bytes(bytes(damaged))
    with pytest.raises(CorruptLog, match="damaged"):
        ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    path.write_bytes(good)
    assert ZoneTopology(6, batch_size=SPEC.batch_size,
                        data_dir=str(tmp_path)).check_invariant().holds


def test_blocks_replay_changed_are_sealed_by_the_next_checkpoint():
    """Replay fires no block hook, so recovery hands the at-rest layer no
    current copy for a block replay changed: here the deletes of the refs
    vacuum released, which move values within their buckets. The next
    checkpoint, the one that ends the restore of the recipes the engine
    recovers, seals each such block, so a second crash recovers every
    committed value from the copies it keeps. The recovery is recover_all's,
    step by step."""
    program = generate_workload(SPEC, 15)
    topo = ZoneTopology(15, batch_size=SPEC.batch_size, cache_capacity_blocks=4)
    topo.run_program(program)  # ends in a quiesce checkpoint
    db = topo.integrity.db
    expected = _oracle_rows(program)
    txn = db.begin()
    for t, table in enumerate(db.tables_by_idx):
        for row_id in range(1, 30, 3):
            value = 1000 * t + row_id
            db.update_row(txn, table, row_id, {"k": _envelope(topo, encode_int64(value))})
            expected[t][row_id] = (value, expected[t][row_id][1])
    db.commit(txn)
    for table in db.tables_by_idx:
        # checkpoints the puts, then journals the deletes of the old refs
        assert db.vacuum(table)
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.privacy.recover() > 0  # the deletes
    atrest = topo.privacy.atrest
    store = topo.privacy.store
    spanned = {(t.partition_id, b) for t in db.tables_by_idx
               for b in store.partition_blocks(t.partition_id)}
    missing = spanned - set(atrest.copies)
    assert missing  # replay changed some blocks
    seals = atrest.sealer.seals
    topo.integrity.recover()
    topo.integrity.db.restore_recipes()  # every FID is live: only the checkpoint
    topo.integrity.db.privacy_restarted()
    assert atrest.sealer.seals - seals >= len(missing)
    assert not spanned - set(atrest.copies)
    for _ in range(2):
        topo.privacy.crash()
        topo.integrity.crash()
        assert topo.recover_all().privacy_replayed == 0
        assert _read_rows(topo) == expected


def test_a_checkpoints_copies_stay_until_the_next_marker():
    """A kept copy stays in the sealed area while evictions seal newer
    copies of its block, so a crash before the next marker still finds it;
    right after each checkpoint the area holds exactly one copy per
    spanned block. The checkpoint wrote every block back, so only blocks
    written since are sealed again: each updated row gets a new k and c,
    which dirties both size classes' tail blocks of both partitions, more
    than the 2-block cache holds."""
    topo = ZoneTopology(16, batch_size=SPEC.batch_size, cache_capacity_blocks=2)
    sealed = topo.sealed_store
    topo.run_workload(replace(SPEC, mode=Mode.WRITE_ONLY))

    def one_copy_per_spanned_block():
        store = topo.privacy.store
        spanned = sorted((t.partition_id, b) for t in topo.integrity.db.tables_by_idx
                         for b in store.partition_blocks(t.partition_id))
        assert sorted(key[:2] for key in sealed.blocks) == spanned
        assert sealed.kept == set(sealed.blocks)

    one_copy_per_spanned_block()
    kept = set(sealed.kept)
    db = topo.integrity.db
    txn = db.begin()
    for table in db.tables_by_idx:
        for row_id in range(1, 61, 2):
            db.update_row(txn, table, row_id, {
                "k": _envelope(topo, encode_int64(row_id)),
                "c": _envelope(topo, pad_sensitive(b"c%d" % row_id))})
    db.send_writes(txn)
    assert sealed.kept == kept <= set(sealed.blocks)
    assert len(sealed.blocks) > len(kept)  # evictions sealed newer copies
    db.commit(txn)
    for table in db.tables_by_idx:
        db.vacuum(table)
    db.orphan_gc()
    one_copy_per_spanned_block()
    assert sealed.kept != kept


def _plaintext_files(root, secrets: list[bytes],
                     scanned: dict | None = None) -> list[str]:
    """The names of the files under root that hold one of secrets. A file
    whose bytes scanned, if given, holds from an earlier call is clean and
    not searched again; scanned keeps each file's bytes."""
    found = []
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if scanned is not None:
            if scanned.get(path) == data:
                continue
            scanned[path] = data
        if any(secret in data for secret in secrets):
            found.append(path.name)
    return found


@pytest.mark.parametrize("point", [
    None,
    ("privacy-checkpoint-after-seal", CrashTarget.PRIVACY, 1),
    ("privacy-checkpoint-before-truncate", CrashTarget.PRIVACY, 1),
    ("privacy-checkpoint-after-truncate", CrashTarget.BOTH, 1),
    ("after-db-commit", CrashTarget.PRIVACY, 40),
], ids=lambda p: "no-crash" if p is None else f"{p[0]}-{p[1].value}")
def test_no_plaintext_on_disk_at_any_moment(tmp_path, monkeypatch, point):
    """On a data directory, after every durable write of a write-only round
    (each journal sync, each snapshot, sealed copy and truncation), no file
    holds a preloaded or SET 32-byte c value: a secret reaches disk only
    sealed, and the privacy journal holds FIDs and partition ids. So too
    through a crash at a privacy checkpoint, or after a commit, its
    recovery and restore, a quiesce, and a crash and recovery of both
    zones."""
    spec = replace(SPEC, mode=Mode.WRITE_ONLY, rows_per_table=30, duration_ops=120)
    program = generate_workload(spec, 21)
    secrets = [row[2] for decl in program.tables for row in decl.rows] + [
        s[4] for txn in program.txns for s in txn.statements if s[2] == "c"]
    assert len(secrets) > 2 * spec.rows_per_table
    (tmp_path / "probe").mkdir()
    (tmp_path / "probe" / "file").write_bytes(b"x" + pad_sensitive(secrets[-1]))
    assert _plaintext_files(tmp_path / "probe", secrets) == ["file"]
    data_dir = tmp_path / "data"
    found = []
    scans = []
    clean: dict = {}  # each file's bytes as the last scan found them

    def scanning(write):
        def durable_write(*args):
            result = write(*args)
            scans.append(1)
            found.extend(_plaintext_files(data_dir, secrets, clean))
            return result
        return durable_write

    monkeypatch.setattr(durability.DurableBuffer, "sync",
                        scanning(durability.DurableBuffer.sync))
    monkeypatch.setattr(durability, "atomic_write", scanning(durability.atomic_write))
    monkeypatch.setattr(atrest_storage, "atomic_write",
                        scanning(atrest_storage.atomic_write))
    topo = ZoneTopology(21, batch_size=spec.batch_size, cache_capacity_blocks=2,
                        data_dir=str(data_dir))
    if point is not None:
        name, target, nth = point
        crash_at_point(topo, name, nth=nth, target=target)
    report = topo.run_program(program)
    if point is not None:
        assert report.crashed_at == topo.fired.label
        assert topo.recover_all().invariant.holds
        topo.integrity.db.orphan_gc()
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert len(scans) > 20 and found == []


def test_a_scan_without_maintenance_leaves_no_plaintext(tmp_path, privacy_checkpoints,
                                                        integrity_checkpoints):
    """A range-select program runs no maintenance, so it never quiesces;
    its preload crosses the interval, and the integrity checkpoint there
    checkpoints the privacy zone too, so on its data directory no file
    holds a preloaded k or padded c value and the privacy journal is empty
    once the run ends, and again after a crash of both zones and a
    recovery. At 35 rows a table the preload's integrity journal crosses
    the interval at the second table's commit, while the privacy journal
    stays under it, as in a full-size scan."""
    spec = replace(SPEC, mode=Mode.RANGE_SELECT, rows_per_table=35, duration_ops=200)
    program = generate_workload(spec, 18)
    topo = ZoneTopology(18, batch_size=spec.batch_size, cache_capacity_blocks=2,
                        data_dir=str(tmp_path))
    def no_maintenance():
        raise AssertionError("a range-select run runs no maintenance")

    topo.integrity.db.orphan_gc = no_maintenance
    assert topo.run_program(program).invariant_holds
    assert len(integrity_checkpoints) == len(privacy_checkpoints) == 1
    secrets = [value for decl in program.tables for row in decl.rows
               for value in (encode_int64(row[1]), pad_sensitive(row[2]))]

    def assert_no_plaintext():
        assert (tmp_path / "store.wal").read_bytes() == b""
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert len(files) > 5
        assert [path.name for path in files
                if any(secret in path.read_bytes() for secret in secrets)] == []

    assert_no_plaintext()
    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert_no_plaintext()
    assert _read_rows(topo) == _oracle_rows(program)


def _blocks_of_live_values(topo) -> dict:
    """(partition, block index) -> a live FID whose value sits in it, for
    every block of the tables' partitions."""
    store = topo.privacy.store
    out = {}
    for table in topo.integrity.db.tables_by_idx:
        p = store.partition(table.partition_id)
        for fid in store.live_fids(p.pid):
            out.setdefault((p.pid, store._block_of(p.slots[fid & OFFSET_MASK])), fid)
    return out


def test_a_privacy_checkpoint_writes_back_what_it_seals():
    """Behind a 2-block cache, an integrity checkpoint's flush checkpoints
    the privacy zone, which seals both dirty resident blocks as their
    current copies and leaves them clean. Evicting them then seals nothing
    (no seal, no journal record, no BlockWrite), and a fault on one opens
    the checkpoint's copy. A block written after the checkpoint is sealed
    once, when it is evicted, and not again when it is evicted clean. A
    crash of both zones recovers every row at the plaintext replay's final
    state and these updates."""
    program = generate_workload(SPEC, 17)
    topo = ZoneTopology(17, batch_size=SPEC.batch_size, cache_capacity_blocks=2)
    assert topo.run_program(program).invariant_holds
    atrest, store, db = topo.privacy.atrest, topo.privacy.store, topo.integrity.db
    expected = _oracle_rows(program)

    def update_k(row_id: int, values: list) -> list:
        """Commits k = values[t] for row_id of the first len(values) tables
        t; returns the blocks the new values went to."""
        txn = db.begin()
        tables = db.tables_by_idx[:len(values)]
        for t, value in enumerate(values):
            db.update_row(txn, tables[t], row_id,
                          {"k": _envelope(topo, encode_int64(value))})
            expected[t][row_id] = (value, expected[t][row_id][1])
        db.commit(txn)
        blocks = []
        for table in tables:
            ref = table.rows[row_id][-1].cells[1]
            p = store.partition(table.partition_id)
            blocks.append((p.pid, store._block_of(p.slots[ref & OFFSET_MASK])))
        topo.client.end_query(txn.query_id)
        return blocks

    def block_events(kind: str, key) -> int:
        return topo.trace.events.count((kind, (key[0] << 40) | key[1]))

    written = update_k(1, [-1, -2])
    assert sorted(atrest._lru) == sorted(written) and all(atrest._lru.values())
    assert db.recipes
    db.checkpoint()  # its flush carries the checkpoint flag
    assert not db.recipes and not any(atrest._lru.values())
    for key in written:
        assert (*key, atrest.copies[key][0]) in topo.sealed_store.kept

    blocks = _blocks_of_live_values(topo)
    others = [key for key in blocks if key not in written]
    seals, opens, lsn = atrest.sealer.seals, atrest.sealer.opens, topo.privacy.wal.next_lsn
    block_writes = sum(e[0] == "BlockWrite" for e in topo.trace.events)
    for key in others[:2]:
        store.get(blocks[key])
    assert not set(written) & set(atrest._lru)  # both evicted
    assert atrest.sealer.seals == seals
    assert topo.privacy.wal.next_lsn == lsn
    assert sum(e[0] == "BlockWrite" for e in topo.trace.events) == block_writes
    reads = block_events("BlockRead", written[0])
    store.get(blocks[written[0]])
    assert block_events("BlockRead", written[0]) == reads + 1
    assert (*written[0], atrest.copies[written[0]][0]) in topo.sealed_store.kept

    (later,) = update_k(2, [-3])
    sealed_before = block_events("BlockWrite", later)
    seals = atrest.sealer.seals
    assert atrest._lru[later]
    for _ in range(2):  # evicted dirty, then faulted back and evicted clean
        for key in [k for k in blocks if k[0] != later[0]][:2]:
            store.get(blocks[key])
        assert later not in atrest._lru
        assert block_events("BlockWrite", later) == sealed_before + 1
        assert atrest.sealer.seals == seals + 1
        store.get(blocks[later])

    topo.privacy.crash()
    topo.integrity.crash()
    assert topo.recover_all().invariant.holds
    assert _read_rows(topo) == expected


def test_seals_after_a_recovery_go_on_past_the_kept_counters():
    """The at-rest layer's seal counter goes on after a recovery from the
    highest counter the checkpoint's slot maps keep. One table whose
    partition spans block 0 alone: its quiesce checkpoint keeps copy
    (p, 0, 1). After a privacy crash and recovery, a commit dirties block
    0, and a checkpoint seals it again and crashes before its marker. That
    seal takes counter 2: had the counter restarted, it would take 1 and
    overwrite the kept copy with a seal of the new epoch, which the next
    recovery could not open. Recovery opens the kept copy and every row
    reads back its committed k."""
    topo = ZoneTopology(5, batch_size=8)
    db = topo.integrity.db
    table = db.create_table("t", [Column("id", ColumnType.PLAIN_INT),
                                  Column("k", ColumnType.SENSITIVE_INT)])
    expected = {}

    def insert(values) -> None:
        txn = db.begin()
        for value in values:
            expected[db.insert_row(
                txn, table, [value, _envelope(topo, encode_int64(value))])] = value
        db.commit(txn)
        topo.client.end_query(txn.query_id)

    insert([1, 2, 3])
    db.orphan_gc()  # the quiesce checkpoint
    pid = table.partition_id
    assert list(topo.privacy.store.partition_blocks(pid)) == [0]
    assert topo.sealed_store.kept == {(pid, 0, 1)}
    topo.privacy.crash()
    assert topo.recover_all().invariant.holds
    assert topo.privacy.atrest.counter == 1

    insert([4])
    assert topo.privacy.atrest._lru[(pid, 0)]  # dirty
    crash_at(topo, first_slot_map())
    with pytest.raises(zone_sim.ZoneCrashed):
        db.orphan_gc()
    assert set(topo.sealed_store.blocks) == {(pid, 0, 1), (pid, 0, 2)}
    assert topo.recover_all().invariant.holds
    db = topo.integrity.db
    reader = db.begin()
    k = {row_id: decode_int64(topo.client_decrypt(topo.client.reveal(
        reader.query_id, db.visible_version(table, row_id, reader).cells[1])))
        for row_id in db.tables["t"].rows}
    assert k == expected


def test_a_repeated_integrity_lsn_is_corrupt():
    """LSNs increase along the integrity journal too, also past the image
    of the quiesce checkpoint: a record that repeats the LSN before it fails
    recovery instead of replaying twice."""
    topo = ZoneTopology(2, batch_size=SPEC.batch_size)
    topo.run_workload(replace(SPEC, duration_ops=40))
    assert topo.dbwal_buffer.durable_len == 0
    _commit_plain_update(topo)
    journal = topo.dbwal_buffer.durable
    last = journal[-(FRAME.size + len(read_frames(journal)[-1])):]
    topo.dbwal_buffer.replace(journal + last)
    topo.integrity.crash()
    with pytest.raises(CorruptLog, match="not increasing"):
        topo.integrity.recover()


def _commit_plain_update(topo) -> None:
    """Commits a new plain pad for row 1 of table 0: two journal records,
    its insert and its commit."""
    db = topo.integrity.db
    txn = db.begin()
    db.update_row(txn, db.tables_by_idx[0], 1, {"pad": b"repad"})
    db.commit(txn)


WRITING_MODES = [Mode.READ_WRITE, Mode.WRITE_ONLY, Mode.INSERT_ONLY]


@pytest.mark.parametrize("backend", ["fid", "cipher"])
@pytest.mark.parametrize("mode", WRITING_MODES, ids=lambda m: m.value)
def test_maintenance_ends_in_a_checkpoint_of_both_zones(mode, backend):
    """After a writing run both journals are empty: durable state is images
    and sealed blocks only, so recovering both zones replays nothing and
    every row reads back as the plaintext replay's final state."""
    spec = replace(SPEC, mode=mode)
    program = generate_workload(spec, 12)
    topo = ZoneTopology(12, backend=backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=4)
    assert topo.run_program(program).invariant_holds
    assert topo.store_wal_buffer.durable_len == 0
    assert topo.dbwal_buffer.durable_len == 0
    assert topo.store_wal_buffer.pending_len == topo.dbwal_buffer.pending_len == 0
    topo.privacy.crash()
    topo.integrity.crash()
    recovery = topo.recover_all()
    assert recovery.privacy_replayed == 0
    assert recovery.db_replayed == 0
    assert recovery.invariant.holds and not recovery.invariant.violations
    assert _read_rows(topo) == _oracle_rows(program)


@pytest.mark.parametrize("point, target", [
    (point, target) for point in ("privacy-checkpoint-after-seal",
                                  "privacy-checkpoint-before-truncate",
                                  "privacy-checkpoint-after-truncate")
    for target in (CrashTarget.PRIVACY, CrashTarget.BOTH)] + [
    (point, target) for point in ("integrity-checkpoint-before-truncate",
                                  "integrity-checkpoint-after-truncate")
    for target in (CrashTarget.INTEGRITY, CrashTarget.BOTH)],
    ids=lambda x: getattr(x, "value", x))
def test_crash_inside_the_quiesce_checkpoint(monkeypatch, point, target):
    """With an interval no run reaches, the engine's first checkpoint is
    the one orphan_gc ends with, and the privacy zone's second: its first
    is vacuum's opening flush, sent while the run's recipes are pending. A
    crash just before its first slot map, before and after each zone's
    truncation, recovers with no violation, every row at the plaintext
    replay's final state, and survives a later commit and crash. The
    engine's truncation is the run's last write, so the crash right after
    it is a crash after the run."""
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", 1 << 40)
    program = generate_workload(SPEC, 13)
    topo = ZoneTopology(13, batch_size=SPEC.batch_size, cache_capacity_blocks=4)
    db = topo.integrity.db
    phases = []
    orphan_gc = db.orphan_gc

    def tracked():
        phases.append("orphan_gc")
        return orphan_gc()

    db.orphan_gc = tracked
    if point == "integrity-checkpoint-after-truncate":
        written = topo.record_writes()
        topo.run_program(program)
        assert written[-1].method == "replace" and written[-1].name == "db.wal"
        topo.integrity.crash()
        if target == CrashTarget.BOTH:
            topo.privacy.crash()
    else:
        nth = 2 if point.startswith("privacy") else 1
        chosen = crash_at_point(topo, point, nth=nth, target=target)
        topo.run_program(program)
        assert topo.fired.ordinal == chosen[0].ordinal
    assert phases == ["orphan_gc"]
    recovery = topo.recover_all()
    assert recovery.invariant.holds and not recovery.invariant.violations
    assert _read_rows(topo) == _oracle_rows(program)
    assert restart_violations(topo) == 0


def _image_from_cells(db) -> bytes:
    """The engine image with every version's encoding rebuilt from its
    cells."""
    for table in db.tables_by_idx:
        for chain in table.rows.values():
            for version in chain:
                version.wire = table.encode(version.cells)
    return db._image()


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_image_reuses_each_versions_encoding(backend):
    """The image built from the encodings versions keep is byte-identical
    to one re-encoded from their cells: after a run, and after a recovery
    from an image plus a replay, whose versions keep the bytes they were
    decoded from."""
    topo = ZoneTopology(14, backend=backend, batch_size=SPEC.batch_size)
    topo.run_workload(SPEC)
    db = topo.integrity.db
    image = db._image()
    assert wal.frame(image) == topo.db_snapshots.get(CHECKPOINT_IMAGE)  # at quiesce
    assert _image_from_cells(db) == image

    txn = db.begin()
    table = db.tables_by_idx[0]
    for row_id in range(1, 6):
        db.update_row(txn, table, row_id, {"k": _envelope(topo, encode_int64(row_id))})
    db.commit(txn)
    topo.privacy.crash()
    topo.integrity.crash()
    recovery = topo.recover_all()
    assert recovery.db_replayed > 0
    db = topo.integrity.db
    image = db._image()
    assert wal.frame(image) != topo.db_snapshots.get(CHECKPOINT_IMAGE)
    assert _image_from_cells(db) == image


@pytest.mark.parametrize("journaled", [False, True])
def test_every_imaged_row_is_visible_and_updatable_after_recovery(journaled):
    """The image holds no commit seq: recovery gives each imaged writer one
    seq below next_commit_seq. A txn begun after recovery sees every imaged
    row as the engine held it, and a commit journaled after the image too,
    and updates each without WriteConflict; a txn begun after that commit
    sees every update."""
    topo = ZoneTopology(6, batch_size=SPEC.batch_size)
    topo.run_program(generate_workload(SPEC, 6))
    db = topo.integrity.db
    if journaled:
        txn = db.begin()
        db.update_row(txn, db.tables_by_idx[0], 1, {"pad": b"journaled"})
        db.commit(txn)
    before = _newest_committed(db)
    topo.integrity.crash()
    topo.recover_all()
    db = topo.integrity.db
    rows = [(t, row_id) for t in db.tables_by_idx for row_id in t.rows]
    assert len(rows) == len(before) == 2 * SPEC.rows_per_table
    writer = db.begin()
    seen = {}
    for t, row_id in rows:
        v = db.visible_version(t, row_id, writer)
        seen[(t.idx, row_id)] = (v.vseq, v.begin_txn, list(v.cells))
        db.update_row(writer, t, row_id, {"pad": b"after"})
    assert seen == before
    db.commit(writer)
    reader = db.begin()
    assert all(db.visible_version(t, row_id, reader).cells[3] == b"after"
               for t, row_id in rows)
    db.abort(reader)


# The engine's layout before its cells were fixed by the schema and its
# version heads narrowed, kept only here to build durable bytes in it.
_OLD_IMAGE_HEAD = struct.Struct("<QQQII")  # txn id, seq, lsn, tables, writers
_OLD_TXN_SEQ = struct.Struct("<QQ")
_OLD_TABLE_HEAD = struct.Struct("<QQQ")  # next row id, next vseq, versions
_OLD_VERSION_HEAD = struct.Struct("<QQQ")  # row id, vseq, begin txn
# The journal layout before a commit became one record: a record per row
# version (kind 1, _OLD_ROW_REC and its cells), one for the txn's recipes
# (kind 5, its txn, then {u64 fid, u32 length} and the recipe per FID), one
# for its commit (kind 4, its txn), and one per removed version (kind 3).
_OLD_ROW_REC = struct.Struct("<QIQQ")  # txn, table, row, vseq
_OLD_TXN = struct.Struct("<Q")
_OLD_REMOVE_REC = struct.Struct("<IQQ")  # table, row, vseq


def _old_cells(table, cells) -> bytes:
    """A u16 cell count, then each cell: an i64, or a u32 length and bytes
    (an 8-byte FID for a sensitive cell)."""
    out = [struct.pack("<H", len(cells))]
    for col, cell in zip(table.schema, cells):
        if col.ctype == ColumnType.PLAIN_INT:
            out.append(struct.pack("<q", cell))
        else:
            raw = struct.pack("<Q", cell) if isinstance(cell, int) else cell
            out += (struct.pack("<I", len(raw)), raw)
    return b"".join(out)


def _old_image(db) -> bytes:
    writers, body = {}, []
    for table in db.tables_by_idx:
        versions = []
        for row_id, chain in table.rows.items():
            v = chain[-1]
            writers[v.begin_txn] = db.committed[v.begin_txn]
            versions.append(_OLD_VERSION_HEAD.pack(row_id, v.vseq, v.begin_txn)
                            + _old_cells(table, v.cells))
        body += (table.wire(), _OLD_TABLE_HEAD.pack(table.next_row_id, table.next_vseq,
                                                    len(versions)), *versions)
    head = _OLD_IMAGE_HEAD.pack(db.next_txn_id, db.next_commit_seq, db.next_lsn,
                                len(db.tables_by_idx), len(writers))
    return b"".join([head, *(_OLD_TXN_SEQ.pack(t, q) for t, q in writers.items()),
                     *body])


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_the_older_engine_layout_is_refused(backend):
    """Recovery keeps no reader for the layouts the engine wrote before: an
    image with cell counts and full-width heads, a journal of a record per
    row version, recipe list, commit and removed version, and such a
    journal whose cells have counts, each raise CorruptLog, while the same
    state in the current layout (one commit record, one remove record)
    recovers: the row's new version alone, with its recipe on fid."""
    topo = ZoneTopology(6, backend=backend, batch_size=SPEC.batch_size)
    topo.run_program(generate_workload(SPEC, 6))  # quiesced: one version a row
    db = topo.integrity.db
    image = topo.db_snapshots.get(CHECKPOINT_IMAGE)
    table = db.tables_by_idx[0]
    old = table.rows[1][-1]
    cells = old.cells[:3] + [b"journaled"]
    txn, lsn, vseq = db.next_txn_id, db.next_lsn, table.next_vseq
    recipes = {cells[1]: b"\x01r"} if backend == "fid" else {}
    items = b"".join(struct.pack("<QI", fid, len(r)) + r for fid, r in recipes.items())

    def parent(encoded) -> bytes:
        row = wal.frame_record(lsn, 1, _OLD_ROW_REC.pack(txn, 0, 1, vseq) + encoded)
        recipe = [wal.frame_record(lsn + 1, 5, _OLD_TXN.pack(txn) + items)] if items else []
        return b"".join([
            row, *recipe, wal.frame_record(lsn + 2, 4, _OLD_TXN.pack(txn)),
            wal.frame_record(lsn + 3, 3, _OLD_REMOVE_REC.pack(0, 1, old.vseq))])

    current = (wal.frame_record(lsn, DB_COMMIT, struct.pack("<QIIQQ", txn, 1, 0, 1, vseq)
                                + table.encode(cells) + items)
               + wal.frame_record(lsn + 1, DB_REMOVE,
                                  struct.pack("<IQQ", 0, 1, old.vseq)))
    cases = [(wal.frame(_old_image(db)), b""), (image, parent(table.encode(cells))),
             (image, parent(_old_cells(table, cells)))]
    for old_image, journal in cases:
        topo.integrity.crash()
        topo.db_snapshots.put_atomic(CHECKPOINT_IMAGE, old_image)
        topo.dbwal_buffer.replace(journal)
        with pytest.raises(CorruptLog):
            topo.integrity.recover()
    topo.db_snapshots.put_atomic(CHECKPOINT_IMAGE, image)
    topo.dbwal_buffer.replace(current)
    assert topo.integrity.recover() == 2
    db = topo.integrity.db
    assert [(v.vseq, v.begin_txn, v.cells) for v in db.tables_by_idx[0].rows[1]] == [
        (vseq, txn, cells)]
    assert db.recipes == recipes


@pytest.fixture(scope="module", params=["fid", "cipher"])
def quiesced_image(request) -> tuple:
    """A small in-memory round's topology and program, the engine image
    body its quiesce checkpoint wrote, the table encodings and version
    chains a recovery from that image rebuilds, and _image_fields."""
    program = generate_workload(SPEC, 6)
    topo = ZoneTopology(6, backend=request.param, batch_size=SPEC.batch_size)
    topo.run_program(program)
    body = wal.unframe(topo.db_snapshots.get(CHECKPOINT_IMAGE), CHECKPOINT_IMAGE)
    topo.integrity.crash()
    topo.integrity.recover()
    db = topo.integrity.db
    return (topo, program, body, ([t.wire() for t in db.tables_by_idx], _chains(db)),
            _image_fields(db, body))


def _image_fields(db, body: bytes) -> list:
    """Fields of the image body that recovery must refuse with another
    value, each (offset, struct code, a strategy of such values): a width
    byte other than its own; the table count, the first table's version
    count or the last version's pad length run past the end (the image
    ends with that pad, the last variable-length cell); next txn id, or the first table's next row id or
    next vseq, at most a value the image holds; the second version's row
    id repeats the first's."""
    first, last = db.tables_by_idx[0], db.tables_by_idx[-1]
    widths = body[_IMAGE_HEAD.size - 3:_IMAGE_HEAD.size]
    table_head = _IMAGE_HEAD.size + len(first.wire())
    row1, row2 = (chain[-1] for chain in list(first.rows.values())[:2])
    row2_at = table_head + _TABLE_HEAD.size + sum(widths) + len(row1.wire)
    last_row = last.rows[next(reversed(last.rows))][-1]
    pad = last_row.cells[3]
    pad_length_at = (len(body) - len(last_row.wire)
                     + struct.calcsize(last.cells.format[:4]))  # after 3 fields
    past_the_end = st.integers(len(body), 2**32 - 1)  # a table or version takes a byte
    return [
        *((_IMAGE_HEAD.size - 3 + i, "B", st.integers(0, 255).filter(lambda v, w=w: v != w))
          for i, w in enumerate(widths)),
        (_IMAGE_HEAD.size - 7, "I", past_the_end),
        (table_head + 16, "I", past_the_end),
        (pad_length_at, "I", st.integers(len(pad) + 1, 2**32 - 1)),
        (0, "Q", st.integers(0, max(v.begin_txn for t in db.tables_by_idx
                                    for chain in t.rows.values() for v in chain))),
        (table_head, "Q", st.integers(0, max(first.rows))),
        (table_head + 8, "Q", st.integers(0, max(c[-1].vseq for c in first.rows.values()))),
        (row2_at, UINT_CODES[widths[0]], st.just(row1.row_id)),
    ]


def _damage(data, body: bytes, fields: list) -> tuple[bytes, bool]:
    """One damaged copy of the image body, and whether recovery must refuse
    it: a cut, a flipped byte, or a field set to a value _image_fields
    names."""
    kind = data.draw(st.sampled_from(["cut", "flip", "field"]))
    if kind == "cut":
        return body[:data.draw(st.integers(0, len(body) - 1))], True
    damaged = bytearray(body)
    if kind == "flip":
        damaged[data.draw(st.integers(0, len(body) - 1))] ^= data.draw(st.integers(1, 255))
        return bytes(damaged), False
    offset, code, values = data.draw(st.sampled_from(fields))
    struct.pack_into("<" + code, damaged, offset, data.draw(values))
    return bytes(damaged), True


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_damaged_engine_image_is_refused_or_read_exactly(quiesced_image, data):
    """Recovery from a damaged db.ckpt, re-framed under a valid CRC, raises
    CorruptLog and nothing else, or reads exactly the bytes it was given:
    the engine it rebuilds writes the same image back. Cuts, width bytes
    other than the ones the counters need, counts or lengths that run past
    the end, counters below a value the image holds and a repeated row are
    always refused. A flipped byte may leave a well-formed image of another
    database, which no decoder can tell from the real one; when it leaves
    the tables and rows as they were, the invariant and the oracle
    read-back hold."""
    topo, program, body, clean, fields = quiesced_image
    damaged, refused = _damage(data, body, fields)
    topo.integrity.crash()
    topo.db_snapshots.put_atomic(CHECKPOINT_IMAGE, wal.frame(damaged))
    try:
        topo.integrity.recover()
    except CorruptLog:
        return
    finally:
        topo.db_snapshots.put_atomic(CHECKPOINT_IMAGE, wal.frame(body))
    assert not refused
    db = topo.integrity.db
    assert db._image() == damaged
    if ([t.wire() for t in db.tables_by_idx], _chains(db)) == clean:
        assert topo.check_invariant().holds
        assert _read_rows(topo) == _oracle_rows(program)


@pytest.mark.parametrize("target", [CrashTarget.INTEGRITY, CrashTarget.BOTH],
                         ids=lambda t: t.value)
@pytest.mark.parametrize("backend, named", [("fid", "unknown"), ("fid", "shared"),
                                            ("cipher", "shared")])
def test_a_table_naming_a_partition_it_does_not_own_is_corrupt(backend, named,
                                                               target):
    """A quiesced round's image with its first table's partition id
    flipped, re-framed under a valid CRC: a table that names a partition
    the privacy zone does not hold, or the other table's, makes recover_all
    raise CorruptLog, with either zone crashed too."""
    topo = ZoneTopology(6, backend=backend, batch_size=SPEC.batch_size)
    topo.run_program(generate_workload(SPEC, 6))
    body = bytearray(wal.unframe(topo.db_snapshots.get(CHECKPOINT_IMAGE),
                                 CHECKPOINT_IMAGE))
    first, other = (t.partition_id for t in topo.integrity.db.tables_by_idx)
    flipped = first ^ 0x80 if named == "unknown" else other
    assert (flipped in topo.privacy.store.partition_ids()) == (named == "shared")
    struct.pack_into("<I", body, _IMAGE_HEAD.size, flipped)  # its _TABLE_DEF's first field
    topo.db_snapshots.put_atomic(CHECKPOINT_IMAGE, wal.frame(bytes(body)))
    topo.integrity.crash()
    if target == CrashTarget.BOTH:
        topo.privacy.crash()
    with pytest.raises(CorruptLog):
        topo.recover_all()
