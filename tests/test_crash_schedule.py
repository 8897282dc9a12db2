"""The crash schedule: a crash just before a numbered durable write.

An armed topology numbers every durable write of both zones, recovery's
too; a crash of both zones, or of one, comes just before the write its
ordinal names. These tests check the numbering and its cost, a crash inside
a recovery, a child process that exits just before a write on a data
directory, and a stateful run against the plaintext shadow engine with
crashes at drawn ordinals and cache sizes."""

import itertools
import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from fidstore import wal
from fidstore.bench import lost_values, row_states
from fidstore.errors import Unavailable, WriteConflict, ZoneCrashed
from fidstore.integrity_dbms import Column, ColumnType, Reveals
from fidstore.messages import MSG_EXEC_BATCH
from fidstore.privacy_proxy import (
    OperatorRequest,
    OpKind,
    ValueType,
    decode_int64,
    encode_int64,
)
from fidstore.workload import Mode, WorkloadSpec, generate_workload
from fidstore.zone_sim import CrashPoint, CrashTarget, ZoneTopology

from .crashes import commit_sync, crash_at, writes
from .oracles import ShadowDb
from .test_checkpoint import _read_rows

SPEC = WorkloadSpec(mode=Mode.WRITE_ONLY, tables=2, rows_per_table=30,
                    duration_ops=120, threads_simulated=2, batch_size=8)


@pytest.fixture(autouse=True)
def small_interval(monkeypatch):
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", 8 * 1024)


def _durable(topo) -> tuple:
    """Every durable byte of both zones."""
    sealed = topo.sealed_store.blocks
    return (topo.store_wal_buffer.durable, topo.dbwal_buffer.durable,
            {n: topo.priv_snapshots.get(n) for n in topo.priv_snapshots.names()},
            {n: topo.db_snapshots.get(n) for n in topo.db_snapshots.names()},
            {key: sealed[key].to_bytes() for key in sealed})


def test_an_armed_run_writes_and_leaks_what_an_unarmed_one_does():
    """Numbering the writes changes no durable byte, message or trace
    event; an unarmed topology sets no hook and keeps no record."""
    program = generate_workload(SPEC, 4)
    plain = ZoneTopology(4, batch_size=SPEC.batch_size, cache_capacity_blocks=2)
    plain.run_program(program)
    assert plain.writes is None and plain.dbwal_buffer.hook is None
    armed = ZoneTopology(4, batch_size=SPEC.batch_size, cache_capacity_blocks=2)
    written = armed.record_writes()
    armed.run_program(program)
    assert armed.trace == plain.trace
    assert _durable(armed) == _durable(plain)
    assert [w.ordinal for w in written] == list(range(1, len(written) + 1))
    assert {w.method for w in written} == {"sync", "replace", "put_atomic", "delete",
                                           "write", "discard", "retain"}


def test_a_crash_lands_before_its_write_and_the_count_carries_on():
    """A crash at ordinal k leaves the durable state the run had just
    before write k, which names the write it stopped; the count goes on
    through recovery, so a second crash can land inside it, here just
    before recovery advances the epoch."""
    dry = ZoneTopology(4, batch_size=SPEC.batch_size)
    seen = {}
    written = dry.record_writes()
    dry.on_write = lambda w: seen.setdefault(w.ordinal, _durable(dry))
    dry.run_workload(SPEC)
    k = next(w.ordinal for w in written if w.method == "put_atomic"
             and w.name == "db.ckpt")
    topo = ZoneTopology(4, batch_size=SPEC.batch_size)
    topo.inject_crash(CrashPoint(k))
    report = topo.run_workload(SPEC)
    assert report.crashed_at == topo.fired.label == written[k - 1].label
    assert _durable(topo) == seen[k]
    with pytest.raises(ValueError):
        topo.inject_crash(CrashPoint(k))  # that write has run
    epoch = k + 1  # the crashed write took ordinal k; the epoch's put is next
    topo.inject_crash(CrashPoint(epoch))
    with pytest.raises(ZoneCrashed):
        topo.recover_all()
    assert (topo.fired.method, topo.fired.name) == ("put_atomic", "store.epoch")
    assert topo.recover_all().invariant.holds
    assert topo.privacy.epoch == 1


CHILD_WRITES = {
    "commit-sync": (commit_sync, 5),
    "slot-map": (writes("put_atomic", "part-*"), 1),
    "sealed-write": (writes("write"), 3),
}


@pytest.mark.parametrize("name", CHILD_WRITES)
def test_a_child_that_exits_before_a_write_reopens_clean(tmp_path, name):
    """A forked child runs a program on a data directory and calls
    os._exit just before the write an in-memory dry run picked: an engine
    commit's sync, a privacy slot map or a sealed copy. A fresh topology
    over the directory recovers with the invariant holding, every row a
    twin crashed at the same write held committed comes back with its
    secrets, and every row reads back as the twin's after its recovery."""
    match, nth = CHILD_WRITES[name]
    program = generate_workload(SPEC, 6)
    twin = ZoneTopology(6, batch_size=SPEC.batch_size, cache_capacity_blocks=2)
    chosen = crash_at(twin, match, nth=nth)
    twin.run_program(program)
    (point,) = chosen
    assert twin.fired.ordinal == point.ordinal
    before = row_states(twin)
    twin.recover_all()

    pid = os.fork()
    if pid == 0:  # the child: no test code runs past os._exit
        try:
            topo = ZoneTopology(6, batch_size=SPEC.batch_size,
                                cache_capacity_blocks=2, data_dir=str(tmp_path))
            topo.record_writes()
            topo.on_write = lambda w: os._exit(0) if w.ordinal == point.ordinal else None
            topo.run_program(program)
        finally:
            os._exit(1)  # the write never came
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    reopened = ZoneTopology(6, batch_size=SPEC.batch_size, data_dir=str(tmp_path))
    assert reopened.check_invariant().holds
    assert lost_values(before, reopened) == 0
    assert _read_rows(reopened) == _read_rows(twin)


SCHEMA = [Column("id", ColumnType.PLAIN_INT), Column("k", ColumnType.SENSITIVE_INT)]
SLOTS = 2


class CrashMachine(RuleBasedStateMachine):
    """The engine beside the plaintext shadow engine (ShadowDb): inserts,
    ADD and SET updates, reads, commits and aborts in up to SLOTS
    concurrent txns, a read that rides in another txn's commit and crashes
    inside that commit, maintenance, and crashes of both zones or the privacy
    zone alone at a drawn ordinal of the writes to come, recovered at a
    drawn cache size. A crash resolves each open txn by what recovery
    kept: committed if the engine holds its commit, else aborted."""

    def __init__(self):
        super().__init__()
        self.topo = ZoneTopology(11, batch_size=4, cache_capacity_blocks=2)
        self.topo.record_writes()
        self.table = self.topo.integrity.db.create_table("t", list(SCHEMA))
        self.shadow = ShadowDb()
        self.shadow.create_table(0)
        self.txns = {}  # slot -> (engine txn, shadow txn)
        # the shadow's own txn ids: the engine hands a txn id out again
        # after a crash that left no record of the txn that had it
        self.shadow_ids = itertools.count(1)

    @property
    def db(self):
        return self.topo.integrity.db

    def _txn(self, slot):
        if slot not in self.txns:
            txn = self.db.begin()
            self.txns[slot] = (txn, self.shadow.begin(next(self.shadow_ids)))
        return self.txns[slot]

    def _finish(self, slot, commit: bool) -> None:
        txn, shadow_txn = self.txns.pop(slot)
        if commit:
            self.db.commit(txn)
            self.shadow.commit(shadow_txn)
        else:
            self.db.abort(txn)
            self.shadow.abort(shadow_txn)

    def _reveal(self, txn, ref) -> int:
        reveals = Reveals([(ValueType.INT64, ref)], 1)
        self.db.backend.reveal(reveals, 1)
        return self._opened(reveals)

    def _opened(self, reveals) -> int:
        [(envelope, n)] = reveals.sealed()
        return decode_int64(self.topo.client_open(envelope, n)[0])

    @rule(slot=st.integers(0, SLOTS - 1), value=st.integers(-50, 50))
    def insert(self, slot, value):
        txn, shadow_txn = self._txn(slot)
        self.shadow.tables[0]["next_row_id"] = self.table.next_row_id
        self.topo.insert_rows(txn, self.table, [(value, value)])
        self.shadow.insert(shadow_txn, 0, [value, value])

    @rule(slot=st.integers(0, SLOTS - 1), key=st.integers(1, 8),
          add=st.booleans(), value=st.integers(-50, 50))
    def update(self, slot, key, add, value):
        txn, shadow_txn = self._txn(slot)
        version = self.db.visible_version(self.table, key, txn)
        cells = self.shadow.visible_cells(0, key, shadow_txn)
        assert (version is None) == (cells is None)
        if version is None:
            return
        envelope = self.topo.client_encrypt(encode_int64(value))
        if add:
            request = OperatorRequest(OpKind.ADD, ValueType.INT64, [version.cells[1]],
                                      self.table.partition_id, envelope)
        else:
            request = OperatorRequest(OpKind.STORE, ValueType.INT64, [],
                                      self.table.partition_id, envelope)
        try:
            self.db.update_row(txn, self.table, key, {"k": request})
            conflict = False
        except WriteConflict:
            conflict = True
        new = cells[1] + value if add else value
        assert self.shadow.update(shadow_txn, 0, key, {1: new}) != conflict
        if conflict:
            self._finish(slot, commit=False)

    @rule(slot=st.integers(0, SLOTS - 1), key=st.integers(1, 8))
    def read(self, slot, key):
        txn, shadow_txn = self._txn(slot)
        version = self.db.visible_version(self.table, key, txn)
        cells = self.shadow.visible_cells(0, key, shadow_txn)
        got = None if version is None else self._reveal(txn, version.cells[1])
        assert got == (None if cells is None else cells[1])

    def _writers(self) -> list:
        """The slots of the open txns that hold writes to send."""
        return [slot for slot in range(SLOTS)
                if slot in self.txns and self.txns[slot][0].pending]

    @precondition(lambda self: self._writers())
    @rule(pick=st.integers(0, SLOTS - 1), key=st.integers(1, 8),
          at=st.sampled_from([None, "crossing", "commit"]),
          zones=st.sampled_from([CrashTarget.BOTH, CrashTarget.PRIVACY]))
    def ride(self, pick, key, at, zones):
        """Queues a read in one slot and commits the txn of the other, one
        that holds writes, with the read riding (send_writes). With at, a
        crash of zones comes inside that commit's operator batch
        ("crossing": at the first durable write of a privacy checkpoint
        that the batch's first put runs) or at its DB_COMMIT sync
        ("commit"). The rider's value is the shadow's whenever its reply
        came back; a commit with no operator batch (inserts alone) takes no
        rider, and the read then crosses alone."""
        writers = self._writers()
        committer = writers[pick % len(writers)]
        txn, shadow_txn = self._txn(1 - committer)
        version = self.db.visible_version(self.table, key, txn)
        cells = self.shadow.visible_cells(0, key, shadow_txn)
        assert (version is None) == (cells is None)
        if version is None:
            return
        topo = self.topo
        riders = Reveals([(ValueType.INT64, version.cells[1])], self.db.batch_size)
        committing, shadow_committing = self.txns[committer]
        limit = wal.MAX_UNSYNCED_PUTS
        if at == "crossing":
            request = topo.channel.request

            def checkpoint_inside(raw):
                if raw[0] == MSG_EXEC_BATCH and topo.on_write is None:
                    wal.MAX_UNSYNCED_PUTS = topo.privacy.wal.puts + 1
                    crash_at(topo, lambda w: w.zone == "privacy", target=zones)
                return request(raw)

            topo.on_write = None
            topo.channel.request = checkpoint_inside
        elif at == "commit":
            crash_at(topo, commit_sync, target=zones)
        try:
            self.db.send_writes(committing, riders=riders)
            self.db.commit(committing)
        except (ZoneCrashed, Unavailable):
            pass
        finally:
            wal.MAX_UNSYNCED_PUTS = limit
            topo.on_write = None
            vars(topo.channel).pop("request", None)
        if riders.replies is not None:
            assert self._opened(riders) == cells[1]
        if topo.fired is not None:
            self._recover(topo.cache_capacity_blocks)
            return
        del self.txns[committer]
        self.shadow.commit(shadow_committing)
        if riders.replies is None:
            assert self._reveal(txn, version.cells[1]) == cells[1]

    @rule(slot=st.integers(0, SLOTS - 1), commit=st.booleans())
    def finish(self, slot, commit):
        if slot in self.txns:
            self._finish(slot, commit)

    @precondition(lambda self: not self.txns)
    @rule()
    def maintain(self):
        self.db.vacuum(self.table)
        self.db.orphan_gc()
        assert self.topo.check_invariant().orphans == 0

    @rule(offset=st.integers(0, 40),
          zones=st.sampled_from([CrashTarget.BOTH, CrashTarget.PRIVACY]),
          cache=st.sampled_from([None, 1, 2, 4]))
    def crash(self, offset, zones, cache):
        """Schedules the crash offset writes ahead, then commits every open
        txn, runs maintenance and commits one-row txns until it fires.
        Each open txn is then committed if its commit returned, and
        aborted otherwise; recovery runs at the drawn cache size."""
        topo = self.topo
        topo.inject_crash(CrashPoint(len(topo.writes) + 1 + offset, zones))
        try:
            for slot in sorted(self.txns):
                self.db.commit(self.txns[slot][0])
                if topo.fired is not None:
                    break
            else:
                self.db.vacuum(self.table)
                self.db.orphan_gc()
            while topo.fired is None:
                self.insert(SLOTS, offset)
                self.db.commit(self.txns[SLOTS][0])
                if topo.fired is None:
                    self.shadow.commit(self.txns.pop(SLOTS)[1])
        except (ZoneCrashed, Unavailable):
            pass
        self._recover(cache)

    def _recover(self, cache) -> None:
        """Resolves each open txn by what the crash kept, committed if its
        commit returned and aborted otherwise, and recovers at cache."""
        for txn, shadow_txn in self.txns.values():
            if txn.state.name == "COMMITTED":
                self.shadow.commit(shadow_txn)
            else:
                self.db.abort(txn)  # what a restart does to an open txn
                self.shadow.abort(shadow_txn)
        self.txns = {}
        self.topo.cache_capacity_blocks = cache
        self.topo.recover_all()
        self.table = self.db.tables["t"]

    @invariant()
    def external_synchrony(self):
        assert not self.topo.check_invariant().violations

    @invariant()
    def every_visible_row_reveals_the_oracles_value(self):
        reader = self.db.begin()
        got = {}
        for row_id in self.table.rows:
            version = self.db.visible_version(self.table, row_id, reader)
            if version is not None:
                got[row_id] = self._reveal(reader, version.cells[1])
        self.db.abort(reader)
        assert got == {row_id: cells[1] for row_id, cells
                       in self.shadow.quiescent_rows(0).items()}


TestCrashMachine = CrashMachine.TestCase
TestCrashMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None, database=None,
    derandomize=True, suppress_health_check=list(HealthCheck))
