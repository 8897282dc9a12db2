"""Deterministic two-domain harness: an integrity zone (table engine) and
a privacy zone (proxy + mapping store) joined by a byte-serialized message
channel, with crash injection before any durable write.

Everything observable outside the trusted domains lands in the adversary
trace: message sizes, message kinds, FIDs, comparison outcomes, result
sizes, and untrusted block I/O. Secret plaintext never does. A run is a
pure function of (seed, workload spec, crash schedule): same inputs, same
trace, same durable bytes.

Crash semantics are synced-only: a crashed zone loses exactly its unsynced
state, and the privacy zone every put since its last checkpoint too, since
no put is journaled. Recovery replays each zone's journal; when both zones
crashed the replays are independent (parallel in the modeled timeline),
and a privacy-only crash stalls the integrity zone for the replay
duration. After a privacy restart, the engine's first requests restore the
committed secrets the privacy zone lost, from their recipes. An I/O
failure crashes the zone that wrote (durability's fail-stop rule).

A crash is scheduled by durable-write ordinal. Every write that changes
durable state in either zone goes through seven methods: DurableBuffer's
sync (with bytes pending) and replace, SnapshotStore's put_atomic and
delete, and SealedBlockStore's write and each copy its discard or retain
deletes. An armed topology numbers them from 1 in the order they run,
recovery's writes included (the count carries on through recover_all),
and a CrashPoint(k, target, torn_bytes) crashes its target zones just
before write k; at a sync, torn_bytes of the pending bytes reach the disk
first. Since a crash loses all volatile state, what recovery sees is fixed
by which writes completed and that torn prefix, so the ordinals reach
every crash state of a run. No zone names a crash site. A test picks its
ordinal by a rule such as "the first put_atomic of store.ckpt" from a
write record (record_writes): a dry run's, or the run's own as it makes
its writes (on_write), which is the same since a run is deterministic. An
unarmed topology records nothing, and each durable write pays one
attribute test.
"""

from __future__ import annotations

import json
import os
import random
import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum

from .atrest_storage import AtRestLayer, SealedBlockStore
from .durability import DurableBuffer, SnapshotStore
from .errors import (
    CorruptLog,
    NoCrashPending,
    StructureMismatch,
    Unavailable,
    UnknownPartition,
    WriteConflict,
    ZoneCrashed,
)
from .integrity_dbms import (
    CipherBackend,
    VALUE_TYPES,
    ColumnType,
    Database,
    FidBackend,
    Table,
    recover_database,
)
from .mapping_store import MappingStore
from .messages import PrivacyDispatcher, ProxyClient
from .privacy_proxy import (
    EnvelopeCodec,
    ClientEnvelope,
    OperatorRequest,
    OpKind,
    PrivacyProxy,
    ValueType,
    decode_int64,
    encode_int64,
)
from .wal import FRAME, REC_HEAD, Wal, advance_epoch, checkpoint_truncate, recover_store
from .workload import (
    ADD,
    INSERT,
    READ,
    SET,
    SUM,
    Mode,
    WorkloadProgram,
    WorkloadSpec,
    flatten_schedule,
    generate_workload,
    shape_signature,
)

SENSITIVE_PAD_WIDTH = 128

def pad_sensitive(value: bytes, width: int = SENSITIVE_PAD_WIDTH) -> bytes:
    """Length-prefix and zero-pad a variable-size value to a fixed width so
    stored sizes leak nothing.

    CMP_EQ on padded SENSITIVE_BYTES is exact, but CMP_LT/CMP_GT compare
    the little-endian length prefix first, so their order is not the order
    of the unpadded plaintexts."""
    if len(value) > width - 2:
        raise ValueError(f"value of {len(value)} bytes exceeds pad width {width}")
    return struct.pack("<H", len(value)) + value + b"\x00" * (width - 2 - len(value))


def unpad_sensitive(padded: bytes) -> bytes:
    (n,) = struct.unpack_from("<H", padded, 0)
    return padded[2:2 + n]


# a sensitive column type's plaintext encoding, and its inverse
_ENCODE = {ColumnType.SENSITIVE_INT: encode_int64,
           ColumnType.SENSITIVE_BYTES: pad_sensitive}
_DECODE = {ColumnType.SENSITIVE_INT: decode_int64,
           ColumnType.SENSITIVE_BYTES: unpad_sensitive}


# The adversary-visible event kinds; an event's kind code is its index here.
EVENT_KINDS = ("FidObserved", "MsgBytes", "OpKindObserved", "ResultSize",
               "CmpBool", "BlockRead", "BlockWrite", "BlockDrop")
(_FID, _MSG, _OP_KIND, _RESULT_SIZE,
 _CMP_BOOL, _BLOCK_READ, _BLOCK_WRITE, _BLOCK_DROP) = range(len(EVENT_KINDS))


class AdversaryTrace:
    """Ordered record of everything adversary-visible; args are plain ints.

    The leaked events: FidObserved (a FID the integrity zone holds: each
    FID a request carries or a reply returns, list_live's and is_live's
    included), MsgBytes and OpKindObserved (each message's length and its
    raw first byte, the kind with messages.QUERY_FLAG included: whether a
    request carries a query id depends on whether the statement writes a
    temporary, so on the statement's shape alone), ResultSize, CmpBool (a
    comparison outcome), and the untrusted block area's BlockRead,
    BlockWrite and BlockDrop (a block's current copy retired once a
    size-class bucket shrinks past its block). Which block
    drops depends only on the live count per size class, which the op
    sequence and the crash schedule fix. The MSG_FLUSH_LOG reply is the
    status byte alone, so the privacy journal's length does not reach the
    integrity zone.

    A txn's writes cross together when it commits, or earlier when one of
    its statements reaches a row it wrote (a READ, a SUM over it, or a
    second write), so when they cross is a function of the txn's keys: its
    INSERTs' envelopes as MSG_INGEST, then its ADDs and SETs as one
    operator batch. An aborted or conflicting txn's writes, INSERTs too,
    never cross. The FidObserved events of the new versions' cells follow
    those replies, one version after another in the order the txn wrote
    them.

    A privacy checkpoint adds block events of its own, inside the message
    that runs it (a MSG_FLUSH_LOG, MSG_PROMOTE, or the write whose put
    reached wal.MAX_UNSYNCED_PUTS): a BlockWrite for each block it seals
    (each block of a permanent partition that lacks a current copy: a dirty
    resident block, or one no copy backs), then, once its marker is written,
    a BlockDrop for each copy it no longer keeps (the last checkpoint's
    copies that a newer copy superseded or whose block dropped). Its seals
    write the blocks back, so an eviction after it writes no block the
    checkpoint sealed unless a write dirtied it since. Which blocks these
    are depends on the cache's dirty set, and whether an asked checkpoint
    runs at all on the puts and journal records since the last one, both of
    which the op sequence fixes. A recovery reads each kept copy (a
    BlockRead) and deletes every copy sealed after the last checkpoint (a
    BlockDrop each). Sealed slot maps, like every snapshot, are not traced.
    A sealed copy's counter, in its name and record, is the at-rest layer's
    count of seals, which a recovery resumes from the highest kept copy's,
    so it is a function of the BlockWrite sequence the trace already holds.

    The privacy journal holds FIDs and partition ids only, never a value.
    Between checkpoints, the integrity journal holds the recipes of fresh
    FIDs: client envelopes and operator elements that the channel already
    carried, so a snapshot of that journal shows nothing the message trace
    does not. The next integrity checkpoint truncates them away, and its
    image holds FIDs only. The cipher baseline keeps its envelopes in its
    rows for good. Neither the engine's journal nor its image crosses the
    channel, so their encoding reaches the trace only through checkpoint
    cadence: each commit appends one record, and the one whose sync takes
    the journal past the interval checkpoints. A smaller encoding moves
    that commit later, and with it the MSG_FLUSH_LOG of any checkpoint that
    finds a recipe pending and the block events of the privacy checkpoint
    it runs.

    Storage is two flat buffers, one entry per event: its kind code (an
    index into EVENT_KINDS) in a bytearray and its argument in an
    array("Q"), 9 bytes an event. A block event's argument is
    (partition << 40) | block index. events decodes a fresh list of
    (kind name, arg) pairs on each read, so it is a copy, not a view to
    append to. Two traces are equal iff both buffers are."""

    __slots__ = ("_kinds", "_args")

    def __init__(self):
        self._kinds = bytearray()
        self._args = array("Q")

    def fid(self, fid: int) -> None:
        self._kinds.append(_FID)
        self._args.append(fid)

    def block_read(self, pid: int, block_index: int) -> None:
        self._kinds.append(_BLOCK_READ)
        self._args.append((pid << 40) | block_index)

    def block_write(self, pid: int, block_index: int) -> None:
        self._kinds.append(_BLOCK_WRITE)
        self._args.append((pid << 40) | block_index)

    def block_drop(self, pid: int, block_index: int) -> None:
        self._kinds.append(_BLOCK_DROP)
        self._args.append((pid << 40) | block_index)

    def msg(self, length: int) -> None:
        self._kinds.append(_MSG)
        self._args.append(length)

    def result_size(self, n: int) -> None:
        self._kinds.append(_RESULT_SIZE)
        self._args.append(n)

    def cmp_bool(self, value: bool) -> None:
        self._kinds.append(_CMP_BOOL)
        self._args.append(int(value))

    def op_kind(self, kind: int) -> None:
        self._kinds.append(_OP_KIND)
        self._args.append(kind)

    def _decoded(self):
        return zip(map(EVENT_KINDS.__getitem__, self._kinds), self._args)

    @property
    def events(self) -> list[tuple[str, int]]:
        return list(self._decoded())

    def dump_jsonl(self) -> str:
        return "\n".join(
            json.dumps({"t": i, "kind": k, "arg": a})
            for i, (k, a) in enumerate(self._decoded())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdversaryTrace):
            return NotImplemented
        return self._kinds == other._kinds and self._args == other._args

    def __len__(self) -> int:
        return len(self._kinds)


class CrashTarget(Enum):
    PRIVACY = "privacy"
    INTEGRITY = "integrity"
    BOTH = "both"


@dataclass(frozen=True)
class CrashPoint:
    """A crash of target just before durable write ordinal (the module
    docstring numbers them). A torn crash (torn_bytes > 0) must come at a
    sync by a zone it crashes: that many of the pending bytes, fewer than
    all, reach the disk first. An integrity-only crash must come at an
    integrity write, since the privacy zone writes only inside its own
    requests and recoveries. A point that breaks either rule raises
    ValueError when its write comes."""

    ordinal: int
    target: CrashTarget = CrashTarget.BOTH
    torn_bytes: int = 0


@dataclass(frozen=True)
class DurableWrite:
    """One durable write, as an armed topology numbered it: the zone that
    made it ("privacy" or "integrity"), the method, the file it writes
    (store.wal or db.wal for a journal, else the snapshot's or sealed
    copy's name), the bytes a sync, replace or put_atomic writes (0 for the
    rest) and, for a sync, the kind of the first journal record it
    holds."""

    ordinal: int
    zone: str
    method: str
    name: str
    size: int
    kind: int | None = None

    @property
    def label(self) -> str:
        return f"#{self.ordinal} {self.zone} {self.method} {self.name}"


# a journal record's kind byte, at the end of REC_HEAD after the frame head
_KIND_AT = FRAME.size + REC_HEAD.size - 1


class Channel:
    """The only integrity-to-privacy path; counts round trips."""

    def __init__(self, topology, trace: AdversaryTrace):
        self.topology = topology
        self.trace = trace
        self.round_trips = 0

    def request(self, raw: bytes) -> bytes:
        if self.topology.privacy.crashed:
            raise Unavailable("privacy zone is down (request timed out)")
        self.round_trips += 1
        trace = self.trace
        trace.op_kind(raw[0])
        trace.msg(len(raw))
        try:
            response = self.topology.privacy.dispatcher.handle(raw)
        except ZoneCrashed:
            if self.topology.integrity.crashed:
                raise
            raise Unavailable("privacy zone crashed (request timed out)") from None
        except OSError as exc:
            # fail-stop: a durable write of the privacy zone failed
            self.topology.privacy.crash()
            raise Unavailable("privacy zone stopped on an I/O error") from exc
        trace.msg(len(response))
        return response


class PrivacyZoneHost:
    """Store + journal + at-rest layer + proxy behind the dispatcher."""

    def __init__(self, topology, snapshots: SnapshotStore,
                 wal_buffer: DurableBuffer, sealed_store: SealedBlockStore):
        self.topology = topology
        self.snapshots = snapshots
        self.wal_buffer = wal_buffer
        self.sealed_store = sealed_store
        self.crashed = False
        self.epoch = 0
        self._build(MappingStore(), Wal(wal_buffer), 0, {})

    def _nonce_source(self, stream: str):
        rng = random.Random(f"{stream}:{self.topology.seed}:{self.epoch}")
        return rng.randbytes

    def _build(self, store: MappingStore, wal: Wal, counter: int,
               copies: dict) -> None:
        topo = self.topology
        # the block sealer draws from a stream of its own: the proxy's
        # envelope nonces reach messages, so a checkpoint's seals change none
        nonce_source = self._nonce_source("nonce")
        self.store = store
        self.wal = wal
        self.atrest = AtRestLayer(
            store, topo.zone_block_key,
            capacity_blocks=topo.cache_capacity_blocks,
            nonce_source=self._nonce_source("block-nonce"),
            sealed_store=self.sealed_store, trace=topo.trace,
            epoch=self.epoch, counter=counter, copies=copies)
        store.journal = wal
        store.blocks = self.atrest
        wal.on_checkpoint = self._checkpoint
        self.proxy = PrivacyProxy(store, topo.client_key, nonce_source)
        self.zone_codec = EnvelopeCodec(topo.zone_field_key, nonce_source)
        self.dispatcher = PrivacyDispatcher(self.proxy, wal, self.atrest,
                                            self.zone_codec)

    def _checkpoint(self) -> None:
        checkpoint_truncate(self.store, self.wal, self.snapshots, self.atrest)

    def crash(self, torn_bytes: int = 0) -> None:
        self.crashed = True
        self.wal_buffer.crash(torn_bytes)

    def recover(self) -> int:
        topo = self.topology
        result = recover_store(self.snapshots, self.wal_buffer, self.sealed_store,
                               topo.zone_block_key, topo.trace)
        self.epoch = advance_epoch(self.snapshots)
        self._build(result.store, result.wal, result.counter, result.copies)
        self.dispatcher.restoring = True  # until its first other request
        self.crashed = False
        return result.replayed_count


class IntegrityZoneHost:
    """The table engine plus its own journal and checkpoint image."""

    def __init__(self, topology, snapshots: SnapshotStore,
                 dbwal_buffer: DurableBuffer):
        self.topology = topology
        self.snapshots = snapshots
        self.dbwal_buffer = dbwal_buffer
        self.client = ProxyClient(topology.channel, topology.trace)
        self.db = self._fresh_db()

    def _backend(self):
        if self.topology.backend_name == "cipher":
            return CipherBackend(self.client)
        return FidBackend(self.client)

    def _fresh_db(self) -> Database:
        topo = self.topology
        return Database(self.client, self._backend(), self.dbwal_buffer,
                        self.snapshots, batch_size=topo.batch_size,
                        trace=topo.trace)

    @property
    def crashed(self) -> bool:  # by a crash, or a failed write (Database.stopped)
        return self.db.stopped

    def crash(self, torn_bytes: int = 0) -> None:
        self.db.stopped = True
        self.dbwal_buffer.crash(torn_bytes)

    def recover(self) -> int:
        topo = self.topology
        db, replayed = recover_database(
            self.client, self._backend(), self.dbwal_buffer, self.snapshots,
            batch_size=topo.batch_size, trace=topo.trace)
        self.db = db
        return replayed


@dataclass
class InvariantReport:
    holds: bool
    violations: list[int]
    orphans: int


@dataclass
class RecoveryReport:
    privacy_replayed: int
    db_replayed: int
    parallel_replays: bool
    integrity_stalled: bool
    invariant: InvariantReport


@dataclass
class RunReport:
    """A run's outcome: what completed, committed, aborted or conflicted,
    where it crashed, whether the invariant held afterwards, and the values
    it revealed. Traffic and crypto calls are not counted here: perfbench
    measures them per phase (workload, maintenance, check, recovery)."""

    ops_completed: int = 0
    txns_committed: int = 0
    txns_aborted: int = 0
    write_conflicts: int = 0
    crashed_at: str | None = None
    invariant_holds: bool | None = None
    violations: int = 0
    revealed: list = field(default_factory=list)


class ZoneTopology:
    """Owns both zones, the channel, the trace, and the crash schedule.

    With data_dir, each zone mirrors its journal to a file in it and its
    snapshots to a directory under it, and the sealed block area is a
    directory of its own there. Opening a directory that holds durable
    state, in a journal, a snapshot or a sealed copy, recovers both zones
    from it, as after a crash of both."""

    def __init__(self, seed: int, *, backend: str = "fid",
                 cache_capacity_blocks: int | None = None,
                 batch_size: int = 256, data_dir: str | None = None):
        self.seed = seed
        self.backend_name = backend
        self.batch_size = batch_size
        self.cache_capacity_blocks = cache_capacity_blocks

        key_rng = random.Random(f"keys:{seed}")
        self.client_key = key_rng.randbytes(32)
        self.zone_field_key = key_rng.randbytes(32)
        self.zone_block_key = key_rng.randbytes(32)
        self._client_nonce = random.Random(f"client-nonce:{seed}").randbytes
        self._client_codec = EnvelopeCodec(self.client_key, self._client_nonce)

        self.trace = AdversaryTrace()

        priv_dir = db_dir = sealed_dir = None
        priv_wal_path = db_wal_path = None
        if data_dir is not None:
            priv_dir = os.path.join(data_dir, "privacy")
            sealed_dir = os.path.join(data_dir, "sealed")
            db_dir = os.path.join(data_dir, "integrity")  # made by SnapshotStore
            priv_wal_path = os.path.join(data_dir, "store.wal")
            db_wal_path = os.path.join(data_dir, "db.wal")
        self.priv_snapshots = SnapshotStore(priv_dir)
        self.db_snapshots = SnapshotStore(db_dir)
        self.store_wal_buffer = DurableBuffer(priv_wal_path)
        self.dbwal_buffer = DurableBuffer(db_wal_path)
        self.sealed_store = SealedBlockStore(sealed_dir)

        self.channel = Channel(self, self.trace)
        self.privacy = PrivacyZoneHost(self, self.priv_snapshots,
                                       self.store_wal_buffer, self.sealed_store)
        self.integrity = IntegrityZoneHost(self, self.db_snapshots,
                                           self.dbwal_buffer)
        self.client = self.integrity.client

        self.writes: list[DurableWrite] | None = None  # the record, once armed
        self._schedule: dict[int, CrashPoint] = {}
        self.fired: DurableWrite | None = None  # the write the last crash preceded
        self.on_write = None  # shown each write, before a crash scheduled at it
        if (self.store_wal_buffer.durable_len or self.dbwal_buffer.durable_len
                or self.priv_snapshots.names() or self.db_snapshots.names()
                or self.sealed_store.blocks):
            self.privacy.recover()
            self.integrity.recover()
            self.integrity.db.restore_recipes()

    # ------------------------------------------------------------------
    # client-side crypto (the user's machine, not a zone)

    def client_encrypt(self, plaintext: bytes) -> bytes:
        return self._client_codec.encrypt(plaintext).to_bytes()

    def client_decrypt(self, envelope: bytes) -> bytes:
        return self._client_codec.decrypt(ClientEnvelope.from_bytes(envelope))

    def insert_rows(self, txn, table: Table, rows: list[tuple]) -> None:
        """The one row writer: inserts plaintext rows, one value per column,
        into table in txn. Each sensitive cell is encoded from its column
        type and encrypted, in row then column order, and the txn holds the
        client envelopes as pending writes (Database.insert_row) until its
        commit ingests them into the table's partition, with the rest of
        its writes, batch_size envelopes per MSG_INGEST across the rows. A
        batch stores its values in the order it lists them, so the FIDs,
        journal records and sealed blocks are the same at any batch_size."""
        db = self.integrity.db
        schema, sensitive = table.schema, table.sensitive
        encrypt = self._client_codec.encrypt
        for row in rows:
            cells = list(row)
            for i in sensitive:
                cells[i] = encrypt(_ENCODE[schema[i].ctype](row[i]))
            db.insert_row(txn, table, cells)

    # ------------------------------------------------------------------
    # crash machinery

    def record_writes(self) -> list[DurableWrite]:
        """Arms the topology, if it is not armed yet: from now on each
        durable write of either zone is numbered and appended to the
        returned record (writes) just before it runs."""
        if self.writes is None:
            self.writes = []
            for zone, journal, primitives in (
                    ("privacy", "store.wal", (self.store_wal_buffer, self.priv_snapshots,
                                              self.sealed_store)),
                    ("integrity", "db.wal", (self.dbwal_buffer, self.db_snapshots))):
                for primitive in primitives:
                    primitive.hook = (lambda method, name, data, zone=zone, journal=journal:
                                      self._before_write(zone, method, name or journal, data))
        return self.writes

    def inject_crash(self, point: CrashPoint) -> None:
        """Schedules point on this topology, arming it; ValueError unless
        its write is still to come."""
        if point.ordinal <= len(self.record_writes()):
            raise ValueError(f"write {point.ordinal} has run")
        self._schedule[point.ordinal] = point

    def _before_write(self, zone: str, method: str, name: str, data) -> None:
        writes = self.writes
        write = DurableWrite(len(writes) + 1, zone, method, name, len(data),
                             data[_KIND_AT] if method == "sync" else None)
        if self.on_write is not None:
            self.on_write(write)
        writes.append(write)
        point = self._schedule.pop(write.ordinal, None)
        if point is not None:
            self._crash(point, write)

    def _crash(self, point: CrashPoint, write: DurableWrite) -> None:
        """Crashes point's target zones just before write; the writing zone,
        if crashed, unwinds (ZoneCrashed), and otherwise the write runs."""
        target = point.target
        writer_crashes = target == CrashTarget.BOTH or target.value == write.zone
        if not writer_crashes and write.zone == "privacy":
            raise ValueError(f"an integrity-only crash at {write.label}")
        torn = point.torn_bytes
        if torn and not (writer_crashes and write.method == "sync"
                         and 0 < torn < write.size):
            raise ValueError(f"{write.label} cannot tear {torn} bytes")
        self.fired = write
        if target != CrashTarget.INTEGRITY:
            self.privacy.crash(torn if write.zone == "privacy" else 0)
        if target != CrashTarget.PRIVACY:
            self.integrity.crash(torn if write.zone == "integrity" else 0)
        if writer_crashes:
            raise ZoneCrashed(write.label)

    def recover_all(self) -> RecoveryReport:
        """Recovers each crashed zone. After a privacy restart the engine
        first restores what the privacy zone lost of its pending recipes,
        then aborts its active txns that stored a ref. A crash scheduled
        at one of recovery's own writes propagates (ZoneCrashed, or
        Unavailable when the privacy zone alone crashed inside a request of
        the restore); recover_all again finishes the recovery.
        The closing invariant check lists each table's partition, so a
        recovered table that names a partition the privacy zone does not
        hold raises CorruptLog (the cipher baseline stores nothing in its
        tables' partitions and lists none)."""
        if not (self.privacy.crashed or self.integrity.crashed):
            raise NoCrashPending("no zone has crashed")
        privacy_restarts = self.privacy.crashed
        parallel = privacy_restarts and self.integrity.crashed
        stalled = privacy_restarts and not self.integrity.crashed
        privacy_replayed = self.privacy.recover() if privacy_restarts else 0
        db_replayed = self.integrity.recover() if self.integrity.crashed else 0
        if privacy_restarts:
            self.integrity.db.restore_recipes()
            self.integrity.db.privacy_restarted()
        try:
            invariant = self.check_invariant()
        except UnknownPartition as exc:
            raise CorruptLog(f"a recovered table names a partition the privacy "
                             f"zone does not hold: {exc}") from None
        self.fired = None
        return RecoveryReport(privacy_replayed=privacy_replayed,
                              db_replayed=db_replayed,
                              parallel_replays=parallel,
                              integrity_stalled=stalled,
                              invariant=invariant)

    # ------------------------------------------------------------------
    # the external-synchrony invariant

    def check_invariant(self) -> InvariantReport:
        """Every sensitive FID in a durably visible row version must map to
        a live secret. Orphan secrets are counted but permissible. One
        list_live per table partition serves both counts."""
        db = self.integrity.db
        if self.backend_name != "fid":
            return InvariantReport(True, [], 0)
        live: set[int] = set()
        for table in db.tables_by_idx:
            live.update(self.client.list_live(table.partition_id))
        violations: list[int] = []
        for table in db.tables_by_idx:
            for chain in table.rows.values():
                for version in reversed(chain):
                    if version.begin_txn not in db.committed:
                        continue
                    e = version.end_txn
                    if e is not None and e in db.committed:
                        continue
                    for i in table.sensitive:
                        if version.cells[i] not in live:
                            violations.append(version.cells[i])
                    break
        orphans = len(live - db.referenced_refs())
        return InvariantReport(holds=not violations, violations=violations,
                               orphans=orphans)

    # ------------------------------------------------------------------
    # workload execution

    def run_workload(self, spec: WorkloadSpec) -> RunReport:
        return self.run_program(generate_workload(spec, self.seed))

    def run_program(self, program: WorkloadProgram) -> RunReport:
        """Runs program; ValueError unless its spec's batch size is the
        topology's, the one batch size of every ingest and aggregate."""
        if program.spec.batch_size != self.batch_size:
            raise ValueError(f"the program batches {program.spec.batch_size} values, "
                             f"the topology {self.batch_size}")
        return _Runner(self, program).run()


class _Runner:
    """Executes a workload program against the topology, one schedule entry
    at a time, mirroring what the shadow oracle replays. Every privacy-zone
    call goes through the database's backend, so both backends run the
    same code here.

    The preload creates the program's tables and writes each one's rows in
    one txn through ZoneTopology.insert_rows, which an INSERT statement
    uses too. _execute runs one statement of the closed set that workload
    documents, encoding and decoding each secret from its column's type.
    INSERT, ADD and SET send nothing: an INSERT hands Database.insert_row
    a client envelope per sensitive value, and ADD and SET hand
    Database.update_row an operator request, an ADD of the delta as an
    inline constant or a STORE of the new value. The txn holds them all
    until its commit sends them, or until a later statement of the txn
    reaches a row it wrote. A SUM's result comes back inside its last
    operator message, so no statement writes to its query's temporaries
    and ending one sends nothing. A conflicting ADD or SET fails in
    update_row, before anything of its is sent. Every message batches
    ZoneTopology.batch_size values."""

    def __init__(self, topology: ZoneTopology, program: WorkloadProgram):
        self.topo = topology
        self.program = program
        self.spec = program.spec
        self.batch_size = topology.batch_size
        self.report = RunReport()

    # -- setup -------------------------------------------------------------

    def _preload(self, db: Database) -> list:
        decls = self.program.tables
        tables = [db.create_table(decl.name, list(decl.columns)) for decl in decls]
        for table, decl in zip(tables, decls):
            txn = db.begin()
            self.topo.insert_rows(txn, table, decl.rows)
            db.commit(txn)
            self.topo.client.end_query(txn.query_id)
        return tables

    # -- execution -----------------------------------------------------------

    def run(self) -> RunReport:
        topo = self.topo
        db = topo.integrity.db
        report = self.report
        spec = self.spec
        try:
            tables = self._preload(db)
        except ZoneCrashed as exc:
            report.crashed_at = str(exc)
            return report
        except Unavailable:
            # the preload's txn, which holds no ref while its batch is in
            # flight, so privacy_restarted would leave it active
            for txn in list(db.active_txns.values()):
                db.abort(txn)
            report.crashed_at = (topo.fired.label if topo.fired
                                 else "privacy-unavailable")
            return report

        schedule = flatten_schedule(self.program)
        active: dict[int, object] = {}
        dead: set[int] = set()
        try:
            for entry in schedule:
                kind = entry[0]
                if kind == "begin":
                    txn = db.begin()
                    active[entry[2]] = txn
                elif kind == "op":
                    _, _, txn_index, op_index = entry
                    if txn_index in dead:
                        continue
                    txn = active[txn_index]
                    statement = self.program.txns[txn_index].statements[op_index]
                    try:
                        self._execute(db, tables, txn, statement)
                        report.ops_completed += 1
                    except WriteConflict:
                        report.write_conflicts += 1
                        db.abort(txn)
                        self._end_query_quietly(txn)
                        report.txns_aborted += 1
                        dead.add(txn_index)
                else:  # finish
                    txn_index = entry[2]
                    if txn_index in dead:
                        active.pop(txn_index, None)
                        continue
                    txn = active[txn_index]
                    if self.program.txns[txn_index].abort:
                        db.abort(txn)
                        report.txns_aborted += 1
                    else:
                        # still in active if its writes fail to go, so
                        # that the Unavailable handler aborts it
                        db.commit(txn)
                        report.txns_committed += 1
                    del active[txn_index]
                    self._end_query_quietly(txn)
        except ZoneCrashed as exc:
            report.crashed_at = str(exc)
        except Unavailable:
            for txn in active.values():
                db.abort(txn)
                report.txns_aborted += 1
            report.crashed_at = (topo.fired.label if topo.fired
                                 else "privacy-unavailable")

        if not topo.privacy.crashed and not topo.integrity.crashed:
            if spec.mode in (Mode.READ_WRITE, Mode.WRITE_ONLY, Mode.INSERT_ONLY):
                try:
                    for t in tables:
                        db.vacuum(t)
                    db.orphan_gc()
                except ZoneCrashed as exc:
                    report.crashed_at = str(exc)
                except Unavailable:
                    report.crashed_at = (topo.fired.label if topo.fired
                                         else "privacy-unavailable")
        if not topo.privacy.crashed and not topo.integrity.crashed:
            invariant = topo.check_invariant()
            report.invariant_holds = invariant.holds
            report.violations = len(invariant.violations)
        return report

    def _end_query_quietly(self, txn) -> None:
        try:
            self.topo.client.end_query(txn.query_id)
        except Unavailable:
            pass

    def _execute(self, db: Database, tables, txn, statement: tuple) -> None:
        kind, t = statement[0], statement[1]
        table = tables[t]
        topo = self.topo
        if kind == INSERT:
            topo.insert_rows(txn, table, [statement[2]])
            topo.trace.result_size(1)
            return
        column = table.col_index[statement[2]]
        if kind == SUM:
            start = statement[3]
            refs = []
            for key in range(start, statement[4]):
                version = db.visible_version(table, key, txn)
                if version is not None:
                    refs.append(version.cells[column])
            topo.trace.result_size(len(refs))
            total = 0
            if refs:
                total = decode_int64(topo.client_decrypt(db.backend.aggregate(
                    txn.query_id, OpKind.SUM_AGG, ValueType.INT64, refs,
                    self.batch_size, reveal=True)))
            self.report.revealed.append(("sum", t, start, total))
            return
        key = statement[3]
        version = db.visible_version(table, key, txn)
        ctype = table.schema[column].ctype
        if kind == READ:
            value = None
            if version is not None:
                value = _DECODE[ctype](topo.client_decrypt(
                    db.backend.reveal(txn.query_id, version.cells[column])))
            topo.trace.result_size(0 if version is None else 1)
            self.report.revealed.append(("point", t, key, value))
            return
        if kind not in (ADD, SET):
            raise ValueError(f"unknown statement {kind}")
        if version is None:
            return
        envelope = topo.client_encrypt(_ENCODE[ctype](statement[4]))
        if kind == ADD:
            request = OperatorRequest(OpKind.ADD, ValueType.INT64,
                                      [version.cells[column]], table.partition_id,
                                      envelope)
        else:
            request = OperatorRequest(OpKind.STORE, VALUE_TYPES[ctype], [],
                                      table.partition_id, envelope)
        db.update_row(txn, table, key, {statement[2]: request})
        topo.trace.result_size(1)


def trace_indistinguishability(program_a: WorkloadProgram,
                               program_b: WorkloadProgram, seed: int,
                               **topology_kwargs) -> bool:
    """True iff two structure-identical programs (differing only in secret
    values) produce event-for-event identical adversary traces: each runs
    on a fresh topology, and the two traces' buffers are compared whole,
    with no per-event decoding. Programs whose shape_signature differs
    raise StructureMismatch."""
    if shape_signature(program_a) != shape_signature(program_b):
        raise StructureMismatch("workloads differ structurally")
    topo_a = ZoneTopology(seed, batch_size=program_a.spec.batch_size, **topology_kwargs)
    topo_a.run_program(program_a)
    topo_b = ZoneTopology(seed, batch_size=program_b.spec.batch_size, **topology_kwargs)
    topo_b.run_program(program_b)
    return topo_a.trace == topo_b.trace
