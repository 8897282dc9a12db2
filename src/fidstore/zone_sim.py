"""Deterministic two-domain harness: an integrity zone (table engine) and
a privacy zone (proxy + mapping store) joined by a byte-serialized message
channel, with crash injection at the commit and maintenance sites.

Everything observable outside the trusted domains lands in the adversary
trace: message sizes, message kinds, FIDs, comparison outcomes, result
sizes, and untrusted block I/O. Secret plaintext never does. A run is a
pure function of (seed, workload spec, crash schedule): same inputs, same
trace, same durable bytes.

Crash semantics are synced-only: a crashed zone loses exactly its unsynced
state. Recovery replays each zone's journal; when both zones crashed the
replays are independent (parallel in the modeled timeline), and a
privacy-only crash stalls the integrity zone for the replay duration.
"""

from __future__ import annotations

import json
import os
import random
import struct
from dataclasses import dataclass, field
from enum import Enum

from .atrest_storage import AtRestLayer, FreshnessTable, SealedBlockStore
from .durability import DurableBuffer, SnapshotStore
from .errors import NoCrashPending, StructureMismatch, Unavailable, WriteConflict
from .fid_codec import FidConfig
from .integrity_dbms import (
    CipherBackend,
    Column,
    ColumnType,
    Database,
    FidBackend,
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
from .wal import EPOCH_MARKER, Wal, checkpoint_truncate, recover_store
from .workload import (
    Mode,
    WorkloadProgram,
    WorkloadSpec,
    flatten_schedule,
    generate_workload,
    shape_signature,
)

SENSITIVE_PAD_WIDTH = 128

TABLE_SCHEMA = [
    Column("id", ColumnType.PLAIN_INT),
    Column("k", ColumnType.SENSITIVE_INT),
    Column("c", ColumnType.SENSITIVE_BYTES),
    Column("pad", ColumnType.PLAIN_BYTES),
]
_COL_K = 1


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


class AdversaryTrace:
    """Ordered record of everything adversary-visible; args are plain ints."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[tuple[str, int]] = []

    def fid(self, fid: int) -> None:
        self.events.append(("FidObserved", fid))

    def block_read(self, pid: int, block_index: int) -> None:
        self.events.append(("BlockRead", (pid << 40) | block_index))

    def block_write(self, pid: int, block_index: int) -> None:
        self.events.append(("BlockWrite", (pid << 40) | block_index))

    def msg(self, length: int) -> None:
        self.events.append(("MsgBytes", length))

    def result_size(self, n: int) -> None:
        self.events.append(("ResultSize", n))

    def cmp_bool(self, value: bool) -> None:
        self.events.append(("CmpBool", int(value)))

    def op_kind(self, kind: int) -> None:
        self.events.append(("OpKindObserved", kind))

    def dump_jsonl(self) -> str:
        return "\n".join(
            json.dumps({"t": i, "kind": k, "arg": a})
            for i, (k, a) in enumerate(self.events)
        )

    def __len__(self) -> int:
        return len(self.events)


class CrashTarget(Enum):
    PRIVACY = "privacy"
    INTEGRITY = "integrity"
    BOTH = "both"


class CrashPointId(Enum):
    BEFORE_PRIVACY_FLUSH = "before-privacy-flush"
    AFTER_PRIVACY_FLUSH_BEFORE_DB_COMMIT = "after-privacy-flush-before-db-commit"
    AFTER_DB_COMMIT = "after-db-commit"
    DURING_VACUUM = "during-vacuum"
    DURING_ORPHAN_GC = "during-orphan-gc"
    RANDOM_BYTE = "random-byte"


_HOOK_SITES = {
    CrashPointId.BEFORE_PRIVACY_FLUSH: "before_privacy_flush",
    CrashPointId.AFTER_PRIVACY_FLUSH_BEFORE_DB_COMMIT: "after_privacy_flush",
    CrashPointId.AFTER_DB_COMMIT: "after_db_commit",
    CrashPointId.DURING_VACUUM: "during_vacuum",
    CrashPointId.DURING_ORPHAN_GC: "during_orphan_gc",
}


@dataclass
class CrashPoint:
    id: CrashPointId
    target: CrashTarget = CrashTarget.BOTH
    at_occurrence: int = 1
    torn_bytes: int | None = None  # RANDOM_BYTE: cut inside the pending tail


class ZoneCrashed(Exception):
    """Control-flow signal: the integrity zone's process died."""


class Channel:
    """The only integrity-to-privacy path; counts round trips and bytes."""

    def __init__(self, topology, trace: AdversaryTrace):
        self.topology = topology
        self.trace = trace
        self.round_trips = 0
        self.bytes_moved = 0

    def request(self, raw: bytes) -> bytes:
        if self.topology.privacy.crashed:
            raise Unavailable("privacy zone is down (request timed out)")
        self.round_trips += 1
        trace = self.trace
        trace.op_kind(raw[0])
        trace.msg(len(raw))
        response = self.topology.privacy.dispatcher.handle(raw)
        trace.msg(len(response))
        self.bytes_moved += len(raw) + len(response)
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
        self._build(store=None, wal=None, freshness_entries={})

    def _nonce_source(self):
        rng = random.Random(f"nonce:{self.topology.seed}:{self.epoch}")
        return rng.randbytes

    def _build(self, store, wal, freshness_entries) -> None:
        topo = self.topology
        if store is None:
            store = MappingStore(topo.config, max_value_len=topo.max_value_len)
        if wal is None:
            wal = Wal(self.wal_buffer, size_bound_bytes=topo.wal_size_bound)
        nonce_source = self._nonce_source()
        self.store = store
        self.wal = wal
        self.atrest = AtRestLayer(
            store, topo.zone_block_key,
            capacity_blocks=topo.cache_capacity_blocks,
            nonce_source=nonce_source,
            freshness=FreshnessTable(freshness_entries),
            sealed_store=self.sealed_store,
            journal=wal, trace=topo.trace, epoch=self.epoch)
        store.journal = wal
        store.blocks = self.atrest
        wal.on_checkpoint = self._checkpoint
        self.proxy = PrivacyProxy(store, topo.client_key, nonce_source)
        self.zone_codec = EnvelopeCodec(topo.zone_field_key, nonce_source)
        self.dispatcher = PrivacyDispatcher(self.proxy, wal, self.atrest,
                                            self.zone_codec)

    def _checkpoint(self) -> None:
        checkpoint_truncate(self.store, self.wal, self.snapshots,
                            self.atrest.freshness)

    def crash(self, torn_bytes: int = 0) -> None:
        self.crashed = True
        self.wal_buffer.crash(torn_bytes)

    def recover(self) -> int:
        result = recover_store(self.snapshots, self.wal_buffer,
                               self.topology.config,
                               max_value_len=self.topology.max_value_len,
                               size_bound_bytes=self.topology.wal_size_bound)
        self.epoch = result.epoch + 1
        self.snapshots.put_atomic(EPOCH_MARKER, struct.pack("<Q", self.epoch))
        self._build(result.store, result.wal, result.freshness_entries)
        self.crashed = False
        return result.replayed_count


class IntegrityZoneHost:
    """The table engine plus its own journal and catalog."""

    def __init__(self, topology, snapshots: SnapshotStore,
                 dbwal_buffer: DurableBuffer):
        self.topology = topology
        self.snapshots = snapshots
        self.dbwal_buffer = dbwal_buffer
        self.crashed = False
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
                        trace=topo.trace, crash_hook=topo._crash_hook,
                        protocol_events=topo.protocol_events)

    def crash(self, torn_bytes: int = 0) -> None:
        self.crashed = True
        self.dbwal_buffer.crash(torn_bytes)

    def recover(self) -> int:
        topo = self.topology
        db, replayed = recover_database(
            self.client, self._backend(), self.dbwal_buffer, self.snapshots,
            batch_size=topo.batch_size, trace=topo.trace,
            crash_hook=topo._crash_hook, protocol_events=topo.protocol_events)
        self.db = db
        self.crashed = False
        return replayed


@dataclass
class InvariantReport:
    holds: bool
    violations: list[int]
    orphans: int
    checked_fids: int


@dataclass
class RecoveryReport:
    privacy_replayed: int
    db_replayed: int
    parallel_replays: bool
    integrity_stalled: bool
    invariant: InvariantReport


@dataclass
class RunReport:
    seed: int
    backend: str
    mode: str
    ops_completed: int = 0
    txns_committed: int = 0
    txns_aborted: int = 0
    write_conflicts: int = 0
    round_trips: int = 0
    msg_bytes: int = 0
    envelope_encrypts: int = 0
    envelope_decrypts: int = 0
    cipher_field_crypto: int = 0
    store_seals: int = 0
    store_opens: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    page_faults: int = 0
    prefetched_blocks: int = 0
    promote_calls: int = 0
    vacuum_reclaimed: int = 0
    gc_reclaimed: int = 0
    crashed_at: str | None = None
    invariant_holds: bool | None = None
    violations: int = 0
    orphans: int = 0
    revealed: list = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 1.0


class ZoneTopology:
    """Owns both zones, the channel, the trace, and the crash schedule."""

    def __init__(self, seed: int, *, backend: str = "fid",
                 cache_capacity_blocks: int | None = None,
                 batch_size: int = 256, data_dir: str | None = None,
                 wal_size_bound: int = 64 * 1024 * 1024,
                 prefix_bits: int = 16, max_value_len: int = 4096):
        self.seed = seed
        self.backend_name = backend
        self.batch_size = batch_size
        self.cache_capacity_blocks = cache_capacity_blocks
        self.wal_size_bound = wal_size_bound
        self.config = FidConfig(prefix_bits)
        self.max_value_len = max_value_len

        key_rng = random.Random(f"keys:{seed}")
        self.client_key = key_rng.randbytes(32)
        self.zone_field_key = key_rng.randbytes(32)
        self.zone_block_key = key_rng.randbytes(32)
        self._client_nonce = random.Random(f"client-nonce:{seed}").randbytes
        self._client_codec = EnvelopeCodec(self.client_key, self._client_nonce)
        self._sim_rng = random.Random(f"sim:{seed}")

        self.trace = AdversaryTrace()
        self.protocol_events: list[tuple[str, int]] = []

        priv_dir = db_dir = None
        priv_wal_path = db_wal_path = None
        if data_dir is not None:
            priv_dir = os.path.join(data_dir, "privacy")
            db_dir = os.path.join(data_dir, "integrity")
            os.makedirs(priv_dir, exist_ok=True)
            os.makedirs(db_dir, exist_ok=True)
            priv_wal_path = os.path.join(priv_dir, "store.wal")
            db_wal_path = os.path.join(db_dir, "db.wal")
        self.priv_snapshots = SnapshotStore(priv_dir)
        self.db_snapshots = SnapshotStore(db_dir)
        self.store_wal_buffer = DurableBuffer(priv_wal_path)
        self.dbwal_buffer = DurableBuffer(db_wal_path)
        self.sealed_store = SealedBlockStore()

        self.channel = Channel(self, self.trace)
        self.privacy = PrivacyZoneHost(self, self.priv_snapshots,
                                       self.store_wal_buffer, self.sealed_store)
        self.integrity = IntegrityZoneHost(self, self.db_snapshots,
                                           self.dbwal_buffer)
        self.client = self.integrity.client

        self._armed: CrashPoint | None = None
        self.fired: CrashPoint | None = None

    # ------------------------------------------------------------------
    # client-side crypto (the user's machine, not a zone)

    def client_encrypt(self, plaintext: bytes) -> bytes:
        return self._client_codec.encrypt(plaintext).to_bytes()

    def client_decrypt(self, envelope: bytes) -> bytes:
        return self._client_codec.decrypt(ClientEnvelope.from_bytes(envelope))

    # ------------------------------------------------------------------
    # crash machinery

    def inject_crash(self, point: CrashPoint) -> None:
        if not isinstance(point.id, CrashPointId):
            raise ValueError(f"unknown crash point {point.id}")
        if point.id == CrashPointId.RANDOM_BYTE and point.at_occurrence <= 0:
            self._fire(point, interrupt=False)
            return
        self._armed = point

    def _crash_hook(self, site: str, txn) -> None:
        point = self._armed
        if point is None:
            return
        if _HOOK_SITES.get(point.id) != site:
            return
        if (point.id == CrashPointId.AFTER_PRIVACY_FLUSH_BEFORE_DB_COMMIT
                and txn is not None and not txn.promoted):
            return  # the interesting case needs in-flight secrets
        point.at_occurrence -= 1
        if point.at_occurrence <= 0:
            self._fire(point)

    def _statement_tick(self) -> None:
        point = self._armed
        if point is None or point.id != CrashPointId.RANDOM_BYTE:
            return
        point.at_occurrence -= 1
        if point.at_occurrence <= 0:
            self._fire(point)

    def _fire(self, point: CrashPoint, interrupt: bool = True) -> None:
        self._armed = None
        self.fired = point
        torn = 0
        if point.id == CrashPointId.RANDOM_BYTE:
            pending = self.store_wal_buffer.pending_len
            torn = (point.torn_bytes if point.torn_bytes is not None
                    else self._sim_rng.randrange(pending + 1))
        if point.target in (CrashTarget.PRIVACY, CrashTarget.BOTH):
            self.privacy.crash(torn)
        if point.target in (CrashTarget.INTEGRITY, CrashTarget.BOTH):
            self.integrity.crash()
            if interrupt:
                # unwind out of the engine: the process just died
                raise ZoneCrashed(point.id.value)

    def recover_all(self) -> RecoveryReport:
        if not (self.privacy.crashed or self.integrity.crashed):
            raise NoCrashPending("no zone has crashed")
        parallel = self.privacy.crashed and self.integrity.crashed
        stalled = self.privacy.crashed and not self.integrity.crashed
        privacy_replayed = self.privacy.recover() if self.privacy.crashed else 0
        db_replayed = self.integrity.recover() if self.integrity.crashed else 0
        self.fired = None
        invariant = self.check_invariant()
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
            return InvariantReport(True, [], 0, 0)
        live: set[int] = set()
        for table in db.tables_by_idx:
            live.update(self.client.list_live(table.partition_id))
        violations: list[int] = []
        checked = 0
        for table in db.tables_by_idx:
            for chain in table.rows.values():
                for version in reversed(chain):
                    if version.begin_txn not in db.committed:
                        continue
                    e = version.end_txn
                    if e is not None and e in db.committed:
                        continue
                    for i in table.sensitive:
                        checked += 1
                        if version.cells[i] not in live:
                            violations.append(version.cells[i])
                    break
        orphans = len(live - db.referenced_refs())
        return InvariantReport(holds=not violations, violations=violations,
                               orphans=orphans, checked_fids=checked)

    # ------------------------------------------------------------------
    # workload execution

    def run_workload(self, spec: WorkloadSpec) -> RunReport:
        return self.run_program(generate_workload(spec, self.seed))

    def run_program(self, program: WorkloadProgram) -> RunReport:
        runner = _Runner(self, program)
        return runner.run()

    def counters(self) -> dict:
        priv = self.privacy
        return {
            "round_trips": self.channel.round_trips,
            "msg_bytes": self.channel.bytes_moved,
            "envelope_encrypts": priv.proxy.client_codec.encrypts,
            "envelope_decrypts": priv.proxy.client_codec.decrypts,
            "cipher_field_crypto": priv.zone_codec.encrypts + priv.zone_codec.decrypts,
            "store_seals": priv.atrest.sealer.seals,
            "store_opens": priv.atrest.sealer.opens,
            "cache_hits": priv.atrest.hits,
            "cache_misses": priv.atrest.misses,
            "page_faults": priv.atrest.faults,
            "prefetched_blocks": priv.atrest.prefetched,
            "promote_calls": self.client.promote_calls,
        }


class _Runner:
    """Executes a workload program against the topology, one schedule entry
    at a time, mirroring what the shadow oracle replays."""

    def __init__(self, topology: ZoneTopology, program: WorkloadProgram):
        self.topo = topology
        self.program = program
        self.spec = program.spec
        self.cipher = topology.backend_name == "cipher"
        self.report = RunReport(seed=topology.seed, backend=topology.backend_name,
                                mode=program.spec.mode.value)

    # -- client-side value handling --------------------------------------

    def _ingest_int(self, query_id: int, value: int):
        env = self.topo.client_encrypt(encode_int64(value))
        if self.cipher:
            return self.topo.client.cipher_ingest(query_id, env)
        return self.topo.client.ingest(query_id, env)

    def _ingest_bytes(self, query_id: int, value: bytes):
        env = self.topo.client_encrypt(pad_sensitive(value))
        if self.cipher:
            return self.topo.client.cipher_ingest(query_id, env)
        return self.topo.client.ingest(query_id, env)

    def _reveal_int(self, query_id: int, ref) -> int:
        if self.cipher:
            env = self.topo.client.cipher_reveal(query_id, ref)
        else:
            env = self.topo.client.reveal(query_id, ref)
        return decode_int64(self.topo.client_decrypt(env))

    # -- setup -------------------------------------------------------------

    def _preload(self, db: Database) -> list:
        tables = []
        for i in range(self.spec.tables):
            tables.append(db.create_table(f"sb{i}", list(TABLE_SCHEMA)))
        for t, rows in zip(tables, self.program.preload):
            txn = db.begin()
            for key, (k_value, c_value) in enumerate(rows, start=1):
                kref = self._ingest_int(txn.query_id, k_value)
                cref = self._ingest_bytes(txn.query_id, c_value)
                db.insert_row(txn, t, [key, kref, cref, b"sb-pad"])
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
            report.crashed_at = (topo.fired.id.value if topo.fired
                                 else "privacy-unavailable")
            return report
        base = topo.counters()

        schedule = flatten_schedule(self.program)
        active: dict[int, object] = {}
        dead: set[int] = set()
        try:
            for entry in schedule:
                topo._statement_tick()
                kind = entry[0]
                if kind == "begin":
                    txn = db.begin()
                    active[entry[2]] = txn
                elif kind == "op":
                    _, _, txn_index, op_index = entry
                    if txn_index in dead:
                        continue
                    txn = active[txn_index]
                    template = self.program.txns[txn_index]
                    try:
                        self._exec_op(db, tables, txn, template.ops[op_index],
                                      template.values[op_index])
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
                    txn = active.pop(txn_index)
                    if self.program.txns[txn_index].abort:
                        db.abort(txn)
                        report.txns_aborted += 1
                    else:
                        db.commit(txn)
                        report.txns_committed += 1
                    self._end_query_quietly(txn)
        except ZoneCrashed as exc:
            report.crashed_at = str(exc)
        except Unavailable:
            for txn in active.values():
                db.abort(txn)
                report.txns_aborted += 1
            report.crashed_at = (topo.fired.id.value if topo.fired
                                 else "privacy-unavailable")

        if not topo.privacy.crashed and not topo.integrity.crashed:
            if spec.mode in (Mode.READ_WRITE, Mode.WRITE_ONLY, Mode.INSERT_ONLY):
                try:
                    for t in tables:
                        report.vacuum_reclaimed += db.vacuum(t)
                    report.gc_reclaimed = db.orphan_gc()
                except ZoneCrashed as exc:
                    report.crashed_at = str(exc)
                except Unavailable:
                    report.crashed_at = (topo.fired.id.value if topo.fired
                                         else "privacy-unavailable")
        # workload and maintenance traffic only: the checker's is not the
        # workload's, and the cipher backend sends none
        for key, value in topo.counters().items():
            setattr(report, key, value - base[key])
        if not topo.privacy.crashed and not topo.integrity.crashed:
            invariant = topo.check_invariant()
            report.invariant_holds = invariant.holds
            report.violations = len(invariant.violations)
            report.orphans = invariant.orphans
        return report

    def _end_query_quietly(self, txn) -> None:
        try:
            self.topo.client.end_query(txn.query_id)
        except Unavailable:
            pass

    def _exec_op(self, db: Database, tables, txn, op: tuple, values: tuple) -> None:
        kind = op[0]
        topo = self.topo
        report = self.report
        if kind == "point_select":
            table, key = tables[op[1]], op[2]
            version = db.visible_version(table, key, txn)
            if version is None:
                topo.trace.result_size(0)
                report.revealed.append(("point", op[1], key, None))
                return
            value = self._reveal_int(txn.query_id, version.cells[_COL_K])
            topo.trace.result_size(1)
            report.revealed.append(("point", op[1], key, value))
        elif kind == "range_sum":
            table, start, span = tables[op[1]], op[2], op[3]
            if self.spec.mode == Mode.RANGE_SELECT and not self.cipher:
                topo.client.prefetch(table.partition_id)
            refs = []
            for key in range(start, start + span):
                version = db.visible_version(table, key, txn)
                if version is not None:
                    refs.append(version.cells[_COL_K])
            topo.trace.result_size(len(refs))
            if not refs:
                report.revealed.append(("sum", op[1], start, 0))
                return
            agg = db.backend.aggregate(txn.query_id, OpKind.SUM_AGG,
                                       ValueType.INT64, refs, self.spec.batch_size)
            value = self._reveal_int(txn.query_id, agg)
            report.revealed.append(("sum", op[1], start, value))
        elif kind == "update_add":
            table, key = tables[op[1]], op[2]
            version = db.visible_version(table, key, txn)
            if version is None:
                return
            delta = values[0]
            const_ref = self._ingest_int(txn.query_id, delta)
            if self.cipher:
                out = topo.client.cipher_exec(
                    txn.query_id,
                    [(OpKind.ADD, ValueType.INT64, [version.cells[_COL_K], const_ref])],
                    self.spec.batch_size)
                new_ref = out[0][0]
            else:
                resp = topo.client.exec_operator(
                    txn.query_id,
                    OperatorRequest(OpKind.ADD, ValueType.INT64,
                                    [version.cells[_COL_K], const_ref]))
                new_ref = resp.fid
            db.update_row(txn, table, key, {"k": new_ref})
            topo.trace.result_size(1)
        elif kind == "update_bytes":
            table, key = tables[op[1]], op[2]
            version = db.visible_version(table, key, txn)
            if version is None:
                return
            new_ref = self._ingest_bytes(txn.query_id, values[0])
            db.update_row(txn, table, key, {"c": new_ref})
            topo.trace.result_size(1)
        elif kind == "insert":
            table = tables[op[1]]
            k_value, c_value = values
            kref = self._ingest_int(txn.query_id, k_value)
            cref = self._ingest_bytes(txn.query_id, c_value)
            db.insert_row(txn, table, [op[2], kref, cref, b"sb-pad"])
            topo.trace.result_size(1)
        else:
            raise ValueError(f"unknown op {kind}")


def run_workload(seed: int, spec: WorkloadSpec, **topology_kwargs) -> RunReport:
    """Build a fresh topology and run one workload; deterministic per seed."""
    topo = ZoneTopology(seed, batch_size=spec.batch_size, **topology_kwargs)
    return topo.run_workload(spec)


def trace_indistinguishability(spec_a: WorkloadSpec, spec_b: WorkloadSpec,
                               seed: int, **topology_kwargs) -> bool:
    """True iff two structure-identical workloads (differing only in secret
    values) produce event-for-event identical adversary traces."""
    prog_a = generate_workload(spec_a, seed)
    prog_b = generate_workload(spec_b, seed)
    if shape_signature(prog_a) != shape_signature(prog_b):
        raise StructureMismatch("workloads differ structurally")
    topo_a = ZoneTopology(seed, batch_size=spec_a.batch_size, **topology_kwargs)
    topo_a.run_program(prog_a)
    topo_b = ZoneTopology(seed, batch_size=spec_b.batch_size, **topology_kwargs)
    topo_b.run_program(prog_b)
    return topo_a.trace.events == topo_b.trace.events
