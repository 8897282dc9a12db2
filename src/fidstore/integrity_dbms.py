"""Minimal transactional table engine for the untrusted-side zone.

Rows are version chains under snapshot isolation with first-updater-wins
conflicts. Sensitive cells hold only field identifiers (or, for the
ciphertext baseline, AEAD envelopes); plaintext never enters this zone.

Updates never touch old secrets: the superseded version stays readable for
older snapshots and records which refs it will release. Physical
reclamation happens off the write path: vacuum removes versions invisible
to every snapshot and only then deletes their replaced refs from the
mapping store; orphan_gc sweeps store entries no row version references
(the leftovers of transactions that crashed between the two commit
phases).

Commit ordering is the cross-domain contract: the privacy zone's journal
is flushed (commit #1) strictly before this engine's own commit record
becomes durable (commit #2), so a durable FID always has a durable secret.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .durability import DurableBuffer, SnapshotStore
from .errors import (
    IoFailure,
    NotLive,
    RowNotVisible,
    SchemaMismatch,
    TypeMismatch,
    Unavailable,
    WriteConflict,
)
from .fid_codec import fid_from_bytes, fid_to_bytes
from .privacy_proxy import COMPARISONS, OperatorRequest, OpKind, ValueType
from .wal import frame_record, read_frames

CATALOG = "catalog.json"

DB_INSERT = 1
DB_END = 2
DB_REMOVE = 3
DB_COMMIT = 4

_REC_HEAD = struct.Struct("<QB")
_U32 = struct.Struct("<I")


class ColumnType(IntEnum):
    PLAIN_INT = 1
    PLAIN_BYTES = 2
    SENSITIVE_INT = 3
    SENSITIVE_BYTES = 4


SENSITIVE_TYPES = frozenset({ColumnType.SENSITIVE_INT, ColumnType.SENSITIVE_BYTES})


@dataclass(frozen=True)
class Column:
    name: str
    ctype: ColumnType


class TxnState(IntEnum):
    ACTIVE = 1
    PREPARING = 2
    COMMITTED = 3
    ABORTED = 4


class RowVersion:
    __slots__ = ("row_id", "vseq", "begin_txn", "end_txn", "cells", "release_refs")

    def __init__(self, row_id, vseq, begin_txn, cells):
        self.row_id = row_id
        self.vseq = vseq
        self.begin_txn = begin_txn
        self.end_txn = None
        self.cells = cells
        self.release_refs: list = []


class Txn:
    __slots__ = ("txn_id", "state", "snapshot_seq", "write_set", "staged",
                 "promoted", "query_id")

    def __init__(self, txn_id, snapshot_seq):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.snapshot_seq = snapshot_seq
        # (table, row_id, old_version, new_version, promoted_refs)
        self.write_set: list = []
        self.staged: list = []
        self.promoted: list = []
        self.query_id = txn_id


class Table:
    def __init__(self, name: str, idx: int, schema: list[Column], partition_id: int):
        self.name = name
        self.idx = idx
        self.schema = schema
        self.partition_id = partition_id
        self.rows: dict[int, list[RowVersion]] = {}
        self.next_row_id = 1
        self.next_vseq = 1
        self.abort_garbage: list = []
        self.col_index = {c.name: i for i, c in enumerate(schema)}
        self.sensitive = [i for i, c in enumerate(schema) if c.ctype in SENSITIVE_TYPES]


@dataclass
class Predicate:
    """Filter `column <op> constant`; the constant is a ref for sensitive
    columns (ingested by the caller) and a plain value otherwise.

    On a SENSITIVE_BYTES column holding padded values (zone_sim's
    pad_sensitive), CMP_EQ is exact, but CMP_LT/CMP_GT compare the
    little-endian length prefix first, so their order is not the order of
    the unpadded plaintexts."""

    column: str
    op: OpKind
    constant: object


def compare_pairs(run, query_id: int, op: OpKind, vtype: ValueType,
                  pairs: list[tuple], batch_size: int) -> list[bool]:
    """One comparison per (a, b) pair, batch_size operand fields per round
    trip. run(query_id, op, vtype, operand_lists, per_msg) is the backend's
    operator batch; it returns one result per operand list."""
    return run(query_id, op, vtype, [[a, b] for a, b in pairs],
               max(1, batch_size // 2))


def reduce_refs(run, query_id: int, op: OpKind, vtype: ValueType,
                refs: list, batch_size: int):
    """Reduction tree with batch_size operand fields per round trip; each
    level's partial results are the next level's operands."""
    if op == OpKind.AVG_AGG:
        # partial averages cannot be averaged again, and the integrity zone
        # cannot mint the count constant a SUM/COUNT split would need
        raise TypeMismatch("AVG_AGG does not reduce in a tree")
    fan_in = max(2, batch_size)
    level = refs
    while len(level) > 1:
        groups = [level[lo:lo + fan_in] for lo in range(0, len(level), fan_in)]
        level = run(query_id, op, vtype, groups, max(1, batch_size // fan_in))
    return level[0]


class FidBackend:
    """Sensitive refs are FIDs resolved through the mapping store."""

    name = "fid"

    def __init__(self, client):
        self.client = client

    def promote(self, temp_ref: int, partition_id: int) -> int:
        return self.client.promote(temp_ref, partition_id)

    def release(self, ref: int) -> bool:
        try:
            self.client.delete(ref)
            return True
        except NotLive:
            return False  # already reclaimed by an earlier, interrupted pass

    def _run(self, query_id, op, vtype, operand_lists, per_msg) -> list:
        reqs = [OperatorRequest(op, vtype, fids) for fids in operand_lists]
        out = self.client.exec_batch(query_id, reqs, per_msg)
        if op in COMPARISONS:
            return [r.boolean for r in out]
        return [r.fid for r in out]

    def compare_many(self, query_id: int, op: OpKind, vtype: ValueType,
                     pairs: list[tuple[int, int]], batch_size: int) -> list[bool]:
        return compare_pairs(self._run, query_id, op, vtype, pairs, batch_size)

    def aggregate(self, query_id: int, op: OpKind, vtype: ValueType,
                  refs: list[int], batch_size: int) -> int:
        return reduce_refs(self._run, query_id, op, vtype, refs, batch_size)

    def ref_to_wire(self, ref: int) -> bytes:
        return fid_to_bytes(ref)

    def ref_from_wire(self, data: bytes) -> int:
        return fid_from_bytes(data)

    def observe(self, trace, ref: int) -> None:
        if trace is not None:
            trace.fid(ref)


class CipherBackend:
    """Baseline: sensitive refs are AEAD envelopes under the zone key; every
    operator call decrypts its operands and re-encrypts its result."""

    name = "cipher"

    def __init__(self, client):
        self.client = client

    def promote(self, temp_ref: bytes, partition_id: int) -> bytes:
        return temp_ref  # the envelope itself is the stored form

    def release(self, ref: bytes) -> bool:
        return False

    def _run(self, query_id, op, vtype, operand_lists, per_msg) -> list:
        reqs = [(op, vtype, envs) for envs in operand_lists]
        out = self.client.cipher_exec(query_id, reqs, per_msg)
        if op in COMPARISONS:
            return [flag for _, flag, _ in out]
        return [env for env, _, _ in out]

    def compare_many(self, query_id, op, vtype, pairs, batch_size):
        return compare_pairs(self._run, query_id, op, vtype, pairs, batch_size)

    def aggregate(self, query_id, op, vtype, refs, batch_size):
        return reduce_refs(self._run, query_id, op, vtype, refs, batch_size)

    def ref_to_wire(self, ref: bytes) -> bytes:
        return ref

    def ref_from_wire(self, data: bytes) -> bytes:
        return data

    def observe(self, trace, ref) -> None:
        pass


class Database:
    """Programmatic table engine; no SQL surface, just enough to exercise
    the cross-domain protocols under realistic transactional workloads."""

    def __init__(self, client, backend, dbwal: DurableBuffer,
                 snapshots: SnapshotStore, *, batch_size: int = 256,
                 trace=None, crash_hook=None,
                 protocol_events: list | None = None):
        self.client = client
        self.backend = backend
        self.dbwal = dbwal
        self.snapshots = snapshots
        self.batch_size = batch_size
        self.trace = trace
        self.crash_hook = crash_hook
        self.protocol_events = protocol_events if protocol_events is not None else []
        self.tables: dict[str, Table] = {}
        self.tables_by_idx: list[Table] = []
        self.active_txns: dict[int, Txn] = {}
        self.committed: dict[int, int] = {}
        self.next_txn_id = 1
        self.next_commit_seq = 1
        self.next_lsn = 1

    # ------------------------------------------------------------------
    # schema

    def create_table(self, name: str, schema: list[Column]) -> Table:
        if name in self.tables:
            raise SchemaMismatch(f"table {name} already exists")
        partition_id = self.client.create_partition(1, 2, 0)  # permanent, varlen
        # same ordering as commit: the partition's journal record must be
        # durable before the catalog durably references it
        self.client.flush_log()
        table = Table(name, len(self.tables_by_idx), schema, partition_id)
        self.tables[name] = table
        self.tables_by_idx.append(table)
        self._write_catalog()
        return table

    def _write_catalog(self) -> None:
        doc = {
            "backend": self.backend.name,
            "tables": [
                {
                    "name": t.name,
                    "schema": [[c.name, int(c.ctype)] for c in t.schema],
                    "partition_id": t.partition_id,
                }
                for t in self.tables_by_idx
            ],
        }
        self.snapshots.put_atomic(CATALOG, json.dumps(doc, indent=1).encode())

    # ------------------------------------------------------------------
    # transactions

    def begin(self) -> Txn:
        txn = Txn(self.next_txn_id, self.next_commit_seq - 1)
        self.next_txn_id += 1
        self.active_txns[txn.txn_id] = txn
        return txn

    def _hook(self, site: str, txn: Txn | None) -> None:
        if self.crash_hook is not None:
            self.crash_hook(site, txn)

    def commit(self, txn: Txn) -> None:
        if txn.state != TxnState.ACTIVE:
            raise ValueError(f"commit on txn in state {txn.state}")
        txn.state = TxnState.PREPARING
        self._hook("before_privacy_flush", txn)
        try:
            self.client.flush_log()  # commit #1: secrets become durable
        except (Unavailable, IoFailure):
            self.abort(txn)
            raise
        self.protocol_events.append(("privacy_flush_done", txn.txn_id))
        self._hook("after_privacy_flush", txn)
        frames = []
        for rec in txn.staged:
            frames.append(self._frame(rec))
        frames.append(self._frame(self._record(DB_COMMIT, txn=txn.txn_id)))
        pending_before = self.dbwal.pending_len
        self.dbwal.append(b"".join(frames))
        try:
            self.dbwal.sync()  # commit #2: the FIDs become externally visible
        except OSError as exc:
            # retract this txn's frames so a later commit cannot sync them
            self.dbwal.truncate_pending(pending_before)
            self.abort(txn)
            raise IoFailure(str(exc)) from exc
        self.protocol_events.append(("db_commit_durable", txn.txn_id))
        self._hook("after_db_commit", txn)
        txn.state = TxnState.COMMITTED
        self.committed[txn.txn_id] = self.next_commit_seq
        self.next_commit_seq += 1
        self.active_txns.pop(txn.txn_id, None)

    def abort(self, txn: Txn) -> None:
        if txn.state not in (TxnState.ACTIVE, TxnState.PREPARING):
            return
        for table, row_id, old_v, new_v, promoted in reversed(txn.write_set):
            chain = table.rows.get(row_id)
            if chain and chain[-1] is new_v:
                chain.pop()
            if chain is not None and not chain:
                del table.rows[row_id]
            if old_v is not None:
                old_v.end_txn = None
                old_v.release_refs = []
            table.abort_garbage.extend(promoted)
        txn.state = TxnState.ABORTED
        txn.staged.clear()
        self.active_txns.pop(txn.txn_id, None)

    # ------------------------------------------------------------------
    # row operations

    def insert_row(self, txn: Txn, table: Table, values: list) -> int:
        if txn.state != TxnState.ACTIVE:
            raise ValueError("insert on inactive txn")
        if len(values) != len(table.schema):
            raise SchemaMismatch(
                f"{table.name} has {len(table.schema)} columns, got {len(values)}"
            )
        cells = []
        promoted = []
        for col, value in zip(table.schema, values):
            cells.append(self._prepare_cell(table, col, value, promoted))
        row_id = table.next_row_id
        table.next_row_id += 1
        version = RowVersion(row_id, table.next_vseq, txn.txn_id, cells)
        table.next_vseq += 1
        table.rows[row_id] = [version]
        txn.write_set.append((table, row_id, None, version, promoted))
        txn.promoted.extend(promoted)
        txn.staged.append(self._record(DB_INSERT, txn=txn.txn_id, table=table.idx,
                                       row=row_id, vseq=version.vseq,
                                       cells=self._cells_wire(table, cells)))
        self._observe_cells(table, cells)
        return row_id

    def _prepare_cell(self, table: Table, col: Column, value, promoted: list):
        if col.ctype == ColumnType.PLAIN_INT:
            if not isinstance(value, int):
                raise SchemaMismatch(f"{col.name} expects int")
            return value
        if col.ctype == ColumnType.PLAIN_BYTES:
            if not isinstance(value, (bytes, bytearray)):
                raise SchemaMismatch(f"{col.name} expects bytes")
            return bytes(value)
        # sensitive: the caller hands us a temporary ref from ingest/operators
        ref = self.backend.promote(value, table.partition_id)
        promoted.append(ref)
        return ref

    def update_row(self, txn: Txn, table: Table, row_id: int,
                   new_values: dict) -> None:
        if txn.state != TxnState.ACTIVE:
            raise ValueError("update on inactive txn")
        chain = table.rows.get(row_id)
        if not chain:
            raise RowNotVisible(f"row {row_id} does not exist")
        head = chain[-1]
        if head.begin_txn != txn.txn_id:
            cs = self.committed.get(head.begin_txn)
            if cs is None:
                raise WriteConflict(
                    f"row {row_id} has an uncommitted update by txn {head.begin_txn}"
                )
            if cs > txn.snapshot_seq:
                raise WriteConflict(f"row {row_id} changed after this snapshot")
        cells = list(head.cells)
        release = []
        promoted = []
        for name, value in new_values.items():
            idx = table.col_index.get(name)
            if idx is None:
                raise SchemaMismatch(f"no column {name} in {table.name}")
            col = table.schema[idx]
            if col.ctype in SENSITIVE_TYPES:
                release.append(cells[idx])
            cells[idx] = self._prepare_cell(table, col, value, promoted)
        version = RowVersion(row_id, table.next_vseq, txn.txn_id, cells)
        table.next_vseq += 1
        head.end_txn = txn.txn_id
        head.release_refs = release
        chain.append(version)
        txn.write_set.append((table, row_id, head, version, promoted))
        txn.promoted.extend(promoted)
        txn.staged.append(self._record(DB_END, txn=txn.txn_id, table=table.idx,
                                       row=row_id, vseq=head.vseq,
                                       cells=self._refs_wire(release)))
        txn.staged.append(self._record(DB_INSERT, txn=txn.txn_id, table=table.idx,
                                       row=row_id, vseq=version.vseq,
                                       cells=self._cells_wire(table, cells)))
        self._observe_cells(table, cells)

    def _observe_cells(self, table: Table, cells: list) -> None:
        for col, cell in zip(table.schema, cells):
            if col.ctype in SENSITIVE_TYPES:
                self.backend.observe(self.trace, cell)

    # ------------------------------------------------------------------
    # visibility

    def _visible(self, version: RowVersion, txn: Txn) -> bool:
        b = version.begin_txn
        if b != txn.txn_id:
            cs = self.committed.get(b)
            if cs is None or cs > txn.snapshot_seq:
                return False
        e = version.end_txn
        if e is None:
            return True
        if e == txn.txn_id:
            return False
        cs = self.committed.get(e)
        return cs is None or cs > txn.snapshot_seq

    def visible_version(self, table: Table, row_id: int, txn: Txn) -> RowVersion | None:
        chain = table.rows.get(row_id)
        if not chain:
            return None
        for version in reversed(chain):
            if self._visible(version, txn):
                return version
        return None

    # ------------------------------------------------------------------
    # queries

    def select(self, txn: Txn, table: Table,
               predicate: Predicate | None = None) -> list[RowVersion]:
        visible = []
        for row_id in table.rows:
            v = self.visible_version(table, row_id, txn)
            if v is not None:
                visible.append(v)
        if predicate is None:
            return visible
        idx = table.col_index.get(predicate.column)
        if idx is None:
            raise SchemaMismatch(f"no column {predicate.column}")
        col = table.schema[idx]
        if col.ctype in SENSITIVE_TYPES:
            vtype = (ValueType.INT64 if col.ctype == ColumnType.SENSITIVE_INT
                     else ValueType.BYTES)
            pairs = [(v.cells[idx], predicate.constant) for v in visible]
            flags = self.backend.compare_many(txn.query_id, predicate.op, vtype,
                                              pairs, self.batch_size)
            return [v for v, keep in zip(visible, flags) if keep]
        return [v for v in visible
                if _plain_compare(predicate.op, v.cells[idx], predicate.constant)]

    def sum_column(self, txn: Txn, table: Table, column: str,
                   predicate: Predicate | None = None, zero_ref=None):
        """Aggregate a sensitive int column; the result is a ref the caller
        reveals client-side. zero_ref serves as the empty-input sum."""
        idx = table.col_index[column]
        if table.schema[idx].ctype != ColumnType.SENSITIVE_INT:
            raise SchemaMismatch(f"{column} is not a sensitive int column")
        rows = self.select(txn, table, predicate)
        refs = [v.cells[idx] for v in rows]
        if self.trace is not None:
            self.trace.result_size(len(refs))
        if not refs:
            if zero_ref is None:
                raise ValueError("empty aggregation needs a zero constant ref")
            return zero_ref
        return self.backend.aggregate(txn.query_id, OpKind.SUM_AGG,
                                      ValueType.INT64, refs, self.batch_size)

    # ------------------------------------------------------------------
    # maintenance

    def vacuum(self, table: Table) -> int:
        """Drop versions invisible to every snapshot; delete the store
        mappings they were holding. Runs outside any transaction."""
        min_snapshot = min((t.snapshot_seq for t in self.active_txns.values()),
                           default=None)
        reclaimed = 0
        remove_records = []
        step = 0
        for row_id in list(table.rows):
            chain = table.rows[row_id]
            kept = []
            for version in chain:
                if self._version_dead(version, min_snapshot):
                    for ref in version.release_refs:
                        if self.backend.release(ref):
                            reclaimed += 1
                    remove_records.append(self._record(
                        DB_REMOVE, table=table.idx, row=row_id, vseq=version.vseq))
                    step += 1
                    self._hook("during_vacuum", None)
                else:
                    kept.append(version)
            table.rows[row_id] = kept
        garbage, table.abort_garbage = table.abort_garbage, []
        for ref in garbage:
            if self.backend.release(ref):
                reclaimed += 1
            step += 1
            self._hook("during_vacuum", None)
        try:
            self.client.flush_log()
        except Unavailable:
            raise
        if remove_records:
            self.dbwal.append(b"".join(self._frame(r) for r in remove_records))
            self.dbwal.sync()
        return reclaimed

    def _version_dead(self, version: RowVersion, min_snapshot: int | None) -> bool:
        e = version.end_txn
        if e is None:
            return False
        cs = self.committed.get(e)
        if cs is None:
            return False  # ended by an in-flight txn; outcome unknown
        return min_snapshot is None or cs <= min_snapshot

    def orphan_gc(self) -> int:
        """Delete store entries no row version references. Quiescent only:
        an in-flight insert's secrets look like orphans until its commit."""
        if self.active_txns:
            raise ValueError("orphan_gc requires no active transactions")
        referenced = self.referenced_refs()
        reclaimed = 0
        for table in self.tables_by_idx:
            if self.backend.name != "fid":
                continue
            self._hook("during_orphan_gc", None)
            for fid in self.client.list_live(table.partition_id):
                if fid not in referenced:
                    if self.backend.release(fid):
                        reclaimed += 1
                    self._hook("during_orphan_gc", None)
        if reclaimed:
            self.client.flush_log()
        return reclaimed

    def referenced_refs(self) -> set:
        """Every sensitive ref a row version or a table's abort garbage
        still holds; store entries outside this set are orphans."""
        referenced = set()
        for table in self.tables_by_idx:
            for chain in table.rows.values():
                for version in chain:
                    for i in table.sensitive:
                        referenced.add(version.cells[i])
            referenced.update(table.abort_garbage)
        return referenced

    # ------------------------------------------------------------------
    # DbWal records

    def _record(self, kind: int, txn: int = 0, table: int = 0, row: int = 0,
                vseq: int = 0, cells: bytes = b"") -> bytes:
        lsn = self.next_lsn
        self.next_lsn += 1
        head = _REC_HEAD.pack(lsn, kind)
        if kind == DB_COMMIT:
            return head + struct.pack("<Q", txn)
        if kind == DB_REMOVE:
            return head + struct.pack("<IQQ", table, row, vseq)
        return head + struct.pack("<QIQQ", txn, table, row, vseq) + cells

    def _frame(self, record: bytes) -> bytes:
        return frame_record(record)

    def _refs_wire(self, refs: list) -> bytes:
        out = [struct.pack("<H", len(refs))]
        for ref in refs:
            wire = self.backend.ref_to_wire(ref)
            out.append(_U32.pack(len(wire)))
            out.append(wire)
        return b"".join(out)

    def _refs_from_wire(self, data: bytes, pos: int) -> tuple[list, int]:
        (n,) = struct.unpack_from("<H", data, pos)
        pos += 2
        refs = []
        for _ in range(n):
            (ln,) = _U32.unpack_from(data, pos)
            pos += 4
            refs.append(self.backend.ref_from_wire(data[pos:pos + ln]))
            pos += ln
        return refs, pos

    def _cells_wire(self, table: Table, cells: list) -> bytes:
        out = [struct.pack("<H", len(cells))]
        for col, cell in zip(table.schema, cells):
            if col.ctype == ColumnType.PLAIN_INT:
                out.append(struct.pack("<q", cell))
            elif col.ctype == ColumnType.PLAIN_BYTES:
                out.append(_U32.pack(len(cell)))
                out.append(cell)
            else:
                wire = self.backend.ref_to_wire(cell)
                out.append(_U32.pack(len(wire)))
                out.append(wire)
        return b"".join(out)

    def _cells_from_wire(self, table: Table, data: bytes, pos: int) -> tuple[list, int]:
        (n,) = struct.unpack_from("<H", data, pos)
        pos += 2
        cells = []
        for col in table.schema[:n]:
            if col.ctype == ColumnType.PLAIN_INT:
                (v,) = struct.unpack_from("<q", data, pos)
                pos += 8
                cells.append(v)
            else:
                (ln,) = _U32.unpack_from(data, pos)
                pos += 4
                raw = data[pos:pos + ln]
                pos += ln
                if col.ctype == ColumnType.PLAIN_BYTES:
                    cells.append(raw)
                else:
                    cells.append(self.backend.ref_from_wire(raw))
        return cells, pos


def _plain_compare(op: OpKind, a, b) -> bool:
    if op == OpKind.CMP_LT:
        return a < b
    if op == OpKind.CMP_EQ:
        return a == b
    if op == OpKind.CMP_GT:
        return a > b
    raise ValueError(f"not a comparison: {op}")


# ----------------------------------------------------------------------
# recovery


def recover_database(client, backend, dbwal: DurableBuffer,
                     snapshots: SnapshotStore, **db_kwargs) -> tuple[Database, int]:
    """Rebuild the engine from catalog.json plus the durable DbWal. Any
    transaction without a durable commit record is treated as aborted: its
    row versions are never materialized, so its promoted secrets surface as
    store orphans for orphan_gc."""
    db = Database(client, backend, dbwal, snapshots, **db_kwargs)
    raw_catalog = snapshots.get(CATALOG)
    if raw_catalog:
        doc = json.loads(raw_catalog)
        for entry in doc.get("tables", []):
            schema = [Column(n, ColumnType(t)) for n, t in entry["schema"]]
            table = Table(entry["name"], len(db.tables_by_idx), schema,
                          entry["partition_id"])
            db.tables[table.name] = table
            db.tables_by_idx.append(table)

    frames = read_frames(dbwal.durable)
    records = []
    committed_order = []
    max_txn = 0
    max_lsn = 0
    for body in frames:
        lsn, kind = _REC_HEAD.unpack_from(body, 0)
        max_lsn = max(max_lsn, lsn)
        records.append((lsn, kind, body))
        if kind == DB_COMMIT:
            (txn_id,) = struct.unpack_from("<Q", body, _REC_HEAD.size)
            committed_order.append(txn_id)
            max_txn = max(max_txn, txn_id)

    committed = {txn_id: seq + 1 for seq, txn_id in enumerate(committed_order)}
    replayed = 0
    for lsn, kind, body in records:
        pos = _REC_HEAD.size
        if kind == DB_COMMIT:
            replayed += 1
            continue
        if kind == DB_REMOVE:
            table_idx, row_id, vseq = struct.unpack_from("<IQQ", body, pos)
            table = db.tables_by_idx[table_idx]
            chain = table.rows.get(row_id)
            if chain:
                table.rows[row_id] = [v for v in chain if v.vseq != vseq]
                if not table.rows[row_id]:
                    del table.rows[row_id]
            replayed += 1
            continue
        txn_id, table_idx, row_id, vseq = struct.unpack_from("<QIQQ", body, pos)
        max_txn = max(max_txn, txn_id)
        if txn_id not in committed:
            continue  # crashed before its commit record: aborted
        table = db.tables_by_idx[table_idx]
        if kind == DB_INSERT:
            cells, _ = db._cells_from_wire(table, body, pos + struct.calcsize("<QIQQ"))
            version = RowVersion(row_id, vseq, txn_id, cells)
            table.rows.setdefault(row_id, []).append(version)
            table.next_row_id = max(table.next_row_id, row_id + 1)
            table.next_vseq = max(table.next_vseq, vseq + 1)
        elif kind == DB_END:
            release, _ = db._refs_from_wire(body, pos + struct.calcsize("<QIQQ"))
            for version in table.rows.get(row_id, ()):
                if version.vseq == vseq:
                    version.end_txn = txn_id
                    version.release_refs = release
        replayed += 1

    db.committed = committed
    db.next_txn_id = max_txn + 1
    db.next_commit_seq = len(committed_order) + 1
    db.next_lsn = max_lsn + 1
    return db, replayed
