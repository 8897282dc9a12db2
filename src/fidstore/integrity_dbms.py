"""Minimal transactional table engine for the untrusted-side zone.

Rows are version chains under snapshot isolation with first-updater-wins
conflicts. Sensitive cells hold only field identifiers (or, for the
ciphertext baseline, AEAD envelopes); plaintext never enters this zone.

Updates never touch old secrets: the superseded version stays readable for
older snapshots, and its successor, the next version in its row's chain,
says which refs it will release: its sensitive cells that the successor
does not hold (every ref a row holds is one this engine wrote for that
cell, so a changed cell never keeps its ref and an unchanged one always
does). Physical reclamation happens off the write path: vacuum removes
versions invisible to every snapshot and only then deletes their replaced
refs from the mapping store; orphan_gc sweeps store entries no row version
references (the secrets of transactions that never committed, made durable
by a checkpoint another caller asked for).

The engine is the only author of the refs its rows hold. A sensitive value
handed to insert_row or update_row is a ClientEnvelope, which MSG_INGEST
writes into the table's partition, or an OperatorRequest into that
partition (an ADD over the old ref or a STORE of a client envelope) whose
every stored operand is the ref of the cell it replaces, so an insert's
reads none. Anything else, a FID or a zone envelope above all, raises
before any message is sent. A transaction holds its writes: the new
version is installed at once with a placeholder in each written cell, so
first-updater-wins, the write set and abort work as for any other write.
commit sends all of the transaction's writes in one backend call
(send_writes), before it journals anything, then fills the placeholders, claims
the fresh refs with the recipes of the calls that wrote them and stages
the versions, so the durability order below is unchanged. So a write-only
transaction crosses to the privacy zone once, and an aborted one never.
The writes go earlier only when the transaction reads, sums or writes
again a version it wrote that still holds a placeholder (visible_version,
update_row): that depends on keys alone.

The cross-domain contract is an invariant: a durably visible FID has a
durable secret, or a durable recipe whose operands are durable or backed
by a recipe. A secret is durable once a privacy checkpoint seals it: the
privacy journal holds deletes and partition creations, never a value. A
recipe is the bytes that wrote a fresh FID (messages): the client envelope
of an ingest, or the operator element whose value result went to the
table's partition. A commit syncs only this engine's journal, as the
cipher baseline's does, and appends one record to it: the DB_COMMIT holds
the transaction's row versions and then the recipe of each fresh FID they
claim, in claim order. Once that sync returns the transaction is committed
and its recipes are pending (Database.recipes); before it, nothing of the
transaction is durable. Restore re-runs the recipes in that order, so
each operand a recipe reads must come back before it, and by construction
it does: an operand is the ref of the cell its write replaced, which is
either a committed visible ref, whose secret a privacy checkpoint made
durable or whose recipe is pending, or the transaction's own earlier
write, claimed earlier in the same commit (a write over a placeholder
sends the pending writes first). A MSG_FLUSH_LOG with the checkpoint
flag makes every secret written before it durable, so once it returns no
recipe is pending; a plain one makes only delete and create records
durable (where the engine sends each: messages). A commit sends neither.
A transaction that staged nothing makes no FID visible, so its commit
takes a commit sequence number and touches neither journal.

When the privacy zone restarts, it has lost every secret that was not yet
durable, and a lost FID's slot may be handed out again. Before any other
request, restore_recipes sends every pending recipe (MSG_RESTORE), and the
privacy zone writes each lost FID again at exactly that FID, in commit
order, so an operand comes back before the results computed from it. It
skips a FID that is live, which is safe because every MSG_DELETE batch is
followed by a flush that returns before the next write (vacuum and
orphan_gc), which makes the deletes durable: a live FID never holds a
secret older than a recipe's. Then privacy_restarted aborts every active
transaction that stored a ref and forgets the abort garbage, so no lost
ref is ever committed or released; whatever of it did survive is an orphan
for orphan_gc.

Every sync of the engine's journal appends exactly one record: a
create_table's DB_TABLE, a commit's DB_COMMIT or a vacuum pass's
DB_REMOVE. The journal follows the checkpoint rule in wal: it checkpoints
after the sync of a commit or vacuum that took it past the interval, and
when orphan_gc ends with no transaction active, if it holds records. Both
zones checkpoint together whenever the image names a secret no checkpoint
has made durable: the MSG_FLUSH_LOG a checkpoint then sends, like
orphan_gc's closing one, carries the checkpoint flag, so the privacy zone
checkpoints right after that sync and seals those secrets. After
maintenance both zones' durable state is images and sealed blocks only.
The image holds every table (its DB_TABLE encoding), the newest committed
version of every row (its cells as its commit record holds them, the
bytes RowVersion.wire kept since the version was staged or decoded, after
a version head of its row id, vseq and writer txn) and the next_*
counters, in one CRC frame (wal.frame), so recovery refuses a damaged
image. A record gets its LSN when it is journaled, so LSNs increase along
the journal and the image's next_lsn is its cover. No transaction
outlives a crash, so no snapshot after recovery can see an older version;
a ref only an older version holds is an orphan for orphan_gc if the crash
comes before vacuum releases it. For the same reason the image holds no
commit seq (recover_database).

Both encodings are as compact as the schema allows, with no format flag:
a table's cells are one struct (Table.cells), with no cell count and a
length only before a PLAIN_BYTES cell or a cipher envelope, and a version
head writes each field at the narrowest width its counter needs, as a
slot map writes its owner offsets. The widths leak nothing: the counters
that fix them (row ids, vseqs, txn ids) are set by the op sequence, no
secret value reaches the image, and a cipher envelope's length was in the
image before. recover_database refuses an image or record in any other
layout with CorruptLog; it keeps no reader for an older one.

The image holds FIDs only, never a recipe. So a checkpoint sends one
MSG_FLUSH_LOG, with the checkpoint flag, before it writes its image if a
recipe is pending, and recovery restores at most one checkpoint interval
of recipes.

A failed durable write stops its zone (durability's fail-stop rule). Here
the engine stops (stopped), drops its journal's unsynced bytes and raises
ZoneCrashed("io_failure"), so a commit whose own sync failed has an unknown
outcome, as after a timeout. A scheduled crash stops it the same way, just
before one of its durable writes (zone_sim): the engine names no crash
site.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from . import wal
from .durability import DurableBuffer, SnapshotStore
from .errors import (
    CorruptLog,
    RowNotVisible,
    SchemaMismatch,
    TypeMismatch,
    Unavailable,
    WriteConflict,
    ZoneCrashed,
    WrongPartitionKind,
    error_for_code,
)
from .mapping_store import UINT_CODES, narrowest_width
from .messages import RECIPE_INGEST
from .privacy_proxy import (
    COMPARISONS,
    ClientEnvelope,
    OperatorRequest,
    OpKind,
    ValueType,
)

CHECKPOINT_IMAGE = "db.ckpt"

# kinds 1 to 5 are retired and never reused: a row record, a version end
# (2), a version removal, a commit and a txn's recipes each took a record
# of their own, so a commit took several
DB_TABLE = 6
DB_COMMIT = 7
DB_REMOVE = 8

# DbWal record payloads, which wal.frame_record frames with their LSN and
# kind, one record per sync: a DB_COMMIT (_COMMIT_HEAD; then per row
# version the txn wrote _ROW_HEAD and its cells; then per fresh FID the
# txn's cells claimed, in claim order, a _RECIPE_ITEM head and its recipe,
# in the messages format, up to the end), a DB_REMOVE (_REMOVE_HEAD, then
# a _REMOVE_ITEM per version a vacuum pass removed) and a DB_TABLE
# (_TABLE_DEF, the UTF-8 name, then per column _COLUMN and its name). A
# version's end is not journaled: the next committed version of its row
# implies it. The cells are Table.cells, fixed by the table's schema and
# the backend: one field per column, an i64 for a PLAIN_INT, a u64 for a
# FID and a u32 length for a PLAIN_BYTES cell or a cipher envelope, then
# the bytes of each of those last, in column order.
_COMMIT_HEAD = struct.Struct("<QI")  # txn, row versions
_ROW_HEAD = struct.Struct("<IQQ")  # table, row, vseq
_RECIPE_ITEM = struct.Struct("<QI")  # fid, recipe length
_REMOVE_HEAD = struct.Struct("<I")  # table
_REMOVE_ITEM = struct.Struct("<QQ")  # row, vseq
_TABLE_DEF = struct.Struct("<III")  # partition id, column count, name length
_COLUMN = struct.Struct("<BI")  # column type, name length
# Checkpoint image: _IMAGE_HEAD (next txn id, next commit seq, next lsn,
# table count, then the widths of a version head's row id, vseq and begin
# txn), then per table its DB_TABLE encoding, _TABLE_HEAD and its imaged
# versions, each a version head and its cells (Table.encode).
# A version head writes each field at its width, the narrowest of 1, 2, 4
# and 8 bytes (mapping_store.narrowest_width) that holds every value below
# its counter: the largest next row id and next vseq of any table, and
# next txn id. Commit seqs are not imaged (recover_database says why).
_IMAGE_HEAD = struct.Struct("<QQQIBBB")
_TABLE_HEAD = struct.Struct("<QQI")  # next row id, next vseq, versions


class ColumnType(IntEnum):
    PLAIN_INT = 1
    PLAIN_BYTES = 2
    SENSITIVE_INT = 3
    SENSITIVE_BYTES = 4


SENSITIVE_TYPES = frozenset({ColumnType.SENSITIVE_INT, ColumnType.SENSITIVE_BYTES})
# a sensitive column type's operator value type
VALUE_TYPES = {ColumnType.SENSITIVE_INT: ValueType.INT64,
               ColumnType.SENSITIVE_BYTES: ValueType.BYTES}
# a plain column's struct code in the cells encoding; None: variable-length
_PLAIN_CODES = {ColumnType.PLAIN_INT: "q", ColumnType.PLAIN_BYTES: None}


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
    """One version of a row. wire is its cells (Table.encode), built once
    when the version is staged (or kept from the image or commit record it
    was decoded from), so its commit record and a checkpoint image reuse
    it. A version whose writes its txn still holds (Txn.pending) has a None
    placeholder in each of their cells and no wire until they are sent;
    send_writes fills the placeholders in column order, the order of the
    writes."""

    __slots__ = ("row_id", "vseq", "begin_txn", "end_txn", "cells", "wire")

    def __init__(self, row_id, vseq, begin_txn, cells, wire):
        self.row_id = row_id
        self.vseq = vseq
        self.begin_txn = begin_txn
        self.end_txn = None
        self.cells = cells
        self.wire = wire


class Txn:
    """A transaction. staged holds the commit record's entry of each
    version it wrote whose cells are all set (_ROW_HEAD and the version's
    wire), and recipes the (fid, recipe) of each fresh FID a cell claimed,
    in claim order: the two parts of its commit record. promoted holds
    every ref its sent writes stored."""

    __slots__ = ("txn_id", "state", "snapshot_seq", "write_set", "staged",
                 "promoted", "recipes", "pending", "writes", "query_id")

    def __init__(self, txn_id, snapshot_seq):
        self.txn_id = txn_id
        self.state = TxnState.ACTIVE
        self.snapshot_seq = snapshot_seq
        # (table, row_id, old_version, new_version, promoted_refs)
        self.write_set: list = []
        self.staged: list = []
        self.promoted: list = []
        self.recipes: list = []
        # (table, version, promoted_refs) of each version whose writes are
        # not sent yet, and those writes (Database._writes), in order
        self.pending: list = []
        self.writes: list = []
        self.query_id = txn_id


class Table:
    """ref_code is the struct code of a sensitive cell's ref, or None if a
    ref is variable-length bytes (the backends' ref_code)."""

    def __init__(self, name: str, idx: int, schema: list[Column], partition_id: int,
                 ref_code: str | None):
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
        codes = [_PLAIN_CODES.get(c.ctype, ref_code) for c in schema]
        # the cells encoding: one field per column, a variable-length
        # column's the length of the bytes that follow the fields
        self.cells = struct.Struct("<" + "".join(code or "I" for code in codes))
        self.varlen = [i for i, code in enumerate(codes) if code is None]

    def encode(self, cells: list) -> bytes:
        """cells in the table's cells encoding (Table.cells)."""
        fields = list(cells)
        for i in self.varlen:
            fields[i] = len(cells[i])
        return self.cells.pack(*fields) + b"".join([cells[i] for i in self.varlen])

    def decode(self, data: bytes, pos: int) -> tuple[list, int]:
        """The cells whose encoding starts at pos, and its end:
        struct.error if data ends in the fields, an end past data's if it
        ends in the bytes, which the caller's check of the end refuses."""
        cells = list(self.cells.unpack_from(data, pos))
        pos += self.cells.size
        for i in self.varlen:
            end = pos + cells[i]
            cells[i] = data[pos:end]
            pos = end
        return cells, pos

    def wire(self) -> bytes:
        """The DB_TABLE encoding: its record's payload and its image entry."""
        name = self.name.encode()
        out = [_TABLE_DEF.pack(self.partition_id, len(self.schema), len(name)), name]
        for col in self.schema:
            col_name = col.name.encode()
            out += (_COLUMN.pack(col.ctype, len(col_name)), col_name)
        return b"".join(out)


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


def run_requests(call, query_id: int, reqs: list[OperatorRequest],
                 per_msg: int) -> list:
    """The operator run loop of both backends: per_msg requests per round
    trip, through call (the client's exec_batch or cipher_exec). Returns
    one response per request; raises the first element error."""
    out = call(query_id, reqs, per_msg)
    for req, r in zip(reqs, out):
        if r.error_code:
            raise error_for_code(r.error_code, f"operator {OpKind(req.op).name} failed")
    return out


def run_operators(call, query_id: int, op: OpKind, vtype: ValueType,
                  operand_lists: list, per_msg: int, reveal: bool = False) -> list:
    """One request of op per operand list (run_requests). Returns one
    boolean, revealed client envelope or stored ref per operand list."""
    out = run_requests(call, query_id,
                       [OperatorRequest(op, vtype, refs, reveal=reveal)
                        for refs in operand_lists], per_msg)
    if op in COMPARISONS:
        return [r.boolean for r in out]
    if reveal:
        return [r.envelope for r in out]
    return [r.fid for r in out]


def compare_pairs(call, query_id: int, op: OpKind, vtype: ValueType,
                  pairs: list[tuple], batch_size: int) -> list[bool]:
    """One comparison per (a, b) pair through the client call, batch_size
    operand fields per round trip."""
    return run_operators(call, query_id, op, vtype, [[a, b] for a, b in pairs],
                         max(1, batch_size // 2))


def reduce_refs(call, query_id: int, op: OpKind, vtype: ValueType,
                refs: list, batch_size: int, reveal: bool = False):
    """Reduction tree through the client call with batch_size operand
    fields per round trip; each level's partial results are the next
    level's operands. With reveal the last level returns its result as a
    client envelope, so a single ref is reduced once too; without, a
    single ref is its own result."""
    if op == OpKind.AVG_AGG:
        # partial averages cannot be averaged again, and the integrity zone
        # cannot mint the count constant a SUM/COUNT split would need
        raise TypeMismatch("AVG_AGG does not reduce in a tree")
    fan_in = max(2, batch_size)  # one group of operand fields per message
    level = refs
    while len(level) > fan_in:
        groups = [level[lo:lo + fan_in] for lo in range(0, len(level), fan_in)]
        level = run_operators(call, query_id, op, vtype, groups, 1)
    if len(level) == 1 and not reveal:
        return level[0]
    return run_operators(call, query_id, op, vtype, [level], 1, reveal=reveal)[0]


def run_writes(writes: list, ingest, execute) -> list:
    """The write loop of both backends. writes are (partition id, value)
    pairs, each value a client envelope's bytes or an OperatorRequest into
    that partition. ingest(partition id, envelopes) runs once per partition, in
    the order the partitions first appear, then execute(requests) once for
    all requests; each returns one (ref, recipe) per item, in order.
    Returns one (ref, recipe) per write, in writes' order."""
    out = [None] * len(writes)
    envelopes: dict[int, list[int]] = {}
    requests = []
    for i, (partition_id, value) in enumerate(writes):
        if isinstance(value, OperatorRequest):
            requests.append(i)
        else:
            envelopes.setdefault(partition_id, []).append(i)
    done = [(idx, ingest(pid, [writes[i][1] for i in idx]))
            for pid, idx in envelopes.items()]
    if requests:
        done.append((requests, execute([writes[i][1] for i in requests])))
    for idx, results in done:
        for i, result in zip(idx, results):
            out[i] = result
    return out


class FidBackend:
    """Sensitive refs are FIDs resolved through the mapping store. A FID's
    partition is its high bits, fid >> OFFSET_BITS (fid_codec's layout)."""

    name = "fid"
    ref_code = "Q"  # a FID is a u64 cell

    def __init__(self, client):
        self.client = client

    def reveal(self, query_id: int, ref: int) -> bytes:
        return self.client.reveal(query_id, ref)

    def promote(self, query_id: int, writes: list,
                batch_size: int) -> list[tuple[int, bytes]]:
        """Writes each (partition id, value) of writes (run_writes), batch_size
        values per message: the envelopes by MSG_INGEST, the requests by
        MSG_EXEC_BATCH. Returns per write its fresh FID and the recipe of the
        call that wrote it: RECIPE_INGEST and the envelope, or RECIPE_EXEC and
        the element as the client encoded it. Raises the first error; the
        FIDs the call's other writes stored are then orphans for orphan_gc.
        (perfbench's probes wrap this method by the name promote.)"""
        client = self.client

        def ingest(partition_id, envelopes):
            fids = client.ingest(query_id, envelopes, batch_size, partition_id)
            return [(fid, RECIPE_INGEST + e) for fid, e in zip(fids, envelopes)]

        return run_writes(writes, ingest,
                          lambda reqs: client.exec_writes(query_id, reqs, batch_size))

    def release(self, refs: list[int], batch_size: int) -> int:
        """Deletes the refs' secrets in ascending FID order, batch_size refs
        per message, so the deletes walk each partition's blocks in address
        order; returns how many were live. A ref that was not is counted as
        not reclaimed: an earlier, interrupted pass already reclaimed it.

        The order is a function of the FIDs alone, which follow allocation
        order, not values, so it adds nothing to the adversary trace."""
        return sum(self.client.delete(sorted(refs), batch_size))

    def compare_many(self, query_id: int, op: OpKind, vtype: ValueType,
                     pairs: list[tuple[int, int]], batch_size: int) -> list[bool]:
        return compare_pairs(self.client.exec_batch, query_id, op, vtype, pairs,
                             batch_size)

    def aggregate(self, query_id: int, op: OpKind, vtype: ValueType,
                  refs: list[int], batch_size: int, reveal: bool = False):
        """The reduced ref, or with reveal its value as a client envelope."""
        return reduce_refs(self.client.exec_batch, query_id, op, vtype, refs,
                           batch_size, reveal)

    def observe(self, trace, ref: int) -> None:
        if trace is not None:
            trace.fid(ref)


class CipherBackend:
    """Baseline: sensitive refs are AEAD envelopes under the zone key; every
    operator call decrypts its operands and re-encrypts its result."""

    name = "cipher"
    ref_code = None  # an envelope is a variable-length cell

    def __init__(self, client):
        self.client = client

    def reveal(self, query_id: int, ref: bytes) -> bytes:
        return self.client.cipher_reveal(query_id, ref)

    def promote(self, query_id: int, writes: list,
                batch_size: int) -> list[tuple[bytes, None]]:
        """FidBackend.promote over zone envelopes, by MSG_CIPHER_INGEST and
        MSG_CIPHER_EXEC. A zone envelope is the stored form, so none has a
        recipe."""
        client = self.client

        def ingest(partition_id, envelopes):
            return [(ref, None) for ref in client.cipher_ingest(query_id, envelopes,
                                                                batch_size)]

        def execute(reqs):
            return [(r.fid, None) for r in run_requests(client.cipher_exec, query_id,
                                                        reqs, batch_size)]

        return run_writes(writes, ingest, execute)

    def release(self, refs: list[bytes], batch_size: int) -> int:
        return 0  # an envelope lives in its row and goes with it

    def compare_many(self, query_id, op, vtype, pairs, batch_size):
        return compare_pairs(self.client.cipher_exec, query_id, op, vtype, pairs,
                             batch_size)

    def aggregate(self, query_id, op, vtype, refs, batch_size, reveal=False):
        return reduce_refs(self.client.cipher_exec, query_id, op, vtype, refs,
                           batch_size, reveal)

    def observe(self, trace, ref) -> None:
        pass


class Database:
    """Programmatic table engine; no SQL surface, just enough to exercise
    the cross-domain protocols under realistic transactional workloads."""

    def __init__(self, client, backend, dbwal: DurableBuffer,
                 snapshots: SnapshotStore, *, batch_size: int = 256,
                 trace=None):
        self.client = client
        self.backend = backend
        self.dbwal = dbwal
        self.snapshots = snapshots
        self.batch_size = batch_size
        self.trace = trace
        self.stopped = False  # by a crash or a failed durable write
        self.tables: dict[str, Table] = {}
        self.tables_by_idx: list[Table] = []
        self.active_txns: dict[int, Txn] = {}
        # commit seq of every committed txn a row version names
        self.committed: dict[int, int] = {}
        self.next_txn_id = 1
        self.next_commit_seq = 1
        self.next_lsn = 1  # of the next record commit or vacuum frames
        # fid -> recipe of each FID committed since the last privacy
        # checkpoint this engine saw return, in commit order (restore_recipes)
        self.recipes: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # schema

    def create_table(self, name: str, schema: list[Column]) -> Table:
        if name in self.tables:
            raise SchemaMismatch(f"table {name} already exists")
        partition_id = self.client.create_partition()
        # the partition's journal record must be durable before the table's
        # durably names it
        self.flush_privacy()
        table = self._add_table(name, schema, partition_id)
        self._journal(DB_TABLE, table.wire())
        return table

    def _add_table(self, name: str, schema: list[Column], partition_id: int) -> Table:
        # create_table's name is checked first and its partition is new:
        # only recovery gets here with either named twice
        if name in self.tables:
            raise CorruptLog(f"table {name} is created twice")
        if any(t.partition_id == partition_id for t in self.tables_by_idx):
            raise CorruptLog(f"table {name} names another table's partition")
        table = Table(name, len(self.tables_by_idx), schema, partition_id,
                      self.backend.ref_code)
        self.tables[name] = table
        self.tables_by_idx.append(table)
        return table

    def _read_table(self, data: bytes, pos: int) -> tuple[Table, int]:
        """Adds the table whose DB_TABLE encoding starts at pos; returns it and
        the encoding's end. struct.error or ValueError if it does not parse."""
        partition_id, n_cols, n = _TABLE_DEF.unpack_from(data, pos)
        (name,) = struct.unpack_from(f"{n}s", data, pos + _TABLE_DEF.size)
        pos += _TABLE_DEF.size + n
        schema = []
        for _ in range(n_cols):
            ctype, n = _COLUMN.unpack_from(data, pos)
            (col_name,) = struct.unpack_from(f"{n}s", data, pos + _COLUMN.size)
            pos += _COLUMN.size + n
            schema.append(Column(col_name.decode(), ColumnType(ctype)))
        return self._add_table(name.decode(), schema, partition_id), pos

    # ------------------------------------------------------------------
    # transactions

    def begin(self) -> Txn:
        txn = Txn(self.next_txn_id, self.next_commit_seq - 1)
        self.next_txn_id += 1
        self.active_txns[txn.txn_id] = txn
        return txn

    def commit(self, txn: Txn) -> None:
        """Sends the txn's pending writes (send_writes; on an error the txn
        stays active, for the caller to abort), then journals its commit
        record, its row versions and the recipes of their fresh FIDs, in
        one sync, as the module docstring says."""
        if txn.state != TxnState.ACTIVE:
            raise ValueError(f"commit on txn in state {txn.state}")
        self.send_writes(txn)
        if not txn.staged:
            # nothing staged makes no FID visible: no commit record
            self._finish_commit(txn)
            return
        txn.state = TxnState.PREPARING
        # the FIDs become externally visible, the fresh ones with their
        # recipes
        recipes = txn.recipes
        self._journal(DB_COMMIT, b"".join([
            _COMMIT_HEAD.pack(txn.txn_id, len(txn.staged)), *txn.staged,
            *(_RECIPE_ITEM.pack(fid, len(recipe)) + recipe for fid, recipe in recipes)]))
        self.recipes.update(recipes)
        self._finish_commit(txn)
        self._synced()

    def _finish_commit(self, txn: Txn) -> None:
        txn.state = TxnState.COMMITTED
        if txn.staged:  # a txn that wrote nothing names no row version
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
            table.abort_garbage.extend(promoted)
        txn.state = TxnState.ABORTED
        txn.staged.clear()
        txn.pending.clear()  # never sent: nothing to release
        txn.writes.clear()
        self.active_txns.pop(txn.txn_id, None)

    def flush_privacy(self, checkpoint: bool = False) -> None:
        """Sends MSG_FLUSH_LOG, with the checkpoint flag if checkpoint. Once
        a checkpoint returns, every secret written before it is durable, so
        no recipe is pending any more."""
        self.client.flush_log(checkpoint)
        if checkpoint:
            self.recipes.clear()

    def restore_recipes(self) -> None:
        """After a privacy restart, before any other request: sends every
        pending recipe in commit order, batch_size per MSG_RESTORE, so the
        privacy zone writes each lost FID again, then a checkpoint that
        makes the restored secrets durable."""
        if not self.recipes:
            return
        self.client.restore(list(self.recipes.items()), self.batch_size)
        self.flush_privacy(checkpoint=True)

    def privacy_restarted(self) -> None:
        """The privacy zone recovered from a crash, and restore_recipes
        wrote back every committed FID it lost; the secrets of active txns
        are lost for good: abort every active txn that stored a ref and drop
        every table's abort garbage. A lost ref may name a slot recovery
        hands out again, so none may be committed or released; those that
        survived are orphans for orphan_gc. A txn whose writes, inserts
        too, are all still pending stored no ref and stays active: the
        committed refs its requests read are back once restore_recipes
        returns."""
        for txn in list(self.active_txns.values()):
            if txn.promoted:
                self.abort(txn)
        for table in self.tables_by_idx:
            table.abort_garbage = []

    # ------------------------------------------------------------------
    # row operations

    def insert_row(self, txn: Txn, table: Table, values: list) -> int:
        """Installs a new row, one value per column; its sensitive values
        are pending writes (_writes), sent by send_writes."""
        if txn.state != TxnState.ACTIVE:
            raise ValueError("insert on inactive txn")
        if len(values) != len(table.schema):
            raise SchemaMismatch(
                f"{table.name} has {len(table.schema)} columns, got {len(values)}"
            )
        cells = list(values)
        writes = self._writes(table, cells, range(len(cells)), None)
        row_id = table.next_row_id
        table.next_row_id += 1
        self._install(txn, table, row_id, None, cells, writes)
        return row_id

    def update_row(self, txn: Txn, table: Table, row_id: int,
                   new_values: dict) -> None:
        """Supersedes the row's newest version; each sensitive new value is
        a pending write (_writes), an operator request's stored operands
        the ref of the cell it replaces. A placeholder in the row's newest
        version, this txn's own, sends the txn's pending writes first."""
        if txn.state != TxnState.ACTIVE:
            raise ValueError("update on inactive txn")
        head = self.check_update(txn, table, row_id)
        if head.wire is None:
            self.send_writes(txn)
        cells = list(head.cells)
        changed = []
        for name, value in new_values.items():
            idx = table.col_index.get(name)
            if idx is None:
                raise SchemaMismatch(f"no column {name} in {table.name}")
            cells[idx] = value
            changed.append(idx)
        writes = self._writes(table, cells, sorted(changed), head.cells)
        head.end_txn = txn.txn_id
        self._install(txn, table, row_id, head, cells, writes)

    def _writes(self, table: Table, cells: list, changed, replaced) -> list:
        """Checks the cells at the changed indices, in ascending order,
        against the schema and returns the (partition id, value) write of
        each sensitive one, whose cell becomes a None placeholder. A
        sensitive value is a ClientEnvelope (its bytes are the write's
        value), or an OperatorRequest whose value result goes to the table's
        partition and whose every stored operand is the ref of the cell it
        replaces (in replaced, the superseded version's cells; an insert has
        none).
        Anything else raises, before any message is sent and with nothing
        installed: a ref this engine did not write for this cell could be
        released twice, or name a value no recipe restores."""
        writes = []
        for i in changed:
            col = table.schema[i]
            value = cells[i]
            if col.ctype == ColumnType.PLAIN_INT:
                if not isinstance(value, int):
                    raise SchemaMismatch(f"{col.name} expects int")
                continue
            if col.ctype == ColumnType.PLAIN_BYTES:
                if not isinstance(value, (bytes, bytearray)):
                    raise SchemaMismatch(f"{col.name} expects bytes")
                cells[i] = bytes(value)
                continue
            if isinstance(value, OperatorRequest):
                old = None if replaced is None else replaced[i]
                if (value.destination != table.partition_id or value.reveal
                        or value.op in COMPARISONS):
                    raise WrongPartitionKind(
                        f"{col.name}: an operator write stores its value in "
                        f"partition {table.partition_id}")
                if any(ref != old for ref in value.operand_fids):
                    raise WrongPartitionKind(
                        f"{col.name}: an operator write reads only the ref of "
                        "the cell it replaces")
            elif isinstance(value, ClientEnvelope):
                value = value.to_bytes()
            else:
                raise SchemaMismatch(f"{col.name} takes a client envelope or an "
                                     "operator request, never a ref")
            writes.append((table.partition_id, value))
            cells[i] = None
        return writes

    def _install(self, txn: Txn, table: Table, row_id: int, old: RowVersion | None,
                 cells: list, writes: list) -> None:
        """Appends the row's new version and its write-set entry; the txn
        holds its writes (Txn.pending), or the version is staged at once if
        it has none."""
        version = RowVersion(row_id, table.next_vseq, txn.txn_id, cells, None)
        table.next_vseq += 1
        table.rows.setdefault(row_id, []).append(version)
        promoted = []
        txn.write_set.append((table, row_id, old, version, promoted))
        if writes:
            txn.pending.append((table, version, promoted))
            txn.writes += writes
        else:
            self._stage(txn, table, version)

    def _stage(self, txn: Txn, table: Table, version: RowVersion) -> None:
        """Encodes a version whose cells are all set, stages its entry in
        the txn's commit record and shows its sensitive refs to the
        trace."""
        version.wire = table.encode(version.cells)
        txn.staged.append(_ROW_HEAD.pack(table.idx, version.row_id, version.vseq)
                          + version.wire)
        self._observe_cells(table, version.cells)

    def send_writes(self, txn: Txn) -> None:
        """Sends the txn's pending writes in one backend call
        (backend.promote, batch_size values per message), then, in the order
        the txn made them, fills each placeholder with its fresh ref, claims
        the refs with their recipes and stages the versions. An
        error leaves every write pending, and the refs the call did store
        are orphans for orphan_gc."""
        pending = txn.pending
        if not pending:
            return
        stored = iter(self.backend.promote(txn.query_id, txn.writes, self.batch_size))
        txn.pending, txn.writes = [], []
        for table, version, promoted in pending:
            cells = version.cells
            for i in table.sensitive:
                if cells[i] is None:
                    ref, recipe = next(stored)
                    cells[i] = ref
                    promoted.append(ref)
                    if recipe is not None:
                        txn.recipes.append((ref, recipe))
            txn.promoted.extend(promoted)
            self._stage(txn, table, version)

    def check_update(self, txn: Txn, table: Table, row_id: int) -> RowVersion:
        """The row's newest version if txn may supersede it; raises
        WriteConflict under first-updater-wins otherwise. update_row checks
        before it installs or sends anything, so a conflicting update leaves
        nothing behind in the privacy zone."""
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
        return head

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
                if version.wire is None:  # this txn's own, a write still pending
                    self.send_writes(txn)
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
            pairs = [(v.cells[idx], predicate.constant) for v in visible]
            flags = self.backend.compare_many(txn.query_id, predicate.op,
                                              VALUE_TYPES[col.ctype],
                                              pairs, self.batch_size)
            return [v for v, keep in zip(visible, flags) if keep]
        return [v for v in visible
                if _plain_compare(predicate.op, v.cells[idx], predicate.constant)]

    # ------------------------------------------------------------------
    # maintenance

    def vacuum(self, table: Table) -> int:
        """Drop versions invisible to every snapshot; delete the refs each
        held that its successor does not, and the table's abort garbage, in
        ascending FID order, batch_size refs per message (backend.release).
        Runs outside any transaction. The pass journals its removals as one
        DB_REMOVE record, in one sync, before it releases any ref.

        While a recipe is pending it first checkpoints the privacy zone, so
        every secret is durable before a removal is: recovery drops the
        recipe of a FID whose version is removed, yet that FID may be an
        operand of a recipe it keeps. A plain flush after the deletes
        makes them durable before the next write."""
        if self.recipes:
            self.flush_privacy(checkpoint=True)
        min_snapshot = min((t.snapshot_seq for t in self.active_txns.values()),
                           default=None)
        release = []
        removed = []
        for row_id in list(table.rows):
            chain = table.rows[row_id]
            kept = []
            for i, version in enumerate(chain):
                if self._version_dead(version, min_snapshot):
                    # the next version is the one its end_txn inserted: the
                    # refs it does not hold are the ones the update replaced
                    cells, successor = version.cells, chain[i + 1].cells
                    for c in table.sensitive:
                        if cells[c] != successor[c]:
                            release.append(cells[c])
                    removed.append(_REMOVE_ITEM.pack(row_id, version.vseq))
                else:
                    kept.append(version)
            table.rows[row_id] = kept
        garbage, table.abort_garbage = table.abort_garbage, []
        release += garbage
        # the removals are durable before any ref is released: a crash in
        # between leaves orphans, never a recovered version whose released
        # refs name slots the store has freed and may hand out again
        if removed:
            self._journal(DB_REMOVE, _REMOVE_HEAD.pack(table.idx) + b"".join(removed))
            self._forget_unnamed_txns()
            self._synced()
        reclaimed = self.backend.release(release, self.batch_size)
        if reclaimed:
            self.flush_privacy()
        return reclaimed

    def _version_dead(self, version: RowVersion, min_snapshot: int | None) -> bool:
        e = version.end_txn
        if e is None:
            return False
        cs = self.committed.get(e)
        if cs is None:
            return False  # ended by an in-flight txn; outcome unknown
        return min_snapshot is None or cs <= min_snapshot

    def _forget_unnamed_txns(self) -> None:
        """Drops the commit seq of every txn no row version names any more."""
        named = set()
        for table in self.tables_by_idx:
            for chain in table.rows.values():
                for version in chain:
                    named.add(version.begin_txn)
                    named.add(version.end_txn)
        committed = self.committed
        for txn_id in [t for t in committed if t not in named]:
            del committed[txn_id]

    def orphan_gc(self) -> int:
        """Delete store entries no row version references, then checkpoint
        both zones. Quiescent only: an in-flight insert's secrets look like
        orphans until its commit.

        The closing MSG_FLUSH_LOG carries the checkpoint flag, so the
        privacy zone checkpoints right after its sync; then this engine
        checkpoints if its journal holds records, and sends no second flush,
        since that one left no recipe pending. Durable state after
        maintenance is images and sealed blocks only."""
        if self.active_txns:
            raise ValueError("orphan_gc requires no active transactions")
        reclaimed = 0
        if self.backend.name == "fid":  # cipher envelopes live in their rows
            referenced = self.referenced_refs()
            for table in self.tables_by_idx:
                orphans = [fid for fid in self.client.list_live(table.partition_id)
                           if fid not in referenced]
                reclaimed += self.backend.release(orphans, self.batch_size)
        self.flush_privacy(checkpoint=True)
        if self.dbwal.durable_len:
            self.checkpoint()
        return reclaimed

    def referenced_refs(self) -> set:
        """Every sensitive ref a row version or a table's abort garbage
        still holds; store entries outside this set are orphans. A pending
        write's placeholder is no ref."""
        referenced = set()
        for table in self.tables_by_idx:
            for chain in table.rows.values():
                for version in chain:
                    for i in table.sensitive:
                        referenced.add(version.cells[i])
            referenced.update(table.abort_garbage)
        referenced.discard(None)
        return referenced

    # ------------------------------------------------------------------
    # checkpoint (cover rule and ordering in the module docstring)

    def _synced(self) -> None:
        """Checkpoints if the sync that just ran took the journal past the
        interval (wal.past_interval). The log has no pending bytes here. A
        checkpoint whose flush finds the privacy zone down is put off to
        the next sync, and the journal keeps its recipes until then."""
        if wal.past_interval(self.dbwal):
            try:
                self.checkpoint()
            except Unavailable:
                pass

    def checkpoint(self) -> None:
        """Writes the image of each row's newest committed version, covering
        every record framed so far, then truncates the journal to empty.
        The image holds FIDs only, so a pending recipe's secret is made
        durable first, by one MSG_FLUSH_LOG. It carries the checkpoint flag,
        so the privacy zone checkpoints with this engine and seals every
        secret the image names."""
        if self.recipes:
            self.flush_privacy(checkpoint=True)
        self._durable_write(self.snapshots.put_atomic, CHECKPOINT_IMAGE,
                            wal.frame(self._image()))
        self._durable_write(self.dbwal.replace, b"")

    def _widths(self) -> tuple[int, int, int]:
        """The widths of an image's version head fields: row id, vseq and
        begin txn."""
        tables = self.tables_by_idx
        return (narrowest_width(max((t.next_row_id for t in tables), default=1)),
                narrowest_width(max((t.next_vseq for t in tables), default=1)),
                narrowest_width(self.next_txn_id))

    def _image(self) -> bytes:
        widths = self._widths()
        head = _version_head(widths)
        committed = self.committed
        body = []
        for table in self.tables_by_idx:
            versions = []
            for chain in table.rows.values():
                for v in reversed(chain):
                    if v.begin_txn in committed:  # the row's newest committed version
                        versions += (head.pack(v.row_id, v.vseq, v.begin_txn), v.wire)
                        break
            body += (table.wire(), _TABLE_HEAD.pack(table.next_row_id, table.next_vseq,
                                                    len(versions) // 2), *versions)
        return b"".join([_IMAGE_HEAD.pack(self.next_txn_id, self.next_commit_seq,
                                          self.next_lsn, len(self.tables_by_idx),
                                          *widths), *body])

    def _load_image(self, image: bytes) -> None:
        """Loads an image; CorruptLog (or struct.error, ValueError or
        LookupError, which recover_database turns into it) unless it parses
        to its last byte, with the widths its counters need, no row twice
        and every row id, vseq and txn id below its counter. Each imaged
        writer gets commit seq next_commit_seq - 1 (recover_database)."""
        (self.next_txn_id, self.next_commit_seq, self.next_lsn, n_tables,
         *widths) = _IMAGE_HEAD.unpack_from(image, 0)
        head = _version_head(widths)
        seq = self.next_commit_seq - 1
        committed = self.committed
        pos = _IMAGE_HEAD.size
        for _ in range(n_tables):
            table, pos = self._read_table(image, pos)
            table.next_row_id, table.next_vseq, n = _TABLE_HEAD.unpack_from(image, pos)
            pos += _TABLE_HEAD.size
            rows = table.rows
            for _ in range(n):
                row_id, vseq, begin = head.unpack_from(image, pos)
                # a repeated row, or a counter that would hand out a
                # value again, lets a later row or txn overwrite this one
                if (row_id in rows or row_id >= table.next_row_id
                        or vseq >= table.next_vseq or begin >= self.next_txn_id):
                    raise CorruptLog(f"version ({row_id}, {vseq}, {begin}) of "
                                     f"{table.name}")
                start = pos + head.size
                cells, pos = table.decode(image, start)
                rows[row_id] = [RowVersion(row_id, vseq, begin, cells, image[start:pos])]
                committed[begin] = seq
        if pos != len(image) or tuple(widths) != self._widths():
            raise CorruptLog(f"the image is {len(image)} bytes with widths {widths}; "
                             f"its tables end at {pos}, their counters need "
                             f"{self._widths()}")

    # ------------------------------------------------------------------
    # DbWal records

    def _journal(self, kind: int, payload: bytes) -> None:
        """Frames one record with the next LSN, appends it and syncs."""
        self.dbwal.append(wal.frame_record(self.next_lsn, kind, payload))
        self.next_lsn += 1
        self._durable_write(self.dbwal.sync)

    def _durable_write(self, write, *args) -> None:
        """Runs one durable write; an OSError out of it stops this zone: the
        journal drops its unsynced bytes and ZoneCrashed("io_failure")
        propagates."""
        try:
            write(*args)
        except OSError as exc:
            self.stopped = True
            self.dbwal.crash()
            raise ZoneCrashed("io_failure") from exc


def _version_head(widths) -> struct.Struct:
    """An image's version head (row id, vseq, begin txn) at widths."""
    return struct.Struct("<" + "".join(UINT_CODES[w] for w in widths))


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
    """Rebuild the engine, its tables too, from the checkpoint image and then
    the durable DbWal records past its cover, in one pass in LSN order;
    returns the engine and the number of journal records replayed. A
    commit is one record, synced whole, so every durable DB_COMMIT is a
    committed txn, which takes the next commit seq as it is read; a txn
    whose record is not durable (a torn one included, which the journal
    drops) never materializes, so its promoted secrets surface as store
    orphans for orphan_gc. Each row version a DB_COMMIT holds ends the
    newest version of its row so far: under first-updater-wins a row's
    committed versions are journaled in chain order, so that is the version
    its txn superseded.

    The image holds no commit seq: each imaged writer gets seq
    next_commit_seq - 1. That is safe because no snapshot survives a
    crash: every txn begun after recovery has a snapshot at or past that
    seq, so it sees and may update each imaged version, and every commit
    the journal replays takes a seq past it. The imaged writers' order
    among themselves is lost, and nothing reads it: an image holds one
    version per row, and a seq orders a version only against snapshots and
    later commits.

    The pending recipes are rebuilt from the DB_COMMIT records: per FID the
    newest, in LSN order, and only for a FID a recovered row version holds.
    Dropping the others is safe: vacuum checkpoints the privacy zone before
    it makes a removal durable while a recipe is pending, so no kept recipe
    has an operand that a removed version held and the privacy zone lost.

    An image or record that does not parse or that this engine could not
    have written (Database._load_image; a commit of no row version, or of a
    txn that already committed), an unknown or retired kind, a table no
    earlier image or record creates, one created twice and one naming
    another's partition raise CorruptLog. Whether the privacy zone
    holds a table's partition only the privacy zone can say:
    ZoneTopology.recover_all asks it."""
    db = Database(client, backend, dbwal, snapshots, **db_kwargs)
    recipes: dict[int, bytes] = {}
    committed = db.committed
    try:
        image = snapshots.get(CHECKPOINT_IMAGE)
        if image is not None:
            db._load_image(wal.unframe(image, CHECKPOINT_IMAGE))
        records = wal.journal_after(dbwal, db.next_lsn - 1)
        for lsn, kind, payload in records:
            db.next_lsn = lsn + 1
            if kind == DB_COMMIT:
                txn_id, n_rows = _COMMIT_HEAD.unpack_from(payload)
                if not n_rows or txn_id in committed:
                    raise CorruptLog(f"txn {txn_id} commits {n_rows} row versions, "
                                     "or commits twice")
                committed[txn_id] = db.next_commit_seq
                db.next_commit_seq += 1
                db.next_txn_id = max(db.next_txn_id, txn_id + 1)
                pos = _COMMIT_HEAD.size
                for _ in range(n_rows):
                    table_idx, row_id, vseq = _ROW_HEAD.unpack_from(payload, pos)
                    table = db.tables_by_idx[table_idx]
                    start = pos + _ROW_HEAD.size
                    cells, pos = table.decode(payload, start)
                    chain = table.rows.setdefault(row_id, [])
                    if chain:
                        chain[-1].end_txn = txn_id
                    chain.append(RowVersion(row_id, vseq, txn_id, cells,
                                            payload[start:pos]))
                    table.next_row_id = max(table.next_row_id, row_id + 1)
                    table.next_vseq = max(table.next_vseq, vseq + 1)
                while pos < len(payload):
                    fid, n = _RECIPE_ITEM.unpack_from(payload, pos)
                    pos += _RECIPE_ITEM.size + n
                    recipes.pop(fid, None)  # the newest goes last
                    recipes[fid] = payload[pos - n:pos]
                if pos != len(payload):
                    raise CorruptLog(f"txn {txn_id}'s commit record ends at "
                                     f"{len(payload)}, its last item at {pos}")
            elif kind == DB_REMOVE:
                (table_idx,) = _REMOVE_HEAD.unpack_from(payload)
                table = db.tables_by_idx[table_idx]
                for row_id, vseq in _REMOVE_ITEM.iter_unpack(
                        payload[_REMOVE_HEAD.size:]):
                    chain = table.rows.get(row_id)
                    if chain:
                        table.rows[row_id] = [v for v in chain if v.vseq != vseq]
                        if not table.rows[row_id]:
                            del table.rows[row_id]
            elif kind == DB_TABLE:
                table, end = db._read_table(payload, 0)
                if end != len(payload):
                    raise CorruptLog(f"bytes after table {table.name}'s columns")
            else:
                raise CorruptLog(f"unknown integrity record kind {kind}")
    except (struct.error, ValueError, LookupError) as exc:  # e.g. no such table or width
        raise CorruptLog(f"the engine's image or journal does not parse: {exc}") from None

    held = db.referenced_refs()
    db.recipes = {fid: r for fid, r in recipes.items() if fid in held}
    db._forget_unnamed_txns()
    return db, len(records)
