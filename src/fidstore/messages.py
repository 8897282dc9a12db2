"""Cross-zone wire protocol: a request is {u8 msg_kind, payload}.

Everything the integrity zone needs from the privacy zone travels through
these messages; there is no other channel. FIDs are 8-byte little-endian,
booleans one byte. Responses start with a status byte (0 = ok, otherwise
an error code from errors.py). An operator batch's elements and a
reveal's envelope run to the end of their message: the receiver knows
the message's length, so neither carries a count or a length.

A query id crosses only where a temporary is named. A request that writes
to its query's temporary partition, or drops it, sets QUERY_FLAG in its
kind byte and puts the u64 query id after it: {u8 msg_kind | QUERY_FLAG,
u64 query_id, payload}. Exactly three requests do: a MSG_INGEST to
QUERY_TEMP_TARGET, a MSG_EXEC_BATCH with an element whose value result
names no destination (or QUERY_TEMP_TARGET) and is not revealed, and
MSG_END_QUERY. The privacy zone refuses with TypeMismatch the flag on any
other request, an id on an ingest to a permanent partition or on a batch
that writes no temporary, and a temporary write or MSG_END_QUERY without
an id, before it stores or journals anything for that request or element
(an element fails alone, like any other element error).

An operator batch (MSG_EXEC_BATCH, MSG_CIPHER_EXEC) is n >= 1 elements up
to the end of the payload, and its response n elements, one per request
element in order, with no byte after the last.
Each element is {u8 op | flags, u8 type, u16 argc, [u32 destination],
argc stored operands, [constant]}. Each of three flag bits in the op
byte adds one optional part or behaviour; an element with none set is
its head and its operands alone:

- OP_DEST: the u32 destination follows the head and names the permanent
  partition the element's value result is written to (MSG_EXEC_BATCH
  only). Without it the result goes to the query's temporary partition.
  A result written to a permanent partition takes its stored operands from
  permanent partitions only, so its recipe can be re-run at recovery; an
  element with a temporary operand fails with TypeMismatch.
- OP_CONST: a client envelope {u32 len, bytes} follows the stored
  operands and is the element's last operand. The privacy zone decrypts
  it once and never stores it, except as the value of a STORE.
- OP_REVEAL: the value result comes back as a client envelope and is
  never stored.

A constant goes beside a stored operand, except in STORE, which takes
argc 0 and OP_CONST, and whose value result is the constant's value:
with OP_DEST it writes a client's value into a table's partition, as an
ingest does. An element that breaks a rule (a constant with argc 0 on
any other op, a STORE with a stored operand, without a constant or with
OP_REVEAL, a reveal on a comparison or together with a destination)
fails on its own with TypeMismatch, like any other element error.

The integrity zone holds a transaction's writes (Database.insert_row and
update_row) and sends them when it commits: an ADD over the old value
with OP_CONST and OP_DEST, or a STORE with OP_DEST, all of the
transaction's in one batch message (batch_size elements each),
MSG_EXEC_BATCH on the fid path and MSG_CIPHER_EXEC on the cipher one, and
an inserted value's client envelope by MSG_INGEST into its table's
partition (MSG_CIPHER_INGEST). It sends them earlier only when the
transaction reads, sums or writes again a row it wrote, so when a
transaction's writes cross depends on its keys alone. An aborted
transaction sends none. Each response element is
a status byte, then for status 0 a result kind and the result: 0 and a
value (a FID, or a zone envelope blob for MSG_CIPHER_EXEC), 1 and a
boolean byte, or 2 and a revealed client envelope blob.

MSG_REVEAL is the u64 FID, and its response the client envelope bare, up
to the end of the message. MSG_CIPHER_REVEAL is a zone envelope bare, and
its response a client envelope bare.

MSG_INGEST is {u32 target, n blobs}: the partition the values go to,
QUERY_TEMP_TARGET for the query's temporary partition, then n >= 1 client
envelopes {u32 len, envelope} up to the end of the payload. Its response
is n u64 FIDs, one per envelope in order. MSG_CIPHER_INGEST is the n blobs
alone, and its response n zone envelope blobs. Either ingest is all or
nothing: the privacy zone parses the whole payload and authenticates every
envelope before it stores or seals the first value, so a request with a
bad envelope or a byte after its last blob stores and journals nothing.
With one envelope, request and response are {u32 target, blob} and one
FID, or one blob each way on the cipher path.

MSG_DELETE carries n FIDs and its response n status bytes, one per FID in
order: 0 for a deleted mapping, NotLive's code for a FID that had none.
MSG_FLUSH_LOG carries nothing, or the one byte CHECKPOINT. A plain flush
makes the privacy journal's delete and create records durable, never a
secret; with CHECKPOINT the privacy zone then checkpoints too (wal), so
every secret written before it is durable. Its response is the status byte
alone, so it tells the integrity zone nothing about the privacy zone's
journal. The integrity zone sends a plain flush after create_table's new
partition and after vacuum's deletes, and CHECKPOINT at the start of
vacuum, at the end of orphan_gc, before an integrity checkpoint writes its
image and after a restore; at the start of vacuum and before an image only
while a recipe is pending. A commit never sends MSG_FLUSH_LOG: every
recipe it journals reads only operands that come back before it
(integrity_dbms). MSG_PROMOTE copies a temporary FID's value into a
permanent partition and checkpoints the privacy zone before it replies,
since the copy has no recipe; the engine never sends it.
MSG_CREATE_PARTITION carries nothing and creates a permanent partition; its
response is the u32 partition id.

A recipe is the bytes that wrote a FID in a permanent partition, which
the integrity zone journals in the one commit record of the transaction
that claims the FID, and sends again after a privacy restart until a
checkpoint has made the write durable:
RECIPE_INGEST (u8 1) and the client envelope of an ingest, or
RECIPE_EXEC (u8 2) and the operator element, as MSG_EXEC_BATCH carried it,
whose value result went to the FID's partition. MSG_RESTORE is
{u64 fid, u32 len, recipe} items up to the end of the payload, and its
response is the status byte alone. The privacy zone accepts it only
between its recovery and its first request of another kind, and checks
every item before it stores the first: the FID must be in a permanent
partition, at an offset below the partition's recovered allocation
counter plus wal.MAX_UNSYNCED_PUTS (more puts than come between two
privacy checkpoints, so more than a crash can lose), the
element a value op naming that partition over permanent operands, and
every envelope must authenticate. It skips a FID that is live and writes
every other at exactly that FID (PrivacyProxy.restore). So a restore
writes only non-live FIDs of permanent partitions at offsets the zone
could have allocated before its crash, with values an ingest or an
operator message could have written there.

The ciphertext-scheme baseline used for benchmarking speaks the same
protocol with its own message kinds: operands are AEAD envelopes instead
of FIDs and every operator call pays decrypt-compute-encrypt. Both
operator messages share one codec on each side and one executor in the
privacy zone, PrivacyProxy.exec_batch; they differ only in the operand
space it runs over (FidSpace or EnvelopeSpace) and in how an operand and
a value result are written on the wire.
"""

from __future__ import annotations

import struct

from .errors import (
    FidStoreError,
    NotLive,
    TypeMismatch,
    error_for_code,
)
from .mapping_store import PartitionKind
from .privacy_proxy import (
    COMPARISONS,
    EnvelopeCodec,
    ClientEnvelope,
    EnvelopeSpace,
    OperatorRequest,
    OperatorResponse,
    OpKind,
    QUERY_TEMP_TARGET,
    ValueType,
)

MSG_INGEST = 1
MSG_REVEAL = 2
MSG_EXEC_BATCH = 3
MSG_END_QUERY = 4
MSG_PROMOTE = 5
MSG_DELETE = 6
MSG_FLUSH_LOG = 7
MSG_CREATE_PARTITION = 8
MSG_PREFETCH = 9
MSG_IS_LIVE = 10
MSG_LIST_LIVE = 11
MSG_RESTORE = 12
MSG_CIPHER_EXEC = 20
MSG_CIPHER_INGEST = 21
MSG_CIPHER_REVEAL = 22

# The kind byte's bit for a request that names its query's temporaries; a
# u64 query id follows the kind byte (module docstring). Not named MSG_*:
# perfbench's MSG_KINDS counts every MSG_* name here as a message kind,
# and its PhaseMeter keys kinds on raw[0], so a flagged request counts
# under no kind. No benchmark workload sends one.
QUERY_FLAG = 0x80
_NAMES_TEMPORARIES = (MSG_INGEST, MSG_EXEC_BATCH, MSG_END_QUERY)

# flags in an operator element's op byte (format in the module docstring)
OP_DEST = 0x80
OP_REVEAL = 0x40
OP_CONST = 0x20
_OP_FLAGS = OP_DEST | OP_REVEAL | OP_CONST

CHECKPOINT = b"\x01"  # MSG_FLUSH_LOG payload: checkpoint after the sync

# a recipe's first byte: the kind of write it re-runs (format in the module
# docstring)
RECIPE_INGEST = b"\x01"
RECIPE_EXEC = b"\x02"

_RESULT_VALUE = 0
_RESULT_BOOL = 1
_RESULT_REVEALED = 2

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_OP_HEAD = struct.Struct("<BBH")
_FLAGGED_HEAD = struct.Struct("<BQ")
_PROMOTE = struct.Struct("<QI")

_OP_KINDS = {int(k): k for k in OpKind}
_VALUE_TYPES = {int(t): t for t in ValueType}


def _req(kind: int, payload: bytes = b"", query_id: int | None = None) -> bytes:
    """A request's bytes: flagged with query_id if one is given."""
    if query_id is None:
        return _U8.pack(kind) + payload
    return _FLAGGED_HEAD.pack(kind | QUERY_FLAG, query_id) + payload


def _split(raw: bytes) -> tuple[int, int | None, bytes]:
    """A request's kind, query id (None if unflagged) and payload;
    TypeMismatch for an empty request, a flag on a kind that names no
    temporary, or a flagged request too short for its id."""
    if not raw:
        raise TypeMismatch("empty request")
    kind = raw[0]
    if not kind & QUERY_FLAG:
        return kind, None, raw[1:]
    kind &= ~QUERY_FLAG
    if kind not in _NAMES_TEMPORARIES:
        raise TypeMismatch(f"msg kind {kind} carries no query id")
    if len(raw) < _FLAGGED_HEAD.size:
        raise TypeMismatch("request ends inside its query id")
    return kind, _U64.unpack_from(raw, 1)[0], raw[_FLAGGED_HEAD.size:]


def _writes_temp(r: OperatorRequest) -> bool:
    """Whether a FID element's value result goes to its query's temporary
    partition: a stored value result that names no permanent partition."""
    return (r.op not in COMPARISONS and not r.reveal
            and r.destination in (None, QUERY_TEMP_TARGET))


def _blob(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _unpack(s: struct.Struct, payload: bytes) -> tuple:
    """payload as exactly the fields of s; any other length is malformed."""
    if len(payload) != s.size:
        raise TypeMismatch(f"payload of {len(payload)} bytes, expected {s.size}")
    return s.unpack(payload)


def _read_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    try:
        (n,) = _U32.unpack_from(data, pos)
    except struct.error:
        raise TypeMismatch("message ends inside a blob length") from None
    end = pos + 4 + n
    if end > len(data):
        raise TypeMismatch("blob runs past the end of the message")
    return data[pos + 4:end], end


def _read_blobs(data: bytes, pos: int) -> list[bytes]:
    """The blobs from pos up to the end of data: at least one, and no byte
    left over."""
    blobs = []
    while True:
        blob, pos = _read_blob(data, pos)
        blobs.append(blob)
        if pos == len(data):
            return blobs


def _chunks(items: list, batch_size: int):
    """items in consecutive slices of batch_size, the split of every client
    call that takes a batch_size."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for lo in range(0, len(items), batch_size):
        yield items[lo:lo + batch_size]


def _read_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(data, pos)[0], pos + 8


def _write_op(r: OperatorRequest, write_operand) -> bytes:
    """One operator element's bytes (format in the module docstring)."""
    dest, const = r.destination, r.constant
    flags = ((OP_DEST if dest is not None else 0)
             | (OP_CONST if const is not None else 0)
             | (OP_REVEAL if r.reveal else 0))
    parts = [_OP_HEAD.pack(int(r.op) | flags, int(r.value_type), len(r.operand_fids))]
    if dest is not None:
        parts.append(_U32.pack(dest))
    parts.extend(write_operand(x) for x in r.operand_fids)
    if const is not None:
        parts.append(_blob(const))
    return b"".join(parts)


def _read_op(data: bytes, pos: int, read_operand) -> tuple[OperatorRequest, int]:
    """The operator element at pos and the position after it; raises
    struct.error or KeyError on a truncated element or an unknown op or
    value type."""
    op, vtype, argc = _OP_HEAD.unpack_from(data, pos)
    pos += _OP_HEAD.size
    flags = op & _OP_FLAGS
    op &= ~_OP_FLAGS
    dest = None
    if flags & OP_DEST:
        (dest,) = _U32.unpack_from(data, pos)
        pos += 4
    operands = []
    for _ in range(argc):
        operand, pos = read_operand(data, pos)
        operands.append(operand)
    const = None
    if flags & OP_CONST:
        const, pos = _read_blob(data, pos)
    return OperatorRequest(_OP_KINDS[op], _VALUE_TYPES[vtype], operands, dest, const,
                           bool(flags & OP_REVEAL)), pos


def _read_ops(payload: bytes, read_operand) -> list[OperatorRequest]:
    """Decode an operator batch (format in the module docstring); an empty
    batch, a truncated element, or an element with an unknown op or value
    type, fails the whole message with TypeMismatch."""
    if not payload:
        raise TypeMismatch("operator batch without an element")
    ops = []
    pos = 0
    try:
        while pos < len(payload):
            op, pos = _read_op(payload, pos, read_operand)
            ops.append(op)
    except (struct.error, KeyError):
        raise TypeMismatch("malformed operator batch") from None
    return ops


def _read_restore(payload: bytes) -> list[tuple[int, object]]:
    """Decode a MSG_RESTORE payload (format in the module docstring) into
    (fid, recipe) items, each recipe a ClientEnvelope or an
    OperatorRequest; TypeMismatch for a malformed item or a byte after the
    last one, AuthFailure for an envelope too short for its nonce and tag."""
    items = []
    pos = 0
    while True:
        try:
            fid, pos = _read_u64(payload, pos)
        except struct.error:
            raise TypeMismatch("restore item ends inside its FID") from None
        recipe, pos = _read_blob(payload, pos)
        kind = recipe[:1]
        if kind == RECIPE_INGEST:
            items.append((fid, ClientEnvelope.from_bytes(recipe[1:])))
        elif kind == RECIPE_EXEC:
            try:
                req, end = _read_op(recipe, 1, _read_u64)
            except (struct.error, KeyError):
                raise TypeMismatch("malformed operator recipe") from None
            if end != len(recipe):
                raise TypeMismatch("bytes after an operator recipe")
            items.append((fid, req))
        else:
            raise TypeMismatch(f"unknown recipe kind {kind!r}")
        if pos == len(payload):
            return items


class ProxyClient:
    """Integrity-side stub: serializes calls, records the adversary view.

    Each method is one round trip except ingest, cipher_ingest, exec_batch,
    cipher_exec, delete and restore, which take a list and a batch_size and
    split the list into ceil(n / batch_size) messages (all through
    _chunks), and end_query, which sends nothing for a query that never
    wrote to its temporary partition (no temp-target ingest, no stored
    value result without a destination): such a query has no temporaries to
    drop. Only those writes and end_query send their query id (the flagged
    frame of the module docstring); every other call's query_id, reveal's
    and the cipher calls' included, is kept for its callers and never
    crosses. The client keeps no record of what it wrote: the engine takes
    each fresh FID's recipe from the call that wrote it (exec_writes, or
    the envelope it ingested) and journals it with the commit that claims
    the FID. Each FID a call sends or gets back reaches the trace as
    FidObserved.
    """

    def __init__(self, channel, trace=None):
        self.channel = channel
        self.trace = trace
        self._temp_queries: set[int] = set()

    # -- plumbing -------------------------------------------------------

    def _call(self, kind: int, payload: bytes = b"",
              query_id: int | None = None) -> bytes:
        raw = self.channel.request(_req(kind, payload, query_id))
        status = raw[0]
        if status != 0:
            raise error_for_code(status, f"privacy zone rejected msg kind {kind}")
        return raw[1:]

    def _observe_fid(self, fid: int) -> None:
        if self.trace is not None:
            self.trace.fid(fid)

    def _write_fid(self, fid: int) -> bytes:
        self._observe_fid(fid)
        return _U64.pack(fid)

    def _read_fid(self, body: bytes, pos: int) -> tuple[int, int]:
        fid, pos = _read_u64(body, pos)
        self._observe_fid(fid)
        return fid, pos

    def _batch(self, kind: int, query_id: int | None, reqs: list[OperatorRequest],
               batch_size: int, write_operand,
               read_result) -> tuple[list[bytes], list[OperatorResponse]]:
        """The operator-batch codec shared by the FID and envelope paths:
        the requests go out in ceil(n / batch_size) messages, and one
        response comes back per request. A message carries query_id only
        if one of its elements writes a temporary; the envelope path, whose
        results are never stored, passes None. Returns each request's
        element bytes and its response; TypeMismatch for a reply with an
        element too few or too many, or a byte after its last."""
        elements = []
        out = []
        for chunk in _chunks(reqs, batch_size):
            sent = [_write_op(r, write_operand) for r in chunk]
            elements.extend(sent)
            qid = None
            if query_id is not None and any(map(_writes_temp, chunk)):
                # recorded first: a refused batch may still have created
                # the query's temporary partition
                self._temp_queries.add(query_id)
                qid = query_id
            body = self._call(kind, b"".join(sent), qid)
            pos = 0
            try:
                for _ in chunk:
                    status = body[pos]
                    pos += 1
                    if status != 0:
                        out.append(OperatorResponse(error_code=status))
                        continue
                    result_kind = body[pos]
                    pos += 1
                    if result_kind == _RESULT_VALUE:
                        result, pos = read_result(body, pos)
                        out.append(OperatorResponse(fid=result))
                    elif result_kind == _RESULT_REVEALED:
                        env, pos = _read_blob(body, pos)
                        out.append(OperatorResponse(envelope=env))
                    else:
                        flag = bool(body[pos])
                        pos += 1
                        if self.trace is not None:
                            self.trace.cmp_bool(flag)
                        out.append(OperatorResponse(boolean=flag))
            except (IndexError, struct.error):
                raise TypeMismatch("reply ends inside an element") from None
            if pos != len(body):
                raise TypeMismatch("reply has bytes after its last element")
        return elements, out

    # -- client data path -------------------------------------------------

    def ingest(self, query_id: int, envelopes: list[bytes], batch_size: int,
               target: int = QUERY_TEMP_TARGET) -> list[int]:
        """A fresh FID per client envelope, in order, written to target,
        batch_size envelopes per message."""
        qid = None
        if target == QUERY_TEMP_TARGET:
            # recorded first: a refused ingest may still have created the
            # query's temporary partition
            self._temp_queries.add(query_id)
            qid = query_id
        head = _U32.pack(target)
        out = []
        for chunk in _chunks(envelopes, batch_size):
            body = self._call(MSG_INGEST, head + b"".join(_blob(e) for e in chunk),
                              qid)
            fids = [fid for (fid,) in _U64.iter_unpack(body)]
            for fid in fids:
                self._observe_fid(fid)
            out.extend(fids)
        return out

    def reveal(self, query_id: int, fid: int) -> bytes:
        """fid's value as a client envelope; query_id does not cross."""
        return self._call(MSG_REVEAL, self._write_fid(fid))

    def exec_batch(self, query_id: int, reqs: list[OperatorRequest],
                   batch_size: int) -> list[OperatorResponse]:
        return self._batch(MSG_EXEC_BATCH, query_id, reqs, batch_size,
                           self._write_fid, self._read_fid)[1]

    def exec_writes(self, query_id: int, reqs: list[OperatorRequest],
                    batch_size: int) -> list[tuple[int, bytes]]:
        """exec_batch for requests whose value results go to permanent
        partitions: per request its fresh FID and its recipe, RECIPE_EXEC
        and the element as sent. Raises the first element error, once the
        whole batch has run."""
        elements, out = self._batch(MSG_EXEC_BATCH, query_id, reqs, batch_size,
                                    self._write_fid, self._read_fid)
        for r, resp in zip(reqs, out):
            if resp.error_code:
                raise error_for_code(resp.error_code, f"operator {r.op} failed")
        return [(resp.fid, RECIPE_EXEC + element)
                for element, resp in zip(elements, out)]

    def exec_operator(self, query_id: int, req: OperatorRequest) -> OperatorResponse:
        resp = self.exec_batch(query_id, [req], 1)[0]
        if resp.error_code:
            raise error_for_code(resp.error_code, f"operator {req.op} failed")
        return resp

    def end_query(self, query_id: int) -> None:
        """Drop the query's temporaries; sends MSG_END_QUERY only if the
        query may have written any."""
        if query_id in self._temp_queries:
            self._temp_queries.discard(query_id)
            self._call(MSG_END_QUERY, query_id=query_id)

    # -- write path / maintenance ------------------------------------------

    def promote(self, temp_fid: int, perm_partition: int) -> int:
        self._observe_fid(temp_fid)
        body = self._call(MSG_PROMOTE, _PROMOTE.pack(temp_fid, perm_partition))
        (fid,) = _U64.unpack(body)
        self._observe_fid(fid)
        return fid

    def delete(self, fids: list[int], batch_size: int) -> list[bool]:
        """Deletes each FID's mapping, batch_size FIDs per message; returns
        per FID whether it had one (False for a FID that was not live)."""
        out = []
        for chunk in _chunks(fids, batch_size):
            payload = b"".join(self._write_fid(f) for f in chunk)
            body = self._call(MSG_DELETE, payload)
            out.extend(status == 0 for status in body)
        return out

    def flush_log(self, checkpoint: bool = False) -> None:
        self._call(MSG_FLUSH_LOG, CHECKPOINT if checkpoint else b"")

    def restore(self, items: list[tuple[int, bytes]], batch_size: int) -> None:
        """Writes each recipe's value again at its FID where the privacy
        zone lost it, batch_size (fid, recipe) items per message."""
        for chunk in _chunks(items, batch_size):
            self._call(MSG_RESTORE, b"".join(self._write_fid(fid) + _blob(recipe)
                                             for fid, recipe in chunk))

    def create_partition(self) -> int:
        """A new permanent partition's id."""
        body = self._call(MSG_CREATE_PARTITION)
        return _U32.unpack(body)[0]

    def prefetch(self, partition_id: int) -> None:
        self._call(MSG_PREFETCH, _U32.pack(partition_id))

    def is_live(self, fid: int) -> bool:
        body = self._call(MSG_IS_LIVE, self._write_fid(fid))
        return bool(body[0])

    def list_live(self, partition_id: int) -> list[int]:
        body = self._call(MSG_LIST_LIVE, _U32.pack(partition_id))
        (n,) = _U32.unpack_from(body, 0)
        return [self._read_fid(body, 4 + 8 * i)[0] for i in range(n)]

    # -- ciphertext-scheme baseline ------------------------------------------

    def cipher_ingest(self, query_id: int, envelopes: list[bytes],
                      batch_size: int) -> list[bytes]:
        """A zone envelope per client envelope, in order, batch_size
        envelopes per message."""
        out = []
        for chunk in _chunks(envelopes, batch_size):
            body = self._call(MSG_CIPHER_INGEST, b"".join(_blob(e) for e in chunk))
            out.extend(_read_blobs(body, 0))
        return out

    def cipher_reveal(self, query_id: int, zone_envelope: bytes) -> bytes:
        """A zone envelope's value as a client envelope; query_id does not
        cross."""
        return self._call(MSG_CIPHER_REVEAL, zone_envelope)

    def cipher_exec(self, query_id: int, reqs: list[OperatorRequest],
                    batch_size: int) -> list[OperatorResponse]:
        """exec_batch over zone envelopes: each request's operand_fids and
        each response's fid carry envelopes. The privacy zone stores no
        result, so a destination is checked but never written to."""
        return self._batch(MSG_CIPHER_EXEC, None, reqs, batch_size,
                           _blob, _read_blob)[1]


class PrivacyDispatcher:
    """Privacy-side request handler: one function per message kind. Both
    operator messages run through the proxy's one executor; zone_codec
    seals the cipher baseline's envelopes.

    A malformed request gets a status too: TypeMismatch, before anything is
    stored or journaled, for a truncated request, a query id where no
    temporary is named or a temporary named without one (module
    docstring), a fixed-size payload of another length
    (MSG_CREATE_PARTITION with any payload), an ingest with no envelope or
    with bytes after its last one, an operator batch with no element, or
    an unknown op or value type; AuthFailure for an envelope too short for
    its nonce and tag or one that fails its tag. An ingest is all or
    nothing: every envelope of the request is authenticated before the
    first is stored. The integrity zone can create permanent partitions
    only: temporaries belong to a query and are created by the proxy.

    restoring is the recovery window: recovery sets it, and the dispatcher
    accepts MSG_RESTORE until the first request of another kind and
    refuses it with TypeMismatch at any other time."""

    def __init__(self, proxy, wal, atrest, zone_codec: EnvelopeCodec):
        self.proxy = proxy
        self.wal = wal
        self.atrest = atrest
        self.envelopes = EnvelopeSpace(zone_codec)
        self.restoring = False

    def handle(self, raw: bytes) -> bytes:
        try:
            return b"\x00" + self._dispatch(*_split(raw))
        except FidStoreError as exc:
            return _U8.pack(exc.code or 255)

    def _dispatch(self, kind: int, query_id: int | None, payload: bytes) -> bytes:
        proxy = self.proxy
        store = proxy.store
        if kind == MSG_RESTORE:
            if not self.restoring:
                raise TypeMismatch("restore outside the recovery window")
            proxy.restore(_read_restore(payload))
            return b""
        self.restoring = False
        if kind == MSG_INGEST:
            blobs = _read_blobs(payload, 4)  # fails unless the target fits
            (target,) = _U32.unpack_from(payload, 0)
            if query_id is not None and target != QUERY_TEMP_TARGET:
                raise TypeMismatch("a query id on an ingest to a permanent partition")
            target = proxy.destination(query_id, target)
            fids = proxy.ingest([ClientEnvelope.from_bytes(b) for b in blobs], target)
            return b"".join(_U64.pack(fid) for fid in fids)
        if kind == MSG_REVEAL:
            (fid,) = _unpack(_U64, payload)
            return proxy.reveal(fid).to_bytes()
        if kind == MSG_EXEC_BATCH:
            return self._exec(query_id, payload, proxy.fids, _read_u64, _U64.pack)
        if kind == MSG_END_QUERY:
            if query_id is None or payload:
                raise TypeMismatch("end_query is its query id alone")
            proxy.end_query(query_id)
            return b""
        if kind == MSG_PROMOTE:
            fid, perm = _unpack(_PROMOTE, payload)
            fid = store.promote(fid, perm)
            # the one write without a recipe: durable before the reply
            self.wal.flush(checkpoint=True)
            return _U64.pack(fid)
        if kind == MSG_DELETE:
            if len(payload) % _U64.size:
                raise TypeMismatch(f"delete payload of {len(payload)} bytes")
            out = bytearray()
            for (fid,) in _U64.iter_unpack(payload):
                try:
                    store.delete(fid)
                    out.append(0)
                except NotLive:
                    out.append(NotLive.code)
            return bytes(out)
        if kind == MSG_FLUSH_LOG:
            if payload not in (b"", CHECKPOINT):
                raise TypeMismatch(f"flush payload of {len(payload)} bytes")
            self.wal.flush(checkpoint=payload == CHECKPOINT)
            return b""
        if kind == MSG_CREATE_PARTITION:
            if payload:
                raise TypeMismatch(f"create payload of {len(payload)} bytes")
            return _U32.pack(store.create_partition(PartitionKind.PERMANENT))
        if kind == MSG_PREFETCH:
            (pid,) = _unpack(_U32, payload)
            self.atrest.prefetch_partition(pid)
            return b""
        if kind == MSG_IS_LIVE:
            (fid,) = _unpack(_U64, payload)
            return _U8.pack(1 if store.is_live(fid) else 0)
        if kind == MSG_LIST_LIVE:
            (pid,) = _unpack(_U32, payload)
            fids = store.live_fids(pid)
            return _U32.pack(len(fids)) + b"".join(_U64.pack(f) for f in fids)
        if kind == MSG_CIPHER_INGEST:
            decrypt = proxy.client_codec.decrypt
            values = [decrypt(ClientEnvelope.from_bytes(b))
                      for b in _read_blobs(payload, 0)]
            save = self.envelopes.save
            return b"".join(_blob(save(None, None, v)) for v in values)
        if kind == MSG_CIPHER_REVEAL:
            (value,) = self.envelopes.load([payload])
            return proxy.client_codec.encrypt(value).to_bytes()
        if kind == MSG_CIPHER_EXEC:
            return self._exec(None, payload, self.envelopes, _read_blob, _blob)
        raise FidStoreError(f"unknown message kind {kind}")

    def _exec(self, query_id: int | None, payload: bytes, space, read_operand,
              write_result) -> bytes:
        """An operator batch over space; read_operand and write_result are
        the wire forms of its operands and value results. Each response
        element is an error status byte alone, or status 0 then a result
        kind and the result."""
        reqs = _read_ops(payload, read_operand)
        if query_id is not None and not any(map(_writes_temp, reqs)):
            raise TypeMismatch("a query id on a batch that writes no temporary")
        out = []
        for resp in self.proxy.exec_batch(reqs, query_id, space):
            if resp.error_code:
                out.append(_U8.pack(resp.error_code))
            elif resp.boolean is not None:
                out.append(bytes((0, _RESULT_BOOL, 1 if resp.boolean else 0)))
            elif resp.envelope is not None:
                out.append(bytes((0, _RESULT_REVEALED)) + _blob(resp.envelope))
            else:
                out.append(bytes((0, _RESULT_VALUE)) + write_result(resp.fid))
        return b"".join(out)
