"""Cross-zone wire protocol: a request is {u8 msg_kind, payload}.

Everything the integrity zone needs from the privacy zone travels through
these messages; there is no other channel. FIDs are 8-byte little-endian,
booleans one byte. Responses start with a status byte (0 = ok, otherwise
an error code from errors.py). No message carries a byte its receiver
already knows: an operator batch's elements, and the last item of a
list, run to the end of their message, so neither carries a count or a
length, and an envelope whose length the element's value type fixes goes
bare.

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
element in order, then the reply's client envelope if it reveals a value
(below), and no other byte after the last element.
Each element is {u8 op | flags, u8 type, u16 argc, [u32 destination],
argc stored operands, [constant]}. A stored operand is a u64 FID, or on
the cipher path a zone envelope: bare when the element's value type is
INT64 or FLOAT64, whose 8-byte values make every envelope of theirs
FIXED_ENVELOPE_LEN (36) bytes, else {u32 len, envelope}. Each of four
flag bits in the op byte adds one optional part or behaviour; an element
with none set is its head and its operands alone:

- OP_DEST: the u32 destination follows the head and names the permanent
  partition the element's value result is written to (MSG_EXEC_BATCH
  only). Without it the result goes to the query's temporary partition.
  A result written to a permanent partition takes its stored operands from
  permanent partitions only, so its recipe can be re-run at recovery; an
  element with a temporary operand fails with TypeMismatch.
- OP_CONST: a client envelope {u32 len, bytes} follows the stored
  operands, whatever the value type (a fid recipe journals the element,
  so its bytes stay as they are), and its first value is the element's
  last operand. The privacy zone never stores it, except as the value of
  a STORE.
- OP_NEXT_CONST: the element's last operand is the next value of the
  envelope of its run, and no constant byte follows its operands. A run
  is an OP_CONST element and the OP_NEXT_CONST elements right after it in
  its message: its envelope seals their n constants in order, each but
  the last after its u16 length (privacy_proxy.pack_values), 28 + the sum
  of their lengths + 2(n-1) bytes, so a run of one is the OP_CONST
  element of a lone constant. The privacy zone opens a run's envelope
  once (privacy_proxy.Constants). An envelope that fails its tag fails
  every element of its run with AuthFailure, one that does not split into
  n values each with TypeMismatch, and an OP_NEXT_CONST element that
  follows no element with a constant fails alone with TypeMismatch. An
  element with both OP_CONST and OP_NEXT_CONST fails the whole message.
- OP_REVEAL: the value result comes back in the reply's client envelope
  and is never stored.

A constant goes beside a stored operand, except in STORE, which takes
argc 0 and a constant (OP_CONST or OP_NEXT_CONST), and whose value result is
the constant's value: with OP_DEST it writes a client's value into a
table's partition, as an ingest does. LOAD is the reveal: it takes
argc >= 1 stored operands and OP_REVEAL, and neither OP_DEST nor a constant,
computes nothing, and its argc operands' values go into the reply's client
envelope, in order. An INT64 or FLOAT64 LOAD reveals 8-byte values only.
So a LOAD's operands are FIDs as bare as a list of FIDs, and on the cipher
path INT64 zone envelopes go bare too. An element that breaks a rule (a
constant with argc 0 on any other op, a STORE with a stored operand,
without a constant or with OP_REVEAL, a LOAD with argc 0, a destination, a
constant or without OP_REVEAL, a reveal on a comparison or together with a
destination) fails on its own with TypeMismatch, like any other element
error; so does an operand that is not live, with NotLive, or a zone
envelope that fails its tag, with AuthFailure, and the batch's other
elements still run and reveal.

The integrity zone holds a transaction's writes (Database.insert_row and
update_row) and sends them when it commits: an ADD over the old value
with OP_DEST and a constant, or a STORE with OP_DEST, all of the
transaction's in one batch message (batch_size elements each),
MSG_EXEC_BATCH on the fid path and MSG_CIPHER_EXEC on the cipher one, and
an inserted value's client envelope by MSG_INGEST into its table's
partition (MSG_CIPHER_INGEST). It sends them earlier only when the
transaction reads, sums or writes again a row it wrote, so when a
transaction's writes cross depends on its keys alone. An aborted
transaction sends none. The client holds the deltas and values of a
transaction's writes and seals those that cross together in one client
envelope just before they cross (Database.supply_constants), so they go
as one run: the first element with OP_CONST, the others with
OP_NEXT_CONST, and no message carries two envelopes of one transaction.
A message takes more than batch_size elements rather than end inside a
run, whose continuations the next message could not read. A run stops at
its transaction: an envelope shared by several clients would need a
party that sees all their plaintexts, and the integrity zone is not
trusted with them. The writes of the transactions that commit in one
schedule pass go together, as one group's ingests and one operator batch
(Database.send_writes, zone_sim._Runner), each element as it would go
alone. A group's write batch may carry riders after its write elements:
the reveals the clients have queued (LOAD elements and SUM last elements),
whose values come back in the batch's reply envelope. A rider writes
nothing, so the write elements' bytes, and the recipes journaled from
them, are those of the batch without riders. Each response element is
a status byte, then for status 0 a result kind and the result: 0 and a
value (a FID, or a zone envelope for MSG_CIPHER_EXEC, written as a stored
operand is), 1 and a boolean byte, or 2 alone for a revealed result, whose
value is in the reply's client envelope, which follows the last element
and runs to the end of the reply. It seals the revealed values of the
elements that succeeded, in element order: argc values for a LOAD, one
for any other element; a reply that reveals nothing has none.

Kinds 2 and 22 are retired and never reused: MSG_REVEAL and
MSG_CIPHER_REVEAL, lists of FIDs or of zone envelopes whose reply was
their values' envelope alone, which a LOAD element replaced, so that a
pass's reads, its sums and a commit's writes share one message.

So every reply that reveals values carries exactly one client envelope,
made by one encrypt, whatever the count of values or of elements: its
plaintext is the values in order, each but the last after its u16 length
(privacy_proxy.pack_values). One value packs to itself, so a reply that
reveals one value seals it as an envelope of its own would. The 2(n-1)
inner length bytes pay for one packing rule for values of any width (a
READ reveals an 8-byte int or a 128-byte padded string): an envelope per
value cost 28 bytes and an encrypt each. The integrity zone cannot open
the envelope, and knows its length only: 28 + the sum of the value
lengths + 2(n-1). The client opens it and splits it into its n values
(zone_sim.ZoneTopology.client_open).

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
MSG_LIST_LIVE carries a u32 partition id, and its response is the
partition's live FIDs, u64 each, up to the end of the message.
MSG_FLUSH_LOG carries nothing, or the one byte CHECKPOINT. A plain flush
makes the privacy journal's delete and create records durable, never a
secret; with CHECKPOINT the privacy zone then checkpoints too (wal), so
every secret written before it is durable. Its response is the status byte
alone, so it tells the integrity zone nothing about the privacy zone's
journal. The integrity zone sends a plain flush after create_table's new
partition and after vacuum's deletes, and CHECKPOINT at the start of
vacuum, at the end of orphan_gc, before an integrity checkpoint writes its
image and after a restore that wrote a FID; at the start of vacuum and
before an image only while a recipe is pending. A commit never sends
MSG_FLUSH_LOG: every recipe it journals reads only operands that come
back before it (integrity_dbms). MSG_PROMOTE copies a temporary FID's
value into a permanent partition and checkpoints the privacy zone before
it replies, since the copy has no recipe; the engine never sends it.
MSG_CREATE_PARTITION carries nothing and creates a permanent partition; its
response is the u32 partition id.

A recipe is the bytes that wrote a FID in a permanent partition, which
the integrity zone journals in the one commit record of the transaction
that claims the FID, and sends again after a privacy restart until a
checkpoint has made the write durable:
RECIPE_INGEST (u8 1) and the client envelope of an ingest, or
RECIPE_EXEC (u8 2) and the operator element, as MSG_EXEC_BATCH carried it,
whose value result went to the FID's partition. So a run's envelope is in
the recipe of its first element alone, and a continuation's recipe is its
OP_NEXT_CONST element: its constant is the next value of the envelope of
the nearest RECIPE_EXEC before it, in the same commit record, with
ingest recipes between them in none (recipe_runs); a record with a
continuation that has no envelope before it is corrupt. MSG_RESTORE is
{u64 fid, u32 len, recipe} items up to the end of the payload, batch_size
of them or more, so that a message holds whole runs, and the operator
recipes of a message make runs as a batch's elements do. Its response is
a u32 count of the FIDs it wrote again, so the integrity zone
checkpoints only after a restore that wrote one (Database.restore_recipes).
The privacy zone accepts it only between its recovery and its first
request of another kind, and checks every item before it stores the
first: the FID must be in a permanent partition, at an offset below the
partition's recovered allocation counter plus wal.MAX_UNSYNCED_PUTS (more
puts than come between two privacy checkpoints, so more than a crash can
lose), the element a value op naming that partition over permanent
operands, and every envelope must authenticate, each run's opened once.
It skips a FID that is live and writes every other at exactly that FID
(PrivacyProxy.restore). So a restore
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
    ENVELOPE_OVERHEAD,
    EnvelopeCodec,
    ClientEnvelope,
    EnvelopeSpace,
    OperatorRequest,
    OperatorResponse,
    OpKind,
    QUERY_TEMP_TARGET,
    ValueType,
)

# kinds 2 and 22 are retired and never reused (module docstring)
MSG_INGEST = 1
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
OP_NEXT_CONST = 0x10
_OP_FLAGS = OP_DEST | OP_REVEAL | OP_CONST | OP_NEXT_CONST

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

# the value types whose values are 8 bytes, so each envelope of theirs is
# FIXED_ENVELOPE_LEN bytes and crosses bare (module docstring)
_FIXED_TYPES = frozenset({ValueType.INT64, ValueType.FLOAT64})
FIXED_ENVELOPE_LEN = ENVELOPE_OVERHEAD + 8


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


def _write_envelope(envelope: bytes, vtype: int) -> bytes:
    """A zone envelope in an element of value type vtype: bare
    when vtype fixes its length, else a blob; TypeMismatch for an envelope
    of another length than the fixed one."""
    if vtype not in _FIXED_TYPES:
        return _blob(envelope)
    if len(envelope) != FIXED_ENVELOPE_LEN:
        raise TypeMismatch(f"a {len(envelope)}-byte envelope where the value "
                           f"type fixes {FIXED_ENVELOPE_LEN}")
    return envelope


def _read_envelope(data: bytes, pos: int, vtype: int) -> tuple[bytes, int]:
    """The envelope _write_envelope wrote at pos, and the position after
    it."""
    if vtype not in _FIXED_TYPES:
        return _read_blob(data, pos)
    end = pos + FIXED_ENVELOPE_LEN
    if end > len(data):
        raise TypeMismatch("message ends inside an envelope")
    return data[pos:end], end


def _pack_fid(fid: int, vtype: int | None = None) -> bytes:
    """A FID value result: 8 bytes whatever the value type."""
    return _U64.pack(fid)


_U64_LISTS: dict[int, struct.Struct] = {}


def _u64s(n: int) -> struct.Struct:
    """The struct of n u64s, made once per n."""
    s = _U64_LISTS.get(n)
    if s is None:
        s = _U64_LISTS[n] = struct.Struct(f"<{n}Q")
    return s


def _pack_fids(fids: list[int], vtype: int | None = None) -> bytes:
    """An element's FID operands, 8 bytes each whatever the value type, in
    one struct call."""
    return _u64s(len(fids)).pack(*fids)


def _read_fids(data: bytes, pos: int, vtype: int, argc: int) -> tuple[list, int]:
    """The argc FID operands _pack_fids wrote at pos, in one struct call,
    and the position after them."""
    s = _u64s(argc)
    return list(s.unpack_from(data, pos)), pos + s.size


def _write_envelopes(envelopes: list[bytes], vtype: int) -> bytes:
    """An element's zone envelope operands (_write_envelope each)."""
    return b"".join([_write_envelope(e, vtype) for e in envelopes])


def _read_envelopes(data: bytes, pos: int, vtype: int,
                    argc: int) -> tuple[list, int]:
    """The argc envelopes _write_envelopes wrote at pos, and the position
    after them."""
    out = []
    for _ in range(argc):
        envelope, pos = _read_envelope(data, pos, vtype)
        out.append(envelope)
    return out, pos


def _sealed_len(n: int, width: int) -> int:
    """The length of the one client envelope that seals n values of width
    bytes each (privacy_proxy.pack_values)."""
    return ENVELOPE_OVERHEAD + n * (width + 2) - 2


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


def _chunks(items: list, batch_size: int, joined: list[bool] | None = None):
    """items in consecutive slices of batch_size, the split of every client
    call that takes a batch_size; an item whose joined flag is set goes in
    the slice of the item before it, so a slice runs past batch_size rather
    than split a run of pooled constants."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    lo = 0
    while lo < len(items):
        hi = lo + batch_size
        if joined is not None:
            while hi < len(items) and joined[hi]:
                hi += 1
        yield items[lo:hi]
        lo = hi


def recipe_runs(recipes: list[bytes]) -> list[int | None]:
    """Per recipe, the index of the head of the run it belongs to
    (privacy_proxy.Constants), or None for a recipe in no run: a head is a
    RECIPE_EXEC whose element carries OP_CONST, and a continuation, one
    whose element carries OP_NEXT_CONST, belongs to the run of the nearest
    operator recipe before it; an ingest recipe between them belongs to
    none. TypeMismatch for a continuation with no head before it (the
    nearest operator recipe before it carries no constant, or there is
    none)."""
    heads: list[int | None] = [None] * len(recipes)
    head = None  # the open run's head
    for i, recipe in enumerate(recipes):
        if recipe[:1] != RECIPE_EXEC:
            continue
        flags = recipe[1]
        if flags & OP_NEXT_CONST:
            if head is None:
                raise TypeMismatch("a continuation recipe with no envelope before it")
        else:
            head = i if flags & OP_CONST else None
        heads[i] = head
    return heads


def _joined(heads: list[int | None]) -> list[bool]:
    """Per item, whether it crosses in the message of the item before it:
    each item after a run's head up to the run's last continuation, so a
    message holds whole runs (recipe_runs gives the heads)."""
    joined = [False] * len(heads)
    marked = 0  # joined is set up to here
    for i, head in enumerate(heads):
        if head is not None and head != i:
            for j in range(max(head + 1, marked), i + 1):
                joined[j] = True
            marked = i + 1
    return joined


def _read_u64(data: bytes, pos: int, vtype: int | None = None) -> tuple[int, int]:
    """The u64 at pos (a FID operand or value result, of any value type)
    and the position after it."""
    return _U64.unpack_from(data, pos)[0], pos + 8


def _write_op(r: OperatorRequest, write_operands) -> bytes:
    """One operator element's bytes (format in the module docstring): a
    next_const element carries OP_NEXT_CONST and no constant bytes."""
    dest = r.destination
    carries = r.constant is not None and not r.next_const
    flags = ((OP_DEST if dest is not None else 0)
             | (OP_CONST if carries else 0)
             | (OP_NEXT_CONST if r.next_const else 0)
             | (OP_REVEAL if r.reveal else 0))
    parts = [_OP_HEAD.pack(int(r.op) | flags, int(r.value_type), len(r.operand_fids))]
    if dest is not None:
        parts.append(_U32.pack(dest))
    parts.append(write_operands(r.operand_fids, r.value_type))
    if carries:
        parts.append(_blob(r.constant))
    return b"".join(parts)


def _read_op(data: bytes, pos: int, read_operands) -> tuple[OperatorRequest, int]:
    """The operator element at pos and the position after it, a
    continuation's constant unset (_link_runs); raises struct.error,
    KeyError or TypeMismatch on a truncated element, an unknown op or
    value type, or both OP_CONST and OP_NEXT_CONST."""
    op, vtype, argc = _OP_HEAD.unpack_from(data, pos)
    pos += _OP_HEAD.size
    flags = op & _OP_FLAGS
    op &= ~_OP_FLAGS
    if flags & OP_CONST and flags & OP_NEXT_CONST:
        raise TypeMismatch("an element both carries and continues a constant")
    dest = None
    if flags & OP_DEST:
        (dest,) = _U32.unpack_from(data, pos)
        pos += 4
    operands, pos = read_operands(data, pos, vtype, argc)
    const = None
    if flags & OP_CONST:
        const, pos = _read_blob(data, pos)
    return OperatorRequest(_OP_KINDS[op], _VALUE_TYPES[vtype], operands, dest, const,
                           bool(flags & OP_REVEAL), bool(flags & OP_NEXT_CONST)), pos


def _link_runs(reqs: list[OperatorRequest]) -> None:
    """Gives each continuation the envelope of the request before it, which
    carries or continues its run; one after a request without a constant
    keeps None, and fails (privacy_proxy.Constants)."""
    previous = None
    for r in reqs:
        if r.next_const:
            r.constant = previous
        previous = r.constant


def _read_ops(payload: bytes, read_operands) -> list[OperatorRequest]:
    """Decode an operator batch (format in the module docstring); an empty
    batch, a truncated element, or an element with an unknown op or value
    type, fails the whole message with TypeMismatch."""
    if not payload:
        raise TypeMismatch("operator batch without an element")
    ops = []
    pos = 0
    try:
        while pos < len(payload):
            op, pos = _read_op(payload, pos, read_operands)
            ops.append(op)
    except (struct.error, KeyError):
        raise TypeMismatch("malformed operator batch") from None
    _link_runs(ops)
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
                req, end = _read_op(recipe, 1, _read_fids)
            except (struct.error, KeyError):
                raise TypeMismatch("malformed operator recipe") from None
            if end != len(recipe):
                raise TypeMismatch("bytes after an operator recipe")
            items.append((fid, req))
        else:
            raise TypeMismatch(f"unknown recipe kind {kind!r}")
        if pos == len(payload):
            _link_runs([r for _, r in items if isinstance(r, OperatorRequest)])
            return items


class ProxyClient:
    """Integrity-side stub: serializes calls, records the adversary view.

    Each method is one round trip except ingest, cipher_ingest,
    exec_batch, exec_writes, cipher_exec, delete and restore, which take a
    list and a batch_size and split the list into ceil(n / batch_size)
    messages (all through _chunks), or fewer where a message runs on to
    keep a run of pooled constants whole, and end_query, which sends nothing for
    a query that never wrote to its temporary partition (no temp-target
    ingest, no stored value result without a destination): such a query
    has no temporaries to drop. Only those writes and end_query send their
    query id (the flagged frame of the module docstring); every other
    call's query_id, reveal's and the cipher calls' included, is kept for
    its callers and never crosses. reveal and cipher_reveal are one LOAD
    element each. The client keeps no record of what it wrote: the engine
    takes each fresh FID's recipe from the call that wrote it (exec_writes,
    or the envelope it ingested) and journals it with the commit that
    claims the FID. Each FID a call sends or gets back reaches the trace as
    FidObserved, an element's operands in one call (AdversaryTrace.fids).
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

    def _observe_fids(self, fids: list[int]) -> None:
        if self.trace is not None:
            self.trace.fids(fids)

    def _write_fid(self, fid: int) -> bytes:
        self._observe_fid(fid)
        return _U64.pack(fid)

    def _write_fids(self, fids: list[int], vtype: int | None = None) -> bytes:
        self._observe_fids(fids)
        return _pack_fids(fids)

    def _read_fid(self, body: bytes, pos: int,
                  vtype: int | None = None) -> tuple[int, int]:
        fid, pos = _read_u64(body, pos)
        self._observe_fid(fid)
        return fid, pos

    def _batch(self, kind: int, query_id: int | None, reqs: list[OperatorRequest],
               batch_size: int, write_operands,
               read_result) -> tuple[list[bytes | None], list[OperatorResponse]]:
        """The operator-batch codec shared by the FID and envelope paths:
        the requests go out in batch_size elements a message, except that a
        message never ends inside a run (privacy_proxy.Constants): it takes
        the rest of the run, whose continuations the next message could not
        read. One response comes back per request. write_operands(xs,
        vtype) and read_result(data, pos, vtype) are the path's wire forms
        of an element's operands and of a value result. An element the wire
        cannot carry (an envelope of another length than its value type
        fixes, or a continuation whose element before it in the message was
        not sent or carries another envelope) fails alone with
        TypeMismatch, as the privacy zone would fail it, and is not sent; a
        message goes only if an element of its chunk is left. A message
        carries query_id only if one of its elements writes a temporary;
        the envelope path, whose results are never stored, passes None.
        Returns each request's element bytes (None for one not sent) and
        its response."""
        elements = []
        out = []
        for chunk in _chunks(reqs, batch_size, [r.next_const for r in reqs]):
            sent = []
            run = None  # the envelope of the last element sent, if it has one
            for r in chunk:
                element = None
                if not r.next_const or (run is not None and r.constant == run):
                    try:
                        element = _write_op(r, write_operands)
                    except TypeMismatch:
                        pass
                sent.append(element)
                run = None if element is None else r.constant
            elements.extend(sent)
            ready = [(r, element) for r, element in zip(chunk, sent)
                     if element is not None]
            replies = iter(self._send_ops(kind, query_id, ready, read_result)
                           if ready else ())
            out.extend(next(replies) if element is not None
                       else OperatorResponse(error_code=TypeMismatch.code)
                       for element in sent)
        return elements, out

    def _send_ops(self, kind: int, query_id: int | None, ready: list[tuple],
                  read_result) -> list[OperatorResponse]:
        """One operator message of the (request, element bytes) pairs in
        ready, and a response per request, each revealed one holding the
        reply's one client envelope. TypeMismatch for a reply with an
        element too few or too many, a byte after its last element when it
        reveals nothing, or an envelope that cannot seal its revealed
        values, argc for a LOAD element and one for any other: shorter
        than any could, or, when each value's type fixes its 8 bytes, of
        another length than theirs make."""
        qid = None
        if query_id is not None and any(_writes_temp(r) for r, _ in ready):
            # recorded first: a refused batch may still have created the
            # query's temporary partition
            self._temp_queries.add(query_id)
            qid = query_id
        body = self._call(kind, b"".join(element for _, element in ready), qid)
        out = []
        revealed = []  # (request, response) of each revealed element
        pos = 0
        try:
            for r, _ in ready:
                status = body[pos]
                pos += 1
                if status != 0:
                    out.append(OperatorResponse(error_code=status))
                    continue
                result_kind = body[pos]
                pos += 1
                if result_kind == _RESULT_VALUE:
                    result, pos = read_result(body, pos, r.value_type)
                    out.append(OperatorResponse(fid=result))
                elif result_kind == _RESULT_REVEALED:
                    revealed.append((r, OperatorResponse()))
                    out.append(revealed[-1][1])
                else:
                    flag = bool(body[pos])
                    pos += 1
                    if self.trace is not None:
                        self.trace.cmp_bool(flag)
                    out.append(OperatorResponse(boolean=flag))
        except (IndexError, struct.error):
            raise TypeMismatch("reply ends inside an element") from None
        envelope = body[pos:]
        if not revealed:
            if envelope:
                raise TypeMismatch("reply has bytes after its last element")
            return out
        n = sum(r.n_revealed for r, _ in revealed)
        if len(envelope) < _sealed_len(n, 1) or (
                all(r.value_type in _FIXED_TYPES for r, _ in revealed)
                and len(envelope) != _sealed_len(n, 8)):
            raise TypeMismatch(f"a {len(envelope)}-byte envelope for {n} revealed "
                               "values")
        for _, resp in revealed:
            resp.envelope = envelope
        return out

    def _load(self, call, ref) -> bytes:
        """ref's value as a client envelope: one LOAD element of raw bytes
        through call (exec_batch or cipher_exec); raises its error."""
        load = OperatorRequest(OpKind.LOAD, ValueType.BYTES, [ref], reveal=True)
        resp = call(None, [load], 1)[0]
        if resp.error_code:
            raise error_for_code(resp.error_code, "LOAD failed")
        return resp.envelope

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
            self._observe_fids(fids)
            out.extend(fids)
        return out

    def reveal(self, query_id: int, fid: int) -> bytes:
        """fid's value as a client envelope, by one LOAD element
        (MSG_EXEC_BATCH); query_id does not cross."""
        return self._load(self.exec_batch, fid)

    def exec_batch(self, query_id: int, reqs: list[OperatorRequest],
                   batch_size: int) -> list[OperatorResponse]:
        return self._batch(MSG_EXEC_BATCH, query_id, reqs, batch_size,
                           self._write_fids, self._read_fid)[1]

    def exec_writes(self, query_id: int, reqs: list[OperatorRequest],
                    batch_size: int) -> list[tuple[OperatorResponse, bytes | None]]:
        """exec_batch for requests whose value results go to permanent
        partitions: per request its response and its recipe, RECIPE_EXEC
        and the element as sent (None for an element not sent), so a run's
        continuations have no envelope of their own. A revealed element
        among them, a commit's rider, gets its response alone."""
        elements, out = self._batch(MSG_EXEC_BATCH, query_id, reqs, batch_size,
                                    self._write_fids, self._read_fid)
        return [(resp, None if element is None else RECIPE_EXEC + element)
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
            body = self._call(MSG_DELETE, self._write_fids(chunk))
            out.extend(status == 0 for status in body)
        return out

    def flush_log(self, checkpoint: bool = False) -> None:
        self._call(MSG_FLUSH_LOG, CHECKPOINT if checkpoint else b"")

    def restore(self, items: list[tuple[int, bytes]], batch_size: int) -> int:
        """Writes each recipe's value again at its FID where the privacy
        zone lost it, batch_size (fid, recipe) items per message, but whole
        runs (recipe_runs), so each continuation crosses with its run's
        envelope; returns how many FIDs it wrote."""
        written = 0
        joined = _joined(recipe_runs([recipe for _, recipe in items]))
        for chunk in _chunks(items, batch_size, joined):
            body = self._call(MSG_RESTORE, b"".join(
                self._write_fid(fid) + _blob(recipe) for fid, recipe in chunk))
            written += _unpack(_U32, body)[0]
        return written

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
        if len(body) % _U64.size:
            raise TypeMismatch(f"list reply of {len(body)} bytes")
        return [self._read_fid(body, pos)[0] for pos in range(0, len(body), _U64.size)]

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
        """A zone envelope's value as a client envelope, by one LOAD element
        (MSG_CIPHER_EXEC); query_id does not cross."""
        return self._load(self.cipher_exec, zone_envelope)

    def cipher_exec(self, query_id: int, reqs: list[OperatorRequest],
                    batch_size: int) -> list[OperatorResponse]:
        """exec_batch over zone envelopes: each request's operand_fids and
        each response's fid carry envelopes. The privacy zone stores no
        result, so a destination is checked but never written to."""
        return self._batch(MSG_CIPHER_EXEC, None, reqs, batch_size,
                           _write_envelopes, _read_envelope)[1]


class PrivacyDispatcher:
    """Privacy-side request handler: one function per message kind. Both
    operator messages run through the proxy's one executor; zone_codec seals
    the cipher baseline's envelopes.  A malformed request gets a status too:
    TypeMismatch, before anything is stored or journaled, for a truncated
    request, a query id where no temporary is named or a temporary named
    without one (module docstring), a fixed-size payload of another length
    (MSG_CREATE_PARTITION with any payload), an ingest with no envelope or
    with bytes after its last one, an operator batch with no element or one
    that ends inside one, or an unknown op or value type; AuthFailure for an
    envelope too short for its nonce and tag or one that fails its tag. An
    ingest is all or nothing: every envelope of the request is authenticated
    before the first is stored. An operator batch is not: each element runs
    or fails alone, a LOAD element with all its operands and a run's
    elements on their one envelope, and the reply's one client envelope
    seals the values of the elements that ran. The integrity zone can create
    permanent partitions only: temporaries belong to a query and are created
    by the proxy.

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
            return _U32.pack(proxy.restore(_read_restore(payload)))
        self.restoring = False
        if kind == MSG_INGEST:
            blobs = _read_blobs(payload, 4)  # fails unless the target fits
            (target,) = _U32.unpack_from(payload, 0)
            if query_id is not None and target != QUERY_TEMP_TARGET:
                raise TypeMismatch("a query id on an ingest to a permanent partition")
            target = proxy.destination(query_id, target)
            fids = proxy.ingest([ClientEnvelope.from_bytes(b) for b in blobs], target)
            return b"".join(_U64.pack(fid) for fid in fids)
        if kind == MSG_EXEC_BATCH:
            return self._exec(query_id, payload, proxy.fids, _read_fids, _pack_fid)
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
            return b"".join(map(_U64.pack, store.live_fids(pid)))
        if kind == MSG_CIPHER_INGEST:
            decrypt = proxy.client_codec.decrypt
            values = [decrypt(ClientEnvelope.from_bytes(b))
                      for b in _read_blobs(payload, 0)]
            save = self.envelopes.save
            return b"".join(_blob(save(None, None, v)) for v in values)
        if kind == MSG_CIPHER_EXEC:
            return self._exec(None, payload, self.envelopes, _read_envelopes,
                              _write_envelope)
        raise FidStoreError(f"unknown message kind {kind}")

    def _exec(self, query_id: int | None, payload: bytes, space, read_operands,
              write_result) -> bytes:
        """An operator batch over space; read_operands(data, pos, vtype, argc)
        and write_result(result, vtype) are the wire forms of an element's
        operands and of a value result. Each response element is an error
        status byte alone, or status 0 then a result kind and the result,
        except that a revealed result is its kind alone: the one client
        envelope of the revealed results follows the last element."""
        reqs = _read_ops(payload, read_operands)
        if query_id is not None and not any(map(_writes_temp, reqs)):
            raise TypeMismatch("a query id on a batch that writes no temporary")
        out = []
        envelope = b""
        for req, resp in zip(reqs, self.proxy.exec_batch(reqs, query_id, space)):
            if resp.error_code:
                out.append(_U8.pack(resp.error_code))
            elif resp.boolean is not None:
                out.append(bytes((0, _RESULT_BOOL, 1 if resp.boolean else 0)))
            elif resp.envelope is not None:
                out.append(bytes((0, _RESULT_REVEALED)))
                envelope = resp.envelope
            else:
                out.append(bytes((0, _RESULT_VALUE))
                           + write_result(resp.fid, req.value_type))
        out.append(envelope)
        return b"".join(out)
