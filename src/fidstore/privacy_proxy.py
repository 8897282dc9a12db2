"""Trusted-side entry point: translates field identifiers to secrets,
runs plaintext expression operators, and handles the client encryption
boundary.

One executor, PrivacyProxy.exec_operator, runs the operator elements of
both backends, fetch-compute-store over an operand space: in FidSpace an
operand is a FID read from the mapping store and a result is put into
its destination partition; in EnvelopeSpace, the per-field AEAD
baseline's, an operand is a zone envelope the space opens and a result is
sealed into a fresh one. Comparisons are the one exception and return a
plaintext boolean, mirroring how production systems index and filter.
Nothing in this module ever hands plaintext to the untrusted side:
results leave as a fresh FID, a zone envelope or an authenticated client
envelope.

Ingested values and operator results go to the calling query's temporary
partition unless the caller names a destination; a named destination must
be a permanent partition (a table's), so a value written straight into
the table that will store it needs no separate promote. The dispatcher
resolves every ingest target and FidSpace resolves every operator
destination through destination(), so no message writes into another
query's temporaries. A query's temporary partition is created only when
one of its values is written to it, so a query that names a destination
for everything it writes never has one. EnvelopeSpace resolves no
destination: the integrity zone stores the envelope itself.

An operator may also take a client envelope as an inline constant, which
is decrypted once and used as its last operand, and may reveal its value
result, which then leaves in a client envelope. Neither the constant nor
a revealed result is ever stored. The constants of a run cost one decrypt
between them: a run is an element with a constant and the next_const
elements right after it, whose constants are the next values of its one
client envelope, packed in order (pack_values), so the writes of one
transaction that cross together pay one decrypt (Constants). A run of one
costs the one decrypt an ingest of its constant would. The revealed
results of one call cost one encrypt between them: each call seals its
values in one client envelope (seal), packed in the same way. LOAD is the
reveal: it computes nothing
and reveals the values of its argc >= 1 stored operands, in order, so one
element answers every READ of a value type that a batch carries.
STORE is the one op whose constant is its only operand: its value result
is the constant's value, so a STORE with a destination writes a client's
value into a table's partition as an ingest would, inside an operator
batch. That lets a transaction's writes, an ADD over the old value or a
STORE of a new one, all travel in the one batch its commit sends
(integrity_dbms).

After a crash, restore writes each lost FID of a table again from its
recipe, the ingest envelope or operator element that first wrote it, into
exactly that FID. So a value result bound for a permanent partition takes
its stored operands from permanent partitions only: a temporary operand
would be gone when its recipe runs again.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import IntEnum

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    AuthFailure,
    DivideByZero,
    FidStoreError,
    NotLive,
    Overflow,
    TypeMismatch,
    WrongPartitionKind,
)
from . import wal
from .fid_codec import OFFSET_BITS, OFFSET_MASK
from .mapping_store import MappingStore, PartitionKind

NONCE_LEN = 12
TAG_LEN = 16
ENVELOPE_OVERHEAD = NONCE_LEN + TAG_LEN  # 28 bytes over the plaintext

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_F64 = struct.Struct("<d")
_U16 = struct.Struct("<H")

# A destination naming the calling query's own temporary partition; the
# default for ingest and operator results.
QUERY_TEMP_TARGET = 0xFFFFFFFF


class OpKind(IntEnum):
    ADD = 1
    SUB = 2
    MUL = 3
    DIV = 4
    MOD = 5
    CMP_LT = 6
    CMP_EQ = 7
    CMP_GT = 8
    SUM_AGG = 9
    MIN_AGG = 10
    MAX_AGG = 11
    AVG_AGG = 12
    STORE = 13  # its inline constant alone, stored as it is
    LOAD = 14  # its stored operands' values, each revealed as it is


COMPARISONS = frozenset({OpKind.CMP_LT, OpKind.CMP_EQ, OpKind.CMP_GT})
BINARY_OPS = frozenset({OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
                        OpKind.CMP_LT, OpKind.CMP_EQ, OpKind.CMP_GT})


class ValueType(IntEnum):
    INT64 = 1
    FLOAT64 = 2
    BYTES = 3


@dataclass
class OperatorRequest:
    """operand_fids: the stored operands, FIDs or, on the cipher path, zone
    envelopes. destination: the permanent partition a value result goes
    to; None puts it in the query's temporary partition (the cipher path
    stores no result, so it ignores this). constant: a client envelope
    whose value is the last operand, after the stored ones. next_const:
    the constant is the next value of the envelope of the element before
    it in its run (Constants), and constant holds that envelope too,
    though the wire carries it once, with the run's first element
    (messages); with constant None it is held by its client until the
    txn's writes cross (integrity_dbms.Database.supply_constants). reveal:
    return the value result as a client envelope instead of storing it."""

    op: OpKind
    value_type: ValueType
    operand_fids: list[int]
    destination: int | None = None
    constant: bytes | None = None
    reveal: bool = False
    next_const: bool = False

    @property
    def has_constant(self) -> bool:
        """Whether the element takes an inline constant: its own envelope's,
        or its run's next value."""
        return self.constant is not None or self.next_const

    @property
    def n_revealed(self) -> int:
        """The values the element reveals when it succeeds: a LOAD's argc,
        a revealed value result's one, else none."""
        if not self.reveal:
            return 0
        return len(self.operand_fids) if self.op == OpKind.LOAD else 1


@dataclass
class OperatorResponse:
    """Exactly one of fid / boolean / envelope / error_code is meaningful.
    fid holds a stored value result: a FID or, on the cipher path, a zone
    envelope. envelope holds a revealed result: the one client envelope of
    its call (a message), which seals the revealed values of every element
    of the call, in element order (pack_values): a LOAD element's argc
    values, any other element's value result; one element that reveals one
    value alone has that value's envelope. revealed is the element's
    revealed plaintexts, set only inside the privacy zone, between
    exec_operator and the seal of exec_batch."""

    fid: int | None = None
    boolean: bool | None = None
    error_code: int = 0
    envelope: bytes | None = None
    revealed: list[bytes] | None = None


@dataclass(frozen=True)
class ClientEnvelope:
    """AEAD envelope exchanged with clients: 12-byte nonce + 16-byte tag."""

    nonce: bytes
    tag: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.tag + self.ciphertext

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClientEnvelope":
        if len(data) < ENVELOPE_OVERHEAD:
            raise AuthFailure(f"{len(data)}-byte envelope has no room for nonce and tag")
        return cls(data[:NONCE_LEN], data[NONCE_LEN:NONCE_LEN + TAG_LEN],
                   data[NONCE_LEN + TAG_LEN:])


class EnvelopeCodec:
    """AES-256-GCM field envelopes; nondeterministic (fresh nonce per call)."""

    def __init__(self, key: bytes, nonce_source=os.urandom):
        self._aead = AESGCM(key)
        self._nonce_source = nonce_source
        self.encrypts = 0
        self.decrypts = 0

    def encrypt(self, plaintext: bytes) -> ClientEnvelope:
        nonce = self._nonce_source(NONCE_LEN)
        out = self._aead.encrypt(nonce, plaintext, None)
        self.encrypts += 1
        return ClientEnvelope(nonce, out[-TAG_LEN:], out[:-TAG_LEN])

    def decrypt(self, envelope: ClientEnvelope) -> bytes:
        try:
            plaintext = self._aead.decrypt(envelope.nonce,
                                           envelope.ciphertext + envelope.tag, None)
        except InvalidTag:
            raise AuthFailure("envelope failed authentication") from None
        self.decrypts += 1
        return plaintext


def pack_values(values: list[bytes]) -> bytes:
    """The plaintext one client envelope seals for n >= 1 values: each
    value but the last after its u16 length, and the last bare, so one
    value packs to itself and n values take 2(n-1) bytes more than their
    own. TypeMismatch for a value, not the last, too long for its
    length."""
    parts = []
    for value in values[:-1]:
        if len(value) > 0xFFFF:
            raise TypeMismatch(f"a {len(value)}-byte value overflows its u16 length")
        parts += (_U16.pack(len(value)), value)
    parts.append(values[-1])
    return b"".join(parts)


def unpack_values(data: bytes, n: int) -> list[bytes]:
    """The n values pack_values packed into data; TypeMismatch for a
    plaintext that ends inside a length or whose length runs past its end.
    The last value runs to the end, so a surplus value lands in it: the
    value's decoder, which knows its width, refuses it."""
    values = []
    pos = 0
    for _ in range(n - 1):
        end = pos + _U16.size
        if end > len(data):
            raise TypeMismatch(f"packed values end before value {len(values) + 1} of {n}")
        end += _U16.unpack_from(data, pos)[0]
        if end > len(data):
            raise TypeMismatch("a packed value runs past the end of the plaintext")
        values.append(data[pos + _U16.size:end])
        pos = end
    values.append(data[pos:])
    return values


class Constants:
    """The inline constants of a list of operator requests, each run's
    envelope opened once: a run is a request with a constant and not
    next_const, and the next_const requests right after it, whose n
    constants its envelope seals in order (pack_values). value(i) is the
    plaintext of request i's constant, opened when a request of its run
    first asks; an envelope that fails its tag (AuthFailure) or does not
    split into n values (TypeMismatch) fails every request of its run that
    asks, and a next_const request with no run before it fails with
    TypeMismatch. Each open is one decrypt on codec."""

    __slots__ = ("_codec", "_reqs", "_runs", "_opened")

    def __init__(self, codec: "EnvelopeCodec", reqs: list[OperatorRequest]):
        self._codec = codec
        self._reqs = reqs
        self._runs: dict[int, tuple[int, int]] = {}  # i -> (run's first, place)
        first = None
        for i, req in enumerate(reqs):
            if req.next_const:
                self._runs[i] = (first, 0 if first is None else i - first)
            elif req.constant is not None:
                first = i
                self._runs[i] = (i, 0)
            else:
                first = None
        self._opened: dict[int, list[bytes] | FidStoreError] = {}

    def value(self, i: int) -> bytes:
        first, place = self._runs[i]
        if first is None:
            raise TypeMismatch("a next_const constant continues no run")
        values = self._opened.get(first)
        if values is None:
            n = 1
            while self._runs.get(first + n, (None,))[0] == first:
                n += 1
            try:
                values = unpack_values(self._codec.decrypt(ClientEnvelope.from_bytes(
                    self._reqs[first].constant)), n)
            except (AuthFailure, TypeMismatch) as exc:
                values = exc
            self._opened[first] = values
        if isinstance(values, FidStoreError):
            raise values
        return values[place]


def encode_int64(value: int) -> bytes:
    if not INT64_MIN <= value <= INT64_MAX:
        raise Overflow(f"{value} does not fit in int64")
    return value.to_bytes(8, "little", signed=True)


def decode_int64(data: bytes) -> int:
    if len(data) != 8:
        raise TypeMismatch(f"int64 operand must be 8 bytes, got {len(data)}")
    return int.from_bytes(data, "little", signed=True)


def encode_float64(value: float) -> bytes:
    return _F64.pack(value)


def decode_float64(data: bytes) -> float:
    if len(data) != 8:
        raise TypeMismatch(f"float64 operand must be 8 bytes, got {len(data)}")
    return _F64.unpack(data)[0]


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def check_operator(op: OpKind, n_stored: int, constant: bool,
                   destination: int | None, reveal: bool) -> None:
    """Raises TypeMismatch unless an operator element is well formed: the
    op's arity over its stored operands plus the inline constant, a
    constant only beside a stored operand, and a reveal only of a value
    result that names no destination. STORE is the one op that takes the
    constant alone: no stored operand, and no reveal, since it exists to
    store its value. LOAD takes stored operands alone, at least one, and
    exists to reveal them: no constant, no destination, and a reveal."""
    if op == OpKind.STORE:
        if n_stored or not constant or reveal:
            raise TypeMismatch("STORE takes an inline constant alone and stores it")
        return
    if op == OpKind.LOAD:
        if not n_stored or constant or destination is not None or not reveal:
            raise TypeMismatch("LOAD reveals its stored operands alone")
        return
    if constant and not n_stored:
        raise TypeMismatch("an inline constant needs a stored operand")
    if reveal and (op in COMPARISONS or destination is not None):
        raise TypeMismatch("only a value result without a destination is revealed")
    n = n_stored + int(constant)
    if op in BINARY_OPS:
        if n != 2:
            raise TypeMismatch(f"{OpKind(op).name} takes 2 operands, got {n}")
    elif not n:
        raise TypeMismatch(f"{OpKind(op).name} takes at least one operand")


def compare_values(op: OpKind, vtype: ValueType, values: list[bytes]) -> bool:
    if vtype == ValueType.INT64:
        a, b = decode_int64(values[0]), decode_int64(values[1])
    elif vtype == ValueType.FLOAT64:
        a, b = decode_float64(values[0]), decode_float64(values[1])
    else:
        a, b = values[0], values[1]
    if op == OpKind.CMP_LT:
        return a < b
    if op == OpKind.CMP_EQ:
        return a == b
    return a > b


def check_width(vtype: ValueType, value: bytes) -> bytes:
    """value, as a value of vtype: TypeMismatch unless it is 8 bytes for an
    int64 or float64."""
    if vtype != ValueType.BYTES and len(value) != 8:
        raise TypeMismatch(f"{vtype.name} value must be 8 bytes, got {len(value)}")
    return value


def compute_value(op: OpKind, vtype: ValueType, values: list[bytes]) -> bytes:
    if op == OpKind.STORE:  # the identity
        return check_width(vtype, values[0])
    if vtype == ValueType.INT64:
        return _compute_int(op, [decode_int64(v) for v in values])
    if vtype == ValueType.FLOAT64:
        return _compute_float(op, [decode_float64(v) for v in values])
    raise TypeMismatch(f"{OpKind(op).name} is not defined for raw bytes")


def _compute_int(op: OpKind, nums: list[int]) -> bytes:
    if op == OpKind.ADD:
        r = nums[0] + nums[1]
    elif op == OpKind.SUB:
        r = nums[0] - nums[1]
    elif op == OpKind.MUL:
        r = nums[0] * nums[1]
    elif op == OpKind.DIV:
        if nums[1] == 0:
            raise DivideByZero("integer division by zero")
        r = _trunc_div(nums[0], nums[1])
    elif op == OpKind.MOD:
        if nums[1] == 0:
            raise DivideByZero("integer modulo by zero")
        r = nums[0] - _trunc_div(nums[0], nums[1]) * nums[1]
    elif op == OpKind.SUM_AGG:
        r = sum(nums)
    elif op == OpKind.MIN_AGG:
        r = min(nums)
    elif op == OpKind.MAX_AGG:
        r = max(nums)
    elif op == OpKind.AVG_AGG:
        return encode_float64(sum(nums) / len(nums))
    else:
        raise TypeMismatch(f"unsupported op {op}")
    return encode_int64(r)


def _compute_float(op: OpKind, nums: list[float]) -> bytes:
    if op == OpKind.ADD:
        r = nums[0] + nums[1]
    elif op == OpKind.SUB:
        r = nums[0] - nums[1]
    elif op == OpKind.MUL:
        r = nums[0] * nums[1]
    elif op == OpKind.DIV:
        if nums[1] == 0.0:
            raise DivideByZero("float division by zero")
        r = nums[0] / nums[1]
    elif op == OpKind.SUM_AGG:
        r = sum(nums)
    elif op == OpKind.MIN_AGG:
        r = min(nums)
    elif op == OpKind.MAX_AGG:
        r = max(nums)
    elif op == OpKind.AVG_AGG:
        r = sum(nums) / len(nums)
    else:
        raise TypeMismatch(f"unsupported float op {op}")
    return encode_float64(r)


def require_permanent(store: MappingStore, fids: list[int]) -> None:
    """Raises TypeMismatch unless every FID is in a permanent partition."""
    if not all(map(store.in_permanent, fids)):
        raise TypeMismatch("a stored value result takes permanent operands only")


class FidSpace:
    """Operands are FIDs: load reads their secrets from the mapping store,
    save puts a result into its resolved destination partition."""

    def __init__(self, store: MappingStore, destination):
        self.store = store
        self.destination = destination

    def load(self, fids: list[int]) -> list[bytes]:
        get = self.store.get
        values = []
        for fid in fids:
            v = get(fid)
            if v is None:
                raise NotLive(f"operand fid {fid:#x} is not live")
            values.append(v)
        return values

    def save(self, query_id: int | None, destination: int | None, value: bytes) -> int:
        return self.store.put(self.destination(query_id, destination), value)


class EnvelopeSpace:
    """Operands are zone envelopes, the per-field AEAD baseline: load opens
    each one, save seals a result into a fresh one that the integrity zone
    stores, so no destination is resolved."""

    def __init__(self, codec: EnvelopeCodec):
        self.codec = codec

    def load(self, envelopes: list[bytes]) -> list[bytes]:
        decrypt = self.codec.decrypt
        return [decrypt(ClientEnvelope.from_bytes(e)) for e in envelopes]

    def save(self, query_id: int | None, destination: int | None, value: bytes) -> bytes:
        return self.codec.encrypt(value).to_bytes()


class PrivacyProxy:
    """Serves the untrusted engine: ingest/reveal at the client boundary,
    operator execution over an operand space (FIDs by default), one
    temporary partition per live query."""

    def __init__(self, store: MappingStore, client_key: bytes,
                 nonce_source=os.urandom):
        self.store = store
        self.client_codec = EnvelopeCodec(client_key, nonce_source)
        self._query_temps: dict[int, int] = {}
        # pid -> its allocation counter when a restore first named it
        self._restore_base: dict[int, int] = {}

    @property
    def fids(self) -> FidSpace:
        """The FID operand space. Built per use: kept on the proxy, its
        bound destination method would make a reference cycle that keeps a
        crashed zone's store alive until the cyclic collector runs."""
        return FidSpace(self.store, self.destination)

    # -- query-scoped temporaries ---------------------------------------

    def query_temp(self, query_id: int) -> int:
        pid = self._query_temps.get(query_id)
        if pid is None:
            pid = self.store.create_partition(PartitionKind.TEMPORARY)
            self._query_temps[query_id] = pid
        return pid

    def end_query(self, query_id: int) -> None:
        """Discard the query's intermediates; idempotent."""
        pid = self._query_temps.pop(query_id, None)
        if pid is None:
            return
        self.store.drop_temporary(pid)
        self.store.release_partition(pid)

    def destination(self, query_id: int | None, target: int | None) -> int:
        """The partition a query's ingest or operator result is written to:
        its own temporary partition for None or QUERY_TEMP_TARGET, which a
        request without a query id (None) cannot name (TypeMismatch), else
        the named partition, which must be permanent."""
        if target is None or target == QUERY_TEMP_TARGET:
            if query_id is None:
                raise TypeMismatch("a temporary written without a query id")
            return self.query_temp(query_id)
        if self.store.partition(target).kind != PartitionKind.PERMANENT:
            raise WrongPartitionKind(f"destination {target} is not a permanent partition")
        return target

    # -- client boundary --------------------------------------------------

    def ingest(self, envelopes: list[ClientEnvelope],
               target_partition: int) -> list[int]:
        """A fresh FID in target_partition per envelope, in order. Every
        envelope is authenticated before the first put, so one that fails
        stores nothing."""
        decrypt = self.client_codec.decrypt
        plaintexts = [decrypt(e) for e in envelopes]
        put = self.store.put
        return [put(target_partition, p) for p in plaintexts]

    def seal(self, values: list[bytes]) -> bytes:
        """One client envelope of n >= 1 values, in order (pack_values): a
        single encrypt, whatever n."""
        return self.client_codec.encrypt(pack_values(values)).to_bytes()

    def reveal(self, fids: list[int]) -> bytes:
        """One client envelope of the FIDs' values, in order: one LOAD
        element of raw bytes, sealed (seal). Every value is read before it
        is sealed, so a FID that is not live refuses the whole call with
        NotLive."""
        load = OperatorRequest(OpKind.LOAD, ValueType.BYTES, fids, reveal=True)
        return self.seal(self.exec_operator(load, None).revealed)

    # -- expression operators ----------------------------------------------

    def exec_operator(self, req: OperatorRequest, query_id: int | None,
                      space=None, open_constant=None) -> OperatorResponse:
        """Runs one element over space, the FID space if None. A FID
        result bound for a named (permanent) partition takes its operands
        from permanent partitions only, so recovery can re-run its recipe
        (MSG_RESTORE): TypeMismatch otherwise, once the destination is
        known to be permanent and before any operand is read. A revealed
        result, or a LOAD's operand values, come back as plaintexts
        (revealed), for exec_batch to seal. open_constant() gives the
        plaintext of req's inline constant, once its operands are read
        (exec_batch passes its run's, Constants); without it, req's envelope
        is opened as a run of one."""
        space = space or self.fids
        op = req.op
        operands = req.operand_fids
        check_operator(op, len(operands), req.has_constant, req.destination,
                       req.reveal)
        if (isinstance(space, FidSpace)
                and req.destination not in (None, QUERY_TEMP_TARGET)):
            self.destination(query_id, req.destination)  # WrongPartitionKind first
            require_permanent(self.store, operands)
        values = space.load(operands)
        if op == OpKind.LOAD:
            vtype = req.value_type
            return OperatorResponse(revealed=[check_width(vtype, v) for v in values])
        if req.has_constant:
            if open_constant is None:
                values.append(Constants(self.client_codec, [req]).value(0))
            else:
                values.append(open_constant())
        if op in COMPARISONS:
            return OperatorResponse(boolean=compare_values(op, req.value_type, values))
        result = compute_value(op, req.value_type, values)
        if req.reveal:
            return OperatorResponse(revealed=[result])
        return OperatorResponse(fid=space.save(query_id, req.destination, result))

    def exec_batch(self, reqs: list[OperatorRequest], query_id: int | None,
                   space=None) -> list[OperatorResponse]:
        """Sequential per-element execution over space (the FID space if
        None); element failures are reported positionally and never abort
        the rest of the batch. Each run's envelope is opened once, when its
        first element that gets that far needs its constant (Constants), so
        a bad envelope fails every element of its run. The revealed values
        of the elements that succeed are sealed once, together, in element
        order, after the last element has run (seal), and each of their
        responses holds that envelope."""
        constants = Constants(self.client_codec, reqs)
        out = []
        for i, req in enumerate(reqs):
            try:
                out.append(self.exec_operator(req, query_id, space,
                                              lambda i=i: constants.value(i)))
            except Exception as exc:
                code = getattr(exc, "code", 0)
                if not code:
                    raise
                out.append(OperatorResponse(error_code=code))
        values = [v for r in out if r.revealed is not None for v in r.revealed]
        if not values:
            return out
        envelope = self.seal(values)
        return [r if r.revealed is None else OperatorResponse(envelope=envelope)
                for r in out]

    # -- recovery ------------------------------------------------------------

    def restore(self, items: list[tuple[int, object]]) -> int:
        """Re-runs the recipes of writes a crash lost, each into exactly its
        FID (MSG_RESTORE). A recipe is the ClientEnvelope an ingest stored,
        or the OperatorRequest whose value result went to the FID's
        partition; the OperatorRequests, in order, make runs as a batch's
        elements do (Constants), each run's envelope opened once.

        Every item is checked before the first is stored: its FID must be in
        a permanent partition, at an offset below the partition's recovered
        allocation counter plus wal.MAX_UNSYNCED_PUTS, its element a value
        op that names that partition as its destination, over permanent
        operands, and every envelope must authenticate. The offset bound
        holds because fewer than that many puts come between two privacy
        checkpoints (the put that reaches it checkpoints), so a crash loses
        fewer allocations; it keeps a restore from growing a partition past
        what it could have held before the crash.
        The recovered counter is the one a partition has when a restore
        first names it, since the recovery window admits no other write. A
        FID that is already live is skipped before any operand is read;
        any other gets its value computed and put at exactly that FID
        (MappingStore.restore). Returns how many FIDs it wrote. A recipe
        whose computation fails raises after the items before it are
        stored."""
        decrypt = self.client_codec.decrypt
        store = self.store
        reqs = [recipe for _, recipe in items if isinstance(recipe, OperatorRequest)]
        constants = Constants(self.client_codec, reqs)
        n_reqs = 0
        work = []
        for fid, recipe in items:
            pid = fid >> OFFSET_BITS
            self.destination(None, pid)  # raises unless pid is a permanent partition
            base = self._restore_base.setdefault(pid, store.partition(pid).alloc_counter)
            if fid & OFFSET_MASK >= base + wal.MAX_UNSYNCED_PUTS:
                raise TypeMismatch(f"fid {fid:#x} lies past every offset a crash "
                                   "could have lost")
            if isinstance(recipe, OperatorRequest):
                if recipe.op in COMPARISONS or recipe.destination != pid:
                    raise TypeMismatch("a restored FID comes from a value op that "
                                       "names its partition")
                check_operator(recipe.op, len(recipe.operand_fids),
                               recipe.has_constant, pid, recipe.reveal)
                require_permanent(self.store, recipe.operand_fids)
                constant = constants.value(n_reqs) if recipe.has_constant else None
                n_reqs += 1
                work.append((fid, recipe, constant))
            else:
                work.append((fid, None, decrypt(recipe)))
        written = 0
        for fid, req, value in work:
            if store.is_live(fid):
                continue
            if req is not None:
                values = self.fids.load(req.operand_fids)
                if value is not None:
                    values.append(value)
                value = compute_value(req.op, req.value_type, values)
            store.restore(fid, value)
            written += 1
        return written
