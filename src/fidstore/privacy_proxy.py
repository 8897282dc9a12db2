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
result, which then leaves as a client envelope. Neither the constant nor
a revealed result is ever stored: each costs the one decrypt or encrypt
an ingest or reveal of it would. STORE is the one op whose constant is
its only operand: its value result is the constant's value, so a STORE
with a destination writes a client's value into a table's partition as an
ingest would, inside an operator batch. That lets a transaction's writes,
an ADD over the old value or a STORE of a new one, all travel in the one
batch its commit sends (integrity_dbms).

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
    used as the last operand, after the stored ones. reveal: return the
    value result as a client envelope instead of storing it."""

    op: OpKind
    value_type: ValueType
    operand_fids: list[int]
    destination: int | None = None
    constant: bytes | None = None
    reveal: bool = False


@dataclass
class OperatorResponse:
    """Exactly one of fid / boolean / envelope / error_code is meaningful.
    fid holds a stored value result: a FID or, on the cipher path, a zone
    envelope. envelope holds a revealed result."""

    fid: int | None = None
    boolean: bool | None = None
    error_code: int = 0
    envelope: bytes | None = None


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
    store its value."""
    if op == OpKind.STORE:
        if n_stored or not constant or reveal:
            raise TypeMismatch("STORE takes an inline constant alone and stores it")
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


def compute_value(op: OpKind, vtype: ValueType, values: list[bytes]) -> bytes:
    if op == OpKind.STORE:  # the identity; an int64 or float64 is 8 bytes
        if vtype != ValueType.BYTES and len(values[0]) != 8:
            raise TypeMismatch(f"{vtype.name} value must be 8 bytes, got "
                               f"{len(values[0])}")
        return values[0]
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

    def reveal(self, fid: int) -> ClientEnvelope:
        value = self.store.get(fid)
        if value is None:
            raise NotLive(f"fid {fid:#x} is not live")
        return self.client_codec.encrypt(value)

    # -- expression operators ----------------------------------------------

    def exec_operator(self, req: OperatorRequest, query_id: int | None,
                      space=None) -> OperatorResponse:
        """Runs one element over space, the FID space if None. A FID
        result bound for a named (permanent) partition takes its operands
        from permanent partitions only, so recovery can re-run its recipe
        (MSG_RESTORE): TypeMismatch otherwise, once the destination is
        known to be permanent and before any operand is read."""
        space = space or self.fids
        op = req.op
        operands = req.operand_fids
        check_operator(op, len(operands), req.constant is not None,
                       req.destination, req.reveal)
        if (isinstance(space, FidSpace)
                and req.destination not in (None, QUERY_TEMP_TARGET)):
            self.destination(query_id, req.destination)  # WrongPartitionKind first
            require_permanent(self.store, operands)
        values = space.load(operands)
        if req.constant is not None:
            values.append(self.client_codec.decrypt(
                ClientEnvelope.from_bytes(req.constant)))
        if op in COMPARISONS:
            return OperatorResponse(boolean=compare_values(op, req.value_type, values))
        result = compute_value(op, req.value_type, values)
        if req.reveal:
            return OperatorResponse(
                envelope=self.client_codec.encrypt(result).to_bytes())
        return OperatorResponse(fid=space.save(query_id, req.destination, result))

    def exec_batch(self, reqs: list[OperatorRequest], query_id: int | None,
                   space=None) -> list[OperatorResponse]:
        """Sequential per-element execution over space (the FID space if
        None); element failures are reported positionally and never abort
        the rest of the batch."""
        out = []
        for req in reqs:
            try:
                out.append(self.exec_operator(req, query_id, space))
            except Exception as exc:
                code = getattr(exc, "code", 0)
                if not code:
                    raise
                out.append(OperatorResponse(error_code=code))
        return out

    # -- recovery ------------------------------------------------------------

    def restore(self, items: list[tuple[int, object]]) -> None:
        """Re-runs the recipes of writes a crash lost, each into exactly its
        FID (MSG_RESTORE). A recipe is the ClientEnvelope an ingest stored,
        or the OperatorRequest whose value result went to the FID's
        partition.

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
        (MappingStore.restore). A recipe whose computation fails raises
        after the items before it are stored."""
        decrypt = self.client_codec.decrypt
        store = self.store
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
                               recipe.constant is not None, pid, recipe.reveal)
                require_permanent(self.store, recipe.operand_fids)
                constant = (None if recipe.constant is None else
                            decrypt(ClientEnvelope.from_bytes(recipe.constant)))
                work.append((fid, recipe, constant))
            else:
                work.append((fid, None, decrypt(recipe)))
        for fid, req, value in work:
            if store.is_live(fid):
                continue
            if req is not None:
                values = self.fids.load(req.operand_fids)
                if value is not None:
                    values.append(value)
                value = compute_value(req.op, req.value_type, values)
            store.restore(fid, value)
