"""Trusted-side entry point: translates field identifiers to secrets,
runs plaintext expression operators, and handles the client encryption
boundary.

The operator path is exactly fetch-compute-store: Get() each operand,
compute in plaintext, Put() the result into the calling query's temporary
partition. Comparisons are the one exception and return a plaintext
boolean, mirroring how production systems index and filter. Nothing in
this module ever hands plaintext to the untrusted side: results leave
either as a fresh FID or inside an authenticated client envelope.
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
)
from .mapping_store import MappingStore, PartitionKind, ValueLayout

NONCE_LEN = 12
TAG_LEN = 16
ENVELOPE_OVERHEAD = NONCE_LEN + TAG_LEN  # 28 bytes over the plaintext

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_F64 = struct.Struct("<d")


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


COMPARISONS = frozenset({OpKind.CMP_LT, OpKind.CMP_EQ, OpKind.CMP_GT})
BINARY_OPS = frozenset({OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
                        OpKind.CMP_LT, OpKind.CMP_EQ, OpKind.CMP_GT})


class ValueType(IntEnum):
    INT64 = 1
    FLOAT64 = 2
    BYTES = 3


@dataclass
class OperatorRequest:
    op: OpKind
    value_type: ValueType
    operand_fids: list[int]


@dataclass
class OperatorResponse:
    """Exactly one of fid / boolean / error_code is meaningful."""

    fid: int | None = None
    boolean: bool | None = None
    error_code: int = 0


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


class PrivacyProxy:
    """Serves the untrusted engine: ingest/reveal at the client boundary,
    operator execution over FIDs, one temporary partition per live query."""

    def __init__(self, store: MappingStore, client_key: bytes,
                 nonce_source=os.urandom):
        self.store = store
        self.client_codec = EnvelopeCodec(client_key, nonce_source)
        self._query_temps: dict[int, int] = {}

    # -- query-scoped temporaries ---------------------------------------

    def query_temp(self, query_id: int) -> int:
        pid = self._query_temps.get(query_id)
        if pid is None:
            pid = self.store.create_partition(PartitionKind.TEMPORARY,
                                              ValueLayout.VARLEN)
            self._query_temps[query_id] = pid
        return pid

    def end_query(self, query_id: int) -> None:
        """Discard the query's intermediates; idempotent."""
        pid = self._query_temps.pop(query_id, None)
        if pid is None:
            return
        self.store.drop_temporary(pid)
        self.store.release_partition(pid)

    # -- client boundary --------------------------------------------------

    def ingest(self, envelope: ClientEnvelope, target_partition: int) -> int:
        plaintext = self.client_codec.decrypt(envelope)
        return self.store.put(target_partition, plaintext)

    def reveal(self, fid: int) -> ClientEnvelope:
        value = self.store.get(fid)
        if value is None:
            raise NotLive(f"fid {fid:#x} is not live")
        return self.client_codec.encrypt(value)

    # -- expression operators ----------------------------------------------

    def exec_operator(self, req: OperatorRequest, query_id: int) -> OperatorResponse:
        op = req.op
        fids = req.operand_fids
        if op in BINARY_OPS:
            if len(fids) != 2:
                raise TypeMismatch(f"{OpKind(op).name} takes 2 operands, got {len(fids)}")
        elif not fids:
            raise TypeMismatch(f"{OpKind(op).name} takes at least one operand")
        values = []
        get = self.store.get
        for fid in fids:
            v = get(fid)
            if v is None:
                raise NotLive(f"operand fid {fid:#x} is not live")
            values.append(v)
        if op in COMPARISONS:
            return OperatorResponse(boolean=compare_values(op, req.value_type, values))
        result = compute_value(op, req.value_type, values)
        out_fid = self.store.put(self.query_temp(query_id), result)
        return OperatorResponse(fid=out_fid)

    def exec_batch(self, reqs: list[OperatorRequest], query_id: int) -> list[OperatorResponse]:
        """Sequential per-element execution; element failures are reported
        positionally and never abort the rest of the batch."""
        out = []
        for req in reqs:
            try:
                out.append(self.exec_operator(req, query_id))
            except Exception as exc:
                code = getattr(exc, "code", 0)
                if not code:
                    raise
                out.append(OperatorResponse(error_code=code))
        return out
