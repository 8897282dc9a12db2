"""Cross-zone wire protocol: {u8 msg_kind, u64 query_id, payload}.

Everything the integrity zone needs from the privacy zone travels through
these messages; there is no other channel. FIDs are 8-byte little-endian,
booleans one byte. Responses start with a status byte (0 = ok, otherwise
an error code from errors.py).

The ciphertext-scheme baseline used for benchmarking speaks the same
protocol with its own message kinds: operands are AEAD envelopes instead
of FIDs and every operator call pays decrypt-compute-encrypt.
"""

from __future__ import annotations

import struct

from .errors import FidStoreError, UnknownPartition, error_for_code
from .privacy_proxy import (
    COMPARISONS,
    EnvelopeCodec,
    ClientEnvelope,
    OperatorRequest,
    OperatorResponse,
    OpKind,
    ValueType,
    compare_values,
    compute_value,
)

HEADER = struct.Struct("<BQ")

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
MSG_CIPHER_EXEC = 20
MSG_CIPHER_INGEST = 21
MSG_CIPHER_REVEAL = 22

QUERY_TEMP_TARGET = 0xFFFFFFFF

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_OP_HEAD = struct.Struct("<BBH")


def _req(kind: int, query_id: int, payload: bytes = b"") -> bytes:
    return HEADER.pack(kind, query_id) + payload


def _blob(data: bytes) -> bytes:
    return _U32.pack(len(data)) + data


def _read_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    return data[pos:pos + n], pos + n


def _read_u64(data: bytes, pos: int) -> tuple[int, int]:
    return _U64.unpack_from(data, pos)[0], pos + 8


def _read_ops(payload: bytes, read_operand) -> list[tuple[int, int, list]]:
    """Decode an operator batch {u16 n, n x (u8 op, u8 type, u16 argc,
    operands)} into raw (op, type, operands) triples."""
    (n,) = struct.unpack_from("<H", payload, 0)
    pos = 2
    ops = []
    for _ in range(n):
        op, vtype, argc = _OP_HEAD.unpack_from(payload, pos)
        pos += _OP_HEAD.size
        operands = []
        for _ in range(argc):
            operand, pos = read_operand(payload, pos)
            operands.append(operand)
        ops.append((op, vtype, operands))
    return ops


def _encode_element(error: int = 0, flag: bool | None = None,
                    value: bytes = b"") -> bytes:
    """One operator-batch response element: an error status byte alone, or
    status 0 then result kind 1 and a boolean byte, or kind 0 and a value."""
    if error:
        return _U8.pack(error)
    if flag is not None:
        return b"\x00\x01" + _U8.pack(1 if flag else 0)
    return b"\x00\x00" + value


class ProxyClient:
    """Integrity-side stub: serializes calls, records the adversary view.

    Each method is one round trip except exec_batch and cipher_exec, which
    split their requests into ceil(n / batch_size) messages.
    """

    def __init__(self, channel, trace=None):
        self.channel = channel
        self.trace = trace
        self.promote_calls = 0

    # -- plumbing -------------------------------------------------------

    def _call(self, kind: int, query_id: int, payload: bytes) -> bytes:
        raw = self.channel.request(_req(kind, query_id, payload))
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

    def _batch(self, kind: int, query_id: int, reqs: list, batch_size: int,
               write_operand, read_result) -> list[tuple]:
        """The operator-batch codec shared by the FID and envelope paths:
        (op, type, operands) requests go out in ceil(n / batch_size)
        messages; returns (result, boolean, error_code) per request."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        out = []
        for lo in range(0, len(reqs), batch_size):
            chunk = reqs[lo:lo + batch_size]
            payload = [struct.pack("<H", len(chunk))]
            for op, vtype, operands in chunk:
                payload.append(_OP_HEAD.pack(int(op), int(vtype), len(operands)))
                payload.extend(write_operand(x) for x in operands)
            body = self._call(kind, query_id, b"".join(payload))
            (n,) = struct.unpack_from("<H", body, 0)
            pos = 2
            for _ in range(n):
                status = body[pos]
                pos += 1
                if status != 0:
                    out.append((None, None, status))
                    continue
                result_kind = body[pos]
                pos += 1
                if result_kind == 0:
                    result, pos = read_result(body, pos)
                    out.append((result, None, 0))
                else:
                    flag = bool(body[pos])
                    pos += 1
                    if self.trace is not None:
                        self.trace.cmp_bool(flag)
                    out.append((None, flag, 0))
        return out

    # -- client data path -------------------------------------------------

    def ingest(self, query_id: int, envelope: bytes,
               target: int = QUERY_TEMP_TARGET) -> int:
        body = self._call(MSG_INGEST, query_id, _U32.pack(target) + _blob(envelope))
        (fid,) = _U64.unpack(body)
        self._observe_fid(fid)
        return fid

    def reveal(self, query_id: int, fid: int) -> bytes:
        self._observe_fid(fid)
        body = self._call(MSG_REVEAL, query_id, _U64.pack(fid))
        env, _ = _read_blob(body, 0)
        return env

    def exec_batch(self, query_id: int, reqs: list[OperatorRequest],
                   batch_size: int) -> list[OperatorResponse]:
        triples = [(r.op, r.value_type, r.operand_fids) for r in reqs]
        out = self._batch(MSG_EXEC_BATCH, query_id, triples, batch_size,
                          self._write_fid, self._read_fid)
        return [OperatorResponse(fid, flag, code) for fid, flag, code in out]

    def exec_operator(self, query_id: int, req: OperatorRequest) -> OperatorResponse:
        resp = self.exec_batch(query_id, [req], 1)[0]
        if resp.error_code:
            raise error_for_code(resp.error_code, f"operator {req.op} failed")
        return resp

    def end_query(self, query_id: int) -> None:
        self._call(MSG_END_QUERY, query_id, b"")

    # -- write path / maintenance ------------------------------------------

    def promote(self, temp_fid: int, perm_partition: int) -> int:
        self._observe_fid(temp_fid)
        body = self._call(MSG_PROMOTE, 0,
                          _U64.pack(temp_fid) + _U32.pack(perm_partition))
        (fid,) = _U64.unpack(body)
        self._observe_fid(fid)
        self.promote_calls += 1
        return fid

    def delete(self, fid: int) -> None:
        self._observe_fid(fid)
        self._call(MSG_DELETE, 0, _U64.pack(fid))

    def flush_log(self) -> int:
        body = self._call(MSG_FLUSH_LOG, 0, b"")
        return _U64.unpack(body)[0]

    def create_partition(self, kind: int, layout: int, width: int = 0) -> int:
        body = self._call(MSG_CREATE_PARTITION, 0,
                          struct.pack("<BBI", kind, layout, width))
        return _U32.unpack(body)[0]

    def prefetch(self, partition_id: int) -> None:
        self._call(MSG_PREFETCH, 0, _U32.pack(partition_id))

    def is_live(self, fid: int) -> bool:
        body = self._call(MSG_IS_LIVE, 0, _U64.pack(fid))
        return bool(body[0])

    def list_live(self, partition_id: int) -> list[int]:
        body = self._call(MSG_LIST_LIVE, 0, _U32.pack(partition_id))
        (n,) = _U32.unpack_from(body, 0)
        return [_U64.unpack_from(body, 4 + 8 * i)[0] for i in range(n)]

    # -- ciphertext-scheme baseline ------------------------------------------

    def cipher_ingest(self, query_id: int, client_envelope: bytes) -> bytes:
        body = self._call(MSG_CIPHER_INGEST, query_id, _blob(client_envelope))
        env, _ = _read_blob(body, 0)
        return env

    def cipher_reveal(self, query_id: int, zone_envelope: bytes) -> bytes:
        body = self._call(MSG_CIPHER_REVEAL, query_id, _blob(zone_envelope))
        env, _ = _read_blob(body, 0)
        return env

    def cipher_exec(self, query_id: int, reqs: list[tuple[OpKind, ValueType, list[bytes]]],
                    batch_size: int) -> list[tuple[bytes | None, bool | None, int]]:
        """Operator batch over envelope operands; returns
        (result_envelope, boolean, error_code) per element."""
        return self._batch(MSG_CIPHER_EXEC, query_id, reqs, batch_size,
                           _blob, _read_blob)


class PrivacyDispatcher:
    """Privacy-side request handler: one function per message kind."""

    def __init__(self, proxy, wal=None, atrest=None, zone_codec: EnvelopeCodec | None = None):
        self.proxy = proxy
        self.wal = wal
        self.atrest = atrest
        self.zone_codec = zone_codec

    def handle(self, raw: bytes) -> bytes:
        kind, query_id = HEADER.unpack_from(raw, 0)
        payload = raw[HEADER.size:]
        try:
            body = self._dispatch(kind, query_id, payload)
            return b"\x00" + body
        except FidStoreError as exc:
            return _U8.pack(exc.code or 255)

    def _dispatch(self, kind: int, query_id: int, payload: bytes) -> bytes:
        proxy = self.proxy
        store = proxy.store
        if kind == MSG_INGEST:
            (target,) = _U32.unpack_from(payload, 0)
            env, _ = _read_blob(payload, 4)
            if target == QUERY_TEMP_TARGET:
                target = proxy.query_temp(query_id)
            fid = proxy.ingest(ClientEnvelope.from_bytes(env), target)
            return _U64.pack(fid)
        if kind == MSG_REVEAL:
            (fid,) = _U64.unpack(payload)
            return _blob(proxy.reveal(fid).to_bytes())
        if kind == MSG_EXEC_BATCH:
            reqs = [OperatorRequest(OpKind(op), ValueType(vtype), fids)
                    for op, vtype, fids in _read_ops(payload, _read_u64)]
            out = [struct.pack("<H", len(reqs))]
            for resp in proxy.exec_batch(reqs, query_id):
                fid = b"" if resp.fid is None else _U64.pack(resp.fid)
                out.append(_encode_element(resp.error_code, resp.boolean, fid))
            return b"".join(out)
        if kind == MSG_END_QUERY:
            proxy.end_query(query_id)
            return b""
        if kind == MSG_PROMOTE:
            (fid,) = _U64.unpack_from(payload, 0)
            (perm,) = _U32.unpack_from(payload, 8)
            return _U64.pack(store.promote(fid, perm))
        if kind == MSG_DELETE:
            (fid,) = _U64.unpack(payload)
            store.delete(fid)
            return b""
        if kind == MSG_FLUSH_LOG:
            lsn = self.wal.flush() if self.wal is not None else 0
            return _U64.pack(lsn)
        if kind == MSG_CREATE_PARTITION:
            pkind, layout, width = struct.unpack("<BBI", payload)
            pid = store.create_partition(pkind, layout, width or None)
            return _U32.pack(pid)
        if kind == MSG_PREFETCH:
            (pid,) = _U32.unpack(payload)
            if self.atrest is not None:
                self.atrest.prefetch_partition(pid)
            elif not store.has_partition(pid):
                raise UnknownPartition(f"no partition {pid}")
            return b""
        if kind == MSG_IS_LIVE:
            (fid,) = _U64.unpack(payload)
            return _U8.pack(1 if store.is_live(fid) else 0)
        if kind == MSG_LIST_LIVE:
            (pid,) = _U32.unpack(payload)
            fids = store.live_fids(pid)
            return _U32.pack(len(fids)) + b"".join(_U64.pack(f) for f in fids)
        if kind == MSG_CIPHER_INGEST:
            env, _ = _read_blob(payload, 0)
            plaintext = proxy.client_codec.decrypt(ClientEnvelope.from_bytes(env))
            return _blob(self.zone_codec.encrypt(plaintext).to_bytes())
        if kind == MSG_CIPHER_REVEAL:
            env, _ = _read_blob(payload, 0)
            plaintext = self.zone_codec.decrypt(ClientEnvelope.from_bytes(env))
            return _blob(proxy.client_codec.encrypt(plaintext).to_bytes())
        if kind == MSG_CIPHER_EXEC:
            return self._cipher_exec(payload)
        raise FidStoreError(f"unknown message kind {kind}")

    def _cipher_exec(self, payload: bytes) -> bytes:
        ops = _read_ops(payload, _read_blob)
        out = [struct.pack("<H", len(ops))]
        for op, vtype, envs in ops:
            try:
                values = [self.zone_codec.decrypt(ClientEnvelope.from_bytes(e))
                          for e in envs]
                op = OpKind(op)
                if op in COMPARISONS:
                    out.append(_encode_element(
                        flag=compare_values(op, ValueType(vtype), values)))
                else:
                    result = compute_value(op, ValueType(vtype), values)
                    sealed = self.zone_codec.encrypt(result).to_bytes()
                    out.append(_encode_element(value=_blob(sealed)))
            except FidStoreError as exc:
                out.append(_encode_element(exc.code or 255))
        return b"".join(out)
