"""Exception hierarchy shared by all components, with stable wire codes.

Codes 4, 9 and 10 are retired, never reused: a width mismatch, a closed
log and a failed durable write (which now stops its zone; see durability).
"""

from __future__ import annotations


class FidStoreError(Exception):
    """Base class; `code` identifies the error across the zone boundary."""

    code = 0


class OutOfRange(FidStoreError):
    code = 1


class UnknownPartition(FidStoreError):
    code = 2


class ValueTooLarge(FidStoreError):
    code = 3


class PartitionFull(FidStoreError):
    code = 5


class PartitionSpaceExhausted(FidStoreError):
    code = 6


class NotLive(FidStoreError):
    code = 7


class WrongPartitionKind(FidStoreError):
    code = 8


class CorruptLog(FidStoreError):
    code = 11


class AuthFailure(FidStoreError):
    code = 12


class StaleBlock(FidStoreError):
    code = 13


class TypeMismatch(FidStoreError):
    code = 14


class DivideByZero(FidStoreError):
    code = 15


class Overflow(FidStoreError):
    code = 16


class SchemaMismatch(FidStoreError):
    code = 17


class RowNotVisible(FidStoreError):
    code = 18


class WriteConflict(FidStoreError):
    code = 19


class Unavailable(FidStoreError):
    """A request was issued to a crashed zone (RPC timeout analog)."""

    code = 20


class NoCrashPending(FidStoreError):
    code = 21


class StructureMismatch(FidStoreError):
    code = 22


_BY_CODE = {
    cls.code: cls
    for cls in list(globals().values())
    if isinstance(cls, type) and issubclass(cls, FidStoreError) and cls.code
}


def error_for_code(code: int, message: str = "") -> FidStoreError:
    """Rebuild the typed exception for an error code received off the wire."""
    cls = _BY_CODE.get(code, FidStoreError)
    return cls(message)
