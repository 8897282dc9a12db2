"""64-bit field identifiers: a 16-bit partition prefix in the high bits
over a 48-bit offset, allocated in order, in the low bits.

A FID is a plain int. Its value is a pure function of (partition,
allocation order) and never of the stored bytes, so observing FIDs reveals
nothing about the secrets they name.

The layout is fixed, and these constants are its one definition: the
mapping store splits a FID into (partition, offset) with them, and
FidBackend reads a FID's partition from its high bits. A partition's slot
map (its checkpoint image) records PREFIX_BITS, and a map with another width
is refused on load.
"""

from __future__ import annotations

from .errors import OutOfRange

FID_BITS = 64
PREFIX_BITS = 16
OFFSET_BITS = FID_BITS - PREFIX_BITS
OFFSET_MASK = (1 << OFFSET_BITS) - 1
MAX_PARTITIONS = 1 << PREFIX_BITS
MAX_OFFSET = 1 << OFFSET_BITS


def encode_fid(partition: int, offset: int) -> int:
    """Compose a FID from a partition number and an in-partition offset."""
    if not 0 <= partition < MAX_PARTITIONS:
        raise OutOfRange(f"partition {partition} does not fit in {PREFIX_BITS} bits")
    if not 0 <= offset < MAX_OFFSET:
        raise OutOfRange(f"offset {offset} does not fit in {OFFSET_BITS} bits")
    return (partition << OFFSET_BITS) | offset


def decode_fid(fid: int) -> tuple[int, int]:
    """Inverse of encode_fid; any 64-bit value decodes."""
    return fid >> OFFSET_BITS, fid & OFFSET_MASK
