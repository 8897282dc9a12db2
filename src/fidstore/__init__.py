"""Crypto-free field-identifier mapping store with a dual-zone
confidential-database simulator around it."""

from .errors import FidStoreError
from .fid_codec import decode_fid, encode_fid
from .mapping_store import MappingStore, PartitionKind

__all__ = [
    "FidStoreError",
    "encode_fid",
    "decode_fid",
    "MappingStore",
    "PartitionKind",
]
