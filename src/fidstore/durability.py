"""Durability primitives with an explicit synced/unsynced boundary.

The simulator's crash model is synced-only: bytes survive a crash iff a
sync completed for them, except that a crash injected at a sync may
persist a prefix of the bytes being synced (a torn write). Both primitives
work purely in memory or mirrored to real files.

Each durable write, a sync with bytes pending, a replace, a put_atomic and
a delete that removes a snapshot, first calls the primitive's hook, if one
is set, as hook(method, name, data): the method's name, the snapshot's name
(None for a journal) and the bytes it writes. That is where a crash
schedule crashes a zone just before a write (zone_sim); with no hook set a
write pays one attribute test.

Failures are fail-stop: an OSError from a durable write stops the zone
that made it, and crash recovery takes over. Nothing retries the write
(the kernel may have dropped the pages of a failed fsync) or retracts it.
Each primitive updates its in-memory copy only once the file operation
returns, and a crash cuts a journal file back to that copy, so memory and
disk never diverge.
"""

from __future__ import annotations

import os
import tempfile

_TMP_PREFIX = ".tmp-"


class DurableBuffer:
    """Append-only byte log split into durable and pending regions."""

    def __init__(self, path: str | None = None):
        self.path = path
        self._durable = bytearray()
        self._pending = bytearray()
        self.hook = None
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                self._durable = bytearray(fh.read())

    @property
    def durable(self) -> bytes:
        return bytes(self._durable)

    @property
    def durable_len(self) -> int:
        return len(self._durable)

    @property
    def pending_len(self) -> int:
        return len(self._pending)

    def append(self, data: bytes) -> None:
        self._pending += data

    def sync(self) -> int:
        """Move all pending bytes into the durable region; returns new length."""
        if self._pending:
            if self.hook is not None:
                self.hook("sync", None, self._pending)
            if self.path is not None:
                with open(self.path, "ab") as fh:
                    fh.write(self._pending)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._durable += self._pending
            self._pending.clear()
        return len(self._durable)

    def crash(self, torn_bytes: int = 0) -> None:
        """Discard unsynced state, optionally keeping a torn prefix of it; the
        file loses whatever a failed sync wrote."""
        kept = self._pending[:max(torn_bytes, 0)]
        self._pending.clear()
        if self.path is not None:
            with open(self.path, "ab") as fh:
                fh.truncate(len(self._durable))
                fh.write(kept)
        self._durable += kept

    def replace(self, data: bytes) -> None:
        """Atomically swap the entire durable content (log truncation);
        pending bytes stay pending."""
        if self.hook is not None:
            self.hook("replace", None, data)
        if self.path is not None:
            atomic_write(self.path, data)
        self._durable = bytearray(data)


class SnapshotStore:
    """Named blobs with atomic whole-object replacement.

    A put is durable when it returns (write-to-temp + rename semantics), so
    snapshots written before a crash always read back intact. A directory
    holds snapshots only: reopening it skips the temporary files an
    interrupted put leaves behind.
    """

    def __init__(self, dirpath: str | None = None):
        self.dirpath = dirpath
        self._blobs = read_dir(dirpath) if dirpath is not None else {}
        self.hook = None

    def put_atomic(self, name: str, data: bytes) -> None:
        if self.hook is not None:
            self.hook("put_atomic", name, data)
        if self.dirpath is not None:
            atomic_write(os.path.join(self.dirpath, name), data)
        self._blobs[name] = bytes(data)

    def get(self, name: str) -> bytes | None:
        return self._blobs.get(name)

    def delete(self, name: str) -> None:
        """Removes a snapshot; a name it does not hold is a no-op."""
        if name not in self._blobs:
            return
        if self.hook is not None:
            self.hook("delete", name, b"")
        if self.dirpath is not None:
            os.remove(os.path.join(self.dirpath, name))
        del self._blobs[name]

    def names(self) -> list[str]:
        return sorted(self._blobs)


def read_dir(dirpath: str) -> dict[str, bytes]:
    """Every file of directory dirpath, made if missing, by name, less the
    temporary files an interrupted atomic_write leaves behind."""
    os.makedirs(dirpath, exist_ok=True)
    out = {}
    for name in os.listdir(dirpath):
        if name.startswith(_TMP_PREFIX):
            continue  # an interrupted atomic_write
        with open(os.path.join(dirpath, name), "rb") as fh:
            out[name] = fh.read()
    return out


def atomic_write(path: str, data: bytes) -> None:
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=_TMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise
