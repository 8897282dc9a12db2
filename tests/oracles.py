"""Independent brute-force reference models used by the test suite.

These are deliberately naive (plain dicts, list scans) and share no code
with the implementations they check: the WAL frame reader here parses the
bytes itself, and the shadow engine implements snapshot isolation from the
textbook rules. Any divergence from the system under test is a test
failure to be investigated, never papered over.
"""

from __future__ import annotations

import struct
import zlib


class ModelStore:
    """Associative-map model of the mapping store with the same lifetime
    rules: per-partition monotonic offsets, LIFO free-list reuse,
    temporary/permanent classes."""

    TEMPORARY = 0
    PERMANENT = 1

    def __init__(self, prefix_bits: int = 16):
        self.offset_bits = 64 - prefix_bits
        self.parts: dict[int, dict] = {}
        self.next_pid = 0

    def create_partition(self, kind: int) -> int:
        pid = 0
        while pid in self.parts:
            pid += 1
        self.parts[pid] = {"kind": kind, "mapping": {}, "free": [], "counter": 0}
        return pid

    def put(self, pid: int, value: bytes) -> int:
        p = self.parts[pid]
        if p["free"]:
            off = p["free"].pop()
        else:
            off = p["counter"]
            p["counter"] += 1
        p["mapping"][off] = value
        return (pid << self.offset_bits) | off

    def get(self, fid: int) -> bytes | None:
        p = self.parts.get(fid >> self.offset_bits)
        if p is None:
            return None
        return p["mapping"].get(fid & ((1 << self.offset_bits) - 1))

    def delete(self, fid: int) -> bool:
        p = self.parts.get(fid >> self.offset_bits)
        off = fid & ((1 << self.offset_bits) - 1)
        if p is None or off not in p["mapping"]:
            return False
        del p["mapping"][off]
        p["free"].append(off)
        return True

    def promote(self, temp_fid: int, perm_pid: int) -> int | None:
        value = self.get(temp_fid)
        if value is None:
            return None
        return self.put(perm_pid, value)

    def drop_temporary(self, pid: int) -> int:
        p = self.parts[pid]
        n = len(p["mapping"])
        p["mapping"].clear()
        p["free"].clear()
        p["counter"] = 0
        return n

    def live_fids(self, pid: int) -> set[int]:
        p = self.parts[pid]
        return {(pid << self.offset_bits) | off for off in p["mapping"]}


def read_wal_frames(data: bytes) -> list[bytes]:
    """Independent reimplementation of the {len, crc32, body} framing."""
    out = []
    pos = 0
    while pos + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, pos)
        end = pos + 8 + length
        if end > len(data):
            break
        body = data[pos + 8:end]
        if zlib.crc32(body) != crc:
            break
        out.append(body)
        pos = end
    return out


def replay_store_records(data: bytes, image: dict[int, bytes]) -> dict[int, bytes]:
    """Prefix-replay model: apply the durable delete records to a copy of
    image, the fid -> value mapping of the last checkpoint, returning fid ->
    value for every live mapping. No record carries a value."""
    mapping = dict(image)
    for body in read_wal_frames(data):
        lsn, kind = struct.unpack_from("<QB", body, 0)
        if kind == 2:  # delete
            (fid,) = struct.unpack_from("<Q", body, 9)
            mapping.pop(fid, None)
        # create records carry no mapping state
    return mapping


class ShadowDb:
    """Plaintext shadow engine: same snapshot-isolation and
    first-updater-wins semantics over plain Python values."""

    def __init__(self):
        self.tables: dict[int, dict] = {}
        self.committed: dict[int, int] = {}
        self.next_commit_seq = 1

    def create_table(self, index: int) -> None:
        self.tables[index] = {"rows": {}, "next_row_id": 1}

    def begin(self, txn_id: int) -> dict:
        return {"id": txn_id, "snapshot": self.next_commit_seq - 1,
                "undo": [], "alive": True}

    def _visible(self, version: dict, txn: dict) -> bool:
        b = version["begin"]
        if b != txn["id"]:
            cs = self.committed.get(b)
            if cs is None or cs > txn["snapshot"]:
                return False
        e = version["end"]
        if e is None:
            return True
        if e == txn["id"]:
            return False
        cs = self.committed.get(e)
        return cs is None or cs > txn["snapshot"]

    def visible_cells(self, table: int, row_id: int, txn: dict) -> list | None:
        chain = self.tables[table]["rows"].get(row_id)
        if not chain:
            return None
        for version in reversed(chain):
            if self._visible(version, txn):
                return version["cells"]
        return None

    def insert(self, txn: dict, table: int, cells: list) -> int:
        t = self.tables[table]
        row_id = t["next_row_id"]
        t["next_row_id"] += 1
        version = {"begin": txn["id"], "end": None, "cells": list(cells)}
        t["rows"][row_id] = [version]
        txn["undo"].append(("insert", table, row_id, version))
        return row_id

    def update(self, txn: dict, table: int, row_id: int, updates: dict) -> bool:
        """Returns False on write conflict (first-updater-wins)."""
        chain = self.tables[table]["rows"].get(row_id)
        if not chain:
            return True  # row absent: no-op, mirroring the engine's skip
        head = chain[-1]
        if head["begin"] != txn["id"]:
            cs = self.committed.get(head["begin"])
            if cs is None or cs > txn["snapshot"]:
                return False
        cells = list(head["cells"])
        for idx, value in updates.items():
            cells[idx] = value
        head["end"] = txn["id"]
        version = {"begin": txn["id"], "end": None, "cells": cells}
        chain.append(version)
        txn["undo"].append(("update", table, row_id, head, version))
        return True

    def commit(self, txn: dict) -> None:
        self.committed[txn["id"]] = self.next_commit_seq
        self.next_commit_seq += 1
        txn["alive"] = False

    def abort(self, txn: dict) -> None:
        for entry in reversed(txn["undo"]):
            if entry[0] == "insert":
                _, table, row_id, version = entry
                chain = self.tables[table]["rows"].get(row_id)
                if chain and chain[-1] is version:
                    chain.pop()
                if chain is not None and not chain:
                    del self.tables[table]["rows"][row_id]
            else:
                _, table, row_id, old, new = entry
                chain = self.tables[table]["rows"][row_id]
                if chain and chain[-1] is new:
                    chain.pop()
                old["end"] = None
        txn["alive"] = False

    def quiescent_rows(self, table: int) -> dict[int, list]:
        """row_id -> cells visible to a fresh post-quiescence snapshot."""
        ghost = {"id": -1, "snapshot": self.next_commit_seq - 1}
        out = {}
        for row_id, chain in self.tables[table]["rows"].items():
            for version in reversed(chain):
                if self._visible(version, ghost):
                    out[row_id] = version["cells"]
                    break
        return out


class ShadowRunner:
    """Interprets a workload program's statements against the ShadowDb over
    plaintext cells, consuming exactly the schedule the real runner executes
    and producing the same revealed list when the system under test is
    correct."""

    def __init__(self, program, schedule):
        self.program = program
        self.schedule = schedule
        self.db = ShadowDb()
        self.revealed: list = []
        self.committed = 0
        self.aborted = 0
        self.conflicts = 0

    def run(self) -> "ShadowRunner":
        db = self.db
        next_txn_id = 1
        self.columns = [{c.name: i for i, c in enumerate(decl.columns)}
                        for decl in self.program.tables]
        for t, decl in enumerate(self.program.tables):
            db.create_table(t)
            txn = db.begin(next_txn_id)
            next_txn_id += 1
            for row in decl.rows:
                db.insert(txn, t, list(row))
            db.commit(txn)
        active: dict[int, dict] = {}
        dead: set[int] = set()
        for entry in self.schedule:
            kind = entry[0]
            if kind == "begin":
                active[entry[2]] = db.begin(next_txn_id)
                next_txn_id += 1
            elif kind == "op":
                _, _, txn_index, op_index = entry
                if txn_index in dead:
                    continue
                txn = active[txn_index]
                statement = self.program.txns[txn_index].statements[op_index]
                if not self._exec(txn, statement):
                    self.conflicts += 1
                    db.abort(txn)
                    self.aborted += 1
                    dead.add(txn_index)
            else:
                txn_index = entry[2]
                if txn_index in dead:
                    active.pop(txn_index, None)
                    continue
                txn = active.pop(txn_index)
                if self.program.txns[txn_index].abort:
                    db.abort(txn)
                    self.aborted += 1
                else:
                    db.commit(txn)
                    self.committed += 1
        return self

    def _exec(self, txn: dict, statement: tuple) -> bool:
        """Runs one statement; False on a write conflict."""
        db = self.db
        kind, t = statement[0], statement[1]
        if kind == "insert":
            db.insert(txn, t, list(statement[2]))
            return True
        col = self.columns[t][statement[2]]
        if kind == "sum":
            _, _, _, start, end = statement
            total = 0
            for key in range(start, end):
                cells = db.visible_cells(t, key, txn)
                if cells is not None:
                    total += cells[col]
            self.revealed.append(("sum", t, start, total))
            return True
        key = statement[3]
        cells = db.visible_cells(t, key, txn)
        if kind == "read":
            self.revealed.append(("point", t, key, cells[col] if cells else None))
            return True
        if cells is None:
            return True
        if kind == "add":
            return db.update(txn, t, key, {col: cells[col] + statement[4]})
        if kind == "set":
            return db.update(txn, t, key, {col: statement[4]})
        raise ValueError(f"unknown statement {kind}")
