"""Sysbench-style transactional workload generation.

A workload program is generated from two independent seeds: the structure
seed fixes everything an adversary could observe (operation kinds, tables,
row keys, value lengths, abort decisions, interleaving) while the value
seed fixes only the secret payloads. Two programs sharing a structure seed
are shape-identical and must produce identical adversary traces regardless
of their values; that is the indistinguishability contract the simulator
checks.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum


class Mode(Enum):
    READ_ONLY = "read-only"
    READ_WRITE = "read-write"
    WRITE_ONLY = "write-only"
    INSERT_ONLY = "insert-only"
    POINT_SELECT = "point-select"
    RANGE_SELECT = "range-select"


class Distribution(Enum):
    UNIFORM = "uniform"
    ZIPFIAN = "zipfian"


@dataclass
class WorkloadSpec:
    mode: Mode = Mode.READ_WRITE
    distribution: Distribution = Distribution.UNIFORM
    theta: float = 0.8
    tables: int = 2
    rows_per_table: int = 500
    duration_ops: int = 1000
    threads_simulated: int = 1
    batch_size: int = 256
    abort_ratio: float = 0.05
    range_span: int = 10
    value_seed: int | None = None  # defaults to the structure seed

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must be in (0, 1]")
        if self.rows_per_table < 1:
            raise ValueError("rows_per_table must be >= 1")


class ZipfianSampler:
    """Rank-frequency sampler: P(rank i) proportional to 1/i^theta."""

    def __init__(self, n: int, theta: float):
        weights = [1.0 / (i ** theta) for i in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self.cumulative = []
        for w in weights:
            acc += w / total
            self.cumulative.append(acc)

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cumulative, rng.random())


@dataclass(slots=True)
class TxnTemplate:
    ops: list[tuple]      # structural: kind, table, keys, spans
    values: list[tuple]   # secret payloads aligned with ops (() for reads)
    abort: bool


@dataclass(slots=True)
class WorkloadProgram:
    spec: WorkloadSpec
    # per table: list of (k_value, c_value) secret pairs for the preload
    preload: list[list[tuple[int, bytes]]]
    txns: list[TxnTemplate]


def _key_picker(spec: WorkloadSpec, rs: random.Random):
    n = spec.rows_per_table
    if spec.distribution == Distribution.ZIPFIAN:
        sampler = ZipfianSampler(n, spec.theta)
        # shuffle rank->row so hot rows are spread over the key space
        perm = list(range(1, n + 1))
        rs.shuffle(perm)
        return lambda: perm[sampler.sample(rs)]
    return lambda: rs.randrange(1, n + 1)


def _txn_ops(spec: WorkloadSpec, rs: random.Random, pick,
             insert_counter: list[int]) -> list[tuple]:
    mode = spec.mode
    t = rs.randrange(spec.tables)
    span = spec.range_span
    max_start = max(1, spec.rows_per_table - span)

    def range_start() -> int:
        return rs.randrange(1, max_start + 1)

    if mode == Mode.POINT_SELECT:
        return [("point_select", t, pick())]
    if mode == Mode.RANGE_SELECT:
        return [("range_sum", t, range_start(), span)]
    if mode == Mode.READ_ONLY:
        ops = [("point_select", t, pick()) for _ in range(3)]
        ops.append(("range_sum", t, range_start(), span))
        return ops
    if mode == Mode.WRITE_ONLY:
        ops = []
        for _ in range(2):
            if rs.random() < 0.5:
                ops.append(("update_add", t, pick()))
            else:
                ops.append(("update_bytes", t, pick()))
        return ops
    if mode == Mode.INSERT_ONLY:
        insert_counter[0] += 1
        return [("insert", t, spec.rows_per_table + insert_counter[0])]
    # READ_WRITE: the sysbench-like mix
    ops = [("point_select", t, pick()), ("point_select", t, pick()),
           ("update_add", t, pick())]
    if rs.random() < 0.25:
        ops.append(("range_sum", t, range_start(), span))
    return ops


def _op_values(op: tuple, rv: random.Random) -> tuple:
    kind = op[0]
    if kind == "update_add":
        return (rv.randrange(-100, 101),)
    if kind == "update_bytes":
        return (rv.randbytes(32),)
    if kind == "insert":
        return (rv.randrange(-10**6, 10**6), rv.randbytes(32))
    return ()


def generate_workload(spec: WorkloadSpec, seed: int) -> WorkloadProgram:
    rs = random.Random(seed)
    rv = random.Random(spec.value_seed if spec.value_seed is not None else seed)
    pick = _key_picker(spec, rs)

    preload = []
    for _ in range(spec.tables):
        rows = [(rv.randrange(-10**6, 10**6), rv.randbytes(32))
                for _ in range(spec.rows_per_table)]
        preload.append(rows)

    insert_counter = [0]
    txns = []
    for _ in range(spec.duration_ops):
        ops = _txn_ops(spec, rs, pick, insert_counter)
        values = [_op_values(op, rv) for op in ops]
        txns.append(TxnTemplate(ops=ops, values=values,
                                abort=rs.random() < spec.abort_ratio))
    return WorkloadProgram(spec=spec, preload=preload, txns=txns)


def _client_stream(txns: list[TxnTemplate], tid: int,
                   threads: int) -> Iterator[tuple]:
    """One simulated client's entries: every threads-th txn from tid on."""
    for txn_index in range(tid, len(txns), threads):
        yield ("begin", tid, txn_index)
        for op_index in range(len(txns[txn_index].ops)):
            yield ("op", tid, txn_index, op_index)
        yield ("finish", tid, txn_index)


def flatten_schedule(program: WorkloadProgram) -> Iterator[tuple]:
    """Deterministic round-robin interleaving over simulated client threads.

    Entries: ("begin", thread, txn_index), ("op", thread, txn_index, op_index),
    ("finish", thread, txn_index). Each pass takes the next entry of every
    client that has one left, in thread order. The engine under test and the
    shadow oracle both consume exactly this sequence.

    The entries are generated lazily, so the schedule is never held whole:
    the iterator is consumed once, and a second pass needs a second call.
    """
    threads = max(1, program.spec.threads_simulated)
    streams = [_client_stream(program.txns, tid, threads) for tid in range(threads)]
    while streams:
        live = []
        for stream in streams:
            entry = next(stream, None)
            if entry is not None:
                live.append(stream)
                yield entry
        streams = live


def shape_signature(program: WorkloadProgram) -> tuple:
    """Everything structural about a program; secret values appear only as
    their lengths (sizes are observable, contents are not)."""
    spec = program.spec
    preload_shape = tuple(
        (len(rows), tuple(len(c) for _, c in rows)) for rows in program.preload
    )
    txn_shape = tuple(
        (tuple(t.ops),
         tuple(tuple(len(v) if isinstance(v, bytes) else 8 for v in vals)
               for vals in t.values),
         t.abort)
        for t in program.txns
    )
    return (spec.mode.value, spec.tables, spec.rows_per_table,
            spec.threads_simulated, spec.batch_size, preload_shape, txn_shape)
