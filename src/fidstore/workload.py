"""Workload programs: declared tables and transactions of statements.

A WorkloadProgram is its declared tables (TableDecl: a name, Columns and
plaintext preload rows, one value per column) and its transactions
(TxnTemplate: statements, and whether the txn aborts once they have run).
A statement is a plain tuple from a closed set. Each names its table, as
an index into the program's tables, and its column; a value it writes is
inline. A key is a row id.

    (READ, t, column, key)          reveals ("point", t, key, value)
    (SUM, t, column, start, end)    reveals ("sum", t, start, total) over
                                    the rows start <= key < end
    (ADD, t, column, key, delta)    adds delta to the column of row key
    (SET, t, column, key, value)    sets the column of row key to value
    (INSERT, t, row)                inserts row, one value per column

A row the txn cannot see reads as None, adds nothing to a SUM (0 over no
row) and is skipped by ADD and SET. zone_sim's runner and the test suite's
plaintext oracle both interpret these statements.

generate_workload emits the sysbench modes from two independent seeds: the
structure seed fixes everything an adversary could observe (statement
kinds, tables, row keys, value lengths, abort decisions, interleaving)
while the value seed fixes only the secret payloads. Two programs sharing
a structure seed are shape-identical and must produce identical adversary
traces regardless of their values; that is the indistinguishability
contract the simulator checks.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .integrity_dbms import SENSITIVE_TYPES, Column, ColumnType

READ, SUM, ADD, SET, INSERT = "read", "sum", "add", "set", "insert"

RANGE_SPAN = 10  # rows per sysbench range sum


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
        self.cumulative[-1] = 1.0  # exactly, so no draw in [0, 1) maps to rank n

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cumulative, rng.random())


@dataclass(slots=True)
class TableDecl:
    name: str
    columns: tuple[Column, ...]
    rows: list[tuple]  # plaintext preload rows, one value per column


@dataclass(slots=True)
class TxnTemplate:
    statements: list[tuple]
    abort: bool


@dataclass(slots=True)
class WorkloadProgram:
    spec: WorkloadSpec
    tables: list[TableDecl]
    txns: list[TxnTemplate]


_SBTEST_COLUMNS = (  # sysbench's sbtest table
    Column("id", ColumnType.PLAIN_INT), Column("k", ColumnType.SENSITIVE_INT),
    Column("c", ColumnType.SENSITIVE_BYTES), Column("pad", ColumnType.PLAIN_BYTES))


def _sbtest_row(key: int, rv: random.Random) -> tuple:
    return (key, rv.randrange(-10**6, 10**6), rv.randbytes(32), b"sb-pad")


def _key_picker(spec: WorkloadSpec, rs: random.Random):
    n = spec.rows_per_table
    if spec.distribution == Distribution.ZIPFIAN:
        sampler = ZipfianSampler(n, spec.theta)
        # shuffle rank->row so hot rows are spread over the key space
        perm = list(range(1, n + 1))
        rs.shuffle(perm)
        return lambda: perm[sampler.sample(rs)]
    return lambda: rs.randrange(1, n + 1)


def _range_sum(spec: WorkloadSpec, rs: random.Random, t: int) -> tuple:
    start = rs.randrange(1, max(1, spec.rows_per_table - RANGE_SPAN) + 1)
    return (SUM, t, "k", start, start + RANGE_SPAN)


def _txn_statements(spec: WorkloadSpec, rs: random.Random, rv: random.Random,
                    pick, insert_counter: list[int]) -> list[tuple]:
    """One sysbench txn of spec.mode: structure from rs, values from rv."""
    mode = spec.mode
    t = rs.randrange(spec.tables)
    if mode == Mode.POINT_SELECT:
        return [(READ, t, "k", pick())]
    if mode == Mode.RANGE_SELECT:
        return [_range_sum(spec, rs, t)]
    if mode == Mode.READ_ONLY:
        statements = [(READ, t, "k", pick()) for _ in range(3)]
        statements.append(_range_sum(spec, rs, t))
        return statements
    if mode == Mode.WRITE_ONLY:
        return [(ADD, t, "k", pick(), rv.randrange(-100, 101))
                if rs.random() < 0.5 else (SET, t, "c", pick(), rv.randbytes(32))
                for _ in range(2)]
    if mode == Mode.INSERT_ONLY:
        insert_counter[0] += 1
        return [(INSERT, t, _sbtest_row(spec.rows_per_table + insert_counter[0], rv))]
    # READ_WRITE: the sysbench-like mix
    statements = [(READ, t, "k", pick()), (READ, t, "k", pick()),
                  (ADD, t, "k", pick(), rv.randrange(-100, 101))]
    if rs.random() < 0.25:
        statements.append(_range_sum(spec, rs, t))
    return statements


def generate_workload(spec: WorkloadSpec, seed: int) -> WorkloadProgram:
    rs = random.Random(seed)
    rv = random.Random(spec.value_seed if spec.value_seed is not None else seed)
    pick = _key_picker(spec, rs)
    tables = [TableDecl(f"sb{i}", _SBTEST_COLUMNS,
                        [_sbtest_row(key, rv)
                         for key in range(1, spec.rows_per_table + 1)])
              for i in range(spec.tables)]
    insert_counter = [0]
    txns = [TxnTemplate(_txn_statements(spec, rs, rv, pick, insert_counter),
                        rs.random() < spec.abort_ratio)
            for _ in range(spec.duration_ops)]
    return WorkloadProgram(spec=spec, tables=tables, txns=txns)


def _client_stream(txns: list[TxnTemplate], tid: int,
                   threads: int) -> Iterator[tuple]:
    """One simulated client's entries: every threads-th txn from tid on."""
    for txn_index in range(tid, len(txns), threads):
        yield ("begin", tid, txn_index)
        for op_index in range(len(txns[txn_index].statements)):
            yield ("op", tid, txn_index, op_index)
        yield ("finish", tid, txn_index)


def flatten_schedule(program: WorkloadProgram) -> Iterator[tuple]:
    """Deterministic round-robin interleaving over simulated client threads.

    Entries: ("begin", thread, txn_index), ("op", thread, txn_index, op_index),
    ("finish", thread, txn_index), where op_index indexes the txn's
    statements. Each pass takes the next entry of every client that has one
    left, in thread order. The engine under test and the shadow oracle both
    consume exactly this sequence.

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
    """Everything structural about a program: its tables, statements,
    aborts and interleaving, with each value on a sensitive column replaced
    by its length, 8 for an int (sizes are observable, contents are not)."""

    def shapes(columns, values) -> tuple:
        return tuple(v if c.ctype not in SENSITIVE_TYPES
                     else 8 if c.ctype == ColumnType.SENSITIVE_INT else len(v)
                     for c, v in zip(columns, values))

    def statement_shape(s: tuple) -> tuple:
        columns = program.tables[s[1]].columns
        if s[0] == INSERT:
            return s[:2] + (shapes(columns, s[2]),)
        if s[0] in (ADD, SET):
            return s[:4] + shapes([c for c in columns if c.name == s[2]], s[4:])
        return s

    spec = program.spec
    return (spec.threads_simulated, spec.batch_size,
            tuple((d.name, d.columns, tuple(shapes(d.columns, row) for row in d.rows))
                  for d in program.tables),
            tuple((tuple(map(statement_shape, txn.statements)), txn.abort)
                  for txn in program.txns))
