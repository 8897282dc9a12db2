"""Desk-scale measurement harness.

bench_ops compares the mapping path (put/get of an 8-byte value, the size
of a table row's k cell) against AEAD field en/decryption, a 4 KiB block
seal and open, and a reply's one packed client envelope against an
envelope per value, and times one zone crossing end to end, on the same
host, interleaving the operations in round-robin batches so system noise
drifts over all of them equally; medians of per-batch means are the
reported statistic and ratios are always computed within a single run.

The crash matrix runs through the two-zone simulator and emits one CSV row
per crash, cache size and seed: a crash just before one durable write,
named by the write's ordinal and label (zone_sim's crash schedule), that
its run's plan picks from a dry run's write record. Reruns with the same
seed reproduce every column. Each row forks off a run shared up to its
write (sweep), so the matrix needs os.fork. Workload performance (round
trips, bytes and crypto calls per transaction, timings) and durable size
(space_amp) are measured per phase by perfbench/run.py, not here.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass, replace

from .errors import CorruptLog, Unavailable, ZoneCrashed
from .atrest_storage import BlockSealer
from .integrity_dbms import DB_COMMIT
from .mapping_store import BLOCK_SIZE, MappingStore, PartitionKind
from .privacy_proxy import (
    ClientEnvelope,
    EnvelopeCodec,
    OperatorRequest,
    OpKind,
    ValueType,
    encode_int64,
    pack_values,
)
from .wal import DELETE_REC, FRAME, KIND_DELETE, frame_record, read_frames
from .workload import Distribution, Mode, WorkloadSpec
from .zone_sim import CrashPoint, CrashTarget, DurableWrite, ZoneTopology


# bench_ops times one packed encrypt of each of these counts of INT64
# values, a reply's one client envelope, against that many field encrypts
REPLY_SIZES = (1, 4, 256)
# and one crossing of a commit's write batch, one ADD, with no rider, of
# one txn's ADD and STORE whose constants share one envelope, and with the
# RIDERS point reads of a pass riding in one LOAD element, and of that
# LOAD element alone, the crossing riding saves
RIDERS = 4
CROSSINGS = ("commit_0", "commit_2w", f"commit_{RIDERS}", f"reveal_{RIDERS}")
OPS = ("put", "get", "aead_encrypt_field", "aead_decrypt_field",
       "aead_seal_block_4k", "aead_open_block_4k",
       *(f"aead_encrypt_{kind}_{n}" for n in REPLY_SIZES for kind in ("reply", "fields")),
       *(f"crossing_{name}" for name in CROSSINGS))


@dataclass
class CostReport:
    """bench_ops's median and p99 ns per op, keyed by op name (OPS)."""

    iters: int
    median_ns: dict[str, float]
    p99_ns: dict[str, float]
    cpu_mhz: float | None

    @property
    def encrypt_over_put(self) -> float:
        return self.median_ns["aead_encrypt_field"] / self.median_ns["put"]

    @property
    def decrypt_over_get(self) -> float:
        return self.median_ns["aead_decrypt_field"] / self.median_ns["get"]

    def saving_per_envelope(self, n: int) -> float:
        """The ns a reply of n values saves per envelope it drops, sealing
        them in one encrypt rather than one each."""
        return (self.median_ns[f"aead_encrypt_fields_{n}"]
                - self.median_ns[f"aead_encrypt_reply_{n}"]) / (n - 1)

    @property
    def saving_per_ride(self) -> float:
        """The ns riding saves: a commit's crossing and its pass's reveal
        crossing, against one crossing of the commit with the reveal in
        it."""
        ns = self.median_ns
        return (ns["crossing_commit_0"] + ns[f"crossing_reveal_{RIDERS}"]
                - ns[f"crossing_commit_{RIDERS}"])

    def cycles(self, ns: float) -> float | None:
        if self.cpu_mhz is None:
            return None
        return ns * self.cpu_mhz / 1000.0


def _cpu_mhz() -> float | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("cpu mhz"):
                    return float(line.split(":")[1])
    except (OSError, ValueError):
        pass
    return None


def bench_ops(iters: int = 1_000_000, batch: int = 2000) -> CostReport:
    """Median/p99 per-op latency for put, get, AEAD field encrypt/decrypt,
    a 4 KiB block seal and open, and, per count n in REPLY_SIZES, one
    packed encrypt of n INT64 values (a reply's one client envelope,
    privacy_proxy.pack_values) against n field encrypts. put and get run
    on a permanent partition, the kind a table's values live in, of a
    store with no at-rest layer or journal attached, so they time the
    mapping alone. A reply op runs batch // n times a round, so each
    encrypts about batch values. A crossing op (crossings) runs batch // 50
    times a round, on a topology of its own."""
    if iters < 10_000:
        raise ValueError("iters too small for stable medians")
    store = MappingStore()
    pid = store.create_partition(PartitionKind.PERMANENT)
    payload = encode_int64(42)  # 8 bytes, like a table row's k cell
    codec = EnvelopeCodec(os.urandom(32))
    env_bytes = codec.encrypt(payload).to_bytes()
    hot_fid = store.put(pid, payload)
    sealer = BlockSealer(os.urandom(32))
    block = os.urandom(BLOCK_SIZE)
    sealed = sealer.seal(pid, 0, 1, block)
    replies = {n: [encode_int64(i) for i in range(n)] for n in REPLY_SIZES}
    crossing = crossings()
    crossing_reps = range(max(1, batch // 50))

    put = store.put
    get = store.get
    encrypt = codec.encrypt
    decrypt = codec.decrypt
    seal = sealer.seal
    open_block = sealer.open
    from_bytes = ClientEnvelope.from_bytes
    perf = time.perf_counter_ns
    loop = range(batch)

    samples: dict[str, list[float]] = {name: [] for name in OPS}
    for _ in range(max(1, iters // batch)):
        t0 = perf()
        for _ in loop:
            encrypt(payload).to_bytes()
        samples["aead_encrypt_field"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            decrypt(from_bytes(env_bytes))
        samples["aead_decrypt_field"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            put(pid, payload)
        samples["put"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            get(hot_fid)
        samples["get"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            seal(pid, 0, 1, block)
        samples["aead_seal_block_4k"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            open_block(pid, 0, sealed, 1, 0)
        samples["aead_open_block_4k"].append((perf() - t0) / batch)
        for n, values in replies.items():
            reps = range(max(1, batch // n))
            t0 = perf()
            for _ in reps:
                encrypt(pack_values(values)).to_bytes()
            samples[f"aead_encrypt_reply_{n}"].append((perf() - t0) / len(reps))
            t0 = perf()
            for _ in reps:
                for value in values:
                    encrypt(value).to_bytes()
            samples[f"aead_encrypt_fields_{n}"].append((perf() - t0) / len(reps))
        for name, cross in crossing.items():
            t0 = perf()
            for _ in crossing_reps:
                cross()
            samples[f"crossing_{name}"].append((perf() - t0) / len(crossing_reps))

    def p99(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[int(0.99 * (len(ordered) - 1))]

    return CostReport(
        iters=iters,
        median_ns={name: statistics.median(v) for name, v in samples.items()},
        p99_ns={name: p99(v) for name, v in samples.items()},
        cpu_mhz=_cpu_mhz(),
    )


def crossings() -> dict:
    """Each of CROSSINGS as a call that makes it end to end, on an
    in-memory topology: the client's encode, Channel.request and the
    privacy zone's dispatch, the reply's decode and, for a reply that
    reveals, client_open. The commit's write is an ADD of an inline
    constant into a table's partition, which puts a fresh FID each time;
    commit_2w's are that ADD and a STORE, one run whose constants one
    envelope seals, opened once; the riders, and the reveal alone, one LOAD
    of RIDERS int64 FIDs."""
    topo = ZoneTopology(0)
    client = topo.client
    table = client.create_partition()
    refs = client.ingest(0, [topo.client_encrypt(encode_int64(i))
                             for i in range(RIDERS + 1)], RIDERS + 1, table)
    write = OperatorRequest(OpKind.ADD, ValueType.INT64, refs[:1], table,
                            topo.client_encrypt(encode_int64(1)))
    load = OperatorRequest(OpKind.LOAD, ValueType.INT64, refs[1:], reveal=True)
    pooled = topo.client_seal([encode_int64(1), encode_int64(2)])
    two = [OperatorRequest(OpKind.ADD, ValueType.INT64, refs[:1], table, pooled),
           OperatorRequest(OpKind.STORE, ValueType.INT64, [], table, pooled,
                           next_const=True)]

    def commit_0():
        client.exec_writes(None, [write], 2)

    def commit_2w():
        client.exec_writes(None, two, 2)

    def commit_riding():
        topo.client_open(client.exec_writes(None, [write, load], 2)[1][0].envelope,
                         RIDERS)

    def reveal():
        topo.client_open(client.exec_batch(None, [load], 2)[0].envelope, RIDERS)

    return dict(zip(CROSSINGS, (commit_0, commit_2w, commit_riding, reveal)))


# Write-only ops of the matrix spec past which the engine journal has
# crossed the checkpoint interval with recipes pending, so that both zones
# checkpoint there: at 2 x 200 rows and seeds 1000-1002 the engine's first
# checkpoint comes at about the run's 2 550th durable write, of about
# 4 150, and maintenance checkpoints both again.
CHECKPOINT_MATRIX_OPS = 4_000
# Sampling rates of the crash matrix, each drawn per write in write order
# from a generator seeded by the run, its seed and cache size: the DB_COMMIT
# syncs that also get a privacy-only crash, those that also get a torn
# crash of both zones, and the checkpoint run's eviction seals and
# discards that get their crashes.
PRIVACY_COMMIT_RATE = 1 / 32
TORN_COMMIT_RATE = 1 / 32
EVICTION_RATE = 1 / 32

MATRIX_CSV_COLUMNS = [
    "crash_point", "target", "cache_blocks", "seed", "fired", "violations",
    "orphans_pre_gc", "gc_reclaimed", "orphans_post_gc", "privacy_replayed",
    "db_replayed", "committed_before_crash", "restart_violations", "lost_values",
]


def default_matrix_spec(ops: int = 10_000) -> WorkloadSpec:
    return WorkloadSpec(mode=Mode.READ_WRITE, distribution=Distribution.UNIFORM,
                        tables=2, rows_per_table=200, duration_ops=ops,
                        threads_simulated=2, batch_size=64, abort_ratio=0.05)


def matrix_caches(spec: WorkloadSpec, seed: int) -> tuple[int | None, int]:
    """The page-cache sizes the matrix runs every plan at: unbounded
    (None), and a quarter of the blocks the preload of spec's program spans
    (4 for default_matrix_spec), as perfbench's cold workloads have."""
    topo = ZoneTopology(seed, batch_size=spec.batch_size)
    topo.run_workload(replace(spec, duration_ops=0))
    store = topo.privacy.store
    blocks = sum(len(store.partition_blocks(pid)) for pid in store.partition_ids())
    return None, max(1, blocks // 4)


def checkpoint_matrix_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The spec as write-only churn, long enough that the engine journal
    crosses the checkpoint interval with recipes pending."""
    return replace(spec, mode=Mode.WRITE_ONLY,
                   duration_ops=max(spec.duration_ops, CHECKPOINT_MATRIX_OPS))


def commit_one_row(topo: ZoneTopology) -> None:
    """Commits one new row to the first table, if there is one: its recipe
    is pending until the next privacy checkpoint."""
    db = topo.integrity.db
    if not db.tables_by_idx:
        return  # a crash came before the first table
    table = db.tables_by_idx[0]
    txn = db.begin()
    topo.insert_rows(txn, table, [(table.next_row_id, 7, b"restart", b"")])
    db.commit(txn)
    topo.client.end_query(txn.query_id)


def restart_violations(topo: ZoneTopology) -> int:
    """Commits one row, crashes both zones and recovers again; returns the
    second recovery's dangling FIDs, counting a CorruptLog as one."""
    commit_one_row(topo)
    topo.privacy.crash()
    topo.integrity.crash()
    try:
        return len(topo.recover_all().invariant.violations)
    except CorruptLog:
        return 1


def row_states(topo: ZoneTopology) -> tuple[dict, dict]:
    """Every table row's state as (committed, in_flight), each keyed by
    (table index, row id): the row's newest committed version, and the
    newest version an active txn wrote, as (vseq, writer txn, cells, the
    values of its sensitive cells). The values are read from the privacy
    zone's store in trusted memory (MappingStore.peek), so this works on a
    crashed zone before its recovery and changes no cache state; on the
    cipher path the cells hold the envelopes themselves. A pending write's
    placeholder has no value."""
    db = topo.integrity.db
    store = topo.privacy.store if topo.backend_name == "fid" else None
    committed, in_flight = {}, {}
    for table in db.tables_by_idx:
        for row_id, chain in table.rows.items():
            for v in reversed(chain):
                if v.begin_txn in db.committed:
                    states = committed
                elif v.begin_txn in db.active_txns:
                    states = in_flight
                else:
                    continue
                key = (table.idx, row_id)
                if key not in states:
                    values = () if store is None else tuple(
                        None if v.cells[i] is None else store.peek(v.cells[i])
                        for i in table.sensitive)
                    states[key] = (v.vseq, v.begin_txn, tuple(v.cells), values)
                if states is committed:
                    break
    return committed, in_flight


def lost_values(before: tuple[dict, dict], topo: ZoneTopology) -> int:
    """Table rows whose newest committed version, or one of its secrets,
    recovery did not bring back as row_states saw it before the crash
    (before). A row an active txn wrote may come back as that txn's version
    too, since the crash may come after its commit record is durable."""
    committed, in_flight = before
    after, _ = row_states(topo)
    lost = 0
    for key in committed.keys() | in_flight.keys() | after.keys():
        state = after.get(key)
        if state != committed.get(key) and (key not in in_flight
                                            or state != in_flight[key]):
            lost += 1
    return lost


class MatrixRun:
    """The run the crash matrix crashes: spec's program on a fresh armed
    topology, then a restart (commit_one_row, a crash of both zones,
    recover_all), so the write record numbers recovery's writes, a
    restore's among them. before is the row states the restart's crash is
    checked against, report the program's RunReport."""

    def __init__(self, seed: int, spec: WorkloadSpec, cache: int | None):
        self.seed, self.spec, self.cache = seed, spec, cache
        self.topo = ZoneTopology(seed, batch_size=spec.batch_size,
                                 cache_capacity_blocks=cache)
        self.writes = self.topo.record_writes()
        self.before = self.report = None

    def run(self) -> None:
        """Runs to the end or to a scheduled crash; a crash inside the
        restart's recovery propagates (ZoneCrashed or Unavailable)."""
        topo = self.topo
        self.report = topo.run_workload(self.spec)
        if topo.fired is None:
            commit_one_row(topo)
        if topo.fired is None:  # a privacy-only crash lets that commit's sync run
            self.before = row_states(topo)
            topo.privacy.crash()
            topo.integrity.crash()
            topo.recover_all()

    def crash_row(self, point: CrashPoint) -> dict:
        """The CSV row of a run point stopped: recover_all, its invariant,
        lost values and orphans; then a commit, vacuum of every table and
        orphan_gc, so a version recovery brought back releases its refs
        after that commit may have reused their slots, and the invariant
        and orphans after; then one more restart (restart_violations). A
        torn row counts as fired only if the journal it tore ends in a
        torn record that recovery cuts."""
        topo, write = self.topo, self.topo.fired
        row = dict.fromkeys(MATRIX_CSV_COLUMNS, 0)
        label = write.label if write is not None else f"#{point.ordinal}"
        row.update(crash_point=label + (f" torn {point.torn_bytes}"
                                        if point.torn_bytes else ""),
                   target=point.target.value, cache_blocks=self.cache,
                   seed=self.seed, fired=write is not None,
                   committed_before_crash=self.report.txns_committed)
        if write is None:
            return row
        before = self.before or row_states(topo)
        torn = {"privacy": topo.store_wal_buffer, "integrity": topo.dbwal_buffer
                }[write.zone] if point.torn_bytes else None
        tore = torn is not None and _torn_tail(torn) > 0
        recovery = topo.recover_all()
        if torn is not None:
            row["fired"] = tore and not _torn_tail(torn)
        row["lost_values"] = lost_values(before, topo)
        row["orphans_pre_gc"] = recovery.invariant.orphans
        row["privacy_replayed"] = recovery.privacy_replayed
        row["db_replayed"] = recovery.db_replayed
        commit_one_row(topo)
        db = topo.integrity.db
        for table in db.tables_by_idx:
            db.vacuum(table)
        row["gc_reclaimed"] = db.orphan_gc()
        after = topo.check_invariant()
        row["violations"] = len(recovery.invariant.violations) + len(after.violations)
        row["orphans_post_gc"] = after.orphans
        row["restart_violations"] = restart_violations(topo)
        return row


def _torn_tail(buffer) -> int:
    """The bytes past the last intact record of buffer's durable journal."""
    data = buffer.durable
    return len(data) - sum(FRAME.size + len(body) for body in read_frames(data))


_DELETE_RECORD = len(frame_record(0, KIND_DELETE, bytes(DELETE_REC.size)))


def default_plan(writes: list[DurableWrite], rng: random.Random) -> list[CrashPoint]:
    """The default spec's crashes: both zones before every write; the
    privacy zone alone before a sample of the DB_COMMIT syncs; and a torn
    crash of both at every sync of a privacy delete batch and at a sample
    of DB_COMMIT syncs, tearing inside a record (an engine sync holds one
    record, a delete batch records of one size)."""
    plan = []
    for write in writes:
        plan.append(CrashPoint(write.ordinal))
        commit = write.zone == "integrity" and write.kind == DB_COMMIT
        if commit and rng.random() < PRIVACY_COMMIT_RATE:
            plan.append(CrashPoint(write.ordinal, CrashTarget.PRIVACY))
        deletes = write.zone == "privacy" and write.kind == KIND_DELETE
        if deletes or commit and rng.random() < TORN_COMMIT_RATE:
            torn = rng.randrange(1, write.size)
            plan.append(CrashPoint(write.ordinal, torn_bytes=torn - (
                deletes and not torn % _DELETE_RECORD)))
    return plan


def checkpoint_plan(writes: list[DurableWrite], rng: random.Random) -> list[CrashPoint]:
    """The checkpoint run's crashes: both zones, and the privacy zone alone,
    before every write that is not a sync, except that a sealed copy's
    write or discard outside a checkpoint (an eviction's seal, or a retired
    copy) is sampled. A checkpoint's seals are the writes and discards
    right before its first slot map."""
    seals, run = set(), []
    for write in writes:
        if write.method in ("write", "discard"):
            run.append(write.ordinal)
            continue
        if write.method == "put_atomic" and write.name.startswith("part-"):
            seals.update(run)
        run = []
    return [CrashPoint(write.ordinal, target) for write in writes
            if write.method != "sync" and (
                write.method not in ("write", "discard") or write.ordinal in seals
                or rng.random() < EVICTION_RATE)
            for target in (CrashTarget.BOTH, CrashTarget.PRIVACY)]


def sweep(seed: int, spec: WorkloadSpec, cache: int | None,
          plan: list[CrashPoint], expected: list[DurableWrite] | None = None,
          on_row=None) -> list[dict]:
    """Each point of plan run as if on a run of its own, but all sharing one
    MatrixRun up to the point's write: just before it the run forks, the
    child crashes there, runs crash_row and sends the row back through a
    pipe, and the parent waits for it, one child at a time, then runs the
    write. RuntimeError if the run's writes are not expected's (the dry
    run the plan was drawn from) or a child fails."""
    run = MatrixRun(seed, spec, cache)
    topo = run.topo
    at = {}
    for point in plan:
        at.setdefault(point.ordinal, []).append(point)
    rows, child = [], []

    def on_write(write: DurableWrite) -> None:
        if expected is not None and expected[write.ordinal - 1:write.ordinal] != [write]:
            raise RuntimeError(f"the run diverged from its dry run at {write.label}")
        for point in at.get(write.ordinal, ()):
            read_fd, write_fd = os.pipe()
            if os.fork() == 0:
                os.close(read_fd)
                child.append((write_fd, point))
                topo.on_write = None
                topo.inject_crash(point)
                return
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as fh:
                reply = json.loads(fh.read() or b"{}")
            os.wait()
            if "row" not in reply:
                raise RuntimeError(f"crash row {point} failed:\n{reply.get('error')}")
            rows.append(reply["row"])
            if on_row is not None:
                on_row(reply["row"])

    topo.on_write = on_write
    try:
        run.run()
    except (ZoneCrashed, Unavailable):
        if not child:
            raise
    if child:
        fd, point = child[0]
        try:
            reply = {"row": run.crash_row(point)}
        except BaseException:
            reply = {"error": traceback.format_exc()}
        with os.fdopen(fd, "wb") as fh:
            fh.write(json.dumps(reply).encode())
        os._exit(0)
    if expected is not None and len(run.writes) != len(expected):
        raise RuntimeError("the run diverged from its dry run at its end")
    return rows


def run_crash_matrix(seeds_n: int, spec: WorkloadSpec | None = None,
                     base_seed: int = 1000, on_row=None,
                     on_census=None) -> list[dict]:
    """For seeds_n seeds, each matrix_caches cache size and two runs, the
    default (spec, default_plan) and the checkpoint run
    (checkpoint_matrix_spec, checkpoint_plan): a dry run records the run's
    writes, its plan draws the crashes from them with a generator seeded by
    the run, seed and cache size, and sweep runs each. on_census, if given,
    gets (seed, cache, run, writes, plan) before each sweep. After each
    recovery the external-synchrony invariant must hold with zero dangling
    FIDs and no lost value, also after one more restart."""
    spec = spec or default_matrix_spec()
    runs = (("default", spec, default_plan),
            ("checkpoint", checkpoint_matrix_spec(spec), checkpoint_plan))
    rows = []
    caches = matrix_caches(spec, base_seed)
    for seed in range(base_seed, base_seed + seeds_n):
        for cache in caches:
            for name, run_spec, make_plan in runs:
                dry = MatrixRun(seed, run_spec, cache)
                dry.run()
                plan = make_plan(dry.writes, random.Random(f"matrix:{name}:{seed}:{cache}"))
                if on_census is not None:
                    on_census(seed, cache, name, dry.writes, plan)
                rows += sweep(seed, run_spec, cache, plan, dry.writes, on_row)
    return rows
