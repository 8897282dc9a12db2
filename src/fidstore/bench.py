"""Desk-scale measurement harness.

bench_ops compares the mapping path (put/get of an 8-byte value, the size
of a table row's k cell) against AEAD field en/decryption on the same
host, interleaving the four operations in round-robin batches so system
noise drifts over all of them equally; medians of per-batch means are the
reported statistic and ratios are always computed within a single run.

The crash matrix runs through the two-zone simulator and emits one CSV row
per crash point, cache size and seed; reruns with the same seed reproduce
every column. Workload performance (round trips, bytes and crypto calls
per transaction, timings) and durable size (space_amp) are measured per
phase by perfbench/run.py, not here.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field, replace

from .errors import CorruptLog, Unavailable
from .mapping_store import MappingStore, PartitionKind
from .privacy_proxy import ClientEnvelope, EnvelopeCodec, encode_int64
from .workload import Distribution, Mode, WorkloadSpec
from .zone_sim import (
    CrashPoint,
    CrashPointId,
    CrashTarget,
    ZoneCrashed,
    ZoneTopology,
)


@dataclass
class CostReport:
    iters: int
    put_ns: float
    get_ns: float
    encrypt_ns: float
    decrypt_ns: float
    put_ns_p99: float
    get_ns_p99: float
    encrypt_ns_p99: float
    decrypt_ns_p99: float
    cpu_mhz: float | None
    encrypt_over_put: float = field(init=False)
    decrypt_over_get: float = field(init=False)

    def __post_init__(self):
        self.encrypt_over_put = self.encrypt_ns / self.put_ns
        self.decrypt_over_get = self.decrypt_ns / self.get_ns

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
    """Median/p99 per-op latency for put, get, AEAD field encrypt/decrypt."""
    if iters < 10_000:
        raise ValueError("iters too small for stable medians")
    store = MappingStore()
    pid = store.create_partition(PartitionKind.TEMPORARY)
    payload = encode_int64(42)  # 8 bytes, like a table row's k cell
    codec = EnvelopeCodec(os.urandom(32))
    env_bytes = codec.encrypt(payload).to_bytes()
    hot_fid = store.put(pid, payload)

    put = store.put
    get = store.get
    encrypt = codec.encrypt
    decrypt = codec.decrypt
    from_bytes = ClientEnvelope.from_bytes
    perf = time.perf_counter_ns
    loop = range(batch)

    samples: dict[str, list[float]] = {"put": [], "get": [], "enc": [], "dec": []}
    for _ in range(max(1, iters // batch)):
        t0 = perf()
        for _ in loop:
            encrypt(payload).to_bytes()
        samples["enc"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            decrypt(from_bytes(env_bytes))
        samples["dec"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            put(pid, payload)
        samples["put"].append((perf() - t0) / batch)
        t0 = perf()
        for _ in loop:
            get(hot_fid)
        samples["get"].append((perf() - t0) / batch)

    def p99(values: list[float]) -> float:
        ordered = sorted(values)
        return ordered[int(0.99 * (len(ordered) - 1))]

    return CostReport(
        iters=iters,
        put_ns=statistics.median(samples["put"]),
        get_ns=statistics.median(samples["get"]),
        encrypt_ns=statistics.median(samples["enc"]),
        decrypt_ns=statistics.median(samples["dec"]),
        put_ns_p99=p99(samples["put"]),
        get_ns_p99=p99(samples["get"]),
        encrypt_ns_p99=p99(samples["enc"]),
        decrypt_ns_p99=p99(samples["dec"]),
        cpu_mhz=_cpu_mhz(),
    )


MATRIX_POINTS: list[tuple[CrashPointId, CrashTarget]] = [
    (CrashPointId.BEFORE_DB_COMMIT, CrashTarget.BOTH),
    (CrashPointId.AFTER_DB_COMMIT, CrashTarget.BOTH),
    (CrashPointId.DURING_VACUUM, CrashTarget.BOTH),
    (CrashPointId.DURING_ORPHAN_GC, CrashTarget.BOTH),
    (CrashPointId.RANDOM_BYTE, CrashTarget.PRIVACY),
    (CrashPointId.PRIVACY_CHECKPOINT_AFTER_SEAL, CrashTarget.PRIVACY),
    (CrashPointId.PRIVACY_CHECKPOINT_BEFORE_TRUNCATE, CrashTarget.PRIVACY),
    (CrashPointId.PRIVACY_CHECKPOINT_AFTER_TRUNCATE, CrashTarget.PRIVACY),
    (CrashPointId.INTEGRITY_CHECKPOINT_BEFORE_TRUNCATE, CrashTarget.BOTH),
    (CrashPointId.INTEGRITY_CHECKPOINT_AFTER_TRUNCATE, CrashTarget.BOTH),
    # a privacy-only crash after an integrity commit whose secrets no flush
    # made durable: recovery restores them from their recipes
    (CrashPointId.AFTER_DB_COMMIT, CrashTarget.PRIVACY),
    (CrashPointId.DURING_RESTORE, CrashTarget.BOTH),
    (CrashPointId.DURING_RESTORE, CrashTarget.PRIVACY),
]
CHECKPOINT_POINTS = frozenset({
    CrashPointId.PRIVACY_CHECKPOINT_AFTER_SEAL,
    CrashPointId.PRIVACY_CHECKPOINT_BEFORE_TRUNCATE,
    CrashPointId.PRIVACY_CHECKPOINT_AFTER_TRUNCATE,
    CrashPointId.INTEGRITY_CHECKPOINT_BEFORE_TRUNCATE,
    CrashPointId.INTEGRITY_CHECKPOINT_AFTER_TRUNCATE,
})
# Write-only ops of the matrix spec after which both zones have checkpointed
# at least twice: at 2 x 200 rows and seeds 1000-1002 the engine journal
# syncs about 3.6 MiB before maintenance and checkpoints 3 times, and the
# privacy zone checkpoints with each of them.
CHECKPOINT_MATRIX_OPS = 10_000

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
    """The page-cache sizes the matrix runs every crash point at: unbounded
    (None), and a quarter of the blocks the preload of spec's program spans
    (4 for default_matrix_spec), as perfbench's cold workloads have."""
    topo = ZoneTopology(seed, batch_size=spec.batch_size)
    topo.run_workload(replace(spec, duration_ops=0))
    store = topo.privacy.store
    blocks = sum(len(store.partition_blocks(pid)) for pid in store.partition_ids())
    return None, max(1, blocks // 4)


def checkpoint_matrix_spec(spec: WorkloadSpec) -> WorkloadSpec:
    """The spec as write-only churn, long enough that both journals cross
    the checkpoint interval twice."""
    return replace(spec, mode=Mode.WRITE_ONLY,
                   duration_ops=max(spec.duration_ops, CHECKPOINT_MATRIX_OPS))


def restart_violations(topo: ZoneTopology) -> int:
    """Commits one row, crashes both zones and recovers again; returns the
    second recovery's dangling FIDs, counting a CorruptLog as one."""
    db = topo.integrity.db
    table = db.tables_by_idx[0]
    txn = db.begin()
    topo.insert_rows(txn, table, [(table.next_row_id, 7, b"restart", b"")])
    db.commit(txn)
    topo.client.end_query(txn.query_id)
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


def run_crash_matrix(seeds_n: int, spec: WorkloadSpec | None = None,
                     base_seed: int = 1000,
                     points: list[tuple[CrashPointId, CrashTarget]] | None = None,
                     on_row=None) -> list[dict]:
    """Every crash point crossed with the matrix_caches cache sizes and
    seeds_n seeds; after each recovery the external-synchrony invariant
    must hold with zero dangling FIDs. A fired run then restarts once more
    (restart_violations), so what the first recovery left behind must
    survive a later commit and crash. A
    checkpoint point runs checkpoint_matrix_spec and crashes in the first
    or second checkpoint of its zone. DURING_RESTORE needs a restore to
    crash in: the run ends in a privacy-only crash after a commit, and
    the point fires in the recovery from it, which a second recover_all
    then completes. Every fired run also counts lost_values: the table rows
    recovery did not bring back, with their secrets, as they stood when the
    run stopped at its crash."""
    spec = spec or default_matrix_spec()
    rows = []
    cells = [(cache, point) for cache in matrix_caches(spec, base_seed)
             for point in points or MATRIX_POINTS]
    for cache, (point_id, target) in cells:
        in_checkpoint = point_id in CHECKPOINT_POINTS
        in_restore = point_id == CrashPointId.DURING_RESTORE
        run_spec = checkpoint_matrix_spec(spec) if in_checkpoint else spec
        for i in range(seeds_n):
            seed = base_seed + i
            topo = ZoneTopology(seed, batch_size=spec.batch_size,
                                cache_capacity_blocks=cache)
            if in_checkpoint:
                occurrence = 1 + seed % 2
            elif point_id == CrashPointId.RANDOM_BYTE:
                occurrence = 40 + (seed % 200)  # statements into the run
            elif point_id == CrashPointId.DURING_ORPHAN_GC:
                occurrence = 1 + (seed % spec.tables)  # per-partition scan hits
            elif point_id == CrashPointId.DURING_VACUUM:
                occurrence = 1 + (seed % 5)
            else:
                occurrence = 3 + (seed % 10)  # qualifying commits into the run
            if in_restore:
                topo.inject_crash(CrashPoint(CrashPointId.AFTER_DB_COMMIT,
                                             CrashTarget.PRIVACY, occurrence))
            else:
                topo.inject_crash(CrashPoint(point_id, target, at_occurrence=occurrence))
            report = topo.run_workload(run_spec)
            fired = topo.fired is not None
            before = row_states(topo) if fired else None
            if fired and in_restore:
                topo.inject_crash(CrashPoint(point_id, target))
                try:
                    topo.recover_all()
                    fired = False  # nothing was pending, so nothing restored
                except (ZoneCrashed, Unavailable):
                    pass
            row = dict.fromkeys(MATRIX_CSV_COLUMNS, 0)
            row.update(crash_point=point_id.value, target=target.value,
                       cache_blocks=cache, seed=seed, fired=fired,
                       committed_before_crash=report.txns_committed)
            if fired:
                recovery = topo.recover_all()
                row["lost_values"] = lost_values(before, topo)
                row["violations"] = len(recovery.invariant.violations)
                row["orphans_pre_gc"] = recovery.invariant.orphans
                row["privacy_replayed"] = recovery.privacy_replayed
                row["db_replayed"] = recovery.db_replayed
                row["gc_reclaimed"] = topo.integrity.db.orphan_gc()
                after = topo.check_invariant()
                row["violations"] += len(after.violations)
                row["orphans_post_gc"] = after.orphans
                row["restart_violations"] = restart_violations(topo)
            else:
                row["violations"] = report.violations
            rows.append(row)
            if on_row is not None:
                on_row(row)
    return rows
