"""Desk-scale measurement harness.

bench_ops compares the mapping path (put/get) against AEAD field
en/decryption on the same host, interleaving the four operations in
round-robin batches so system noise drifts over all of them equally;
medians of per-batch means are the reported statistic and ratios are
always computed within a single run.

bench_storage is pure layout arithmetic. bench_workload and the crash
matrix run through the two-zone simulator and emit one CSV row per
configuration; reruns with the same seed reproduce every non-timing
column.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

from .atrest_storage import SEALED_OVERHEAD
from .fid_codec import FidConfig
from .mapping_store import (
    BLOCK_SIZE,
    DEFAULT_MAX_VALUE_LEN,
    MappingStore,
    PartitionKind,
    ValueLayout,
    class_index,
    size_classes,
)
from .privacy_proxy import ENVELOPE_OVERHEAD, ClientEnvelope, EnvelopeCodec
from .workload import Distribution, Mode, WorkloadSpec
from .zone_sim import (
    SENSITIVE_PAD_WIDTH,
    CrashPoint,
    CrashPointId,
    CrashTarget,
    RunReport,
    ZoneTopology,
)

FID_METADATA_BYTES = 8


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
    store = MappingStore(FidConfig())
    pid = store.create_partition(PartitionKind.TEMPORARY, ValueLayout.FIXED, 4)
    payload = b"\x01\x02\x03\x04"
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


@dataclass
class StorageReport:
    fields: int
    width: int
    plaintext_total: int
    ciphertext_total: int
    fid_dbms_bytes: int
    fid_store_bytes: int
    fid_seal_overhead: int
    fid_total: int
    metadata_fid_per_field: int
    metadata_aead_per_field: int
    metadata_reduction_pct: float


def bench_storage(fields_n: int, field_width: int = 4) -> StorageReport:
    """Byte totals for the three layouts: plaintext, per-field envelopes,
    and FID references with block-level sealing."""
    if fields_n < 1:
        raise ValueError("fields_n must be >= 1")
    plaintext = fields_n * field_width
    ciphertext = fields_n * (field_width + ENVELOPE_OVERHEAD)
    fid_dbms = fields_n * FID_METADATA_BYTES
    fid_store = fields_n * field_width
    seal = ((fid_store + BLOCK_SIZE - 1) // BLOCK_SIZE) * SEALED_OVERHEAD
    reduction = 100.0 * (1 - FID_METADATA_BYTES / (field_width + ENVELOPE_OVERHEAD))
    return StorageReport(
        fields=fields_n,
        width=field_width,
        plaintext_total=plaintext,
        ciphertext_total=ciphertext,
        fid_dbms_bytes=fid_dbms,
        fid_store_bytes=fid_store,
        fid_seal_overhead=seal,
        fid_total=fid_dbms + fid_store + seal,
        metadata_fid_per_field=FID_METADATA_BYTES,
        metadata_aead_per_field=ENVELOPE_OVERHEAD,
        metadata_reduction_pct=reduction,
    )


def estimate_data_blocks(spec: WorkloadSpec) -> int:
    """4 KiB blocks backing the preloaded tables. Each table partition holds
    one int64 k and one padded c per row; each lands in its own size-class
    bucket, and each bucket fills whole blocks."""
    classes = size_classes(DEFAULT_MAX_VALUE_LEN)
    per_table = 0
    for length in (8, SENSITIVE_PAD_WIDTH):
        nbytes = spec.rows_per_table * classes[class_index(length, classes)]
        per_table += (nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE
    return max(1, spec.tables * per_table)


def cache_blocks_for_pct(spec: WorkloadSpec, cache_pct: float) -> int:
    return max(1, int(estimate_data_blocks(spec) * cache_pct / 100.0))


def bench_workload(seed: int, spec: WorkloadSpec, *, backend: str = "fid",
                   cache_pct: float | None = None,
                   data_dir: str | None = None) -> tuple[RunReport, dict]:
    """One simulator run; returns the report and its stable CSV row."""
    capacity = None
    if cache_pct is not None:
        capacity = cache_blocks_for_pct(spec, cache_pct)
    topo = ZoneTopology(seed, backend=backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=capacity, data_dir=data_dir)
    report = topo.run_workload(spec)
    row = {
        "seed": seed,
        "backend": backend,
        "mode": spec.mode.value,
        "dist": spec.distribution.value,
        "theta": spec.theta,
        "cache_pct": cache_pct if cache_pct is not None else 100.0,
        "batch": spec.batch_size,
        "ops": report.ops_completed,
        "committed": report.txns_committed,
        "aborted": report.txns_aborted,
        "conflicts": report.write_conflicts,
        "round_trips": report.round_trips,
        "msg_bytes": report.msg_bytes,
        "hit_rate": round(report.hit_rate, 6),
        "page_faults": report.page_faults,
        "store_seals": report.store_seals,
        "store_opens": report.store_opens,
        "envelope_encrypts": report.envelope_encrypts,
        "envelope_decrypts": report.envelope_decrypts,
        "cipher_field_crypto": report.cipher_field_crypto,
        "promote_calls": report.promote_calls,
        "invariant": report.invariant_holds,
        "violations": report.violations,
        "orphans": report.orphans,
    }
    return report, row


WORKLOAD_CSV_COLUMNS = [
    "seed", "backend", "mode", "dist", "theta", "cache_pct", "batch", "ops",
    "committed", "aborted", "conflicts", "round_trips", "msg_bytes",
    "hit_rate", "page_faults", "store_seals", "store_opens",
    "envelope_encrypts", "envelope_decrypts", "cipher_field_crypto",
    "promote_calls", "invariant", "violations", "orphans",
]

MATRIX_POINTS: list[tuple[CrashPointId, CrashTarget]] = [
    (CrashPointId.BEFORE_PRIVACY_FLUSH, CrashTarget.BOTH),
    (CrashPointId.AFTER_PRIVACY_FLUSH_BEFORE_DB_COMMIT, CrashTarget.BOTH),
    (CrashPointId.AFTER_DB_COMMIT, CrashTarget.BOTH),
    (CrashPointId.DURING_VACUUM, CrashTarget.BOTH),
    (CrashPointId.DURING_ORPHAN_GC, CrashTarget.BOTH),
    (CrashPointId.RANDOM_BYTE, CrashTarget.PRIVACY),
]

MATRIX_CSV_COLUMNS = [
    "crash_point", "target", "seed", "fired", "violations", "orphans_pre_gc",
    "gc_reclaimed", "orphans_post_gc", "privacy_replayed", "db_replayed",
    "committed_before_crash",
]


def default_matrix_spec(ops: int = 10_000) -> WorkloadSpec:
    return WorkloadSpec(mode=Mode.READ_WRITE, distribution=Distribution.UNIFORM,
                        tables=2, rows_per_table=200, duration_ops=ops,
                        threads_simulated=2, batch_size=64, abort_ratio=0.05)


def run_crash_matrix(seeds_n: int, spec: WorkloadSpec | None = None,
                     base_seed: int = 1000,
                     points: list[tuple[CrashPointId, CrashTarget]] | None = None,
                     on_row=None) -> list[dict]:
    """Every crash point crossed with seeds_n seeds; after each recovery the
    external-synchrony invariant must hold with zero dangling FIDs."""
    spec = spec or default_matrix_spec()
    rows = []
    for point_id, target in points or MATRIX_POINTS:
        for i in range(seeds_n):
            seed = base_seed + i
            topo = ZoneTopology(seed, batch_size=spec.batch_size)
            if point_id == CrashPointId.RANDOM_BYTE:
                occurrence = 40 + (seed % 200)  # statements into the run
            elif point_id == CrashPointId.DURING_ORPHAN_GC:
                occurrence = 1 + (seed % spec.tables)  # per-partition scan hits
            elif point_id == CrashPointId.DURING_VACUUM:
                occurrence = 1 + (seed % 5)
            else:
                occurrence = 3 + (seed % 10)  # qualifying commits into the run
            topo.inject_crash(CrashPoint(point_id, target, at_occurrence=occurrence))
            report = topo.run_workload(spec)
            fired = topo.fired is not None
            row = {
                "crash_point": point_id.value,
                "target": target.value,
                "seed": seed,
                "fired": fired,
                "violations": 0,
                "orphans_pre_gc": 0,
                "gc_reclaimed": 0,
                "orphans_post_gc": 0,
                "privacy_replayed": 0,
                "db_replayed": 0,
                "committed_before_crash": report.txns_committed,
            }
            if fired:
                recovery = topo.recover_all()
                row["violations"] = len(recovery.invariant.violations)
                row["orphans_pre_gc"] = recovery.invariant.orphans
                row["privacy_replayed"] = recovery.privacy_replayed
                row["db_replayed"] = recovery.db_replayed
                row["gc_reclaimed"] = topo.integrity.db.orphan_gc()
                after = topo.check_invariant()
                row["violations"] += len(after.violations)
                row["orphans_post_gc"] = after.orphans
            else:
                row["violations"] = report.violations
            rows.append(row)
            if on_row is not None:
                on_row(row)
    return rows
