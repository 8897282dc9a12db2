"""The benchmark's four workloads and the reason each one exists.

All four load 2 tables x 2000 rows (142 blocks of 4 KiB once preloaded,
71 per partition), far more rows than the 4 simulated clients, which
`flatten_schedule` interleaves round-robin on one OS thread as a closed
loop: a client issues its next statement only when the previous one has
returned. The two cold workloads give the page cache a quarter of the
measured block count. Every round of a run replays the same program, so
counts repeat exactly for a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from fidstore.workload import Distribution, Mode, WorkloadSpec

TABLES = 2
ROWS_PER_TABLE = 2000
CLIENTS = 4
BATCH_SIZE = 256
ABORT_RATIO = 0.05
COLD_CACHE_FRACTION = 0.25
# Enough transactions per round that the seed-to-seed spread of abort_rate
# (a binomial share of about 5 %) stays well inside its bound.
TXNS_PER_ROUND = 10_000


@dataclass(frozen=True)
class Workload:
    name: str
    mode: Mode
    distribution: Distribution
    backend: str
    cache_fraction: float | None  # of the measured data blocks; None: all fit
    why: str
    theta: float = 0.8
    rows_per_table: int = ROWS_PER_TABLE
    txns: int = TXNS_PER_ROUND

    def spec(self) -> WorkloadSpec:
        return WorkloadSpec(mode=self.mode, distribution=self.distribution,
                            theta=self.theta, tables=TABLES,
                            rows_per_table=self.rows_per_table,
                            duration_ops=self.txns,
                            threads_simulated=CLIENTS, batch_size=BATCH_SIZE,
                            abort_ratio=ABORT_RATIO)

    def params(self) -> dict:
        return {"mode": self.mode.value, "distribution": self.distribution.value,
                "theta": self.theta if self.distribution == Distribution.ZIPFIAN
                else None,
                "backend": self.backend, "tables": TABLES,
                "rows_per_table": self.rows_per_table, "txns_per_round": self.txns,
                "clients": CLIENTS, "batch_size": BATCH_SIZE,
                "abort_ratio": ABORT_RATIO, "cache_fraction": self.cache_fraction}


WORKLOADS = {w.name: w for w in (
    Workload("oltp_rw", Mode.READ_WRITE, Distribution.UNIFORM, "fid", None,
             "Round-trip-bound OLTP path with all data cached: channel, proxy, "
             "store, a WAL flush per commit and MVCC show; at-rest changes "
             "should not."),
    Workload("scan_cold", Mode.RANGE_SELECT, Distribution.UNIFORM, "fid",
             COLD_CACHE_FRACTION,
             "Read-only range sums over a cache a quarter of the data: "
             "prefetch, block opens and read-only flushes show; write-path "
             "changes should not."),
    Workload("update_zipf_cold", Mode.WRITE_ONLY, Distribution.ZIPFIAN, "fid",
             COLD_CACHE_FRACTION,
             "Skewed write-only churn over a cold cache: WAL growth, the "
             "longest replay, dirty-block seals and conflicts show; prefetch "
             "changes should not."),
    Workload("oltp_rw_cipher", Mode.READ_WRITE, Distribution.UNIFORM, "cipher",
             None,
             "The oltp_rw program on the per-field AEAD baseline, so a "
             "shared-layer change that slows the baseline cannot inflate the "
             "fid/cipher ratio unseen."),
)}
