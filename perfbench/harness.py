"""One round of a workload, the checks on its results, and its metrics.

A round builds a topology, generates the program, runs it through
`ZoneTopology.run_program` (preload, transactions, vacuum, orphan GC,
invariant check), then crashes both zones and recovers them a few times,
and finally reads every row back. Every round of a run replays the same
program, so count metrics repeat exactly and timings get several samples.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace

from fidstore.atrest_storage import SEALED_OVERHEAD
from fidstore.mapping_store import BLOCK_SIZE
from fidstore.privacy_proxy import decode_int64
from fidstore.workload import WorkloadProgram, flatten_schedule, generate_workload
from fidstore.zone_sim import ZoneTopology, _Runner, unpad_sensitive
from tests.oracles import ShadowRunner

from .metrics import MESSAGE_KINDS, PHASES
from .probes import MSG_KINDS, PhaseMeter, Tracer
from .workloads import Workload

SEALED_BLOCK_BYTES = SEALED_OVERHEAD + BLOCK_SIZE
RECOVERY_CYCLES = 3
# Extra set-ups timed after each round, so setup_s has a few samples per
# round spread over the run.
SETUP_PROBES = 2
# Transaction timings are taken per window of this many consecutive
# finished transactions, a few tenths of a second at most: the host's speed
# state (see fast_state) rarely changes inside one.
WINDOW = 250
FAST_STATE_PERCENTILE = 5
COUNT_METRICS = ("round_trips_per_txn", "msg_bytes_per_txn", "crypto_per_txn",
                 "space_amp", "abort_rate")


def measure_data_blocks(workload: Workload, seed: int) -> int:
    """Blocks backing the tables once preloaded, with an unbounded cache."""
    spec = replace(workload.spec(), duration_ops=0)
    topo = ZoneTopology(seed, backend=workload.backend, batch_size=spec.batch_size)
    topo.run_program(generate_workload(spec, seed))
    store = topo.privacy.store
    return sum(len(store.partition_blocks(t.partition_id))
               for t in topo.integrity.db.tables_by_idx)


def cache_blocks(workload: Workload, data_blocks: int) -> int | None:
    if workload.cache_fraction is None:
        return None
    return max(1, int(data_blocks * workload.cache_fraction))


@dataclass
class Reference:
    """What a plaintext replay of the same program and schedule produced."""

    revealed: list
    committed: int
    aborted: int
    conflicts: int
    rows: list[dict[int, tuple[int, bytes]]]  # per table: row id -> (k, c)

    @property
    def user_bytes(self) -> int:
        """Unpadded k + c bytes of the rows visible at the end."""
        return sum(8 + len(c) for table in self.rows for _, c in table.values())


def replay(program: WorkloadProgram) -> Reference:
    shadow = ShadowRunner(program, flatten_schedule(program)).run()
    rows = [{row_id: (cells[1], cells[2])
             for row_id, cells in shadow.db.quiescent_rows(t).items()}
            for t in range(program.spec.tables)]
    return Reference(shadow.revealed, shadow.committed, shadow.aborted,
                     shadow.conflicts, rows)


@dataclass
class Round:
    setup_s: list[float]  # the round's own set-up, then the probes
    generate_s: float
    txn_wall_s: float
    committed: int
    latencies: list[float]
    window_rates: list[float]
    maintenance_s: float
    recovery_s: list[float]
    gc_pause_s: float
    counts: dict[str, float]
    kinds: dict[str, int]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def txn_per_s(self) -> float:
        return self.committed / self.txn_wall_s

    def fail(self, n: int, what: str) -> None:
        if n:
            self.failed += n
            self.problems.append(f"{n} x {what}")


def durable_bytes(topo: ZoneTopology) -> int:
    """Both WALs' durable bytes, both zones' snapshot blobs, sealed blocks."""
    total = topo.store_wal_buffer.durable_len + topo.dbwal_buffer.durable_len
    for snapshots in (topo.priv_snapshots, topo.db_snapshots):
        total += sum(len(snapshots.get(name)) for name in snapshots.names())
    return total + len(topo.sealed_store.blocks) * SEALED_BLOCK_BYTES


def run_round(workload: Workload, seed: int, cache: int | None,
              reference: Reference, meter: PhaseMeter, *,
              tracer: Tracer | None = None,
              recovery_cycles: int = RECOVERY_CYCLES) -> Round:
    perf = time.perf_counter
    spec = workload.spec()
    gc.collect()
    t0 = perf()
    topo = ZoneTopology(seed, backend=workload.backend,
                        batch_size=spec.batch_size, cache_capacity_blocks=cache)
    t1 = perf()
    program = generate_workload(spec, seed)
    t2 = perf()
    meter.start_round(topo)
    if tracer is not None:
        tracer.start_round()
    report = topo.run_program(program)
    t3 = perf()

    txn = meter.counts["txn"]
    committed = report.txns_committed
    attempted_txns = committed + report.txns_aborted
    result = Round(
        setup_s=[(t2 - t0) + meter.preload_s],
        generate_s=t2 - t1,
        txn_wall_s=meter.last_end - meter.first_begin,
        committed=committed,
        latencies=meter.latencies,
        window_rates=window_rates(meter.first_begin, meter.finish_times,
                                  meter.committed),
        maintenance_s=t3 - meter.last_end,
        recovery_s=[],
        gc_pause_s=0.0,
        counts={"round_trips_per_txn": txn["calls"] / committed,
                "msg_bytes_per_txn": txn["bytes"] / committed,
                "crypto_per_txn": meter.crypto("txn") / committed,
                "space_amp": durable_bytes(topo) / reference.user_bytes,
                "abort_rate": report.txns_aborted / attempted_txns},
        kinds={},
        attempted=report.ops_completed + report.write_conflicts)
    check_run(result, report, reference)

    for _ in range(recovery_cycles):
        meter.set_phase("recover")
        topo.privacy.crash()
        topo.integrity.crash()
        t4 = perf()
        recovery = topo.recover_all()
        result.recovery_s.append(perf() - t4)
        result.fail(len(recovery.invariant.violations),
                    "invariant violation after recovery")

    result.gc_pause_s = meter.gc2_s
    result.kinds = {MSG_KINDS[k]: sum(meter.kinds[p][k] for p in PHASES)
                    for k in MSG_KINDS}
    if tracer is not None:
        result.layers = layer_metrics(meter, tracer, result)
    meter.set_phase("verify")
    read_back(topo, reference, result)
    del topo, program, report
    for _ in range(SETUP_PROBES):
        gc.collect()
        result.setup_s.append(time_setup(workload, seed, cache))
    return result


def time_setup(workload: Workload, seed: int, cache: int | None) -> float:
    """One more set-up, timed alone: topology, program and preload. The
    preload is the one `run_program` runs before its first transaction."""
    spec = workload.spec()
    t0 = time.perf_counter()
    topo = ZoneTopology(seed, backend=workload.backend,
                        batch_size=spec.batch_size, cache_capacity_blocks=cache)
    _Runner(topo, generate_workload(spec, seed))._preload(topo.integrity.db)
    return time.perf_counter() - t0


def window_rates(first_begin: float, finish_times: list[float],
                 committed: list[bool]) -> list[float]:
    """Committed txns per second in each full window of WINDOW finished
    transactions, from the first begin on."""
    times = [first_begin] + finish_times
    return [sum(committed[i:i + WINDOW]) / (times[i + WINDOW] - times[i])
            for i in range(0, len(finish_times) - WINDOW + 1, WINDOW)]


def check_run(result: Round, report, reference: Reference) -> None:
    """Compares the run with the plaintext replay."""
    if report.crashed_at is not None:
        result.fail(1, f"run stopped at {report.crashed_at}")
    got, want = report.revealed, reference.revealed
    result.fail(sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want)),
                "revealed value differs from the plaintext replay")
    for name, ours, theirs in (("committed", report.txns_committed, reference.committed),
                               ("aborted", report.txns_aborted, reference.aborted),
                               ("conflicts", report.write_conflicts, reference.conflicts)):
        result.fail(int(ours != theirs), f"{name} {ours} != replay's {theirs}")
    if report.invariant_holds is not True:
        result.fail(max(1, report.violations), "invariant violation after the run")


def read_back(topo: ZoneTopology, reference: Reference, result: Round) -> None:
    """Reads every visible row's k and c after recovery and compares them
    with the replay's final state."""
    db = topo.integrity.db
    client = topo.client
    txn = db.begin()
    if topo.backend_name == "cipher":
        reveal = client.cipher_reveal
    else:
        reveal = client.reveal
    mismatched = 0
    checked = 0
    for table, expected in zip(db.tables_by_idx, reference.rows):
        k_col, c_col = table.col_index["k"], table.col_index["c"]
        seen = set()
        for row_id in list(table.rows):
            version = db.visible_version(table, row_id, txn)
            if version is None:
                continue
            seen.add(row_id)
            k = decode_int64(topo.client_decrypt(
                reveal(txn.query_id, version.cells[k_col])))
            c = unpad_sensitive(topo.client_decrypt(
                reveal(txn.query_id, version.cells[c_col])))
            mismatched += (k, c) != expected.get(row_id)
        missing = len(expected.keys() - seen)
        checked += len(seen) + missing
        mismatched += missing
    db.abort(txn)
    client.end_query(txn.query_id)
    result.attempted += checked
    result.fail(mismatched, "row differs from the replay after recovery")


def layer_metrics(meter: PhaseMeter, tracer: Tracer, result: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round (txn, maint, check and one
    recovery; the at-rest counters cover the txn phase only)."""
    calls = tracer.by_name(tracer.calls)
    incl = tracer.by_name(tracer.incl_ns)
    self_ns = tracer.by_name(tracer.self_ns)
    extra = tracer.extra

    def seconds(*names: str) -> float:
        return sum(incl.get(n, 0) for n in names) / 1e9

    def layer_self(prefix: str) -> float:
        return sum(v for n, v in self_ns.items() if n.startswith(prefix)) / 1e9

    def mean_ns(name: str) -> float:
        return incl.get(name, 0) / calls[name] if calls.get(name) else 0.0

    out: dict[str, float] = {}
    for p in PHASES:
        out[f"zone_sim.channel.calls.{p}"] = meter.counts[p]["calls"]
        out[f"zone_sim.channel.bytes.{p}"] = meter.counts[p]["bytes"]
    out["zone_sim.check_invariant.s"] = seconds("zone_sim.check_invariant")
    for kind in MESSAGE_KINDS:
        out[f"messages.calls.{kind}"] = result.kinds.get(kind, 0)
    out["messages.client.self_s"] = layer_self("messages.client.")
    out["messages.dispatch.self_s"] = layer_self("messages.dispatch.")
    out["privacy_proxy.self_s"] = layer_self("privacy_proxy.")
    out["privacy_proxy.envelope.calls"] = (calls.get("privacy_proxy.envelope.encrypt", 0)
                                           + calls.get("privacy_proxy.envelope.decrypt", 0))
    out["privacy_proxy.envelope.s"] = seconds("privacy_proxy.envelope.encrypt",
                                              "privacy_proxy.envelope.decrypt")
    for op in ("put", "get", "delete", "promote"):
        out[f"mapping_store.{op}.calls"] = calls.get(f"mapping_store.{op}", 0)
    out["mapping_store.put.ns"] = mean_ns("mapping_store.put")
    out["mapping_store.get.ns"] = mean_ns("mapping_store.get")
    out["mapping_store.self_s"] = layer_self("mapping_store.")

    atrest = meter.atrest_txn
    txn = meter.counts["txn"]
    accesses = atrest["hits"] + atrest["faults"]
    out["atrest_storage.hit_rate"] = atrest["hits"] / accesses if accesses else 1.0
    for key in ("faults", "prefetched", "stale_dropped"):
        out[f"atrest_storage.{key}"] = atrest[key]
    out["atrest_storage.opens"] = txn["opens"]
    out["atrest_storage.seals"] = txn["seals"]
    out["atrest_storage.opens_per_fault"] = txn["opens"] / max(1, atrest["faults"])
    out["atrest_storage.open.s"] = seconds("atrest_storage.open")
    out["atrest_storage.seal.s"] = seconds("atrest_storage.seal")
    out["atrest_storage.self_s"] = layer_self("atrest_storage.")

    flushes = calls.get("wal.flush", 0)
    out["wal.appends"] = calls.get("wal.append", 0)
    out["wal.append_bytes"] = extra["wal.append_bytes"]
    out["wal.flushes"] = flushes
    out["wal.flush_useful_ratio"] = extra["wal.useful_flushes"] / flushes if flushes else 1.0
    out["wal.flush.s"] = seconds("wal.flush")
    out["wal.recover.s"] = seconds("wal.recover")
    out["wal.replayed_records"] = extra["wal.replayed_records"]

    out["durability.syncs"] = calls.get("durability.sync", 0)
    out["durability.sync_bytes.privacy"] = extra["durability.sync_bytes.privacy"]
    out["durability.sync_bytes.integrity"] = extra["durability.sync_bytes.integrity"]
    out["durability.sync.s"] = seconds("durability.sync")

    out["integrity_dbms.visible_version.calls"] = calls.get("integrity_dbms.visible_version", 0)
    out["integrity_dbms.visible_version.ns"] = mean_ns("integrity_dbms.visible_version")
    for op in ("commit", "vacuum", "orphan_gc", "recover"):
        out[f"integrity_dbms.{op}.s"] = seconds(f"integrity_dbms.{op}")
    out["integrity_dbms.aggregate.calls"] = calls.get("integrity_dbms.aggregate", 0)
    out["integrity_dbms.replayed_records"] = extra["integrity_dbms.replayed_records"]
    out["integrity_dbms.self_s"] = layer_self("integrity_dbms.")
    out["workload.generate_s"] = result.generate_s
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    value there: (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(0, n - 11)
    return 100.0 * (index + 1) / n, ordered[index]


def windows(values: list[float]) -> list[list[float]]:
    return [values[i:i + WINDOW] for i in range(0, len(values) - WINDOW + 1, WINDOW)]


def fast_state_latency(latencies: list[list[float]], q: float) -> float:
    """Percentile q of the latencies pooled over the fastest 5 % of windows
    (at least 4, so a p99 has ten samples beyond it), ranked by median."""
    ranked = sorted((w for per_round in latencies for w in windows(per_round)),
                    key=lambda w: percentile(w, 50))
    n = max(4, len(ranked) * FAST_STATE_PERCENTILE // 100)
    return percentile([x for w in ranked[:n] for x in w], q)


def fast_state(values, higher: bool = False) -> float:
    """The fast-state value of a timing: the 5th percentile of its samples
    (the 95th for a rate), which is the minimum below 20 samples.

    Contention from other tenants only ever adds time. On the 2-vCPU host
    the benchmark was built on, the same code runs in one of two speed
    states 1.7x apart, each lasting from a second to a minute, so a median
    or a mean mostly measures how long a run spent in the slow state. A
    change that slows every transaction moves this value in full; a stall
    that hits fewer than 5 % of the windows does not, which is what the
    per-layer zone_sim.gc_pause_s and zone_sim.txn_tail_us are for."""
    ordered = sorted(values, reverse=higher)
    return ordered[len(ordered) * FAST_STATE_PERCENTILE // 100]
