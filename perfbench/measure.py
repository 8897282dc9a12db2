"""Runs rounds of one workload for --seconds, checks them, and prints the
metrics and the JSON result line."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from fidstore.workload import generate_workload

from .harness import (
    COUNT_METRICS,
    cache_blocks,
    fast_state,
    fast_state_latency,
    measure_data_blocks,
    replay,
    run_round,
    tail,
)
from .metrics import END_TO_END, PER_LAYER, TIMINGS, UNITS
from .probes import Patches, PhaseMeter, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Repeats rounds of one workload for a while and sums their checks."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.data_blocks = measure_data_blocks(workload, seed)
        self.cache = cache_blocks(workload, self.data_blocks)
        self.reference = replay(generate_workload(workload.spec(), seed))
        self.meter = PhaseMeter()
        # The reference stays alive for the whole run; keep the collector
        # from rescanning it, so gen-2 passes see the program's objects only.
        gc.collect()
        gc.freeze()
        self.attempted = 0
        self.failed = 0

    def round(self, **kwargs):
        """One round, or None when it raised (counted as a failed op)."""
        try:
            result = run_round(self.workload, self.seed, self.cache,
                               self.reference, self.meter, **kwargs)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        self.attempted += result.attempted
        self.failed += result.failed
        for problem in result.problems:
            print(f"# check failed: {problem}", file=sys.stderr)
        print(f"# round{' (traced)' if kwargs.get('tracer') else ''}: "
              f"{result.txn_per_s:.1f} txn/s, setup "
              f"{' '.join(f'{x:.3f}' for x in result.setup_s)} s, "
              f"maintenance {result.maintenance_s:.3f} s, recovery "
              f"{' '.join(f'{x:.3f}' for x in result.recovery_s)} s")
        return result

    def repeat(self, step) -> bool:
        """Calls step() until the time is up; False when a round failed."""
        start = time.perf_counter()
        while True:
            if not step():
                return False
            if time.perf_counter() - start >= self.seconds:
                return True


def end_to_end(run: Run) -> dict[str, float]:
    rounds = []

    def step() -> bool:
        result = run.round()
        if result is not None:
            rounds.append(result)
        return result is not None and not result.failed

    run.repeat(step)
    if not rounds:
        return {}
    first = rounds[0]
    for r in rounds[1:]:
        if r.counts != first.counts or r.kinds != first.kinds:
            run.failed += 1
            print("# check failed: counts differ between rounds of one seed",
                  file=sys.stderr)
    print(f"# rounds {len(rounds)}, txn latency samples "
          f"{sum(len(r.latencies) for r in rounds)}, recovery samples "
          f"{sum(len(r.recovery_s) for r in rounds)}")
    metrics = timings(rounds)
    metrics["setup_s"] = fast_state([x for r in rounds for x in r.setup_s])
    metrics.update({name: first.counts[name] for name in COUNT_METRICS})
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def timings(rounds) -> dict[str, float]:
    """The TIMINGS metrics of untraced rounds."""
    latencies = [r.latencies for r in rounds]
    return {
        "txn_per_s": fast_state([x for r in rounds for x in r.window_rates],
                                higher=True),
        "txn_p50_us": fast_state_latency(latencies, 50) * 1e6,
        "txn_p99_us": fast_state_latency(latencies, 99) * 1e6,
        "maintenance_s": fast_state([r.maintenance_s for r in rounds]),
        "recovery_s": fast_state([x for r in rounds for x in r.recovery_s]),
    }


def per_layer(run: Run) -> dict[str, float]:
    tracer = Tracer(run.meter)
    untraced, traced = [], []

    def pair() -> bool:
        untraced.append(run.round(recovery_cycles=1))
        if untraced[-1] is None or untraced[-1].failed:
            return False
        tracer.keep = not traced
        with Patches() as patches:
            tracer.install(patches)
            traced.append(run.round(tracer=tracer, recovery_cycles=1))
        tracer.keep = False
        return traced[-1] is not None and not traced[-1].failed

    if not run.repeat(pair):
        return {}
    layers = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    pct, value = tail([x for r in untraced for x in r.latencies])
    print(f"# rounds {len(traced)} traced, {len(untraced)} untraced; "
          f"txn tail is p{pct:.3f}")
    layers["zone_sim.txn_tail_us"] = value * 1e6
    layers.update({f"zone_sim.{name}": v for name, v in timings(untraced).items()})
    layers["zone_sim.gc_pause_s"] = statistics.median(r.gc_pause_s for r in untraced)
    layers["tracing.overhead"] = (
        fast_state([x for r in untraced for x in r.window_rates], higher=True)
        / fast_state([x for r in traced for x in r.window_rates], higher=True))
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{run.workload.name}-seed{run.seed}.tsv")
    kept = tracer.write_spans(path)
    print(f"# {kept} spans of the first traced round written to "
          f"{os.path.relpath(path, ROOT)}")
    return layers


def main(workload, seed: int, seconds: float, trace: bool) -> int:
    run = Run(workload, seed, seconds)
    cache = run.cache if run.cache is not None else run.data_blocks
    ratio = run.data_blocks / cache if cache else 1.0
    print(f"# workload {workload.name}: {json.dumps(workload.params())}")
    print(f"# data blocks {run.data_blocks}, cache blocks "
          f"{run.cache if run.cache is not None else 'unbounded'}, "
          f"data:cache {ratio:.3f}")

    with Patches() as patches:
        run.meter.install(patches)
        metrics = per_layer(run) if trace else end_to_end(run)
    names = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    printed = names if trace else names + [m[0] for m in TIMINGS]
    if metrics and set(metrics) != set(printed):
        run.failed += 1
        metrics = {}
    for name in printed:
        if name in metrics:
            gate = "" if name in names else "  (not gated)"
            print(f"{name:40s} {metrics[name]:.6g} {UNITS[name]}{gate}")
    error_rate = run.failed / max(1, run.attempted)
    print(f"{'error_rate':40s} {error_rate:.6g} {UNITS['error_rate']}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name in names if name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
