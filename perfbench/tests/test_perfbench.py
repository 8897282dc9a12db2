"""Self-tests of the benchmark, at a small size.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os

import pytest

from fidstore import zone_sim
from fidstore.workload import generate_workload
from fidstore.zone_sim import ZoneTopology
from perfbench import harness
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.probes import TRACED, Patches, PhaseMeter, Tracer
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 11


def small(name: str):
    return dataclasses.replace(WORKLOADS[name], rows_per_table=120, txns=300)


def prepared(name: str):
    workload = small(name)
    cache = harness.cache_blocks(workload, harness.measure_data_blocks(workload, SEED))
    reference = harness.replay(generate_workload(workload.spec(), SEED))
    return workload, cache, reference


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(name):
    workload, cache, reference = prepared(name)
    results = []
    for _ in range(2):
        meter = PhaseMeter()
        tracer = Tracer(meter)
        with Patches() as patches:
            meter.install(patches)
            tracer.install(patches)
            results.append(harness.run_round(workload, SEED, cache, reference,
                                             meter, tracer=tracer,
                                             recovery_cycles=1))
    first, second = results
    assert first.failed == 0 and second.failed == 0, first.problems + second.problems
    assert first.counts == second.counts
    assert first.kinds == second.kinds
    kind_metrics = {k: v for k, v in first.layers.items()
                    if k.startswith("messages.calls.")}
    assert kind_metrics == {k: second.layers[k] for k in kind_metrics}
    assert sum(kind_metrics.values()) > 0
    assert all(v > 0 for v in first.counts.values())


def adversary_events(name: str, traced: bool) -> list:
    workload = small(name)
    spec = workload.spec()
    cache = harness.cache_blocks(workload, harness.measure_data_blocks(workload, SEED))
    topo = ZoneTopology(SEED, backend=workload.backend, batch_size=spec.batch_size,
                        cache_capacity_blocks=cache)
    program = generate_workload(spec, SEED)

    def run():
        topo.run_program(program)
        topo.privacy.crash()
        topo.integrity.crash()
        topo.recover_all()

    if not traced:
        run()
        return topo.trace.events
    meter = PhaseMeter()
    tracer = Tracer(meter)
    with Patches() as patches:
        meter.install(patches)
        tracer.install(patches)
        meter.start_round(topo)
        tracer.start_round()
        tracer.keep = True
        run()
    assert sum(tracer.calls) > 0 and len(tracer.kept["id"]) > 0
    return topo.trace.events


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_adversary_trace_unchanged_by_tracing(name):
    assert adversary_events(name, traced=True) == adversary_events(name, traced=False)


def test_wrappers_restore_originals():
    meter_targets = [(cls, m) for cls, _, methods in TRACED for m in methods]
    meter_targets.append((zone_sim._Runner, "_preload"))
    before = {(cls, m): cls.__dict__[m] for cls, m in meter_targets}
    callbacks = list(gc.callbacks)
    meter = PhaseMeter()
    tracer = Tracer(meter)
    with Patches() as patches:
        meter.install(patches)
        tracer.install(patches)
        assert all(cls.__dict__[m] is not before[(cls, m)] for cls, m in meter_targets)
        assert len(gc.callbacks) == len(callbacks) + 1
    assert all(cls.__dict__[m] is before[(cls, m)] for cls, m in meter_targets)
    assert gc.callbacks == callbacks


def test_correctness_gate_counts_mismatches():
    workload, cache, reference = prepared("oltp_rw")
    point = next(i for i, r in enumerate(reference.revealed) if r[0] == "point")
    kind, table, key, value = reference.revealed[point]
    revealed = list(reference.revealed)
    revealed[point] = (kind, table, key, value + 1)
    rows = [dict(t) for t in reference.rows]
    row_id, (k, c) = next(iter(rows[0].items()))
    rows[0][row_id] = (k + 1, c)
    wrong = dataclasses.replace(reference, revealed=revealed, rows=rows)
    meter = PhaseMeter()
    with Patches() as patches:
        meter.install(patches)
        result = harness.run_round(workload, SEED, cache, wrong, meter,
                                   recovery_cycles=1)
    assert result.failed == 2, result.problems


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == \
        [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [tuple(m) for m in PER_LAYER]
