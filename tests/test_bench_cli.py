import contextlib
import dataclasses
import io
import random
import re

import pytest

from fidstore import bench, cli, wal
from fidstore.bench import (
    checkpoint_matrix_spec,
    checkpoint_plan,
    default_matrix_spec,
    default_plan,
    lost_values,
    row_states,
    run_crash_matrix,
)
from fidstore.workload import Distribution, Mode
from fidstore.zone_sim import CrashPoint, ZoneTopology

from .crashes import crash_one

# A matrix small enough for Tier-1: 2 tables of 10 rows, 16 ops, and a
# checkpoint run of 40 write-only ops that crosses a 2 KiB interval.
TINY_OPS = 16
TINY_CHECKPOINT_OPS = 40
TINY_INTERVAL = 2048


def _tiny_spec(ops: int = TINY_OPS):
    return dataclasses.replace(default_matrix_spec(ops), rows_per_table=10,
                               batch_size=8)


@pytest.fixture(scope="module")
def tiny_matrix():
    """The crash-matrix CLI over the tiny spec at one seed: its exit code,
    its stdout and its rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "CHECKPOINT_MATRIX_OPS", TINY_CHECKPOINT_OPS)
        mp.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", TINY_INTERVAL)
        mp.setattr(cli, "default_matrix_spec", _tiny_spec)
        rows = []

        def recorded(*args, **kwargs):
            rows.extend(run_crash_matrix(*args, **kwargs))
            return rows

        mp.setattr(cli, "run_crash_matrix", recorded)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["crash-matrix", "--seeds", "1", "--ops", str(TINY_OPS)])
        yield code, out.getvalue(), rows


def test_cli_ops(capsys):
    assert cli.main(["ops", "--iters", "10000"]) == 0
    assert "encrypt/put ratio" in capsys.readouterr().out


def test_cli_offers_exactly_ops_and_crash_matrix(capsys):
    """Workload performance comes from perfbench/run.py alone, and durable
    size from its space_amp: the CLI has no workload or storage command."""
    assert "{ops,crash-matrix}" in cli.build_parser().format_usage()
    with pytest.raises(SystemExit) as exc:
        cli.main(["workload"])
    assert exc.value.code == 2


def test_cli_crash_matrix_passes(tiny_matrix):
    """Every row of both runs at both cache sizes fires, every torn row
    tears, and none finds a violation or a lost value; the census before
    each sweep counts the run's writes by zone and method."""
    code, out, rows = tiny_matrix
    assert code == 0
    assert f"ok: {len(rows)} runs, 0 violations" in out
    assert all(row["fired"] for row in rows)
    assert {row["cache_blocks"] for row in rows} == {None, 1}
    assert any(" torn " in row["crash_point"] for row in rows)
    assert out.count("census seed=1000") == 4
    assert "integrity sync" in out and "privacy write" in out


def test_cli_matrix_runs_every_ordinal_its_sampling_keeps(tiny_matrix):
    """Each run's rows are exactly its plan, drawn from a dry run's write
    record: the default run crashes both zones before every write, the
    checkpoint run before every write that is not a sync and is not an
    eviction's seal or discard its sampling left out, and a row names its
    write by ordinal and label."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "CHECKPOINT_MATRIX_OPS", TINY_CHECKPOINT_OPS)
        mp.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", TINY_INTERVAL)
        _, _, rows = tiny_matrix
        spec = _tiny_spec()
        expected = []
        for cache in bench.matrix_caches(spec, 1000):
            for name, run_spec, make_plan in (
                    ("default", spec, default_plan),
                    ("checkpoint", checkpoint_matrix_spec(spec), checkpoint_plan)):
                dry = bench.MatrixRun(1000, run_spec, cache)
                dry.run()
                plan = make_plan(dry.writes, random.Random(f"matrix:{name}:1000:{cache}"))
                if name == "default":
                    assert {p.ordinal for p in plan} == {w.ordinal for w in dry.writes}
                else:
                    kept = {p.ordinal for p in plan}
                    assert all(w.ordinal in kept for w in dry.writes
                               if w.method not in ("sync", "write", "discard"))
                    assert not any(dry.writes[o - 1].method == "sync" for o in kept)
                expected += [(cache, p.ordinal, p.target.value, p.torn_bytes) for p in plan]
    ran = [(row["cache_blocks"], int(re.match(r"#(\d+) ", row["crash_point"]).group(1)),
            row["target"], int(row["crash_point"].split(" torn ")[1])
            if " torn " in row["crash_point"] else 0) for row in rows]
    assert sorted(ran, key=repr) == sorted(expected, key=repr)


def test_forked_rows_equal_rows_run_from_scratch(monkeypatch):
    """sweep's forked child reads the same row as crash_one, which runs the
    program from scratch with the crash scheduled."""
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", TINY_INTERVAL)
    spec = _tiny_spec()
    dry = bench.MatrixRun(3, spec, 1)
    dry.run()
    plan = default_plan(dry.writes, random.Random(3))[::23]
    rows = bench.sweep(3, spec, 1, plan, dry.writes)
    assert len(rows) == len(plan)
    for point, row in zip(plan, rows):
        assert crash_one(3, spec, 1, [point]) == row


def test_cli_crash_matrix_fails_a_run_that_did_not_fire(monkeypatch, capsys):
    """A crash the run never reached checks nothing, so one unfired row
    fails the matrix, with no violation anywhere."""
    def one_unfired(seeds_n, spec, base_seed, on_row, on_census):
        rows = [crash_one(base_seed, _tiny_spec(), None, [point])
                for point in (CrashPoint(3), CrashPoint(10**6))]
        for row in rows:
            on_row(row)
        return rows

    monkeypatch.setattr(cli, "run_crash_matrix", one_unfired)
    assert cli.main(["crash-matrix", "--seeds", "1", "--ops", "300"]) == 1
    out, err = capsys.readouterr()
    assert "violations=0" in out and "ok:" not in out
    (line,) = err.splitlines()
    assert line.startswith("FAIL: 1 of 2 runs never reached their crash or tore "
                           "nothing: #1000000/both")


@pytest.mark.parametrize("mode", [Mode.WRITE_ONLY, Mode.INSERT_ONLY],
                         ids=lambda m: m.value)
def test_crash_matrix_write_modes(mode, monkeypatch):
    """Every crash fires on the modes that write secrets straight into the
    tables' partitions; recovery leaves no dangling FID, and orphan GC
    leaves no orphan."""
    monkeypatch.setattr(bench, "CHECKPOINT_MATRIX_OPS", 12)
    monkeypatch.setattr(wal, "CHECKPOINT_INTERVAL_BYTES", TINY_INTERVAL)
    spec = dataclasses.replace(_tiny_spec(6), rows_per_table=5, mode=mode,
                               distribution=Distribution.ZIPFIAN)
    rows = run_crash_matrix(1, spec=spec)
    assert rows and all(r["fired"] for r in rows)
    assert {r["cache_blocks"] for r in rows} == {None, 1}
    assert sum(r["violations"] for r in rows) == 0
    assert sum(r["orphans_post_gc"] for r in rows) == 0
    assert sum(r["lost_values"] for r in rows) == 0


def test_lost_values_counts_each_row_recovery_did_not_bring_back():
    """After a crash of both zones and a recovery no row is lost; a row
    whose secret is gone, or a row that is gone, counts once each, and
    reading the states touches no block."""
    spec = default_matrix_spec(200)
    topo = ZoneTopology(5, batch_size=spec.batch_size, cache_capacity_blocks=2)
    topo.run_workload(spec)
    events = len(topo.trace)
    before = row_states(topo)
    assert len(topo.trace) == events
    committed, in_flight = before
    assert len(committed) == spec.tables * spec.rows_per_table and not in_flight
    assert all(None not in values for *_, values in committed.values())
    topo.privacy.crash()
    topo.integrity.crash()
    topo.recover_all()
    assert lost_values(before, topo) == 0
    table = topo.integrity.db.tables_by_idx[0]
    topo.privacy.store.delete(table.rows[1][-1].cells[1])
    assert lost_values(before, topo) == 1
    del table.rows[2]
    assert lost_values(before, topo) == 2
