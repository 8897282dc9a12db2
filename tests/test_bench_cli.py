import dataclasses

import pytest

from fidstore import cli
from fidstore.bench import (
    MATRIX_POINTS,
    default_matrix_spec,
    lost_values,
    row_states,
    run_crash_matrix,
)
from fidstore.workload import Distribution, Mode
from fidstore.zone_sim import ZoneTopology


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


def test_cli_crash_matrix_passes(capsys):
    assert cli.main(["crash-matrix", "--seeds", "1", "--ops", "300"]) == 0
    # every point at an unbounded cache and at a quarter of the preload's blocks
    assert f"ok: {2 * len(MATRIX_POINTS)} runs, 0 violations" in capsys.readouterr().out


def test_cli_crash_matrix_fails_a_run_that_did_not_fire(monkeypatch, capsys):
    """A crash point the run never reached checks nothing, so one unfired
    row fails the matrix, with no violation anywhere."""
    def one_unfired(seeds_n, spec, base_seed, on_row):
        rows = run_crash_matrix(seeds_n, spec, base_seed, points=MATRIX_POINTS[:2])
        rows[-1]["fired"] = False
        for row in rows:
            on_row(row)
        return rows

    monkeypatch.setattr(cli, "run_crash_matrix", one_unfired)
    assert cli.main(["crash-matrix", "--seeds", "1", "--ops", "300"]) == 1
    out, err = capsys.readouterr()
    assert "violations=0" in out and "ok:" not in out
    (line,) = err.splitlines()
    assert line.startswith("FAIL: 1 of 4 runs never reached their crash point: "
                           f"{MATRIX_POINTS[1][0].value}/")


@pytest.mark.parametrize("mode", [Mode.WRITE_ONLY, Mode.INSERT_ONLY],
                         ids=lambda m: m.value)
def test_crash_matrix_write_modes(mode):
    """Every crash point fires on the modes that write secrets straight into
    the tables' partitions; recovery leaves no dangling FID, and orphan GC
    leaves no orphan."""
    spec = dataclasses.replace(default_matrix_spec(300), mode=mode,
                               distribution=Distribution.ZIPFIAN)
    rows = run_crash_matrix(1, spec=spec)
    assert len(rows) == 2 * len(MATRIX_POINTS) and all(r["fired"] for r in rows)
    assert {r["cache_blocks"] for r in rows} == {None, 4}
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
