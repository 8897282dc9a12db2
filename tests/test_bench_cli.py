import csv
import dataclasses

import pytest

from fidstore import cli
from fidstore.bench import WORKLOAD_CSV_COLUMNS, estimate_data_blocks
from fidstore.workload import Mode, WorkloadSpec
from fidstore.zone_sim import ZoneTopology


@pytest.mark.parametrize("tables,rows", [(2, 200), (1, 37), (3, 64)])
def test_estimate_data_blocks_matches_preloaded_store(tables, rows):
    spec = WorkloadSpec(mode=Mode.READ_ONLY, tables=tables, rows_per_table=rows,
                        duration_ops=0, batch_size=16)
    topo = ZoneTopology(5, batch_size=spec.batch_size)
    topo.run_workload(spec)
    store = topo.privacy.store
    blocks = sum(len(store.partition_blocks(t.partition_id))
                 for t in topo.integrity.db.tables_by_idx)
    assert estimate_data_blocks(spec) == blocks


def test_cli_storage(capsys):
    assert cli.main(["storage", "--fields", "1000", "--width", "4"]) == 0
    out = capsys.readouterr().out
    assert "28 B metadata/field" in out
    assert "fid scheme total         12036 B" in out  # 8000 + 4000 + one seal


def test_cli_ops(capsys):
    assert cli.main(["ops", "--iters", "10000"]) == 0
    assert "encrypt/put ratio" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["fid", "cipher"])
def test_cli_workload_writes_csv(backend, tmp_path, capsys):
    out = tmp_path / f"{backend}.csv"
    assert cli.main(["workload", "--backend", backend, "--tables", "1",
                     "--rows", "20", "--ops", "20", "--batch", "8",
                     "--cache-pct", "50", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == WORKLOAD_CSV_COLUMNS
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["backend"] == backend and row["invariant"] == "True"


def test_cli_crash_matrix_passes(capsys):
    assert cli.main(["crash-matrix", "--seeds", "1", "--ops", "300"]) == 0
    assert "ok: 6 runs, 0 violations" in capsys.readouterr().out
