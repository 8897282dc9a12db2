import dataclasses

import pytest

from fidstore import cli
from fidstore.bench import MATRIX_POINTS, default_matrix_spec, run_crash_matrix
from fidstore.workload import Distribution, Mode


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
    assert f"ok: {len(MATRIX_POINTS)} runs, 0 violations" in capsys.readouterr().out


@pytest.mark.parametrize("mode", [Mode.WRITE_ONLY, Mode.INSERT_ONLY],
                         ids=lambda m: m.value)
def test_crash_matrix_write_modes(mode):
    """Every crash point fires on the modes that write secrets straight into
    the tables' partitions; recovery leaves no dangling FID, and orphan GC
    leaves no orphan."""
    spec = dataclasses.replace(default_matrix_spec(300), mode=mode,
                               distribution=Distribution.ZIPFIAN)
    rows = run_crash_matrix(1, spec=spec)
    assert len(rows) == len(MATRIX_POINTS) and all(r["fired"] for r in rows)
    assert sum(r["violations"] for r in rows) == 0
    assert sum(r["orphans_post_gc"] for r in rows) == 0
