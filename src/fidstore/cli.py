"""fidstore-bench: reproduce the per-operation cost comparison and run the
crash matrix.

Subcommands: ops (per-operation latency vs AEAD), crash-matrix (a crash
before each durable write its plans pick, each row named by the write's
ordinal and label; exit nonzero on any external-synchrony violation, after
the recovery or after one more restart, a corrupt journal, a committed row
or secret that recovery did not bring back, or a row whose crash never
fired or whose tear left nothing to cut, which checks nothing). Workload
performance and durable size come from perfbench/run.py.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .bench import (
    MATRIX_CSV_COLUMNS,
    REPLY_SIZES,
    RIDERS,
    bench_ops,
    default_matrix_spec,
    run_crash_matrix,
)


def _write_csv(path: str | None, columns: list[str], rows: list[dict]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _cmd_ops(args: argparse.Namespace) -> int:
    report = bench_ops(args.iters)
    rows = [(name, report.median_ns[name], report.p99_ns[name])
            for name in report.median_ns]
    print(f"iterations              {report.iters}")
    for name, ns, p99 in rows:
        cycles = report.cycles(ns)
        cyc = f"{cycles:10.0f} cycles" if cycles is not None else "      n/a"
        print(f"{name:24s}  median {ns:10.1f} ns  p99 {p99:10.1f} ns  {cyc}")
    print(f"encrypt/put ratio       {report.encrypt_over_put:.2f}x")
    print(f"decrypt/get ratio       {report.decrypt_over_get:.2f}x")
    for n in REPLY_SIZES[1:]:
        print(f"reply of {n:<3d} values      saves {report.saving_per_envelope(n):.1f} ns "
              "per dropped envelope")
    print(f"riding in a commit       saves {report.saving_per_ride:.1f} ns per crossing "
          f"({RIDERS} reads)")
    if args.out:
        _write_csv(args.out, ["op", "median_ns", "p99_ns", "cycles"], [
            {"op": n, "median_ns": ns, "p99_ns": p99, "cycles": report.cycles(ns)}
            for n, ns, p99 in rows
        ])
    return 0


def _cmd_crash_matrix(args: argparse.Namespace) -> int:
    spec = default_matrix_spec(args.ops)
    printed = []

    def on_census(seed: int, cache, run: str, writes: list, plan: list) -> None:
        crashed = {point.ordinal for point in plan}
        counts = {}
        for write in writes:
            n = counts.setdefault(f"{write.zone} {write.method}", [0, 0])
            n[0] += 1
            n[1] += write.ordinal in crashed
        print(f"census seed={seed} cache={cache or 'all'} run={run}: {len(writes)} "
              f"durable writes, {len(crashed)} crashed before")
        for key, (n, ran) in counts.items():
            share = "all" if ran == n else "sampled" if ran else "none"
            print(f"  {key:22s} {n:6d} writes, {ran:6d} run ({share})")

    def on_row(row: dict) -> None:
        printed.append(row)
        print(f"{row['crash_point']:44s} {row['target']:9s} "
              f"cache={row['cache_blocks'] or 'all'} seed={row['seed']} "
              f"fired={row['fired']} "
              f"violations={row['violations']} orphans_pre={row['orphans_pre_gc']} "
              f"orphans_post={row['orphans_post_gc']} "
              f"restart_violations={row['restart_violations']} "
              f"lost_values={row['lost_values']}")

    rows = run_crash_matrix(args.seeds, spec, base_seed=args.seed, on_row=on_row,
                            on_census=on_census)
    _write_csv(args.out, MATRIX_CSV_COLUMNS, rows)
    violations = sum(r["violations"] + r["restart_violations"] + r["lost_values"]
                     for r in rows)
    unfired = [r for r in rows if not r["fired"]]
    if violations:
        print(f"FAIL: {violations} dangling-FID violations, corrupt journals or "
              f"lost values", file=sys.stderr)
    if unfired:
        runs = ", ".join(f"{r['crash_point']}/{r['target']} "
                         f"cache={r['cache_blocks'] or 'all'} seed={r['seed']}"
                         for r in unfired)
        print(f"FAIL: {len(unfired)} of {len(rows)} runs never reached their "
              f"crash or tore nothing: {runs}", file=sys.stderr)
    if violations or unfired:
        return 1
    print(f"ok: {len(rows)} runs, 0 violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidstore-bench",
        description="per-operation cost benchmark and the crash matrix for the "
                    "FID mapping store; workload performance comes from perfbench/run.py")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ops = sub.add_parser("ops", help="put/get vs AEAD field op latency")
    p_ops.add_argument("--iters", type=int, default=1_000_000)
    p_ops.add_argument("--out", default=None)
    p_ops.set_defaults(fn=_cmd_ops)

    p_matrix = sub.add_parser(
        "crash-matrix",
        help="a crash before each durable write of the matrix runs x seeds")
    p_matrix.add_argument("--seeds", type=int, default=100)
    p_matrix.add_argument("--ops", type=int, default=10_000)
    p_matrix.add_argument("--seed", type=int, default=1000,
                          help="base seed for the sweep")
    p_matrix.add_argument("--out", default=None)
    p_matrix.set_defaults(fn=_cmd_crash_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
