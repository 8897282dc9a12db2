"""Runs one fidstore benchmark workload, checks its results and prints its
metrics.

    python3 perfbench/run.py --workload oltp_rw --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout of the repository; it imports
`fidstore` from src/ and the plaintext reference from tests/oracles.py.
With --trace 0 it reports the end-to-end metrics, measured with no span
wrappers; with --trace 1 it reports the per-layer metrics of traced rounds,
the tracing overhead against untraced rounds of the same run, and writes
the kept spans under .perfbench/. Rounds repeat until --seconds have
passed (at least one). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
sources to benchmark are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [os.path.join(ROOT, "src", "fidstore", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: cannot find {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.main(workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
