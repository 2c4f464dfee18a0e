"""Served-runtime benchmark: one workload, one seed, one measured window.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Workloads are ``ingest``, ``audit`` and ``backfill`` (see
``perfbench/README.md``).  The server is ``repro serve`` in its own
process; this process is the load generator.  The report lines name every
metric with its unit and sample count; the last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the workload runs twice on the same
inputs, untraced and then with layer spans in the server, and the metrics
are the per-layer ones, while the report adds the tracing overhead (traced
minus untraced end-to-end numbers).  Every run appends a result file with
a manifest under ``.perfbench/results/``; nothing is overwritten.
"""

from __future__ import annotations

import argparse
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(
            "perfbench: src/repro not found; run from a checkout of the "
            "repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    import report

    return report.run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
