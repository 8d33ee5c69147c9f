"""qnetcap benchmark: one workload in one single-worker process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload exact-unit --seed 1 --seconds 20 --trace 0

Workloads: exact-unit, approx-mux, certify (see README.md beside this file).
The package is imported from the checkout's own src/ directory; the run
fails when it is absent. Progress goes to stderr. The last line of stdout
is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
run reports the per-layer ones and writes its spans to
perfbench/out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("exact-unit", "approx-mux", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [SRC, HERE]
    import qnetcap

    if not os.path.abspath(qnetcap.__file__).startswith(SRC + os.sep):
        print(f"error: qnetcap imported from {qnetcap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), os.path.join(HERE, "out"))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
