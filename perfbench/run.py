"""Run one qdd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eqft --seed 1 --seconds 20 --trace 0

Run from the repository root; qdd is imported from its `src/` directory.
With --trace 0 the end-to-end metrics are printed, with --trace 1 the
per-layer metrics of a traced replay. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The
workloads and metrics are described in bench.py and BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from time import thread_time


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = thread_time()
    try:
        import bench
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import_s = thread_time() - t0
    src = Path(bench.ROOT, "src").resolve()
    if src not in Path(bench.qdd.__file__).resolve().parents:
        print(f"qdd was imported from {bench.qdd.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(bench.WORKLOADS)})")

    result = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    for line in result.report:
        print(line)
    missing = [k for k, v in result.metrics.items() if not math.isfinite(v)]
    if missing:
        print(f"no successful sample for: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(result.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
