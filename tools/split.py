"""Where one run() goes: gate construction, apply, and the closing GC pass.

Replays `run()`'s gate loop for one family, size and reorder mode, with
Python's cyclic GC off as `run()` has it, and times `gate_dd` and `apply`
apart. Then it counts the young objects the loop left and times the one
`gc.collect(0)` that `run()` pays for them on the clock:

    python3 tools/split.py qpe 17 all
    python3 tools/split.py entangled_qft 15 none

Run from the repository root; qdd is imported from `src/`. Output is one
`name value` line per figure: `gate_dd_s`, `apply_s`, `maybe_collect_s`,
`loop_s` (the whole loop), `young_objects`, `collect0_s` and `peak_nodes`.
Times are wall seconds of a single replay, so compare trees by alternating
runs, not by one pair.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qdd import dd  # noqa: E402
from qdd.generators import FAMILIES, build_family  # noqa: E402
from qdd.reorder import ReorderMode, reorder  # noqa: E402


def split(family: str, n: int, mode: ReorderMode) -> dict[str, float]:
    transformed, _ = reorder(build_family(family, n), mode)
    gates = transformed.gates
    gc.collect()  # the young generation then holds only what the loop makes
    gc.disable()
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * transformed.num_qubits + 200))
    try:
        gate_s = apply_s = collect_s = 0.0
        t0 = perf_counter()
        pkg = dd.DDPackage(transformed.num_qubits)
        state = pkg.basis_state("0" * transformed.num_qubits)
        pkg.inc_ref(state)
        peak = pkg.node_count
        for gate in gates:
            t = perf_counter()
            op = pkg.gate_dd(gate)
            t1 = perf_counter()
            new_state = pkg.apply(op, state)
            t2 = perf_counter()
            pkg.inc_ref(new_state)
            pkg.dec_ref(state)
            state = new_state
            peak = max(peak, pkg.node_count)
            pkg.maybe_collect((state,))
            t3 = perf_counter()
            gate_s += t1 - t
            apply_s += t2 - t1
            collect_s += t3 - t2
        loop_s = perf_counter() - t0
        young = len(gc.get_objects(0))
        t = perf_counter()
        gc.collect(0)
        collect0_s = perf_counter() - t
    finally:
        sys.setrecursionlimit(old_limit)
        gc.enable()
    return {
        "gate_dd_s": gate_s,
        "apply_s": apply_s,
        "maybe_collect_s": collect_s,
        "loop_s": loop_s,
        "young_objects": young,
        "collect0_s": collect0_s,
        "peak_nodes": peak,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("family", choices=sorted(FAMILIES))
    ap.add_argument("n", type=int)
    ap.add_argument("mode", choices=[m.value for m in ReorderMode])
    args = ap.parse_args(argv)
    for name, value in split(args.family, args.n, ReorderMode(args.mode)).items():
        print(f"{name} {value:.6f}" if isinstance(value, float) else f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
