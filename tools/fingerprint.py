"""Bit-identity fingerprint of the simulator's results on a fixed circuit set.

Runs every circuit below in every reorder mode and feeds the raw bytes of
`statevector()`, `peak_nodes` and `final_nodes` into SHA-256. It prints one
digest per circuit (all modes folded), then a `results` digest over the
statevectors and final node counts only, and last one digest over
everything. An engine change that claims to keep results bit-identical must
print the same `results` line as its parent, and the same last line unless
it changes peak node counts on purpose. The two summary lines are committed
in tools/fingerprint.expected, and CI compares them:

    python3 tools/fingerprint.py | tail -n 2 | diff tools/fingerprint.expected -

Run from the repository root; qdd is imported from `src/` and the random
circuit builder from `tests/util.py`.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from qdd.circuit import Circuit  # noqa: E402
from qdd.generators import QpeSpec, entangled_qft, qft, qpe  # noqa: E402
from qdd.reorder import ReorderMode  # noqa: E402
from qdd.runner import run  # noqa: E402
from util import random_circuit  # noqa: E402

QPE_M = 17
QPE_NUMERATORS = ((1 << (QPE_M - 1)) + 1, 1, 0b10101010101010101, (1 << QPE_M) - 1)
RANDOM_SEEDS = range(1000, 1030)


def circuits() -> list[tuple[str, Circuit]]:
    out = [("entangled_qft(12)", entangled_qft(12)), ("qft(10)", qft(10))]
    out += [(f"qpe(m={QPE_M}, k={k})", qpe(QpeSpec(QPE_M, k))) for k in QPE_NUMERATORS]
    out += [(f"random_circuit({s})", random_circuit(random.Random(s))) for s in RANDOM_SEEDS]
    return out


def main() -> None:
    total = hashlib.sha256()
    results = hashlib.sha256()
    for name, circuit in circuits():
        one = hashlib.sha256()
        for mode in ReorderMode:
            result = run(circuit, mode)
            amplitudes = result.statevector().tobytes()
            one.update(amplitudes)
            one.update(f"{result.stats.peak_nodes},{result.stats.final_nodes};".encode())
            results.update(amplitudes)
            results.update(f"{result.stats.final_nodes};".encode())
        total.update(one.digest())
        print(f"{one.hexdigest()}  {name}")
    print(f"{results.hexdigest()}  results")
    print(f"{total.hexdigest()}  all")


if __name__ == "__main__":
    main()
