"""Simulation driver: run one circuit, or benchmark a family across sizes.

run() is the single entry point the CLI and the tests share. It applies the
requested rewrite mode first, then simulates the transformed circuit on a
fresh decision-diagram package, tracking wall time and the peak number of
live nodes. Amplitude queries on the result are phrased in the original
qubit labels; the stored permutation translates them.

Wall time covers package construction through the last gate, so it includes
unique-table and compute-cache work but not the rewrite pass or validation.
Peak nodes is sampled from the package's live-node counter after every gate,
which bounds the true in-flight peak from below but is exact for the
between-gate states that dominate memory.

Python's cyclic garbage collector is suspended, and the interpreter's
recursion limit raised, for the simulation only. The package frees nodes
itself (reference pins plus its own mark-and-sweep), and nodes form no
reference cycles, so the collector's repeated full passes over the unique and
compute tables would only add work that grows with the live heap, not with
what the circuit asks for. The one young-generation pass over what the run
made is timed as part of the run.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import dd
from .circuit import Circuit, QubitPermutation, validate
from .generators import build_family
from .reorder import ReorderMode, permute_bits, reorder


@dataclass(frozen=True)
class RunStats:
    wall_time_s: float
    gates_applied: int
    swaps_removed: int
    peak_nodes: int
    final_nodes: int
    mode: ReorderMode


@dataclass(frozen=True)
class RunResult:
    """Final state plus the bookkeeping needed to query it."""

    final_state: dd.Edge
    output_permutation: QubitPermutation
    stats: RunStats
    num_qubits: int
    package: dd.DDPackage

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the original-labels basis state `bits`."""
        return self.package.amplitude(
            self.final_state, permute_bits(self.output_permutation, bits)
        )

    def statevector(self) -> np.ndarray:
        """Dense amplitudes indexed by original labels (qubit 0 is the MSB)."""
        # wire w holds original qubit inverse[w], so its bit goes to that position
        positions = self.output_permutation.inverse().mapping
        return dd.to_statevector(self.final_state, self.num_qubits, positions)


def run(
    circuit: Circuit,
    mode: ReorderMode = ReorderMode.NONE,
    *,
    timeout_s: float | None = None,
) -> RunResult:
    """Rewrite, then simulate; raises SimulationTimeout past the deadline."""
    problems = validate(circuit)
    if problems:
        raise ValueError(f"invalid circuit: {problems[0]}")

    transformed, report = reorder(circuit, mode)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    # apply/add recurse one frame set per level
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * circuit.num_qubits + 200))
    try:
        t0 = perf_counter()
        deadline = t0 + timeout_s if timeout_s is not None else None
        pkg = dd.DDPackage(circuit.num_qubits)
        pkg.deadline = deadline

        state = pkg.basis_state("0" * circuit.num_qubits)
        pkg.inc_ref(state)
        peak = pkg.node_count
        for gate in transformed.gates:
            if deadline is not None and perf_counter() > deadline:
                raise dd.SimulationTimeout(f"exceeded {timeout_s:.3g}s before gate application")
            op = pkg.gate_dd(gate)
            new_state = pkg.apply(op, state)
            pkg.inc_ref(new_state)
            pkg.dec_ref(state)
            state = new_state
            if pkg.node_count > peak:
                peak = pkg.node_count
            pkg.maybe_collect((state,))
    finally:
        sys.setrecursionlimit(old_limit)
        if gc_was_enabled:
            gc.enable()
            # the young generation holds every object the run made; its one
            # pass over them is the run's cost, so it is paid here, on the clock
            gc.collect(0)
    wall = perf_counter() - t0

    stats = RunStats(
        wall_time_s=wall,
        gates_applied=len(transformed.gates),
        swaps_removed=report.swaps_removed,
        peak_nodes=peak,
        final_nodes=dd.count_nodes(state),
        mode=mode,
    )
    return RunResult(state, transformed.output_permutation, stats, circuit.num_qubits, pkg)


@dataclass(frozen=True)
class BenchRow:
    family: str
    num_qubits: int
    mode: ReorderMode
    status: str  # "ok" or "timeout"
    wall_time_s: float | None
    peak_nodes: int | None
    final_nodes: int | None
    swaps_removed: int | None
    gates_applied: int | None


def bench(
    family: str,
    sizes: list[int],
    modes: list[ReorderMode],
    *,
    timeout_s: float = 120.0,
) -> list[BenchRow]:
    """One row per (size, mode), each on a fresh package.

    A timed-out row reports status "timeout" with blank measurements; other
    rows are measured normally.
    """
    rows: list[BenchRow] = []
    for n in sizes:
        circuit = build_family(family, n)
        for mode in modes:
            try:
                result = run(circuit, mode, timeout_s=timeout_s)
            except dd.SimulationTimeout:
                rows.append(BenchRow(family, n, mode, "timeout", None, None, None, None, None))
                continue
            s = result.stats
            rows.append(
                BenchRow(
                    family, n, mode, "ok",
                    s.wall_time_s, s.peak_nodes, s.final_nodes,
                    s.swaps_removed, s.gates_applied,
                )
            )
    return rows
