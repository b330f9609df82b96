"""Simulation driver: run one circuit and report where its time went.

run() is the single entry point the CLI and the tests share. It applies the
requested rewrite mode first, then simulates the transformed circuit on a
fresh decision-diagram package, tracking wall time and the peak number of
live nodes. Amplitude queries on the result are phrased in the original
qubit labels; the stored permutation translates them.

Wall time covers package construction through the last gate, so it includes
unique-table and compute-cache work but not the rewrite pass or validation.
RunStats splits it: gate DD construction, apply, the package's own sweeps,
and the closing young-generation pass; what is left is package setup and
loop overhead. A diagonal gate builds no gate DD: apply_diagonal applies it
to the state directly, and its time counts as apply. Peak nodes is sampled
from the package's node counter after every gate. That counter holds state
nodes only (gate DDs are built per gate and never interned), dead ones
included until a sweep: the package sweeps only past GC_THRESHOLD, so below
it the peak counts every state node the run has made, not the nodes of its
largest state.

Python's cyclic garbage collector is suspended, and the interpreter's
recursion limit raised, for the simulation only. The package frees nodes
itself (roots pinned in its own table, plus its own mark-and-sweep), and
nodes form no reference cycles, so the collector's repeated full passes over
the unique and compute tables would only add work that grows with the live
heap, not with what the circuit asks for. The one young-generation pass over what the run
made is timed as part of the run.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import dd
from .circuit import DIAGONAL_KINDS, Circuit, check_bits, validate
from .reorder import ReorderMode, permute_bits, reorder


@dataclass(frozen=True)
class RunStats:
    """What one run() measured; the *_s fields are disjoint parts of wall_time_s."""

    wall_time_s: float
    gates_applied: int
    swaps_removed: int
    peak_nodes: int
    final_nodes: int
    gate_dd_s: float  # building each non-diagonal gate's operator DD; a diagonal gate adds nothing
    apply_s: float  # multiplying it into the state, or a diagonal gate's apply_diagonal walk
    collect_s: float  # pinning the new state and maybe_collect's sweeps
    gc_pass_s: float  # the closing gc.collect(0); 0 when the caller had the GC off
    young_objects: int  # GC-tracked objects the run left for that pass


@dataclass(frozen=True)
class RunResult:
    """Final state plus the bookkeeping needed to query it.

    output_permutation[q] is the wire holding original qubit q; its length is
    the number of qubits.
    """

    final_state: dd.Edge
    output_permutation: tuple[int, ...]
    stats: RunStats
    package: dd.DDPackage

    def amplitude(self, bits: str) -> complex:
        """Amplitude of the original-labels basis state `bits`."""
        # before relabeling, so an error names the caller's bits
        check_bits(bits, len(self.output_permutation))
        return dd.amplitude(self.final_state, permute_bits(self.output_permutation, bits))

    def statevector(self) -> np.ndarray:
        """Dense amplitudes indexed by original labels (qubit 0 is the MSB)."""
        perm = self.output_permutation
        return dd.to_statevector(self.final_state, len(perm), perm)


def run(
    circuit: Circuit,
    mode: ReorderMode = ReorderMode.NONE,
    *,
    timeout_s: float | None = None,
) -> RunResult:
    """Rewrite, then simulate; raises SimulationTimeout past the deadline."""
    validate(circuit)
    transformed, report = reorder(circuit, mode)

    gc_was_enabled = gc.isenabled()
    gc.disable()
    young_before = gc.get_count()[0]
    # apply/add recurse one frame set per level
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * circuit.num_qubits + 200))
    gate_dd_s = apply_s = collect_s = gc_pass_s = 0.0
    try:
        t0 = perf_counter()
        deadline = t0 + timeout_s if timeout_s is not None else None
        pkg = dd.DDPackage(circuit.num_qubits)
        pkg.deadline = deadline

        state = pkg.basis_state("0" * circuit.num_qubits)
        pkg.inc_ref(state)
        peak = pkg.node_count
        t = perf_counter()
        for gate in transformed.gates:
            if deadline is not None and t > deadline:
                raise dd.SimulationTimeout(f"exceeded {timeout_s:.3g}s before gate application")
            if gate.kind in DIAGONAL_KINDS:
                t_built = t
                new_state = pkg.apply_diagonal(gate, state)
            else:
                op = pkg.gate_dd(gate)
                t_built = perf_counter()
                new_state = pkg.apply(op, state)
            t_applied = perf_counter()
            pkg.inc_ref(new_state)
            pkg.dec_ref(state)
            state = new_state
            if pkg.node_count > peak:
                peak = pkg.node_count
            pkg.maybe_collect((state,))
            gate_dd_s += t_built - t
            apply_s += t_applied - t_built
            t = perf_counter()
            collect_s += t - t_applied
    finally:
        sys.setrecursionlimit(old_limit)
        young_objects = gc.get_count()[0] - young_before
        if gc_was_enabled:
            gc.enable()
            # the young generation holds every object the run made; its one
            # pass over them is the run's cost, so it is paid here, on the clock
            t = perf_counter()
            gc.collect(0)
            gc_pass_s = perf_counter() - t
    wall = perf_counter() - t0

    stats = RunStats(
        wall_time_s=wall,
        gates_applied=len(transformed.gates),
        swaps_removed=report.swaps_removed,
        peak_nodes=peak,
        final_nodes=dd.count_nodes(state),
        gate_dd_s=gate_dd_s,
        apply_s=apply_s,
        collect_s=collect_s,
        gc_pass_s=gc_pass_s,
        young_objects=young_objects,
    )
    return RunResult(state, transformed.output_permutation, stats, pkg)
