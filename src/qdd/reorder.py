"""Swap elimination by qubit relabeling.

A SWAP gate only moves information between wires, so instead of simulating
it the pass can delete it and relabel everything that comes later. The pass
tracks a permutation: mapping[q] is the wire of the transformed circuit that
holds what the original circuit keeps on wire q. Deleting SWAP(a, b) updates
the tracking by exchanging the images of a and b; every surviving gate after
the deletion point is rewritten onto the mapped wires.

The pass runs once and tracks the mapping in one list; if it deletes nothing
it returns its input.

Modes:
  none      keep the circuit as is,
  trailing  delete only the maximal run of SWAPs at the very end,
  all       scan left to right, deleting every SWAP and relabeling the rest.

The transformed circuit's output_permutation composes the pass mapping with
whatever permutation the input already carried (original qubit q sat on wire
carried[q], which the pass moved to mapping[carried[q]]), so amplitude
queries in original labels keep working through permute_bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import Circuit, GateKind, relabel_gate


class ReorderMode(str, Enum):
    NONE = "none"
    TRAILING = "trailing"
    ALL = "all"


@dataclass(frozen=True)
class ReorderReport:
    """What one pass invocation did."""

    swaps_removed: int


def permute_bits(perm: tuple[int, ...], bits: str) -> str:
    """Bitstring to query on the transformed circuit for original-label bits.

    Original qubit q's value lands at position perm[q] of the result.
    """
    n = len(perm)
    if len(bits) != n:
        raise ValueError(f"bitstring length {len(bits)} does not match permutation size {n}")
    out = [""] * n
    for q, ch in enumerate(bits):
        out[perm[q]] = ch
    return "".join(out)


def reorder(circuit: Circuit, mode: ReorderMode) -> tuple[Circuit, ReorderReport]:
    """Apply the pass; returns the transformed circuit and a report."""
    mode = ReorderMode(mode)
    n = circuit.num_qubits
    gates = circuit.gates
    # every SWAP from index `first` on is deleted: none, the trailing run, or all
    first = len(gates)
    if mode is ReorderMode.TRAILING:
        while first > 0 and gates[first - 1].kind is GateKind.SWAP:
            first -= 1
    elif mode is ReorderMode.ALL:
        first = next((i for i, g in enumerate(gates) if g.kind is GateKind.SWAP), first)

    mapping = list(range(n))
    out = list(gates[:first])
    for g in gates[first:]:
        if g.kind is GateKind.SWAP:
            a, b = g.targets
            mapping[a], mapping[b] = mapping[b], mapping[a]
        else:
            out.append(relabel_gate(g, mapping))
    removed = len(gates) - len(out)
    if removed:
        carried = circuit.output_permutation
        circuit = Circuit(n, tuple(out), tuple(mapping[w] for w in carried))
    return circuit, ReorderReport(removed)
