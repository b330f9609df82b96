"""Dense statevector simulator: the brute-force correctness oracle.

Intentionally simple and memory-bound: the full 2^n vector is held in one
numpy array, so anything the decision-diagram engine claims can be checked
against an implementation with no sharing, no interning, and no caches.
Refuses to run beyond MAX_ORACLE_QUBITS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, gate_unitary, validate

MAX_ORACLE_QUBITS = 14


@dataclass(frozen=True)
class DenseState:
    """Full statevector; index bit for qubit q is (i >> (n-1-q)) & 1."""

    amplitudes: np.ndarray
    num_qubits: int

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"need a {self.num_qubits}-char bitstring, got {bits!r}")
        return complex(self.amplitudes[int(bits, 2)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _apply_dense(psi: np.ndarray, u: np.ndarray, wires: tuple[int, ...], n: int) -> np.ndarray:
    k = len(wires)
    ut = u.reshape((2,) * (2 * k))
    # contract the unitary's column bits with the wire axes, then restore axis order
    psi = np.tensordot(ut, psi, axes=(list(range(k, 2 * k)), list(wires)))
    return np.moveaxis(psi, list(range(k)), list(wires))


def simulate_dense(circuit: Circuit) -> DenseState:
    """Run the circuit on |0...0> by dense matrix-vector products."""
    n = circuit.num_qubits
    if n > MAX_ORACLE_QUBITS:
        raise ValueError(
            f"dense oracle refuses {n} qubits (limit {MAX_ORACLE_QUBITS}); "
            "the full statevector would not stay cheap enough to trust as a check"
        )
    validate(circuit)
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    for gate in circuit.gates:
        psi = _apply_dense(psi, gate_unitary(gate), gate.wires, n)
    return DenseState(np.ascontiguousarray(psi.reshape(-1)), n)


def max_abs_diff(a: DenseState, b: DenseState | np.ndarray) -> float:
    """Largest |a_i - b_i| over all 2^n amplitudes; b is a DenseState or a complex vector."""
    va = a.amplitudes
    vb = b.amplitudes if isinstance(b, DenseState) else b
    if va.shape != vb.shape:
        raise ValueError(f"state size mismatch: {va.shape} vs {vb.shape}")
    return float(np.max(np.abs(va - vb)))
