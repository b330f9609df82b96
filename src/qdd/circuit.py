"""Gate and circuit data model shared by the simulator, rewrite pass, and oracle.

Bit-order convention used everywhere in this package: qubit 0 is the most
significant bit of a basis index, the leftmost character of a bitstring, and
the topmost decision-diagram level. A gate's unitary (see gate_unitary) is
expressed over the gate's own wires in the order controls + targets, with the
first wire as the most significant bit of the matrix index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class GateKind(Enum):
    """Supported gate kinds; values double as the OpenQASM mnemonics."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    P = "p"
    RZ = "rz"
    CX = "cx"
    CP = "cp"
    MCP = "mcp"
    SWAP = "swap"


# kind -> (controls, targets); MCP is special-cased (any number >= 1 of controls)
_ARITY: dict[GateKind, tuple[int, int]] = {
    GateKind.H: (0, 1),
    GateKind.X: (0, 1),
    GateKind.Y: (0, 1),
    GateKind.Z: (0, 1),
    GateKind.S: (0, 1),
    GateKind.SDG: (0, 1),
    GateKind.T: (0, 1),
    GateKind.TDG: (0, 1),
    GateKind.P: (0, 1),
    GateKind.RZ: (0, 1),
    GateKind.CX: (1, 1),
    GateKind.CP: (1, 1),
    GateKind.SWAP: (0, 2),
}

PARAMETERIZED_KINDS = frozenset({GateKind.P, GateKind.RZ, GateKind.CP, GateKind.MCP})

# dense unitaries are refused beyond this many wires (4^k entries)
MAX_UNITARY_WIRES = 12


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, optional angle, control and target wires."""

    kind: GateKind
    angle: float | None = None
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(int(w) for w in self.controls))
        object.__setattr__(self, "targets", tuple(int(w) for w in self.targets))
        if self.angle is not None:
            object.__setattr__(self, "angle", float(self.angle))

    @property
    def wires(self) -> tuple[int, ...]:
        return self.controls + self.targets


def h(q: int) -> Gate:
    return Gate(GateKind.H, targets=(q,))


def x(q: int) -> Gate:
    return Gate(GateKind.X, targets=(q,))


def y(q: int) -> Gate:
    return Gate(GateKind.Y, targets=(q,))


def z(q: int) -> Gate:
    return Gate(GateKind.Z, targets=(q,))


def s(q: int) -> Gate:
    return Gate(GateKind.S, targets=(q,))


def sdg(q: int) -> Gate:
    return Gate(GateKind.SDG, targets=(q,))


def t(q: int) -> Gate:
    return Gate(GateKind.T, targets=(q,))


def tdg(q: int) -> Gate:
    return Gate(GateKind.TDG, targets=(q,))


def p(theta: float, q: int) -> Gate:
    return Gate(GateKind.P, angle=theta, targets=(q,))


def rz(theta: float, q: int) -> Gate:
    return Gate(GateKind.RZ, angle=theta, targets=(q,))


def cx(control: int, target: int) -> Gate:
    return Gate(GateKind.CX, controls=(control,), targets=(target,))


def cp(theta: float, control: int, target: int) -> Gate:
    return Gate(GateKind.CP, angle=theta, controls=(control,), targets=(target,))


def mcp(theta: float, controls: tuple[int, ...], target: int) -> Gate:
    return Gate(GateKind.MCP, angle=theta, controls=tuple(controls), targets=(target,))


def swap(a: int, b: int) -> Gate:
    return Gate(GateKind.SWAP, targets=(a, b))


@dataclass(frozen=True)
class QubitPermutation:
    """Wire relabeling: mapping[q] is the wire that now holds original qubit q."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(int(v) for v in self.mapping))
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.mapping}")

    @classmethod
    def identity(cls, n: int) -> "QubitPermutation":
        return cls(tuple(range(n)))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.mapping))

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "QubitPermutation":
        inv = [0] * len(self.mapping)
        for q, w in enumerate(self.mapping):
            inv[w] = q
        return QubitPermutation(tuple(inv))

    def then(self, second: "QubitPermutation") -> "QubitPermutation":
        """Composition: apply self first, then second."""
        if len(second) != len(self):
            raise ValueError("permutation size mismatch")
        return QubitPermutation(tuple(second.mapping[v] for v in self.mapping))


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over num_qubits wires plus an output relabeling.

    output_permutation records where each original qubit's content ended up
    after swap elimination; identity for freshly built circuits.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    output_permutation: QubitPermutation | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if self.output_permutation is None:
            object.__setattr__(
                self, "output_permutation", QubitPermutation.identity(self.num_qubits)
            )
        elif len(self.output_permutation) != self.num_qubits:
            raise ValueError("output_permutation size does not match num_qubits")


@dataclass(frozen=True)
class Violation:
    """One failed circuit invariant; gate_index is None for circuit-level issues."""

    gate_index: int | None
    message: str

    def __str__(self) -> str:
        where = "circuit" if self.gate_index is None else f"gate {self.gate_index}"
        return f"{where}: {self.message}"


def validate(circuit: Circuit) -> list[Violation]:
    """Return every invariant violation; an empty list means the circuit is ok."""
    out: list[Violation] = []
    n = circuit.num_qubits
    if n < 1:
        out.append(Violation(None, f"num_qubits must be >= 1, got {n}"))
        return out
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.MCP:
            if len(g.controls) < 1 or len(g.targets) != 1:
                out.append(Violation(i, f"mcp needs >=1 control and 1 target, got {g.controls}/{g.targets}"))
            elif len(g.wires) > MAX_UNITARY_WIRES:
                out.append(Violation(i, f"mcp over {len(g.wires)} wires exceeds the {MAX_UNITARY_WIRES}-wire dense limit"))
        else:
            nc, nt = _ARITY[g.kind]
            if len(g.controls) != nc or len(g.targets) != nt:
                out.append(Violation(
                    i, f"{g.kind.value} needs {nc} control(s) and {nt} target(s), got {len(g.controls)}/{len(g.targets)}"))
        wires = g.wires
        if len(set(wires)) != len(wires):
            out.append(Violation(i, f"duplicate wire in {g.kind.value}: {wires}"))
        for w in wires:
            if not 0 <= w < n:
                out.append(Violation(i, f"wire {w} out of range for {n} qubits"))
        if g.kind in PARAMETERIZED_KINDS:
            if g.angle is None:
                out.append(Violation(i, f"{g.kind.value} requires an angle"))
            elif not math.isfinite(g.angle):
                out.append(Violation(i, f"{g.kind.value} angle must be finite, got {g.angle}"))
        elif g.angle is not None:
            out.append(Violation(i, f"{g.kind.value} takes no angle"))
    return out


def relabel_gate(gate: Gate, perm: QubitPermutation) -> Gate:
    """Move the gate onto the wires that currently hold its original qubits."""
    m = perm.mapping
    return Gate(
        gate.kind,
        angle=gate.angle,
        controls=tuple(m[w] for w in gate.controls),
        targets=tuple(m[w] for w in gate.targets),
    )


_DAGGER_SWAPS = {
    GateKind.S: GateKind.SDG,
    GateKind.SDG: GateKind.S,
    GateKind.T: GateKind.TDG,
    GateKind.TDG: GateKind.T,
}


def dagger(gate: Gate) -> Gate:
    """Inverse of a single gate (same wires)."""
    if gate.kind in _DAGGER_SWAPS:
        return Gate(_DAGGER_SWAPS[gate.kind], controls=gate.controls, targets=gate.targets)
    if gate.kind in PARAMETERIZED_KINDS:
        return Gate(gate.kind, angle=-gate.angle, controls=gate.controls, targets=gate.targets)
    # H, X, Y, Z, CX, SWAP are involutions
    return gate


_SQRT1_2 = 1.0 / math.sqrt(2.0)

_FIXED_1Q: dict[GateKind, np.ndarray] = {
    GateKind.H: np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    GateKind.T: np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=np.complex128),
    GateKind.TDG: np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=np.complex128),
}

_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)

_CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


def gate_unitary(gate: Gate) -> np.ndarray:
    """Dense unitary of the gate over its wires (controls + targets, MSB first).

    This is the single definition of gate semantics: both the decision-diagram
    engine and the dense oracle build from it.
    """
    kind = gate.kind
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind].copy()
    if kind is GateKind.P:
        return np.array([[1, 0], [0, cmath.exp(1j * gate.angle)]], dtype=np.complex128)
    if kind is GateKind.RZ:
        return np.array(
            [[cmath.exp(-0.5j * gate.angle), 0], [0, cmath.exp(0.5j * gate.angle)]],
            dtype=np.complex128,
        )
    if kind is GateKind.CX:
        return _CX_MATRIX.copy()
    if kind is GateKind.CP:
        u = np.eye(4, dtype=np.complex128)
        u[3, 3] = cmath.exp(1j * gate.angle)
        return u
    if kind is GateKind.SWAP:
        return _SWAP_MATRIX.copy()
    if kind is GateKind.MCP:
        k = len(gate.wires)
        if k > MAX_UNITARY_WIRES:
            raise ValueError(f"mcp over {k} wires exceeds the {MAX_UNITARY_WIRES}-wire dense limit")
        u = np.eye(1 << k, dtype=np.complex128)
        u[-1, -1] = cmath.exp(1j * gate.angle)
        return u
    raise ValueError(f"no unitary for gate kind {kind!r}")
