"""Gate and circuit data model shared by the simulator, rewrite pass, and oracle.

Bit-order convention used everywhere in this package: qubit 0 is the most
significant bit of a basis index, the leftmost character of a bitstring, and
the topmost decision-diagram level.

A gate kind is defined once, by its wire counts (ARITY) and its target block
(target_unitary): the unitary on its targets when every control is |1>, with
the first target as the most significant bit. Every control's |0> branch is
the identity. The decision-diagram engine builds a gate level by level from
that block; gate_unitary embeds it in the dense matrix the oracle uses.
A valid gate is defined once too, by check_gate: validate applies it to
every gate of a circuit, and the QASM reader and gate_dd call it per gate.
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


# kind -> (controls, targets); None controls means any number >= 1 (MCP)
ARITY: dict[GateKind, tuple[int | None, int]] = {
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
    GateKind.MCP: (None, 1),
    GateKind.SWAP: (0, 2),
}

PARAMETERIZED_KINDS = frozenset({GateKind.P, GateKind.RZ, GateKind.CP, GateKind.MCP})

# dense unitaries (the oracle's) are refused beyond this many wires (4^k entries)
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


def check_gate(gate: Gate, num_qubits: int) -> None:
    """Raise ValueError unless the gate is valid on num_qubits wires.

    The one definition of a valid gate: the kind's wire counts, an MCP over
    at most MAX_UNITARY_WIRES wires (the oracle must accept every valid
    circuit), distinct in-range wires, and a finite angle exactly when the
    kind takes one.
    """
    kind = gate.kind
    wires = gate.wires
    nc, nt = ARITY[kind]
    if nc is None:
        if not gate.controls or len(gate.targets) != nt:
            raise ValueError(f"mcp needs >=1 control and 1 target, got {gate.controls}/{gate.targets}")
        if len(wires) > MAX_UNITARY_WIRES:
            raise ValueError(f"mcp over {len(wires)} wires exceeds the {MAX_UNITARY_WIRES}-wire dense limit")
    elif len(gate.controls) != nc or len(gate.targets) != nt:
        raise ValueError(
            f"{kind.value} needs {nc} control(s) and {nt} target(s), got {len(gate.controls)}/{len(gate.targets)}")
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate wire in {kind.value}: {wires}")
    for w in wires:
        if not 0 <= w < num_qubits:
            raise ValueError(f"wire {w} out of range for {num_qubits} qubits")
    if kind in PARAMETERIZED_KINDS:
        if gate.angle is None:
            raise ValueError(f"{kind.value} requires an angle")
        if not math.isfinite(gate.angle):
            raise ValueError(f"{kind.value} angle must be finite, got {gate.angle}")
    elif gate.angle is not None:
        raise ValueError(f"{kind.value} takes no angle")


def validate(circuit: Circuit) -> None:
    """Raise ValueError("invalid circuit: ...") naming the first problem; return None if there is none."""
    n = circuit.num_qubits
    if n < 1:
        raise ValueError(f"invalid circuit: num_qubits must be >= 1, got {n}")
    for i, g in enumerate(circuit.gates):
        try:
            check_gate(g, n)
        except ValueError as exc:
            raise ValueError(f"invalid circuit: gate {i}: {exc}") from None


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

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)

_FIXED_BLOCKS: dict[GateKind, np.ndarray] = {
    GateKind.H: np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=np.complex128),
    GateKind.X: _X,
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    GateKind.S: np.array([[1, 0], [0, 1j]], dtype=np.complex128),
    GateKind.SDG: np.array([[1, 0], [0, -1j]], dtype=np.complex128),
    GateKind.T: np.array([[1, 0], [0, cmath.exp(0.25j * math.pi)]], dtype=np.complex128),
    GateKind.TDG: np.array([[1, 0], [0, cmath.exp(-0.25j * math.pi)]], dtype=np.complex128),
    GateKind.CX: _X,
    GateKind.SWAP: np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128),
}


def target_unitary(gate: Gate) -> np.ndarray:
    """The gate's target block: its unitary on the targets when every control is |1>.

    The first target is the most significant bit. This block, with ARITY, is
    the single definition of gate semantics: the decision-diagram engine and
    gate_unitary both build from it.
    """
    kind = gate.kind
    if kind in _FIXED_BLOCKS:
        return _FIXED_BLOCKS[kind].copy()
    if kind is GateKind.RZ:
        return np.array(
            [[cmath.exp(-0.5j * gate.angle), 0], [0, cmath.exp(0.5j * gate.angle)]],
            dtype=np.complex128,
        )
    # P, CP and MCP
    return np.array([[1, 0], [0, cmath.exp(1j * gate.angle)]], dtype=np.complex128)


def gate_unitary(gate: Gate) -> np.ndarray:
    """Dense unitary of the gate over its wires (controls + targets, MSB first).

    The target block (target_unitary) embedded in the identity: the controls
    are the leading bits, so the block fills the rows and columns where they
    are all 1. The dense oracle uses it; the decision-diagram engine does not.
    """
    k = len(gate.wires)
    if k > MAX_UNITARY_WIRES:
        raise ValueError(f"{gate.kind.value} over {k} wires exceeds the {MAX_UNITARY_WIRES}-wire dense limit")
    base = target_unitary(gate)
    m = len(base)
    u = np.eye(1 << k, dtype=np.complex128)
    u[-m:, -m:] = base
    return u
