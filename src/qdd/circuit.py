"""Gate and circuit data model shared by the simulator, rewrite pass, and oracle.

Bit-order convention used everywhere in this package: qubit 0 is the most
significant bit of a basis index, the leftmost character of a bitstring, and
the topmost decision-diagram level.

A gate kind is defined once, by its GATE_TABLE row: wire counts, inverse
kind and target block, the unitary on its targets when every control is |1>
(first target as the most significant bit; a control's |0> branch is the
identity). The engine builds a gate DD level by level from the block, or
walks the state with it for a kind in DIAGONAL_KINDS; gate_unitary embeds it
in the dense matrix the oracle uses.
A Gate is a plain record that keeps the values it is given. A valid gate is
defined once, by check_gate: validate applies it to every gate of a circuit,
and the QASM reader, gate_dd and apply_diagonal call it per gate.
A wire relabeling is a plain tuple, mapping[q] being the wire that holds
original qubit q; check_permutation is its one rule, and Circuit applies it
to the output permutation it is given.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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


Block = tuple[tuple[complex, ...], ...]


class GateRow(NamedTuple):
    """Everything the package knows about one gate kind."""

    controls: int | None  # None: any number >= 1 (MCP)
    targets: int
    block: Block | Callable[[float], Block]  # a function of the angle iff the kind takes one
    inverse: GateKind  # a kind whose block takes an angle inverts by negating it


def _block(*rows) -> Block:
    return tuple(tuple(complex(v) for v in row) for row in rows)


_SQRT1_2 = 1.0 / math.sqrt(2.0)
_C0 = complex(0.0, 0.0)
_C1 = complex(1.0, 0.0)
_X = _block((0, 1), (1, 0))


def _phase(theta: float) -> Block:
    return ((_C1, _C0), (_C0, cmath.exp(1j * theta)))


# The one definition of each kind. Blocks are nested tuples of exact complex
# values, so the shared block target_unitary returns cannot be mutated.
GATE_TABLE: dict[GateKind, GateRow] = {
    GateKind.H: GateRow(0, 1, _block((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2)), GateKind.H),
    GateKind.X: GateRow(0, 1, _X, GateKind.X),
    GateKind.Y: GateRow(0, 1, _block((0, -1j), (1j, 0)), GateKind.Y),
    GateKind.Z: GateRow(0, 1, _block((1, 0), (0, -1)), GateKind.Z),
    GateKind.S: GateRow(0, 1, _block((1, 0), (0, 1j)), GateKind.SDG),
    GateKind.SDG: GateRow(0, 1, _block((1, 0), (0, -1j)), GateKind.S),
    GateKind.T: GateRow(0, 1, _block((1, 0), (0, cmath.exp(0.25j * math.pi))), GateKind.TDG),
    GateKind.TDG: GateRow(0, 1, _block((1, 0), (0, cmath.exp(-0.25j * math.pi))), GateKind.T),
    GateKind.P: GateRow(0, 1, _phase, GateKind.P),
    GateKind.RZ: GateRow(0, 1, lambda a: ((cmath.exp(-0.5j * a), _C0), (_C0, cmath.exp(0.5j * a))), GateKind.RZ),
    GateKind.CX: GateRow(1, 1, _X, GateKind.CX),
    GateKind.CP: GateRow(1, 1, _phase, GateKind.CP),
    GateKind.MCP: GateRow(None, 1, _phase, GateKind.MCP),
    GateKind.SWAP: GateRow(0, 2, _block((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)), GateKind.SWAP),
}


def _is_diagonal(row: GateRow) -> bool:
    block = row.block(1.0) if callable(row.block) else row.block  # an angle block probed at one angle
    # a controlled row's |0> entry must be 1: the walk scales the whole state by it
    return row.targets == 1 and not (block[0][1] or block[1][0]) and (row.controls == 0 or block[0][0] == 1)


# Kinds whose target block is diag(a, b): the engine applies them to the state
# by DDPackage.apply_diagonal, without an operator DD.
DIAGONAL_KINDS = frozenset(kind for kind, row in GATE_TABLE.items() if _is_diagonal(row))

# dense unitaries (the oracle's) are refused beyond this many wires (4^k entries)
MAX_UNITARY_WIRES = 12


class Gate(NamedTuple):
    """One gate application: kind, optional angle, control and target wires."""

    kind: GateKind
    angle: float | None = None
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()

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


def _is_wire(v: object) -> bool:
    # a bool is an int, but QASM writes it as True/False, which no reader takes back
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Circuit:
    """Immutable gate list over num_qubits wires plus an output relabeling.

    output_permutation[q] is the wire that holds original qubit q's content
    after swap elimination; tuple(range(num_qubits)) when none is given.
    """

    num_qubits: int
    gates: tuple[Gate, ...] = ()
    output_permutation: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        n = self.num_qubits
        if self.output_permutation is None:
            object.__setattr__(self, "output_permutation", tuple(range(n)))
        else:
            perm = tuple(self.output_permutation)
            object.__setattr__(self, "output_permutation", perm)
            check_permutation(perm)
            if len(perm) != n:
                raise ValueError(f"output_permutation has {len(perm)} entries for {n} qubits")


def check_bits(bits: str, num_qubits: int) -> None:
    """Raise ValueError unless bits is a basis state of num_qubits qubits (qubit 0 first)."""
    if len(bits) != num_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"need a {num_qubits}-bit string of 0/1, got {bits!r}")


def check_permutation(mapping: Sequence[int]) -> None:
    """Raise ValueError unless mapping is a permutation of 0..n-1 of int (not bool) entries."""
    n = len(mapping)
    if not all(_is_wire(v) for v in mapping) or sorted(mapping) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {mapping}")


def check_gate(gate: Gate, num_qubits: int) -> None:
    """Raise ValueError unless the gate is valid on num_qubits wires.

    The one definition of a valid gate: the kind's wire counts, an MCP over
    at most MAX_UNITARY_WIRES wires (the oracle must accept every valid
    circuit), tuples of distinct in-range int (not bool) wires, and a finite
    int or float angle exactly when the kind takes one.
    """
    kind, angle, controls, targets = gate
    nc, nt, block, _ = GATE_TABLE[kind]
    if not (isinstance(controls, tuple) and isinstance(targets, tuple)):
        raise ValueError(f"{kind.value} wires must be tuples, got controls={controls!r}, targets={targets!r}")
    wires = controls + targets
    if nc is None:
        if not controls or len(targets) != nt:
            raise ValueError(f"mcp needs >=1 control and 1 target, got {controls}/{targets}")
        if len(wires) > MAX_UNITARY_WIRES:
            raise ValueError(f"mcp over {len(wires)} wires exceeds the {MAX_UNITARY_WIRES}-wire dense limit")
    elif len(controls) != nc or len(targets) != nt:
        raise ValueError(
            f"{kind.value} needs {nc} control(s) and {nt} target(s), got {len(controls)}/{len(targets)}")
    for w in wires:
        if not _is_wire(w):
            raise ValueError(f"wire {w!r} of {kind.value} is not an int")
        if not 0 <= w < num_qubits:
            raise ValueError(f"wire {w} out of range for {num_qubits} qubits")
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate wire in {kind.value}: {wires}")
    if callable(block):
        if not isinstance(angle, (int, float)):
            raise ValueError(f"{kind.value} requires an angle (an int or float), got {angle!r}")
        if not math.isfinite(angle):
            raise ValueError(f"{kind.value} angle must be finite, got {angle}")
    elif angle is not None:
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


def relabel_gate(gate: Gate, mapping: Sequence[int]) -> Gate:
    """Move the gate onto mapping[q], the wire that now holds its original qubit q."""
    kind, angle, controls, targets = gate
    return Gate(kind, angle, tuple(mapping[w] for w in controls), tuple(mapping[w] for w in targets))


def dagger(gate: Gate) -> Gate:
    """Inverse of a single gate (same wires)."""
    angle = None if gate.angle is None else -gate.angle
    return Gate(GATE_TABLE[gate.kind].inverse, angle, gate.controls, gate.targets)


def target_unitary(gate: Gate) -> Block:
    """The gate's target block: its unitary on the targets when every control is |1>.

    The first target is the most significant bit. The block is read off
    GATE_TABLE and shared, which its nested tuples make safe: the
    decision-diagram engine and gate_unitary both build from it.
    """
    block = GATE_TABLE[gate.kind].block
    return block(gate.angle) if callable(block) else block


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
