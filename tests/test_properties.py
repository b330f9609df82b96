"""Property tests above the dense oracle's cap: a circuit then its inverse is the identity."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qdd import dd
from qdd.circuit import ARITY, MAX_UNITARY_WIRES, PARAMETERIZED_KINDS, Circuit, Gate, GateKind, dagger, h
from qdd.reorder import ReorderMode
from qdd.runner import run


@st.composite
def gates(draw, n: int) -> Gate:
    kind = draw(st.sampled_from(GateKind))
    nc, nt = ARITY[kind]
    if nc is None:
        # gate_dd builds controls level by level, so any width validate() admits is cheap
        nc = draw(st.integers(1, min(n - 1, MAX_UNITARY_WIRES - nt)))
    wires = draw(st.lists(st.integers(0, n - 1), min_size=nc + nt, max_size=nc + nt, unique=True))
    angle = draw(st.floats(-math.pi, math.pi)) if kind in PARAMETERIZED_KINDS else None
    return Gate(kind, angle, controls=tuple(wires[:nc]), targets=tuple(wires[nc:]))


@st.composite
def circuits(draw) -> Circuit:
    # an H on every wire first, so that each drawn gate acts on a superposition
    n = draw(st.integers(13, 40))
    return Circuit(n, tuple(h(q) for q in range(n)) + tuple(draw(st.lists(gates(n), max_size=20))))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(circuits())
def test_circuit_then_dagger_returns_to_all_zeros(c):
    n = c.num_qubits
    round_trip = Circuit(n, c.gates + tuple(dagger(g) for g in reversed(c.gates)))
    for mode in ReorderMode:
        result = run(round_trip, mode)
        assert abs(result.amplitude("0" * n) - 1) <= 1e-9, mode
        assert result.stats.final_nodes == n, mode
        assert abs(dd.norm_squared(result.final_state) - 1) <= 1e-9, mode
