"""Circuit IR: gate builders, validation, relabeling, dagger, unitaries."""

import math

import numpy as np
import pytest

from qdd.circuit import (
    GATE_TABLE,
    Circuit,
    Gate,
    GateKind,
    MAX_UNITARY_WIRES,
    check_gate,
    check_permutation,
    cp,
    cx,
    dagger,
    gate_unitary,
    h,
    mcp,
    p,
    relabel_gate,
    rz,
    s,
    sdg,
    swap,
    t,
    target_unitary,
    tdg,
    validate,
    x,
    y,
    z,
)

ALL_BUILDERS_1Q = (h, x, y, z, s, sdg, t, tdg)


def test_builders_produce_expected_wires():
    g = cx(2, 0)
    assert g.controls == (2,) and g.targets == (0,)
    assert g.wires == (2, 0)
    g = mcp(0.5, [3, 1], 0)
    assert g.controls == (3, 1) and g.targets == (0,)
    assert swap(1, 4).targets == (1, 4)


def test_gates_are_hashable_and_frozen():
    g = h(0)
    assert hash(g) == hash(h(0))
    with pytest.raises(AttributeError):
        g.angle = 1.0


def test_validate_accepts_good_circuit():
    c = Circuit(3, (h(0), cx(0, 1), cp(0.3, 1, 2), swap(0, 2)))
    assert validate(c) is None


@pytest.mark.parametrize(
    "gates, fragment",
    [
        ((Gate(GateKind.H, targets=(0, 1)),), "control(s)"),
        ((Gate(GateKind.CX, controls=(), targets=(1,)),), "control(s)"),
        ((Gate(GateKind.SWAP, targets=(2, 2)),), "duplicate wire"),
        ((h(5),), "out of range"),
        ((Gate(GateKind.P, targets=(0,)),), "requires an angle"),
        ((Gate(GateKind.H, angle=0.1, targets=(0,)),), "takes no angle"),
        ((Gate(GateKind.MCP, angle=0.1, controls=(), targets=(0,)),), ">=1 control"),
        ((Gate(GateKind.P, angle=float("nan"), targets=(0,)),), "finite"),
        ((cx(1, 1),), "duplicate wire"),
        ((Gate(GateKind.H, targets=(1.5,)),), "not an int"),
        ((Gate(GateKind.P, angle="0.5", targets=(0,)),), "int or float"),
        ((Gate(GateKind.CX, controls=[0], targets=[1]),), "cx wires must be tuples"),
        ((Gate(GateKind.H, targets=[0]),), "h wires must be tuples"),
        ((Gate(GateKind.H, targets=([0],)),), "not an int"),
        ((Gate(GateKind.H, targets=(True,)),), "not an int"),
        ((Gate(GateKind.CX, controls=(False,), targets=(True,)),), "not an int"),
    ],
)
def test_validate_rejects(gates, fragment):
    with pytest.raises(ValueError, match=r"^invalid circuit: gate 0: ") as info:
        validate(Circuit(3, gates))
    assert fragment in str(info.value)
    with pytest.raises(ValueError) as info:
        check_gate(gates[0], 3)
    assert fragment in str(info.value)


def test_validate_names_the_first_bad_gate():
    with pytest.raises(ValueError, match=r"^invalid circuit: gate 1: wire 3 out of range") as info:
        validate(Circuit(3, (h(0), h(3), cx(1, 1))))
    assert "duplicate" not in str(info.value)


def test_validate_rejects_mcp_wider_than_dense_limit():
    k = MAX_UNITARY_WIRES + 1
    with pytest.raises(ValueError, match="^invalid circuit: gate 0: mcp over 13 wires"):
        validate(Circuit(k, (mcp(0.1, range(k - 1), k - 1),)))
    assert validate(Circuit(k - 1, (mcp(0.1, range(k - 2), k - 2),))) is None


def test_validate_rejects_nonpositive_register():
    with pytest.raises(ValueError, match="^invalid circuit: num_qubits"):
        validate(Circuit(0, ()))


def test_permutation_rejects_non_bijections():
    for mapping in [(0, 0, 1), (0, 2), (0.0, 1.9), (True, False)]:
        with pytest.raises(ValueError, match="^not a permutation of 0.."):
            check_permutation(mapping)
        with pytest.raises(ValueError, match="^not a permutation of 0.."):
            Circuit(len(mapping), (), mapping)
    # a permutation of the wrong length is one only Circuit refuses
    assert check_permutation((1, 0)) is None
    with pytest.raises(ValueError, match="^output_permutation has 2 entries for 3 qubits"):
        Circuit(3, (), (1, 0))


def test_circuit_stores_its_permutation_as_a_tuple():
    assert Circuit(3).output_permutation == (0, 1, 2)
    assert Circuit(3, (), [1, 2, 0]).output_permutation == (1, 2, 0)


def test_relabel_gate_moves_all_wires():
    perm = (2, 0, 1)
    g = relabel_gate(mcp(0.7, [0, 1], 2), perm)
    assert g.controls == (2, 0) and g.targets == (1,)
    assert relabel_gate(h(0), perm).targets == (2,)


@pytest.mark.parametrize("builder", ALL_BUILDERS_1Q)
def test_single_qubit_unitaries_are_unitary(builder):
    u = gate_unitary(builder(0))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "gate",
    [
        p(0.37, 0), rz(-1.1, 0), cx(0, 1), cp(2.2, 0, 1), swap(0, 1),
        mcp(0.9, [0, 1], 2), mcp(-0.4, [0, 1, 2], 3),
    ],
)
def test_multi_qubit_unitaries_are_unitary(gate):
    u = gate_unitary(gate)
    dim = 2 ** len(gate.wires)
    assert u.shape == (dim, dim)
    assert np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_known_matrices():
    su = gate_unitary(s(0))
    assert su[1, 1] == pytest.approx(1j)
    tu = gate_unitary(t(0))
    assert tu[1, 1] == pytest.approx(np.exp(1j * math.pi / 4))
    cxu = gate_unitary(cx(0, 1))
    # wires (control, target): |10> -> |11>
    assert cxu[3, 2] == 1 and cxu[2, 3] == 1 and cxu[0, 0] == 1
    swu = gate_unitary(swap(0, 1))
    assert swu[1, 2] == 1 and swu[2, 1] == 1
    cpu = gate_unitary(cp(math.pi / 2, 0, 1))
    assert cpu[3, 3] == pytest.approx(1j)


def test_dagger_inverts_every_gate():
    gates = [
        h(0), x(0), y(0), z(0), s(0), sdg(0), t(0), tdg(0),
        p(0.3, 0), rz(-0.8, 0), cx(0, 1), cp(1.7, 0, 1), swap(0, 1),
        mcp(0.5, [0, 1], 2),
    ]
    for g in gates:
        u = gate_unitary(g)
        v = gate_unitary(dagger(g))
        assert np.allclose(u @ v, np.eye(u.shape[0]), atol=1e-12), g.kind


def test_dagger_swaps_s_t_pairs():
    assert dagger(s(0)).kind is GateKind.SDG
    assert dagger(sdg(0)).kind is GateKind.S
    assert dagger(t(0)).kind is GateKind.TDG
    assert dagger(tdg(0)).kind is GateKind.T
    assert dagger(p(0.4, 0)).angle == -0.4


def test_target_blocks_are_immutable():
    # every kind's block is shared, so a caller must not be able to change it
    for kind in GateKind:
        nc, nt, row_block, _ = GATE_TABLE[kind]
        angle = 0.3 if callable(row_block) else None
        g = Gate(kind, angle, tuple(range(nt, nt + (nc or 1))), tuple(range(nt)))
        block = target_unitary(g)
        assert isinstance(block, tuple) and len(block) == 2**nt, kind
        assert all(isinstance(row, tuple) and len(row) == 2**nt for row in block), kind
        assert all(type(v) is complex for row in block for v in row), kind


def test_gate_unitary_refuses_oversized_mcp():
    wires = list(range(MAX_UNITARY_WIRES + 1))
    g = mcp(0.1, wires[:-1], wires[-1])
    with pytest.raises(ValueError):
        gate_unitary(g)
