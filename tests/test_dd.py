"""Decision-diagram package: canonicity, normalization, arithmetic, gc."""

import math
import random

import numpy as np
import pytest

from qdd import dd
from qdd.circuit import Circuit, cp, cx, dagger, gate_unitary, h, mcp, p, swap, x
from qdd.dd import (
    DDPackage,
    Edge,
    SimulationTimeout,
    TERMINAL,
    ZERO,
    amplitude,
    count_nodes,
    norm_squared,
    to_statevector,
)
from qdd.oracle import max_abs_diff, simulate_dense
from util import random_circuit

INV_SQRT2 = 1 / math.sqrt(2)


@pytest.fixture
def pkg3():
    return DDPackage(3)


# ---------------------------------------------------------------- interning


def test_identical_vector_nodes_intern_to_same_object(pkg3):
    a = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    b = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert a.node is b.node


def test_interning_tolerates_eps_noise(pkg3):
    noisy = Edge(1.0 + 4e-13j, TERMINAL)
    a = pkg3.make_vector_node(2, dd.ONE, noisy)
    b = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert a.node is b.node


def test_symmetric_children_normalize_to_unit_first_edge(pkg3):
    # equal children keep weight 1 on the edge; the split factor lives upstream
    e = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert e.weight == 1
    assert e.node.edges[0].weight == 1
    assert e.node.edges[1].weight == 1


def test_first_nonzero_successor_gets_weight_exactly_one(pkg3):
    e = pkg3.make_vector_node(2, Edge(0.3 + 0.1j, TERMINAL), Edge(-0.2j, TERMINAL))
    assert e.node.edges[0].weight == 1
    assert e.weight == pytest.approx(0.3 + 0.1j)
    # zero first child: pivot moves to the second successor
    e = pkg3.make_vector_node(2, ZERO, Edge(0.5j, TERMINAL))
    assert e.node.edges[0] == ZERO
    assert e.node.edges[1].weight == 1
    assert e.weight == pytest.approx(0.5j)


def test_all_zero_children_collapse_to_zero_edge(pkg3):
    e = pkg3.make_vector_node(2, ZERO, ZERO)
    assert e == ZERO
    m = pkg3.make_matrix_node(2, ZERO, ZERO, ZERO, ZERO)
    assert m == ZERO


def test_near_zero_weights_snap_to_canonical_zero(pkg3):
    tiny = Edge(1e-14 + 1e-15j, TERMINAL)
    e = pkg3.make_vector_node(2, tiny, tiny)
    assert e == ZERO


def test_level_bounds_are_enforced(pkg3):
    with pytest.raises(ValueError):
        pkg3.make_vector_node(3, dd.ONE, dd.ONE)
    with pytest.raises(ValueError):
        pkg3.make_vector_node(-1, dd.ONE, dd.ONE)


def test_child_level_must_be_directly_below(pkg3):
    top = pkg3.make_vector_node(2, dd.ONE, ZERO)
    with pytest.raises(ValueError):
        pkg3.make_vector_node(0, top, ZERO)  # skips level 1


# ---------------------------------------------------------------- basis states


def test_basis_state_has_exactly_n_nodes(pkg3):
    e = pkg3.basis_state("010")
    assert count_nodes(e) == 3
    assert pkg3.amplitude(e, "010") == 1
    assert pkg3.amplitude(e, "000") == 0
    assert pkg3.amplitude(e, "011") == 0


def test_basis_state_ten_qubits_node_count():
    pkg = DDPackage(10)
    e = pkg.basis_state("0101010101")
    assert count_nodes(e) == 10
    assert pkg.amplitude(e, "0101010101") == 1


def test_basis_state_rejects_wrong_length(pkg3):
    with pytest.raises(ValueError):
        pkg3.basis_state("01")


def test_amplitude_rejects_wrong_length(pkg3):
    e = pkg3.basis_state("000")
    with pytest.raises(ValueError):
        pkg3.amplitude(e, "00")


# ---------------------------------------------------------------- gate DDs


def test_hadamard_gate_dd_matches_unitary(pkg3):
    op = pkg3.gate_dd(h(0))
    st = pkg3.apply(op, pkg3.basis_state("000"))
    assert pkg3.amplitude(st, "000") == pytest.approx(INV_SQRT2)
    assert pkg3.amplitude(st, "100") == pytest.approx(INV_SQRT2)
    assert pkg3.amplitude(st, "010") == 0


def test_identity_apply_returns_same_node(pkg3):
    rng = random.Random(3)
    c = random_circuit(rng, max_qubits=3, max_depth=8)
    pkg = DDPackage(c.num_qubits)
    st = pkg.basis_state("0" * c.num_qubits)
    for g in c.gates:
        st = pkg.apply(pkg.gate_dd(g), st)
    eye = pkg.gate_dd(p(0.0, 0))
    out = pkg.apply(eye, st)
    assert out.node is st.node
    assert out.weight == pytest.approx(st.weight, abs=1e-12)


def test_gate_dd_all_gates_match_dense_oracle():
    gates = [
        h(1), x(0), cx(0, 2), cx(2, 0), cp(0.77, 2, 1), swap(0, 2),
        mcp(1.3, [0, 2], 1), p(0.4, 2),
    ]
    for g in gates:
        c = Circuit(3, (h(0), h(1), h(2), g))
        pkg = DDPackage(3)
        st = pkg.basis_state("000")
        for gg in c.gates:
            st = pkg.apply(pkg.gate_dd(gg), st)
        assert max_abs_diff(simulate_dense(c), to_statevector(st, 3)) < 1e-12, g.kind


def test_gate_inverse_roundtrip_returns_same_state():
    kinds = [h(0), x(1), cp(0.9, 0, 2), swap(1, 2), mcp(0.31, [1], 0), p(-2.2, 1)]
    pkg = DDPackage(3)
    st = pkg.basis_state("000")
    for g in [h(0), h(1), h(2), cp(0.3, 0, 1)]:
        st = pkg.apply(pkg.gate_dd(g), st)
    for g in kinds:
        fwd = pkg.apply(pkg.gate_dd(g), st)
        back = pkg.apply(pkg.gate_dd(dagger(g)), fwd)
        assert back.node is st.node
        assert back.weight == pytest.approx(st.weight, abs=1e-9)


def test_gate_dd_rejects_out_of_range_wires(pkg3):
    with pytest.raises(ValueError):
        pkg3.gate_dd(h(3))
    with pytest.raises(ValueError):
        pkg3.gate_dd(cx(1, 1))


# ---------------------------------------------------------------- add / apply


def test_add_zero_is_identity(pkg3):
    st = pkg3.basis_state("010")
    out = pkg3.add(st, ZERO)
    assert out == st
    out = pkg3.add(ZERO, st)
    assert out == st


def test_add_matches_oracle_on_random_dds():
    rng = random.Random(11)
    pkg = DDPackage(3)
    for _ in range(30):
        va = _random_state(pkg, rng)
        vb = _random_state(pkg, rng)
        got = to_statevector(pkg.add(va, vb), 3)
        want = to_statevector(va, 3) + to_statevector(vb, 3)
        assert np.max(np.abs(got - want)) < 1e-10


def test_add_commutes_and_associates():
    rng = random.Random(12)
    pkg = DDPackage(3)
    for _ in range(15):
        a, b, c = (_random_state(pkg, rng) for _ in range(3))
        ab = to_statevector(pkg.add(a, b), 3)
        ba = to_statevector(pkg.add(b, a), 3)
        assert np.max(np.abs(ab - ba)) < 1e-10
        l = to_statevector(pkg.add(pkg.add(a, b), c), 3)
        r = to_statevector(pkg.add(a, pkg.add(b, c)), 3)
        assert np.max(np.abs(l - r)) < 1e-9


def _random_state(pkg: DDPackage, rng: random.Random) -> Edge:
    """Random short circuit output; exercises varied node structure."""
    c = random_circuit(rng, max_qubits=3, max_depth=10)
    st = pkg.basis_state("000")
    for g in c.gates:
        if any(w >= 3 for w in g.wires):
            continue
        st = pkg.apply(pkg.gate_dd(g), st)
    return st


def test_apply_rejects_operand_mix(pkg3):
    st = pkg3.basis_state("000")
    op = pkg3.gate_dd(h(0))
    with pytest.raises(TypeError):
        pkg3.apply(st, st)
    with pytest.raises(TypeError):
        pkg3.add(op, st)


def test_memoization_is_consistent_with_recomputation():
    # same products through a warm cache equal fresh-package results
    rng = random.Random(99)
    c = random_circuit(rng, max_qubits=4, max_depth=20)
    n = c.num_qubits
    warm = DDPackage(n)
    st = warm.basis_state("0" * n)
    for i, g in enumerate(c.gates):
        st = warm.apply(warm.gate_dd(g), st)
        warm.apply(warm.gate_dd(g), st)  # exercise the cached path
        cold = DDPackage(n)
        stc = cold.basis_state("0" * n)
        for gg in c.gates[: i + 1]:
            stc = cold.apply(cold.gate_dd(gg), stc)
        assert np.max(np.abs(to_statevector(st, n) - to_statevector(stc, n))) < 1e-10


def test_full_compute_tables_clear_and_stay_correct(monkeypatch):
    limit = 8
    monkeypatch.setattr(dd, "COMPUTE_TABLE_LIMIT", limit)
    rng = random.Random(5)
    cleared = False
    for _ in range(5):
        c = random_circuit(rng, max_qubits=4, max_depth=20)
        n = c.num_qubits
        pkg = DDPackage(n)
        st = pkg.basis_state("0" * n)
        for g in c.gates:
            before = len(pkg._mul_cache) + len(pkg._add_cache)
            st = pkg.apply(pkg.gate_dd(g), st)
            assert len(pkg._mul_cache) <= limit and len(pkg._add_cache) <= limit
            cleared = cleared or len(pkg._mul_cache) + len(pkg._add_cache) < before
        assert pkg.gc_runs == 0
        assert max_abs_diff(simulate_dense(c), to_statevector(st, n)) < 1e-9
    assert cleared, "no compute table ever filled up"


# ---------------------------------------------------------------- norms, vectors


def test_norm_squared_matches_statevector():
    rng = random.Random(21)
    for _ in range(10):
        c = random_circuit(rng, max_qubits=4, max_depth=15)
        n = c.num_qubits
        pkg = DDPackage(n)
        st = pkg.basis_state("0" * n)
        for g in c.gates:
            st = pkg.apply(pkg.gate_dd(g), st)
        vec = to_statevector(st, n)
        assert norm_squared(st) == pytest.approx(float(np.vdot(vec, vec).real), abs=1e-10)
        assert norm_squared(st) == pytest.approx(1.0, abs=1e-9)


def test_ghz_node_count_regression():
    # GHZ chain re-shares the |0...0>/|1...1> tails: 2n-1 nodes
    for n in (2, 3, 6, 10):
        pkg = DDPackage(n)
        st = pkg.basis_state("0" * n)
        st = pkg.apply(pkg.gate_dd(h(0)), st)
        for q in range(n - 1):
            st = pkg.apply(pkg.gate_dd(cx(q, q + 1)), st)
        assert count_nodes(st) == 2 * n - 1, n


def test_zero_edge_count_and_amplitude():
    assert count_nodes(ZERO) == 0
    assert amplitude(ZERO, "101") == 0


# ---------------------------------------------------------------- gc


def test_gc_with_rooted_state_reclaims_only_garbage():
    pkg = DDPackage(4)
    keep = pkg.basis_state("0101")
    pkg.inc_ref(keep)
    drop = pkg.basis_state("1110")
    before = pkg.node_count
    reclaimed = pkg.collect_garbage()
    assert reclaimed > 0
    assert pkg.node_count == before - reclaimed
    assert pkg.amplitude(keep, "0101") == 1


def test_gc_with_everything_rooted_reclaims_nothing():
    pkg = DDPackage(3)
    st = pkg.basis_state("010")
    pkg.inc_ref(st)
    assert pkg.collect_garbage() == 0


def test_gc_preserves_amplitudes_of_roots():
    rng = random.Random(8)
    c = random_circuit(rng, max_qubits=5, max_depth=20)
    n = c.num_qubits
    pkg = DDPackage(n)
    st = pkg.basis_state("0" * n)
    for g in c.gates:
        st = pkg.apply(pkg.gate_dd(g), st)
    before = to_statevector(st, n)
    pkg.collect_garbage(roots=(st,))
    after = to_statevector(st, n)
    assert np.array_equal(before, after)


def test_gc_then_new_constructions_still_canonical():
    pkg = DDPackage(3)
    st = pkg.basis_state("000")
    pkg.inc_ref(st)
    pkg.collect_garbage()
    again = pkg.basis_state("000")
    assert again.node is st.node


def test_maybe_collect_honors_threshold():
    pkg = DDPackage(4, gc_threshold=1)
    st = pkg.basis_state("0000")
    pkg.inc_ref(st)
    _ = pkg.basis_state("1111")
    pkg.maybe_collect((st,))
    assert pkg.gc_runs == 1
    assert pkg.amplitude(st, "0000") == 1


# ---------------------------------------------------------------- timeout


def test_deadline_aborts_long_apply():
    n = 14
    pkg = DDPackage(n)
    from qdd.generators import entangled_qft

    c = entangled_qft(n)
    pkg.deadline = 0.001  # already in the past
    st = pkg.basis_state("0" * n)
    with pytest.raises(SimulationTimeout):
        for g in c.gates:
            st = pkg.apply(pkg.gate_dd(g), st)


def test_deadline_aborts_long_add():
    # the sum of two 16-qubit QFT outputs recurses through ~2^16 distinct weight pairs
    n = 16
    pkg = DDPackage(n)
    from qdd.generators import qft

    outs = []
    for bits in ("0" * n, "0" * (n - 1) + "1"):
        st = pkg.basis_state(bits)
        for g in qft(n, True).gates:
            st = pkg.apply(pkg.gate_dd(g), st)
        outs.append(st)
    pkg.deadline = 0.001  # already in the past
    with pytest.raises(SimulationTimeout):
        pkg.add(*outs)


# ---------------------------------------------------------------- statevector export


def test_to_statevector_matches_amplitudes():
    rng = random.Random(31)
    c = random_circuit(rng, max_qubits=4, max_depth=12)
    n = c.num_qubits
    pkg = DDPackage(n)
    st = pkg.basis_state("0" * n)
    for g in c.gates:
        st = pkg.apply(pkg.gate_dd(g), st)
    vec = to_statevector(st, n)
    for idx in range(2**n):
        bits = format(idx, f"0{n}b")
        assert vec[idx] == pytest.approx(pkg.amplitude(st, bits), abs=1e-12)
