"""Decision-diagram package: canonicity, normalization, arithmetic, gc."""

import cmath
import math
import random
import time

import numpy as np
import pytest

from qdd import dd
from qdd.circuit import (
    DIAGONAL_KINDS, GATE_TABLE, MAX_UNITARY_WIRES, Circuit, Gate, GateKind, cp, cx, dagger, gate_unitary, h, mcp, p,
    rz, s, sdg, swap, t, tdg, x, y, z,
)
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
from qdd.generators import entangled_qft
from qdd.oracle import max_abs_diff, simulate_dense
from qdd.reorder import ReorderMode, reorder
from qdd.runner import run
from util import random_circuit

INV_SQRT2 = 1 / math.sqrt(2)


@pytest.fixture
def pkg3():
    return DDPackage(3)


# ---------------------------------------------------------------- interning


def test_identical_vector_nodes_intern_to_same_object(pkg3):
    a = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    b = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert a[1] is b[1]


def test_interning_tolerates_eps_noise(pkg3):
    noisy = (1.0 + 4e-13j, TERMINAL)
    a = pkg3.make_vector_node(2, dd.ONE, noisy)
    b = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert a[1] is b[1]


def test_symmetric_children_normalize_to_unit_first_edge(pkg3):
    # equal children keep weight 1 on the edge; the split factor lives upstream
    e = pkg3.make_vector_node(2, dd.ONE, dd.ONE)
    assert e[0] == 1
    assert e[1].edges[0] == 1
    assert e[1].edges[2] == 1


def test_first_nonzero_successor_gets_weight_exactly_one(pkg3):
    e = pkg3.make_vector_node(2, (0.3 + 0.1j, TERMINAL), (-0.2j, TERMINAL))
    assert e[1].edges[0] == 1
    assert e[0] == pytest.approx(0.3 + 0.1j)
    # zero first child: pivot moves to the second successor
    e = pkg3.make_vector_node(2, ZERO, (0.5j, TERMINAL))
    assert e[1].edges[:2] == ZERO
    assert e[1].edges[2] == 1
    assert e[0] == pytest.approx(0.5j)


def test_all_zero_children_collapse_to_zero_edge(pkg3):
    e = pkg3.make_vector_node(2, ZERO, ZERO)
    assert e == ZERO
    m = dd._norm_matrix(2, ZERO, ZERO, ZERO, ZERO)
    assert m == ZERO


def test_near_zero_weights_snap_to_canonical_zero(pkg3):
    tiny = (1e-14 + 1e-15j, TERMINAL)
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


def _wrap_weights() -> list[complex]:
    rng = random.Random(7)
    phases = [complex(math.cos(t), math.sin(t)) for t in (rng.uniform(-math.pi, math.pi) for _ in range(40))]
    scaled = [r * ph for r in (1e-9, 0.3, 7.5, 1e6) for ph in phases[:4]]
    up = math.nextafter(dd.EPS, math.inf)
    down = math.nextafter(dd.EPS, 0.0)
    near_eps = [complex(s * v, 0.0) for s in (1, -1) for v in (dd.EPS, down, up)]
    near_eps += [complex(0.0, s * v) for s in (1, -1) for v in (dd.EPS, down, up)]
    near_eps += [complex(dd.EPS, -dd.EPS), complex(up, up), complex(down, -up)]
    return [1 + 0j, complex(INV_SQRT2), 0j, *phases, *scaled, *near_eps]


WRAP_WEIGHTS = _wrap_weights()


def test_wrap_weights_include_a_division_residue():
    # the weights below must tell w / w from 1, or they cannot tell a bucket
    # compare on an identity wrapper's slot 3 from an exact one
    assert any(w / w != 1 for w in WRAP_WEIGHTS if w)


@pytest.mark.parametrize("below", [False, True], ids=["terminal", "node"])
@pytest.mark.parametrize("w", WRAP_WEIGHTS, ids=repr)
def test_wrap_matches_general_interning(w, below):
    # matrix normalization reduces the identity wrapper [e, 0; 0, e] to e itself and
    # makes no node, around a terminal e and around a Z-like node e one level down alike
    child, level = TERMINAL, 2
    if below:
        child, level = dd._norm_matrix(2, dd.ONE, ZERO, ZERO, (-1 + 0j, TERMINAL))[1], 1
    got = dd._norm_matrix(level, (w, child), ZERO, ZERO, (w, child))
    if -dd.EPS <= w.real <= dd.EPS and -dd.EPS <= w.imag <= dd.EPS:
        assert got == ZERO
    else:
        assert got[1] is child and _bucket(got[0]) == _bucket(w)
        # a sign flip in slot 3 is a Z on this level, not the identity
        assert dd._norm_matrix(level, (w, child), ZERO, ZERO, (-w, child))[1].level == level


def _norm_matrix_reference(level: int, edges: list[Edge]) -> Edge:
    # the list-taking matrix interning that a four-edge routine replaced, kept line
    # for line as the reference for its weights, children and identity reduction;
    # only its unique table is gone, since matrix nodes are no longer interned
    pidx = -1
    pivot = 0j
    for i, e in enumerate(edges):
        w = e[0]
        if -dd.EPS <= w.real <= dd.EPS and -dd.EPS <= w.imag <= dd.EPS:
            edges[i] = ZERO
        else:
            pidx = i
            pivot = w
            break
    if pidx < 0:
        return ZERO
    edges[pidx] = (complex(1.0, 0.0), edges[pidx][1])
    for i in range(pidx + 1, len(edges)):
        e = edges[i]
        w = e[0]
        if w.real == 0.0 and w.imag == 0.0:
            edges[i] = ZERO
            continue
        w = w / pivot
        if -dd.EPS <= w.real <= dd.EPS and -dd.EPS <= w.imag <= dd.EPS:
            edges[i] = ZERO
        else:
            edges[i] = (w, e[1])
    key_parts = []
    for e in edges:
        w = e[0]
        key_parts.append(round(w.real * dd._INV_EPS))
        key_parts.append(round(w.imag * dd._INV_EPS))
        key_parts.append(id(e[1]))
    key = tuple(key_parts)
    if edges[1] is ZERO and edges[2] is ZERO and key[9:] == key[:3]:
        return (pivot, edges[0][1])
    return (pivot, dd.Node(level, (*edges[0], *edges[1], *edges[2], *edges[3])))


def _describe(edge: Edge) -> tuple:
    # bit-exact: repr round-trips every float; child nodes are shared, so their reprs match
    w, node = edge
    return repr(w), node.level, repr(node.edges)


@pytest.mark.parametrize("pivot", range(4))
@pytest.mark.parametrize("below", [False, True], ids=["terminal", "node"])
def test_norm_intern_matches_list_reference(pivot, below):
    # every weight at the pivot slot, slots before it within EPS of zero, slots after
    # it drawn from the same weights; the children are shared nodes one level
    # down, so the two results can be compared by repr
    zeros = [w for w in WRAP_WEIGHTS if -dd.EPS <= w.real <= dd.EPS and -dd.EPS <= w.imag <= dd.EPS]
    assert 0j in zeros and len(zeros) > 4
    rng = random.Random(f"norm-intern:{pivot}:{below}")
    children = [TERMINAL]
    if below:
        children = [
            dd._norm_matrix(2, dd.ONE, ZERO, ZERO, (-1 + 0j, TERMINAL))[1],
            dd._norm_matrix(2, ZERO, dd.ONE, dd.ONE, ZERO)[1],
        ]
    level = 1 if below else 2
    for w in WRAP_WEIGHTS:
        for _ in range(3):
            weights = [rng.choice(zeros) for _ in range(pivot)] + [w]
            weights += [rng.choice(WRAP_WEIGHTS) for _ in range(3 - pivot)]
            edges = [(v, rng.choice(children)) for v in weights]
            got = dd._norm_matrix(level, *edges)
            want = _norm_matrix_reference(level, list(edges))
            assert _describe(got) == _describe(want), edges


def _scaled_to(t: float) -> float | None:
    """A weight component v with v * (1/EPS) == t exactly, if one lies a few ulps from t * EPS."""
    v = t * dd.EPS
    for _ in range(16):
        scaled = v * dd._INV_EPS
        if scaled == t:
            return v
        v = math.nextafter(v, math.inf if scaled < t else -math.inf)
    return None


_TIES = [k + 0.5 for k in range(-1000, 1000)]
# |x| >= 2^51 falls back to round(); 2^51 + 1 and -(2^51 + 1.5) are where the
# fast rule alone would bucket differently
_BOUNDARY = [s * (2.0**51 + d) for s in (1, -1) for d in (-1, -0.5, 0, 0.5, 1, 1.5, 2)]


def test_unique_keys_bucket_like_round():
    # every scaled component is bucketed as round() buckets it: ties go to
    # even, and past 2^51 round() itself is called; an int key built with
    # round() and a float key with the same values find the node interned
    # (matrix nodes are not interned and have no key)
    scaled = [(t, _scaled_to(t)) for t in _TIES + _BOUNDARY]
    found = [(t, v) for t, v in scaled if v is not None]
    assert len(found) > 1800 and all(v is not None for t, v in scaled if abs(t) > 2**50)
    vec = DDPackage(1)
    t_id = id(TERMINAL)
    for t, v in found:
        w = complex(v, 1.0)  # the unit imaginary part keeps small ties off the zero snap
        r, i = round(t), round(dd._INV_EPS)
        _, node = vec._intern2(0, dd.ONE[0], TERMINAL, w, TERMINAL)
        for key in [(dd._KEY_ONE, 0, t_id, r, i, t_id), (float(dd._KEY_ONE), 0.0, t_id, float(r), float(i), t_id)]:
            assert vec._unique[0][key] is node, t
    assert vec.node_count == len({round(t) for t, _ in found})


@pytest.mark.parametrize(
    "w, error",
    [(complex(math.nan, 1), ValueError), (complex(1, math.nan), ValueError), (complex(math.inf, 1), OverflowError)],
    ids=["nan-real", "nan-imag", "inf-real"],
)
def test_non_finite_weights_raise_as_round_does(w, error):
    pkg = DDPackage(1)
    with pytest.raises(error):
        pkg._intern2(0, dd.ONE[0], TERMINAL, w, TERMINAL)
    assert pkg.node_count == 0


def _reachable(edge: Edge) -> list:
    seen, out = set(), []
    stack = [edge[1]]
    while stack:
        node = stack.pop()
        if node is TERMINAL or id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.edges[1::2])
    return out


def _bucket(w: complex) -> tuple:
    return round(w.real * dd._INV_EPS), round(w.imag * dd._INV_EPS)


def _assert_canonical_layout(edge: Edge, n: int, arity: int) -> None:
    # a vector successor sits one level down, or at the terminal from the bottom level;
    # a matrix successor sits at any deeper level or is the terminal (every level it
    # skips is the identity), and no matrix node is an identity wrapper [e, 0; 0, e]
    for node in _reachable(edge):
        flat = node.edges
        assert len(flat) == 2 * arity
        weights, children = flat[::2], flat[1::2]
        nonzero = [w for w in weights if w != 0]
        assert nonzero and repr(nonzero[0]) == "(1+0j)"
        for w, child in zip(weights, children):
            if w == 0:
                assert repr(w) == "0j" and child is TERMINAL
            elif child is TERMINAL:
                assert arity == 4 or node.level == n - 1
            elif arity == 4:
                assert child.level > node.level
            else:
                assert child.level == node.level + 1
        if arity == 4:
            assert not (weights[:3] == (1, 0, 0) and children[0] is children[3] and _bucket(weights[3]) == _bucket(1))


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.value)
def test_reachable_nodes_are_flat_and_canonical(mode):
    # states hold (w0, n0, w1, n1), gate DDs (w00, n00, ..., w11, n11)
    rng = random.Random(41)
    for _ in range(8):
        c = random_circuit(rng, max_qubits=6, max_depth=30)
        n = c.num_qubits
        transformed, _ = reorder(c, mode)
        pkg = DDPackage(n)
        for g in transformed.gates:
            _assert_canonical_layout(pkg.gate_dd(g), n, 4)
        _assert_canonical_layout(run(c, mode).final_state, n, 2)


@pytest.mark.parametrize(
    "gate",
    [
        h(2), h(5), x(0), p(0.7, 5), cx(0, 2), cx(4, 1), cp(0.7, 1, 3), swap(0, 5), swap(5, 0),
        mcp(0.7, [3, 0], 4), rz(0.4, 3), y(1),
    ],
    ids=lambda g: f"{g.kind.name}{list(g.wires)}",
)
def test_gate_dd_has_no_node_below_its_lowest_wire(gate):
    # every node sits at one of the gate's wires: the identity on each other level,
    # above, between or below them, is a skipped level, never a node
    pkg = DDPackage(6)
    nodes = _reachable(pkg.gate_dd(gate))
    assert nodes and {node.level for node in nodes} <= set(gate.wires)
    assert min(node.level for node in nodes) == min(gate.wires)


@pytest.mark.parametrize(
    "gate", [p(0.0, 0), p(0.0, 2), rz(0.0, 1), rz(0.0, 2)], ids=lambda g: f"{g.kind.name}{list(g.wires)}"
)
def test_identity_gate_dd_is_a_terminal_edge(gate):
    pkg = DDPackage(3)
    w, node = pkg.gate_dd(gate)
    assert node is TERMINAL and w == pytest.approx(1, abs=1e-15)
    assert pkg.node_count == 0


def _levels_below(edge: Edge, lowest: int) -> set:
    return {id(node) for node in _reachable(edge) if node.level > lowest}


@pytest.mark.parametrize(
    "gate",
    [h(0), x(0), p(0.7, 0), cx(0, 2), cp(0.7, 0, 3), swap(0, 2), mcp(0.7, [0, 1], 3), y(0)],
    ids=lambda g: g.kind.name,
)
def test_gate_on_wire_zero_passes_lower_subdiagrams_through(gate):
    n = 6
    prep = [h(q) for q in range(n)] + [cp(0.3 + q, q, (q + 2) % n) for q in range(n)] + [rz(0.4, 5)]
    pkg = DDPackage(n)
    state = pkg.basis_state("0" * n)
    for g in prep:
        state = pkg.apply(pkg.gate_dd(g), state)
    lowest = max(gate.wires)
    factors = []  # the matrix node of every product _mul is asked for
    mul = pkg._mul

    def recording_mul(wm, mn, wv, vn):
        factors.append(mn)
        return mul(wm, mn, wv, vn)

    pkg._mul = recording_mul  # the recursion calls self._mul, so every product is recorded
    out = pkg.apply(pkg.gate_dd(gate), state)
    # below the lowest wire the gate is the identity (a terminal successor,
    # level -1): no product is formed there
    assert factors
    assert all(mn.level <= lowest for mn in factors)
    if gate.kind is not GateKind.H:  # H sums the branches below it; the others only move or scale them
        assert _levels_below(out, lowest) <= _levels_below(state, lowest)
    want = simulate_dense(Circuit(n, (*prep, gate)))
    assert max_abs_diff(want, to_statevector(out, n)) < 1e-12


def test_diagonal_kinds_are_derived_from_the_gate_table():
    want = {GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.P, GateKind.RZ, GateKind.CP,
            GateKind.MCP}
    assert DIAGONAL_KINDS == want


def _diagonal_test_states(pkg: DDPackage) -> list:
    n = pkg.num_qubits
    layer = pkg.basis_state("0" * n)
    for q in range(n):
        layer = pkg.apply(pkg.gate_dd(h(q)), layer)
    entangled = pkg.basis_state("0" * n)
    for g in entangled_qft(n).gates:
        entangled = pkg.apply(pkg.gate_dd(g), entangled)
    return [pkg.basis_state("011010"), layer, entangled, ZERO]


@pytest.mark.parametrize(
    "gate",
    [
        z(0), s(2), sdg(5), t(3), tdg(1), p(0.7, 5), p(-2.1, 0), rz(0.7, 2), rz(-2.1, 5),
        cp(0.7, 1, 4), cp(0.7, 4, 1), cp(-2.1, 0, 5), cp(-2.1, 5, 0),
        mcp(0.7, (1, 4, 5), 3), mcp(0.7, (0, 2), 5), mcp(0.7, (3, 5), 0),
        *(g for a in (0.0, 1e-13, -1e-13) for g in (p(a, 3), rz(a, 0), cp(a, 2, 4), cp(a, 4, 2), mcp(a, (0, 5), 3))),
    ],
    ids=lambda g: f"{g.kind.name}({g.angle}){list(g.wires)}",
)
def test_apply_diagonal_is_bit_identical_to_the_gate_dd_product(gate):
    # the walk makes _mul's products in _mul's order, so both packages intern
    # the same nodes, and a third product in the first finds them all
    walked, multiplied = DDPackage(6), DDPackage(6)
    for i, (state, ref) in enumerate(zip(_diagonal_test_states(walked), _diagonal_test_states(multiplied))):
        before, ref_before = walked.node_count, multiplied.node_count
        out = walked.apply_diagonal(gate, state)
        want = multiplied.apply(multiplied.gate_dd(gate), ref)
        assert walked.node_count - before == multiplied.node_count - ref_before, i
        assert out[0] == want[0], i
        assert to_statevector(out, 6).tobytes() == to_statevector(want, 6).tobytes(), i
        grown = walked.node_count
        again = walked.apply(walked.gate_dd(gate), state)
        assert again[1] is out[1] and again[0] == out[0] and walked.node_count == grown, i


@pytest.mark.parametrize("gate", [h(0), x(1), y(2), cx(0, 1), swap(0, 2), p(0.3, 3), cp(0.3, 0, 0), mcp(0.3, (), 1)])
def test_apply_diagonal_rejects_other_gates(pkg3, gate):
    with pytest.raises(ValueError):
        pkg3.apply_diagonal(gate, pkg3.basis_state("000"))


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
    assert out[1] is st[1]
    assert out[0] == pytest.approx(st[0], abs=1e-12)


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


def test_gate_dd_full_operator_matches_embedded_unitary():
    # identity levels above, between and below the gate's wires; Y is the one
    # gate whose unitary is not symmetric, so it catches a row/column mix-up
    n = 5
    theta = 0.9
    gates = [
        h(2), cp(theta, 4, 0), cp(theta, 0, 4), cx(3, 1), cx(1, 3), swap(4, 1),
        mcp(theta, [3, 0], 2), mcp(theta, [4, 3], 0), mcp(theta, [0, 1], 4), rz(theta, 0), y(3),
    ]

    def bit(i, q):
        return (i >> (n - 1 - q)) & 1

    def local(i, wires):  # index into the gate's unitary: wires[0] is its MSB
        return sum(bit(i, w) << (len(wires) - 1 - j) for j, w in enumerate(wires))

    for g in gates:
        u = gate_unitary(g)
        others = [q for q in range(n) if q not in g.wires]
        dense = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        for r in range(1 << n):
            for c in range(1 << n):
                if all(bit(r, q) == bit(c, q) for q in others):
                    dense[r, c] = u[local(r, g.wires), local(c, g.wires)]
        pkg = DDPackage(n)
        op = pkg.gate_dd(g)
        for c in range(1 << n):
            col = to_statevector(pkg.apply(op, pkg.basis_state(format(c, f"0{n}b"))), n)
            assert np.max(np.abs(col - dense[:, c])) < 1e-12, (g, c)


def test_wide_mcp_gate_dd_is_linear(monkeypatch):
    # controls on both sides of the target: a control level makes one node per
    # target block, so the build is linear in the wires, never 4^k
    norm = dd._norm_matrix
    for k in range(2, MAX_UNITARY_WIRES + 1):
        pkg = DDPackage(k)
        calls = 0
        limit = 4 * k

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise AssertionError(f"more than {limit} normalization calls at k={k}")
            return norm(*args)

        monkeypatch.setattr(dd, "_norm_matrix", counted)
        target = k // 2
        gate = mcp(0.7, [q for q in range(k) if q != target], target)
        op = pkg.gate_dd(gate)
        assert count_nodes(op) == k
        assert pkg.amplitude(pkg.apply(op, pkg.basis_state("1" * k)), "1" * k) == pytest.approx(cmath.exp(0.7j))


@pytest.mark.parametrize(
    "gate, calls, nodes",
    [(cp(0.7, 2, 0), 3, 2), (mcp(0.7, (0, 2), 1), 4, 3), (cx(2, 0), 3, 3)],
    ids=["cp-control-below", "mcp-controls-around", "cx-control-below"],
)
def test_control_level_skips_zero_blocks(gate, calls, nodes, monkeypatch):
    # a zero off-diagonal block at a control level stays zero without a
    # normalization call, and equal blocks there are normalized once into one
    # node: cx(2, 0)'s two diagonal and two off-diagonal blocks make 2 nodes, not 4
    pkg = DDPackage(3)
    seen = 0
    inner = dd._norm_matrix

    def counted(*args):
        nonlocal seen
        seen += 1
        return inner(*args)

    monkeypatch.setattr(dd, "_norm_matrix", counted)
    op = pkg.gate_dd(gate)
    assert (seen, count_nodes(op)) == (calls, nodes)


def _gate_of(kind: GateKind) -> Gate:
    # one gate of each kind on 3 wires, wires out of order to touch every level
    nc, nt, block, _ = GATE_TABLE[kind]
    nc = 2 if nc is None else nc
    wires = (2, 0, 1)
    return Gate(kind, 0.7 if callable(block) else None, wires[:nc], wires[nc : nc + nt])


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.name)
def test_gate_dd_interns_nothing(kind):
    # gate DDs are built for one apply and never shared: the unique tables, and
    # so node_count and run()'s peaks, hold state nodes only
    pkg = DDPackage(3)
    op = pkg.gate_dd(_gate_of(kind))
    assert count_nodes(op) > 0
    assert pkg.node_count == 0 and not any(pkg._unique)


def test_gate_inverse_roundtrip_returns_same_state():
    kinds = [h(0), x(1), cp(0.9, 0, 2), swap(1, 2), mcp(0.31, [1], 0), p(-2.2, 1)]
    pkg = DDPackage(3)
    st = pkg.basis_state("000")
    for g in [h(0), h(1), h(2), cp(0.3, 0, 1)]:
        st = pkg.apply(pkg.gate_dd(g), st)
    for g in kinds:
        fwd = pkg.apply(pkg.gate_dd(g), st)
        back = pkg.apply(pkg.gate_dd(dagger(g)), fwd)
        assert back[1] is st[1]
        assert back[0] == pytest.approx(st[0], abs=1e-9)


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


def test_add_memo_keeps_phase_fan_sums_polynomial():
    # H everywhere, then cp(pi/2, 0, q) for q = 1..k puts 2^k distinct weight pairs
    # under wire 0's branches; the closing H sums them. The memo makes that O(k^2)
    # add calls (2k^2 + 4k + 4 measured); without it the sum recurses through every
    # pair and the deadline stops it within seconds.
    k = 30
    n = k + 1
    pkg = DDPackage(n)
    calls = 0
    add = pkg._add

    def counting_add(*args):
        nonlocal calls
        calls += 1
        return add(*args)

    pkg._add = counting_add  # the recursion calls self._add, so every call is counted
    gates = [h(q) for q in range(n)] + [cp(math.pi / 2, 0, q) for q in range(1, n)] + [h(0)]
    pkg.deadline = time.perf_counter() + 10.0
    st = pkg.basis_state("0" * n)
    for g in gates:
        st = pkg.apply(pkg.gate_dd(g), st)
    assert calls <= 3 * k * k
    assert norm_squared(st) == pytest.approx(1.0, abs=1e-9)


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
    with pytest.raises(TypeError):
        pkg3.add(op, op)  # matrix DDs are only built and applied, never summed


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
    # the memos live for one apply(); entangled_qft(5) is the circuit here
    # whose single operations fill both past the limit
    circuits = [random_circuit(rng, max_qubits=4, max_depth=20) for _ in range(5)] + [entangled_qft(5)]
    cleared = set()
    for c in circuits:
        n = c.num_qubits
        pkg = DDPackage(n)
        sizes = []  # (multiply, add) memo entries at each recursive call of one apply()

        def watching(f):
            def wrapper(*args):
                sizes.append((len(pkg._mul_cache), len(pkg._add_cache)))
                return f(*args)
            return wrapper

        pkg._mul, pkg._add = watching(pkg._mul), watching(pkg._add)
        st = pkg.basis_state("0" * n)
        for g in c.gates:
            sizes.clear()
            st = pkg.apply(pkg.gate_dd(g), st)
            assert max(max(held) for held in sizes) <= limit
            # inside one apply() a memo shrinks only when an insert found it full
            for name, i in (("multiply", 0), ("add", 1)):
                if any(b[i] < a[i] for a, b in zip(sizes, sizes[1:])):
                    cleared.add(name)
        assert pkg.gc_runs == 0
        assert max_abs_diff(simulate_dense(c), to_statevector(st, n)) < 1e-9
    assert cleared == {"multiply", "add"}, f"only {cleared or 'no'} memo ever filled up"


def test_memos_live_for_one_operation():
    # apply() and add() empty both memos when they return or raise, so what
    # one operation memoized never reaches the next, not even after a timeout
    n = 6
    circuits = [entangled_qft(n), Circuit(n, (x(n - 1), *entangled_qft(n).gates))]
    pkg = DDPackage(n)
    held = []  # memo entries alive at each deadline check
    check = pkg._check_deadline

    def recording_check():
        held.append(len(pkg._mul_cache) + len(pkg._add_cache))
        check()

    pkg._check_deadline = recording_check
    states = []
    for c in circuits:
        st = pkg.basis_state("0" * n)
        for g in c.gates:
            st = pkg.apply(pkg.gate_dd(g), st)
            assert not pkg._mul_cache and not pkg._add_cache
        states.append(st)
    pkg.add(*states)
    assert not pkg._mul_cache and not pkg._add_cache
    operations = (
        lambda: pkg.apply(pkg.gate_dd(h(n - 1)), states[0]),
        lambda: pkg.apply_diagonal(cp(0.3, 0, n - 1), states[0]),
        lambda: pkg.add(*states),
    )
    for operation in operations:
        pkg.deadline, pkg._tick = 0.0, -20  # the 20th tick checks the deadline, which has passed
        with pytest.raises(SimulationTimeout):
            operation()
        assert held[-1] > 0, "the timeout came before any memo entry was made"
        assert not pkg._mul_cache and not pkg._add_cache
    pkg.deadline = None
    applied, walked, total = (operation() for operation in operations)
    want = simulate_dense(Circuit(n, (*circuits[0].gates, h(n - 1))))
    assert max_abs_diff(want, to_statevector(applied, n)) < 1e-12
    want = simulate_dense(Circuit(n, (*circuits[0].gates, cp(0.3, 0, n - 1))))
    assert max_abs_diff(want, to_statevector(walked, n)) < 1e-12
    want = sum(simulate_dense(c).amplitudes for c in circuits)
    assert np.max(np.abs(to_statevector(total, n) - want)) < 1e-12


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


def test_norm_squared_of_a_terminal_edge():
    assert norm_squared(dd.ONE) == 1.0
    assert norm_squared((3 - 4j, TERMINAL)) == 25.0
    assert norm_squared(ZERO) == 0.0


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
    assert again[1] is st[1]


def test_pins_count_inc_ref_calls():
    pkg = DDPackage(3)
    st = pkg.basis_state("010")
    pkg.inc_ref(st)
    pkg.inc_ref(st)
    pkg.dec_ref(st)
    assert pkg.collect_garbage() == 0
    assert pkg.amplitude(st, "010") == 1
    pkg.dec_ref(st)
    assert pkg.collect_garbage() == 3
    assert pkg.node_count == 0
    with pytest.raises(ValueError, match="dec_ref below zero"):
        pkg.dec_ref(st)


def test_maybe_collect_honors_threshold(monkeypatch):
    monkeypatch.setattr(dd, "GC_THRESHOLD", 1)
    pkg = DDPackage(4)
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
    c = entangled_qft(n)
    pkg.deadline = 0.001  # already in the past
    st = pkg.basis_state("0" * n)
    with pytest.raises(SimulationTimeout):
        for g in c.gates:
            st = pkg.apply(pkg.gate_dd(g), st)
    # the diagonal walk ticks as _mul does, so repeated phases on the state the
    # timeout left reach the next deadline check inside a walk
    with pytest.raises(SimulationTimeout) as info:
        for _ in range(1 << 15):
            st = pkg.apply_diagonal(cp(0.1, 0, n - 1), st)
    assert [entry.name for entry in info.traceback][-2:] == ["_diag", "_check_deadline"]


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


def test_to_statevector_positions_equal_the_transposed_expansion():
    rng = random.Random(32)
    for _ in range(10):
        c = random_circuit(rng, max_qubits=6, max_depth=20)
        n = c.num_qubits
        pkg = DDPackage(n)
        st = pkg.basis_state("0" * n)
        for g in c.gates:
            st = pkg.apply(pkg.gate_dd(g), st)
        mapping = list(range(n))
        rng.shuffle(mapping)
        # index bit q is the bit of level mapping[q]: axis q of the result is axis mapping[q]
        want = to_statevector(st, n).reshape((2,) * n).transpose(mapping).reshape(-1)
        assert np.array_equal(to_statevector(st, n, mapping), want)
