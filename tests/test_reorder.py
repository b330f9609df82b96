"""Swap-elimination pass: semantics, permutations, bit remapping."""

import random

import pytest

from qdd.circuit import Circuit, GateKind, cx, h, swap, x
from qdd.generators import qft
from qdd.oracle import simulate_dense
from qdd.reorder import ReorderMode, permute_bits, reorder
from util import random_circuit


def test_none_mode_is_identity():
    c = Circuit(3, (h(0), swap(0, 1), x(0)))
    out, report = reorder(c, ReorderMode.NONE)
    assert out.gates == c.gates
    assert report.swaps_removed == 0
    assert out.output_permutation == (0, 1, 2)


def test_all_mode_relabels_downstream_gates():
    # SWAP(0,1) then X(0): the X acts on what is now wire 1
    c = Circuit(2, (swap(0, 1), x(0)))
    out, report = reorder(c, ReorderMode.ALL)
    assert report.swaps_removed == 1
    assert len(out.gates) == 1
    assert out.gates[0].kind is GateKind.X
    assert out.gates[0].targets == (1,)
    assert out.output_permutation == (1, 0)


def test_trailing_mode_only_touches_the_suffix():
    c = Circuit(3, (swap(0, 1), h(0), swap(0, 2), swap(1, 2)))
    out, report = reorder(c, ReorderMode.TRAILING)
    # the leading swap and the H stay; the two trailing swaps go
    assert report.swaps_removed == 2
    assert [g.kind for g in out.gates] == [GateKind.SWAP, GateKind.H]
    # the dropped swaps move wire contents 0->1->2->0, so a query for
    # original bits (b0,b1,b2) reads transformed bits (b1,b2,b0):
    # permute_bits places bits[q] at out[mapping[q]]
    assert out.output_permutation == (2, 0, 1)
    base = simulate_dense(c)
    for idx in range(8):
        bits = format(idx, "03b")
        remapped = permute_bits(out.output_permutation, bits)
        assert abs(base.amplitude(bits) - simulate_dense(out).amplitude(remapped)) < 1e-12


def test_trailing_on_swap_free_circuit_is_identity():
    c = Circuit(2, (h(0), cx(0, 1)))
    for mode in ReorderMode:
        out, report = reorder(c, mode)
        assert out is c  # a pass that deletes nothing returns its input
        assert report.swaps_removed == 0
        assert out.output_permutation == (0, 1)


def test_all_mode_removes_every_swap():
    rng = random.Random(2)
    for _ in range(20):
        c = random_circuit(rng)
        out, report = reorder(c, ReorderMode.ALL)
        assert all(g.kind is not GateKind.SWAP for g in out.gates)
        swaps = sum(g.kind is GateKind.SWAP for g in c.gates)
        assert report.swaps_removed == swaps
        assert len(out.gates) == len(c.gates) - swaps


def test_qft3_trailing_fixture():
    c = qft(3)
    out, report = reorder(c, ReorderMode.TRAILING)
    assert report.swaps_removed == 1
    assert len(out.gates) == len(c.gates) - 1
    assert out.output_permutation == (2, 1, 0)


def test_permute_bits_moves_characters():
    perm = (2, 1, 0)
    assert permute_bits(perm, "100") == "001"
    assert permute_bits(perm, "110") == "011"
    perm = (1, 2, 0)
    # qubit 0 now lives on wire 1, qubit 1 on wire 2, qubit 2 on wire 0
    assert permute_bits(perm, "110") == "011"
    assert permute_bits(perm, "100") == "010"


def test_permute_bits_rejects_bad_length():
    with pytest.raises(ValueError):
        permute_bits((0, 1), "011")


def test_semantic_equivalence_under_remapping():
    rng = random.Random(20260819)
    for _ in range(40):
        c = random_circuit(rng, max_qubits=6, max_depth=25)
        n = c.num_qubits
        ref = simulate_dense(c)
        for mode in (ReorderMode.TRAILING, ReorderMode.ALL):
            out, report = reorder(c, mode)
            got = simulate_dense(out)
            perm = out.output_permutation
            for idx in range(2**n):
                bits = format(idx, f"0{n}b")
                assert got.amplitude(permute_bits(perm, bits)) == pytest.approx(
                    ref.amplitude(bits), abs=1e-9
                ), (mode, bits)


def test_composes_with_preexisting_permutation():
    # a circuit already carrying a permutation gets the pass composed on top;
    # both sides must agree when each is queried through its own permutation
    base = Circuit(2, (swap(0, 1), x(0)))
    first, _ = reorder(base, ReorderMode.ALL)
    extended = Circuit(2, first.gates + (swap(0, 1),), first.output_permutation)
    final, _ = reorder(extended, ReorderMode.ALL)
    # the appended swap undoes the recorded relabeling, so the total is identity
    assert final.output_permutation == (0, 1)
    ref = simulate_dense(Circuit(2, extended.gates))
    got = simulate_dense(Circuit(2, final.gates))
    for bits in ("00", "01", "10", "11"):
        assert got.amplitude(permute_bits(final.output_permutation, bits)) == pytest.approx(
            ref.amplitude(permute_bits(extended.output_permutation, bits)), abs=1e-12
        )
