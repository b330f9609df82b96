"""Run driver: results, stats and the state it restores."""

import gc
import random
import sys
import weakref

import numpy as np
import pytest

from qdd import dd
from qdd.circuit import DIAGONAL_KINDS, Circuit, cp, cx, h, swap, x
from qdd.generators import build_family, qft
from qdd.oracle import max_abs_diff, simulate_dense
from qdd.reorder import ReorderMode, reorder
from qdd.runner import run
from util import random_circuit


def test_empty_circuit_amplitude():
    result = run(Circuit(2, ()), ReorderMode.ALL)
    assert result.amplitude("00") == 1
    assert result.stats.gates_applied == 0
    assert result.stats.final_nodes == 2
    assert result.stats.peak_nodes >= result.stats.final_nodes


@pytest.mark.parametrize("mode", list(ReorderMode))
def test_run_leaves_only_the_final_root_pinned(mode):
    result = run(qft(5, True), mode)
    assert result.package._pins == {result.final_state[1]: 1}


def test_run_rejects_invalid_circuits():
    with pytest.raises(ValueError, match="invalid circuit"):
        run(Circuit(2, (h(7),)))


def test_amplitude_queries_use_original_labels():
    # swap then X(0): physically X ends up on wire 1, but queries speak
    # the original labels, so |10> is where the amplitude must appear
    c = Circuit(2, (swap(0, 1), x(0)))
    for mode in ReorderMode:
        result = run(c, mode)
        assert result.amplitude("10") == pytest.approx(1.0)
        assert result.amplitude("00") == 0


def test_amplitude_error_names_the_bits_passed():
    # ALL relabels the query through the deleted SWAP; the message must not
    # show the relabeled string
    result = run(Circuit(2, (h(0), swap(0, 1))), ReorderMode.ALL)
    with pytest.raises(ValueError, match="got '0a'"):
        result.amplitude("0a")
    with pytest.raises(ValueError, match="got '010'"):
        result.amplitude("010")


def test_statevector_matches_oracle_for_every_mode():
    rng = random.Random(4)
    for _ in range(15):
        c = random_circuit(rng, max_qubits=6, max_depth=30)
        ref = simulate_dense(c)
        n = c.num_qubits
        for mode in ReorderMode:
            result = run(c, mode)
            sv = result.statevector()
            assert max_abs_diff(ref, sv) < 1e-9
            # amplitude() permutes one basis string at a time: the reference
            assert np.array_equal(sv, [result.amplitude(format(i, f"0{n}b")) for i in range(1 << n)])


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.value)
def test_carried_three_cycle_composes_with_the_pass(mode):
    # (1, 2, 0) is not its own inverse, so composing the pass mapping and the
    # carried one in the wrong order, or inverting either, changes the answer
    mapping = (1, 2, 0)
    c = Circuit(3, (x(0), h(1), cp(0.3, 1, 2), swap(0, 1), cx(1, 2), swap(1, 2)), mapping)
    # as qdd verify does: original qubit q's bit is the bit of wire mapping[q]
    wires = simulate_dense(c).amplitudes.reshape((2, 2, 2))
    want = np.transpose(wires, mapping).reshape(-1)
    result = run(c, mode)
    assert np.max(np.abs(result.statevector() - want)) < 1e-12
    for i in range(8):
        assert result.amplitude(format(i, "03b")) == pytest.approx(want[i], abs=1e-12)


def test_stats_swaps_removed_matches_mode():
    c = qft(4)  # two trailing swaps
    assert run(c, ReorderMode.NONE).stats.swaps_removed == 0
    assert run(c, ReorderMode.TRAILING).stats.swaps_removed == 2
    assert run(c, ReorderMode.ALL).stats.swaps_removed == 2


def test_timeout_raises():
    c = build_family("entangled_qft", 14)
    with pytest.raises(dd.SimulationTimeout):
        run(c, ReorderMode.NONE, timeout_s=0.05)


def test_run_restores_the_cyclic_gc():
    small = build_family("qft", 4)
    run(small)
    assert gc.isenabled()
    with pytest.raises(dd.SimulationTimeout):
        run(build_family("entangled_qft", 14), ReorderMode.NONE, timeout_s=0.05)
    assert gc.isenabled()
    gc.disable()
    try:
        run(small)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_restores_the_recursion_limit():
    old = sys.getrecursionlimit()
    # apply recurses once per level, so this only finishes under a raised limit
    wide = Circuit(old, (x(0),))
    try:
        result = run(wide)
        assert sys.getrecursionlimit() == old
        assert result.amplitude("1" + "0" * (old - 1)) == 1
        assert dd.norm_squared(result.final_state) == 1
        with pytest.raises(dd.SimulationTimeout):
            run(wide, timeout_s=0.0)
        assert sys.getrecursionlimit() == old
    finally:
        sys.setrecursionlimit(old)


def test_released_result_is_freed_by_reference_counting():
    result = run(build_family("qft", 5))
    package = weakref.ref(result.package)
    del result
    assert package() is None


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.value)
@pytest.mark.parametrize("family, n", [("entangled_qft", 6), ("qpe", 5)])
def test_gc_triggers_during_run(monkeypatch, family, n, mode):
    # sweeps in mid-run drop nodes of earlier gate DDs that later gates rebuild
    monkeypatch.setattr(dd, "GC_THRESHOLD", 64)
    c = build_family(family, n)
    result = run(c, mode)
    assert result.package.gc_runs > 0
    assert max_abs_diff(simulate_dense(c), result.statevector()) < 1e-9


def test_run_builds_no_operator_dd_for_diagonal_gates(monkeypatch):
    built = []
    gate_dd = dd.DDPackage.gate_dd

    def counting_gate_dd(self, gate):
        built.append(gate)
        return gate_dd(self, gate)

    monkeypatch.setattr(dd.DDPackage, "gate_dd", counting_gate_dd)
    c = build_family("qpe", 6)
    transformed, _ = reorder(c, ReorderMode.ALL)
    result = run(c, ReorderMode.ALL)
    assert built == [g for g in transformed.gates if g.kind not in DIAGONAL_KINDS]
    assert len(built) < len(transformed.gates)
    assert max_abs_diff(simulate_dense(c), result.statevector()) < 1e-9


def test_wall_time_is_positive_and_reported():
    result = run(build_family("qft", 5))
    assert result.stats.wall_time_s > 0


@pytest.mark.parametrize("gc_on", [True, False])
def test_stats_split_the_wall_time(gc_on):
    was_enabled = gc.isenabled()
    gc.enable() if gc_on else gc.disable()
    try:
        s = run(build_family("qpe", 8), ReorderMode.ALL).stats
    finally:
        gc.enable() if was_enabled else gc.disable()
    parts = (s.gate_dd_s, s.apply_s, s.collect_s, s.gc_pass_s)
    assert all(p >= 0 for p in parts)
    assert sum(parts) <= s.wall_time_s
    assert s.young_objects > 0
    # the closing pass is skipped when the caller had the collector off
    assert (s.gc_pass_s > 0) if gc_on else (s.gc_pass_s == 0)
