"""Run driver: results, stats and the state it restores."""

import gc
import random
import sys
import weakref

import numpy as np
import pytest

from qdd import circuit, dd
from qdd.circuit import DIAGONAL_KINDS, Circuit, GateKind, cp, cx, h, mcp, p, rz, s, sdg, swap, t, tdg, x, y, z
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


def test_run_checks_each_gate_once(monkeypatch):
    checked = []
    check_gate = circuit.check_gate

    def counting_check_gate(gate, num_qubits):
        checked.append(gate)
        check_gate(gate, num_qubits)

    monkeypatch.setattr(circuit, "check_gate", counting_check_gate)
    monkeypatch.setattr(dd, "check_gate", counting_check_gate)
    c = build_family("qpe", 5)
    run(c, ReorderMode.NONE)
    assert checked == list(c.gates)


def test_run_builds_no_operator_dd_for_diagonal_gates(monkeypatch):
    built = []
    gate_dd = dd.DDPackage._gate_dd

    def counting_gate_dd(self, gate):
        built.append(gate)
        return gate_dd(self, gate)

    # run() calls the unchecked body: validate() has checked every gate
    monkeypatch.setattr(dd.DDPackage, "_gate_dd", counting_gate_dd)
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


# every gate kind, so every gate DD builder and the diagonal walk run
_EVERY_KIND = Circuit(
    3,
    (h(0), h(1), h(2), x(1), y(2), z(0), s(1), sdg(2), t(0), tdg(1), p(0.3, 2), rz(0.7, 0),
     cx(0, 1), cp(0.4, 1, 2), mcp(0.5, (0, 2), 1), swap(0, 2), h(1)),
)


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.value)
def test_reference_counting_alone_frees_the_dd(mode):
    # the closing hand-off skips the collector's pass over what run() made on
    # the premise that nothing it made is in a reference cycle
    assert {g.kind for g in _EVERY_KIND.gates} == set(GateKind)

    def live_nodes():
        return [o for o in gc.get_objects() if type(o) is dd.Node and o is not dd.TERMINAL]

    gc.collect()
    before = live_nodes()  # held, so their ids stay theirs
    kept = {id(o) for o in before}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = run(_EVERY_KIND, mode)
        assert result.stats.final_nodes > 0
        del result
        left = [o for o in live_nodes() if id(o) not in kept]
    finally:
        if was_enabled:
            gc.enable()
    assert left == []


def test_run_starts_no_collection():
    # the hand-off replaces the closing young pass, and the collector stays
    # off while the run makes its objects
    phases = []

    def record(phase, info):
        phases.append(phase)

    assert gc.isenabled()
    gc.collect()  # so validate() and reorder() cannot reach the threshold
    gc.callbacks.append(record)
    try:
        result = run(build_family("entangled_qft", 6), ReorderMode.ALL)
    finally:
        gc.callbacks.remove(record)
    assert phases == []
    assert result.stats.young_objects > 0
    assert gc.get_count()[0] < result.stats.young_objects


def test_run_keeps_the_callers_frozen_objects_frozen():
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        result = run(build_family("qpe", 5), ReorderMode.ALL)
        assert gc.get_freeze_count() == frozen
        assert result.stats.gc_pass_s > 0
    finally:
        gc.unfreeze()
