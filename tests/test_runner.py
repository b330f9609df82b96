"""Run driver and bench harness."""

import gc
import random
import weakref

import numpy as np
import pytest

from qdd import dd
from qdd.circuit import Circuit, h, swap, x
from qdd.generators import build_family, qft
from qdd.oracle import max_abs_diff, simulate_dense
from qdd.reorder import ReorderMode
from qdd.runner import bench, run
from util import random_circuit


def test_empty_circuit_amplitude():
    result = run(Circuit(2, ()), ReorderMode.ALL)
    assert result.amplitude("00") == 1
    assert result.stats.gates_applied == 0
    assert result.stats.final_nodes == 2
    assert result.stats.peak_nodes >= result.stats.final_nodes


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


def test_released_result_is_freed_by_reference_counting():
    result = run(build_family("qft", 5))
    package = weakref.ref(result.package)
    del result
    assert package() is None


def test_gc_triggers_during_run():
    c = build_family("entangled_qft", 6)
    result = run(c, ReorderMode.NONE, gc_threshold=64)
    assert result.package.gc_runs > 0
    assert max_abs_diff(simulate_dense(c), result.statevector()) < 1e-9


def test_bench_rows_shape_and_determinism():
    rows = bench("ghz", [3, 4], [ReorderMode.NONE, ReorderMode.ALL])
    assert [(r.num_qubits, r.mode) for r in rows] == [
        (3, ReorderMode.NONE), (3, ReorderMode.ALL),
        (4, ReorderMode.NONE), (4, ReorderMode.ALL),
    ]
    assert all(r.status == "ok" for r in rows)
    assert all(r.family == "ghz" for r in rows)
    # everything except wall_time is deterministic across repeats
    again = bench("ghz", [3, 4], [ReorderMode.NONE, ReorderMode.ALL])
    for a, b in zip(rows, again):
        assert (a.peak_nodes, a.final_nodes, a.swaps_removed, a.gates_applied) == (
            b.peak_nodes, b.final_nodes, b.swaps_removed, b.gates_applied
        )


def test_bench_empty_modes_gives_empty_table():
    assert bench("ghz", [3], []) == []


def test_bench_timeout_row_is_recorded_not_raised():
    rows = bench("entangled_qft", [14], [ReorderMode.NONE], timeout_s=0.05)
    assert len(rows) == 1
    assert rows[0].status == "timeout"
    assert rows[0].wall_time_s is None


def test_bench_oracle_check_mode():
    rows = bench("qpe", [4], [ReorderMode.NONE, ReorderMode.ALL], oracle_check=True)
    assert all(r.status == "ok" for r in rows)


def test_wall_time_is_positive_and_reported():
    result = run(build_family("qft", 5))
    assert result.stats.wall_time_s > 0
