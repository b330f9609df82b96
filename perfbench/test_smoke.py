"""Smoke test of the benchmark: every workload path at tiny sizes, checks on.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import bench
from qdd.circuit import Circuit, h

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _units(result: bench.Result) -> dict[str, str]:
    return {k: v["unit"] for k, v in json.loads(result.json_line())["metrics"].items()}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_end_to_end_run_is_clean(name):
    result = bench.measure(name, 3, 0, False, tiny=True)
    assert result.correct and result.failed == 0
    assert result.attempted == len(bench.MODES) * len(bench.build_items(name, 3, tiny=True))
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result.metrics.values())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_traced_replay_matches_run(name):
    result = bench.measure(name, 3, 0, True, tiny=True)
    assert result.correct and result.failed == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    names = {span[0] for span in result.tracer.spans}
    assert {"dd.gate_dd", "dd.apply.SWAP", "dd.package_init", "reorder.reorder"} <= names


def test_replay_mismatch_is_counted(monkeypatch):
    real = bench.replay

    def without_first_gate(circuit, mode, tr, timeout_s):
        return real(Circuit(circuit.num_qubits, circuit.gates[1:]), mode, tr, timeout_s)

    monkeypatch.setattr(bench, "replay", without_first_gate)
    result = bench.measure("eqft", 3, 0, True, tiny=True)
    assert not result.correct and result.failed == result.attempted


def test_wrong_answers_and_exceptions_are_counted_not_raised(monkeypatch):
    real = bench.qdd.run

    def faulty(circuit, mode, **kwargs):
        if mode is bench.ReorderMode.TRAILING:
            raise RuntimeError("injected")
        return real(Circuit(circuit.num_qubits, (h(0),)), mode, **kwargs)

    monkeypatch.setattr(bench.qdd, "run", faulty)
    result = bench.measure("eqft", 3, 0, False, tiny=True)
    assert not result.correct and result.failed == result.attempted


def test_inputs_follow_the_seed():
    for name in bench.WORKLOADS:
        assert bench.build_items(name, 5, tiny=True) == bench.build_items(name, 5, tiny=True)
    numerators = bench.phase_numerators(bench.random.Random(5), 17, 8)
    assert len(set(numerators)) == 8 and all(k % 2 for k in numerators)
    assert bench.build_items("qpe", 5) != bench.build_items("qpe", 6)


def test_tail_needs_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(10)]) is None
    assert bench.tail([float(i) for i in range(20)]) == (50, 9.0)
    assert bench.tail([float(i) for i in range(100)]) == (90, 89.0)


def test_reference_loop_leaves_the_cyclic_gc_alone():
    collections = []
    bench.gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        before = bench.gc.get_count()[0]
        bench.reference_loop()
        # a loop that kept GC-tracked objects would add one per iteration
        assert bench.gc.get_count()[0] - before < 10 and not collections
    finally:
        bench.gc.callbacks.pop()
