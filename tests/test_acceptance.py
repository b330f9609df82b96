"""End-to-end acceptance criteria.

Each criterion prints exactly one PASS/FAIL banner (bypassing capture so the
line always reaches the terminal) and then asserts. Criterion 5 is a
measured benchmark whose outcome on a given machine is recorded in the
banner detail; see the README benchmarking notes for how to read it.
"""

import math
import random
import statistics
import time

import pytest

from qdd import dd
from qdd.circuit import Circuit, GateKind, gate_unitary
from qdd.dd import DDPackage, count_nodes, norm_squared
from qdd.generators import QpeSpec, build_family, entangled_qft, ghz, inverse_qft, qft, qpe
from qdd.oracle import max_abs_diff, simulate_dense
from qdd.qasm import emit, parse
from qdd.reorder import ReorderMode, permute_bits, reorder
from qdd.runner import run
from util import random_circuit, swap_fraction

TOL = 1e-9
ROW_TIMEOUT_S = 120.0


@pytest.fixture(autouse=True)
def _banner_channel(capsys):
    # expose capture control so _report can print through pytest's fd capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


_CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} {name}: {status}"
    if detail:
        line += f" ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _grid_circuits(max_n: int = 10):
    """The verification grid: named families plus exact-phase qpe instances."""
    for n in range(1, max_n + 1):
        yield f"ghz({n})", ghz(n)
        yield f"qft({n},swaps)", qft(n, True)
        yield f"qft({n},noswaps)", qft(n, False)
        yield f"entangled_qft({n})", entangled_qft(n)
        yield (
            f"qft+inverse_qft({n})",
            Circuit(n, qft(n, True).gates + inverse_qft(n).gates),
        )
    for m in range(1, max_n):  # qpe uses m counting qubits + 1 target
        ks = sorted({0, 1, 5, (1 << m) - 1} & set(range(1 << m)))
        for k in ks:
            yield f"qpe(m={m},k={k})", qpe(QpeSpec(m, k))


def test_criterion_1_oracle_equivalence_grid():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for name, circuit in _grid_circuits():
        ref = simulate_dense(circuit)
        for mode in ReorderMode:
            result = run(circuit, mode)
            err = max_abs_diff(ref, result.statevector())
            worst = max(worst, err)
            if err > TOL:
                _report(1, "oracle-equivalence", False,
                        f"{name} mode={mode.value} max_abs_diff={err:.3e}")
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(1, "oracle-equivalence", ok,
            f"{checked} runs, worst diff {worst:.2e}, grid took {elapsed:.1f}s (budget 60s)")


def test_criterion_2_reorder_equivalence_on_random_circuits():
    rng = random.Random(0xC0FFEE)
    worst = 0.0
    for i in range(200):
        circuit = random_circuit(rng, max_qubits=8, max_depth=40)
        assert swap_fraction(circuit) >= 0.2, "generator must guarantee the swap share"
        ref = simulate_dense(circuit)
        n = circuit.num_qubits
        res_none = run(circuit, ReorderMode.NONE)
        res_all = run(circuit, ReorderMode.ALL)
        # oracle confirms both sides; the two modes then agree through the
        # remapped queries on every basis string
        err_none = max_abs_diff(ref, res_none.statevector())
        err_all = max_abs_diff(ref, res_all.statevector())
        worst = max(worst, err_none, err_all)
        if err_none > TOL or err_all > TOL:
            _report(2, "reorder-equivalence", False,
                    f"circuit {i}: oracle diff none={err_none:.3e} all={err_all:.3e}")
        for idx in range(1 << n):
            bits = format(idx, f"0{n}b")
            delta = abs(res_all.amplitude(bits) - res_none.amplitude(bits))
            worst = max(worst, delta)
            if delta > TOL:
                _report(2, "reorder-equivalence", False,
                        f"circuit {i} bits={bits} |amp diff|={delta:.3e}")
    _report(2, "reorder-equivalence", True, f"200 circuits, worst diff {worst:.2e}")


def test_criterion_3_qft3_trailing_fixture():
    circuit = qft(3, True)
    swaps = [g for g in circuit.gates if g.kind is GateKind.SWAP]
    transformed, report = reorder(circuit, ReorderMode.TRAILING)
    ok = (
        len(swaps) == 1
        and swaps[0] is circuit.gates[-1]
        and report.swaps_removed == 1
        and len(transformed.gates) == len(circuit.gates) - 1
        and transformed.output_permutation == (2, 1, 0)
    )
    _report(3, "qft3-trailing-fixture", ok,
            f"swaps={len(swaps)}, removed={report.swaps_removed}, "
            f"perm={transformed.output_permutation}")


def test_criterion_4_qpe_determinism():
    worst_gap = 1.0
    for m in range(1, 9):
        for k in range(1 << m):
            circuit = qpe(QpeSpec(m, k))
            expect = format(k, f"0{m}b")
            for mode in (ReorderMode.NONE, ReorderMode.ALL):
                result = run(circuit, mode)
                hits = []
                for idx in range(1 << m):
                    bits = format(idx, f"0{m}b")
                    mag = abs(result.amplitude(bits + "1"))
                    if abs(mag - 1.0) <= TOL:
                        hits.append(bits)
                    elif mag > TOL:
                        worst_gap = min(worst_gap, 1.0 - mag)
                if hits != [expect]:
                    _report(4, "qpe-determinism", False,
                            f"m={m} k={k} mode={mode.value}: unit-magnitude strings {hits}, "
                            f"expected ['{expect}']")
    _report(4, "qpe-determinism", True,
            "m<=8, every k, modes none/all: readout = binary(k), single unit amplitude")


def _timed_run(circuit, mode) -> float | None:
    try:
        return run(circuit, mode, timeout_s=ROW_TIMEOUT_S).stats.wall_time_s
    except dd.SimulationTimeout:
        return None


def _best_of(circuit, mode, runs: int = 3) -> float | None:
    """Minimum wall over up to `runs` attempts.

    Only rows under 5 s repeat; slower rows are measured once and keep the
    scheduler's noise in full. A single size measured again can move its
    entangled_qft ratio by more than a size step does, which is why that
    family's trend is judged on a median, not on adjacent rows.
    """
    best = _timed_run(circuit, mode)
    if best is None or best >= 5.0:
        return best
    for _ in range(runs - 1):
        t = _timed_run(circuit, mode)
        if t is not None and t < best:
            best = t
    return best


def _sweep(family: str, start: int, cap: int) -> list[tuple[int, float, float]]:
    """Consecutive sizes until the slow mode exceeds the row timeout."""
    rows = []
    for n in range(start, cap + 1):
        circuit = build_family(family, n)
        wall_none = _best_of(circuit, ReorderMode.NONE)
        if wall_none is None:
            break
        wall_all = _best_of(circuit, ReorderMode.ALL)
        if wall_all is None:
            break
        rows.append((n, wall_none, wall_all))
    return rows


def _trend(rows: list[tuple[int, float, float]]) -> tuple[list[float], str]:
    """NONE/ALL wall ratio at every size, and the banner summary of them."""
    n, wall_none, wall_all = rows[-1]
    ratios = [wn / wa for _, wn, wa in rows]
    summary = (
        f"largest n={n}: none={wall_none:.2f}s all={wall_all:.2f}s "
        f"ratio={ratios[-1]:.2f}, ratio at n={rows[0][0]} {ratios[0]:.2f}, last ratios "
        + ",".join(f"{r:.2f}" for r in ratios[-3:])
    )
    return ratios, summary


def _all_drops_only_trailing_swaps(n: int) -> bool:
    """reorder(ALL) on entangled_qft(n) is its gate list minus the n//2 final swaps."""
    circuit = entangled_qft(n)
    transformed, report = reorder(circuit, ReorderMode.ALL)
    cut = len(circuit.gates) - n // 2
    return (
        report.swaps_removed == n // 2
        and all(g.kind is GateKind.SWAP for g in circuit.gates[cut:])
        and transformed.gates == circuit.gates[:cut]
    )


@pytest.mark.slow
def test_criterion_5_speedup_trend():
    for n in range(13, 20):
        if not _all_drops_only_trailing_swaps(n):
            _report(5, "speedup-trend", False,
                    f"entangled_qft({n}): reorder(all) is not the circuit minus "
                    f"its {n // 2} trailing swaps")

    eq_rows = _sweep("entangled_qft", 13, 19)
    qpe_rows = _sweep("qpe", 18, 26)
    assert len(eq_rows) >= 3, "need at least three completed entangled_qft sizes"
    assert len(qpe_rows) >= 3, "need at least three completed qpe sizes"

    # entangled_qft's ALL circuit is its NONE circuit minus the trailing swaps,
    # so NONE/ALL = 1 + T(swaps)/T(GHZ+QFT). Executed gate by gate, NONE's
    # work is about twice ALL's at n=13 and its share grows with n, so 2x is
    # the floor the ratio is held to. A size step grows the ratio less than
    # remeasuring one size spreads it, so the median of the last three is
    # compared with the first size, not sizes with their neighbours.
    eq_ratios, eq_summary = _trend(eq_rows)
    eq_median = statistics.median(eq_ratios[-3:])
    eq_ok = eq_median >= 2.0 and eq_median > eq_ratios[0]
    eq_summary += f", median {eq_median:.2f}"

    # qpe's ALL time grows far slower than NONE's, but one size's ALL tries
    # spread about as wide as a size step, so its trend is read the same way
    qpe_ratios, qpe_summary = _trend(qpe_rows)
    qpe_median = statistics.median(qpe_ratios[-3:])
    qpe_ok = qpe_ratios[-1] >= 10.0 and qpe_median > qpe_ratios[0]
    qpe_summary += f", median {qpe_median:.2f}"
    detail = (
        f"entangled_qft[{'ok' if eq_ok else 'FAIL'}] {eq_summary} | "
        f"qpe[{'ok' if qpe_ok else 'FAIL'}] {qpe_summary}"
    )
    _report(5, "speedup-trend", eq_ok and qpe_ok, detail)


def test_criterion_6_structural_metrics():
    peak_pairs = []
    for n in range(4, 13):
        circuit = entangled_qft(n)
        peak_none = run(circuit, ReorderMode.NONE).stats.peak_nodes
        peak_all = run(circuit, ReorderMode.ALL).stats.peak_nodes
        peak_pairs.append((n, peak_none, peak_all))
        if peak_all > peak_none:
            _report(6, "structural-metrics", False,
                    f"entangled_qft({n}): peak all={peak_all} > none={peak_none}")

    rng = random.Random(606)
    for _ in range(40):
        circuit = random_circuit(rng)
        for mode in (ReorderMode.TRAILING, ReorderMode.ALL):
            transformed, _ = reorder(circuit, mode)
            if mode is ReorderMode.ALL and any(
                g.kind is GateKind.SWAP for g in transformed.gates
            ):
                _report(6, "structural-metrics", False, "swap survived mode=all")

    for n in (1, 3, 7, 14):
        pkg = DDPackage(n)
        bits = format((1 << n) - 2, f"0{n}b") if n > 1 else "1"
        if count_nodes(pkg.basis_state(bits)) != n:
            _report(6, "structural-metrics", False, f"basis_state({bits}) node count != {n}")

    largest = peak_pairs[-1]
    _report(6, "structural-metrics", True,
            f"peak(all) <= peak(none) for n=4..12 (n=12: {largest[2]} <= {largest[1]}), "
            "mode=all leaves zero swaps, basis_state counts exact")


def test_criterion_7_canonicity_and_numerics():
    # interning identity
    pkg = DDPackage(3)
    st1 = pkg.basis_state("010")
    st2 = pkg.basis_state("010")
    ok = st1[1] is st2[1]
    h_op = pkg.gate_dd(_h0())
    ok = ok and pkg.apply(h_op, st1)[1] is pkg.apply(h_op, st2)[1]

    # unitarity of every gate matrix to 1e-12
    import numpy as np

    for gate in _gate_zoo():
        u = gate_unitary(gate)
        delta = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
        if delta > 1e-12:
            _report(7, "canonicity-numerics", False,
                    f"{gate.kind.value} unitarity residual {delta:.3e}")

    # norm 1 +/- 1e-9 after every grid circuit, plus emit/parse round trip
    worst_norm = 0.0
    for name, circuit in _grid_circuits(8):
        result = run(circuit, ReorderMode.NONE)
        worst_norm = max(worst_norm, abs(math.sqrt(norm_squared(result.final_state)) - 1.0))
        if worst_norm > TOL:
            _report(7, "canonicity-numerics", False, f"{name}: norm off by {worst_norm:.3e}")
        round_tripped = parse(emit(circuit)).circuit
        if round_tripped != circuit:
            _report(7, "canonicity-numerics", False, f"{name}: QASM round trip changed circuit")
        transformed, _ = reorder(circuit, ReorderMode.ALL)
        if parse(emit(transformed)).circuit != transformed:
            _report(7, "canonicity-numerics", False,
                    f"{name}: transformed QASM round trip changed circuit")

    _report(7, "canonicity-numerics", ok,
            f"interning identity holds, gate unitarity <=1e-12, "
            f"worst norm deviation {worst_norm:.2e}, QASM round trips exact")


def _h0():
    from qdd.circuit import h

    return h(0)


def _gate_zoo():
    from qdd.circuit import cp, cx, h, mcp, p, rz, s, sdg, swap, t, tdg, x, y, z

    return [
        h(0), x(0), y(0), z(0), s(0), sdg(0), t(0), tdg(0),
        p(0.37, 0), p(-4.1, 0), rz(1.9, 0), cx(0, 1), cp(2.6, 0, 1),
        swap(0, 1), mcp(0.9, [0], 1), mcp(-1.4, [0, 1], 2), mcp(0.2, [0, 1, 2], 3),
    ]
