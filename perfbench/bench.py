"""qdd benchmark: seeded workloads, an untraced timed loop and a traced replay.

Every workload is a list of circuits made from a seed. One pass carries each
circuit from input to readout in all three reorder modes:

    qasm.emit -> qasm.parse -> qdd.run -> RunResult.statevector -> RunResult.amplitude

and checks every answer outside the timed region. The loop always finishes one
whole pass, so every circuit counts, then repeats circuits until the measuring
time is spent. Times and node counts are medians over the run's samples; for
peak nodes the median over qpe's seeded numerators moves less between seeds
than their maximum.

End-to-end times are CPU seconds scaled to a fixed machine speed: each timed
step is bracketed by a fixed pure-Python reference loop, and its time is
multiplied by REF_NOMINAL_S over the loop's time around it (see Clock). The
report prints the reference loop's own times, so the raw CPU seconds can be
recovered.

Workloads, and the layer each one is there for:

- eqft: entangled_qft(13). Nodes and time reach 2^n and apply is nearly all
  of run(); SWAP is about a third of `none`. Apply-engine changes show here,
  gate construction and per-call fixed costs do not.
- qpe: phase estimation with 17 counting qubits and seeded odd phase
  numerators (an odd numerator gives every counting qubit a nontrivial
  phase, so cost does not hinge on trailing zero bits). `none` is nearly all
  SWAP through a defeated add cache, the paper's mechanism; `all` is mostly
  gate_dd, and its statevector() pays the output permutation. `trailing`
  removes nothing here, because the inverse QFT's swaps come first: it is
  the null arm of the rewrite.

There is no workload of many small circuits, where per-call fixed costs
(package construction, validation, reorder, QASM parsing) would dominate: such
short, allocation-bound calls swung by up to 2x with the load of other tenants
of a shared 2-core machine. Those layers are still traced on both workloads,
where they are a small share.

The traced run (trace=True) replays run()'s loop from public calls only and
records one span per call, kept in memory until the end. Layer
times are self times: a span's duration minus that of the spans nested in it.
Python GC pauses during the replay are recorded as spans of their own, nested
in whichever call they interrupted.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from time import thread_time as cpu_time
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one single-threaded process: keep BLAS pools (used by the dense oracle) from
# competing with the measured thread for the machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import qdd  # noqa: E402
from qdd import dd, qasm  # noqa: E402
from qdd.circuit import Circuit, GateKind, validate  # noqa: E402
from qdd.generators import QpeSpec, entangled_qft, qpe  # noqa: E402
from qdd.oracle import simulate_dense  # noqa: E402
from qdd.reorder import ReorderMode, reorder  # noqa: E402

MODES = (ReorderMode.NONE, ReorderMode.TRAILING, ReorderMode.ALL)
TOLERANCE = 1e-9
TIMEOUT_S = 120.0  # per run() call; a timeout counts as a failure
QUERIES_PER_CIRCUIT = 512
SETUP_REPS = 3
# End-to-end times are the thread's CPU time, not wall time, scaled to a fixed
# machine speed (see Clock). qdd is single-threaded and never waits, so on an
# idle machine CPU and wall time agree; CPU time leaves out the time other
# tenants of a shared machine take from it. The loop budget (--seconds) and the
# traced spans stay on the wall clock.

# run() is repeated on the same circuit until this much CPU time is spent (at
# most SIM_MAX_REPS calls): qpe's `all` run takes 0.15 s against 2.2 s for
# `none`, and one sample per circuit left its median at the mercy of single
# slow calls.
SIM_MIN_S = 1.2
SIM_MAX_REPS = 10
# statevector() is repeated until this much time is spent (or the cap is hit),
# so sub-millisecond readouts still give a steady median
READOUT_MIN_S = 0.02
READOUT_MAX_REPS = 25
# apply time is split by gate kind; the kinds every workload runs get their own
# bucket, the rest share one
APPLY_KINDS = ("H", "CP", "SWAP")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s.none": "s",
    "sim_s.trailing": "s",
    "sim_s.all": "s",
    "readout_s.none": "s",
    "readout_s.all": "s",
    "amplitude_us": "us",
    "circuits_per_s": "1/s",
    "peak_nodes.none": "count",
    "peak_nodes.all": "count",
}

PER_LAYER_UNITS = {
    "generators.build_s": "s",
    "qasm.emit_s": "s",
    "qasm.parse_s": "s",
    "circuit.validate_s": "s",
    "reorder.reorder_s": "s",
    "reorder.swaps_removed": "count",
    "dd.package_init_s": "s",
    "dd.gate_dd_s": "s",
    "dd.gate_dd_calls": "count",
    **{f"dd.apply_s.{k}": "s" for k in APPLY_KINDS + ("other",)},
    **{f"dd.apply_calls.{k}": "count" for k in APPLY_KINDS + ("other",)},
    "dd.maybe_collect_s": "s",
    "dd.gc_runs": "count",
    "dd.nodes_created": "count",
    "dd.live_fraction": "ratio",
    "python.gc_pause_s": "s",
    "python.gc_collections": "count",
    "dd.to_statevector_s": "s",
    "runner.permute_s": "s",
    "runner.amplitude_s": "s",
    "oracle.check_s": "s",
    "reorder.swap_ratio": "ratio",
    "trace.overhead": "ratio",
}


# -- machine speed ---------------------------------------------------------------

# The reference loop's CPU time on the machine the benchmark was defined on (a
# 2-vCPU KVM guest on a Xeon host): scaled times are seconds on a machine that
# runs the loop in this time.
REF_NOMINAL_S = 0.06
REF_ITERS = 160_000


def reference_loop() -> float:
    """Fixed pure-Python work to gauge the machine's current speed.

    Dict lookups and inserts into a table of 160,000 entries (some 13 MB),
    with int and float arithmetic: the kind of interpreter work qdd's hash
    tables do. It calls no qdd code, so no change to the program moves it, and
    it allocates no object the cyclic GC tracks, so no change to GC settings
    moves it either.
    """
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(REF_ITERS):
        k = (i * 2654435761) & 0xFFFFF
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] * 1.0000001
    return acc


class Clock:
    """Scales CPU seconds to the speed the reference loop shows around them.

    On a shared machine the speed of one core drifts by 20-35% within
    seconds, with the load of other tenants of the host, and it moved whole
    45 s runs by as much. The drift hits qdd and the reference loop alike, so
    each timed step is bracketed by a reference measurement right before and
    after it and multiplied by REF_NOMINAL_S / (their mean). The pairing must
    be tight: one factor per 45 s run, from the run's median reference, did
    not remove the drift.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.scales: list[float] = []
        self._last = 0.0

    def _reference(self) -> float:
        t0 = cpu_time()
        reference_loop()
        spent = cpu_time() - t0
        self.refs.append(spent)
        return spent

    def start(self) -> None:
        """Measure the reference just before a timed stretch."""
        self._last = self._reference()

    def scale(self) -> float:
        """Factor for the stretch since start() or the previous scale()."""
        before, self._last = self._last, self._reference()
        factor = REF_NOMINAL_S / ((before + self._last) / 2)
        self.scales.append(factor)
        return factor


# -- seeded inputs ------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One circuit of a workload, the amplitudes to query and how to check it."""

    circuit: Circuit
    queries: tuple[str, ...]
    readout: str | None = None  # qpe: the one basis state the answer must be


def phase_numerators(rng: random.Random, m: int, count: int) -> list[int]:
    """Distinct odd numerators k in [1, 2^m): phases 2*pi*k/2^m at full precision."""
    return rng.sample(range(1, 1 << m, 2), count)


def _queries(rng: random.Random, n: int, must: str | None = None) -> tuple[str, ...]:
    bits = [format(rng.getrandbits(n), f"0{n}b") for _ in range(QUERIES_PER_CIRCUIT)]
    if must is not None:
        bits[0] = must
    return tuple(bits)


def _eqft_items(rng: random.Random, n: int) -> list[Item]:
    return [Item(entangled_qft(n), _queries(rng, n))]


def _qpe_items(rng: random.Random, m: int, count: int) -> list[Item]:
    items = []
    for k in phase_numerators(rng, m, count):
        spec = QpeSpec(m, k)
        readout = spec.expected_readout() + "1"  # the target stays in |1>
        items.append(Item(qpe(spec), _queries(rng, m + 1, readout), readout))
    return items


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Item]]
    full: dict
    tiny: dict  # sizes for the smoke test


WORKLOADS = {
    "eqft": Workload(_eqft_items, dict(n=13), dict(n=4)),
    "qpe": Workload(_qpe_items, dict(m=17, count=6), dict(m=4, count=2)),
}


def build_items(name: str, seed: int, tiny: bool = False) -> list[Item]:
    """The workload's inputs; the same seed gives the same circuits and queries."""
    wl = WORKLOADS[name]
    rng = random.Random(f"qdd-bench:{name}:{seed}")
    return wl.build(rng, **(wl.tiny if tiny else wl.full))


# -- answer checks ------------------------------------------------------------


def check_answers(item: Item, sv: np.ndarray, queries: list[complex]) -> str | None:
    """Error text for a wrong answer, None when the readout is right."""
    for bits, amp in zip(item.queries, queries):
        if abs(amp - sv[int(bits, 2)]) > TOLERANCE:
            return f"amplitude({bits}) = {amp} disagrees with statevector {sv[int(bits, 2)]}"
    if item.readout is None:
        ref = simulate_dense(item.circuit).amplitudes
        err = float(np.max(np.abs(ref - sv)))
        return None if err <= TOLERANCE else f"differs from the dense oracle by {err:.3e}"
    hit = int(item.readout, 2)
    if abs(abs(queries[0]) - 1.0) > TOLERANCE:
        return f"|amplitude({item.readout})| = {abs(queries[0])}, expected 1"
    rest = np.delete(sv, hit)
    if rest.size and float(np.max(np.abs(rest))) > TOLERANCE:
        return "statevector is not one-hot on the expected readout"
    if abs(float(np.linalg.norm(sv)) - 1.0) > TOLERANCE:
        return f"norm {np.linalg.norm(sv)} is not 1"
    return None


# -- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory spans [name, start, end, parent index]; parent -1 is a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open = -1
        self._gc_span: list = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open
        span = [name, 0.0, 0.0, parent]
        self._open = len(self.spans)
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open = parent

    def on_gc(self, phase: str, info: dict) -> None:
        """gc.callbacks hook: each collection becomes a span under the open call."""
        if phase == "start":
            self.spans.append(["python.gc", perf_counter(), 0.0, self._open])
            self._gc_span = self.spans[-1]
        else:
            self._gc_span[2] = perf_counter()

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times: dict[str, float] = {}
        counts: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            times[name] = times.get(name, 0.0) + (end - start) - child[i]
            counts[name] = counts.get(name, 0) + 1
        return times, counts

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def _apply_span(kind: GateKind) -> str:
    return f"dd.apply.{kind.name if kind.name in APPLY_KINDS else 'other'}"


@dataclass
class Replay:
    state: dd.Edge
    package: dd.DDPackage
    peak_nodes: int
    reclaimed: int
    swaps_removed: int


def replay(circuit: Circuit, mode: ReorderMode, tr: Tracer, timeout_s: float) -> Replay:
    """run()'s loop rebuilt from public calls, one span per call."""
    problems = tr.call("circuit.validate", validate, circuit)
    if problems:
        raise ValueError(f"invalid circuit: {problems[0]}")
    transformed, report = tr.call("reorder.reorder", reorder, circuit, mode)
    n = circuit.num_qubits
    pkg = tr.call("dd.package_init", dd.DDPackage, n)
    pkg.deadline = perf_counter() + timeout_s
    state = tr.call("dd.basis_state", pkg.basis_state, "0" * n)
    tr.call("dd.inc_ref", pkg.inc_ref, state)
    peak = pkg.node_count
    reclaimed = 0
    for gate in transformed.gates:
        op = tr.call("dd.gate_dd", pkg.gate_dd, gate)
        new_state = tr.call(_apply_span(gate.kind), pkg.apply, op, state)
        tr.call("dd.inc_ref", pkg.inc_ref, new_state)
        tr.call("dd.dec_ref", pkg.dec_ref, state)
        state = new_state
        peak = max(peak, pkg.node_count)
        reclaimed += tr.call("dd.maybe_collect", pkg.maybe_collect, (state,))
    return Replay(state, pkg, peak, reclaimed, report.swaps_removed)


# -- measurement ----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    circuits: int = 0
    busy_s: float = 0.0
    sim: dict = field(default_factory=lambda: {m: [] for m in MODES})
    readout: dict = field(default_factory=lambda: {m: [] for m in MODES})
    peak: dict = field(default_factory=lambda: {m: [] for m in MODES})
    amplitude: list = field(default_factory=list)
    # traced run only
    nodes_created: int = 0
    final_nodes: int = 0
    replay_peak: int = 0
    gc_runs: int = 0
    swaps_removed: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


def _timed_mode(item: Item, circuit: Circuit, mode: ReorderMode, timeout_s: float, tally: Tally,
                clock: Clock):
    """One pass of the circuit in `mode`, then extra samples for steadier medians.

    The pass is run() -> statevector() -> amplitude() queries -> release and
    gc.collect(); its time, freeing included, is what circuits_per_s counts.
    Each step is scaled by the reference measured right before and after it.
    Returns (statevector, amplitudes, scaled pass seconds).
    """
    clock.start()
    t0 = cpu_time()
    result = qdd.run(circuit, mode, timeout_s=timeout_s)
    sims = [(cpu_time() - t0) * clock.scale()]
    readouts = []
    t0 = cpu_time()
    sv = result.statevector()
    readouts.append(cpu_time() - t0)
    while sum(readouts) < READOUT_MIN_S and len(readouts) < READOUT_MAX_REPS:
        t0 = cpu_time()
        result.statevector()
        readouts.append(cpu_time() - t0)
    scale = clock.scale()
    readouts = [r * scale for r in readouts]
    t0 = cpu_time()
    amps = [result.amplitude(bits) for bits in item.queries]
    queries = (cpu_time() - t0) * clock.scale()
    peak = result.stats.peak_nodes
    t0 = cpu_time()
    del result
    gc.collect()  # frees the package (gate DDs hold it in reference cycles)
    free = (cpu_time() - t0) * clock.scale()
    # more run() samples on the same circuit, each from the same heap
    while sum(sims) < SIM_MIN_S and len(sims) < SIM_MAX_REPS:
        t0 = cpu_time()
        result = qdd.run(circuit, mode, timeout_s=timeout_s)
        spent = cpu_time() - t0
        del result
        gc.collect()
        sims.append(spent * clock.scale())
    tally.sim[mode].extend(sims)
    tally.readout[mode].extend(readouts)
    tally.amplitude.append(queries / len(amps))
    tally.peak[mode].append(peak)
    return sv, amps, sims[0] + readouts[0] + queries + free


def _measure_circuit(item: Item, timeout_s: float, tally: Tally, clock: Clock) -> None:
    clock.start()
    t0 = cpu_time()
    circuit = qasm.parse(qasm.emit(item.circuit)).circuit
    busy = (cpu_time() - t0) * clock.scale()
    answers = {}
    for mode in MODES:
        tally.attempted += 1
        try:
            sv, amps, spent = _timed_mode(item, circuit, mode, timeout_s, tally, clock)
        except Exception:  # a failing circuit is counted, never aborts the sweep
            tally.fail(f"{mode.value}:\n{traceback.format_exc()}")
            gc.collect()
        else:
            busy += spent
            answers[mode] = (sv, amps)
    tally.busy_s += busy
    tally.circuits += 1
    for mode, (sv, amps) in answers.items():
        err = check_answers(item, sv, amps)
        if err:
            tally.fail(f"{mode.value}: {err}")


def _trace_circuit(item: Item, timeout_s: float, tally: Tally, tr: Tracer) -> None:
    text = tr.call("qasm.emit", qasm.emit, item.circuit)
    circuit = tr.call("qasm.parse", qasm.parse, text).circuit
    n = circuit.num_qubits
    for mode in MODES:
        tally.attempted += 1
        try:
            result = tr.call(f"runner.run.{mode.value}", qdd.run, circuit, mode, timeout_s=timeout_s)
        except Exception:
            tally.fail(f"{mode.value}:\n{traceback.format_exc()}")
            gc.collect()
            continue
        raw = tr.call("dd.to_statevector", dd.to_statevector, result.final_state, n)
        sv = tr.call("runner.statevector", result.statevector)
        amps = [tr.call("runner.amplitude", result.amplitude, bits) for bits in item.queries]
        peak = result.stats.peak_nodes
        del result
        gc.collect()
        err = tr.call("oracle.check", check_answers, item, sv, amps)
        gc.callbacks.append(tr.on_gc)
        try:
            rep = tr.call(f"replay.{mode.value}", replay, circuit, mode, tr, timeout_s)
        except Exception:
            tally.fail(f"replay {mode.value}:\n{traceback.format_exc()}")
            gc.collect()
            continue
        finally:
            gc.callbacks.remove(tr.on_gc)
        if err is None and not np.array_equal(dd.to_statevector(rep.state, n), raw):
            err = "traced replay's final amplitudes differ from run()"
        if err is None and rep.peak_nodes != peak:
            err = f"traced replay peaked at {rep.peak_nodes} nodes, run() at {peak}"
        if err:
            tally.fail(f"{mode.value}: {err}")
        tally.nodes_created += rep.package.node_count + rep.reclaimed
        tally.final_nodes += dd.count_nodes(rep.state)
        tally.replay_peak += rep.peak_nodes
        tally.gc_runs += rep.package.gc_runs
        tally.swaps_removed += rep.swaps_removed
        del rep
        gc.collect()
    tally.circuits += 1


def _loop(items: list[Item], seconds: float, body: Callable[[Item], None]) -> None:
    """Whole first pass over items, then more until `seconds` have passed."""
    start = perf_counter()
    done = 0
    while done < len(items) or perf_counter() - start < seconds:
        body(items[done % len(items)])
        done += 1


# -- set-up and reports ----------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    report: list[str]
    tracer: Tracer | None = None

    def json_line(self) -> str:
        units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in self.metrics.items()},
        })


def setup(name: str, seed: int, tiny: bool, clock: Clock, import_s: float) -> tuple[list[Item], float, float]:
    """Build inputs and make one warm-up call, SETUP_REPS times.

    Returns the items, the median scaled seconds of a repetition plus the
    import time, and the median CPU seconds of input generation alone.
    """
    reps, builds, scales = [], [], []
    for _ in range(SETUP_REPS):
        clock.start()
        t0 = cpu_time()
        items = build_items(name, seed, tiny)
        builds.append(cpu_time() - t0)
        warm = qdd.run(items[0].circuit, ReorderMode.ALL)
        spent = cpu_time() - t0
        scales.append(clock.scale())
        reps.append(spent * scales[-1])
        del warm
        gc.collect()
    setup_s = import_s * statistics.median(scales) + statistics.median(reps)
    return items, setup_s, statistics.median(builds)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(samples)
    size = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct / 100 * size)
        if size - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
            import_s: float = 0.0) -> Result:
    """Run one workload for `seconds` and return its metrics and report lines."""
    clock = Clock()
    items, setup_s, build_s = setup(name, seed, tiny, clock, import_s)
    tally = Tally()
    if trace:
        tr = Tracer()
        _loop(items, seconds, lambda it: _trace_circuit(it, TIMEOUT_S, tally, tr))
        metrics, report = _layer_metrics(tally, tr, build_s)
    else:
        tr = None
        _loop(items, seconds, lambda it: _measure_circuit(it, TIMEOUT_S, tally, clock))
        metrics, report = _end_to_end_metrics(tally, setup_s, clock)
    head = [
        f"workload {name}  seed {seed}  trace {int(trace)}  circuits {tally.circuits}  "
        f"runs {tally.attempted}  failed {tally.failed}  "
        f"failed_ratio {tally.failed / max(tally.attempted, 1):.4g}"
    ]
    correct = tally.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    return Result(correct, tally.attempted, tally.failed, metrics, head + report, tr)


def _end_to_end_metrics(tally: Tally, setup_s: float, clock: Clock) -> tuple[dict[str, float], list[str]]:
    med = {m: _median(tally.sim[m]) for m in MODES}
    metrics = {
        "setup_s": setup_s,
        **{f"sim_s.{m.value}": med[m] for m in MODES},
        "readout_s.none": _median(tally.readout[ReorderMode.NONE]),
        "readout_s.all": _median(tally.readout[ReorderMode.ALL]),
        "amplitude_us": _median(tally.amplitude) * 1e6,
        "circuits_per_s": tally.circuits / tally.busy_s if tally.busy_s else float("nan"),
        "peak_nodes.none": _median(tally.peak[ReorderMode.NONE]),
        "peak_nodes.all": _median(tally.peak[ReorderMode.ALL]),
    }
    report = [f"{k:<18} {v:.6g} {END_TO_END_UNITS[k]}" for k, v in metrics.items()]
    for m in MODES:
        got = tail(tally.sim[m])
        samples = len(tally.sim[m])
        if got is None:
            report.append(f"sim_tail_s.{m.value:<8} n/a (n={samples}, fewer than 11 samples)")
        else:
            report.append(f"sim_tail_s.{m.value:<8} p{got[0]} {got[1]:.6g} s (n={samples})")
    report.append(
        f"swap ratio sim_s.none/sim_s.all = {med[ReorderMode.NONE] / med[ReorderMode.ALL]:.4g} (not gated)"
    )
    report.append(
        f"times above are CPU seconds x {REF_NOMINAL_S} / reference loop; reference loop median "
        f"{statistics.median(clock.refs):.6g} s over {len(clock.refs)} calls, scale factor median "
        f"{statistics.median(clock.scales):.4g} (min {min(clock.scales):.4g}, max {max(clock.scales):.4g})"
    )
    return metrics, report


def _layer_metrics(tally: Tally, tr: Tracer, build_s: float) -> tuple[dict[str, float], list[str]]:
    times, counts = tr.self_times()
    per = 1.0 / max(tally.circuits, 1)

    def t(name: str) -> float:
        return times.get(name, 0.0) * per

    def c(name: str) -> float:
        return counts.get(name, 0) * per

    kinds = APPLY_KINDS + ("other",)
    runs = {m: tr.durations(f"runner.run.{m.value}") for m in MODES}
    replayed = sum(sum(tr.durations(f"replay.{m.value}")) for m in MODES)
    metrics = {
        "generators.build_s": build_s,
        "qasm.emit_s": t("qasm.emit"),
        "qasm.parse_s": t("qasm.parse"),
        "circuit.validate_s": t("circuit.validate"),
        "reorder.reorder_s": t("reorder.reorder"),
        "reorder.swaps_removed": tally.swaps_removed * per,
        "dd.package_init_s": t("dd.package_init"),
        "dd.gate_dd_s": t("dd.gate_dd"),
        "dd.gate_dd_calls": c("dd.gate_dd"),
        **{f"dd.apply_s.{k}": t(f"dd.apply.{k}") for k in kinds},
        **{f"dd.apply_calls.{k}": c(f"dd.apply.{k}") for k in kinds},
        "dd.maybe_collect_s": t("dd.maybe_collect"),
        "dd.gc_runs": tally.gc_runs * per,
        "dd.nodes_created": tally.nodes_created * per,
        "dd.live_fraction": tally.final_nodes / tally.replay_peak if tally.replay_peak else float("nan"),
        "python.gc_pause_s": t("python.gc"),
        "python.gc_collections": c("python.gc"),
        "dd.to_statevector_s": t("dd.to_statevector"),
        "runner.permute_s": t("runner.statevector") - t("dd.to_statevector"),
        "runner.amplitude_s": t("runner.amplitude"),
        "oracle.check_s": t("oracle.check"),
        "reorder.swap_ratio": _median(runs[ReorderMode.NONE]) / _median(runs[ReorderMode.ALL]),
        "trace.overhead": replayed / sum(sum(r) for r in runs.values()),
    }
    report = [f"{k:<24} {v:.6g} {PER_LAYER_UNITS[k]}" for k, v in metrics.items()]
    apply_total = sum(metrics[f"dd.apply_s.{k}"] for k in kinds) or float("nan")
    report.append("apply split by gate kind (share of apply self time, not gated): " + "  ".join(
        f"{k} {metrics[f'dd.apply_s.{k}'] / apply_total:.1%}" for k in kinds))
    report.append(
        f"swap ratio {metrics['reorder.swap_ratio']:.4g}, trace overhead {metrics['trace.overhead']:.4g} (not gated)"
    )
    return metrics, report
