"""Command-line front end.

Subcommands:
  gen     write a generator-family circuit as QASM
  sim     simulate a QASM file and answer amplitude queries
  bench   time a family across sizes and rewrite modes
  verify  cross-check a QASM file against dense simulation

Exit codes: 0 success, 1 usage or input error, 2 verification mismatch,
3 timeout (sim hit its deadline, or every bench row timed out).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import dd, qasm
from .circuit import check_bits
from .generators import FAMILIES, build_family
from .oracle import MAX_ORACLE_QUBITS, DenseState, max_abs_diff, simulate_dense
from .reorder import ReorderMode
from .runner import RunStats, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_TIMEOUT = 3

# bench table header -> payload key
_BENCH_COLUMNS = {
    "family": "family", "n": "qubits", "mode": "mode", "status": "status",
    "wall_s": "wall_time_s", "peak_nodes": "peak_nodes", "final_nodes": "final_nodes",
    "swaps_removed": "swaps_removed", "gates": "gates_applied",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _UsageError(Exception):
    """Bad arguments or input; main() prints `command: message` and exits 1."""


def _load(path: str) -> tuple[qasm.ParsedProgram, str]:
    """Read and parse a QASM file, or stdin for `-`; returns it with its display name."""
    try:
        if path == "-":
            source, name = sys.stdin.read(), "<stdin>"
        else:
            source, name = Path(path).read_text(encoding="utf-8"), path
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    try:
        return qasm.parse(source), name
    except qasm.QasmError as exc:
        raise _UsageError(str(exc)) from None


def _report(payload: dict, as_json: bool) -> None:
    """Print one result as JSON, or as `key: value` lines."""
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if key == "queries":
            for q in value:
                re, im = q["amplitude"]
                print(f"amplitude[{q['bits']}]: {re:+.12f}{im:+.12f}j  p={q['probability']:.12f}")
        else:
            print(f"{key}: {value}")


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        sizes = list(range(int(lo_s), int(hi_s) + 1))
    else:
        sizes = [int(part) for part in text.split(",")]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"bad size range {text!r}")
    return sizes


def _seconds(text: str) -> float:
    """--timeout's type: a positive finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # not a number at all: rejected below like nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need a positive finite number of seconds, got {text!r}")
    return value


def _parse_modes(text: str) -> list[ReorderMode]:
    return [ReorderMode(part.strip()) for part in text.split(",")]


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        circuit = build_family(args.family, args.qubits, phase_numerator=args.phase_k)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    text = qasm.emit(circuit)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_sim(args: argparse.Namespace) -> int:
    program, name = _load(args.file)
    n = program.circuit.num_qubits
    for bits in args.query:
        try:
            check_bits(bits, n)
        except ValueError as exc:
            raise _UsageError(f"query: {exc}") from None

    try:
        result = run(program.circuit, ReorderMode(args.reorder), timeout_s=args.timeout)
    except dd.SimulationTimeout as exc:
        _report({"status": "timeout", "file": name, "detail": str(exc)}, args.json)
        return EXIT_TIMEOUT

    queries = []
    for bits in args.query:
        amp = result.amplitude(bits)
        queries.append({"bits": bits, "amplitude": [amp.real, amp.imag], "probability": abs(amp) ** 2})
    _report({
        "status": "ok",
        "file": name,
        "qubits": n,
        "mode": args.reorder,
        **asdict(result.stats),
        "norm": math.sqrt(dd.norm_squared(result.final_state)),
        "output_permutation": list(result.output_permutation),
        "queries": queries,
    }, args.json)
    return EXIT_OK


def _format_bench_table(rows: list[dict]) -> str:
    table = [list(_BENCH_COLUMNS)]
    for row in rows:
        values = [row[key] for key in _BENCH_COLUMNS.values()]
        table.append(["-" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v) for v in values])
    widths = [max(len(row[i]) for row in table) for i in range(len(_BENCH_COLUMNS))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    """One row per (size, mode), each on a fresh package; a timed-out row's stats are null."""
    try:
        sizes = _parse_sizes(args.qubits)
        modes = _parse_modes(args.reorder)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    no_stats = dict.fromkeys(f.name for f in fields(RunStats))
    rows = []
    for n in sizes:
        circuit = build_family(args.family, n)
        for mode in modes:
            try:
                status, stats = "ok", asdict(run(circuit, mode, timeout_s=args.timeout).stats)
            except dd.SimulationTimeout:
                status, stats = "timeout", no_stats
            rows.append({"family": args.family, "qubits": n, "mode": mode.value, "status": status, **stats})
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(_format_bench_table(rows))
    if all(r["status"] == "timeout" for r in rows):
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    program, name = _load(args.file)
    n = program.circuit.num_qubits
    if n > MAX_ORACLE_QUBITS:
        raise _UsageError(f"{n} qubits exceeds the dense-reference cap of {MAX_ORACLE_QUBITS}")

    result = run(program.circuit, ReorderMode(args.reorder))
    # the oracle answers in wire labels and statevector() in original labels:
    # original qubit q's bit is the bit of wire mapping[q]
    wires = simulate_dense(program.circuit).amplitudes.reshape((2,) * n)
    original = np.transpose(wires, program.circuit.output_permutation).reshape(-1)
    err = max_abs_diff(DenseState(original, n), result.statevector())
    ok = err <= 1e-9
    _report({
        "file": name,
        "qubits": n,
        "mode": args.reorder,
        **asdict(result.stats),
        "max_abs_diff": err,
        "ok": ok,
    }, args.json)
    return EXIT_OK if ok else EXIT_MISMATCH


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdd", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generator-family circuit as QASM")
    gen.add_argument("family", choices=FAMILIES)
    gen.add_argument("--qubits", type=int, required=True,
                     help="register size (for qpe: number of counting qubits)")
    gen.add_argument("--phase-k", type=int, default=None,
                     help="qpe only: phase numerator k of theta = k / 2^m")
    gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    sim = sub.add_parser("sim", help="simulate a QASM file")
    sim.add_argument("file", help="QASM path, or - for stdin")
    sim.add_argument("--reorder", choices=[m.value for m in ReorderMode], default="none")
    sim.add_argument("--query", action="append", default=[], metavar="BITS",
                     help="basis state to report the amplitude of (repeatable)")
    sim.add_argument("--timeout", type=_seconds, default=None, metavar="SECONDS")
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(func=_cmd_sim)

    bench_p = sub.add_parser("bench", help="time a family across sizes and modes")
    bench_p.add_argument("--family", choices=FAMILIES, required=True)
    bench_p.add_argument("--qubits", required=True, metavar="A..B",
                         help="size range A..B, or a comma list")
    bench_p.add_argument("--reorder", default="none,all", metavar="M[,M]",
                         help="comma list of modes (default none,all)")
    bench_p.add_argument("--timeout", type=_seconds, default=120.0, metavar="SECONDS")
    bench_p.add_argument("--json", action="store_true")
    bench_p.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="cross-check a QASM file against dense simulation")
    verify.add_argument("file", help="QASM path, or - for stdin")
    verify.add_argument("--reorder", choices=[m.value for m in ReorderMode], default="none")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
