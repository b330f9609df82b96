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
from pathlib import Path

import numpy as np

from . import dd, qasm
from .generators import FAMILIES, build_family
from .oracle import MAX_ORACLE_QUBITS, DenseState, max_abs_diff, simulate_dense
from .reorder import ReorderMode
from .runner import BenchRow, bench, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_TIMEOUT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_source(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    return Path(path).read_text(encoding="utf-8"), path


def _parse_sizes(text: str) -> list[int]:
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        sizes = list(range(int(lo_s), int(hi_s) + 1))
    else:
        sizes = [int(part) for part in text.split(",")]
    if not sizes or min(sizes) < 1:
        raise ValueError(f"bad size range {text!r}")
    return sizes


def _parse_modes(text: str) -> list[ReorderMode]:
    return [ReorderMode(part.strip()) for part in text.split(",")]


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        circuit = build_family(args.family, args.qubits, phase_numerator=args.phase_k)
    except ValueError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = qasm.emit(circuit)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_sim(args: argparse.Namespace) -> int:
    try:
        source, name = _read_source(args.file)
    except OSError as exc:
        print(f"sim: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = qasm.parse(source)
    except qasm.QasmError as exc:
        print(f"sim: {exc}", file=sys.stderr)
        return EXIT_USAGE

    mode = ReorderMode(args.reorder)
    n = program.circuit.num_qubits
    for bits in args.query:
        if len(bits) != n or any(c not in "01" for c in bits):
            print(f"sim: query {bits!r} is not a {n}-bit string", file=sys.stderr)
            return EXIT_USAGE

    try:
        result = run(program.circuit, mode, timeout_s=args.timeout)
    except dd.SimulationTimeout as exc:
        if args.json:
            print(json.dumps({"status": "timeout", "file": name, "detail": str(exc)}))
        else:
            print(f"sim: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT

    stats = result.stats
    norm = math.sqrt(dd.norm_squared(result.final_state))
    queries = []
    for bits in args.query:
        amp = result.amplitude(bits)
        queries.append({
            "bits": bits,
            "amplitude": [amp.real, amp.imag],
            "probability": abs(amp) ** 2,
        })

    if args.json:
        payload = {
            "status": "ok",
            "file": name,
            "qubits": n,
            "mode": mode.value,
            "gates_applied": stats.gates_applied,
            "swaps_removed": stats.swaps_removed,
            "wall_time_s": stats.wall_time_s,
            "peak_nodes": stats.peak_nodes,
            "final_nodes": stats.final_nodes,
            "norm": norm,
            "output_permutation": list(result.output_permutation.mapping),
            "queries": queries,
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK

    perm = result.output_permutation
    print(f"file: {name}")
    print(f"qubits: {n}")
    print(f"mode: {mode.value}")
    print(f"gates_applied: {stats.gates_applied}")
    print(f"swaps_removed: {stats.swaps_removed}")
    print(f"wall_time_s: {stats.wall_time_s:.6f}")
    print(f"peak_nodes: {stats.peak_nodes}")
    print(f"final_nodes: {stats.final_nodes}")
    print(f"norm: {norm:.12f}")
    print("output_permutation: " + ("identity" if perm.is_identity else " ".join(map(str, perm.mapping))))
    for q in queries:
        re, im = q["amplitude"]
        print(f"amplitude[{q['bits']}]: {re:+.12f}{im:+.12f}j  p={q['probability']:.12f}")
    return EXIT_OK


def _format_bench_table(rows: list[BenchRow]) -> str:
    headers = ["family", "n", "mode", "status", "wall_s", "peak_nodes", "final_nodes", "swaps_removed", "gates"]
    table = [headers]
    for r in rows:
        table.append([
            r.family,
            str(r.num_qubits),
            r.mode.value,
            r.status,
            f"{r.wall_time_s:.3f}" if r.wall_time_s is not None else "-",
            str(r.peak_nodes) if r.peak_nodes is not None else "-",
            str(r.final_nodes) if r.final_nodes is not None else "-",
            str(r.swaps_removed) if r.swaps_removed is not None else "-",
            str(r.gates_applied) if r.gates_applied is not None else "-",
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in table]
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = _parse_sizes(args.qubits)
        modes = _parse_modes(args.reorder)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return EXIT_USAGE

    rows = bench(args.family, sizes, modes, timeout_s=args.timeout)
    if args.json:
        payload = [
            {
                "family": r.family,
                "qubits": r.num_qubits,
                "mode": r.mode.value,
                "status": r.status,
                "wall_time_s": r.wall_time_s,
                "peak_nodes": r.peak_nodes,
                "final_nodes": r.final_nodes,
                "swaps_removed": r.swaps_removed,
                "gates_applied": r.gates_applied,
            }
            for r in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print(_format_bench_table(rows))
    if rows and all(r.status == "timeout" for r in rows):
        return EXIT_TIMEOUT
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        source, name = _read_source(args.file)
    except OSError as exc:
        print(f"verify: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = qasm.parse(source)
    except qasm.QasmError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_USAGE

    n = program.circuit.num_qubits
    cap = min(args.max_qubits, MAX_ORACLE_QUBITS)
    if n > cap:
        print(f"verify: {n} qubits exceeds the dense-reference cap of {cap}", file=sys.stderr)
        return EXIT_USAGE

    result = run(program.circuit, ReorderMode(args.reorder))
    # the oracle answers in wire labels and statevector() in original labels:
    # original qubit q's bit is the bit of wire mapping[q]
    wires = simulate_dense(program.circuit).amplitudes.reshape((2,) * n)
    original = np.transpose(wires, program.circuit.output_permutation.mapping).reshape(-1)
    err = max_abs_diff(DenseState(original, n), result.statevector())
    ok = err <= 1e-9
    if args.json:
        print(json.dumps({
            "file": name,
            "qubits": n,
            "mode": args.reorder,
            "max_abs_diff": err,
            "ok": ok,
        }))
    else:
        print(f"file: {name}")
        print(f"qubits: {n}")
        print(f"mode: {args.reorder}")
        print(f"max_abs_diff: {err:.3e}")
        print(f"verdict: {'ok' if ok else 'MISMATCH'}")
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
    sim.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(func=_cmd_sim)

    bench_p = sub.add_parser("bench", help="time a family across sizes and modes")
    bench_p.add_argument("--family", choices=FAMILIES, required=True)
    bench_p.add_argument("--qubits", required=True, metavar="A..B",
                         help="size range A..B, or a comma list")
    bench_p.add_argument("--reorder", default="none,all", metavar="M[,M]",
                         help="comma list of modes (default none,all)")
    bench_p.add_argument("--timeout", type=float, default=120.0, metavar="SECONDS")
    bench_p.add_argument("--json", action="store_true")
    bench_p.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="cross-check a QASM file against dense simulation")
    verify.add_argument("file", help="QASM path, or - for stdin")
    verify.add_argument("--reorder", choices=[m.value for m in ReorderMode], default="none")
    verify.add_argument("--max-qubits", type=int, default=12,
                        help="refuse files larger than this (dense cost is 2^n)")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
