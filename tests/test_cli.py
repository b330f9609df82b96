"""Command-line surface: subcommands, exit codes, JSON output."""

import dataclasses
import json
import math
import sys

import pytest

from qdd.circuit import Circuit, h, swap, x
from qdd.cli import EXIT_MISMATCH, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, main
from qdd.oracle import MAX_ORACLE_QUBITS
from qdd.qasm import emit, parse
from qdd.reorder import ReorderMode, reorder
from qdd.runner import RunStats, run

STATS_KEYS = {f.name for f in dataclasses.fields(RunStats)}
VARYING_KEYS = {"wall_time_s", "gate_dd_s", "apply_s", "collect_s", "gc_pass_s", "young_objects"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_qasm_to_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "ghz", "--qubits", "3")
    assert code == EXIT_OK
    prog = parse(out)
    assert prog.circuit.num_qubits == 3
    assert len(prog.circuit.gates) == 3


def test_gen_writes_file(tmp_path, capsys):
    target = tmp_path / "qft4.qasm"
    code, out, _ = run_cli(capsys, "gen", "qft", "--qubits", "4", "-o", str(target))
    assert code == EXIT_OK and out == ""
    assert parse(target.read_text()).circuit.num_qubits == 4


def test_gen_phase_k_only_for_qpe(capsys):
    code, _, err = run_cli(capsys, "gen", "ghz", "--qubits", "3", "--phase-k", "1")
    assert code == EXIT_USAGE
    assert "qpe" in err


def test_sim_reports_queries(tmp_path, capsys):
    f = tmp_path / "ghz.qasm"
    run_cli(capsys, "gen", "ghz", "--qubits", "3", "-o", str(f))
    code, out, _ = run_cli(capsys, "sim", str(f), "--query", "000", "--query", "111", "--query", "010")
    assert code == EXIT_OK
    assert "amplitude[000]" in out and "amplitude[111]" in out
    s = 1 / math.sqrt(2)
    assert f"p={s**2:.12f}" in out


def test_sim_json_schema(tmp_path, capsys):
    f = tmp_path / "qft3.qasm"
    run_cli(capsys, "gen", "qft", "--qubits", "3", "-o", str(f))
    code, out, _ = run_cli(capsys, "sim", str(f), "--reorder", "all", "--query", "100", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["qubits"] == 3
    assert payload["mode"] == "all"
    assert payload["swaps_removed"] == 1
    assert payload["output_permutation"] == [2, 1, 0]
    (query,) = payload["queries"]
    assert query["bits"] == "100"
    re, im = query["amplitude"]
    assert math.hypot(re, im) == pytest.approx(math.sqrt(query["probability"]))


def test_sim_remapped_query_matches_none_mode(tmp_path, capsys):
    f = tmp_path / "qft3.qasm"
    run_cli(capsys, "gen", "qft", "--qubits", "3", "-o", str(f))
    _, out_none, _ = run_cli(capsys, "sim", str(f), "--reorder", "none", "--query", "100", "--json")
    _, out_trail, _ = run_cli(capsys, "sim", str(f), "--reorder", "trailing", "--query", "100", "--json")
    a = json.loads(out_none)["queries"][0]["amplitude"]
    b = json.loads(out_trail)["queries"][0]["amplitude"]
    assert a == pytest.approx(b, abs=1e-12)


def test_sim_bad_query_is_usage_error(tmp_path, capsys):
    f = tmp_path / "ghz.qasm"
    run_cli(capsys, "gen", "ghz", "--qubits", "3", "-o", str(f))
    code, _, err = run_cli(capsys, "sim", str(f), "--query", "01")
    assert code == EXIT_USAGE and "3-bit" in err


def test_sim_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sim", "/nonexistent/x.qasm")
    assert code == EXIT_USAGE and "cannot read" in err


def test_sim_parse_error_reports_line(tmp_path, capsys):
    f = tmp_path / "bad.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
    code, _, err = run_cli(capsys, "sim", str(f))
    assert code == EXIT_USAGE and "unknown gate" in err and "line 3" in err


def test_sim_gate_error_names_the_statement_line(tmp_path, capsys):
    # `h q;` expands to two gates, so the bad cx is gate 2 of the circuit but sits on line 4
    f = tmp_path / "dup.qasm"
    f.write_text("OPENQASM 2.0;\nqreg q[2];\nh q;\ncx q[1],q[1];\n")
    code, _, err = run_cli(capsys, "sim", str(f))
    assert code == EXIT_USAGE and err.startswith("sim: duplicate wire") and "at line 4" in err


def test_sim_deeply_nested_angle_is_usage_error(tmp_path, capsys):
    f = tmp_path / "deep.qasm"
    f.write_text(f"OPENQASM 2.0;\nqreg q[1];\np({'(' * 400}1{')' * 400}) q[0];\n")
    code, _, err = run_cli(capsys, "sim", str(f))
    assert code == EXIT_USAGE and err.startswith("sim: ") and "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["sim", "verify"])
def test_mcp_wider_than_dense_limit_is_usage_error(tmp_path, capsys, command):
    f = tmp_path / "wide.qasm"
    wires = ",".join(f"q[{i}]" for i in range(13))
    f.write_text(f"OPENQASM 2.0;\nqreg q[13];\nmcp(pi) {wires};\n")
    code, _, err = run_cli(capsys, command, str(f))
    assert code == EXIT_USAGE and "mcp" in err


def test_sim_wider_than_the_recursion_limit(tmp_path, capsys):
    # run() raises the limit only while it simulates; what sim does with the
    # result afterwards must work under the caller's own limit
    n = sys.getrecursionlimit()
    f = tmp_path / "wide.qasm"
    f.write_text(f"OPENQASM 2.0;\nqreg q[{n}];\nx q[0];\n")
    code, out, _ = run_cli(capsys, "sim", str(f), "--json", "--query", "1" + "0" * (n - 1))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["norm"] == 1
    assert payload["queries"][0]["probability"] == 1


def test_sim_timeout_exit_code(tmp_path, capsys):
    f = tmp_path / "big.qasm"
    run_cli(capsys, "gen", "entangled_qft", "--qubits", "14", "-o", str(f))
    code, out, err = run_cli(capsys, "sim", str(f), "--timeout", "0.05", "--json")
    assert code == EXIT_TIMEOUT
    assert json.loads(out)["status"] == "timeout"


def test_verify_accepts_good_file(tmp_path, capsys):
    f = tmp_path / "ghz6.qasm"
    run_cli(capsys, "gen", "ghz", "--qubits", "6", "-o", str(f))
    code, out, _ = run_cli(capsys, "verify", str(f))
    assert code == EXIT_OK
    assert "ok" in out


def test_verify_detects_mismatch(tmp_path, capsys, monkeypatch):
    f = tmp_path / "ghz3.qasm"
    run_cli(capsys, "gen", "ghz", "--qubits", "3", "-o", str(f))
    import qdd.cli as cli_mod

    monkeypatch.setattr(cli_mod, "max_abs_diff", lambda a, b: 0.5)
    code, out, _ = run_cli(capsys, "verify", str(f), "--json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["ok"] is False


def test_verify_compares_in_original_labels(tmp_path, capsys, monkeypatch):
    # the file carries an output_permutation sidecar (2 1 0)
    out, _ = reorder(Circuit(3, (x(0), h(1), swap(0, 2))), ReorderMode.ALL)
    f = tmp_path / "relabeled.qasm"
    f.write_text(emit(out))
    for mode in ReorderMode:
        code, out_text, _ = run_cli(capsys, "verify", str(f), "--reorder", mode.value, "--json")
        assert code == EXIT_OK, out_text
    # a result that drops the sidecar answers in wire labels and must be caught
    import qdd.cli as cli_mod

    monkeypatch.setattr(cli_mod, "run", lambda c, mode: run(Circuit(c.num_qubits, c.gates), mode))
    code, out_text, _ = run_cli(capsys, "verify", str(f), "--json")
    assert code == EXIT_MISMATCH
    assert json.loads(out_text)["ok"] is False


def test_verify_rejects_oversized_register(tmp_path, capsys):
    f = tmp_path / "big.qasm"
    run_cli(capsys, "gen", "ghz", "--qubits", str(MAX_ORACLE_QUBITS + 1), "-o", str(f))
    code, _, err = run_cli(capsys, "verify", str(f))
    assert code == EXIT_USAGE and "exceeds" in err


def test_bench_text_table(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--family", "entangled_qft", "--qubits", "3..4",
        "--reorder", "none,all",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split()[:4] == ["family", "n", "mode", "status"]
    assert len(lines) == 5  # header + 2 sizes x 2 modes


def test_bench_json_rows(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--family", "qpe", "--qubits", "3,5",
        "--reorder", "all", "--json",
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [r["qubits"] for r in rows] == [3, 5]
    assert all(r["status"] == "ok" for r in rows)
    assert all(r["swaps_removed"] >= 1 for r in rows)


def test_json_keys_cover_the_run_stats(tmp_path, capsys):
    f = tmp_path / "qft3.qasm"
    run_cli(capsys, "gen", "qft", "--qubits", "3", "-o", str(f))
    sim_keys = {"status", "file", "qubits", "mode", "gates_applied", "swaps_removed", "wall_time_s",
                "peak_nodes", "final_nodes", "norm", "output_permutation", "queries"}
    bench_keys = {"family", "qubits", "mode", "status", "wall_time_s", "peak_nodes", "final_nodes",
                  "swaps_removed", "gates_applied"}
    verify_keys = {"file", "qubits", "mode", "max_abs_diff", "ok"}
    _, out, _ = run_cli(capsys, "sim", str(f), "--json")
    assert json.loads(out).keys() >= sim_keys | STATS_KEYS
    _, out, _ = run_cli(capsys, "verify", str(f), "--json")
    assert json.loads(out).keys() >= verify_keys | STATS_KEYS
    _, out, _ = run_cli(capsys, "bench", "--family", "qft", "--qubits", "3", "--reorder", "all", "--json")
    (row,) = json.loads(out)
    assert row.keys() >= bench_keys | STATS_KEYS


def test_bench_json_rows_shape_and_determinism(capsys):
    argv = ("bench", "--family", "ghz", "--qubits", "3..4", "--reorder", "none,all", "--json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    rows = json.loads(out)
    assert [(r["qubits"], r["mode"]) for r in rows] == [(3, "none"), (3, "all"), (4, "none"), (4, "all")]
    assert all(r["status"] == "ok" and r["family"] == "ghz" for r in rows)
    # everything but the clock and the interpreter's object count repeats exactly
    _, again, _ = run_cli(capsys, *argv)

    def repeatable(row):
        return {k: v for k, v in row.items() if k not in VARYING_KEYS}

    assert [repeatable(r) for r in rows] == [repeatable(r) for r in json.loads(again)]


def test_bench_timeout_row_has_null_stats(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--family", "entangled_qft", "--qubits", "3,14",
        "--reorder", "none", "--timeout", "0.05", "--json",
    )
    assert code == EXIT_OK  # one row finished
    small, big = json.loads(out)
    assert small["status"] == "ok" and big["status"] == "timeout"
    assert all(big[k] is None for k in STATS_KEYS)


def test_bench_all_timeouts_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--family", "entangled_qft", "--qubits", "14",
        "--reorder", "none", "--timeout", "0.05",
    )
    assert code == EXIT_TIMEOUT
    assert "timeout" in out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("qubits", ["9..3", "0", "0,3"])
def test_bad_qubit_range_is_usage_error(capsys, qubits):
    code, _, err = run_cli(
        capsys, "bench", "--family", "qpe", "--qubits", qubits, "--reorder", "all"
    )
    assert code == EXIT_USAGE and "range" in err
