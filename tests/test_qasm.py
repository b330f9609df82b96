"""QASM subset reader/writer: round trips, golden fixture, error positions."""

import math
import random
from pathlib import Path

import pytest

from qdd.circuit import Circuit, GateKind, cp, h, mcp, swap, x
from qdd.generators import qft
from qdd.qasm import QasmError, emit, parse
from qdd.reorder import ReorderMode, reorder
from util import random_circuit

DATA = Path(__file__).parent / "data"


def test_golden_qft3_fixture_is_byte_exact():
    want = (DATA / "qft3.qasm").read_text(encoding="utf-8")
    assert emit(qft(3)) == want
    parsed = parse(want)
    assert parsed.circuit == qft(3)


def test_emit_parse_round_trip_random_circuits():
    rng = random.Random(17)
    for _ in range(50):
        c = random_circuit(rng, max_qubits=6, max_depth=30)
        back = parse(emit(c))
        assert back.circuit == c


def test_round_trip_preserves_angles_bit_exactly():
    c = Circuit(2, (cp(math.pi / 3, 0, 1), cp(-2.123456789012345e-7, 1, 0)))
    back = parse(emit(c)).circuit
    assert back.gates[0].angle == c.gates[0].angle
    assert back.gates[1].angle == c.gates[1].angle


def test_permutation_sidecar_round_trip():
    c = qft(3)
    out, _ = reorder(c, ReorderMode.ALL)
    text = emit(out)
    assert "// output_permutation: 2 1 0" in text
    back = parse(text).circuit
    assert back.output_permutation == (2, 1, 0)
    assert back == out


def test_identity_permutation_is_not_emitted():
    assert "output_permutation" not in emit(qft(3))


def test_parse_accepts_the_supported_subset():
    text = """
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    h q[0];
    u1(pi/4) q[1];
    cu1(-pi/8) q[0],q[2];
    rz(2e-3) q[2];
    mcp(pi) q[0],q[1],q[2];
    barrier q;
    measure q -> c;
    """
    prog = parse(text)
    kinds = [g.kind for g in prog.circuit.gates]
    assert kinds == [GateKind.H, GateKind.P, GateKind.CP, GateKind.RZ, GateKind.MCP]
    mcp_gate = prog.circuit.gates[-1]
    assert mcp_gate.controls == (0, 1) and mcp_gate.targets == (2,)
    reasons = [r for _, r in prog.ignored_statements]
    assert len(prog.ignored_statements) == 3  # include, barrier, measure
    assert any("barrier" in r for r in reasons)
    assert any("measure" in r for r in reasons)


def test_broadcast_expands_single_qubit_gates():
    prog = parse("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
    assert [g.targets for g in prog.circuit.gates] == [(0,), (1,), (2,)]


def test_broadcast_rejected_for_two_qubit_gates():
    with pytest.raises(QasmError, match="broadcast"):
        parse("OPENQASM 2.0;\nqreg q[3];\ncx q,q;\n")


def test_angle_expression_grammar():
    prog = parse(
        "OPENQASM 2.0;\nqreg q[1];\n"
        "p(2*pi/8) q[0];\n"
        "p(-(1+2)*0.5) q[0];\n"
        "p(1.5e-3) q[0];\n"
        "p((pi)) q[0];\n"
        f"p({'+'.join(['1'] * 20000)}) q[0];\n"  # chain length is not nesting depth
    )
    angles = [g.angle for g in prog.circuit.gates]
    assert angles[0] == pytest.approx(math.pi / 4)
    assert angles[1] == pytest.approx(-1.5)
    assert angles[2] == pytest.approx(0.0015)
    assert angles[3] == pytest.approx(math.pi)
    assert angles[4] == 20000.0


def test_angle_division_by_zero_is_an_error():
    with pytest.raises(QasmError, match="division by zero"):
        parse("OPENQASM 2.0;\nqreg q[1];\np(1/0) q[0];\n")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("qreg q[2];\nh q[0];\n", "OPENQASM"),
        ("OPENQASM 3.0;\nqreg q[1];\n", "version"),
        ("OPENQASM 2.0;\nh q[0];\n", "before any qreg"),
        ("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n", "one qreg"),
        ("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n", "unknown gate"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n", "out of range"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n", "terminating ';'"),
        ("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", "duplicate wire"),
        ("OPENQASM 2.0;\nqreg q[2];\np q[0];\n", "requires an angle"),
        ("OPENQASM 2.0;\nqreg q[2];\nh(0.5) q[0];\n", "takes no angle"),
        ("OPENQASM 2.0;\nqreg q[2];\nh r[0];\n", "unknown register"),
        ("OPENQASM 2.0;\nqreg q[0];\n", ">= 1"),
        ("OPENQASM 2.0;\nqreg q[70000];\n", "exceeds the limit of 65536 at line 2"),
        ("OPENQASM 2.0;\nqreg q[2];\nswap q[0];\n", "got 0/1 at line 3"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0], ;\n", "trailing ','"),
        pytest.param(f"OPENQASM 2.0;\nqreg q[1];\np({'(' * 400}1{')' * 400}) q[0];\n", "nests deeper",
                     id="angle-400-parentheses-deep"),
        pytest.param(f"OPENQASM 2.0;\nqreg q[1];\np({'-' * 2000}1) q[0];\n", "nests deeper",
                     id="angle-2000-unary-minuses"),
        ('OPENQASM 2.0;\ninclude "qelib1.inc;\nqreg q[1];\n', "malformed include"),
        ('OPENQASM 2.0;\ninclude "qelib1\n.inc";\nqreg q[1];\n', "malformed include"),
        ("OPENQASM 2.0;\nqreg q[1];\nmeasure q[0];\n", "malformed measure"),
        ("OPENQASM 2.0;\nqreg q[2];\nbarrier q[0] ) q[1] -> pi;\n", "malformed barrier"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// output_permutation: 1 0 x\n", "malformed output_permutation comment at line 4"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n// output_permutation 1 0\n", "malformed output_permutation comment at line 4"),
        pytest.param("OPENQASM 2.0;\nqreg q[3];\n// output_permutation: 1 0 2\nh q[0];\n// output_permutation: 2 1 0\n",
                     "second output_permutation comment \\(the first is at line 3\\) at line 5",
                     id="second-output-permutation-comment"),
        pytest.param(f"OPENQASM 2.0;\nqreg q[2];\n// output_permutation: 1{'0' * 5000}\n",
                     r"\(number with 5001 digits is too long\) at line 3", id="output-permutation-entry-5001-digits"),
        ("OPENQASM 2.0;\nqreg q[2];\n// output_permutation: 0 0\nh q[0];\n", "not a permutation of 0..1: \\(0, 0\\)\\) at line 3"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(QasmError, match=fragment):
        parse(text)


_MCP_13 = "mcp(pi) " + ",".join(f"q[{i}]" for i in range(13))


@pytest.mark.parametrize(
    "text, fragment, line, stmt",
    [
        # the broadcast makes this gate 2 of the circuit; the error names its line, 4
        pytest.param("OPENQASM 2.0;\nqreg q[2];\nh q;\ncx q[1],q[1];\n", "duplicate wire", 4, "cx q[1],q[1]",
                     id="duplicate-wire-after-broadcast"),
        pytest.param("OPENQASM 2.0;\nqreg q[1];\np(1e308*10) q[0];\n", "angle must be finite, got inf", 3,
                     "p(1e308*10) q[0]", id="angle-overflows-to-inf"),
        pytest.param(f"OPENQASM 2.0;\nqreg q[14];\n{_MCP_13};\n", "mcp over 13 wires", 3, _MCP_13,
                     id="mcp-over-13-wires"),
        pytest.param("OPENQASM 2.0;\nqreg q[2];\nswap q[0];\n", "swap needs 0 control(s) and 2 target(s)", 3,
                     "swap q[0]", id="swap-on-one-wire"),
    ],
)
def test_gate_errors_name_their_statement(text, fragment, line, stmt):
    with pytest.raises(QasmError) as info:
        parse(text)
    assert fragment in str(info.value)
    assert info.value.line == line
    quoted = stmt if len(stmt) <= 60 else stmt[:57] + "..."
    assert str(info.value).endswith(f" at line {line}: {quoted!r}")


def test_error_carries_line_number():
    try:
        parse("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n")
    except QasmError as exc:
        assert exc.line == 3
    else:
        pytest.fail("expected QasmError")
    # a statement's line is where its text starts, and the message quotes it
    with pytest.raises(QasmError, match=r"at line 5: 'foo\\n  q\[0\]'") as info:
        parse("OPENQASM 2.0;\nqreg q[2];\n\n  // comment\nfoo\n  q[0];\n")
    assert info.value.line == 5


def test_permutation_comment_size_mismatch_is_an_error():
    text = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\n// output_permutation: 1 0\n"
    with pytest.raises(QasmError, match=r"has 2 entries for 3 qubits\) at line 4$"):
        parse(text)


def test_emit_refuses_invalid_circuit():
    bad = Circuit(2, (h(5),))
    with pytest.raises(ValueError):
        emit(bad)


def test_comments_and_blank_lines_are_skipped():
    text = "// header comment\nOPENQASM 2.0;\n\nqreg q[1]; // inline\nh q[0];\n"
    prog = parse(text)
    assert len(prog.circuit.gates) == 1


def test_mcp_emit_lists_controls_then_target():
    c = Circuit(4, (mcp(0.25, [3, 1], 0),))
    text = emit(c)
    assert "mcp(0.25) q[3],q[1],q[0];" in text
    back = parse(text).circuit
    assert back.gates[0].controls == (3, 1)
    assert back.gates[0].targets == (0,)
