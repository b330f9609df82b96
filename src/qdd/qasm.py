"""Reader and writer for a small OpenQASM 2.0 subset.

Recognized: the OPENQASM 2.0 header, exactly one qreg of at most 65536
qubits (_MAX_QREG_SIZE), any number of cregs, and the gate statements h, x,
y, z, s, sdg, t, tdg, p, u1, rz, cx, cp, cu1, swap, mcp. u1 and cu1 are
aliases of p and cp. The multi-controlled phase is written
`mcp(theta) q[c0],q[c1],...,q[t];` with every argument but the last acting
as a control. Three statement forms are skipped and recorded with a
reason: `include "name";`, `barrier ref, ...;` and `measure ref -> ref;`,
where a ref is a register name with an optional `[index]`. The reader splits
the text on `;` after dropping `//` comments, so a `;` inside an include
name ends the statement and the include is refused. Angle expressions
combine integers, decimals, pi, parentheses, unary sign, and + - * /;
parentheses and unary signs may nest at most 64 deep (_MAX_ANGLE_DEPTH),
while a flat chain such as 1+1+...+1 may be any length. Each gate a
statement yields (one per qubit for a register broadcast) must pass
circuit.check_gate. Anything else is a hard error naming the line where the
offending statement starts and the statement's text.

Emitted files print angles with 17 significant digits (bit-exact round
trips) and, when the circuit carries a non-identity relabeling, end with the
sidecar comment

    // output_permutation: p0 p1 ... p_{n-1}

meaning original qubit q now lives on wire p_q. parse() restores that
comment into Circuit.output_permutation, which is how transformed circuits
keep answering amplitude queries in original labels. A comment that starts
with `output_permutation` but is not of that form is an error, not a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import pi as _PI

from .circuit import ARITY, Circuit, Gate, GateKind, QubitPermutation, check_gate, validate


class QasmError(Exception):
    """Parse failure; line is where the offending statement starts."""

    def __init__(self, message: str, line: int | None = None, text: str | None = None) -> None:
        self.line = line
        if line is not None:
            message += f" at line {line}"
        if text is not None:
            message += f": {text if len(text) <= 60 else text[:57] + '...'!r}"
        super().__init__(message)


@dataclass(frozen=True)
class ParsedProgram:
    """Parse result: the circuit plus every statement that was skipped."""

    circuit: Circuit
    ignored_statements: tuple[tuple[int, str], ...] = ()


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_REF = rf"({_NAME})\s*(?:\[\s*([0-9]+)\s*\])?"  # register, optional index
_NAME_RE = re.compile(_NAME)
_REF_RE = re.compile(_REF)
_HEADER_RE = re.compile(r"OPENQASM\s+2\.0")
_REGISTER_RE = re.compile(rf"[qc]reg\s+({_NAME})\s*\[\s*([0-9]+)\s*\]")
_ANGLE_TOKEN_RE = re.compile(
    r"\s*(?:([0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)"  # number
    rf"|({_NAME}|\S))"
)
_PERM_COMMENT_RE = re.compile(r"output_permutation:\s*(\d+(?:\s+\d+)*)")

# statements that are checked for shape, then skipped with a reason
_SKIPPED = {
    "include": (re.compile(r'include\s*"[^"\n]*"'), "include skipped (no include path support)"),
    "barrier": (re.compile(rf"barrier\s+{_REF}(?:\s*,\s*{_REF})*"),
                "barrier skipped (no effect on pure-state simulation)"),
    "measure": (re.compile(rf"measure\s+{_REF}\s*->\s*{_REF}"),
                "measure skipped (amplitudes are queried directly)"),
}

# every kind by its mnemonic, plus the qelib1.inc aliases of p and cp
_KINDS = {k.value: k for k in GateKind} | {"u1": GateKind.P, "cu1": GateKind.CP}

# parentheses plus unary signs open at once; keeps the evaluator's recursion
# far inside Python's stack limit
_MAX_ANGLE_DEPTH = 64
# qubits in the one qreg; a broadcast `h q;` over it still parses in well
# under a second
_MAX_QREG_SIZE = 1 << 16


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer string length
        raise QasmError(f"number with {len(digits)} digits is too long") from None


def _angle(text: str) -> float:
    """Value of an angle expression: numbers, pi, + - * /, unary sign, parentheses."""
    # numbers arrive as floats, everything else as its text; reversed so pop() reads
    tokens = [float(num) if num else other for num, other in _ANGLE_TOKEN_RE.findall(text)][::-1]

    def expr(depth: int) -> float:
        value = term(depth)
        while tokens and tokens[-1] in ("+", "-"):
            op = tokens.pop()
            rhs = term(depth)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(depth: int) -> float:
        value = factor(depth)
        while tokens and tokens[-1] in ("*", "/"):
            op = tokens.pop()
            rhs = factor(depth)
            if op == "*":
                value *= rhs
            elif rhs == 0.0:
                raise QasmError("division by zero in angle expression")
            else:
                value /= rhs
        return value

    def factor(depth: int) -> float:
        if not tokens:
            raise QasmError("angle expression ended unexpectedly")
        tok = tokens.pop()
        if isinstance(tok, float):
            return tok
        if tok == "pi":
            return _PI
        if tok not in ("(", "-", "+"):
            raise QasmError(f"unexpected {tok!r} in angle expression")
        if depth == _MAX_ANGLE_DEPTH:
            raise QasmError(f"angle expression nests deeper than {_MAX_ANGLE_DEPTH} levels")
        if tok != "(":
            value = factor(depth + 1)
            return -value if tok == "-" else value
        value = expr(depth + 1)
        if not tokens or tokens.pop() != ")":
            raise QasmError("expected ')' in angle expression")
        return value

    value = expr(0)
    if tokens:
        raise QasmError(f"unexpected {tokens[-1]!r} in angle expression")
    return value


def _gate(stmt: str, name: str, qreg: tuple[str, int] | None) -> list[Gate]:
    """The gates of one gate statement; a bare register broadcasts a 1-qubit gate."""
    kind = _KINDS.get(name)
    if kind is None:
        raise QasmError(f"unknown gate {(name or stmt[0])!r}")
    rest = stmt[len(name):].lstrip()
    angle = None
    if rest.startswith("("):
        close = rest.rfind(")")  # arguments hold no ')', so this closes the angle
        if close < 0:
            raise QasmError("unclosed '(' in gate arguments")
        angle = _angle(rest[1:close])
        rest = rest[close + 1 :]
    if qreg is None:
        raise QasmError("gate statement before any qreg")
    if not rest.strip():
        raise QasmError("gate statement has no arguments")

    reg, size = qreg
    wires: list[int | None] = []  # None marks a bare register reference
    for arg in rest.split(","):
        arg = arg.strip()
        m = _REF_RE.fullmatch(arg)
        if m is None:
            raise QasmError(f"malformed argument {arg!r}" if arg else "stray or trailing ','")
        if m[1] != reg:
            raise QasmError(f"unknown register {m[1]!r}")
        wires.append(None if m[2] is None else _int(m[2]))

    nc, nt = ARITY[kind]
    if nc == 0 and nt == 1 and wires == [None]:
        gates = [Gate(kind, angle=angle, targets=(q,)) for q in range(size)]
    elif None in wires:
        raise QasmError(f"register broadcast is only supported for single-qubit gates, not {name}")
    else:
        gates = [Gate(kind, angle=angle, controls=tuple(wires[:-nt]), targets=tuple(wires[-nt:]))]
    for g in gates:
        try:
            check_gate(g, size)
        except ValueError as exc:
            raise QasmError(str(exc)) from None
    return gates


def parse(text: str) -> ParsedProgram:
    """Parse a QASM program in the supported subset."""
    code: list[str] = []
    perm: QubitPermutation | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        kept, _, comment = raw.partition("//")
        code.append(kept)
        comment = comment.strip()
        if comment.startswith("output_permutation"):
            m = _PERM_COMMENT_RE.fullmatch(comment)
            if m is None:
                raise QasmError("malformed output_permutation comment", lineno, comment)
            try:
                perm = QubitPermutation(tuple(int(v) for v in m[1].split()))
            except ValueError as exc:
                raise QasmError(f"bad output_permutation comment ({exc})", lineno) from None
    body = "\n".join(code)

    *pieces, tail = body.split(";")
    if tail.strip():
        line = body.count("\n", 0, len(body) - len(tail.lstrip())) + 1
        raise QasmError("statement is missing its terminating ';'", line, tail.strip())

    qreg: tuple[str, int] | None = None
    gates: list[Gate] = []
    ignored: list[tuple[int, str]] = []
    seen_header = False
    line = 1
    for piece in pieces:
        stmt = piece.strip()
        start = line + piece.count("\n", 0, len(piece) - len(piece.lstrip()))
        line += piece.count("\n")
        if not stmt:
            continue
        head = _NAME_RE.match(stmt)
        name = head[0] if head else ""
        try:
            if not seen_header:
                if not _HEADER_RE.fullmatch(stmt):
                    raise QasmError("unsupported OPENQASM version (only 2.0)" if name == "OPENQASM"
                                    else "expected 'OPENQASM 2.0;' as the first statement")
                seen_header = True
            elif name == "OPENQASM":
                raise QasmError("duplicate OPENQASM header")
            elif name in ("qreg", "creg"):
                m = _REGISTER_RE.fullmatch(stmt)
                if m is None:
                    raise QasmError(f"malformed {name} declaration")
                if name == "creg":
                    continue
                if qreg is not None:
                    raise QasmError("only one qreg is supported")
                size = _int(m[2])
                if size < 1:
                    raise QasmError("qreg size must be >= 1")
                if size > _MAX_QREG_SIZE:
                    raise QasmError(f"qreg size {size} exceeds the limit of {_MAX_QREG_SIZE}")
                qreg = (m[1], size)
            elif name in _SKIPPED:
                form, reason = _SKIPPED[name]
                if not form.fullmatch(stmt):
                    raise QasmError(f"malformed {name} statement")
                ignored.append((start, reason))
            else:
                gates += _gate(stmt, name, qreg)
        except QasmError as exc:
            raise QasmError(str(exc), start, stmt) from None

    if not seen_header:
        raise QasmError("empty program: expected 'OPENQASM 2.0;'")
    if qreg is None:
        raise QasmError("no qreg declared")
    size = qreg[1]
    if perm is not None and len(perm) != size:
        raise QasmError(f"output_permutation has {len(perm)} entries for a {size}-qubit register")
    return ParsedProgram(Circuit(size, tuple(gates), perm), tuple(ignored))


def _format_gate(gate: Gate) -> str:
    name = gate.kind.value
    if gate.angle is not None:
        name += f"({gate.angle:.17g})"
    args = ",".join(f"q[{w}]" for w in gate.wires)
    return f"{name} {args};"


def emit(circuit: Circuit) -> str:
    """Deterministic QASM text for the circuit; see the module docstring."""
    validate(circuit)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    lines += [_format_gate(g) for g in circuit.gates]
    perm = circuit.output_permutation
    if not perm.is_identity:
        lines.append("// output_permutation: " + " ".join(str(v) for v in perm.mapping))
    return "\n".join(lines) + "\n"
