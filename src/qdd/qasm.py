"""Reader and writer for a small OpenQASM 2.0 subset.

Recognized: the OPENQASM 2.0 header, include lines (skipped), exactly one
qreg, an optional creg, and the gate statements h, x, y, z, s, sdg, t, tdg,
p, u1, rz, cx, cp, cu1, swap, mcp. u1 and cu1 are aliases of p and cp. The
multi-controlled phase is written `mcp(theta) q[c0],q[c1],...,q[t];` with
every argument but the last acting as a control. barrier and measure
statements are skipped and recorded with a reason; anything else is a hard
error naming the offending token and source line. Angle expressions combine
integers, decimals, pi, parentheses, unary sign, and + - * /.

Emitted files print angles with 17 significant digits (bit-exact round
trips) and, when the circuit carries a non-identity relabeling, end with the
sidecar comment

    // output_permutation: p0 p1 ... p_{n-1}

meaning original qubit q now lives on wire p_q. parse() restores that
comment into Circuit.output_permutation, which is how transformed circuits
keep answering amplitude queries in original labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import pi as _PI

from .circuit import (
    Circuit,
    Gate,
    GateKind,
    QubitPermutation,
    validate,
)


class QasmError(Exception):
    """Parse failure with best-effort source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


@dataclass(frozen=True)
class ParsedProgram:
    """Parse result: the circuit plus every statement that was skipped."""

    circuit: Circuit
    ignored_statements: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class _Token:
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # identifier / keyword
    r"|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"  # number
    r"|\"[^\"\n]*\""  # string literal
    r"|->"
    r"|[()\[\],;+\-*/]"
)

_PERM_COMMENT_RE = re.compile(r"^//\s*output_permutation:\s*((?:\d+\s*)+)$")

_NO_ANGLE = {
    "h": GateKind.H,
    "x": GateKind.X,
    "y": GateKind.Y,
    "z": GateKind.Z,
    "s": GateKind.S,
    "sdg": GateKind.SDG,
    "t": GateKind.T,
    "tdg": GateKind.TDG,
    "cx": GateKind.CX,
    "swap": GateKind.SWAP,
}

_WITH_ANGLE = {
    "p": GateKind.P,
    "u1": GateKind.P,
    "rz": GateKind.RZ,
    "cp": GateKind.CP,
    "cu1": GateKind.CP,
    "mcp": GateKind.MCP,
}

_NUMBER_START = frozenset("0123456789.")


def _tokenize(text: str) -> tuple[list[_Token], QubitPermutation | None]:
    """Token stream plus the relabeling sidecar, if a comment carries one."""
    tokens: list[_Token] = []
    perm: QubitPermutation | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        cut = line.find("//")
        if cut >= 0:
            comment = line[cut:].strip()
            m = _PERM_COMMENT_RE.match(comment)
            if m:
                perm = QubitPermutation(tuple(int(v) for v in m.group(1).split()))
            line = line[:cut]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise QasmError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            tokens.append(_Token(m.group(0), lineno, pos + 1))
            pos = m.end()
    return tokens, perm


def _split_statements(tokens: list[_Token]) -> list[list[_Token]]:
    statements: list[list[_Token]] = []
    current: list[_Token] = []
    for tok in tokens:
        if tok.value == ";":
            if current:
                statements.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        t0 = current[0]
        raise QasmError("statement is missing its terminating ';'", t0.line, t0.column)
    return statements


class _ExprParser:
    """Recursive descent over the angle grammar: + - * / pi numbers parens."""

    def __init__(self, tokens: list[_Token], stmt_line: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.stmt_line = stmt_line

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise QasmError("angle expression ended unexpectedly", self.stmt_line)
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self._expr()
        tok = self._peek()
        if tok is not None:
            raise QasmError(f"unexpected {tok.value!r} in angle expression", tok.line, tok.column)
        return value

    def _expr(self) -> float:
        value = self._term()
        while (tok := self._peek()) is not None and tok.value in "+-":
            self._next()
            rhs = self._term()
            value = value + rhs if tok.value == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while (tok := self._peek()) is not None and tok.value in "*/":
            self._next()
            rhs = self._factor()
            if tok.value == "*":
                value *= rhs
            else:
                if rhs == 0.0:
                    raise QasmError("division by zero in angle expression", tok.line, tok.column)
                value /= rhs
        return value

    def _factor(self) -> float:
        tok = self._next()
        if tok.value == "-":
            return -self._factor()
        if tok.value == "+":
            return self._factor()
        if tok.value == "(":
            value = self._expr()
            closing = self._next()
            if closing.value != ")":
                raise QasmError("expected ')' in angle expression", closing.line, closing.column)
            return value
        if tok.value == "pi":
            return _PI
        if tok.value[0] in _NUMBER_START:
            try:
                return float(tok.value)
            except ValueError:
                raise QasmError(f"bad number {tok.value!r}", tok.line, tok.column) from None
        raise QasmError(f"unexpected {tok.value!r} in angle expression", tok.line, tok.column)


class _Parser:
    def __init__(self, text: str) -> None:
        tokens, self.perm = _tokenize(text)
        self.statements = _split_statements(tokens)
        self.qreg_name: str | None = None
        self.qreg_size = 0
        self.gates: list[Gate] = []
        self.ignored: list[tuple[int, str]] = []

    def parse(self) -> ParsedProgram:
        if not self.statements:
            raise QasmError("empty program: expected 'OPENQASM 2.0;'")
        self._header(self.statements[0])
        for stmt in self.statements[1:]:
            self._statement(stmt)
        if self.qreg_name is None:
            raise QasmError("no qreg declared")
        perm = self.perm
        if perm is not None and len(perm) != self.qreg_size:
            raise QasmError(
                f"output_permutation has {len(perm)} entries for a {self.qreg_size}-qubit register"
            )
        circuit = Circuit(self.qreg_size, tuple(self.gates), perm)
        problems = validate(circuit)
        if problems:
            raise QasmError(f"parsed circuit fails validation: {problems[0]}")
        return ParsedProgram(circuit, tuple(self.ignored))

    def _header(self, stmt: list[_Token]) -> None:
        if stmt[0].value != "OPENQASM":
            raise QasmError("expected 'OPENQASM 2.0;' as the first statement", stmt[0].line, stmt[0].column)
        if len(stmt) != 2 or stmt[1].value != "2.0":
            got = " ".join(t.value for t in stmt[1:]) or "<nothing>"
            raise QasmError(f"unsupported OPENQASM version {got!r} (only 2.0)", stmt[0].line)

    def _statement(self, stmt: list[_Token]) -> None:
        head = stmt[0]
        if head.value == "OPENQASM":
            raise QasmError("duplicate OPENQASM header", head.line, head.column)
        if head.value == "include":
            self.ignored.append((head.line, "include skipped (no include path support)"))
            return
        if head.value == "qreg":
            self._register(stmt, is_qreg=True)
            return
        if head.value == "creg":
            self._register(stmt, is_qreg=False)
            return
        if head.value == "barrier":
            self.ignored.append((head.line, "barrier skipped (no effect on pure-state simulation)"))
            return
        if head.value == "measure":
            self.ignored.append((head.line, "measure skipped (amplitudes are queried directly)"))
            return
        self._gate(stmt)

    def _register(self, stmt: list[_Token], is_qreg: bool) -> None:
        head = stmt[0]
        ok = (
            len(stmt) == 5
            and stmt[1].value.isidentifier()
            and stmt[2].value == "["
            and stmt[3].value.isdigit()
            and stmt[4].value == "]"
        )
        if not ok:
            raise QasmError(f"malformed {head.value} declaration", head.line, head.column)
        if not is_qreg:
            return
        if self.qreg_name is not None:
            raise QasmError("only one qreg is supported", head.line, head.column)
        size = int(stmt[3].value)
        if size < 1:
            raise QasmError("qreg size must be >= 1", stmt[3].line, stmt[3].column)
        self.qreg_name = stmt[1].value
        self.qreg_size = size

    def _gate(self, stmt: list[_Token]) -> None:
        head = stmt[0]
        name = head.value
        pos = 1
        angle: float | None = None
        if name in _WITH_ANGLE:
            if pos >= len(stmt) or stmt[pos].value != "(":
                raise QasmError(f"{name} requires an angle argument", head.line, head.column)
            depth = 0
            start = pos
            end = None
            for i in range(pos, len(stmt)):
                if stmt[i].value == "(":
                    depth += 1
                elif stmt[i].value == ")":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            if end is None:
                raise QasmError("unclosed '(' in gate arguments", head.line, head.column)
            angle = _ExprParser(stmt[start + 1 : end], head.line).parse()
            pos = end + 1
        elif name in _NO_ANGLE:
            if pos < len(stmt) and stmt[pos].value == "(":
                raise QasmError(f"{name} takes no angle", head.line, head.column)
        else:
            raise QasmError(f"unknown gate {name!r}", head.line, head.column)

        wires = self._arguments(stmt[pos:], head)
        kind = _WITH_ANGLE.get(name) or _NO_ANGLE[name]
        self.gates.extend(self._build(kind, name, angle, wires, head))

    def _arguments(self, tokens: list[_Token], head: _Token) -> list[int | None]:
        """Wire list; None marks a bare register reference (broadcast)."""
        if self.qreg_name is None:
            raise QasmError("gate statement before any qreg", head.line, head.column)
        args: list[int | None] = []
        i = 0
        while i < len(tokens):
            tok = tokens[i]
            if tok.value != self.qreg_name:
                raise QasmError(f"unknown register {tok.value!r}", tok.line, tok.column)
            if i + 1 < len(tokens) and tokens[i + 1].value == "[":
                if i + 3 >= len(tokens) or not tokens[i + 2].value.isdigit() or tokens[i + 3].value != "]":
                    raise QasmError("malformed qubit index", tok.line, tok.column)
                idx = int(tokens[i + 2].value)
                if idx >= self.qreg_size:
                    raise QasmError(
                        f"qubit index {idx} out of range for {self.qreg_name}[{self.qreg_size}]",
                        tokens[i + 2].line,
                        tokens[i + 2].column,
                    )
                args.append(idx)
                i += 4
            else:
                args.append(None)
                i += 1
            if i < len(tokens):
                if tokens[i].value != ",":
                    raise QasmError(f"expected ',' between arguments, got {tokens[i].value!r}",
                                    tokens[i].line, tokens[i].column)
                i += 1
                if i == len(tokens):
                    raise QasmError("trailing ',' in argument list", tok.line, tok.column)
        if not args:
            raise QasmError("gate statement has no arguments", head.line, head.column)
        return args

    def _build(
        self,
        kind: GateKind,
        name: str,
        angle: float | None,
        wires: list[int | None],
        head: _Token,
    ) -> list[Gate]:
        single = kind in (
            GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S,
            GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.P, GateKind.RZ,
        )
        if single and len(wires) == 1 and wires[0] is None:
            # whole-register broadcast, e.g. `h q;`
            return [Gate(kind, angle=angle, targets=(q,)) for q in range(self.qreg_size)]
        if any(w is None for w in wires):
            raise QasmError(
                f"register broadcast is only supported for single-qubit gates, not {name}",
                head.line,
                head.column,
            )
        concrete = [w for w in wires if w is not None]
        if single:
            if len(concrete) != 1:
                raise QasmError(f"{name} takes exactly one qubit", head.line, head.column)
            return [Gate(kind, angle=angle, targets=(concrete[0],))]
        if kind in (GateKind.CX, GateKind.CP):
            if len(concrete) != 2:
                raise QasmError(f"{name} takes exactly two qubits", head.line, head.column)
            return [Gate(kind, angle=angle, controls=(concrete[0],), targets=(concrete[1],))]
        if kind is GateKind.SWAP:
            if len(concrete) != 2:
                raise QasmError("swap takes exactly two qubits", head.line, head.column)
            return [Gate(kind, targets=(concrete[0], concrete[1]))]
        if kind is GateKind.MCP:
            if len(concrete) < 2:
                raise QasmError("mcp takes at least one control and one target", head.line, head.column)
            return [Gate(kind, angle=angle, controls=tuple(concrete[:-1]), targets=(concrete[-1],))]
        raise QasmError(f"unknown gate {name!r}", head.line, head.column)


def parse(text: str) -> ParsedProgram:
    """Parse a QASM program in the supported subset."""
    return _Parser(text).parse()


def _format_gate(gate: Gate) -> str:
    name = gate.kind.value
    if gate.angle is not None:
        name += f"({gate.angle:.17g})"
    args = ",".join(f"q[{w}]" for w in gate.wires)
    return f"{name} {args};"


def emit(circuit: Circuit) -> str:
    """Deterministic QASM text for the circuit; see the module docstring."""
    problems = validate(circuit)
    if problems:
        raise ValueError(f"refusing to emit an invalid circuit: {problems[0]}")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    lines += [_format_gate(g) for g in circuit.gates]
    perm = circuit.output_permutation
    if not perm.is_identity:
        lines.append("// output_permutation: " + " ".join(str(v) for v in perm.mapping))
    return "\n".join(lines) + "\n"
