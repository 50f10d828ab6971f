"""QASM 2.0 subset import/export for the circuit IR.

Accepted grammar: ``OPENQASM 2.0;`` header, an ignored
``include "qelib1.inc";``, exactly one ``qreg``, at most one ``creg``, gate
statements over {h, x, y, z, rx, ry, rz, rzz, cp/cu1, cx, cz, swap} and
``measure``.  Anything else is rejected, never skipped.  Angle expressions
may use numbers, ``pi``, parentheses and ``+ - * /``.
"""
from __future__ import annotations

import math
import re

from .circuit import Circuit, GateOp
from .errors import QasmParseError, UnsupportedGateError
from .gates import GateKind

# Every gate kind under its own name, plus ``cu1``, the older name of ``cp``;
# ``measure`` has its own statement form.
_GATE_NAMES = {kind.value: kind for kind in GateKind if kind is not GateKind.MEASURE}
_GATE_NAMES["cu1"] = GateKind.CP

_TOKEN_RE = re.compile(r"\s*(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|pi|[()+\-*/])")


class _ExprParser:
    """Tiny recursive-descent evaluator for QASM angle expressions."""

    def __init__(self, text: str, line: int):
        self.tokens = self._tokenize(text, line)
        self.pos = 0
        self.line = line

    @staticmethod
    def _tokenize(text: str, line: int) -> list[str]:
        tokens, idx = [], 0
        while idx < len(text):
            m = _TOKEN_RE.match(text, idx)
            if not m:
                if text[idx:].strip():
                    raise QasmParseError(f"bad angle expression {text!r}", line)
                break
            tokens.append(m.group(1))
            idx = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self) -> float:
        value = self._expr()
        if self._peek() is not None:
            raise QasmParseError(f"trailing tokens in angle expression", self.line)
        return value

    def _expr(self) -> float:
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> float:
        value = self._factor()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def _factor(self) -> float:
        tok = self._next()
        if tok is None:
            raise QasmParseError("unexpected end of angle expression", self.line)
        if tok == "-":
            return -self._factor()
        if tok == "+":
            return self._factor()
        if tok == "(":
            value = self._expr()
            if self._next() != ")":
                raise QasmParseError("unbalanced parentheses in angle", self.line)
            return value
        if tok == "pi":
            return math.pi
        try:
            return float(tok)
        except ValueError:
            raise QasmParseError(f"bad token {tok!r} in angle expression", self.line)


def _eval_angle(text: str, line: int) -> float:
    return _ExprParser(text, line).parse()


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^)]*)\))?\s+(.+)$")
_OPERAND_RE = re.compile(r"^([A-Za-z_]\w*)(?:\s*\[\s*(\d+)\s*\])?$")
_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")


def parse_qasm(text: str) -> Circuit:
    """Parse a QASM 2.0 subset source string into a :class:`Circuit`."""
    statements = []  # (line_number, statement_text)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if stmt:
                statements.append((lineno, stmt))

    if not statements:
        raise QasmParseError("empty source")
    lineno, header = statements[0]
    if not re.match(r"^OPENQASM\s+2\.0$", header):
        raise QasmParseError(f"expected 'OPENQASM 2.0;' header, got {header!r}", lineno)

    qreg_name: str | None = None
    creg_name: str | None = None
    qreg_size = creg_size = 0
    circuit: Circuit | None = None

    def resolve_qubits(operands: str, lineno: int) -> list[int]:
        qubits = []
        for part in operands.split(","):
            m = _OPERAND_RE.match(part.strip())
            if not m:
                raise QasmParseError(f"bad operand {part.strip()!r}", lineno)
            reg, idx = m.group(1), m.group(2)
            if reg != qreg_name:
                raise QasmParseError(f"unknown quantum register {reg!r}", lineno)
            if idx is None:
                raise QasmParseError(f"whole-register operand not allowed here", lineno)
            q = int(idx)
            if q >= qreg_size:
                raise QasmParseError(
                    f"qubit index {q} out of range for {reg}[{qreg_size}]", lineno
                )
            qubits.append(q)
        return qubits

    for lineno, stmt in statements[1:]:
        if re.match(r"^include\s+\"[^\"]*\"$", stmt):
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if qreg_name is not None:
                raise QasmParseError("only one qreg is supported", lineno)
            qreg_name, qreg_size = m.group(1), int(m.group(2))
            if qreg_size < 1:
                raise QasmParseError("qreg must have positive size", lineno)
            circuit = Circuit(qreg_size, name="qasm")
            continue
        m = _CREG_RE.match(stmt)
        if m:
            if creg_name is not None:
                raise QasmParseError("only one creg is supported", lineno)
            creg_name, creg_size = m.group(1), int(m.group(2))
            continue
        if circuit is None:
            raise QasmParseError("statement before qreg declaration", lineno)

        m = _MEASURE_RE.match(stmt)
        if m:
            src, dst = m.group(1).strip(), m.group(2).strip()
            sm = _OPERAND_RE.match(src)
            dm = _OPERAND_RE.match(dst)
            if not sm or sm.group(1) != qreg_name:
                raise QasmParseError(f"bad measure source {src!r}", lineno)
            if creg_name is None or not dm or dm.group(1) != creg_name:
                raise QasmParseError(f"bad measure target {dst!r}", lineno)
            if sm.group(2) is None:
                if dm.group(2) is not None:
                    raise QasmParseError("register measure must target a register", lineno)
                for q in range(qreg_size):
                    circuit.measure(q)
            else:
                q = int(sm.group(2))
                if q >= qreg_size:
                    raise QasmParseError(f"qubit index {q} out of range", lineno)
                circuit.measure(q)
            continue

        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmParseError(f"cannot parse statement {stmt!r}", lineno)
        name, arg, operands = m.group(1), m.group(2), m.group(3)
        if name not in _GATE_NAMES:
            raise UnsupportedGateError(f"unsupported gate {name!r}", lineno)
        kind = _GATE_NAMES[name]
        angle = None
        if kind.is_parameterized:
            if arg is None:
                raise QasmParseError(f"{name} requires an angle argument", lineno)
            angle = _eval_angle(arg, lineno)
        elif arg is not None:
            raise QasmParseError(f"{name} takes no angle argument", lineno)
        qubits = resolve_qubits(operands, lineno)
        if len(qubits) != kind.arity:
            raise QasmParseError(
                f"{name} expects {kind.arity} qubit operand(s), got {len(qubits)}", lineno
            )
        try:
            circuit.add(kind, *qubits, angle=angle)
        except ValueError as exc:
            raise QasmParseError(str(exc), lineno)

    if circuit is None:
        raise QasmParseError("source declares no qreg")
    return circuit


def emit_qasm(circuit: Circuit) -> str:
    """Serialize a circuit to QASM 2.0 subset text.

    Angles are written with ``repr`` so they survive a round-trip exactly.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if any(op.is_measure for op in circuit.ops):
        lines.append(f"creg c[{circuit.num_qubits}];")
    for op in circuit.ops:
        if op.is_measure:
            q = op.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
            continue
        name = op.kind.value
        operands = ",".join(f"q[{q}]" for q in op.qubits)
        if op.angle is not None:
            lines.append(f"{name}({op.angle!r}) {operands};")
        else:
            lines.append(f"{name} {operands};")
    return "\n".join(lines) + "\n"
