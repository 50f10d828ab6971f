"""QASM 2.0 subset import/export for the circuit IR.

Accepted grammar, anything else is rejected, never skipped:

- ``//`` starts a comment that runs to the end of its line.  Statements end
  at ``;`` and may span lines.
- The first statement is ``OPENQASM 2.0``; ``include "..."`` is ignored.
  There is exactly one ``qreg name[n]`` and at most one ``creg name[n]``.
- Every other statement has the shape ``name [(angle)] operands``: a gate
  over {h, x, y, z, rx, ry, rz, rzz, cp/cu1, cx, cz, swap} applied to
  ``q[i]`` operands, or ``measure``.
- An angle is numbers and ``pi`` under ``+ - * /`` with parentheses, and
  must be finite.  A chain of more than about 1000 operators is refused.
- ``measure q[i] -> c[j]`` needs both indices in range, a register measure
  ``measure q -> c`` needs registers of equal size, and a bit measure needs
  a bit target.  No gate may follow a measurement.

An error names the line on which its statement starts.
"""
from __future__ import annotations

import ast
import math
import operator
import re

from .circuit import Circuit
from .errors import QasmParseError, QcsimError, UnsupportedGateError
from .gates import GateKind

# Every gate kind under its own name, plus ``cu1``, the older name of ``cp``;
# ``measure`` has its own statement form.
_GATE_NAMES = {kind.value: kind for kind in GateKind if kind is not GateKind.MEASURE}
_GATE_NAMES["cu1"] = GateKind.CP

_STATEMENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*(.*)")
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?")

# Characters an angle may use; this keeps out Python-only literals such as
# ``0x10``, ``1_0`` and ``1j`` before ``ast`` sees the text.
_ANGLE_CHARS = frozenset("0123456789.eEpi+-*/() ")
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate(node: ast.AST) -> float:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        return _UNARY_OPS[type(node.op)](_evaluate(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        return _BINARY_OPS[type(node.op)](_evaluate(node.left), _evaluate(node.right))
    raise SyntaxError("not a number, pi or + - * /")


def _angle(text: str, line: int) -> float:
    try:
        if not _ANGLE_CHARS.issuperset(text):
            raise SyntaxError("bad character")
        value = _evaluate(ast.parse(text.strip(), mode="eval").body)
    except (SyntaxError, ArithmeticError, RecursionError) as exc:
        raise QasmParseError(f"bad angle expression {text!r}: {exc}", line) from None
    if not math.isfinite(value):
        raise QasmParseError(f"angle {text!r} is not finite", line)
    return value


def _operand(text: str, register: tuple[str, int] | None, line: int) -> int | None:
    """The index that ``text`` names in ``register`` (name, size), or None
    when it names the whole register."""
    m = _OPERAND_RE.fullmatch(text.strip())
    if not m:
        raise QasmParseError(f"bad operand {text.strip()!r}", line)
    name, index = m.group(1), m.group(2)
    if register is None or name != register[0]:
        raise QasmParseError(f"unknown register {name!r}", line)
    if index is None:
        return None
    if int(index) >= register[1]:
        raise QasmParseError(f"index {index} out of range for {name}[{register[1]}]", line)
    return int(index)


def _statements(text: str) -> list[tuple[int, str]]:
    """(line the statement starts on, its text with whitespace collapsed)."""
    statements, line = [], 1
    for chunk in re.sub(r"//[^\n]*", "", text).split(";"):
        body = chunk.lstrip()
        if body:
            start = line + chunk[: len(chunk) - len(body)].count("\n")
            statements.append((start, " ".join(body.split())))
        line += chunk.count("\n")
    return statements


def parse_qasm(text: str) -> Circuit:
    """Parse a QASM 2.0 subset source string into a :class:`Circuit`."""
    statements = _statements(text)
    if not statements:
        raise QasmParseError("empty source")
    line, header = statements[0]
    m = _STATEMENT_RE.fullmatch(header)
    if not m or m.groups() != ("OPENQASM", None, "2.0"):
        raise QasmParseError(f"expected 'OPENQASM 2.0;' header, got {header!r}", line)

    qreg = creg = None  # (name, size)
    circuit: Circuit | None = None
    for line, stmt in statements[1:]:
        m = _STATEMENT_RE.fullmatch(stmt)
        if not m:
            raise QasmParseError(f"cannot parse statement {stmt!r}", line)
        name, arg, operands = m.groups()
        if name in ("include", "qreg", "creg", "measure") and arg is not None:
            raise QasmParseError(f"{name} takes no argument", line)
        if name == "include":
            if not re.fullmatch(r'"[^"]*"', operands):
                raise QasmParseError(f"bad include {operands!r}", line)
        elif name in ("qreg", "creg"):
            decl = _OPERAND_RE.fullmatch(operands)
            if not decl or decl.group(2) is None:
                raise QasmParseError(f"bad {name} declaration {operands!r}", line)
            if (qreg if name == "qreg" else creg) is not None:
                raise QasmParseError(f"only one {name} is supported", line)
            register = (decl.group(1), int(decl.group(2)))
            if name == "creg":
                creg = register
            elif register[1] < 1:
                raise QasmParseError("qreg must have positive size", line)
            else:
                qreg, circuit = register, Circuit(register[1], name="qasm")
        elif circuit is None:
            raise QasmParseError("statement before qreg declaration", line)
        elif name == "measure":
            source, arrow, target = operands.partition("->")
            if not arrow:
                raise QasmParseError(f"measure needs a target: {stmt!r}", line)
            q, bit = _operand(source, qreg, line), _operand(target, creg, line)
            if (q is None) != (bit is None):
                raise QasmParseError("measure a register into a register, a qubit into a bit", line)
            if q is None and qreg[1] != creg[1]:
                raise QasmParseError("register measure needs registers of equal size", line)
            for qubit in range(qreg[1]) if q is None else (q,):
                circuit.measure(qubit)
        elif name not in _GATE_NAMES:
            raise UnsupportedGateError(f"unsupported gate {name!r}", line)
        else:
            qubits = [_operand(part, qreg, line) for part in operands.split(",")]
            if None in qubits:
                raise QasmParseError("whole-register operand not allowed here", line)
            angle = None if arg is None else _angle(arg, line)
            try:
                circuit.add(_GATE_NAMES[name], *qubits, angle=angle)
            except QcsimError as exc:
                raise QasmParseError(f"{name}: {exc}", line) from None

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
