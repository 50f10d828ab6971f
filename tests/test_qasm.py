import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsim.circuit import Circuit
from qcsim.errors import QasmParseError, UnsupportedGateError
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.qasm import emit_qasm, parse_qasm

BELL_SRC = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
"""


def test_parse_bell():
    c = parse_qasm(BELL_SRC)
    assert c.num_qubits == 2
    kinds = [op.kind for op in c.ops]
    assert kinds == [GateKind.H, GateKind.CNOT, GateKind.MEASURE, GateKind.MEASURE]
    assert c.ops[1].qubits == (0, 1)


def test_empty_body():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\n")
    assert c.num_qubits == 3
    assert c.ops == ()


def test_angle_expressions():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrz(pi/4) q[0];\nrx(-pi) q[0];\nry(2*pi/3) q[0];\n")
    assert c.ops[0].angle == pytest.approx(math.pi / 4)
    assert c.ops[1].angle == pytest.approx(-math.pi)
    assert c.ops[2].angle == pytest.approx(2 * math.pi / 3)


def test_cu1_alias_for_cp():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncu1(0.5) q[0],q[1];\n")
    assert c.ops[0].kind is GateKind.CP


def test_register_measure_expands():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nmeasure q -> c;\n")
    assert [op.qubits[0] for op in c.ops] == [0, 1, 2]


def test_unsupported_gate_rejected_with_line():
    src = "OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n"
    with pytest.raises(UnsupportedGateError) as err:
        parse_qasm(src)
    assert err.value.line == 3


def test_syntax_error_carries_line_number():
    src = "OPENQASM 2.0;\nqreg q[2];\nh q[0;\n"
    with pytest.raises(QasmParseError) as err:
        parse_qasm(src)
    assert err.value.line == 3


def test_register_width_mismatch():
    with pytest.raises(QasmParseError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n")


def test_two_qregs_rejected():
    with pytest.raises(QasmParseError):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n")


def test_missing_header_rejected():
    with pytest.raises(QasmParseError):
        parse_qasm("qreg q[2];\nh q[0];\n")


def test_emit_bell_contains_single_h_and_cx(bell):
    text = emit_qasm(bell)
    statements = [s.strip() for s in text.splitlines()]
    assert sum(1 for s in statements if s.startswith("h ")) == 1
    assert sum(1 for s in statements if s.startswith("cx ")) == 1


def test_emit_zero_op_circuit_is_header_only():
    text = emit_qasm(Circuit(3))
    assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'


def test_angle_precision_round_trip():
    c = Circuit(1).rz(0, math.pi / 4)
    text = emit_qasm(c)
    # repr keeps >= 15 significant digits
    assert "0.7853981633974483" in text
    back = parse_qasm(text)
    assert back.ops[0].angle == c.ops[0].angle


def _random_circuit(rng: np.random.Generator, n: int, length: int) -> Circuit:
    c = Circuit(n)
    kinds = [k for k in GateKind if k is not GateKind.MEASURE]
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        qs = rng.choice(n, size=kind.arity, replace=False).tolist()
        angle = float(rng.uniform(0, 2 * math.pi)) if kind.is_parameterized else None
        c.add(kind, *qs, angle=angle)
    if rng.random() < 0.5:
        for q in range(n):
            c.measure(q)
    return c


def test_round_trip_on_random_circuits():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        c = _random_circuit(rng, n, int(rng.integers(0, 30)))
        back = parse_qasm(emit_qasm(c))
        assert (back.num_qubits, back.ops) == (c.num_qubits, c.ops)


@pytest.mark.parametrize("family", list(Family))
def test_round_trip_on_generator_outputs(family):
    c = generate(GeneratorSpec(family, 6, seed=3))
    back = parse_qasm(emit_qasm(c))
    assert (back.num_qubits, back.ops) == (c.num_qubits, c.ops)


# -- malformed sources fail typed, with the line their statement starts on --


def _rz(angle: str) -> str:
    return f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n"


@pytest.mark.parametrize("angle, want", [("(1+1)*pi", 2 * math.pi), ("-(pi/4)", -math.pi / 4)])
def test_parenthesized_angles(angle, want):
    assert parse_qasm(_rz(angle)).ops[0].angle == want


@pytest.mark.parametrize("angle", [
    "1/0", "1e999", "1e999-1e999", "-" * 3000 + "1", "0x10", "1_0", "1j", "2**3", "e", "pi pi",
])
def test_bad_angle_raises_with_line(angle):
    with pytest.raises(QasmParseError) as err:
        parse_qasm(_rz(angle))
    assert err.value.line == 3


def test_statement_may_span_lines():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], // control\n   q[1];\nrz(\n  pi ) q[1];\n")
    assert [(op.kind, op.qubits) for op in c.ops] == [(GateKind.CNOT, (0, 1)), (GateKind.RZ, (1,))]
    assert c.ops[1].angle == math.pi


def test_error_names_the_line_a_statement_starts_on():
    with pytest.raises(QasmParseError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\n\ncx q[0],\n q[7];\n")
    assert err.value.line == 4


@pytest.mark.parametrize("creg, measure", [
    ("c[1]", "measure q[1] -> c[7]"),  # target bit out of range
    ("c[1]", "measure q -> c"),  # registers of different sizes
    ("c[2]", "measure q[0] -> c"),  # a bit measured into a register
])
def test_bad_measure_raises_with_line(creg, measure):
    with pytest.raises(QasmParseError) as err:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\ncreg {creg};\n{measure};\n")
    assert err.value.line == 4


def test_gate_after_measure_raises_with_its_line():
    src = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[0];\n"
    with pytest.raises(QasmParseError) as err:
        parse_qasm(src)
    assert err.value.line == 5


_HEAD = "OPENQASM 2.0;\nqreg q[2];\n"


@pytest.mark.parametrize("src, line", [
    (_HEAD + "h r[0];\n", 3),  # unknown register
    ("// nothing but a comment\n", None),  # empty source
    (_HEAD + "3 q[0];\n", 3),  # unparsable statement
    ("OPENQASM 2.0;\nqreg(2) q[2];\n", 2),  # a declaration with an argument
    ("OPENQASM 2.0;\ninclude qelib1.inc;\n", 2),  # include without quotes
    ("OPENQASM 2.0;\nqreg q;\n", 2),  # declaration without a size
    ("OPENQASM 2.0;\nqreg q[0];\n", 2),  # empty register
    ("OPENQASM 2.0;\nh q[0];\nqreg q[2];\n", 2),  # a gate before the qreg
    (_HEAD + "creg c[2];\nmeasure q[0];\n", 4),  # measure without a target
    (_HEAD + "h q;\n", 3),  # whole-register gate operand
    ('OPENQASM 2.0;\ninclude "qelib1.inc";\n', None),  # no qreg
    (_HEAD + "rx q[0];\n", 3),  # a rotation without its angle
    (_HEAD + "h(0.5) q[0];\n", 3),  # an angle on a gate that takes none
], ids=["unknown-register", "empty", "unparsable", "qreg-argument", "bad-include",
        "qreg-no-size", "qreg-empty", "gate-before-qreg", "measure-no-target",
        "whole-register-gate", "no-qreg", "missing-angle", "extra-angle"])
def test_malformed_source_is_refused_with_its_line(src, line):
    with pytest.raises(QasmParseError) as err:
        parse_qasm(src)
    assert err.value.line == line


# -- the angle evaluator against Python's own arithmetic ---------------------

_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

_EXPRESSIONS = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False) | st.just("pi"),
    lambda sub: st.tuples(st.just("-"), sub) | st.tuples(sub, st.sampled_from("+-*/"), sub),
    max_leaves=12,
)


def _render(tree) -> str:
    if isinstance(tree, float):
        return repr(tree)
    if tree == "pi":
        return "pi"
    if len(tree) == 2:
        return f"(-{_render(tree[1])})"
    left, op, right = tree
    return f"({_render(left)} {op} {_render(right)})"


def _reference(tree) -> float:
    if isinstance(tree, float):
        return tree
    if tree == "pi":
        return math.pi
    if len(tree) == 2:
        return -_reference(tree[1])
    left, op, right = tree
    return _ARITHMETIC[op](_reference(left), _reference(right))


@settings(max_examples=300, deadline=None)
@given(_EXPRESSIONS)
def test_angle_matches_python_arithmetic(tree):
    try:
        want = _reference(tree)
    except ZeroDivisionError:
        want = math.inf
    if not math.isfinite(want):
        with pytest.raises(QasmParseError):
            parse_qasm(_rz(_render(tree)))
        return
    got = parse_qasm(_rz(_render(tree))).ops[0].angle
    assert got.hex() == want.hex()
