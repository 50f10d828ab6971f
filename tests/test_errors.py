"""Every library input error is a typed ``QcsimError``."""
import numpy as np
import pytest

from qcsim import harness, statevector, tensornet
from qcsim.circuit import Circuit, GateOp
from qcsim.errors import ConfigError, QcsimError, StructuralError, UnsupportedOpError
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, family_from_name, generate
from qcsim.metrics import compute_all
from qcsim.qasm import emit_qasm, parse_qasm

BAD_INPUTS = {
    "gate-arity": lambda: GateOp(GateKind.CNOT, (0,)),
    "gate-duplicate-qubit": lambda: GateOp(GateKind.CNOT, (1, 1)),
    "circuit-no-qubits": lambda: Circuit(0),
    "circuit-qubit-outside": lambda: Circuit(2).h(2),
    "sv-precision": lambda: statevector.precision_dtype("quad"),
    "sv-memory-n": lambda: statevector.sv_memory_bytes(0),
    "sv-no-qubits": lambda: statevector.init_zero(0),
    "sv-qubit-outside": lambda: statevector.apply_gate(
        statevector.init_zero(2), GateOp(GateKind.H, (3,))
    ),
    "tn-bitstring-length": lambda: tensornet.circuit_to_network(Circuit(2), "0"),
    "tn-bitstring-not-binary": lambda: tensornet.circuit_to_network(Circuit(2), "0x"),
    "gen-family": lambda: family_from_name("nonesuch"),
    "gen-n": lambda: generate(GeneratorSpec(Family.QFT, 1)),
    "gen-k": lambda: generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 4, k=1.5)),
    "gen-layers": lambda: generate(GeneratorSpec(Family.QAOA, 4, p_layers=0)),
    "gen-m": lambda: GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 4, m=-1),
    "gen-k-none": lambda: GeneratorSpec(Family.QAOA, 4, k=None),
    "gen-p-float": lambda: GeneratorSpec(Family.QAOA, 4, p_layers=2.5),
    "gen-dual-str": lambda: GeneratorSpec(Family.HIDDEN_SHIFT, 4, dual_oracle="no"),
    "bench-tn-precision": lambda: harness.bench_simulate(
        Circuit(2).h(0).cnot(0, 1), "tn", "quad", warmup=0, reps=1
    ),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_error_is_typed(call):
    with pytest.raises(QcsimError) as info:
        call()
    # Callers that catch ValueError keep working.
    assert isinstance(info.value, ConfigError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "ops, error",
    [
        ([GateOp(GateKind.H, (5,))], ConfigError),
        (
            [GateOp(GateKind.H, (0,)), GateOp(GateKind.MEASURE, (0,)),
             GateOp(GateKind.CNOT, (0, 1))],
            UnsupportedOpError,
        ),
    ],
    ids=["qubit-outside", "gate-after-measure"],
)
def test_circuit_checks_the_ops_it_is_given(ops, error):
    with pytest.raises(error):
        Circuit(2, ops=ops)
    valid = ops[:-1]
    assert Circuit(2, ops=valid).ops == tuple(valid)


def test_circuit_ops_are_read_only():
    c = Circuit(2).h(0).cnot(0, 1).measure(0).measure(1)
    checked = c.ops
    outside = GateOp(GateKind.H, (5,))
    with pytest.raises(AttributeError):
        c.ops = [outside]
    with pytest.raises(AttributeError):
        c.unitary_ops = [outside]
    with pytest.raises(AttributeError):
        c.num_qubits = 1
    for view in (c.ops, c.unitary_ops):
        with pytest.raises(AttributeError):
            view.append(outside)
        with pytest.raises(TypeError):
            view[0] = outside
    assert (c.num_qubits, c.ops, c.unitary_ops) == (2, checked, checked[:2])
    # So every reader sees only the ops that add checked.
    report = compute_all(c)
    assert (report.n_gates, report.depth) == (2, 2)
    bell = [0.5, 0.0, 0.0, 0.5]
    np.testing.assert_allclose(np.abs(statevector.run(c).amps) ** 2, bell, atol=1e-12)
    np.testing.assert_allclose(tensornet.reconstruct_distribution(c).probs, bell, atol=1e-12)
    assert parse_qasm(emit_qasm(c)).ops == checked


def test_spec_with_every_knob_at_its_default_equals_the_bare_spec():
    spelled = GeneratorSpec(Family.QFT, 8, p_layers=1, k=0.5, m=None, l_layers=1,
                            t_steps=1, seed=0, dual_oracle=False)
    bare = GeneratorSpec(Family.QFT, 8)
    assert spelled == bare and hash(spelled) == hash(bare)
    # So a knob spelled at its default builds the same circuit, with no warning.
    c = generate(spelled)
    assert c.ops == generate(bare).ops and "warning" not in c.params


def test_tensor_network_is_checked_when_made_and_read_only():
    a, b, c = (tensornet.Tensor(("x",), np.array([1, 0], complex)) for _ in range(3))
    with pytest.raises(StructuralError, match="appears 3 times"):
        tensornet.TensorNetwork([a, b, c])
    net = tensornet.TensorNetwork([a, b])
    assert net.tensors == (a, b)
    with pytest.raises(AttributeError):
        net.tensors = [a, b, c]
    # Nor can a tensor be relabelled behind the network's check.
    with pytest.raises(AttributeError):
        net.tensors[0].indices = ("y",)
    assert net.tensors == (a, b) and a.indices == ("x",)
    # An open label may not be named twice.
    eye, e0 = np.eye(2, dtype=complex), np.array([1, 0], complex)
    pair = [tensornet.Tensor(("x", "y"), eye), tensornet.Tensor(("y",), e0)]
    with pytest.raises(StructuralError, match="repeated open label"):
        tensornet.TensorNetwork(pair, ("x", "x"))
    # Nor can the open labels change after the check.
    opens = ["x"]
    net = tensornet.TensorNetwork(pair, opens)
    opens.append("x")
    assert net.open_indices == ("x",)
