"""Every library input error is a typed ``QcsimError``."""
import pytest

from qcsim import statevector, tensornet
from qcsim.circuit import Circuit, GateOp
from qcsim.errors import ConfigError, QcsimError
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, family_from_name, generate

BAD_INPUTS = {
    "gate-arity": lambda: GateOp(GateKind.CNOT, (0,)),
    "gate-duplicate-qubit": lambda: GateOp(GateKind.CNOT, (1, 1)),
    "circuit-no-qubits": lambda: Circuit(0),
    "circuit-qubit-outside": lambda: Circuit(2).h(2),
    "sv-precision": lambda: statevector.precision_dtype("quad"),
    "sv-no-qubits": lambda: statevector.init_zero(0),
    "sv-qubit-outside": lambda: statevector.apply_gate(
        statevector.init_zero(2), GateOp(GateKind.H, (3,))
    ),
    "sv-shots": lambda: statevector.sample(statevector.init_zero(1), 0),
    "tn-bitstring-length": lambda: tensornet.circuit_to_network(Circuit(2), "0"),
    "tn-bitstring-not-binary": lambda: tensornet.circuit_to_network(Circuit(2), "0x"),
    "gen-family": lambda: family_from_name("nonesuch"),
    "gen-n": lambda: generate(GeneratorSpec(Family.QFT, 1)),
    "gen-k": lambda: generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 4, k=1.5)),
    "gen-layers": lambda: generate(GeneratorSpec(Family.QAOA, 4, p_layers=0)),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_error_is_typed(call):
    with pytest.raises(QcsimError) as info:
        call()
    # Callers that catch ValueError keep working.
    assert isinstance(info.value, ConfigError) and isinstance(info.value, ValueError)
