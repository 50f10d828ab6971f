"""Quantum circuit simulation toolkit.

Benchmark circuit generators, topology metrics, an exact state-vector
backend, a tensor-network contraction backend with sliced parallel
execution, and a metrics-driven backend advisor.
"""
from .circuit import Circuit, GateOp, bitstring_to_index, index_to_bitstring
from .gates import GateKind, matrix_of
from .generators import Family, GeneratorSpec, generate
from .metrics import MetricsReport, compute_all
from .qasm import emit_qasm, parse_qasm
from .statevector import (
    OutputDistribution,
    StateVector,
    apply_gate,
    distribution,
    init_zero,
    run,
    sv_memory_bytes,
)
from .tensornet import (
    ContractionPlan,
    PathfinderConfig,
    Tensor,
    TensorNetwork,
    amplitude,
    build_network,
    choose_slices,
    circuit_to_network,
    contract,
    contract_pair,
    evaluate,
    find_path,
    reconstruct_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "GateOp",
    "GateKind",
    "matrix_of",
    "Family",
    "GeneratorSpec",
    "generate",
    "MetricsReport",
    "compute_all",
    "parse_qasm",
    "emit_qasm",
    "StateVector",
    "OutputDistribution",
    "init_zero",
    "apply_gate",
    "run",
    "distribution",
    "sv_memory_bytes",
    "Tensor",
    "TensorNetwork",
    "ContractionPlan",
    "PathfinderConfig",
    "circuit_to_network",
    "build_network",
    "contract_pair",
    "find_path",
    "contract",
    "evaluate",
    "choose_slices",
    "amplitude",
    "reconstruct_distribution",
    "bitstring_to_index",
    "index_to_bitstring",
    "__version__",
]
