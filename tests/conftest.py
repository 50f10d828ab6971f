"""Shared test oracles.

The dense oracle evolves states by explicit basis-index arithmetic (bit
extraction and scatter), a different algorithm from the SV backend's
strided block updates and the TN backend's contractions, so they can check
each other.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qcsim.circuit import Circuit
from qcsim.gates import GateKind


def dense_apply(state: np.ndarray, op, n: int) -> np.ndarray:
    """Apply one gate by looping over basis indices (little endian)."""
    u = op.matrix()
    out = np.zeros_like(state, dtype=np.complex128)
    qubits = op.qubits
    if len(qubits) == 1:
        q = qubits[0]
        for i in range(1 << n):
            bit = (i >> q) & 1
            base = i & ~(1 << q)
            for new_bit in (0, 1):
                j = base | (new_bit << q)
                out[j] += u[new_bit, bit] * state[i]
    else:
        qa, qb = qubits
        for i in range(1 << n):
            a, b = (i >> qa) & 1, (i >> qb) & 1
            k_in = 2 * a + b
            base = i & ~(1 << qa) & ~(1 << qb)
            for k_out in range(4):
                na, nb = k_out >> 1, k_out & 1
                j = base | (na << qa) | (nb << qb)
                out[j] += u[k_out, k_in] * state[i]
    return out


def dense_run(c: Circuit) -> np.ndarray:
    """Reference state evolution for small circuits."""
    state = np.zeros(1 << c.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for op in c.unitary_ops:
        state = dense_apply(state, op, c.num_qubits)
    return state


def draw_gates(draw, c: Circuit, qubits, max_gates: int) -> Circuit:
    """Append up to ``max_gates`` random unitary gates on ``qubits`` to ``c``
    (inside a Hypothesis ``@st.composite`` strategy)."""
    qubits = list(qubits)
    kinds = [k for k in GateKind if k is not GateKind.MEASURE and k.arity <= len(qubits)]
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        targets = draw(st.permutations(qubits))[: kind.arity]
        angle = draw(st.floats(-math.pi, math.pi)) if kind.is_parameterized else None
        c.add(kind, *targets, angle=angle)
    return c


def brute_force_contract(net) -> np.ndarray:
    """Contract a whole network in one einsum over every label."""
    labels: dict[str, int] = {}
    operands = []
    for t in net.tensors:
        ids = []
        for label in t.indices:
            ids.append(labels.setdefault(label, len(labels)))
        operands.extend([t.data, ids])
    out_ids = [labels[label] for label in net.open_indices]
    operands.append(out_ids)
    return np.einsum(*operands)


@pytest.fixture
def bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cnot(0, 1)
