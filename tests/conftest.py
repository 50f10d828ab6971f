"""Shared test oracles.

The dense oracle evolves states by explicit basis-index arithmetic (bit
extraction and scatter), a different algorithm from the SV backend's
strided block updates and the TN backend's contractions, so they can check
each other.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from qcsim.circuit import Circuit
from qcsim.errors import ConfigError
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


def _reference_replay(num_tensors, steps, sets):
    """(flops, peak) of ``steps`` over the index ``sets``, step by step."""
    buf = dict(enumerate(sets))
    flops = 0
    peak = max((1 << len(s) for s in sets), default=1)
    next_id = num_tensors
    for i, j in steps:
        a, b = buf.pop(i), buf.pop(j)
        flops += 1 << len(a | b)
        peak = max(peak, 1 << len(a ^ b))
        buf[next_id] = a ^ b
        next_id += 1
    return max(flops, 1), peak


def reference_choose_slices(net, plan, target_slices):
    """``choose_slices`` by replaying the whole plan once per candidate label:
    the slow, obviously greedy form that the one-replay scoring must match."""
    if target_slices < 1 or target_slices & (target_slices - 1):
        raise ConfigError(f"target_slices must be a power of two >= 1, got {target_slices}")
    wanted = int(math.log2(target_slices))
    candidates = sorted(net.all_labels() - set(net.open_indices) - set(plan.sliced_labels))
    chosen = list(plan.sliced_labels)
    warning = wanted > len(candidates)

    def cost(drop):
        sets = [frozenset(t.indices) - drop for t in net.tensors]
        return _reference_replay(plan.num_tensors, plan.steps, sets)

    for _ in range(wanted):
        if not candidates:
            warning = True
            break
        best = None
        for label in candidates:
            flops, peak = cost(frozenset(chosen) | {label})
            key = (peak, flops, label)
            if best is None or key < best[0]:
                best = (key, label)
        chosen.append(best[1])
        candidates.remove(best[1])

    per_slice_flops, peak = cost(frozenset(chosen))
    return replace(
        plan,
        sliced_labels=tuple(sorted(chosen)),
        slice_warning=warning,
        per_slice_flops=per_slice_flops,
        est_flops=per_slice_flops * (1 << len(chosen)),
        est_peak_elements=peak,
    )


@pytest.fixture
def bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cnot(0, 1)
