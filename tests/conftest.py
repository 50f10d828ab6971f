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
    """Apply one gate by basis-index arithmetic (little endian): each basis
    index ``i`` sends ``u[k_out, k_in] * state[i]`` to the index whose gate
    bits read ``k_out``, ``k_in`` the value of its own gate bits
    (``qubits[0]`` the most significant).  The scatter runs over every
    ``i`` at once."""
    u = op.matrix()
    i = np.arange(1 << n)
    k_in = np.zeros_like(i)
    base = i
    for q in op.qubits:
        k_in = 2 * k_in + ((i >> q) & 1)
        base = base & ~(1 << q)
    out = np.zeros(1 << n, dtype=np.complex128)
    m = len(op.qubits)
    for k_out in range(1 << m):
        j = base
        for pos, q in enumerate(op.qubits):
            j = j | (((k_out >> (m - 1 - pos)) & 1) << q)
        np.add.at(out, j, u[k_out, k_in] * state)
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


def _reference_footprint(num_tensors, steps, sets):
    """Elements the largest step holds at once, its two operands and its
    output, found by listing every step's tensors; the largest input for a
    plan without steps."""
    tensors = list(sets)
    held = []
    for k, (i, j) in enumerate(steps, num_tensors):
        tensors.append(tensors[i] ^ tensors[j])
        held.append(sum(1 << len(tensors[x]) for x in (i, j, k)))
    return max(held or [1 << len(s) for s in sets] or [1])


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

    flops, peak = cost(frozenset(chosen))
    return replace(
        plan,
        sliced_labels=tuple(sorted(chosen)),
        slice_warning=warning,
        est_flops=flops * (1 << len(chosen)),
        est_peak_elements=peak,
    )


@pytest.fixture
def bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cnot(0, 1)
