"""Shared test oracles.

The dense oracle evolves states by explicit basis-index arithmetic (bit
extraction and scatter), a different algorithm from the SV backend's
strided block updates and the TN backend's contractions, so they can check
each other.  ``reference_metrics`` computes each topology metric in its own
walk over the circuit, the slow form that ``metrics.compute_all``'s single
walk must match.  ``reference_descent`` is the greedy descent that
rebuilds and sorts its candidates at every step, which
``tensornet._greedy_descent`` must match step for step and draw for draw.
``reference_contract`` replays the whole plan once per slice assignment,
``reference_absorb`` finds each absorbed tensor's partner by scanning every
tensor, and ``reference_matrix_of`` builds each parameterized gate from
nested lists and ``np.diag``: the forms whose values
``tensornet.contract``, ``tensornet.absorb_small_tensors`` and
``gates.matrix_of`` must match byte for byte.  The small readers of
circuits, matrices and output distributions below (gate counts, unitarity,
outcome maps, marginals) are what the tests need and the library does not.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from qcsim.circuit import Circuit, index_to_bitstring
from qcsim.errors import ConfigError
from qcsim.gates import GateKind
from qcsim.metrics import MetricsReport
from qcsim.statevector import OutputDistribution
from qcsim.tensornet import Tensor, TensorNetwork, contract_pair, slice_assignments


def gate_counts(c: Circuit) -> tuple[int, int]:
    """(total, multi-qubit) gate counts, measurements excluded."""
    return len(c.unitary_ops), sum(op.is_multi_qubit for op in c.unitary_ops)


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """Entry-wise check of m^dagger m = I within ``tol``."""
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= tol)


def outcomes(dist: OutputDistribution, cutoff: float = 0.0) -> dict[str, float]:
    """Bitstring -> probability of every outcome above ``cutoff``, in index
    order (character ``i`` is qubit ``i``)."""
    return {index_to_bitstring(i, dist.num_qubits): float(p)
            for i, p in enumerate(dist.probs) if p > cutoff}


def top_outcomes(dist: OutputDistribution) -> dict[str, float]:
    """The 16 likeliest outcomes above 1e-12 by a stable sort of the full
    outcome map: ties stay in index order."""
    return dict(sorted(outcomes(dist, 1e-12).items(), key=lambda kv: -kv[1])[:16])


def most_likely(dist: OutputDistribution) -> str:
    return index_to_bitstring(int(np.argmax(dist.probs)), dist.num_qubits)


def marginal(dist: OutputDistribution, qubits: list[int]) -> OutputDistribution:
    """Distribution over ``qubits`` (in the given order), the others summed
    out; ``qubits[0]`` is the least-significant bit of its index."""
    n, m = dist.num_qubits, len(qubits)
    grid = dist.probs.reshape([2] * n)
    # Axis n-1-q holds qubit q.  Leading with the last listed qubit makes the
    # flat index little-endian over the listed qubits.
    grid = np.moveaxis(grid, [n - 1 - q for q in reversed(qubits)], range(m))
    return OutputDistribution(m, grid.reshape(1 << m, -1).sum(axis=1))


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
        return _reference_replay(len(plan.steps) + 1, plan.steps, sets)

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


def reference_descent(
    sets: list[frozenset[str]], rng: np.random.Generator | None
) -> tuple[tuple[int, int], ...]:
    """One randomized-greedy bottom-up contraction order, rebuilding its
    label map and candidate set at every step, sorting the candidates and
    making one scalar Gumbel draw per candidate: the quadratic form that
    ``tensornet._greedy_descent``'s kept, sorted candidates must match step
    for step, leaving ``rng`` in the same state.

    Candidates are pairs sharing an index; the key is log2 of the step cost
    plus a Gumbel draw from ``rng`` (``None`` = pure greedy, deterministic
    smallest-ids tie-break).  Outer products are taken only when no pair
    shares an index, on the two smallest tensors.
    """
    active: dict[int, frozenset[str]] = dict(enumerate(sets))
    next_id = len(sets)
    steps: list[tuple[int, int]] = []

    while len(active) > 1:
        label_map: dict[str, list[int]] = {}
        for i, s in active.items():
            for label in s:
                label_map.setdefault(label, []).append(i)
        candidates = {
            (min(ids), max(ids)) for ids in label_map.values() if len(ids) == 2
        }
        if not candidates:
            first, second = sorted(active, key=lambda i: (len(active[i]), i))[:2]
            pair = (min(first, second), max(first, second))
        else:
            best_key, pair = None, None
            for i, j in sorted(candidates):
                key = float(len(active[i] | active[j]))
                if rng is not None:
                    key += rng.gumbel()
                if best_key is None or key < best_key:
                    best_key, pair = key, (i, j)
        i, j = pair
        active[next_id] = active.pop(i) ^ active.pop(j)
        steps.append(pair)
        next_id += 1

    return tuple(steps)


def reference_matrix_of(kind: GateKind, angle: float) -> np.ndarray:
    """The unitary of a parameterized ``kind`` built from nested lists and
    ``np.diag(...).astype``."""
    t = float(angle)
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    if kind is GateKind.RX:
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind is GateKind.RY:
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind is GateKind.RZ:
        return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]).astype(np.complex128)
    if kind is GateKind.RZZ:
        e_m, e_p = np.exp(-0.5j * t), np.exp(0.5j * t)
        return np.diag([e_m, e_p, e_p, e_m]).astype(np.complex128)
    if kind is GateKind.CP:
        return np.diag([1.0, 1.0, 1.0, np.exp(1j * t)]).astype(np.complex128)
    raise ValueError(f"{kind} is not parameterized")


def _sliced(t: Tensor, assignment) -> Tensor:
    """``t`` with the labels present in ``assignment`` fixed to their bit
    values, as a view of its data."""
    data = t.data[tuple(assignment.get(l, slice(None)) for l in t.indices)]
    return Tensor(tuple(l for l in t.indices if l not in assignment), data)


def reference_contract(net, plan, assignments=None) -> Tensor:
    """The sum of ``plan``'s full contraction under each assignment (default:
    every one of ``slice_assignments(plan)``), each slice replaying every
    step from the leaves' sliced views, summed in assignment order."""
    total = None
    for assignment in slice_assignments(plan) if assignments is None else assignments:
        buf = {i: (_sliced(t, assignment) if assignment else t) for i, t in enumerate(net.tensors)}
        for k, (i, j) in enumerate(plan.steps, len(net.tensors)):
            buf[k] = contract_pair(buf.pop(i), buf.pop(j))
        (part,) = buf.values()
        total = part if total is None else Tensor(part.indices, total.data + part.data)
    return total


def reference_absorb(net, max_rank=1, keep=frozenset()) -> TensorNetwork:
    """``absorb_small_tensors`` by scanning every tensor for each absorbed
    tensor's partner, the lowest live position sharing one of its labels."""
    tensors = list(net.tensors)
    small = [i for i, t in enumerate(tensors) if t.rank <= max_rank and i not in keep]
    alive = len(tensors)
    for i in small:
        if alive <= 2:
            break
        t = tensors[i]
        partner = None
        for j, other in enumerate(tensors):
            if j != i and other is not None and any(l in other.indices for l in t.indices):
                partner = j
                break
        if partner is None:
            continue
        tensors[partner] = contract_pair(t, tensors[partner])
        tensors[i] = None
        alive -= 1
    return TensorNetwork([t for t in tensors if t is not None], net.open_indices)


def _multi_ops(c: Circuit):
    return [op for op in c.unitary_ops if op.is_multi_qubit]


def _program_communication(c: Circuit):
    if c.num_qubits < 2:
        return None
    edges = {tuple(sorted(op.qubits)) for op in _multi_ops(c)}
    degrees = [sum(1 for e in edges if q in e) for q in range(c.num_qubits)]
    return sum(degrees) / (c.num_qubits * (c.num_qubits - 1))


def _critical_depth(c: Circuit):
    multi = _multi_ops(c)
    if not multi:
        return None
    chain_at: dict[int, int] = {}
    longest = 0
    for op in multi:
        here = 1 + max((chain_at.get(q, 0) for q in op.qubits), default=0)
        for q in op.qubits:
            chain_at[q] = here
        longest = max(longest, here)
    return longest / len(multi)


def _asap_depth(c: Circuit) -> int:
    level: dict[int, int] = {}
    depth = 0
    for op in c.unitary_ops:
        layer = 1 + max((level.get(q, 0) for q in op.qubits), default=0)
        for q in op.qubits:
            level[q] = layer
        depth = max(depth, layer)
    return depth


def _parallelism(c: Circuit):
    total, _ = gate_counts(c)
    if c.num_qubits < 2:
        return None
    raw = (total / _asap_depth(c) - 1.0) / (c.num_qubits - 1)
    return min(1.0, max(0.0, raw))


def _entanglement_variance(c: Circuit) -> float:
    counts = [0] * c.num_qubits
    for op in _multi_ops(c):
        for q in op.qubits:
            counts[q] += 1
    mean = sum(counts) / c.num_qubits
    spread = sum((x - mean) ** 2 for x in counts)
    return math.log(spread + 1.0) / c.num_qubits


def _effective_two_qubit_count(c: Circuit) -> int:
    count = 0
    prev_pair = None
    for op in _multi_ops(c):
        pair = tuple(sorted(op.qubits))
        if pair != prev_pair:
            count += 1
        prev_pair = pair
    return count


def reference_metrics(c: Circuit) -> MetricsReport:
    """Every metric from its own walk; all five absent without gates."""
    report = MetricsReport()
    report.n_gates, report.n_two_qubit = gate_counts(c)
    report.depth = _asap_depth(c)
    report.n_two_qubit_effective = _effective_two_qubit_count(c)
    if report.n_gates == 0:
        return report
    report.program_communication = _program_communication(c)
    report.critical_depth = _critical_depth(c)
    report.entanglement_ratio = report.n_two_qubit / report.n_gates
    report.parallelism = _parallelism(c)
    report.entanglement_variance = _entanglement_variance(c)
    report.entanglement_ratio_effective = report.n_two_qubit_effective / report.n_gates
    return report


@pytest.fixture
def bell() -> Circuit:
    return Circuit(2, name="bell").h(0).cnot(0, 1)
