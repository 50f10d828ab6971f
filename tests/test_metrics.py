import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import draw_gates, reference_metrics
from qcsim.circuit import Circuit
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.metrics import compute_all


def cnot_chain(n: int) -> Circuit:
    c = Circuit(n)
    for q in range(n - 1):
        c.cnot(q, q + 1)
    return c


def test_program_communication_chain():
    # oracle: (1+2+2+1) / (4*3)
    assert compute_all(cnot_chain(4)).program_communication == pytest.approx(0.5)


def test_program_communication_no_multi_gate():
    c = Circuit(3).h(0).h(1).h(2)
    assert compute_all(c).program_communication == 0.0


def test_program_communication_qaoa_is_one():
    for n in (3, 5, 8):
        assert compute_all(generate(GeneratorSpec(Family.QAOA, n))).program_communication == 1.0


def test_critical_depth_chain_is_one():
    assert compute_all(cnot_chain(5)).critical_depth == 1.0


def test_critical_depth_disjoint_pairs():
    c = Circuit(4).cnot(0, 1).cnot(2, 3)
    assert compute_all(c).critical_depth == pytest.approx(0.5)


def test_critical_depth_bell(bell):
    assert compute_all(bell).critical_depth == 1.0


def test_critical_depth_undefined_without_multi_gates():
    assert compute_all(Circuit(2).h(0)).critical_depth is None


def test_entanglement_ratio_cases(bell):
    assert compute_all(bell).entanglement_ratio == pytest.approx(0.5)
    assert compute_all(Circuit(2).h(0).h(1)).entanglement_ratio == 0.0
    assert compute_all(Circuit(2)).entanglement_ratio is None


def test_entanglement_ratio_qaoa_saturation():
    c = generate(GeneratorSpec(Family.QAOA, 32))
    assert compute_all(c).entanglement_ratio == pytest.approx(0.6, abs=0.05)


def test_entanglement_ratio_qft_high():
    assert compute_all(generate(GeneratorSpec(Family.QFT, 32))).entanglement_ratio > 0.9


def test_parallelism_serial_is_zero():
    c = Circuit(2).h(0).x(0).z(0)
    assert compute_all(c).parallelism == 0.0


def test_parallelism_single_layer_is_one():
    n = 5
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    r = compute_all(c)
    assert r.depth == 1
    assert r.parallelism == 1.0


def test_entanglement_variance_star():
    # counts (4,1,1,1,1), mean 1.6: 2.4^2 + 4 * 0.6^2 = 7.2
    c = Circuit(5)
    for q in range(1, 5):
        c.cnot(0, q)
    assert compute_all(c).entanglement_variance == pytest.approx(math.log(7.2 + 1.0) / 5)


def test_entanglement_variance_balanced_is_zero():
    c = Circuit(4).cnot(0, 1).cnot(2, 3)
    assert compute_all(c).entanglement_variance == 0.0


def test_entanglement_variance_qaoa_exact_zero():
    for n in (2, 7, 16):
        assert compute_all(generate(GeneratorSpec(Family.QAOA, n))).entanglement_variance == 0.0


def test_effective_two_qubit_count_merges_runs():
    c = Circuit(3).cnot(0, 1).rz(1, 0.3).cnot(0, 1).cnot(1, 2)
    assert compute_all(c).n_two_qubit_effective == 2


def test_compute_all_bell(bell):
    r = compute_all(bell)
    assert r.program_communication == 1.0
    assert r.critical_depth == 1.0
    assert r.entanglement_ratio == pytest.approx(0.5)
    assert r.parallelism is not None and r.entanglement_variance is not None
    assert r.n_gates == 2 and r.n_two_qubit == 1
    assert r.absent() == []


def test_compute_all_empty_circuit_all_absent():
    r = compute_all(Circuit(3))
    assert set(r.absent()) == {
        "program_communication",
        "critical_depth",
        "entanglement_ratio",
        "parallelism",
        "entanglement_variance",
    }


def test_compute_all_flags_partial_absence():
    r = compute_all(Circuit(3).h(0).h(1))
    assert "critical_depth" in r.absent()
    assert r.entanglement_ratio == 0.0


def test_measures_are_excluded():
    c = Circuit(2).h(0).cnot(0, 1).measure(0).measure(1)
    r = compute_all(c)
    assert r.n_gates == 2
    assert r.depth == 2


def test_report_invariants_across_families():
    for family in Family:
        r = compute_all(generate(GeneratorSpec(family, 10, seed=1)))
        assert 0.0 <= r.program_communication <= 1.0
        assert 0.0 <= r.critical_depth <= 1.0
        assert 0.0 <= r.entanglement_ratio <= 1.0
        assert 0.0 <= r.parallelism <= 1.0
        assert r.entanglement_variance >= 0.0
        assert r.entanglement_ratio == pytest.approx(r.n_two_qubit / r.n_gates)


def _shuffle_commuting(c: Circuit, rng: np.random.Generator) -> Circuit:
    """Swap adjacent ops with disjoint supports a few hundred times."""
    ops = list(c.unitary_ops)
    for _ in range(400):
        i = int(rng.integers(0, len(ops) - 1))
        a, b = ops[i], ops[i + 1]
        if set(a.qubits).isdisjoint(b.qubits):
            ops[i], ops[i + 1] = b, a
    return Circuit(c.num_qubits, ops=ops)


def _relabel(c: Circuit, perm: list[int]) -> Circuit:
    out = Circuit(c.num_qubits)
    for op in c.unitary_ops:
        out.add(op.kind, *[perm[q] for q in op.qubits], angle=op.angle)
    return out


@pytest.mark.parametrize("family", [Family.QFT, Family.VQE, Family.RANDOM])
def test_metrics_invariant_under_commuting_swaps(family):
    rng = np.random.default_rng(7)
    c = generate(GeneratorSpec(family, 8, seed=5))
    shuffled = _shuffle_commuting(c, rng)
    a, b = compute_all(c), compute_all(shuffled)
    for name in ("program_communication", "critical_depth", "entanglement_ratio",
                 "parallelism", "entanglement_variance"):
        assert getattr(a, name) == pytest.approx(getattr(b, name))


@pytest.mark.parametrize("family", [Family.QAOA, Family.HAMILTONIAN, Family.RANDOM])
def test_metrics_invariant_under_qubit_relabeling(family):
    rng = np.random.default_rng(11)
    c = generate(GeneratorSpec(family, 8, seed=5))
    perm = rng.permutation(8).tolist()
    relabeled = _relabel(c, perm)
    a, b = compute_all(c), compute_all(relabeled)
    for name in ("program_communication", "critical_depth", "entanglement_ratio",
                 "parallelism", "entanglement_variance"):
        assert getattr(a, name) == pytest.approx(getattr(b, name))


def test_ev_zero_iff_balanced():
    balanced = Circuit(4).cnot(0, 1).cnot(2, 3).cnot(0, 1).cnot(2, 3)
    assert compute_all(balanced).entanglement_variance == 0.0
    unbalanced = Circuit(4).cnot(0, 1).cnot(0, 1).cnot(2, 3)
    assert compute_all(unbalanced).entanglement_variance > 0.0


def test_one_qubit_circuit_lacks_communication_and_parallelism():
    r = compute_all(Circuit(1).h(0).x(0))
    assert r.absent() == ["program_communication", "critical_depth", "parallelism"]
    assert r.entanglement_ratio == 0.0 and r.entanglement_variance == 0.0


@st.composite
def random_circuits(draw):
    n = draw(st.integers(1, 9))
    c = draw_gates(draw, Circuit(n), range(n), 30)
    if draw(st.booleans()):
        for q in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            c.measure(q)
    return c


@settings(max_examples=300, deadline=None)
@given(random_circuits())
def test_compute_all_matches_reference_on_random_circuits(c):
    assert compute_all(c) == reference_metrics(c)


@pytest.mark.parametrize("family", list(Family))
def test_compute_all_matches_reference_on_families(family):
    for n in range(2, 13):
        c = generate(GeneratorSpec(family, n, seed=n))
        assert compute_all(c) == reference_metrics(c), n
