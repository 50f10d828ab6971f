import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsim.circuit import Circuit, GateOp, bitstring_to_index
from qcsim.errors import CapacityError, UnsupportedOpError
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.statevector import (
    apply_gate,
    distribution,
    init_zero,
    run,
    sample,
    sv_memory_bytes,
)

from conftest import dense_apply, dense_run, draw_gates

S2 = 1.0 / math.sqrt(2.0)


def test_init_zero_small():
    sv = init_zero(1)
    np.testing.assert_array_equal(sv.amps, [1, 0])
    sv3 = init_zero(3)
    assert sv3.amps.shape == (8,)
    assert sv3.amps[0] == 1 and np.count_nonzero(sv3.amps) == 1


def test_init_zero_capacity_error_names_bytes():
    with pytest.raises(CapacityError) as err:
        init_zero(31, precision="single")
    assert err.value.required_bytes == (1 << 31) * 8
    assert str((1 << 31) * 8) in str(err.value)


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "4")
    with pytest.raises(CapacityError):
        init_zero(5)
    assert init_zero(4).num_qubits == 4


def test_h_on_single_qubit():
    sv = init_zero(1)
    apply_gate(sv, GateOp(GateKind.H, (0,)))
    np.testing.assert_allclose(sv.amps, [S2, S2], atol=1e-12)


def test_bell_amplitudes(bell):
    sv = run(bell)
    np.testing.assert_allclose(sv.amps, [S2, 0, 0, S2], atol=1e-12)
    d = distribution(sv)
    assert d.as_dict(1e-12) == pytest.approx({"00": 0.5, "11": 0.5})


def test_cnot_on_basis_state():
    # |q1 q0> = |01> (index 1, control qubit 0 set) -> |11> (index 3)
    c = Circuit(2).x(0).cnot(0, 1)
    sv = run(c)
    assert np.argmax(np.abs(sv.amps)) == 3


def test_empty_circuit_stays_zero():
    sv = run(Circuit(2))
    np.testing.assert_array_equal(sv.amps, [1, 0, 0, 0])


def test_run_skips_trailing_measures(bell):
    bell.measure_all()
    sv = run(bell)
    np.testing.assert_allclose(np.abs(sv.amps) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def test_apply_measure_rejected():
    sv = init_zero(1)
    with pytest.raises(UnsupportedOpError):
        apply_gate(sv, GateOp(GateKind.MEASURE, (0,)))


def test_qft_uniform_distribution():
    sv = run(generate(GeneratorSpec(Family.QFT, 3)))
    np.testing.assert_allclose(np.abs(sv.amps), 1 / math.sqrt(8), atol=1e-9)


@pytest.mark.parametrize("family", list(Family))
def test_matches_dense_index_oracle(family):
    c = generate(GeneratorSpec(family, 6, seed=2))
    np.testing.assert_allclose(run(c).amps, dense_run(c), atol=1e-10)


def test_norm_preserved_after_every_gate():
    c = generate(GeneratorSpec(Family.RANDOM, 8, seed=4))
    sv = init_zero(8, precision="double")
    for op in c.unitary_ops:
        apply_gate(sv, op)
        assert abs(sv.norm() - 1.0) < 1e-10
    sv32 = init_zero(8, precision="single")
    for op in c.unitary_ops:
        apply_gate(sv32, op)
        assert abs(sv32.norm() - 1.0) < 1e-6


def test_gate_then_inverse_restores_state():
    rng = np.random.default_rng(3)
    c = generate(GeneratorSpec(Family.RANDOM, 6, seed=9))
    sv = run(c)
    before = sv.amps.copy()
    for kind, qubits, angle in [
        (GateKind.RX, (2,), 0.7),
        (GateKind.CP, (1, 4), 1.1),
        (GateKind.RZZ, (0, 5), 2.2),
        (GateKind.H, (3,), None),
        (GateKind.CNOT, (2, 0), None),
    ]:
        op = GateOp(kind, qubits, angle)
        apply_gate(sv, op)
        inverse = -angle if angle is not None else None
        if kind in (GateKind.H, GateKind.CNOT):
            apply_gate(sv, op)  # self-inverse
        else:
            apply_gate(sv, GateOp(kind, qubits, inverse))
        np.testing.assert_allclose(sv.amps, before, atol=1e-9)


def test_disjoint_gates_commute():
    a = Circuit(4).h(0).cnot(2, 3).rz(1, 0.4)
    b = Circuit(4).rz(1, 0.4).cnot(2, 3).h(0)
    np.testing.assert_allclose(run(a).amps, run(b).amps, atol=1e-9)


def test_distribution_normalized():
    d = distribution(run(generate(GeneratorSpec(Family.RANDOM, 7, seed=1))))
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(d.probs >= 0)


def test_sample_bell_binomial_bounds(bell):
    counts = sample(run(bell), shots=1024, seed=99)
    assert set(counts) <= {"00", "11"}
    assert 412 <= counts["00"] <= 612
    assert counts["00"] + counts["11"] == 1024


def test_sample_deterministic_state():
    c = Circuit(3).x(1)
    counts = sample(run(c), shots=57, seed=1)
    assert counts == {"010": 57}


def test_sample_seed_determinism(bell):
    sv = run(bell)
    assert sample(sv, 500, seed=7) == sample(sv, 500, seed=7)
    assert sample(sv, 500, seed=7) != sample(sv, 500, seed=8)


def test_sv_memory_bytes():
    assert sv_memory_bytes(22, "single") == 32 * 1024 * 1024
    assert sv_memory_bytes(13, "single") == 64 * 1024
    assert sv_memory_bytes(1, "single") == 16
    assert sv_memory_bytes(10, "double") == 2 * sv_memory_bytes(10, "single")


def test_marginal_distribution():
    c = Circuit(3).x(0).h(2)
    d = distribution(run(c))
    m = d.marginal([0, 1])
    assert m.as_dict(1e-12) == pytest.approx({"10": 1.0})
    m2 = d.marginal([2])
    assert m2.as_dict(1e-12) == pytest.approx({"0": 0.5, "1": 0.5})


# -- apply_gate kernel ------------------------------------------------------

_UNITARY_KINDS = [k for k in GateKind if k is not GateKind.MEASURE]
_DIAGONAL_KINDS = {GateKind.Z, GateKind.RZ, GateKind.RZZ, GateKind.CP, GateKind.CZ}


def _ops_on(n: int, kind: GateKind) -> list[GateOp]:
    """``kind`` at every qubit, or every ordered pair of distinct qubits."""
    angle = 0.73 if kind.is_parameterized else None
    targets = itertools.permutations(range(n), kind.arity)
    return [GateOp(kind, qubits, angle) for qubits in targets]


def _random_state(n: int, precision: str, seed: int = 0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    sv = init_zero(n, precision)
    sv.amps[:] = psi / np.linalg.norm(psi)
    return sv


@pytest.mark.parametrize("precision, atol", [("double", 1e-12), ("single", 1e-6)])
@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_every_gate_at_every_target_matches_dense_oracle(kind, precision, atol):
    n = 4
    for seed, op in enumerate(_ops_on(n, kind)):
        sv = _random_state(n, precision, seed)
        expected = dense_apply(sv.amps.astype(np.complex128), op, n)
        apply_gate(sv, op)
        assert sv.amps.dtype == (np.complex128 if precision == "double" else np.complex64)
        np.testing.assert_allclose(sv.amps, expected, atol=atol, err_msg=str(op))


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(1, 6))
    return draw_gates(draw, Circuit(n), range(n), 20)


@settings(max_examples=60, deadline=None)
@given(_random_circuits())
def test_random_circuits_match_dense_oracle(c):
    np.testing.assert_allclose(run(c).amps, dense_run(c), atol=1e-10)


@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_apply_gate_updates_the_state_buffer_in_place(kind):
    sv = _random_state(3, "double")
    buffer = sv.amps
    for op in _ops_on(3, kind):
        assert apply_gate(sv, op) is sv
        assert np.shares_memory(sv.amps, buffer)


@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_apply_gate_allocates_less_than_two_states(kind):
    # Diagonal gates only scale blocks in place; the rest hold at most one
    # state of scaled blocks and scratch.  A tensordot into a new array plus
    # a contiguous copy of it reads 2.0 states.
    n = 16
    sv = _random_state(n, "double")
    state_bytes = sv.amps.nbytes
    angle = 0.73 if kind.is_parameterized else None
    qubit_sets = [(0,), (7,), (15,)] if kind.arity == 1 else [(0, 15), (9, 2), (5, 6)]
    for qubits in qubit_sets:
        op = GateOp(kind, qubits, angle)
        tracemalloc.start()
        try:
            apply_gate(sv, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        limit = 0.5 if kind in _DIAGONAL_KINDS else 2.0
        assert peak < limit * state_bytes, (op, peak / state_bytes)
