import hashlib
import itertools
import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsim import blas, statevector
from qcsim.circuit import Circuit, GateOp, bitstring_to_index
from qcsim.errors import CapacityError, ConfigError, UnsupportedOpError
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.statevector import (
    TILE,
    apply_gate,
    distribution,
    init_zero,
    pass_counts,
    plan,
    run,
    sv_memory_bytes,
)
from qcsim.tensornet import (
    ContractionPlan,
    Tensor,
    TensorNetwork,
    _check_budget,
    reconstruct_distribution,
)

from conftest import dense_apply, dense_run, draw_gates, marginal, outcomes

S2 = 1.0 / math.sqrt(2.0)


def test_init_zero_small():
    sv = init_zero(1)
    np.testing.assert_array_equal(sv.amps, [1, 0])
    sv3 = init_zero(3)
    assert sv3.amps.shape == (8,)
    assert sv3.amps[0] == 1 and np.count_nonzero(sv3.amps) == 1


def test_init_zero_capacity_error_names_bytes(monkeypatch):
    monkeypatch.delenv("QCSIM_MAX_QUBITS", raising=False)
    monkeypatch.setattr(statevector, "_available_bytes", lambda: 8 << 30)
    with pytest.raises(CapacityError) as err:
        init_zero(31, precision="single")
    assert err.value.required_bytes == (1 << 31) * 8
    assert str((1 << 31) * 8) in str(err.value)
    assert "QCSIM_MAX_QUBITS" in str(err.value)


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "4")
    with pytest.raises(CapacityError):
        init_zero(5)
    assert init_zero(4).num_qubits == 4


@pytest.mark.parametrize("value", ["-1", "abc", "2.5"])
def test_capacity_env_must_be_a_non_negative_integer(monkeypatch, value):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", value)
    with pytest.raises(ConfigError, match="QCSIM_MAX_QUBITS"):
        init_zero(2)
    with pytest.raises(ConfigError, match="QCSIM_MAX_QUBITS"):
        reconstruct_distribution(Circuit(2).h(0))


def test_default_budget_follows_available_memory(monkeypatch):
    monkeypatch.delenv("QCSIM_MAX_QUBITS", raising=False)
    # 2^10 complex128 elements, and a little less.
    monkeypatch.setattr(statevector, "_available_bytes", lambda: (1 << 10) * 16 + 15)
    with pytest.raises(CapacityError) as err:
        init_zero(11)
    assert "10-qubit budget" in str(err.value)
    assert init_zero(10).num_qubits == 10
    def one_tensor(rank):
        labels = tuple(f"i{k}" for k in range(rank))
        return TensorNetwork([Tensor(labels, np.zeros((2,) * rank, complex))], labels)

    plan = ContractionPlan(steps=(), est_flops=1, est_peak_elements=1 << 11)
    with pytest.raises(CapacityError):
        _check_budget(one_tensor(11), plan)
    _check_budget(one_tensor(10), replace(plan, est_peak_elements=1 << 10))
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "12")  # the variable still overrides it
    assert init_zero(11).num_qubits == 11
    _check_budget(one_tensor(11), plan)
    monkeypatch.delenv("QCSIM_MAX_QUBITS")
    monkeypatch.setattr(statevector, "_available_bytes", lambda: None)
    assert statevector.budget_qubits() == statevector.FALLBACK_MAX_QUBITS


@pytest.mark.parametrize("cgroup_max, expected", [
    (None, 8 << 30),  # no cgroup v2 limit file
    ("max", 8 << 30),
    (str(1 << 30), 1 << 30),
    (str(16 << 30), 8 << 30),
])
def test_available_bytes_reads_meminfo_capped_by_cgroup(tmp_path, monkeypatch, cgroup_max, expected):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text(f"MemTotal:  {16 << 20} kB\nMemFree:  1024 kB\nMemAvailable:  {8 << 20} kB\n")
    monkeypatch.setattr(statevector, "_MEMINFO", str(meminfo))
    limit = tmp_path / "memory.max"
    if cgroup_max is not None:
        limit.write_text(cgroup_max + "\n")
    monkeypatch.setattr(statevector, "_CGROUP_MEMORY_MAX", str(limit))
    assert statevector._available_bytes() == expected
    monkeypatch.setattr(statevector, "_MEMINFO", str(tmp_path / "missing"))
    assert statevector._available_bytes() is None


def test_h_on_single_qubit():
    sv = init_zero(1)
    apply_gate(sv, GateOp(GateKind.H, (0,)))
    np.testing.assert_allclose(sv.amps, [S2, S2], atol=1e-12)


def test_bell_amplitudes(bell):
    sv = run(bell)
    np.testing.assert_allclose(sv.amps, [S2, 0, 0, S2], atol=1e-12)
    d = distribution(sv)
    assert outcomes(d, 1e-12) == pytest.approx({"00": 0.5, "11": 0.5})


def test_cnot_on_basis_state():
    # |q1 q0> = |01> (index 1, control qubit 0 set) -> |11> (index 3)
    c = Circuit(2).x(0).cnot(0, 1)
    sv = run(c)
    assert np.argmax(np.abs(sv.amps)) == 3


def test_empty_circuit_stays_zero():
    sv = run(Circuit(2))
    np.testing.assert_array_equal(sv.amps, [1, 0, 0, 0])


def test_run_skips_trailing_measures(bell):
    bell.measure(0).measure(1)
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
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-10
    sv32 = init_zero(8, precision="single")
    for op in c.unitary_ops:
        apply_gate(sv32, op)
        assert abs(np.linalg.norm(sv32.amps) - 1.0) < 1e-6


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


@pytest.mark.parametrize("call", [
    lambda: plan(Circuit(3).h(0), "quad"),
    lambda: run(Circuit(3).h(0), "quad"),
    lambda: init_zero(3, "quad"),
    lambda: sv_memory_bytes(3, "quad"),
], ids=["plan", "run", "init_zero", "sv_memory_bytes"])
def test_unknown_precision_raises_value_error(call):
    with pytest.raises(ValueError, match="'quad'"):
        call()


def test_sv_memory_bytes():
    assert sv_memory_bytes(22, "single") == 32 * 1024 * 1024
    assert sv_memory_bytes(13, "single") == 64 * 1024
    assert sv_memory_bytes(1, "single") == 16
    assert sv_memory_bytes(10, "double") == 2 * sv_memory_bytes(10, "single")


def test_marginal_distribution():
    c = Circuit(3).x(0).h(2)
    d = distribution(run(c))
    assert outcomes(marginal(d, [0, 1]), 1e-12) == pytest.approx({"10": 1.0})
    assert outcomes(marginal(d, [2]), 1e-12) == pytest.approx({"0": 0.5, "1": 0.5})


# -- apply_gate and run kernels ----------------------------------------------

_UNITARY_KINDS = [k for k in GateKind if k is not GateKind.MEASURE]
_DIAGONAL_KINDS = {GateKind.Z, GateKind.RZ, GateKind.RZZ, GateKind.CP, GateKind.CZ}
_DENSE_KINDS = {GateKind.H, GateKind.RX, GateKind.RY}
_DTYPE = {"double": np.complex128, "single": np.complex64}
_PRECISIONS = [("double", 1e-12), ("single", 1e-6)]


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


@pytest.mark.parametrize("precision, atol", _PRECISIONS)
@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_every_gate_at_every_target_matches_dense_oracle(kind, precision, atol):
    # n=4: every gate is on band 0; n=7: also on band 1.
    for n in (4, 7):
        for seed, op in enumerate(_ops_on(n, kind)):
            sv = _random_state(n, precision, seed)
            expected = dense_apply(sv.amps.astype(np.complex128), op, n)
            apply_gate(sv, op)
            assert sv.amps.dtype == _DTYPE[precision]
            np.testing.assert_allclose(sv.amps, expected, atol=atol, err_msg=str(op))


def _prepared(n: int) -> Circuit:
    """A circuit to a state with no zero amplitude, ending in two gates on
    band 0 (qubits 0-4) that stay pending in ``run``."""
    c = Circuit(n)
    for q in range(n):
        c.h(q).ry(q, 0.3 + 0.2 * q).rz(q, 0.1 + 0.37 * q)
    for q in range(n - 1):
        c.cnot(q, q + 1)
    return c.rx(1, 0.4).cp(0, 3, 0.9)


# Gates after the one under test: two on band 0, and a dense one on band 1
# that stays pending in its block.
_TAIL = (GateOp(GateKind.H, (2,)), GateOp(GateKind.CZ, (1, 4)), GateOp(GateKind.RY, (6,), 0.5))


@pytest.mark.parametrize("precision, atol", _PRECISIONS)
@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_run_fuses_every_gate_at_every_target(kind, precision, atol):
    # The gate under test lies in band 0 (qubits 0-4), in a higher band or
    # across bands, where it meets the pending blocks and items of the
    # prepared state and of the tail; on n=12 there are three bands (0-4,
    # 5-9 and 10-11).
    for n in (7, 12):
        prepared = dense_run(_prepared(n))
        for op in _ops_on(n, kind):
            c = Circuit(n, ops=[*_prepared(n).ops, op, *_TAIL])
            expected = prepared
            for gate in (op, *_TAIL):
                expected = dense_apply(expected, gate, n)
            amps = run(c, precision).amps
            assert amps.dtype == _DTYPE[precision]
            np.testing.assert_allclose(amps, expected, atol=10 * atol, err_msg=str(op))


@st.composite
def _random_circuits(draw):
    # Most gates land on a few qubits, so that pending gates fuse, join and
    # fold into blocks and cross between bands; on n > 10 there are three
    # bands.
    n = draw(st.integers(1, 13))
    c = Circuit(n)
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    for _ in range(draw(st.integers(1, 4))):
        qubits = range(n) if draw(st.booleans()) else {*hot, draw(st.integers(0, n - 1))}
        draw_gates(draw, c, sorted(qubits), 12)
    return c


@settings(max_examples=60, deadline=None)
@given(_random_circuits())
def test_random_circuits_match_dense_oracle(c):
    expected = dense_run(c)
    for precision, atol in [("double", 1e-10), ("single", 1e-5)]:
        amps = run(c, precision).amps
        assert amps.dtype == _DTYPE[precision]
        np.testing.assert_allclose(amps, expected, atol=atol, err_msg=precision)


_DIAGONAL_RUN_KINDS = [GateKind.CP, GateKind.CZ, GateKind.RZZ, GateKind.RZ, GateKind.Z]
_BREAKER_KINDS = [GateKind.H, GateKind.RX, GateKind.CNOT, GateKind.SWAP]


@st.composite
def _diagonal_heavy_circuits(draw):
    # Runs of diagonal gates on any qubits, so that they are parked across
    # bands and beside or across band 0's block, often more of them than
    # PHASE_PASS_GATES; each run is broken by a gate that meets the phase.
    # Registers of up to 5 qubits, all band 0, are left to the tests
    # above.
    n = draw(st.integers(6, 13))
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    angles = st.floats(-math.pi, math.pi)
    for _ in range(draw(st.integers(1, 3))):
        for kinds, fewest, most in ((_DIAGONAL_RUN_KINDS, 12, 32), (_BREAKER_KINDS, 0, 2)):
            kinds = [k for k in kinds if k.arity <= n]
            for _ in range(draw(st.integers(fewest, most))):
                kind = draw(st.sampled_from(kinds))
                qubits = draw(st.permutations(range(n)))[: kind.arity]
                c.add(kind, *qubits, angle=draw(angles) if kind.is_parameterized else None)
    return c


@settings(max_examples=60, deadline=None)
@given(_diagonal_heavy_circuits())
def test_diagonal_heavy_circuits_match_dense_oracle(c):
    expected = dense_run(c)
    for precision, atol in [("double", 1e-10), ("single", 1e-5)]:
        amps = run(c, precision).amps
        assert amps.dtype == _DTYPE[precision]
        np.testing.assert_allclose(amps, expected, atol=atol, err_msg=precision)


@pytest.mark.parametrize("precision, rtol", _PRECISIONS)
@pytest.mark.parametrize("n", [1, 2, 7, 13, 14, 15])
def test_phase_pass_matches_the_phase_polynomial(n, precision, rtol):
    # Below, at and above one tile of 2^13 amplitudes.
    rng = np.random.default_rng(n)
    g, a = rng.uniform(-4, 4), rng.uniform(-4, 4, n)
    b = np.triu(rng.uniform(-4, 4, (n, n)), 1)
    sv = _random_state(n, precision, seed=n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    expected = sv.amps * np.exp(1j * (g + bits @ a + np.einsum("xp,pq,xq->x", bits, b, bits)))
    statevector._phase_pass(sv.amps, g, a, b, np.empty(TILE, sv.amps.dtype))
    assert sv.amps.dtype == _DTYPE[precision]
    np.testing.assert_allclose(sv.amps, expected, rtol=0, atol=10 * rtol * 2 ** (-n / 2))


@pytest.mark.parametrize("family", list(Family))
def test_run_equals_gate_by_gate_at_16_qubits(family):
    c = generate(GeneratorSpec(family, 16))
    sv = init_zero(16)
    for op in c.unitary_ops:
        apply_gate(sv, op)
    np.testing.assert_allclose(run(c).amps, sv.amps, rtol=0, atol=1e-12)


def _counts(passes: list[tuple]) -> tuple[int, int, int]:
    """(block moves, GEMMs, phase passes) of a plan."""
    return tuple(pass_counts(passes).values())


# (block moves, GEMMs, phase passes) that ``run`` makes on each family at
# 16 and at 18 qubits: the circuits of the sv-dist benchmark, 409 passes.
_PASSES = {
    Family.QAOA: ((0, 8, 1), (0, 8, 1)),
    Family.RANDOM: ((58, 27, 0), (75, 34, 0)),
    Family.QPE: ((8, 6, 3), (9, 8, 4)),
    Family.QFT: ((14, 16, 2), (9, 16, 3)),
    Family.VQE: ((11, 8, 0), (12, 8, 0)),
    Family.HAMILTONIAN: ((0, 4, 1), (0, 4, 1)),
    Family.HIDDEN_SHIFT: ((2, 8, 0), (2, 8, 0)),
    Family.BERNSTEIN_VAZIRANI: ((8, 7, 0), (8, 7, 0)),
}


@pytest.mark.parametrize("family", list(Family))
def test_run_passes_stay_within_their_counts(family):
    # Planned without a state; a change to fusion shows up here.
    for n, passes in zip((16, 18), _PASSES[family]):
        assert _counts(plan(generate(GeneratorSpec(family, n)))) == passes, n


def test_plan_needs_no_state():
    # 2^40 amplitudes would take 16 TiB.  An H layer is one GEMM per band;
    # CNOT RZ CNOT across bands applies the blocks and parks one diagonal
    # item per pair, 20 in all, which make one phase pass.
    n = 40
    c = Circuit(n)
    for q in range(n):
        c.h(q)
    for q in range(20):
        c.cnot(q, q + 20).rz(q + 20, 0.1 * q).cnot(q, q + 20)
    tracemalloc.start()
    try:
        passes = plan(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _counts(passes) == (0, 8, 1)
    assert peak < 2 << 20, peak


def _cnot_rz_cnot(a: int, b: int) -> list[GateOp]:
    return [GateOp(GateKind.CNOT, (a, b)), GateOp(GateKind.RZ, (b,), 0.4),
            GateOp(GateKind.CNOT, (a, b))]


def _cp_chain(length: int) -> list[GateOp]:
    """CPs on (5, 6), (6, 7), ...: each gate touches the pending one before
    it, which cannot fuse with it and is due."""
    return [GateOp(GateKind.CP, (5 + i, 6 + i), 0.3 + 0.1 * i) for i in range(length)]


# ``passes``: (block moves, GEMMs, phase passes) on 16 qubits.
@pytest.mark.parametrize("ops, passes", [
    # A layer of H: one GEMM per band (0-4, 5-9, 10-14, 15).
    ([GateOp(GateKind.H, (q,)) for q in range(16)], (0, 4, 0)),
    # CNOT.RZ.CNOT is one diagonal item on a pair in two bands ...
    (_cnot_rz_cnot(9, 12), (1, 0, 0)),
    # ... also from band 0, whether or not band 0 has a block pending that
    # does not touch the pair: the block is applied once, at the end.
    (_cnot_rz_cnot(2, 12), (1, 0, 0)),
    ([GateOp(GateKind.H, (0,)), *_cnot_rz_cnot(2, 12)], (1, 1, 0)),
    # A crossing gate on a qubit a block touches applies the block first.
    ([GateOp(GateKind.H, (2,)), GateOp(GateKind.CNOT, (2, 12)), GateOp(GateKind.H, (2,))],
     (1, 2, 0)),
    # RZ.RX.RZ on one qubit is one block.
    ([GateOp(GateKind.RZ, (7,), 0.3), GateOp(GateKind.RX, (7,), 0.5),
      GateOp(GateKind.RZ, (7,), 0.7)], (0, 1, 0)),
    # A pending item within the band is folded into the block of the dense
    # gate that meets it ...
    ([GateOp(GateKind.CP, (6, 7), 0.4), GateOp(GateKind.H, (6,))], (0, 1, 0)),
    ([GateOp(GateKind.CNOT, (6, 8)), GateOp(GateKind.H, (8,))], (0, 1, 0)),
    # ... and a sparse gate within the band joins the block it meets.
    ([GateOp(GateKind.H, (6,)), GateOp(GateKind.CNOT, (6, 8))], (0, 1, 0)),
    # QAOA's cost layer: every pair's diagonal is parked in one phase pass.
    ([op for a, b in itertools.combinations(range(16), 2) for op in _cnot_rz_cnot(a, b)],
     (0, 0, 1)),
    # A run of diagonal gates up to PHASE_PASS_GATES is its gates' block
    # moves, as when nothing was parked; one more gate makes it a pass.
    (_cp_chain(statevector.PHASE_PASS_GATES), (statevector.PHASE_PASS_GATES, 0, 0)),
    (_cp_chain(statevector.PHASE_PASS_GATES + 1), (0, 0, 1)),
], ids=["h-layer", "rzz-high", "rzz-crossing", "rzz-crossing-beside-block",
        "crossing-flush", "rz-rx-rz", "cp-folded-into-block", "cnot-folded-into-block",
        "cnot-joins-block", "qaoa-cost-layer", "diagonal-run-as-moves",
        "diagonal-run-as-pass"])
def test_run_logs_its_passes_over_the_state(caplog, ops, passes):
    c = Circuit(16, ops=ops, name="pattern")
    assert _counts(plan(c)) == passes
    with caplog.at_level(logging.DEBUG, logger="qcsim.statevector"):
        amps = run(c).amps
    [record] = [r for r in caplog.records if r.name == "qcsim.statevector"]
    name, gates, total, *split = record.args
    assert (name, gates, tuple(split), total) == ("pattern", len(ops), passes, sum(passes))
    np.testing.assert_allclose(amps, dense_run(c), atol=1e-12)


@pytest.mark.parametrize("breaker", [
    [GateOp(GateKind.X, (9,))],
    [GateOp(GateKind.SWAP, (14, 3))],
    [GateOp(GateKind.H, (11,))],
    # CP(2, 6) is parked when H(2) joins band 0's block, which CNOT(2, 15)
    # then applies.
    [GateOp(GateKind.CP, (2, 6), 0.4), GateOp(GateKind.H, (2,)), GateOp(GateKind.CNOT, (2, 15))],
], ids=["permutation", "crossing-permutation", "band-gemm", "low-block"])
def test_parked_phase_goes_before_the_gate_that_meets_it(breaker):
    # A phase pass's worth of CPs on qubits 5-14 is parked, then met.
    c = Circuit(16, ops=[*_prepared(16).ops, *_cp_chain(statevector.PHASE_PASS_GATES + 1),
                         *breaker, *_cp_chain(3)])
    np.testing.assert_allclose(run(c).amps, dense_run(c), atol=1e-12)


@pytest.mark.parametrize("n", range(1, statevector.FUSED_QUBITS + 1))
def test_run_on_registers_no_wider_than_the_low_block(n):
    rng = np.random.default_rng(n)
    c = Circuit(n)
    kinds = [k for k in _UNITARY_KINDS if k.arity <= n]
    for _ in range(16):
        kind = kinds[rng.integers(len(kinds))]
        qubits = rng.permutation(n)[: kind.arity].tolist()
        c.add(kind, *qubits, angle=float(rng.uniform(-3, 3)) if kind.is_parameterized else None)
    np.testing.assert_allclose(run(c).amps, dense_run(c), atol=1e-12)
    np.testing.assert_array_equal(run(Circuit(n)).amps, np.eye(1 << n)[0])


@pytest.mark.parametrize("n, op", [
    (7, GateOp(GateKind.H, (9,))),
    (7, GateOp(GateKind.H, (-1,))),  # would join band 0's block
    (7, GateOp(GateKind.CNOT, (2, 7))),  # would cross
    (7, GateOp(GateKind.RZ, (7,), 0.5)),
    (3, GateOp(GateKind.X, (3,))),  # band 0 covers the register
    (3, GateOp(GateKind.SWAP, (0, -2))),
    (20, GateOp(GateKind.CNOT, (3, 20))),  # beside a 16 MiB state
])
def test_out_of_range_qubit_raises_fused_or_not(n, op):
    with pytest.raises(ConfigError, match="outside register"):
        Circuit(n, ops=[GateOp(GateKind.H, (0,)), op])
    sv = init_zero(n)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="outside register"):
            apply_gate(sv, op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the plan's scratch and block, no second state


@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_apply_gate_updates_the_state_buffer_in_place(kind):
    sv = _random_state(3, "double")
    buffer = sv.amps
    for op in _ops_on(3, kind):
        assert apply_gate(sv, op) is sv
        assert np.shares_memory(sv.amps, buffer)


@pytest.mark.parametrize("kind", _UNITARY_KINDS, ids=lambda k: k.name)
def test_apply_gate_allocates_less_than_two_states(kind):
    # Diagonal gates only scale blocks in place (numpy's ufunc buffers, a
    # quarter state, are all they hold); the dense gates hold the scratch
    # and their band's block; permutations may also hold numpy's buffers.
    n = 16
    sv = _random_state(n, "double")
    state_bytes = sv.amps.nbytes
    angle = 0.73 if kind.is_parameterized else None
    qubit_sets = [(0,), (3,), (7,), (15,)] if kind.arity == 1 else [(0, 15), (9, 2), (5, 6), (1, 3)]
    for qubits in qubit_sets:
        op = GateOp(kind, qubits, angle)
        tracemalloc.start()
        try:
            apply_gate(sv, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if kind in _DENSE_KINDS:
            limit = TILE * 16 + (1 << 2 * statevector.FUSED_QUBITS) * 16 + 16384
        else:
            limit = (0.5 if kind in _DIAGONAL_KINDS else 0.75) * state_bytes
        assert peak < limit, (op, peak / state_bytes)


def test_run_holds_no_state_sized_temporary():
    # Every gate kind, on band 0, across bands and above band 0, then a run
    # of diagonal gates between bands 1 and 2 that makes a phase pass (a
    # gate within one band could join its band's pending block instead).
    n = 16
    c = _prepared(n)
    for kind in _UNITARY_KINDS:
        angle = 0.73 if kind.is_parameterized else None
        for qubits in ([(1,), (3,), (6,), (15,)] if kind.arity == 1
                       else [(0, 3), (4, 2), (2, 9), (11, 1), (8, 14), (15, 5)]):
            c.add(kind, *qubits, angle=angle)
    c = Circuit(n, ops=[*c.ops, *(GateOp(GateKind.CP, (a, b), 0.3 + 0.1 * a + 0.2 * b)
                                  for a in range(5, 10) for b in (10, 11))])
    assert pass_counts(plan(c))["phase"] == 1
    tracemalloc.start()
    try:
        sv = run(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - sv.amps.nbytes) / sv.amps.nbytes < 0.5
    np.testing.assert_allclose(np.linalg.norm(sv.amps), 1.0, atol=1e-12)


def test_phase_pass_holds_tables_of_a_root_of_the_state():
    # Beside the scratch, allocated before, a phase pass holds numpy's
    # ufunc buffers (8192 elements) and tables of O(2^(n/2)) entries; at 20
    # qubits 2^10 is the square root of the state.
    n = 20
    rng = np.random.default_rng(0)
    c = Circuit(n)
    for a, b in itertools.combinations(range(5, n), 2):
        c.add(GateKind.RZZ, a, b, angle=float(rng.uniform(-3, 3)))
    [(kind, *args)] = plan(c)
    assert kind == "phase"
    sv = _random_state(n, "double")
    scratch = np.empty(TILE, dtype=sv.amps.dtype)  # allocated before, as run's is
    tracemalloc.start()
    try:
        statevector._phase_pass(sv.amps, *args, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192 * 16 + 16 * (1 << n // 2) * 16, peak


@pytest.mark.parametrize("kind", sorted(_DIAGONAL_KINDS, key=lambda k: k.name),
                         ids=lambda k: k.name)
def test_apply_gate_of_a_diagonal_gate_is_one_block_move(kind):
    op = GateOp(kind, (7,) if kind.arity == 1 else (7, 2), 0.73 if kind.is_parameterized else None)
    c = Circuit(10, ops=[op])
    [(pass_kind, qubits, u)] = plan(c)  # as apply_gate plans it
    assert (pass_kind, qubits, len(u)) == ("move", op.qubits, 2 * kind.arity)
    sv = _random_state(10, "double")
    expected = dense_apply(sv.amps.copy(), op, 10)
    apply_gate(sv, op)
    np.testing.assert_allclose(sv.amps, expected, atol=1e-12)


class _FakeBlas:
    def __init__(self, threads: int):
        self.threads = threads
        self.history = []

    def set(self, n: int) -> None:
        self.history.append(n)
        self.threads = n

    def get(self) -> int:
        return self.threads


@pytest.mark.parametrize("caller_threads", [1, 3])
def test_run_pins_blas_to_one_thread_and_restores_the_callers_count(monkeypatch, caller_threads):
    fake = _FakeBlas(caller_threads)
    monkeypatch.setattr(blas, "controls", lambda: (fake.set, fake.get))
    seen = []
    zero = statevector.init_zero

    def recording_init_zero(*args):
        # run allocates its state, then runs the plan's passes, in one
        # pinned block.
        seen.append(fake.threads)
        return zero(*args)

    monkeypatch.setattr(statevector, "init_zero", recording_init_zero)
    c = generate(GeneratorSpec(Family.RANDOM, 8, seed=1))
    assert pass_counts(plan(c))["gemm"]
    np.testing.assert_allclose(run(c).amps, dense_run(c), atol=1e-10)
    assert seen and set(seen) == {1}
    assert fake.threads == caller_threads
    assert fake.history == ([] if caller_threads == 1 else [1, caller_threads])
    apply_gate(init_zero(8), GateOp(GateKind.H, (6,)))
    bad = GateOp(GateKind.H, (8,))
    with pytest.raises(ConfigError):
        Circuit(8, ops=[bad])
    with pytest.raises(ConfigError):
        apply_gate(init_zero(8), bad)
    assert fake.threads == caller_threads
    assert fake.history == ([] if caller_threads == 1 else [1, caller_threads] * 3)


# -- the planner's exactness ------------------------------------------------

# sha256 of ``plan``'s passes by ``tools/plan_digest.py``'s ``sv`` rule over
# every family, n 2-10, seeds 0 and 1, single and double precision.  A change
# that moves any pass must update it on purpose.  The passes' bytes come from
# the host's BLAS (the blocks' folds run through it), so it pins one build.
PLAN_SHA256 = "74ae94879b37a946cfe59d22e27f5aa811fc36c64b8cbc6349948791d2fcba86"


def _hash_passes(digest, passes) -> None:
    for kind, *args in passes:
        digest.update(kind.encode())
        for arg in args:
            if isinstance(arg, np.ndarray):
                digest.update(np.ascontiguousarray(arg).tobytes())
            elif isinstance(arg, float):
                digest.update(np.float64(arg).tobytes())
            else:
                digest.update(repr(arg).encode())


def test_plans_keep_their_committed_bytes():
    digest = hashlib.sha256()
    for family in Family:
        for n in range(2, 11):
            for seed in (0, 1):
                c = generate(GeneratorSpec(family, n, seed=seed))
                for precision in ("single", "double"):
                    _hash_passes(digest, plan(c, precision))
    assert digest.hexdigest() == PLAN_SHA256


def test_planning_twice_gives_the_same_bytes():
    c = generate(GeneratorSpec(Family.QAOA, 12))
    first, second = hashlib.sha256(), hashlib.sha256()
    _hash_passes(first, plan(c))
    _hash_passes(second, plan(c))
    assert first.hexdigest() == second.hexdigest()


@pytest.mark.parametrize("kind", [k for k in _UNITARY_KINDS if k.arity == 1])
def test_item_on_a_pair_is_kron_with_the_identity(kind):
    identity = np.eye(2, dtype=np.complex128)
    for angle in ((0.0, -0.0, 0.73, math.pi, 2 * math.pi) if kind.is_parameterized else (None,)):
        u = GateOp(kind, (3,), angle).matrix()
        item = statevector._Item((3,), u, *statevector._classify(u))
        assert item.on((3, 5)).tobytes() == np.kron(u, identity).tobytes()
        assert item.on((5, 3)).tobytes() == np.kron(identity, u).tobytes()


def test_memoized_gate_matrices_are_read_only():
    c = generate(GeneratorSpec(Family.HAMILTONIAN, 8))
    kernel = statevector._Kernel(c.num_qubits, np.empty(TILE, dtype=np.complex128))
    kernel.plan(c.unitary_ops)
    assert len(kernel.gates) < len(c.unitary_ops)
    for u, _, _ in kernel.gates.values():
        with pytest.raises(ValueError):
            u[0, 0] = 0


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_seeded_block_is_the_fold_on_the_identity(dtype):
    scratch = np.empty(TILE, dtype=dtype)
    gates = [GateOp(GateKind.H, (0,))] + [
        GateOp(kind, (0,), angle) for kind in (GateKind.RX, GateKind.RY)
        for angle in (0.0, -0.0, 0.73, -2.1, math.pi, 2 * math.pi)]
    for m in range(2, statevector.FUSED_QUBITS + 1):
        for q in range(m):
            for op in gates:
                u = op.matrix().astype(dtype)
                folded = np.eye(1 << m, dtype=dtype).ravel()
                statevector._gemm(folded, m + q, u, scratch)
                assert statevector._seeded(m, q, u).tobytes() == folded.tobytes()


@pytest.mark.parametrize("precision, n", [("double", 14), ("double", 20), ("single", 20)])
def test_distribution_holds_one_float_array(precision, n):
    sv = init_zero(n, precision)
    tracemalloc.start()
    try:
        probs = distribution(sv).probs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.dtype == np.float64 and probs[0] == 1.0 and probs.sum() == 1.0
    assert peak <= 1.1 * probs.nbytes
