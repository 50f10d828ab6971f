import math
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcsim import tensornet
from qcsim.circuit import Circuit, index_to_bitstring
from qcsim.errors import CapacityError, ConfigError, StructuralError
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.statevector import distribution, run
from qcsim.tensornet import (
    ContractionPlan,
    PathfinderConfig,
    Tensor,
    absorb_small_tensors,
    amplitude,
    build_network,
    choose_slices,
    circuit_to_network,
    contract,
    contract_pair,
    distribution_from_plan,
    find_path,
    reconstruct_distribution,
)

from conftest import (
    _reference_footprint,
    _reference_replay,
    brute_force_contract,
    draw_gates,
    most_likely,
    outcomes,
    reference_choose_slices,
    reference_descent,
)

S2 = 1.0 / math.sqrt(2.0)


# -- conversion -----------------------------------------------------------


def test_bell_network_shape(bell):
    net = circuit_to_network(bell)
    assert len(net.tensors) == 4  # two inputs, H, CNOT
    assert len(net.open_indices) == 2
    ranks = sorted(t.rank for t in net.tensors)
    assert ranks == [1, 1, 2, 4]


def test_closed_network_has_no_open_indices(bell):
    net = circuit_to_network(bell, "00")
    assert net.open_indices == ()
    assert len(net.tensors) == 6


def test_two_qubit_gate_becomes_rank4(bell):
    net = circuit_to_network(bell)
    cnot = [t for t in net.tensors if t.rank == 4][0]
    assert cnot.data.shape == (2, 2, 2, 2)
    # contracting |1> and |0> into the input legs must give |1>|1>
    one = Tensor((cnot.indices[0],), np.array([0, 1], dtype=complex))
    zero = Tensor((cnot.indices[1],), np.array([1, 0], dtype=complex))
    out = contract_pair(contract_pair(one, cnot), zero)
    np.testing.assert_allclose(out.data, [[0, 0], [0, 1]], atol=1e-12)


# -- contract_pair --------------------------------------------------------


def test_contract_pair_vector_into_h():
    h = Tensor(("i", "j"), np.array([[S2, S2], [S2, -S2]], dtype=complex))
    v = Tensor(("i",), np.array([1, 0], dtype=complex))
    out = contract_pair(v, h)
    assert out.indices == ("j",)
    np.testing.assert_allclose(out.data, [S2, S2])


def test_contract_pair_outer_product():
    a = Tensor(("i",), np.array([1, 2], dtype=complex))
    b = Tensor(("j",), np.array([3, 4], dtype=complex))
    out = contract_pair(a, b)
    assert out.indices == ("i", "j")
    np.testing.assert_allclose(out.data, [[3, 4], [6, 8]])


def test_contract_pair_index_order_a_then_b():
    a = Tensor(("i", "s"), np.zeros((2, 2), dtype=complex))
    b = Tensor(("s", "k", "m"), np.zeros((2, 2, 2), dtype=complex))
    assert contract_pair(a, b).indices == ("i", "k", "m")


# -- full contraction vs oracles ------------------------------------------


def test_bell_amplitudes_vs_statevector(bell):
    assert amplitude(bell, "00") == pytest.approx(S2, abs=1e-12)
    assert amplitude(bell, "11") == pytest.approx(S2, abs=1e-12)
    assert amplitude(bell, "01") == pytest.approx(0.0, abs=1e-12)
    assert amplitude(bell, "10") == pytest.approx(0.0, abs=1e-12)


def test_ghz_zero_amplitude():
    ghz = Circuit(3).h(0).cnot(0, 1).cnot(1, 2)
    assert amplitude(ghz, "010") == pytest.approx(0.0, abs=1e-12)
    assert amplitude(ghz, "111") == pytest.approx(S2, abs=1e-12)


def test_empty_circuit_amplitude_one():
    assert amplitude(Circuit(2), "00") == pytest.approx(1.0)
    assert amplitude(Circuit(2), "01") == pytest.approx(0.0)


@pytest.mark.parametrize("bits, bad", [("02", "'2'"), ("0x", "'x'")])
def test_amplitude_rejects_a_bitstring_that_is_not_binary(bits, bad):
    qft2 = generate(GeneratorSpec(Family.QFT, 2))
    with pytest.raises(ValueError, match=f"holds {bad}"):
        amplitude(qft2, bits)
    with pytest.raises(ValueError, match="length"):
        amplitude(qft2, "0")


def test_contraction_matches_brute_force_einsum():
    rng = np.random.default_rng(0)
    for seed in range(5):
        c = generate(GeneratorSpec(Family.RANDOM, 4, seed=seed))
        net = circuit_to_network(c, "0101")
        brute = complex(brute_force_contract(net))
        plan = find_path(net, PathfinderConfig(num_samples=2, seed=seed))
        value = complex(contract(net, plan).data.reshape(()))
        assert value == pytest.approx(brute, abs=1e-10)


def test_open_network_contraction_is_full_state(bell):
    net = circuit_to_network(bell)
    plan = find_path(net, PathfinderConfig(num_samples=1))
    out = contract(net, plan)
    state = brute_force_contract(net)
    got = out.data
    # reorder output axes to the open-index order
    perm = [out.indices.index(label) for label in net.open_indices]
    np.testing.assert_allclose(np.transpose(got, perm), state, atol=1e-12)


def test_qft_amplitude_modulus():
    c = generate(GeneratorSpec(Family.QFT, 3))
    for idx in range(8):
        amp = amplitude(c, index_to_bitstring(idx, 3))
        assert abs(amp) == pytest.approx(1 / math.sqrt(8), abs=1e-9)


# -- pathfinding -----------------------------------------------------------


def test_two_tensor_network_single_step():
    a = Tensor(("i",), np.array([1, 0], dtype=complex))
    b = Tensor(("i",), np.array([1, 0], dtype=complex))
    net = __import__("qcsim.tensornet", fromlist=["TensorNetwork"]).TensorNetwork([a, b])
    plan = find_path(net, PathfinderConfig(num_samples=5, seed=0))
    assert plan.steps == ((0, 1),)


def test_mps_chain_peak_at_most_four():
    tensors = []
    labels = [f"b{i}" for i in range(7)]
    rng = np.random.default_rng(1)
    # open chain: rank-2 tensors sharing consecutive bond labels
    tensors.append(Tensor(("end0", labels[0]), rng.normal(size=(2, 2)).astype(complex)))
    for i in range(6):
        tensors.append(
            Tensor((labels[i], labels[i + 1] if i < 5 else "end1"),
                   rng.normal(size=(2, 2)).astype(complex))
        )
    net = __import__("qcsim.tensornet", fromlist=["TensorNetwork"]).TensorNetwork(
        tensors, ("end0", "end1")
    )
    plan = find_path(net, PathfinderConfig(num_samples=4, seed=0))
    assert plan.est_peak_elements <= 4


def test_best_flops_non_increasing_in_samples():
    c = generate(GeneratorSpec(Family.QFT, 8))
    net = build_network(c, "0" * 8)
    best = []
    for samples in (1, 2, 4, 8, 16):
        plan = find_path(net, PathfinderConfig(num_samples=samples, seed=3))
        best.append(plan.est_flops)
    assert all(a >= b for a, b in zip(best, best[1:]))


def test_find_path_deterministic():
    c = generate(GeneratorSpec(Family.VQE, 6))
    net = circuit_to_network(c, "0" * 6)
    cfg = PathfinderConfig(num_samples=6, seed=11)
    p1, p2 = find_path(net, cfg), find_path(net, cfg)
    assert p1.steps == p2.steps and p1.est_flops == p2.est_flops


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        PathfinderConfig(seed=-1)


def _assert_descent_matches_reference(sets, seed, sample):
    """The kept-candidate descent takes the reference's steps and draws the
    same numbers from an equally seeded generator."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, sample))) if sample else None
            for _ in range(2)]
    assert tensornet._greedy_descent(sets, rngs[0]) == reference_descent(sets, rngs[1])
    if sample:
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.parametrize("family", list(Family))
def test_greedy_descent_matches_reference(family):
    for n in (4, 8, 12):
        c = generate(GeneratorSpec(family, n))
        for bits in (None, "0" * n):
            sets = tensornet._index_sets(build_network(c, bits))
            for sample in range(4):
                _assert_descent_matches_reference(sets, 0, sample)


@st.composite
def _disconnected_circuits(draw):
    """An open or closed circuit with an idle qubit and its other qubits in
    two groups that no gate joins, so its network has at least two parts
    and the descent ends in outer products."""
    n = draw(st.integers(2, 8))
    idle, *rest = draw(st.permutations(range(n)))
    cut = draw(st.integers(0, len(rest)))
    c = Circuit(n)
    for group in (rest[:cut], rest[cut:]):
        if group:
            draw_gates(draw, c, group, 10)
    bits = draw(st.none() | st.text("01", min_size=n, max_size=n))
    return c, bits


@settings(max_examples=60, deadline=None)
@given(_disconnected_circuits(), st.integers(0, 2**32), st.integers(0, 3))
def test_greedy_descent_matches_reference_on_disconnected_circuits(case, seed, sample):
    c, bits = case
    _assert_descent_matches_reference(tensornet._index_sets(build_network(c, bits)), seed, sample)


def test_est_flops_matches_replay():
    c = generate(GeneratorSpec(Family.HAMILTONIAN, 6))
    net = build_network(c, "0" * 6)
    plan = find_path(net, PathfinderConfig(num_samples=3, seed=5))
    sets = [frozenset(t.indices) for t in net.tensors]
    flops, peak = _reference_replay(len(plan.steps) + 1, plan.steps, sets)
    assert flops == plan.est_flops
    assert peak == plan.est_peak_elements


def _random_plan(net, rng) -> ContractionPlan:
    active = list(range(len(net.tensors)))
    sets = {i: frozenset(net.tensors[i].indices) for i in active}
    steps = []
    next_id = len(net.tensors)
    while len(active) > 1:
        shared = [
            (a, b)
            for ai, a in enumerate(active)
            for b in active[ai + 1:]
            if sets[a] & sets[b]
        ]
        pool = shared if shared else [(active[0], active[1])]
        i, j = pool[rng.integers(len(pool))]
        steps.append((i, j))
        sets[next_id] = sets[i] ^ sets[j]
        active = [x for x in active if x not in (i, j)] + [next_id]
        next_id += 1
    flops, peak, _ = tensornet._cost(steps, [frozenset(t.indices) for t in net.tensors])
    return ContractionPlan(tuple(steps), flops, peak)


@pytest.mark.parametrize("family", [Family.QFT, Family.QAOA, Family.RANDOM, Family.VQE])
@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("sliced", [False, True])
def test_cost_matches_reference(family, n, closed, sliced):
    c = generate(GeneratorSpec(family, n, seed=4))
    net = build_network(c, "0" * n if closed else None)
    rng = np.random.default_rng(n)
    for _ in range(3):
        plan = _random_plan(net, rng)
        if sliced:
            plan = replace(plan, sliced_labels=choose_slices(net, plan, 4).sliced_labels)
            assert plan.sliced_labels
        drop = frozenset(plan.sliced_labels)
        sets = [frozenset(t.indices) - drop for t in net.tensors]
        expected = (
            *_reference_replay(len(plan.steps) + 1, plan.steps, sets),
            _reference_footprint(len(plan.steps) + 1, plan.steps, sets),
        )
        assert tensornet._cost(plan.steps, list(sets)) == expected
        assert tensornet.step_footprint(net, plan) == expected[2]


def test_value_is_plan_independent():
    rng = np.random.default_rng(21)
    c = Circuit(3).h(0).cnot(0, 1).rz(1, 0.3).cnot(1, 2).h(2)
    net = build_network(c, "010")
    assert len(net.tensors) <= 8
    reference = None
    for _ in range(20):
        plan = _random_plan(net, rng)
        value = complex(contract(net, plan).data.reshape(()))
        if reference is None:
            reference = value
        assert value == pytest.approx(reference, abs=1e-9)


# -- distribution ----------------------------------------------------------


def test_reconstruct_bell_distribution(bell):
    d = reconstruct_distribution(bell)
    assert outcomes(d, 1e-9) == pytest.approx({"00": 0.5, "11": 0.5})


def _assert_matches_statevector(c, cfg=None):
    tn_d = reconstruct_distribution(c, cfg)
    sv_d = distribution(run(c))
    assert tn_d.num_qubits == c.num_qubits
    np.testing.assert_allclose(tn_d.probs, sv_d.probs, atol=1e-10)


def test_reconstruct_matches_statevector():
    for family in Family:
        c = generate(GeneratorSpec(family, 6, seed=8))
        _assert_matches_statevector(c, PathfinderConfig(num_samples=2, seed=1))


def test_reconstruct_normalized():
    c = generate(GeneratorSpec(Family.RANDOM, 6, seed=3))
    d = reconstruct_distribution(c)
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_reconstruct_refuses_an_output_over_budget_before_planning(monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "5")

    def no_planning(*args):
        raise AssertionError("planned a network whose output is over budget")

    monkeypatch.setattr(tensornet, "find_path", no_planning)
    with pytest.raises(CapacityError) as info:
        reconstruct_distribution(Circuit(6))
    assert info.value.required_bytes == (1 << 6) * 16
    assert "QCSIM_MAX_QUBITS" in str(info.value)


def test_reconstruct_past_twenty_qubits_within_budget(monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "22")
    c = Circuit(21).h(0).cnot(0, 1)
    tn_d = reconstruct_distribution(c)
    np.testing.assert_array_equal(tn_d.probs, distribution(run(c)).probs)


def test_reconstruct_idle_wire():
    _assert_matches_statevector(Circuit(3).h(0).cnot(0, 1))


def test_reconstruct_no_gates():
    d = reconstruct_distribution(Circuit(3))
    assert outcomes(d) == {"000": 1.0}
    _assert_matches_statevector(Circuit(3))


@st.composite
def _circuits_with_an_idle_qubit(draw):
    n = draw(st.integers(2, 5))
    idle = draw(st.integers(0, n - 1))
    busy = [q for q in range(n) if q != idle]
    return draw_gates(draw, Circuit(n), busy, 12)


@settings(max_examples=40, deadline=None)
@given(_circuits_with_an_idle_qubit())
def test_reconstruct_matches_statevector_with_idle_qubits(c):
    _assert_matches_statevector(c, PathfinderConfig(num_samples=2, seed=0))


def _forbid_contraction(monkeypatch, message):
    """Make ``contract`` fail at its first pairwise step; ``build_network``
    still absorbs through ``contract_pair`` as usual."""
    real = tensornet.contract_pair

    def guarded(a, b):
        if sys._getframe(1).f_code is tensornet.contract.__code__:
            raise AssertionError(message)
        return real(a, b)

    monkeypatch.setattr(tensornet, "contract_pair", guarded)


def test_distribution_from_plan_refuses_peak_over_budget(monkeypatch):
    # qft-6's open plan peaks above its 2^6 output, at 256 elements, and its
    # largest step holds 384 with its operands; a 7-qubit budget admits the
    # output but not the plan.
    c = generate(GeneratorSpec(Family.QFT, 6))
    net = build_network(c)
    plan = find_path(net, PathfinderConfig())
    assert plan.est_peak_elements > 1 << 7
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "7")

    _forbid_contraction(monkeypatch, "contracted an over-budget plan")
    with pytest.raises(CapacityError) as info:
        distribution_from_plan(net, plan)
    assert info.value.required_bytes == 384 * 16
    with pytest.raises(CapacityError):
        reconstruct_distribution(c)


def test_amplitude_refuses_peak_over_budget(monkeypatch):
    # qft-10's closed plan peaks at 2^11 elements, and its largest step
    # holds 5120 with its operands.
    c = generate(GeneratorSpec(Family.QFT, 10))
    cfg = PathfinderConfig(num_samples=4, seed=13)
    plan = find_path(build_network(c, "0" * 10), cfg)
    assert plan.est_peak_elements > 1 << 9
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "9")

    _forbid_contraction(monkeypatch, "contracted an over-budget plan")
    with pytest.raises(CapacityError) as info:
        amplitude(c, "0" * 10, cfg)
    assert info.value.required_bytes == 5120 * 16
    assert "QCSIM_MAX_QUBITS" in str(info.value)
    # Two slices still peak at 2^10 elements per slice (3072 per step).
    net = build_network(c, "0" * 10)
    sliced = choose_slices(net, plan, 2)
    assert sliced.est_peak_elements > 1 << 9
    with pytest.raises(CapacityError) as info:
        contract(net, sliced)
    assert info.value.required_bytes == 3072 * 16


def test_distribution_within_budget(monkeypatch):
    # bv-6's open plan peaks at exactly its 2^6 output, but the step that
    # builds it holds 84 elements with its operands: within 2^7, over 2^6.
    c = generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 6))
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "7")
    _assert_matches_statevector(c)
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "6")
    with pytest.raises(CapacityError) as info:
        reconstruct_distribution(c)
    assert info.value.required_bytes == 84 * 16
    assert "QCSIM_MAX_QUBITS" in str(info.value)


# -- slicing ----------------------------------------------------------------


def test_choose_slices_target_one_is_noop(bell):
    net = circuit_to_network(bell, "00")
    plan = find_path(net, PathfinderConfig(num_samples=1))
    sliced = choose_slices(net, plan, 1)
    assert sliced.sliced_labels == ()
    assert sliced.steps == plan.steps


def test_choose_slices_bell_two_slices(bell):
    net = build_network(bell, "00")
    plan = find_path(net, PathfinderConfig(num_samples=1))
    sliced = choose_slices(net, plan, 2)
    assert len(sliced.sliced_labels) == 1
    total = contract(net, sliced)
    assert complex(total.data.reshape(())) == pytest.approx(S2, abs=1e-10)


def test_choose_slices_rejects_non_power_of_two(bell):
    net = circuit_to_network(bell, "00")
    plan = find_path(net, PathfinderConfig(num_samples=1))
    with pytest.raises(ConfigError):
        choose_slices(net, plan, 3)


def test_choose_slices_warns_when_labels_exhausted(bell):
    net = build_network(bell, "00")
    plan = find_path(net, PathfinderConfig(num_samples=1))
    sliced = choose_slices(net, plan, 64)
    assert sliced.slice_warning
    assert 1 <= len(sliced.sliced_labels) < 6


def test_slicing_never_increases_peak():
    for family in Family:
        c = generate(GeneratorSpec(family, 8, seed=2))
        net = build_network(c, "0" * 8)
        plan = find_path(net, PathfinderConfig(num_samples=2, seed=0))
        for target in (2, 4, 8):
            sliced = choose_slices(net, plan, target)
            assert sliced.est_peak_elements <= plan.est_peak_elements


def test_sliced_sum_identity_across_families():
    # ``contract`` runs a sliced plan to the value of the unsliced one.
    cfg = PathfinderConfig(num_samples=2, seed=9)
    for family in Family:
        c = generate(GeneratorSpec(family, 8, seed=5))
        bits = most_likely(distribution(run(c)))
        net = build_network(c, bits)
        plan = find_path(net, cfg)
        unsliced = complex(contract(net, plan).data.reshape(()))
        for target in (2, 4, 8, 16):
            sliced = choose_slices(net, plan, target)
            assert len(sliced.sliced_labels) == target.bit_length() - 1
            total = complex(contract(net, sliced).data.reshape(()))
            assert abs(total - unsliced) <= 1e-8 * max(abs(unsliced), 1e-30)


def test_distribution_from_sliced_open_plan_matches_statevector():
    cfg = PathfinderConfig(num_samples=2, seed=4)
    for family in Family:
        c = generate(GeneratorSpec(family, 6, seed=2))
        net = build_network(c)
        plan = choose_slices(net, find_path(net, cfg), 4)
        assert plan.sliced_labels
        got = distribution_from_plan(net, plan)
        np.testing.assert_allclose(got.probs, distribution(run(c)).probs, atol=1e-10)


def test_choose_slices_matches_reference():
    cfg = PathfinderConfig(num_samples=2, seed=1)
    for family in Family:
        for n in (6, 8):
            c = generate(GeneratorSpec(family, n, seed=3))
            for bits in ("0" * n, None):
                net = build_network(c, bits)
                plan = find_path(net, cfg)
                for target in (1, 2, 8, 64):
                    expected = reference_choose_slices(net, plan, target)
                    assert choose_slices(net, plan, target) == expected, (family, n, bits, target)


@st.composite
def _circuits_and_bitstrings(draw):
    n = draw(st.integers(1, 6))
    c = draw_gates(draw, Circuit(n), range(n), 20)
    bits = draw(st.none() | st.text("01", min_size=n, max_size=n))
    return c, bits


@settings(max_examples=60, deadline=None)
@given(
    _circuits_and_bitstrings(),
    st.integers(0, 5),
    st.sampled_from([1, 2, 4, 8, 64]),
    st.sampled_from([1, 2, 4]),
)
def test_choose_slices_matches_reference_on_random_circuits(case, seed, target, again):
    c, bits = case
    net = build_network(c, bits)
    plan = find_path(net, PathfinderConfig(num_samples=2, seed=seed))
    sliced = choose_slices(net, plan, target)
    assert sliced == reference_choose_slices(net, plan, target)
    # A plan that is already sliced keeps its labels and adds more.
    assert choose_slices(net, sliced, again) == reference_choose_slices(net, sliced, again)


def _open_label_sliced(net, plan):
    # The bell network with its closures left off, so the two final wires
    # are open, and a plan of it that slices one of them.
    ends = tuple(t.indices[0] for t in net.tensors[-2:])
    net = tensornet.TensorNetwork(net.tensors[:-2], ends)
    return net, replace(find_path(net, PathfinderConfig(num_samples=1)), sliced_labels=ends[:1])


@pytest.mark.parametrize("malformed", [
    lambda net, plan: (circuit_to_network(Circuit(3).h(0), None), plan),
    lambda net, plan: (net, replace(plan, steps=plan.steps[:-1])),
    lambda net, plan: (net, replace(plan, steps=((0, 0),) + plan.steps[1:])),
    lambda net, plan: (net, replace(plan, steps=plan.steps[:-1] + ((0, 1),))),
    lambda net, plan: (net, replace(plan, sliced_labels=("nope",))),
    _open_label_sliced,
], ids=["another-network", "partial", "repeated-id", "unavailable-id", "foreign-sliced-label",
        "open-sliced-label"])
def test_plan_network_mismatch_detected(bell, malformed, monkeypatch):
    net = circuit_to_network(bell, "00")
    plan = find_path(net, PathfinderConfig(num_samples=1))
    net, plan = malformed(net, plan)

    _forbid_contraction(monkeypatch, "contracted before the plan was refused")
    with pytest.raises(StructuralError):
        contract(net, plan)


@pytest.mark.parametrize("target", [1, 4])
def test_contract_frees_each_intermediate_before_the_next_step(monkeypatch, target):
    # An intermediate consumed at step s must be dead before step s + 1
    # runs, so the executor never holds more than a step's tensors.
    c = generate(GeneratorSpec(Family.QFT, 6))
    net = build_network(c, "0" * 6)
    plan = choose_slices(net, find_path(net, PathfinderConfig(num_samples=2)), target)
    made, consumed = [], []
    real = tensornet.contract_pair

    def watched(a, b):
        assert all(ref() is None for ref in consumed), "a consumed intermediate is alive"
        consumed.extend(ref for ref in made if ref() is a or ref() is b)
        out = real(a, b)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(tensornet, "contract_pair", watched)
    contract(net, plan)
    assert len(made) == len(plan.steps) * target
    # Every intermediate but each slice's result is consumed once.
    assert len(consumed) == (len(plan.steps) - 1) * target


# -- rank-absorption and peak behaviour -------------------------------------


def test_absorb_removes_rank1_tensors(bell):
    net = circuit_to_network(bell, "00")
    absorbed = absorb_small_tensors(net, max_rank=1)
    assert len(absorbed.tensors) < len(net.tensors)
    assert complex(brute_force_contract(absorbed)) == pytest.approx(
        complex(brute_force_contract(net)), abs=1e-12
    )


def test_er_light_families_contract_with_small_intermediates():
    # After absorbing every rank <= 2 tensor, chain-structured circuits keep
    # intermediates below 2^(ceil(n/2)+2) elements.
    for family in (Family.VQE, Family.HAMILTONIAN):
        for n in (8, 12, 16):
            c = generate(GeneratorSpec(family, n))
            net = circuit_to_network(c, "0" * n)
            net = absorb_small_tensors(net, max_rank=2)
            plan = find_path(net, PathfinderConfig(num_samples=2, seed=1))
            assert plan.est_peak_elements <= 2 ** (math.ceil(n / 2) + 2), (family, n)
