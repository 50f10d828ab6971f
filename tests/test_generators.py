import numpy as np
import pytest

from qcsim import distribution, run
from qcsim.circuit import Circuit
from qcsim.errors import ConfigError
from qcsim.generators import Family, GeneratorSpec, family_from_name, generate

from conftest import gate_counts, marginal, most_likely, outcomes


def expected_counts(family: Family, n: int, p=1, k=0.5, m=None, l=1, t=1):
    """Closed-form gate-count targets (totals, multi) for default knobs."""
    m = int(k * n) if m is None else m
    c2 = n // 2
    if family is Family.QAOA:
        return (3 * p * n * (n - 1)) // 2 + 2 * n, p * n * (n - 1)
    if family is Family.QFT:
        return n * (n + 1) // 2 + c2, (n * n - n) // 2 + c2
    if family is Family.VQE:
        return l * (5 * n - 1) + n, l * (n - 1)
    if family is Family.HAMILTONIAN:
        return 3 * t * (2 * n - 1), t * (n - 1)
    if family is Family.BERNSTEIN_VAZIRANI:
        return 2 * n + m, m
    if family is Family.HIDDEN_SHIFT:
        return 3 * n + 2 * m + c2, c2
    if family is Family.QPE:
        return n * (n - 1) // 2 + 2 * n - 1 + (n - 1) // 2, (
            n * n - n
        ) // 2 + n - 2 + (n - 1) // 2
    raise AssertionError(family)


EXACT_FAMILIES = (
    Family.QAOA,
    Family.QFT,
    Family.VQE,
    Family.HAMILTONIAN,
    Family.BERNSTEIN_VAZIRANI,
    Family.HIDDEN_SHIFT,
)


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_count_identities_exact(family):
    for n in range(2, 33):
        total, multi = gate_counts(generate(GeneratorSpec(family, n)))
        want_total, want_multi = expected_counts(family, n)
        assert (total, multi) == (want_total, want_multi), (family, n)


def test_qpe_counts_within_tolerance():
    for n in range(2, 33):
        total, multi = gate_counts(generate(GeneratorSpec(Family.QPE, n)))
        want_total, want_multi = expected_counts(Family.QPE, n)
        assert total == want_total  # the textbook build hits the total exactly
        assert abs(multi - want_multi) <= n
        assert want_multi - multi == max(n - 2, 0)  # documented deviation


def test_spec_count_examples():
    assert gate_counts(generate(GeneratorSpec(Family.QAOA, 3))) == (15, 6)
    assert gate_counts(generate(GeneratorSpec(Family.QFT, 4))) == (12, 8)
    assert gate_counts(generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 4, m=0))) == (8, 0)


def test_random_multi_mean_over_seeds():
    n, k = 8, 0.5
    target = k * n * (n // 2)
    multis = [
        gate_counts(generate(GeneratorSpec(Family.RANDOM, n, seed=s)))[1]
        for s in range(1000)
    ]
    assert abs(np.mean(multis) - target) <= 0.05 * target


def test_random_multi_count_bounds_per_seed():
    n = 9
    for seed in range(50):
        _, multi = gate_counts(generate(GeneratorSpec(Family.RANDOM, n, seed=seed)))
        assert 0 <= multi <= n * (n // 2)


@pytest.mark.parametrize("family", list(Family))
def test_determinism(family):
    spec = GeneratorSpec(family, 9, seed=123)
    a, b = generate(spec), generate(spec)
    assert (a.num_qubits, a.ops) == (b.num_qubits, b.ops)
    assert a.params == b.params


def test_distinct_seeds_differ():
    a = generate(GeneratorSpec(Family.RANDOM, 8, seed=1))
    b = generate(GeneratorSpec(Family.RANDOM, 8, seed=2))
    assert a.ops != b.ops


def test_size_error():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(Family.QFT, 1))


def test_negative_seed_is_a_config_error():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate(GeneratorSpec(Family.RANDOM, 4, seed=-1))


def test_irrelevant_parameters_warn_in_params():
    c = generate(GeneratorSpec(Family.QFT, 4, t_steps=3))
    assert "t_steps" in c.params["warning"]
    clean = generate(GeneratorSpec(Family.QFT, 4))
    assert "warning" not in clean.params


ACCEPTED_NAMES = {
    "qaoa": Family.QAOA, "random": Family.RANDOM, "qpe": Family.QPE, "qft": Family.QFT,
    "vqe": Family.VQE, "hamiltonian": Family.HAMILTONIAN, "hamsim": Family.HAMILTONIAN,
    "hiddenshift": Family.HIDDEN_SHIFT, "hidden-shift": Family.HIDDEN_SHIFT,
    "hs": Family.HIDDEN_SHIFT, "bv": Family.BERNSTEIN_VAZIRANI,
    "bernsteinvazirani": Family.BERNSTEIN_VAZIRANI,
    "bernstein-vazirani": Family.BERNSTEIN_VAZIRANI,
}


def test_family_aliases():
    # The 13 accepted spellings, in any case and with surrounding blanks.
    for name, family in ACCEPTED_NAMES.items():
        assert family_from_name(f" {name.upper()} ") is family
    with pytest.raises(ValueError) as info:
        family_from_name("grover")
    assert str(info.value).endswith(f"choose from {sorted(ACCEPTED_NAMES)}")


def test_numpy_numbers_pass_as_knobs():
    spec = GeneratorSpec(Family.QAOA, np.int64(4), p_layers=np.int32(2), k=np.float32(0.5),
                         m=np.int64(1), seed=np.uint8(3))
    plain = GeneratorSpec(Family.QAOA, 4, p_layers=2, m=1, seed=3)
    assert spec == plain and generate(spec).ops == generate(plain).ops


# -- functional correctness (state-vector backed) -------------------------


def test_bv_recovers_hidden_string():
    for seed in range(8):
        c = generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 7, seed=seed))
        hidden = c.params["hidden_string"]
        data = marginal(distribution(run(c)), list(range(c.num_qubits - 1)))
        assert most_likely(data) == hidden
        assert outcomes(data)[hidden] == pytest.approx(1.0, abs=1e-9)


def test_bv_empty_oracle_returns_zeros():
    c = generate(GeneratorSpec(Family.BERNSTEIN_VAZIRANI, 4, m=0))
    data = marginal(distribution(run(c)), [0, 1, 2])
    assert most_likely(data) == "000"


def test_hidden_shift_recovers_shift_with_dual_oracle():
    for seed in range(8):
        c = generate(GeneratorSpec(Family.HIDDEN_SHIFT, 8, seed=seed, dual_oracle=True))
        d = distribution(run(c))
        assert most_likely(d) == c.params["shift"]
        assert outcomes(d)[c.params["shift"]] == pytest.approx(1.0, abs=1e-9)


def test_qft_of_zero_state_is_uniform():
    c = generate(GeneratorSpec(Family.QFT, 3))
    amps = run(c).amps
    np.testing.assert_allclose(np.abs(amps), 1 / np.sqrt(8), atol=1e-9)


def test_hidden_shift_dual_oracle_adds_one_cz_layer():
    base = generate(GeneratorSpec(Family.HIDDEN_SHIFT, 10, seed=0))
    dual = generate(GeneratorSpec(Family.HIDDEN_SHIFT, 10, seed=0, dual_oracle=True))
    bt, bm = gate_counts(base)
    dt, dm = gate_counts(dual)
    assert (dt - bt, dm - bm) == (5, 5)
