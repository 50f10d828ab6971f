import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcsim.errors import GateParameterError, NoMatrixError
from qcsim.gates import GateKind, matrix_of

from conftest import is_unitary, reference_matrix_of

S2 = 1.0 / math.sqrt(2.0)


def test_hadamard_matrix():
    np.testing.assert_allclose(
        matrix_of(GateKind.H), np.array([[S2, S2], [S2, -S2]]), atol=1e-15
    )


def test_cnot_is_the_standard_permutation():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    np.testing.assert_array_equal(matrix_of(GateKind.CNOT), expected)


def test_zero_angle_rotations_are_identity():
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
        np.testing.assert_allclose(matrix_of(kind, 0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(matrix_of(GateKind.RZZ, 0.0), np.eye(4), atol=1e-15)
    np.testing.assert_allclose(matrix_of(GateKind.CP, 0.0), np.eye(4), atol=1e-15)


def test_rz_convention():
    t = 0.7
    got = matrix_of(GateKind.RZ, t)
    np.testing.assert_allclose(
        got, np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]), atol=1e-15
    )


def test_rzz_diagonal_signs():
    t = 1.3
    got = np.diag(matrix_of(GateKind.RZZ, t))
    # +1 eigenvalue of Z(x)Z on the 00/11 components, -1 on 01/10.
    np.testing.assert_allclose(got[0], np.exp(-0.5j * t))
    np.testing.assert_allclose(got[3], np.exp(-0.5j * t))
    np.testing.assert_allclose(got[1], np.exp(0.5j * t))
    np.testing.assert_allclose(got[2], np.exp(0.5j * t))


def test_cp_phases_only_the_11_component():
    t = 0.9
    got = matrix_of(GateKind.CP, t)
    np.testing.assert_allclose(np.diag(got), [1, 1, 1, np.exp(1j * t)])
    assert np.count_nonzero(got - np.diag(np.diag(got))) == 0


def test_permutation_like_gates_are_exactly_real():
    for kind in (GateKind.CNOT, GateKind.CZ, GateKind.SWAP):
        m = matrix_of(kind)
        assert np.all(m.imag == 0.0)
        assert set(np.unique(m.real)) <= {-1.0, 0.0, 1.0}


def test_angle_required_and_forbidden():
    with pytest.raises(GateParameterError):
        matrix_of(GateKind.RX)
    with pytest.raises(GateParameterError):
        matrix_of(GateKind.H, 0.5)
    with pytest.raises(NoMatrixError):
        matrix_of(GateKind.MEASURE)


@given(st.sampled_from([k for k in GateKind if k.is_parameterized]),
       st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
def test_parameterized_gates_are_unitary(kind, angle):
    assert is_unitary(matrix_of(kind, angle), tol=1e-12)


def test_fixed_gates_are_unitary():
    for kind in GateKind:
        if kind is GateKind.MEASURE or kind.is_parameterized:
            continue
        assert is_unitary(matrix_of(kind), tol=1e-12)


def test_unitarity_over_dense_angle_sweep():
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2 * math.pi, size=1000)
    for kind in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.RZZ, GateKind.CP):
        for t in angles:
            assert is_unitary(matrix_of(kind, float(t)), tol=1e-12)


_EDGE_ANGLES = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, math.pi, -math.pi, 5e-324)


@pytest.mark.parametrize("kind", [k for k in GateKind if k.is_parameterized])
def test_parameterized_matrices_keep_their_bytes(kind):
    """Entry-set matrices equal the nested-list and ``np.diag`` form, byte for
    byte, signed zeros and nan included."""
    rng = np.random.default_rng(1)
    angles = [*_EDGE_ANGLES, *rng.uniform(-4 * math.pi, 4 * math.pi, 500),
              *rng.normal(0.0, 1e-9, 50), *(10.0 ** rng.uniform(-300, 300, 50))]
    for t in angles:
        with np.errstate(invalid="ignore"):
            got, want = matrix_of(kind, float(t)), reference_matrix_of(kind, float(t))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), t
