"""Gate library: kinds, arities and explicit unitary matrices.

Conventions (shared by every module in the package):

* Qubit indexing is little endian: qubit 0 is the least-significant bit of a
  basis-state index.
* Two-qubit matrices are 4x4 with row/column index ``k = 2*b(qubits[0]) +
  b(qubits[1])`` where ``b(q)`` is the bit carried by qubit ``q``.  For
  controlled kinds ``qubits[0]`` is the control, so CNOT is the familiar
  permutation that flips the target when the control bit is 1.
* Rotations use the half-angle convention, e.g. ``RZ(t) =
  diag(e^{-it/2}, e^{+it/2})`` and ``RZZ(t)`` the matching two-qubit
  exponential of Z(x)Z.  ``CP(t) = diag(1, 1, 1, e^{it})``.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import GateParameterError, NoMatrixError

_S2 = 1.0 / np.sqrt(2.0)


class GateKind(Enum):
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    RZZ = "rzz"
    CP = "cp"
    CNOT = "cx"
    CZ = "cz"
    SWAP = "swap"
    MEASURE = "measure"

    @property
    def arity(self) -> int:
        if self in _TWO_QUBIT:
            return 2
        return 1

    @property
    def is_parameterized(self) -> bool:
        return self in _PARAMETERIZED


_TWO_QUBIT = frozenset({GateKind.RZZ, GateKind.CP, GateKind.CNOT, GateKind.CZ, GateKind.SWAP})
_PARAMETERIZED = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.RZZ, GateKind.CP})


def _fixed(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


_FIXED_MATRICES = {
    GateKind.H: _fixed([[_S2, _S2], [_S2, -_S2]]),
    GateKind.X: _fixed([[0, 1], [1, 0]]),
    GateKind.Y: _fixed([[0, -1j], [1j, 0]]),
    GateKind.Z: _fixed([[1, 0], [0, -1]]),
    GateKind.CNOT: _fixed(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    ),
    GateKind.CZ: _fixed(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]
    ),
    GateKind.SWAP: _fixed(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    ),
}


def matrix_of(kind: GateKind, angle: float | None = None) -> np.ndarray:
    """Return the unitary of ``kind`` as a (2,2) or (4,4) complex array.

    ``angle`` must be supplied iff the kind is parameterized; measurements
    have no matrix.
    """
    if kind is GateKind.MEASURE:
        raise NoMatrixError("measure is not a unitary operation")
    if kind.is_parameterized:
        if angle is None:
            raise GateParameterError(f"{kind.name} requires an angle")
    elif angle is not None:
        raise GateParameterError(f"{kind.name} takes no angle")

    if kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[kind].copy()

    t = float(angle)
    if kind is GateKind.RX or kind is GateKind.RY:
        c, s = np.cos(t / 2.0), np.sin(t / 2.0)
        m = np.empty((2, 2), dtype=np.complex128)
        m[0, 0] = m[1, 1] = c
        if kind is GateKind.RX:
            m[0, 1] = m[1, 0] = -1j * s
        else:
            m[0, 1], m[1, 0] = -s, s
        return m
    if kind is GateKind.RZ:
        m = np.zeros((2, 2), dtype=np.complex128)
        m[0, 0], m[1, 1] = np.exp(-0.5j * t), np.exp(0.5j * t)
        return m
    if kind is GateKind.RZZ:
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0] = m[3, 3] = np.exp(-0.5j * t)
        m[1, 1] = m[2, 2] = np.exp(0.5j * t)
        return m
    if kind is GateKind.CP:
        m = np.zeros((4, 4), dtype=np.complex128)
        m[0, 0] = m[1, 1] = m[2, 2] = 1.0
        m[3, 3] = np.exp(1j * t)
        return m
    raise NoMatrixError(f"no matrix known for {kind}")  # pragma: no cover
