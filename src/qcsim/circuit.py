"""Circuit intermediate representation consumed by every other module.

A :class:`Circuit` is an ordered sequence of :class:`GateOp` on
``num_qubits`` wires plus a free-form ``params`` map recording how it was
generated.  Ops grow only through ``add``, which checks each one (the
constructor's ``ops`` pass through it too); ``num_qubits`` is read-only and
``ops`` and ``unitary_ops`` are read-only tuples, so every metric, backend
and serializer sees only checked ops.  Instances are safe to share across
threads once assembled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GateParameterError, UnsupportedOpError
from .gates import GateKind, matrix_of


@dataclass(frozen=True)
class GateOp:
    """A single gate application: kind, target qubits, optional angle.

    For controlled kinds ``qubits[0]`` is the control and ``qubits[1]`` the
    target.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if len(self.qubits) != self.kind.arity and self.kind is not GateKind.MEASURE:
            raise ConfigError(
                f"{self.kind.name} acts on {self.kind.arity} qubits, got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"duplicate qubit in {self.kind.name}{self.qubits}")
        if self.kind.is_parameterized and self.angle is None:
            raise GateParameterError(f"{self.kind.name} requires an angle")
        if not self.kind.is_parameterized and self.angle is not None:
            raise GateParameterError(f"{self.kind.name} takes no angle")

    @property
    def is_measure(self) -> bool:
        return self.kind is GateKind.MEASURE

    @property
    def is_multi_qubit(self) -> bool:
        return self.kind.arity > 1

    def matrix(self) -> np.ndarray:
        return matrix_of(self.kind, self.angle)


class Circuit:
    """Ordered gate sequence on an ``num_qubits``-wide register.

    Measure ops may only appear as a trailing suffix; backends treat them as
    end-of-circuit markers.  ``add`` refuses a qubit outside the register
    with ``ConfigError`` and a gate after a measure with
    ``UnsupportedOpError``; ops given to the constructor pass the same
    checks.
    """

    def __init__(self, num_qubits: int, ops=(), name: str = "", params: dict | None = None):
        if num_qubits < 1:
            raise ConfigError("circuit needs at least one qubit")
        self._num_qubits = num_qubits
        self.name = name
        self.params = {} if params is None else params
        self._ops: list[GateOp] = []
        self._num_unitary = 0  # the ops before the trailing measures
        for op in ops:
            self.add(op.kind, *op.qubits, angle=op.angle)

    # -- assembly -----------------------------------------------------
    def add(self, kind: GateKind, *qubits: int, angle: float | None = None) -> "Circuit":
        op = GateOp(kind, tuple(qubits), angle)
        for q in op.qubits:
            if not 0 <= q < self._num_qubits:
                raise ConfigError(f"qubit {q} outside register of width {self._num_qubits}")
        # The count test first: without a measure it settles the check.
        if self._num_unitary < len(self._ops) and not op.is_measure:
            raise UnsupportedOpError("gates after a measurement are not supported")
        self._ops.append(op)
        self._num_unitary += not op.is_measure
        return self

    def h(self, q):
        return self.add(GateKind.H, q)

    def x(self, q):
        return self.add(GateKind.X, q)

    def y(self, q):
        return self.add(GateKind.Y, q)

    def z(self, q):
        return self.add(GateKind.Z, q)

    def rx(self, q, angle):
        return self.add(GateKind.RX, q, angle=angle)

    def ry(self, q, angle):
        return self.add(GateKind.RY, q, angle=angle)

    def rz(self, q, angle):
        return self.add(GateKind.RZ, q, angle=angle)

    def rzz(self, a, b, angle):
        return self.add(GateKind.RZZ, a, b, angle=angle)

    def cp(self, control, target, angle):
        return self.add(GateKind.CP, control, target, angle=angle)

    def cnot(self, control, target):
        return self.add(GateKind.CNOT, control, target)

    def cz(self, a, b):
        return self.add(GateKind.CZ, a, b)

    def swap(self, a, b):
        return self.add(GateKind.SWAP, a, b)

    def measure(self, q):
        return self.add(GateKind.MEASURE, q)

    # -- views --------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def ops(self) -> tuple[GateOp, ...]:
        return tuple(self._ops)

    @property
    def unitary_ops(self) -> tuple[GateOp, ...]:
        """Ops with the trailing measurement suffix stripped."""
        return tuple(self._ops[: self._num_unitary])

    def __repr__(self):
        label = self.name or "circuit"
        return f"<Circuit {label!r} n={self.num_qubits} ops={len(self.ops)}>"


def bitstring_to_index(bits: str) -> int:
    """Little-endian text: character ``i`` of ``bits`` is qubit ``i``."""
    return sum(1 << i for i, b in enumerate(bits) if b == "1")


def index_to_bitstring(index: int, num_qubits: int) -> str:
    return "".join("1" if (index >> i) & 1 else "0" for i in range(num_qubits))
