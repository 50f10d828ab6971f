"""Circuit intermediate representation consumed by every other module.

A :class:`Circuit` is an ordered list of :class:`GateOp` on ``num_qubits``
wires plus a free-form ``params`` map recording how it was generated.
Instances are treated as immutable after construction (the builder methods
are for assembly); they are safe to share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
        return self.kind.is_multi_qubit

    def matrix(self) -> np.ndarray:
        return matrix_of(self.kind, self.angle)

    def structurally_equal(self, other: "GateOp", angle_tol: float = 1e-12) -> bool:
        if self.kind is not other.kind or self.qubits != other.qubits:
            return False
        if self.angle is None or other.angle is None:
            return self.angle is None and other.angle is None
        return abs(self.angle - other.angle) <= angle_tol


@dataclass
class Circuit:
    """Ordered gate list on an ``num_qubits``-wide register.

    Measure ops may only appear as a trailing suffix; backends treat them as
    end-of-circuit markers.  Ops given to the constructor pass the same
    checks as ``add``: a qubit outside the register raises ``ConfigError``,
    a gate after a measure ``UnsupportedOpError``.
    """

    num_qubits: int
    ops: list[GateOp] = field(default_factory=list)
    name: str = ""
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ConfigError("circuit needs at least one qubit")
        ops, self.ops = self.ops, []
        for op in ops:
            self.add(op.kind, *op.qubits, angle=op.angle)

    # -- assembly -----------------------------------------------------
    def add(self, kind: GateKind, *qubits: int, angle: float | None = None) -> "Circuit":
        op = GateOp(kind, tuple(qubits), angle)
        for q in op.qubits:
            if not 0 <= q < self.num_qubits:
                raise ConfigError(f"qubit {q} outside register of width {self.num_qubits}")
        if self.ops and self.ops[-1].is_measure and not op.is_measure:
            raise UnsupportedOpError("gates after a measurement are not supported")
        self.ops.append(op)
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

    def measure_all(self):
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    # -- views --------------------------------------------------------
    @property
    def unitary_ops(self) -> list[GateOp]:
        """Ops with the trailing measurement suffix stripped."""
        return [op for op in self.ops if not op.is_measure]

    def gate_counts(self) -> tuple[int, int]:
        """(total, multi-qubit) gate counts, measurements excluded."""
        total = multi = 0
        for op in self.unitary_ops:
            total += 1
            multi += op.is_multi_qubit
        return total, multi

    def structurally_equal(self, other: "Circuit", angle_tol: float = 1e-12) -> bool:
        if self.num_qubits != other.num_qubits or len(self.ops) != len(other.ops):
            return False
        return all(a.structurally_equal(b, angle_tol) for a, b in zip(self.ops, other.ops))

    def __repr__(self):
        label = self.name or "circuit"
        return f"<Circuit {label!r} n={self.num_qubits} ops={len(self.ops)}>"


def bitstring_to_index(bits: str) -> int:
    """Little-endian text: character ``i`` of ``bits`` is qubit ``i``."""
    return sum(1 << i for i, b in enumerate(bits) if b == "1")


def index_to_bitstring(index: int, num_qubits: int) -> str:
    return "".join("1" if (index >> i) & 1 else "0" for i in range(num_qubits))
