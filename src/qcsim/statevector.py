"""Dense state-vector simulation backend.

Amplitudes live in a flat array of length ``2^n`` indexed little endian
(qubit 0 = least-significant bit).  A gate updates that array in place: it
views the amplitudes as strided blocks, one block per basis value of the
target qubits (two for a 1-qubit gate, four for a 2-qubit gate), and writes
each output block as a combination of the input blocks.  Zero matrix
entries are skipped, so a diagonal gate (Z, RZ, CZ, CP, RZZ) only scales
blocks and a permutation with phases (X, Y, CNOT, SWAP) only moves them.
The gate is never expanded to a ``2^n x 2^n`` matrix.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateOp, index_to_bitstring
from .errors import CapacityError, UnsupportedOpError

DEFAULT_MAX_QUBITS = 30
_ENV_MAX_QUBITS = "QCSIM_MAX_QUBITS"

_DTYPES = {"single": np.complex64, "double": np.complex128}
_BYTES_PER_AMP = {"single": 8, "double": 16}


def _resolve_max_qubits(max_qubits: int | None) -> int:
    if max_qubits is not None:
        return max_qubits
    env = os.environ.get(_ENV_MAX_QUBITS)
    return int(env) if env else DEFAULT_MAX_QUBITS


def sv_memory_bytes(n: int, precision: str = "single") -> int:
    """Bytes needed for the amplitudes of an ``n``-qubit state vector."""
    return (1 << n) * _BYTES_PER_AMP[precision]


@dataclass
class StateVector:
    num_qubits: int
    amps: np.ndarray

    @property
    def precision(self) -> str:
        return "single" if self.amps.dtype == np.complex64 else "double"

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())


def init_zero(
    n: int, precision: str = "double", max_qubits: int | None = None
) -> StateVector:
    """|0...0> on ``n`` qubits; refuses sizes beyond the qubit budget."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if precision not in _DTYPES:
        raise ValueError(f"precision must be 'single' or 'double', got {precision!r}")
    limit = _resolve_max_qubits(max_qubits)
    if n > limit:
        required = sv_memory_bytes(n, precision)
        raise CapacityError(
            f"{n}-qubit state vector needs {required} bytes "
            f"({precision} precision), over the {limit}-qubit budget; "
            f"set {_ENV_MAX_QUBITS} to override",
            required_bytes=required,
        )
    amps = np.zeros(1 << n, dtype=_DTYPES[precision])
    amps[0] = 1.0
    return StateVector(n, amps)


def _blocks(amps: np.ndarray, qubits: tuple[int, ...]) -> list[np.ndarray]:
    """Views of ``amps``, block ``k`` holding the amplitudes whose target
    bits read ``k`` in the matrix order of ``gates.py``.  The reshapes
    refuse to copy, so writes to a block always land in ``amps``."""
    if len(qubits) == 1:
        view = np.reshape(amps, (-1, 2, 1 << qubits[0]), copy=False)
        return [view[:, 0, :], view[:, 1, :]]
    lo, hi = sorted(qubits)
    view = np.reshape(amps, (-1, 2, 1 << (hi - lo - 1), 2, 1 << lo), copy=False)
    if qubits[0] == hi:
        return [view[:, k >> 1, :, k & 1, :] for k in range(4)]
    return [view[:, k & 1, :, k >> 1, :] for k in range(4)]


def apply_gate(sv: StateVector, op: GateOp) -> StateVector:
    """Apply one gate in place and return the same state vector.

    Output block ``i`` is ``sum_j U[i, j] * block_j``, written into
    ``sv.amps`` in block order.  A term that reads a block an earlier row
    overwrites is computed before that row runs; the other terms read the
    blocks directly, the diagonal one in place and the rest through one
    scratch block.  Zero entries cost nothing and unit diagonal entries no
    pass, so a diagonal gate allocates nothing, a permutation copies only
    the blocks it moves and a dense 1-qubit gate allocates one state.
    """
    if op.is_measure:
        raise UnsupportedOpError("measurement is handled by sampling, not apply_gate")
    n = sv.num_qubits
    for q in op.qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} outside register of width {n}")
    # Python scalars take the state's dtype in numpy arithmetic.
    u = op.matrix().tolist()
    blocks = _blocks(sv.amps, op.qubits)
    k = len(blocks)
    # Row i overwrites block i, so the terms of later rows that read it
    # are computed up front.
    early = {(i, j): blocks[j] * u[i][j] for i in range(k) for j in range(i) if u[i][j]}
    scratch = None
    for i, out in enumerate(blocks):
        ready = [early.pop((i, j)) for j in range(i) if u[i][j]]
        later = [j for j in range(i + 1, k) if u[i][j]]
        if not u[i][i]:
            # The first term overwrites the block, which no row still reads.
            if ready:
                np.copyto(out, ready.pop())
            else:
                j = later.pop(0)
                np.multiply(blocks[j], u[i][j], out=out)
        elif u[i][i] != 1:
            out *= u[i][i]
        for term in ready:
            out += term
        for j in later:
            if scratch is None:
                scratch = np.empty_like(out)
            np.multiply(blocks[j], u[i][j], out=scratch)
            out += scratch
    return sv


def run(
    c: Circuit, precision: str = "double", max_qubits: int | None = None
) -> StateVector:
    """Evolve |0...0> through every unitary op of ``c`` in order.

    Trailing measurement markers are skipped; sample the result instead.
    """
    sv = init_zero(c.num_qubits, precision, max_qubits)
    for op in c.unitary_ops:
        apply_gate(sv, op)
    return sv


@dataclass
class OutputDistribution:
    """Probabilities over the ``2^n`` basis states (dense array)."""

    num_qubits: int
    probs: np.ndarray

    def as_dict(self, cutoff: float = 0.0) -> dict[str, float]:
        return {
            index_to_bitstring(i, self.num_qubits): float(p)
            for i, p in enumerate(self.probs)
            if p > cutoff
        }

    def most_likely(self) -> str:
        return index_to_bitstring(int(np.argmax(self.probs)), self.num_qubits)

    def marginal(self, qubits: list[int]) -> "OutputDistribution":
        """Distribution over ``qubits`` (in the given order), others summed out."""
        n = self.num_qubits
        grid = self.probs.reshape([2] * n)
        # axis n-1-q holds qubit q; put the kept qubits first, then sum.
        kept_axes = [n - 1 - q for q in qubits]
        grid = np.moveaxis(grid, kept_axes, range(len(qubits)))
        flat = grid.reshape(1 << len(qubits), -1).sum(axis=1)
        # flat index uses qubits[0] as its most-significant bit; reorder to
        # little-endian over the listed qubits.
        m = len(qubits)
        out = np.zeros(1 << m)
        for i, p in enumerate(flat):
            idx = 0
            for pos in range(m):
                if (i >> (m - 1 - pos)) & 1:
                    idx |= 1 << pos
            out[idx] += p
        return OutputDistribution(m, out)


def distribution(sv: StateVector) -> OutputDistribution:
    probs = np.abs(sv.amps.astype(np.complex128, copy=False)) ** 2
    return OutputDistribution(sv.num_qubits, probs)


def sample(sv: StateVector, shots: int, seed: int = 0) -> dict[str, int]:
    """Multinomial measurement counts; identical seeds give identical maps."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    dist = distribution(sv)
    probs = dist.probs / dist.probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {
        index_to_bitstring(i, sv.num_qubits): int(count)
        for i, count in enumerate(counts)
        if count
    }
