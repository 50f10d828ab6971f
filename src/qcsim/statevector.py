"""Dense state-vector simulation backend.

Amplitudes live in a flat array of length ``2^n`` indexed little endian
(qubit 0 = least-significant bit).  Gates update that array in place and
are never expanded to a ``2^n x 2^n`` matrix.  Three primitives do the
work, shared by ``apply_gate`` and ``run``:

* Block moves.  A gate views the amplitudes as strided blocks, one block
  per basis value of its target qubits (two for a 1-qubit gate, four for a
  2-qubit gate).  When its matrix has one nonzero entry per row, a diagonal
  gate (Z, RZ, CZ, CP, RZZ) only scales blocks in place and a permutation
  with phases (X, Y, CNOT, SWAP) moves them along the permutation's cycles,
  one tile at a time through the scratch.
* Tiled GEMM.  Any other gate, all of them 1-qubit (H, RX, RY), runs as
  ``U @ tile`` over tiles of the ``(rows, 2, 2^q)`` view of qubit ``q``.
  A tile inside one row is a strided ``(2, w)`` matrix that ``matmul``
  reads in place; a tile of several rows is first copied into the
  scratch.  The product goes to the scratch and is copied back.  The
  scratch holds ``TILE`` amplitudes; ``apply_gate`` and ``run`` allocate
  it once per call, on the first gate that needs it.
* The low block.  Gates whose qubits all lie below ``k = min(5, n)`` are
  fused into one pending ``2^k x 2^k`` matrix.  The matrix is built by
  applying each such gate to the matrix itself: viewed as a ``2k``-qubit
  state whose high ``k`` bits index its rows, it takes the gate on qubits
  shifted by ``k`` through the two primitives above.  It is applied as one
  tiled GEMM over ``amps.reshape(-1, d)``, ``d`` the smallest power of two
  (at least 4) that covers the qubits its gates touch.  ``run`` applies it
  before a gate that touches both a low and a high qubit and at the end of
  the circuit; gates on high qubits only commute with it.  On qubits below
  5 a block view runs in pieces of fewer than 32 amplitudes, where numpy's
  per-piece overhead costs more than the fused GEMM's arithmetic.

GEMMs run on one BLAS thread (``blas.single_thread``), and the caller's
thread count is restored afterwards: at these sizes OpenBLAS's threads cost
more than they save.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import blas
from .circuit import Circuit, GateOp, index_to_bitstring
from .errors import CapacityError, UnsupportedOpError

# Used when the memory the process can have cannot be read.
FALLBACK_MAX_QUBITS = 30
_ENV_MAX_QUBITS = "QCSIM_MAX_QUBITS"
_MEMINFO = "/proc/meminfo"
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
# The budget counts complex128 elements, the widest amplitude either
# backend stores.
_BUDGET_BYTES_PER_ELEMENT = 16

_DTYPES = {"single": np.complex64, "double": np.complex128}
_BYTES_PER_AMP = {"single": 8, "double": 16}

FUSED_QUBITS = 5  # the low block covers qubits below min(FUSED_QUBITS, n)
# Amplitudes of scratch (192 KiB at double precision).  Larger tiles run
# the GEMMs faster, but with numpy's own ufunc buffers (2 x 8192 elements)
# this is about the most that keeps ``run``'s temporaries under half a
# 16-qubit state.
TILE = 12288
_MIN_GEMM_WIDTH = 4  # a GEMM with inner dimension 2 costs far more per amplitude


def _available_bytes() -> int | None:
    """Bytes this process can still allocate: ``MemAvailable``, capped by
    the cgroup's ``memory.max`` when that file exists; None when
    ``MemAvailable`` cannot be read."""
    try:
        with open(_MEMINFO) as meminfo:
            available = next(
                int(line.split()[1]) * 1024 for line in meminfo
                if line.startswith("MemAvailable:")
            )
    except (OSError, StopIteration, ValueError, IndexError):
        return None
    try:
        with open(_CGROUP_MEMORY_MAX) as f:
            cap = f.read().strip()
    except OSError:
        return available
    return min(available, int(cap)) if cap.isdigit() else available


def _resolve_max_qubits(max_qubits: int | None) -> int:
    """The qubit budget: ``max_qubits`` if given, else ``QCSIM_MAX_QUBITS``,
    else the largest ``q`` whose ``2^q`` complex128 elements fit in the
    memory the process can have."""
    if max_qubits is not None:
        return max_qubits
    env = os.environ.get(_ENV_MAX_QUBITS)
    if env:
        return int(env)
    available = _available_bytes()
    if available is None:
        return FALLBACK_MAX_QUBITS
    return max(available // _BUDGET_BYTES_PER_ELEMENT, 1).bit_length() - 1


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


def _tiles(shape: tuple[int, ...], size: int):
    """Index tuples that split an array of ``shape`` into pieces of at most
    ``size`` elements, in order."""
    inner = math.prod(shape[1:])
    if inner <= size:
        step = size // inner
        for start in range(0, shape[0], step):
            yield (slice(start, start + step),)
    else:
        for i in range(shape[0]):
            for rest in _tiles(shape[1:], size):
                yield (i, *rest)


def _scaled_into(out: np.ndarray, block: np.ndarray, x) -> None:
    if x == 1:
        np.copyto(out, block)  # faster than a multiply by one
    else:
        np.multiply(block, x, out=out)


def _gemm_1q(amps: np.ndarray, q: int, u: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the 1-qubit matrix ``u`` on qubit ``q`` as ``u @ tile`` over
    tiles of the ``(rows, 2, 2^q)`` view, each tile's product going through
    the scratch.  A tile within one row is already a strided ``(2, w)``
    matrix; a tile of several rows is first copied into the scratch."""
    view = np.reshape(amps, (-1, 2, 1 << q), copy=False)
    width = view.shape[2]
    size = scratch.size // 4  # amplitudes per basis value of qubit q in a tile
    if width >= size:
        out = scratch[: 2 * size].reshape(2, size)
        for row in view:
            for start in range(0, width, size):
                tile = row[:, start:start + size]
                np.matmul(u, tile, out=out[:, : tile.shape[1]])
                np.copyto(tile, out[:, : tile.shape[1]])
        return
    for start in range(0, view.shape[0], size // width):
        tile = view[start:start + size // width].transpose(1, 0, 2)
        m = tile[0].size
        ins, outs = scratch[: 2 * m].reshape(2, m), scratch[2 * m: 4 * m].reshape(2, m)
        np.copyto(ins.reshape(tile.shape), tile)
        np.matmul(u, ins, out=outs)
        np.copyto(tile, outs.reshape(tile.shape))


def _check_qubits(op: GateOp, n: int) -> None:
    if op.is_measure:
        raise UnsupportedOpError("measurement is handled by sampling, not apply_gate")
    for q in op.qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} outside register of width {n}")


class _Kernel:
    """Applies gates to one state.  Gates on qubits below ``k`` multiply
    the pending low block; the rest go straight to the state, after a flush
    of the low block when they also touch a qubit below ``k``."""

    def __init__(self, sv: StateVector):
        self.sv = sv
        self.k = min(FUSED_QUBITS, sv.num_qubits)
        self.low = None  # pending matrix as a flat 2k-qubit state; None is identity
        self.top = -1  # highest qubit a pending gate touches

    @functools.cached_property
    def scratch(self) -> np.ndarray:
        return np.empty(TILE, dtype=self.sv.amps.dtype)

    def apply(self, op: GateOp) -> None:
        _check_qubits(op, self.sv.num_qubits)
        below = [q < self.k for q in op.qubits]
        if all(below):
            if self.low is None:
                self.low = np.eye(1 << self.k, dtype=self.sv.amps.dtype).ravel()
            # The matrix's row index is its high k bits.
            self._apply(self.low, tuple(q + self.k for q in op.qubits), op.matrix())
            self.top = max(self.top, *op.qubits)
            return
        if any(below):
            self.flush()
        self._apply(self.sv.amps, op.qubits, op.matrix())

    def _apply(self, amps: np.ndarray, qubits: tuple[int, ...], u: np.ndarray) -> None:
        """Apply the gate matrix ``u`` on ``qubits`` of ``amps`` in place."""
        if np.all(np.count_nonzero(u, axis=1) == 1):
            # Python scalars take the state's dtype in numpy arithmetic.
            self._move(_blocks(amps, qubits), u.tolist())
        elif len(qubits) == 1:
            _gemm_1q(amps, qubits[0], u.astype(amps.dtype, copy=False), self.scratch)
        else:  # every 2-qubit kind is diagonal or a permutation
            raise UnsupportedOpError(f"no kernel for a dense {len(qubits)}-qubit gate")

    def _move(self, blocks: list[np.ndarray], u: list[list]) -> None:
        """Output block ``i`` is ``u[i][j] * block_j`` for the one nonzero
        ``u[i][j]`` of row ``i``.  A block the permutation fixes is scaled in
        place (not at all for a unit entry), so a diagonal gate needs no
        scratch; each longer cycle is moved tile by tile, its first tile
        parked in the scratch."""
        src = [next(j for j, x in enumerate(row) if x) for row in u]
        seen = set()
        for first in range(len(blocks)):
            if first in seen:
                continue
            cycle = [first]
            while src[cycle[-1]] != first:
                cycle.append(src[cycle[-1]])
            seen.update(cycle)
            if len(cycle) == 1:
                if u[first][first] != 1:
                    blocks[first] *= u[first][first]
                continue
            for ix in _tiles(blocks[first].shape, TILE):
                piece = blocks[first][ix]
                parked = self.scratch[: piece.size].reshape(piece.shape)
                np.copyto(parked, piece)
                for i, j in zip(cycle, cycle[1:]):
                    _scaled_into(blocks[i][ix], blocks[j][ix], u[i][j])
                _scaled_into(blocks[cycle[-1]][ix], parked, u[cycle[-1]][first])

    def flush(self) -> None:
        """Apply the pending low block to the state as one tiled GEMM over
        ``amps.reshape(-1, d)``, then reset it to identity.  Only the
        block's top-left ``d x d`` corner is used: from qubit ``log2 d`` up
        it carries the identity."""
        if self.low is None:
            return
        full = 1 << self.k
        d = max(2 << self.top, min(_MIN_GEMM_WIDTH, full))
        transposed = self.low.reshape(full, full)[:d, :d].T
        rows = self.sv.amps.reshape(-1, d)
        out = self.scratch.reshape(-1, d)
        for start in range(0, rows.shape[0], out.shape[0]):
            chunk = rows[start:start + out.shape[0]]
            np.matmul(chunk, transposed, out=out[: len(chunk)])
            np.copyto(chunk, out[: len(chunk)])
        self.low, self.top = None, -1


def apply_gate(sv: StateVector, op: GateOp) -> StateVector:
    """Apply one gate in place and return the same state vector.

    A gate on qubits below ``min(5, n)`` becomes a low block of its own,
    applied as one GEMM over ``amps.reshape(-1, d)``.  Any other gate moves
    blocks (diagonal and permutation gates) or runs as a tiled GEMM (H, RX,
    RY).  Either way the gate allocates at most a scratch of ``TILE``
    amplitudes, and it runs on one BLAS thread, restoring the caller's
    BLAS thread count afterwards.
    """
    kernel = _Kernel(sv)
    with blas.single_thread():
        kernel.apply(op)
        kernel.flush()
    return sv


def run(
    c: Circuit, precision: str = "double", max_qubits: int | None = None
) -> StateVector:
    """Evolve |0...0> through every unitary op of ``c`` in order.

    Gates on qubits below ``k = min(5, n)`` are fused into one pending
    ``2^k x 2^k`` matrix, which is applied as one tiled GEMM before the
    next gate that touches both a low and a high qubit and at the end;
    every other gate is applied as it comes, through the block moves or a
    tiled GEMM.  The whole gate loop runs on one BLAS thread and restores
    the caller's BLAS thread count afterwards.  Beyond the state itself,
    ``run`` holds a scratch of ``TILE`` amplitudes and the ``2^k x 2^k``
    matrix.

    Trailing measurement markers are skipped; sample the result instead.
    """
    sv = init_zero(c.num_qubits, precision, max_qubits)
    kernel = _Kernel(sv)
    with blas.single_thread():
        for op in c.unitary_ops:
            kernel.apply(op)
        kernel.flush()
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
