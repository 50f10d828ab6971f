"""Dense state-vector simulation backend.

Amplitudes live in a flat array of length ``2^n`` indexed little endian
(qubit 0 = least-significant bit).  Gates update that array in place and
are never expanded to a ``2^n x 2^n`` matrix.  ``run`` and ``apply_gate``
share one planner and one executor.  The planner keeps gates pending while
they commute with what follows, fuses pending gates, and emits the passes
over the state that apply them; its decisions depend on the gates alone,
never on the amplitudes, so ``plan`` returns a circuit's passes without a
state.  The executor then runs the passes in order.

The plan is a list of tuples of plain data, matrices at the state's dtype:

* ``("move", qubits, u)``: a block move of the 2x2 or 4x4 matrix ``u``,
  which has one nonzero entry per row, on ``qubits`` in the matrix order
  of ``gates.py``.
* ``("gemm", lo, u)``: a tiled GEMM of the ``d x d`` matrix ``u`` on the
  ``log2 d`` qubits from ``lo`` up.
* ``("phase", g, a, b)``: a phase pass of the global phase ``g``, the
  angle per qubit ``a`` (length ``n``) and the angle per pair ``b``
  (``n x n``, strictly upper triangular).

How the executor runs each kind:

* Block moves.  A gate views the amplitudes as strided blocks, one block
  per basis value of its target qubits (two for a 1-qubit gate, four for a
  2-qubit gate).  Its matrix has one nonzero entry per row, so a diagonal
  gate (Z, RZ, CZ, CP, RZZ) only scales blocks in place and a permutation
  with phases (X, Y, CNOT, SWAP) moves them along the permutation's cycles,
  one tile at a time through the scratch.
* Tiled GEMM.  A ``d x d`` matrix on the ``log2 d`` qubits from ``lo`` up
  runs as ``U @ tile`` over tiles of the ``(rows, d, 2^lo)`` view.  A tile
  inside one row is a strided ``(d, w)`` matrix that ``matmul`` reads in
  place; a tile of several rows is first copied into the scratch.  The
  product goes to the scratch and is copied back.  For ``lo = 0`` a tile
  is a run of rows of ``amps.reshape(-1, d)``, multiplied by ``U.T``.  The
  scratch holds ``TILE`` amplitudes; ``apply_gate`` and ``run`` allocate it
  once per call and share it between the planner and the executor.
* Phase pass.  A product of diagonal gates multiplies each amplitude by
  ``exp(i (g + sum_q a_q x_q + sum_{p<q} b_pq x_p x_q))``, ``x`` the bits
  of its index: a global phase, an angle per qubit and one per pair, which
  is exact for any product of 1- and 2-qubit diagonal gates.  One pass
  applies it tile by tile: each tile of ``2^13`` amplitudes takes a table
  of its own bits' phase, held in the scratch and shared by every tile,
  and factors that the higher bits give its rows and columns.  The tables
  are built by doubling with complex multiplies, never an ``exp`` per
  amplitude, and hold ``O(2^(n/2))`` entries beside the scratch.

The fusion rules, that is, what the planner keeps pending and when it emits
a pass:

* Blocks.  Qubits fall into bands of 5, band ``b`` holding qubits ``5b``
  up to ``5b + 4`` (the last band may hold fewer).  Each band has at most
  one pending block: a ``2^m x 2^m`` matrix on its ``m`` qubits, built by
  applying each gate that joins it to the matrix itself.  Viewed as a
  ``2m``-qubit state whose high ``m`` bits index its rows, the matrix
  takes the gate on its qubits shifted into those bits through block moves
  and GEMMs (the folds, on at most ``2^10`` elements, run while planning).
  A gate whose qubits all lie in one band joins the band's
  block when it is dense (H, RX, RY) or the block already touches one of
  its qubits; the pending items on its qubits that lie wholly in the band
  are folded into the block first, and the others are applied.  A block is
  applied as one GEMM over the qubits from the lowest to the highest it
  touches, carrying the identity on the others.  In band 0 that GEMM
  starts at qubit 0 and is at least ``_MIN_GEMM_WIDTH`` wide, as one over
  ``amps.reshape(-1, d)``: a view from a qubit below 5 runs in pieces of
  fewer than 32 amplitudes, where numpy's per-piece overhead costs more
  than the GEMM's arithmetic.  A layer of H on 16 qubits is thus four
  passes over the state, one GEMM per band.
* Pending items.  Every other gate becomes an item: its 2x2 or 4x4
  matrix on its qubits, with one nonzero per row, since dense gates always
  join a block (a dense gate on two qubits raises ``UnsupportedOpError``).
  Items have pairwise disjoint qubits, also disjoint from the qubits the
  blocks touch, so everything pending commutes and can be applied in any
  order before a gate that touches it.  Such a gate first applies the
  blocks that touch its qubits.  It then multiplies into the items it
  touches when their qubits and its own number at most two: ``CNOT RZ
  CNOT`` becomes one diagonal item.  Otherwise the touched items are
  applied and the gate becomes an item of its own.  So each item runs as
  a block move, and no dense 2-qubit kernel is needed.
* The phase.  A diagonal item that is due is not applied but parked in
  one pending phase polynomial, which comes before every other pending
  gate.  So it is applied first when an item that is not diagonal or a
  block is applied on a qubit the phase touches; at the end of the plan it
  runs after the items and before the blocks.  Parking decides nothing
  about fusion, so no circuit makes more passes.  A phase of at most
  ``PHASE_PASS_GATES`` gates runs as its gates' block moves, one each as
  if nothing was parked; a longer one runs as one phase pass.  QAOA's cost
  layer (``CNOT RZ CNOT`` on every pair) is thus one pass.

This is the k-qubit gate fusion of Häner & Steiger (arXiv:1704.01127),
with k up to 5 for dense gates and, for diagonal gates, any number of
qubits.

GEMMs run on one BLAS thread (``blas.single_thread``), and the caller's
thread count is restored afterwards: at these sizes OpenBLAS's threads cost
more than they save.

One memory budget bounds both backends: ``2^q`` complex elements, ``q``
being ``budget_qubits()``, that is ``QCSIM_MAX_QUBITS`` when it is set, else
the largest ``q`` whose ``2^q`` complex128 elements fit in the memory the
process can have.  The elements counted are what one piece of work holds at
once: the ``2^n`` amplitudes of a state vector or of a full output
distribution, and the largest step of a contraction plan (both operands plus
the output, per slice).  ``check_budget`` refuses work over the budget with
``CapacityError`` before anything of it is allocated.
"""
from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import blas
from .circuit import Circuit, GateOp
from .errors import CapacityError, ConfigError, UnsupportedOpError

_log = logging.getLogger(__name__)

# Used when the memory the process can have cannot be read.
FALLBACK_MAX_QUBITS = 30
_ENV_MAX_QUBITS = "QCSIM_MAX_QUBITS"
_MEMINFO = "/proc/meminfo"
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
# Bytes of a complex128 element, the widest amplitude either backend
# stores: the budget counts such elements, and the tensor network holds them.
ELEMENT_BYTES = 16

_DTYPES = {"single": np.dtype(np.complex64), "double": np.dtype(np.complex128)}

# Band b, whose gates may fuse into one block, covers qubits
# FUSED_QUBITS * b up to FUSED_QUBITS * (b + 1) - 1.
FUSED_QUBITS = 5
# Amplitudes of scratch (192 KiB at double precision), a multiple of
# 2^FUSED_QUBITS so that it holds whole rows of band 0's GEMM.
# Larger tiles run the GEMMs faster, but with numpy's own ufunc buffers
# (2 x 8192 elements) this is about the most that keeps ``run``'s
# temporaries under half a 16-qubit state.
TILE = 12288
_MIN_GEMM_WIDTH = 4  # a GEMM with inner dimension 2 costs far more per amplitude
# A pending phase of more diagonal gates than this runs as one phase pass;
# one of at most this many runs as its gates' block moves.  At 16 and 18
# qubits a pass costs about as much as 13 block moves of CP or CZ, which
# scale a quarter of the state, and 2-4 of RZZ or 3-8 of RZ, which scale
# all of it (best of 25, 2-vCPU VM): 8 lies between.
PHASE_PASS_GATES = 8
# A phase pass's tile covers the qubits below this: 2^13 amplitudes, whose
# phase table fits the scratch.
_PHASE_TILE_QUBITS = TILE.bit_length() - 1


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


def budget_qubits() -> int:
    """The ``q`` of the budget of ``2^q`` elements (module docstring);
    ``FALLBACK_MAX_QUBITS`` when the memory the process can have cannot be
    read.  A ``QCSIM_MAX_QUBITS`` that is not a non-negative integer raises
    ``ConfigError``."""
    env = os.environ.get(_ENV_MAX_QUBITS)
    if env:
        if not env.strip().isdecimal():
            raise ConfigError(f"{_ENV_MAX_QUBITS} must be a non-negative integer, got {env!r}")
        return int(env)
    available = _available_bytes()
    if available is None:
        return FALLBACK_MAX_QUBITS
    return max(available // ELEMENT_BYTES, 1).bit_length() - 1


def check_budget(elements: int, what: str, itemsize: int = ELEMENT_BYTES) -> None:
    """Raise ``CapacityError`` when ``elements`` of ``itemsize`` bytes,
    which ``what`` needs, are more than the budget of ``2^q`` elements."""
    q = budget_qubits()
    if elements > 1 << q:
        required = elements * itemsize
        raise CapacityError(
            f"{what} needs {required} bytes ({elements} elements), over the "
            f"{q}-qubit budget of 2^{q} elements; set {_ENV_MAX_QUBITS} to override",
            required_bytes=required,
        )


def precision_dtype(precision: str) -> np.dtype:
    """The amplitude dtype of ``precision``, 'single' or 'double'; any other
    precision raises ``ConfigError``."""
    if precision not in _DTYPES:
        raise ConfigError(f"precision must be 'single' or 'double', got {precision!r}")
    return _DTYPES[precision]


def sv_memory_bytes(n: int, precision: str = "single") -> int:
    """Bytes needed for the amplitudes of an ``n``-qubit state vector;
    fewer than one qubit raises ``ConfigError``, as in ``init_zero``."""
    if n < 1:
        raise ConfigError(f"need at least one qubit, got {n}")
    return (1 << n) * precision_dtype(precision).itemsize


@dataclass
class StateVector:
    num_qubits: int
    amps: np.ndarray


def _check_capacity(n: int, precision: str) -> None:
    """Refuse an ``n``-qubit state over the budget, fewer than one qubit,
    or a precision other than 'single' and 'double'."""
    if n < 1:
        raise ConfigError("need at least one qubit")
    check_budget(1 << n, f"{n}-qubit state vector ({precision} precision)",
                 precision_dtype(precision).itemsize)


def init_zero(n: int, precision: str = "double") -> StateVector:
    """|0...0> on ``n`` qubits; refuses sizes over the budget."""
    _check_capacity(n, precision)
    amps = np.zeros(1 << n, dtype=precision_dtype(precision))
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


def _move(amps: np.ndarray, qubits: tuple[int, ...], u: np.ndarray, scratch: np.ndarray) -> None:
    """Apply ``u``, with one nonzero entry per row, on ``qubits`` by block
    moves: output block ``i`` is ``u[i][j] * block_j`` for the one nonzero
    ``u[i][j]`` of row ``i``.  A block the permutation fixes is scaled in
    place (not at all for a unit entry), so a diagonal gate needs no
    scratch; each longer cycle is moved tile by tile, its first tile
    parked in the scratch."""
    blocks = _blocks(amps, qubits)
    u = u.tolist()  # Python scalars take the dtype of ``amps`` in numpy arithmetic
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
            parked = scratch[: piece.size].reshape(piece.shape)
            np.copyto(parked, piece)
            for i, j in zip(cycle, cycle[1:]):
                _scaled_into(blocks[i][ix], blocks[j][ix], u[i][j])
            _scaled_into(blocks[cycle[-1]][ix], parked, u[cycle[-1]][first])


def _gemm(amps: np.ndarray, lo: int, u: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the ``d x d`` matrix ``u`` on qubits ``lo`` to ``lo + log2 d - 1``
    as GEMMs over tiles of the ``(rows, d, 2^lo)`` view, each tile's
    product going through the scratch.  For ``lo = 0`` a tile is a run of
    rows of ``amps.reshape(-1, d)``, multiplied by ``u.T``.  Otherwise a
    tile within one row is already a strided ``(d, w)`` matrix; a tile of
    several rows is first copied into the scratch."""
    d = len(u)
    if lo == 0:
        rows = amps.reshape(-1, d)
        out = scratch.reshape(-1, d)
        for start in range(0, rows.shape[0], out.shape[0]):
            chunk = rows[start:start + out.shape[0]]
            np.matmul(chunk, u.T, out=out[: len(chunk)])
            np.copyto(chunk, out[: len(chunk)])
        return
    view = np.reshape(amps, (-1, d, 1 << lo), copy=False)
    width = view.shape[2]
    size = scratch.size // (2 * d)  # columns of a tile: it and its product fill the scratch
    if width >= size:
        out = scratch[: d * size].reshape(d, size)
        for row in view:
            for start in range(0, width, size):
                tile = row[:, start:start + size]
                np.matmul(u, tile, out=out[:, : tile.shape[1]])
                np.copyto(tile, out[:, : tile.shape[1]])
        return
    for start in range(0, view.shape[0], size // width):
        tile = view[start:start + size // width].transpose(1, 0, 2)
        m = tile[0].size
        ins, outs = scratch[: d * m].reshape(d, m), scratch[d * m: 2 * d * m].reshape(d, m)
        np.copyto(ins.reshape(tile.shape), tile)
        np.matmul(u, ins, out=outs)
        np.copyto(tile, outs.reshape(tile.shape))


def _product_table(out: np.ndarray, factors) -> None:
    """Fill ``out[x]``, for ``x`` below ``2^m``, with ``out[0]`` times
    ``factors[j]`` for every set bit ``j`` of ``x``, by doubling; ``m`` is
    ``len(factors)`` and ``out`` has ``2^m`` rows."""
    for j, factor in enumerate(factors):
        w = 1 << j
        np.multiply(out[:w], factor, out=out[w:2 * w])


def _phase_table(out: np.ndarray, ea: np.ndarray, w: np.ndarray) -> None:
    """Fill the flat ``out`` of ``2^m`` entries, ``m = len(ea)``, with the
    phase of each basis state of ``m`` qubits: ``out[0]`` times ``ea[j]``
    for every set bit ``j`` and ``w[i, j]`` for every pair of set bits.
    Bit ``j`` doubles the table, and the factor it brings depends on the
    bits below it, so those factors double along: ``lin[x, k]`` is bit
    ``k``'s factor when the bits below it read ``x``.  ``lin`` holds
    ``2^(m-1) x m`` entries, so this is for tables of a few qubits."""
    m = len(ea)
    lin = np.empty((max(len(out) // 2, 1), m), dtype=np.complex128)
    lin[0] = ea
    for j in range(m):
        size = 1 << j
        np.multiply(out[:size], lin[:size, j], out=out[size:2 * size])
        if j + 1 < m:
            np.multiply(lin[:size], w[j], out=lin[size:2 * size])


def _phase_pass(amps: np.ndarray, g: float, a: np.ndarray, b: np.ndarray,
                scratch: np.ndarray) -> None:
    """Multiply each amplitude by ``exp(i (g + a.x + x.b.x))``, ``x`` the bits
    of its index and ``b`` strictly upper triangular, in one tiled pass.

    A tile is ``2^t`` amplitudes, ``t = min(n, 13)``, viewed as rows over
    its high bits ``M`` and columns over its low bits ``L``.  Its bits'
    own phase is one table in the scratch, the same for every tile: row 0
    holds the phase of ``L``, each bit of ``M`` doubles the rows with a
    factor per column, and the pairs within ``M`` add a factor per row.
    The bits above the tile add a factor per row and one per column, so a
    tile takes three broadcast multiplies in place.  Those factors are
    built for a group of ``2^ui`` tiles at once (``2^ui x 2^|M|`` entries,
    at most four times ``2^ceil(n/2)``), one group per value of the bits
    above.  Every table is built by complex multiplies from ``exp`` of the
    ``n + n^2`` angles."""
    n = amps.size.bit_length() - 1
    t = min(n, _PHASE_TILE_QUBITS)
    low = t // 2  # L: tile bits below ``low``; M: the rest
    ea, w = np.exp(1j * a), np.exp(1j * (b + b.T))
    own = scratch[: 1 << t].reshape(1 << (t - low), 1 << low)
    own[0, 0] = 1
    _phase_table(own[0], ea[:low], w[:low, :low])
    # m_factors[x, p]: the factor of M's bit p when L reads x.
    m_factors = np.empty((1 << low, t - low), dtype=np.complex128)
    m_factors[0] = ea[low:t]
    _product_table(m_factors, w[:low, low:t])
    _product_table(own, m_factors.T)
    pairs = np.ones(len(own), dtype=np.complex128)
    _phase_table(pairs, np.ones(t - low), w[low:t, low:t])
    own *= pairs[:, None]

    ui = min(n - t, max(0, (n + 1) // 2 + 2 - (t - low)))
    inner = range(t, t + ui)
    view = amps.reshape(-1, 1 << ui, 1 << (t - low), 1 << low)
    c = np.empty(1 << ui, dtype=np.complex128)
    factors = np.empty((1 << ui, t), dtype=np.complex128)  # [i, p]: tile bit p's factor in tile i
    by_m = np.empty((1 << (t - low), 1 << ui), dtype=amps.dtype)
    by_l = np.empty((1 << low, 1 << ui), dtype=amps.dtype)
    for o, group in enumerate(view):
        bits = [q for q in range(t + ui, n) if o >> (q - t - ui) & 1]
        # The bits above the group: their phase, and their factor on each
        # lower bit.
        outer = np.prod(w[: t + ui, bits], axis=1)
        c[0] = np.exp(1j * (g + a[bits].sum() + b[np.ix_(bits, bits)].sum()))
        _phase_table(c, ea[inner] * outer[t:], w[t:t + ui, t:t + ui])
        factors[0] = outer[:t]
        _product_table(factors, w[inner, :t])
        by_m[0] = c
        _product_table(by_m, factors.T[low:])
        by_l[0] = 1
        _product_table(by_l, factors.T[:low])
        for i, tile in enumerate(group):
            tile *= own
            tile *= by_m[:, i, None]
            tile *= by_l[:, i]


def _check_qubits(op: GateOp, n: int) -> None:
    if op.is_measure:
        raise UnsupportedOpError("a measure is an end-of-circuit marker, not a gate")
    for q in op.qubits:
        if not 0 <= q < n:
            raise ConfigError(f"qubit {q} outside register of width {n}")


_I2 = np.eye(2, dtype=np.complex128)
_SWAPPED = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])  # a 4x4 matrix with its qubits swapped


class _Item:
    """A pending gate: a 2x2 or 4x4 matrix ``u`` on ``qubits``, ``sparse``
    when it has one nonzero per row (diagonal or permutation), ``diagonal``
    when those are its diagonal."""

    __slots__ = ("qubits", "u", "sparse", "diagonal")

    def __init__(self, qubits: tuple[int, ...], u: np.ndarray):
        self.qubits, self.u = qubits, u
        # Every row of a unitary has a nonzero entry.
        self.sparse = np.count_nonzero(u) == len(u)
        self.diagonal = self.sparse and np.count_nonzero(np.diagonal(u)) == len(u)

    def on(self, pair: tuple[int, int]) -> np.ndarray:
        """The matrix as a 4x4 matrix on ``pair``, which holds its qubits."""
        if len(self.qubits) == 2:
            return self.u if self.qubits == pair else self.u[_SWAPPED]
        return np.kron(self.u, _I2) if self.qubits[0] == pair[0] else np.kron(_I2, self.u)


class _Phase:
    """Diagonal gates parked for later: the phase
    ``exp(i (g + sum_q a[q] x_q + sum_{p<q} b[p, q] x_p x_q))`` of the basis
    state whose bits are ``x``, which is exact for any product of 1- and
    2-qubit diagonal gates.  ``mask`` has bit ``q`` set when a gate
    touches qubit ``q``; ``gates`` keeps the gates while there are at most
    ``PHASE_PASS_GATES`` of them."""

    __slots__ = ("g", "a", "b", "mask", "count", "gates")

    def __init__(self, n: int):
        self.g, self.a, self.b = 0.0, np.zeros(n), np.zeros((n, n))
        self.mask = self.count = 0
        self.gates: list[_Item] = []

    def add(self, item: _Item) -> None:
        phi = np.angle(np.diagonal(item.u)).tolist()
        self.g += phi[0]
        if len(item.qubits) == 1:
            self.a[item.qubits[0]] += phi[1] - phi[0]
        else:
            # Row 2 x_p + x_q of a 2-qubit matrix on (p, q).
            p, q = item.qubits
            self.a[q] += phi[1] - phi[0]
            self.a[p] += phi[2] - phi[0]
            self.b[min(p, q), max(p, q)] += phi[3] - phi[2] - phi[1] + phi[0]
        for q in item.qubits:
            self.mask |= 1 << q
        self.count += 1
        if self.count <= PHASE_PASS_GATES:
            self.gates.append(item)


class _Kernel:
    """Plans the passes over an ``n``-qubit state by the fusion rules of the
    module docstring, without the state; the state's dtype is the
    scratch's, which the blocks' folds use and the executor then shares.

    ``blocks`` holds the pending block of each band that has one,
    ``block_mask`` the qubits they touch, ``items`` each pending item under
    each of its qubits, and ``phase`` the parked diagonal gates.  Emitted
    passes go to ``passes``."""

    def __init__(self, n: int, scratch: np.ndarray):
        self.n, self.scratch = n, scratch
        self.blocks: dict[int, np.ndarray] = {}  # by band; a band without one has identity
        self.block_mask = 0
        self.items: dict[int, _Item] = {}
        self.phase = _Phase(n)
        self.passes: list[tuple] = []

    def plan(self, ops) -> list[tuple]:
        """The passes that apply ``ops`` to the state: every gate's, then
        whatever is pending at the end as the items, the phase (which now
        holds the diagonal ones) and the blocks.  A bad op raises before
        any pass is returned."""
        for op in ops:
            self.apply(op)
        for item in dict.fromkeys(self.items.values()):
            self._apply_item(item)
        self._apply_phase()
        for band in list(self.blocks):
            self._apply_block(band)
        return self.passes

    def apply(self, op: GateOp) -> None:
        _check_qubits(op, self.n)
        gate = _Item(op.qubits, op.matrix())
        if not gate.sparse and len(gate.qubits) > 1:
            raise UnsupportedOpError(f"no kernel for a dense {len(gate.qubits)}-qubit gate")
        touched = list(dict.fromkeys(self.items[q] for q in gate.qubits if q in self.items))
        band = gate.qubits[0] // FUSED_QUBITS
        if all(q // FUSED_QUBITS == band for q in gate.qubits) and (
                not gate.sparse or any(self.block_mask >> q & 1 for q in gate.qubits)):
            for item in touched:
                if all(q // FUSED_QUBITS == band for q in item.qubits):
                    for q in item.qubits:
                        del self.items[q]
                    self._fold(band, item)
                else:
                    self._apply_item(item)
            self._fold(band, gate)
            return
        for band in {q // FUSED_QUBITS for q in gate.qubits if self.block_mask >> q & 1}:
            self._apply_block(band)
        if len(set(gate.qubits).union(*(item.qubits for item in touched))) > 2:
            for item in touched:
                self._apply_item(item)
        elif touched:
            gate = self._fuse(gate, touched)
        for q in gate.qubits:
            self.items[q] = gate

    @staticmethod
    def _fuse(gate: _Item, touched: list[_Item]) -> _Item:
        """``gate`` times the items it touches, as one item on their qubits."""
        if len(gate.qubits) == 1 and len(touched[0].qubits) == 1:
            return _Item(gate.qubits, gate.u @ touched[0].u)
        pair = gate.qubits if len(gate.qubits) == 2 else touched[0].qubits
        u = gate.on(pair)
        for item in touched:
            u = u @ item.on(pair)
        return _Item(pair, u)

    def _apply_item(self, item: _Item) -> None:
        """Apply one pending item: park a diagonal one in the phase, and
        move a permutation's blocks after the phase if it meets them."""
        for q in item.qubits:
            del self.items[q]
        if item.diagonal:
            self.phase.add(item)
            return
        self._apply_phase(sum(1 << q for q in item.qubits))
        self.passes.append(("move", item.qubits, item.u.astype(self.scratch.dtype, copy=False)))

    def _apply_phase(self, mask: int = -1) -> None:
        """Apply the parked diagonal gates if they touch a qubit of ``mask``
        (any qubit by default), then reset the phase to identity."""
        if not self.phase.mask & mask:
            return
        phase, self.phase = self.phase, _Phase(self.n)
        if phase.count <= PHASE_PASS_GATES:
            self.passes += [("move", item.qubits, item.u.astype(self.scratch.dtype, copy=False))
                            for item in phase.gates]
        else:
            self.passes.append(("phase", phase.g, phase.a, phase.b))

    def _width(self, band: int) -> int:
        return min(FUSED_QUBITS, self.n - band * FUSED_QUBITS)

    def _fold(self, band: int, gate: _Item) -> None:
        """Multiply ``gate``, on qubits of ``band``, into the band's block.
        The block's row index is its high ``m`` bits, so the gate acts on
        its qubits shifted there."""
        m = self._width(band)
        block = self.blocks.get(band)
        if block is None:
            block = self.blocks[band] = np.eye(1 << m, dtype=self.scratch.dtype).ravel()
        shifted = tuple(q - band * FUSED_QUBITS + m for q in gate.qubits)
        if gate.sparse:
            _move(block, shifted, gate.u, self.scratch)
        else:
            _gemm(block, shifted[0], gate.u.astype(block.dtype, copy=False), self.scratch)
        for q in gate.qubits:
            self.block_mask |= 1 << q

    def _apply_block(self, band: int) -> None:
        """Apply the band's pending block as one GEMM, after the phase if
        it meets the block's qubits."""
        m, first = self._width(band), band * FUSED_QUBITS
        mask = self.block_mask & ((1 << m) - 1) << first
        self.block_mask &= ~mask
        self._apply_phase(mask)
        mask >>= first
        lo = 0 if band == 0 else (mask & -mask).bit_length() - 1
        d = 1 << (mask.bit_length() - lo)
        if band == 0:
            d = max(d, min(_MIN_GEMM_WIDTH, 1 << m))
        # The rows and columns whose bits outside ``lo`` to ``lo + log2 d - 1`` read 0.
        u = self.blocks.pop(band).reshape(1 << m, 1 << m)[: d << lo: 1 << lo, : d << lo: 1 << lo]
        self.passes.append(("gemm", first + lo, u))


_PASS_KINDS = {"move": _move, "gemm": _gemm, "phase": _phase_pass}


def _execute(amps: np.ndarray, passes: list[tuple], scratch: np.ndarray) -> None:
    """Run ``passes`` over ``amps`` in order, through one scratch.  Each
    entry of ``passes`` is set to None as it runs, so that a GEMM's block
    is freed once it has run."""
    for i, (kind, *args) in enumerate(passes):
        passes[i] = None
        _PASS_KINDS[kind](amps, *args, scratch)


def plan(c: Circuit, precision: str = "double") -> list[tuple]:
    """The passes ``run`` makes over the state of ``c`` at ``precision``, in
    the format of the module docstring, planned without the state.  A bad
    op raises as in ``run``."""
    scratch = np.empty(TILE, dtype=precision_dtype(precision))
    return _Kernel(c.num_qubits, scratch).plan(c.unitary_ops)


def pass_counts(passes: list[tuple]) -> dict[str, int]:
    """The number of passes of each kind: block moves, GEMMs, phase passes."""
    return {kind: sum(p[0] == kind for p in passes) for kind in _PASS_KINDS}


def apply_gate(sv: StateVector, op: GateOp) -> StateVector:
    """Apply one gate in place and return the same state vector.

    The gate is planned as in ``run`` and applied at once: a dense gate
    (H, RX, RY) as a block of its own, one tiled GEMM, and a diagonal or
    permutation gate as one block move.  Either way the gate allocates at
    most a scratch of ``TILE`` amplitudes and a block of ``2^10``, and it
    runs on one BLAS thread, restoring the caller's BLAS thread count
    afterwards.
    """
    scratch = np.empty(TILE, dtype=sv.amps.dtype)
    with blas.single_thread():
        _execute(sv.amps, _Kernel(sv.num_qubits, scratch).plan([op]), scratch)
    return sv


def run(c: Circuit, precision: str = "double") -> StateVector:
    """Evolve |0...0> through every unitary op of ``c`` in order.

    ``run`` checks the qubit budget, plans the passes (so a bad op raises
    before the state is allocated), then allocates the state and executes
    them, planning and executing on one BLAS thread and restoring the
    caller's BLAS thread count afterwards.  Beyond the state itself it
    holds a scratch of ``TILE`` amplitudes, the plan (each GEMM's matrix a
    view of a block of at most ``2^10`` elements, each phase pass's
    ``n^2`` angles) and, during a phase pass, tables of ``O(2^(n/2))``
    entries.  It logs one DEBUG record on the ``qcsim.statevector`` logger:
    the gate count and the plan's passes over the state, split into block
    moves, GEMMs and phase passes.

    A trailing measure is an end-of-circuit marker, not a gate, and is
    skipped.
    """
    _check_capacity(c.num_qubits, precision)
    scratch = np.empty(TILE, dtype=precision_dtype(precision))
    ops = c.unitary_ops
    with blas.single_thread():
        passes = _Kernel(c.num_qubits, scratch).plan(ops)
        counts = pass_counts(passes)
        sv = init_zero(c.num_qubits, precision)
        _execute(sv.amps, passes, scratch)
    _log.debug(
        "run %s: %d gates, %d passes over the state "
        "(%d block moves, %d GEMMs, %d phase passes)",
        c.name or "circuit", len(ops), len(passes), *counts.values(),
    )
    return sv


@dataclass
class OutputDistribution:
    """Probabilities over the ``2^n`` basis states (dense array)."""

    num_qubits: int
    probs: np.ndarray


def distribution(sv: StateVector) -> OutputDistribution:
    probs = np.abs(sv.amps.astype(np.complex128, copy=False)) ** 2
    return OutputDistribution(sv.num_qubits, probs)
