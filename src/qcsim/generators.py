"""Parameterized benchmark circuit families.

Eight families, each scalable in the qubit count ``n`` and deterministic for
a given :class:`GeneratorSpec` (seeded families draw every random choice from
``seed``; seedless families use a fixed golden-ratio angle schedule).

A spec is checked when it is made and holds the values its circuit is built
with.  The knobs default to P=1, k=0.5, M=floor(k n), L=1, T=1, seed=0 and
no dual oracle; ``n >= 2``, ``0 <= k <= 1``, ``P, L, T >= 1`` and
``seed, M >= 0`` are required, else ``ConfigError``.  A knob spelled out
at its default gives a spec equal to one that leaves it out.

Gate-count identities (measurements excluded), with ``P/L/T`` the layer
knobs, ``M`` the one-bit count and ``C2 = floor(n/2)``:

===================  ==============================  =================
family               total gates                     multi-qubit gates
===================  ==============================  =================
qaoa                 (3/2) P n (n-1) + 2n            P n (n-1)
qft                  n (n+1) / 2 + C2                (n^2 - n)/2 + C2
vqe                  L (5n - 1) + n                  L (n - 1)
hamiltonian          3 T (2n - 1)                    T (n - 1)
bernstein-vazirani   2n + M                          M
hidden shift         3n + 2M + C2 (+C2 with the      C2 (doubled with
                     dual oracle enabled)            the dual oracle)
qpe                  n(n-1)/2 + 2n-1 + floor((n-1)/2)   (same - n + 2)
random               layer-structured, E[multi] =    per-seed
                     k n C2
===================  ==============================  =================

Bernstein-Vazirani counts ``n`` as the full register: the highest qubit is
the phase-kickback ancilla and the hidden string lives on the other ``n-1``.

The hidden-shift family defaults to a single application of the bent-function
CZ layer, which is what the census above describes.  Recovering the shift
requires querying the (self-dual) function a second time; enable
``dual_oracle`` for the algorithmically complete variant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .circuit import Circuit
from .errors import ConfigError
from .gates import GateKind

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Trotter-step constants for the spin-chain evolution.
_HSIM_DT = 0.1
_HSIM_FIELD = 1.0
_HSIM_COUPLING = 1.0

# Activity ramp for the random family: qubit i carries weight 1 + 4 i/(n-1),
# mimicking the uneven coupler participation of supremacy-style layouts.
_RANDOM_RAMP_SPAN = 4.0


class Family(Enum):
    QAOA = "qaoa"
    RANDOM = "random"
    QPE = "qpe"
    QFT = "qft"
    VQE = "vqe"
    HAMILTONIAN = "hamiltonian"
    HIDDEN_SHIFT = "hiddenshift"
    BERNSTEIN_VAZIRANI = "bv"


_ALIASES = {
    "qaoa": Family.QAOA,
    "random": Family.RANDOM,
    "qpe": Family.QPE,
    "qft": Family.QFT,
    "vqe": Family.VQE,
    "hamiltonian": Family.HAMILTONIAN,
    "hamsim": Family.HAMILTONIAN,
    "hiddenshift": Family.HIDDEN_SHIFT,
    "hidden-shift": Family.HIDDEN_SHIFT,
    "hs": Family.HIDDEN_SHIFT,
    "bv": Family.BERNSTEIN_VAZIRANI,
    "bernsteinvazirani": Family.BERNSTEIN_VAZIRANI,
    "bernstein-vazirani": Family.BERNSTEIN_VAZIRANI,
}


def family_from_name(name: str) -> Family:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ConfigError(f"unknown circuit family {name!r}; choose from {sorted(set(_ALIASES))}")
    return _ALIASES[key]


# Which optional knobs each family actually reads.
_RELEVANT = {
    Family.QAOA: {"p_layers"},
    Family.RANDOM: {"k", "seed"},
    Family.QPE: set(),
    Family.QFT: set(),
    Family.VQE: {"l_layers"},
    Family.HAMILTONIAN: {"t_steps"},
    Family.HIDDEN_SHIFT: {"k", "m", "seed", "dual_oracle"},
    Family.BERNSTEIN_VAZIRANI: {"k", "m", "seed"},
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Family, size and knobs of one benchmark circuit, checked when made.

    The knobs hold the values the circuit is built with: ``p_layers=1``
    (QAOA layers P), ``k=0.5`` (one-bit fraction / pairing probability),
    ``m=None`` (one-bit count M; None means ``floor(k n)``), ``l_layers=1``
    (VQE layers L), ``t_steps=1`` (Trotter steps T), ``seed=0`` and
    ``dual_oracle=False``.  A spec with ``n < 2``, ``k`` outside [0, 1], a
    layer or step count below 1, or a negative ``seed`` or ``m`` raises
    ``ConfigError``.
    """

    family: Family
    n: int
    p_layers: int = 1
    k: float = 0.5
    m: int | None = None
    l_layers: int = 1
    t_steps: int = 1
    seed: int = 0
    dual_oracle: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ConfigError(f"benchmark circuits need n >= 2, got {self.n}")
        if not 0.0 <= self.k <= 1.0:
            raise ConfigError(f"k must lie in [0, 1], got {self.k}")
        for name, low in (("p_layers", 1), ("l_layers", 1), ("t_steps", 1), ("seed", 0), ("m", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")

    @property
    def ones(self) -> int:
        """The one-bit count M: ``m``, or ``floor(k n)`` when ``m`` is None."""
        return int(self.k * self.n) if self.m is None else self.m


def _angle(index: int) -> float:
    """Deterministic, non-degenerate angle schedule (golden-ratio sequence)."""
    return 2.0 * math.pi * (((index + 1) * _GOLDEN) % 1.0)


def generate(spec: GeneratorSpec) -> Circuit:
    """Build the circuit described by ``spec``.

    Identical specs always produce structurally identical circuits.  Each
    knob set away from its default that the family does not read is named
    in ``params["warning"]``.
    """
    builder = {
        Family.QAOA: _build_qaoa,
        Family.RANDOM: _build_random,
        Family.QPE: _build_qpe,
        Family.QFT: _build_qft,
        Family.VQE: _build_vqe,
        Family.HAMILTONIAN: _build_hamiltonian,
        Family.HIDDEN_SHIFT: _build_hidden_shift,
        Family.BERNSTEIN_VAZIRANI: _build_bernstein_vazirani,
    }[spec.family]
    circuit = builder(spec)
    circuit.name = f"{spec.family.value}-{spec.n}"
    circuit.params.setdefault("family", spec.family.value)
    circuit.params.setdefault("n", spec.n)
    ignored = [f.name for f in fields(spec)[2:]
               if f.name not in _RELEVANT[spec.family] and getattr(spec, f.name) != f.default]
    if ignored:
        circuit.params["warning"] = f"ignored parameters: {', '.join(sorted(ignored))}"
    return circuit


# -- families ----------------------------------------------------------


def _build_qaoa(spec: GeneratorSpec) -> Circuit:
    n, p = spec.n, spec.p_layers
    c = Circuit(n, params={"p_layers": p})
    for q in range(n):
        c.h(q)
    idx = 0
    for layer in range(p):
        gamma = _angle(idx)
        idx += 1
        for a in range(n):
            for b in range(a + 1, n):
                c.cnot(a, b)
                c.rz(b, gamma)
                c.cnot(a, b)
    beta = _angle(idx)
    for q in range(n):
        c.rx(q, beta)
    return c


def _build_qft_ops(c: Circuit, qubits: list[int]) -> None:
    m = len(qubits)
    for i in range(m):
        c.h(qubits[i])
        for j in range(i + 1, m):
            c.cp(qubits[j], qubits[i], math.pi / (2 ** (j - i)))
    for i in range(m // 2):
        c.swap(qubits[i], qubits[m - 1 - i])


def _build_qft(spec: GeneratorSpec) -> Circuit:
    c = Circuit(spec.n)
    _build_qft_ops(c, list(range(spec.n)))
    return c


def _build_inverse_qft_ops(c: Circuit, qubits: list[int]) -> None:
    m = len(qubits)
    for i in range(m // 2):
        c.swap(qubits[i], qubits[m - 1 - i])
    for i in reversed(range(m)):
        for j in reversed(range(i + 1, m)):
            c.cp(qubits[j], qubits[i], -math.pi / (2 ** (j - i)))
        c.h(qubits[i])


def _build_qpe(spec: GeneratorSpec) -> Circuit:
    # n-1 counting qubits estimate the eigenphase of a single-qubit phase
    # rotation acting on the top qubit, prepared in its |1> eigenstate.
    phase = 1.0 / 3.0
    counting = list(range(spec.n - 1))
    eigen = spec.n - 1
    c = Circuit(spec.n, params={"phase": phase})
    for q in counting:
        c.h(q)
    c.x(eigen)
    for j, q in enumerate(counting):
        theta = (2.0 * math.pi * phase * (2 ** j)) % (2.0 * math.pi)
        c.cp(q, eigen, theta)
    _build_inverse_qft_ops(c, counting)
    return c


def _build_vqe(spec: GeneratorSpec) -> Circuit:
    n, layers = spec.n, spec.l_layers
    c = Circuit(n, params={"l_layers": layers})
    idx = 0
    for q in range(n):
        c.ry(q, _angle(idx))
        idx += 1
    for _ in range(layers):
        for q in range(n):
            c.ry(q, _angle(idx))
            idx += 1
        for q in range(n):
            c.rz(q, _angle(idx))
            idx += 1
        for q in range(n - 1):
            c.cnot(q, q + 1)
        for q in range(n):
            c.ry(q, _angle(idx))
            idx += 1
        for q in range(n):
            c.rz(q, _angle(idx))
            idx += 1
    return c


def _build_hamiltonian(spec: GeneratorSpec) -> Circuit:
    n, steps = spec.n, spec.t_steps
    c = Circuit(n, params={"t_steps": steps})
    field_angle = 2.0 * _HSIM_FIELD * _HSIM_DT
    coupling_angle = 2.0 * _HSIM_COUPLING * _HSIM_DT
    for _ in range(steps):
        for q in range(n):
            c.rz(q, field_angle / 2.0)
            c.rx(q, field_angle)
            c.rz(q, field_angle / 2.0)
        for q in range(n - 1):
            c.rz(q, coupling_angle / 2.0)
            c.rzz(q, q + 1, coupling_angle)
            c.rz(q + 1, coupling_angle / 2.0)
    return c


def _pick_positions(rng: np.random.Generator, pool: int, count: int) -> list[int]:
    return sorted(rng.choice(pool, size=count, replace=False).tolist())


def _build_bernstein_vazirani(spec: GeneratorSpec) -> Circuit:
    # Data register is qubits 0..n-2; qubit n-1 is the kickback ancilla.
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    data = n - 1
    m = min(spec.ones, data)
    ones = _pick_positions(rng, data, m)
    hidden = "".join("1" if q in set(ones) else "0" for q in range(data))
    c = Circuit(n, params={"m": m, "seed": spec.seed, "hidden_string": hidden})
    anc = n - 1
    for q in range(data):
        c.h(q)
    c.x(anc)
    c.h(anc)
    for q in ones:
        c.cnot(q, anc)
    for q in range(data):
        c.h(q)
    return c


def _build_hidden_shift(spec: GeneratorSpec) -> Circuit:
    n, dual = spec.n, spec.dual_oracle
    rng = np.random.default_rng(spec.seed)
    m = min(spec.ones, n)
    shifted = _pick_positions(rng, n, m)
    shift = "".join("1" if q in set(shifted) else "0" for q in range(n))
    c = Circuit(n, params={"m": m, "seed": spec.seed, "shift": shift, "dual_oracle": dual})

    def h_layer():
        for q in range(n):
            c.h(q)

    def shift_layer():
        for q in shifted:
            c.x(q)

    def bent_function():
        # Maiorana-McFarland inner product: CZ between the members of each
        # adjacent pair (self-dual, so the second query reuses it).
        for i in range(n // 2):
            c.cz(2 * i, 2 * i + 1)

    h_layer()
    shift_layer()
    bent_function()
    shift_layer()
    h_layer()
    if dual:
        bent_function()
    h_layer()
    return c


def _round_robin_rounds(n: int) -> list[list[tuple[int, int]]]:
    """Circle-method 1-factorization: every qubit pair appears in exactly one
    round.  Odd ``n`` plays with a phantom seat, leaving one bye per round."""
    players = list(range(n)) if n % 2 == 0 else list(range(n)) + [-1]
    size = len(players)
    rounds = []
    arrangement = players[:]
    for _ in range(size - 1):
        pairs = []
        for i in range(size // 2):
            a, b = arrangement[i], arrangement[size - 1 - i]
            if a != -1 and b != -1:
                pairs.append((min(a, b), max(a, b)))
        rounds.append(pairs)
        arrangement = [arrangement[0]] + [arrangement[-1]] + arrangement[1:-1]
    return rounds


def _build_random(spec: GeneratorSpec) -> Circuit:
    n, k = spec.n, spec.k
    rng = np.random.default_rng(spec.seed)
    c = Circuit(n, params={"k": k, "seed": spec.seed})

    weights = np.array([1.0 + _RANDOM_RAMP_SPAN * i / (n - 1) for i in range(n)])
    mean_weight = float(weights.mean())

    relabel = rng.permutation(n)
    rounds = _round_robin_rounds(n)
    round_order = rng.permutation(len(rounds))

    two_qubit = (GateKind.CNOT, GateKind.CZ, GateKind.SWAP)
    one_qubit = (GateKind.H, GateKind.X, GateKind.RZ, GateKind.RX, GateKind.RY)

    def random_single(q: int) -> None:
        kind = one_qubit[rng.integers(len(one_qubit))]
        if kind.is_parameterized:
            c.add(kind, q, angle=float(rng.uniform(0.0, 2.0 * math.pi)))
        else:
            c.add(kind, q)

    for layer in range(n):
        pairs = rounds[round_order[layer % len(rounds)]]
        busy = set()
        for a, b in pairs:
            qa, qb = int(relabel[a]), int(relabel[b])
            busy.update((qa, qb))
            pair_k = min(1.0, k * (weights[qa] + weights[qb]) / (2.0 * mean_weight))
            if rng.random() < pair_k:
                kind = two_qubit[rng.integers(len(two_qubit))]
                if rng.random() < 0.5:
                    qa, qb = qb, qa
                c.add(kind, qa, qb)
            else:
                random_single(qa)
                random_single(qb)
        for q in range(n):
            if q not in busy:
                random_single(q)
    return c
