"""Print what one randomized-greedy descent costs on the TN benchmark's
networks.

The networks are those the TN workloads plan, with the default generator
spec: tn-sliced's qft-14, random-16 and qpe-16 closed at the all-zeros
bitstring, and tn-dist's qaoa-8, qft-8 and random, qpe, vqe, hamiltonian,
hiddenshift and bv at 10 qubits, open.  Each is ``build_network``'s
network.  ``tensors`` is its tensor count and ``steps`` the steps of one
plan.  ``descent ms`` is the best of ``REPS`` runs of
``tensornet._greedy_descent`` for each of samples 1-4, each seeded as
``find_path`` seeds it at seed 0, summed over the four samples.  The last
row sums every column.

Usage::

    PYTHONPATH=src python tools/descent_share.py

prints one ``network  tensors  steps  descent ms`` row per network, then
the total.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from qcsim import tensornet as tn
from qcsim.generators import Family, GeneratorSpec, generate

SLICED = ((Family.QFT, 14), (Family.RANDOM, 16), (Family.QPE, 16))
DIST = ((Family.QAOA, 8), (Family.QFT, 8), (Family.RANDOM, 10), (Family.QPE, 10),
        (Family.VQE, 10), (Family.HAMILTONIAN, 10), (Family.HIDDEN_SHIFT, 10), (Family.BERNSTEIN_VAZIRANI, 10))
SAMPLES = (1, 2, 3, 4)
REPS = 7


def descent_s(sets: list[frozenset[str]], sample: int, reps: int = REPS) -> float:
    """The least wall time of ``reps`` descents of ``sample`` over ``sets``,
    each from a fresh generator seeded as ``find_path`` seeds it, in
    seconds."""
    best = float("inf")
    for _ in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((0, sample)))
        t0 = time.perf_counter()
        tn._greedy_descent(sets, rng)
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name: str, tensors: int, steps: int, seconds: float) -> str:
    return f"{name:<18} {tensors:8d} {steps:6d} {seconds * 1e3:11.2f}"


def main() -> int:
    print(f"{'network':<18} {'tensors':>8} {'steps':>6} {'descent ms':>11}")
    rows = []
    cases = [(f, n, "0" * n) for f, n in SLICED] + [(f, n, None) for f, n in DIST]
    for family, n, bits in cases:
        net = tn.build_network(generate(GeneratorSpec(family, n)), bits)
        sets = tn._index_sets(net)
        seconds = sum(descent_s(sets, sample) for sample in SAMPLES)
        name = f"{family.value}-{n} {'open' if bits is None else 'closed'}"
        rows.append((len(net.tensors), len(net.tensors) - 1, seconds))
        print(_row(name, *rows[-1]), flush=True)
    print(_row("total", *map(sum, zip(*rows))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
