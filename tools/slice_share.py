"""Print how much of a sliced plan is slice-invariant, and what one worker's
shard of it costs, for the sliced benchmark's circuits.

The circuits are qft-14, random-16 and qpe-16 with the default generator
spec, closed at the all-zeros bitstring.  Each plan is ``find_path`` with
``PathfinderConfig(num_samples=4)`` (seed 0) followed by ``choose_slices``
with ``SLICES`` slices.  A step is invariant when neither operand holds a
sliced label, a leaf by its labels and an intermediate by its operands;
``inv flops`` is the invariant steps' share of one slice's FLOPs, priced as
``tensornet._cost`` prices a step.  ``shard ms`` is the best of ``REPS``
calls of ``evaluate`` over the shard that worker 0 of ``WORKERS`` gets
(``assignments[0::WORKERS]``), on one BLAS thread as pool workers run.
``choose ms`` is the best of ``REPS`` calls of ``choose_slices`` on the
plan ``find_path`` found.  The last row sums steps, invariant steps, shard
and choose times over the circuits, and gives the invariant FLOPs' share
of the summed FLOPs.

Usage::

    PYTHONPATH=src python tools/slice_share.py

prints one ``circuit  steps  invariant  inv flops  shard ms  choose ms`` row per
circuit, then the total.
"""
from __future__ import annotations

import sys
import time

from qcsim import blas
from qcsim import tensornet as tn
from qcsim.generators import Family, GeneratorSpec, generate

CIRCUITS = ((Family.QFT, 14), (Family.RANDOM, 16), (Family.QPE, 16))
SLICES = 8
WORKERS = 2
REPS = 7


def best_of(fn, reps: int = REPS) -> float:
    """The least wall time of ``reps`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def invariant_share(net: tn.TensorNetwork, plan: tn.ContractionPlan) -> tuple[int, int, int]:
    """``(invariant steps, invariant FLOPs, FLOPs)`` of one slice of
    ``plan``."""
    sliced = frozenset(plan.sliced_labels)
    sets = [frozenset(t.indices) - sliced for t in net.tensors]
    dependent = [not sliced.isdisjoint(t.indices) for t in net.tensors]
    steps = flops = total = 0
    for i, j in plan.steps:
        cost = 1 << len(sets[i] | sets[j])
        sets.append(sets[i] ^ sets[j])
        dependent.append(dependent[i] or dependent[j])
        total += cost
        if not dependent[-1]:
            steps += 1
            flops += cost
    return steps, flops, total


def _row(name: str, steps: int, invariant: int, share: float, shard_s: float,
         choose_s: float) -> str:
    return (f"{name:<12} {steps:6d} {invariant:10d} {share:10.1%} {shard_s * 1e3:9.2f}"
            f" {choose_s * 1e3:10.2f}")


def main() -> int:
    blas.limit(1)
    print(f"{'circuit':<12} {'steps':>6} {'invariant':>10} {'inv flops':>10} {'shard ms':>9}"
          f" {'choose ms':>10}")
    rows = []
    for family, n in CIRCUITS:
        net = tn.build_network(generate(GeneratorSpec(family, n)), "0" * n)
        found = tn.find_path(net, tn.PathfinderConfig(num_samples=4))
        plan = tn.choose_slices(net, found, SLICES)
        shard = list(tn.slice_assignments(plan))[0::WORKERS]
        invariant, inv_flops, flops = invariant_share(net, plan)
        shard_s = best_of(lambda: tn.evaluate(net, plan, shard))
        choose_s = best_of(lambda: tn.choose_slices(net, found, SLICES))
        print(_row(f"{family.value}-{n}", len(plan.steps), invariant, inv_flops / flops, shard_s,
                   choose_s), flush=True)
        rows.append((len(plan.steps), invariant, inv_flops, flops, shard_s, choose_s))
    steps, invariant, inv_flops, flops, shard_s, choose_s = map(sum, zip(*rows))
    print(_row("total", steps, invariant, inv_flops / flops, shard_s, choose_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
