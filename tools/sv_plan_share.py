"""Print how much of ``statevector.run`` goes to planning, per circuit.

The circuits are every family at n = 16 and 18 with the default generator
spec (seed 0), at double precision.  For each, ``plan ms`` is the best of
``REPS`` calls of ``statevector.plan`` and ``run ms`` the best of ``REPS``
calls of ``statevector.run``, which plans and then executes; ``share`` is
their ratio and ``us/gate`` the planning time per gate.  The last row sums
gates, passes and both times over the circuits.

Usage::

    PYTHONPATH=src python tools/sv_plan_share.py

prints one ``circuit  gates  passes  plan ms  run ms  share  us/gate`` row
per circuit, then the total.
"""
from __future__ import annotations

import sys
import time

from qcsim import statevector
from qcsim.generators import Family, GeneratorSpec, generate

SIZES = (16, 18)
REPS = 7


def best_of(fn, reps: int = REPS) -> float:
    """The least wall time of ``reps`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _row(name: str, gates: int, passes: int, plan_s: float, run_s: float) -> str:
    return (f"{name:<16} {gates:6d} {passes:7d} {plan_s * 1e3:9.2f} {run_s * 1e3:9.2f} "
            f"{plan_s / run_s:6.1%} {plan_s / gates * 1e6:8.2f}")


def main() -> int:
    print(f"{'circuit':<16} {'gates':>6} {'passes':>7} {'plan ms':>9} {'run ms':>9} "
          f"{'share':>6} {'us/gate':>8}")
    totals = [0, 0, 0.0, 0.0]
    for n in SIZES:
        for family in Family:
            c = generate(GeneratorSpec(family, n))
            gates = len(c.unitary_ops)
            passes = len(statevector.plan(c, "double"))
            plan_s = best_of(lambda: statevector.plan(c, "double"))
            run_s = best_of(lambda: statevector.run(c, "double"))
            print(_row(f"{family.value}-{n}", gates, passes, plan_s, run_s), flush=True)
            for i, value in enumerate((gates, passes, plan_s, run_s)):
                totals[i] += value
    print(_row("total", *totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
