"""Print one sha256 per default TN plan, so two commits' plans can be compared.

The first line is a ``circuits`` digest: the sha256 over the QASM text and
``params`` of every family, n from 2 to 20, seeds 0, 1 and 7, under each of
``KNOB_SETS`` (the defaults, then each knob away from its default).  The
``params`` warning is left out, since it depends on which knobs a spec
spells out rather than on the circuit.  A change to ``generators`` that
moves any circuit changes this line.

Then, for every circuit family, n in 8/12/16/20, open and closed (the all-zeros
bitstring), the plan is ``find_path(build_network(c, bits),
PathfinderConfig())``; its digest is the sha256 of the ``repr`` of its
``(steps, est_flops, est_peak_elements)``.  The last line is the sha256 of
all the digests in order: equal totals mean equal plans everywhere.

Usage::

    PYTHONPATH=src python tools/plan_digest.py

prints the circuits digest, one ``family  n  open|closed  digest`` line per
plan, then the total.
It is a check to run by hand, not a test: the n = 20 plans take seconds each.
"""
from __future__ import annotations

import hashlib
import sys

from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.qasm import emit_qasm
from qcsim.tensornet import PathfinderConfig, build_network, find_path

SIZES = (8, 12, 16, 20)
KNOB_SETS = ({}, {"p_layers": 2}, {"k": 0.25}, {"m": 1}, {"l_layers": 2}, {"t_steps": 2},
             {"dual_oracle": True})


def circuits_digest() -> str:
    digest = hashlib.sha256()
    for family in Family:
        for n in range(2, 21):
            for seed in (0, 1, 7):
                for knobs in KNOB_SETS:
                    c = generate(GeneratorSpec(family, n, seed=seed, **knobs))
                    params = {k: v for k, v in c.params.items() if k != "warning"}
                    digest.update(emit_qasm(c).encode())
                    digest.update(repr(sorted(params.items())).encode())
    return digest.hexdigest()


def plan_digest(family: Family, n: int, closed: bool) -> str:
    c = generate(GeneratorSpec(family, n))
    plan = find_path(build_network(c, "0" * n if closed else None), PathfinderConfig())
    record = (plan.steps, plan.est_flops, plan.est_peak_elements)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def main() -> int:
    print(f"circuits  {circuits_digest()}", flush=True)
    total = hashlib.sha256()
    for family in Family:
        for n in SIZES:
            for closed in (False, True):
                digest = plan_digest(family, n, closed)
                total.update(digest.encode())
                side = "closed" if closed else "open"
                print(f"{family.value:<14} {n:3d}  {side:<6}  {digest}", flush=True)
    print(f"total  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
