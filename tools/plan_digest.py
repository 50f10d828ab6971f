"""Print one sha256 per default TN plan, so two commits' plans can be compared.

For every circuit family, n in 8/12/16/20, open and closed (the all-zeros
bitstring), the plan is ``find_path(build_network(c, bits),
PathfinderConfig())``; its digest is the sha256 of the ``repr`` of its
``(steps, est_flops, est_peak_elements)``.  The last line is the sha256 of
all the digests in order: equal totals mean equal plans everywhere.

Usage::

    PYTHONPATH=src python tools/plan_digest.py

prints one ``family  n  open|closed  digest`` line per plan, then the total.
It is a check to run by hand, not a test: the n = 20 plans take seconds each.
"""
from __future__ import annotations

import hashlib
import sys

from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.tensornet import PathfinderConfig, build_network, find_path

SIZES = (8, 12, 16, 20)


def plan_digest(family: Family, n: int, closed: bool) -> str:
    c = generate(GeneratorSpec(family, n))
    plan = find_path(build_network(c, "0" * n if closed else None), PathfinderConfig())
    record = (plan.steps, plan.est_flops, plan.est_peak_elements)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def main() -> int:
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
