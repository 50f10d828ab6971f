"""Topological circuit metrics.

Five scalar metrics summarize the interaction structure of a circuit:

* program communication: mean interaction-graph degree over the degree of a
  complete graph, ``sum_i deg(q_i) / (N (N-1))``.
* critical depth: fraction of multi-qubit gates lying on the longest
  dependency chain of multi-qubit gates, ``n_ed / n_e``.
* entanglement ratio: multi-qubit gate fraction ``n_e / n_g``.
* parallelism: ``clamp((n_g / d - 1) / (n - 1), 0, 1)`` with ``d`` the ASAP
  schedule depth.
* entanglement variance: ``ln(sum_i (c_i - mean)^2 + 1) / N`` over per-qubit
  multi-qubit gate counts ``c_i`` (natural log; 0 iff perfectly balanced).

``compute_all`` gets all of them from one walk over the unitary ops, and it
is the one place that decides when a metric is undefined (``None``):

* a circuit without gates has none of the five;
* a one-qubit circuit has no program communication and no parallelism;
* a circuit without multi-qubit gates has no critical depth.

Measurement ops never count: the metrics describe the unitary part only.
``compute_all`` is pure and thread-safe.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .circuit import Circuit

METRIC_NAMES = (
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "entanglement_variance",
)


@dataclass
class MetricsReport:
    """Aggregated metrics; ``None`` marks a metric undefined for the circuit."""

    program_communication: float | None = None
    critical_depth: float | None = None
    entanglement_ratio: float | None = None
    parallelism: float | None = None
    entanglement_variance: float | None = None
    n_gates: int = 0
    n_two_qubit: int = 0
    depth: int = 0
    # Same-pair runs of multi-qubit gates collapsed to one; used by the
    # advisor's entanglement-ratio rule.
    n_two_qubit_effective: int = 0
    entanglement_ratio_effective: float | None = None

    def absent(self) -> list[str]:
        return [name for name in METRIC_NAMES if getattr(self, name) is None]

    def to_dict(self) -> dict:
        return asdict(self)


def compute_all(c: Circuit) -> MetricsReport:
    """All five metrics and the counts behind them, from one walk.

    Each gate joins the ASAP layer after every earlier gate sharing one of
    its qubits (the depth is the last layer).  A multi-qubit gate extends
    the longest chain of multi-qubit gates through its qubits (gate B
    follows A when they share a qubit and A precedes B), adds its qubit
    pair to the interaction graph and counts once per qubit.  The effective
    count merges consecutive same-pair runs among the multi-qubit gates, so
    single-qubit gates in between do not break a run.
    """
    n = c.num_qubits
    layer, chain, count = [0] * n, [0] * n, [0] * n
    pairs: set[tuple[int, ...]] = set()
    prev = None
    n_gates = n_multi = n_effective = depth = longest = 0
    for op in c.unitary_ops:
        n_gates += 1
        here = 1 + max(layer[q] for q in op.qubits)
        for q in op.qubits:
            layer[q] = here
        depth = max(depth, here)
        if op.is_multi_qubit:
            n_multi += 1
            pair = tuple(sorted(op.qubits))
            n_effective += pair != prev
            pairs.add(pair)
            prev = pair
            link = 1 + max(chain[q] for q in op.qubits)
            for q in op.qubits:
                chain[q] = link
                count[q] += 1
            longest = max(longest, link)

    report = MetricsReport(
        n_gates=n_gates, n_two_qubit=n_multi, depth=depth, n_two_qubit_effective=n_effective
    )
    if n_gates == 0:
        return report
    if n > 1:
        report.program_communication = 2 * len(pairs) / (n * (n - 1))
        report.parallelism = min(1.0, max(0.0, (n_gates / depth - 1.0) / (n - 1)))
    if n_multi:
        report.critical_depth = longest / n_multi
    report.entanglement_ratio = n_multi / n_gates
    report.entanglement_ratio_effective = n_effective / n_gates
    mean = sum(count) / n
    report.entanglement_variance = math.log(sum((x - mean) ** 2 for x in count) + 1.0) / n
    return report
