"""Tensor-network contraction backend.

A circuit maps to a network of dense tensors: one rank-1 ``[1, 0]`` tensor
per input qubit, a rank-2 ``(in, out)`` tensor per 1-qubit gate, a rank-4
``(in_a, in_b, out_a, out_b)`` tensor per 2-qubit gate.  The final wire of
each qubit is an open index unless a target bitstring closes it with the
conjugate basis vector, in which case full contraction yields that
bitstring's probability amplitude.  A circuit's trailing measure markers
become no tensor; a measure mid-circuit cannot occur, since ``Circuit.add``
refuses a gate after a measure.  A ``TensorNetwork`` is checked when it is
made, whoever builds it: each open label lies on one tensor and every other
label on two.  It cannot be changed afterwards.

Every entry point runs the same pipeline: ``build_network`` (conversion
plus absorption of the rank-1 tensors), ``find_path``, then ``contract``.
An amplitude contracts the closed network to a scalar.  The full output
distribution contracts the open network once to the n-qubit output state
and squares it.  ``contract`` is the one plan executor: it runs sliced and
unsliced plans alike, an unsliced plan being one slice with no label fixed.
Before any contraction allocates, the plan's largest step footprint (per
slice when sliced), and for a distribution first its ``2^n`` output, is
checked against the one memory budget of ``statevector.check_budget``;
work over it raises ``CapacityError``.

A plan is a full binary contraction in SSA form over the network it was
planned on: with ``m`` the network's tensor count, ids below ``m`` are its
tensors in order, and step ``k`` contracts ids ``steps[k] = (i, j)`` into
the new id ``m + k``.  ``_walk`` is the one place that follows those ids
and refuses a plan that is not such a contraction of the network.
``_cost`` is the one cost model: every index has dimension 2, so a step
over operands with index sets ``a`` and ``b`` costs exactly ``2^|a | b|``
FLOPs, its output holds ``2^|a ^ b|`` elements, and while it runs it holds
both operands plus that output.

Pathfinding runs ``num_samples`` independent randomized-greedy descents and
keeps the plan with the lowest estimated FLOP count; estimated peak size is
reported but not optimized.  A descent keeps its candidate pairs across
steps, updating them on each merge, and draws one vector of Gumbel
variates per step.  The descents may run as an executor's tasks
(a worker pool); each is seeded by its sample index alone, so the plan is
the same wherever they run.  Slicing fixes chosen index values, splitting
one contraction into independent sub-contractions whose results sum to the
original.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit
from .errors import ConfigError, StructuralError
from .statevector import OutputDistribution, check_budget

_BASIS = (np.array([1.0, 0.0], dtype=np.complex128), np.array([0.0, 1.0], dtype=np.complex128))


@dataclass
class Tensor:
    """Dense tensor with one unique label per index; every dimension is 2."""

    indices: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise StructuralError(f"repeated index label in {self.indices}")
        if self.data.shape != (2,) * len(self.indices):
            raise StructuralError(
                f"data shape {self.data.shape} does not match indices {self.indices}"
            )

    @property
    def rank(self) -> int:
        return len(self.indices)

    def sliced(self, assignment: dict[str, int]) -> "Tensor":
        """Fix the labels present in ``assignment`` to their bit values."""
        data = self.data
        indices = []
        for pos, label in enumerate(self.indices):
            if label in assignment:
                data = np.take(data, assignment[label], axis=len(indices))
            else:
                indices.append(label)
        return Tensor(tuple(indices), data)


@dataclass(frozen=True)
class TensorNetwork:
    """Tensors and the open labels, checked when made: an open label is on
    exactly one tensor and every other label on exactly two, else
    ``StructuralError``.  ``tensors`` is kept as a tuple."""

    tensors: tuple[Tensor, ...]
    open_indices: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        seen = Counter(itertools.chain.from_iterable(t.indices for t in self.tensors))
        for label in (*seen, *self.open_indices):
            expected = 1 if label in self.open_indices else 2
            if seen[label] != expected:
                raise StructuralError(
                    f"label {label} appears {seen[label]} times, expected {expected}"
                )

    def all_labels(self) -> set[str]:
        labels: set[str] = set()
        for t in self.tensors:
            labels.update(t.indices)
        return labels


def circuit_to_network(c: Circuit, bitstring: str | None = None) -> TensorNetwork:
    """Convert a circuit (and optional output bitstring) to a tensor network.

    The network holds the circuit's unitary ops; trailing measure markers
    are left out, and ``Circuit.add`` already refuses a gate after a
    measure.  A bitstring that is not ``n`` characters ``0`` or ``1``
    raises ``ConfigError``.
    """
    n = c.num_qubits
    if bitstring is not None:
        if len(bitstring) != n:
            raise ConfigError(f"bitstring length {len(bitstring)} != {n} qubits")
        bad = next((ch for ch in bitstring if ch not in "01"), None)
        if bad is not None:
            raise ConfigError(f"bitstring {bitstring!r} holds {bad!r}, not 0 or 1")

    wire = [f"q{q}w0" for q in range(n)]
    counter = [0] * n
    tensors = [Tensor((wire[q],), _BASIS[0].copy()) for q in range(n)]

    def advance(q: int) -> str:
        counter[q] += 1
        wire[q] = f"q{q}w{counter[q]}"
        return wire[q]

    for op in c.unitary_ops:
        # The matrix is indexed [out, in], so its transpose, split into one
        # axis per qubit, has the input axes first.
        ins = tuple(map(wire.__getitem__, op.qubits))
        outs = tuple(map(advance, op.qubits))
        data = op.matrix().T.copy().reshape((2,) * 2 * len(op.qubits))
        tensors.append(Tensor(ins + outs, data))

    if bitstring is None:
        return TensorNetwork(tensors, tuple(wire))
    for q, bit in enumerate(bitstring):
        tensors.append(Tensor((wire[q],), _BASIS[int(bit)].conj().copy()))
    return TensorNetwork(tensors)


def absorb_small_tensors(
    net: TensorNetwork,
    max_rank: int = 1,
    keep: frozenset[int] = frozenset(),
) -> TensorNetwork:
    """One sweep contracting the network's rank <= ``max_rank`` tensors into
    a neighbour each.

    Input vectors and bitstring closures are rank 1, so the default sweep
    removes exactly those; such contractions never increase a neighbour's
    rank.  Only tensors small at entry are absorbed (no cascading, which
    would collapse chain-like networks outright and leave nothing to plan).
    Positions listed in ``keep`` are never absorbed; the sweep stops early
    rather than dropping below two tensors.
    """
    tensors = list(net.tensors)
    keep_ids = set(keep)
    small = [
        i
        for i, t in enumerate(tensors)
        if t.rank <= max_rank and i not in keep_ids
    ]
    alive = len(tensors)
    for i in small:
        if alive <= 2:
            break
        t = tensors[i]
        partner = None
        for j, other in enumerate(tensors):
            if j == i or other is None:
                continue
            if any(label in other.indices for label in t.indices):
                partner = j
                break
        if partner is None:
            continue
        tensors[partner] = contract_pair(t, tensors[partner])
        tensors[i] = None
        alive -= 1
    return TensorNetwork([t for t in tensors if t is not None], net.open_indices)


# -- pairwise contraction ----------------------------------------------


def contract_pair(a: Tensor, b: Tensor) -> Tensor:
    """Sum over the shared labels; output indices are a's then b's rest."""
    shared = [label for label in a.indices if label in b.indices]
    axes_a = [a.indices.index(label) for label in shared]
    axes_b = [b.indices.index(label) for label in shared]
    data = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    out = tuple(l for l in a.indices if l not in shared) + tuple(
        l for l in b.indices if l not in shared
    )
    return Tensor(out, data)


# -- contraction plans --------------------------------------------------


@dataclass(frozen=True)
class ContractionPlan:
    """Full binary contraction of the network's tensors in SSA form (see
    the module docstring).  ``est_flops`` counts every slice;
    ``est_peak_elements`` is the largest tensor of one slice."""

    steps: tuple[tuple[int, int], ...]
    est_flops: int
    est_peak_elements: int
    sliced_labels: tuple[str, ...] = ()
    slice_warning: bool = False


@dataclass(frozen=True)
class PathfinderConfig:
    num_samples: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError("num_samples must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _index_sets(net: TensorNetwork, drop: frozenset[str] = frozenset()) -> list[frozenset[str]]:
    """Each tensor's labels less ``drop``, the sliced labels, which must be
    closed labels of ``net``, else ``StructuralError``."""
    bad = drop - (net.all_labels() - set(net.open_indices)) if drop else ()
    if bad:
        raise StructuralError(f"sliced labels {sorted(bad)} are not closed labels of the network")
    return [frozenset(t.indices) - drop for t in net.tensors]


def _walk(num_tensors: int, steps):
    """Follow ``steps`` over ``num_tensors`` tensors, yielding ``(i, j, k)``
    for each step: it contracts ids ``i`` and ``j`` into id ``k``.  Steps
    that are not a full binary contraction of the tensors raise
    ``StructuralError``."""
    if num_tensors < 1 or len(steps) != num_tensors - 1:
        raise StructuralError(
            f"a plan of {len(steps)} steps is not a full binary contraction "
            f"of {num_tensors} tensors"
        )
    live = set(range(num_tensors))
    for k, (i, j) in enumerate(steps, num_tensors):
        try:
            live.remove(i)
            live.remove(j)
        except KeyError:
            raise StructuralError(f"step ({i}, {j}) references unavailable tensors") from None
        live.add(k)
        yield i, j, k


def _cost(steps, sets: list[frozenset[str]]) -> tuple[int, int, int]:
    """``(flops, peak, step)`` of ``steps`` over the input index ``sets``:
    the total FLOPs (at least 1), the largest tensor's elements, and the
    elements the largest step holds at once (the largest input for a plan
    without steps).  ``sets`` is extended in place with each step's output,
    so that it ends as every tensor's index set by id."""
    size = [1 << len(s) for s in sets]
    flops, step = 0, max(size, default=1)
    for i, j, k in _walk(len(sets), steps):
        a, b = sets[i], sets[j]
        sets.append(a ^ b)
        size.append(1 << len(sets[k]))
        flops += 1 << len(a | b)
        step = max(step, size[i] + size[j] + size[k])
    return max(flops, 1), max(size, default=1), step


def _greedy_descent(
    sets: list[frozenset[str]], rng: np.random.Generator | None
) -> tuple[tuple[int, int], ...]:
    """One randomized-greedy bottom-up contraction order over ``sets``, in
    which each label is held by at most two tensors.

    Candidates are pairs sharing an index; the key is log2 of the step cost
    plus a Gumbel draw from ``rng`` (``None`` = pure greedy, deterministic
    smallest-ids tie-break).  Outer products are taken only when no pair
    shares an index, on the two smallest tensors.

    The candidates are kept across steps: ``owners`` maps each live label
    to the tensors that hold it and ``width`` each candidate ``(i, j)``,
    ``i < j``, to ``len(S_i | S_j)``; a merge drops the pairs of its two
    operands and adds the new tensor's.  Each step draws one vector of
    Gumbel variates over the candidates in sorted order, the same numbers
    as one draw per candidate, so the steps depend only on ``sets`` and
    ``rng``.
    """
    active: dict[int, frozenset[str]] = dict(enumerate(sets))
    owners: dict[str, list[int]] = {}
    for i, s in active.items():
        for label in s:
            owners.setdefault(label, []).append(i)
    width = {(ids[0], ids[1]): len(sets[ids[0]] | sets[ids[1]])
             for ids in owners.values() if len(ids) == 2}
    steps: list[tuple[int, int]] = []

    for k in range(len(sets), 2 * len(sets) - 1):
        if not width:
            first, second = sorted(active, key=lambda i: (len(active[i]), i))[:2]
            pair = (min(first, second), max(first, second))
        else:
            cands = sorted(width)
            keys = np.fromiter(map(width.__getitem__, cands), float, len(cands))
            if rng is not None:
                keys += rng.gumbel(size=len(cands))
            pair = cands[int(np.argmin(keys))]
        i, j = pair
        a, b = active.pop(i), active.pop(j)
        active[k] = out = a ^ b
        width.pop(pair, None)
        for label in a | b:
            rest = [x for x in owners.pop(label) if x != i and x != j]
            for x in rest:
                width.pop((min(x, i), max(x, i)), None)
                width.pop((min(x, j), max(x, j)), None)
            if label in out:
                owners[label] = rest + [k]
        for label in out:
            for x in owners[label][:-1]:
                width[(x, k)] = len(active[x] | out)
        steps.append(pair)

    return tuple(steps)


def _descent(task) -> tuple[tuple[int, int], tuple[tuple[int, int], ...], int]:
    """One ``find_path`` sample, ``task = (sets, seed, sample)``, as
    ``((flops, sample), steps, peak)``.

    Sample 0 is pure greedy; sample ``k > 0`` draws its noise from a
    generator seeded by ``(seed, k)`` alone, so the winner does not depend
    on where or in which order the samples run.
    """
    sets, seed, sample = task
    rng = np.random.default_rng(np.random.SeedSequence((seed, sample))) if sample else None
    steps = _greedy_descent(sets, rng)
    flops, peak, _ = _cost(steps, list(sets))
    return (flops, sample), steps, peak


def find_path(net: TensorNetwork, cfg: PathfinderConfig, executor=None) -> ContractionPlan:
    """Best-of-``num_samples`` randomized greedy search, deterministic in
    ``cfg.seed``.  Sample 0 always runs pure greedy as a baseline.

    Each sample is one ``_descent`` task, run in this process or, given an
    ``executor`` (anything with ``map(fn, tasks)``, such as a
    ``sliced.make_worker_pool`` pool), as that executor's tasks.  The
    lowest ``(flops, sample)`` wins, so the plan is the same either way.
    """
    if not net.tensors:
        raise StructuralError("cannot plan an empty network")
    sets = _index_sets(net)
    tasks = [(sets, cfg.seed, sample) for sample in range(cfg.num_samples)]
    runs = map(_descent, tasks) if executor is None else executor.map(_descent, tasks)
    (flops, _), steps, peak = min(runs, key=lambda r: r[0])
    return ContractionPlan(steps, flops, peak)


def step_footprint(net: TensorNetwork, plan: ContractionPlan) -> int:
    """Elements the plan's largest step holds at once, per slice for a
    sliced plan (``_cost``).  A plan that does not fit ``net`` raises
    ``StructuralError``."""
    return _cost(plan.steps, _index_sets(net, frozenset(plan.sliced_labels)))[2]


def _check_budget(net: TensorNetwork, plan: ContractionPlan) -> None:
    """Refuse a plan whose ``step_footprint`` is over the budget; every
    contraction entry point calls this before it allocates.  A plan that
    does not fit ``net`` raises ``StructuralError``."""
    check_budget(step_footprint(net, plan), "the plan's largest contraction step")


def contract(net: TensorNetwork, plan: ContractionPlan, assignments=None) -> Tensor:
    """Execute ``plan``: the sum of its contractions under each of
    ``assignments`` (default: every one of ``slice_assignments(plan)``, whose
    sum equals the unsliced result; the value is plan-independent).  A plan
    that does not fit ``net`` raises ``StructuralError``, and one whose
    largest step (per slice) is over the memory budget ``CapacityError``,
    before anything is contracted."""
    _check_budget(net, plan)
    total = None
    for assignment in slice_assignments(plan) if assignments is None else assignments:
        buf = {i: (t.sliced(assignment) if assignment else t) for i, t in enumerate(net.tensors)}
        for i, j, k in _walk(len(net.tensors), plan.steps):
            buf[k] = contract_pair(buf.pop(i), buf.pop(j))
        (part,) = buf.values()
        total = part if total is None else Tensor(part.indices, total.data + part.data)
    return total


def slice_assignments(plan: ContractionPlan):
    """All value assignments of the plan's sliced labels; an unsliced plan
    has exactly one, the empty assignment."""
    labels = plan.sliced_labels
    for bits in itertools.product((0, 1), repeat=len(labels)):
        yield dict(zip(labels, bits))


def choose_slices(
    net: TensorNetwork, plan: ContractionPlan, target_slices: int
) -> ContractionPlan:
    """Pick log2(target_slices) labels to slice, greedily minimizing the
    peak intermediate size (ties: larger FLOP reduction, then label order).

    Each pick prices the plan once with ``_cost`` and scores every
    candidate label ``L`` from the replayed index sets: slicing ``L`` halves
    each step whose index union holds ``L``, and takes one index off the
    peak only when ``L`` is in every tensor of the top size.
    """
    if target_slices < 1 or target_slices & (target_slices - 1):
        raise ConfigError(f"target_slices must be a power of two >= 1, got {target_slices}")
    wanted = int(math.log2(target_slices))
    candidates = sorted(net.all_labels() - set(net.open_indices) - set(plan.sliced_labels))
    chosen: list[str] = list(plan.sliced_labels)
    warning = wanted > len(candidates)

    for _ in range(min(wanted, len(candidates))):
        sets = _index_sets(net, frozenset(chosen))
        flops, _, _ = _cost(plan.steps, sets)
        saved: dict[str, int] = {}
        for i, j in plan.steps:
            union = sets[i] | sets[j]
            half = (1 << len(union)) // 2
            for label in union:
                saved[label] = saved.get(label, 0) + half
        top = max(len(s) for s in sets)
        in_every_top = frozenset.intersection(*(s for s in sets if len(s) == top))

        def key(label: str) -> tuple[int, int, str]:
            peak = 1 << (top - (label in in_every_top))
            return peak, max(flops - saved.get(label, 0), 1), label

        best = min(candidates, key=key)
        chosen.append(best)
        candidates.remove(best)

    flops, peak, _ = _cost(plan.steps, _index_sets(net, frozenset(chosen)))
    return replace(
        plan,
        sliced_labels=tuple(sorted(chosen)),
        slice_warning=warning,
        est_flops=flops << len(chosen),
        est_peak_elements=peak,
    )


# -- circuit-level entry points -----------------------------------------


def build_network(c: Circuit, bitstring: str | None = None) -> TensorNetwork:
    """The network every entry point plans on: ``circuit_to_network`` with
    its rank-1 tensors absorbed into a neighbour each.

    Without ``bitstring`` the network stays open on each qubit's final wire;
    an idle qubit keeps its input vector as a rank-1 open tensor.
    """
    return absorb_small_tensors(circuit_to_network(c, bitstring), max_rank=1)


def amplitude(
    c: Circuit,
    bitstring: str,
    cfg: PathfinderConfig | None = None,
) -> complex:
    """Probability amplitude of ``bitstring`` via network contraction."""
    net = build_network(c, bitstring)
    plan = find_path(net, cfg or PathfinderConfig())
    return complex(contract(net, plan).data.reshape(()))


def distribution_from_plan(net: TensorNetwork, plan: ContractionPlan) -> OutputDistribution:
    """Contract the open network ``net`` once and square the output state.

    Qubit ``q``'s open index is ``net.open_indices[q]``; the output axes are
    put in reverse qubit order so that qubit 0 is the least-significant bit
    of the flat index, as in ``bitstring_to_index``.  ``contract`` checks the
    plan against the memory budget first.
    """
    result = contract(net, plan)
    axes = [result.indices.index(label) for label in reversed(net.open_indices)]
    amps = np.transpose(result.data, axes).ravel()
    return OutputDistribution(len(net.open_indices), np.abs(amps) ** 2)


def reconstruct_distribution(
    c: Circuit, cfg: PathfinderConfig | None = None
) -> OutputDistribution:
    """Full output distribution from one contraction of the open network.

    A ``2^n``-element output over the budget is refused before the network
    is built or planned; ``contract`` then checks the plan's largest step.
    """
    check_budget(1 << c.num_qubits, f"the {c.num_qubits}-qubit output state")
    net = build_network(c)
    return distribution_from_plan(net, find_path(net, cfg or PathfinderConfig()))
