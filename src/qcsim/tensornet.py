"""Tensor-network contraction backend.

A circuit maps to a network of dense tensors: one rank-1 ``[1, 0]`` tensor
per input qubit, a rank-2 ``(in, out)`` tensor per 1-qubit gate, a rank-4
``(in_a, in_b, out_a, out_b)`` tensor per 2-qubit gate.  The final wire of
each qubit is an open index unless a target bitstring closes it with the
conjugate basis vector, in which case full contraction yields that
bitstring's probability amplitude.  A circuit's trailing measure markers
become no tensor; a measure mid-circuit cannot occur, since ``Circuit.add``
refuses a gate after a measure.  A ``TensorNetwork`` is checked when it is
made, whoever builds it: the open labels are distinct, each lies on one
tensor and every other label on two.  A network and its tensors are frozen:
their fields cannot be reassigned afterwards.

Every entry point runs the same pipeline: ``build_network`` (conversion
plus absorption of the rank-1 tensors), ``find_path``, then ``evaluate``.
``evaluate`` is the one place where a contraction becomes a value: the
closed network's scalar is an amplitude, and the open network's n-qubit
output state, squared into one float64 array, is the full output
distribution.  It runs ``contract``, the one plan executor, which runs
sliced and unsliced plans alike, an unsliced plan being one slice with no
label fixed.  ``contract`` compiles the plan once per call, in the one
walk that checks it, into ``np.tensordot``'s own arguments for every step,
and runs the steps on bare arrays (``_step``).  It runs a plan's
slice-invariant steps, those whose operands hold no fixed label, once per
call, and only the steps that depend on a fixed label once per
assignment, with values bit-identical to a full replay per slice with
``contract_pair``.  Work over the one memory budget of
``statevector.check_budget`` raises ``CapacityError`` before it
allocates: ``build_network`` refuses an open network's ``2^n`` output
before it builds anything, and ``contract`` the largest step its compile
walk finds, with the labels its assignments fix taken out, before any
step runs.

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
reported but not optimized.  A descent keeps its candidate pairs sorted
across steps, deleting and inserting pairs at bisected positions on each
merge so that no step sorts, and draws one vector of Gumbel variates per
step.  The descents may run as an executor's tasks
(a worker pool); each is seeded by its sample index alone, so the plan is
the same wherever they run.  Slicing fixes chosen index values, splitting
one contraction into independent sub-contractions whose results sum to the
original; ``choose_slices`` picks the labels greedily from one pricing walk
of the plan, updating only what each pick touches.
"""
from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Circuit
from .errors import ConfigError, StructuralError
from .statevector import OutputDistribution, check_budget

_BASIS = (np.array([1.0, 0.0], dtype=np.complex128), np.array([0.0, 1.0], dtype=np.complex128))


@dataclass(frozen=True)
class Tensor:
    """Dense tensor with one unique label per index; every dimension is 2.
    It is checked when made, and its fields cannot be reassigned afterwards."""

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


@dataclass(frozen=True)
class TensorNetwork:
    """Tensors and the open labels, checked when made: the open labels are
    distinct, an open label is on exactly one tensor and every other label
    on exactly two, else ``StructuralError``.  ``tensors`` and
    ``open_indices`` are kept as tuples."""

    tensors: tuple[Tensor, ...]
    open_indices: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tensors", tuple(self.tensors))
        object.__setattr__(self, "open_indices", tuple(self.open_indices))
        if len(set(self.open_indices)) != len(self.open_indices):
            raise StructuralError(f"repeated open label in {self.open_indices}")
        seen = Counter(itertools.chain.from_iterable(t.indices for t in self.tensors))
        for label in (*seen, *self.open_indices):
            expected = 1 if label in self.open_indices else 2
            if seen[label] != expected:
                raise StructuralError(
                    f"label {label} appears {seen[label]} times, expected {expected}"
                )

    def all_labels(self) -> set[str]:
        return set(itertools.chain.from_iterable(t.indices for t in self.tensors))


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
    rather than dropping below two tensors.  A tensor's partner is the
    lowest live position that shares one of its current labels, found
    through a map from each label to the positions holding it; when a
    tensor is absorbed, its labels that survive move to the partner.
    """
    tensors = list(net.tensors)
    owners: dict[str, list[int]] = {}
    for i, t in enumerate(tensors):
        for label in t.indices:
            owners.setdefault(label, []).append(i)
    small = [i for i, t in enumerate(tensors) if t.rank <= max_rank and i not in keep]
    alive = len(tensors)
    for i in small:
        if alive <= 2:
            break
        t = tensors[i]
        partner = min((j for label in t.indices for j in owners[label] if j != i), default=None)
        if partner is None:
            continue
        tensors[partner] = contract_pair(t, tensors[partner])
        tensors[i] = None
        alive -= 1
        for label in t.indices:
            holders = owners.pop(label)
            if label in tensors[partner].indices:
                owners[label] = [partner if j == i else j for j in holders]
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


def _check_closed(net: TensorNetwork, labels: frozenset[str]) -> None:
    """Raise ``StructuralError`` unless every one of ``labels`` (labels to
    slice or fix) is a closed label of ``net``."""
    bad = labels - (net.all_labels() - set(net.open_indices)) if labels else ()
    if bad:
        raise StructuralError(f"sliced labels {sorted(bad)} are not closed labels of the network")


def _index_sets(net: TensorNetwork, drop: frozenset[str] = frozenset()) -> list[frozenset[str]]:
    """Each tensor's labels less ``drop``, the sliced labels, which must be
    closed labels of ``net``, else ``StructuralError``."""
    _check_closed(net, drop)
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

    The candidates stay sorted across steps: ``owners`` maps each live
    label to the tensors that hold it, ``cands`` lists each candidate
    ``(i, j)``, ``i < j``, once and in sorted order, and ``widths`` holds
    its ``len(S_i | S_j)`` at the same position.  A merge deletes the pairs
    of its two operands and inserts each of the new tensor's, all at
    bisected positions, so no step sorts.  Each step draws one vector of
    Gumbel variates over the candidates in that order, the same numbers as
    one draw per candidate, so the steps depend only on ``sets`` and
    ``rng``.
    """
    active: dict[int, frozenset[str]] = dict(enumerate(sets))
    owners: dict[str, list[int]] = {}
    for i, s in active.items():
        for label in s:
            owners.setdefault(label, []).append(i)
    # Two tensors that share two labels are one candidate.
    cands = sorted({(ids[0], ids[1]) for ids in owners.values() if len(ids) == 2})
    widths = [len(sets[i] | sets[j]) for i, j in cands]
    steps: list[tuple[int, int]] = []

    for k in range(len(sets), 2 * len(sets) - 1):
        if not cands:
            first, second = sorted(active, key=lambda i: (len(active[i]), i))[:2]
            pair = (min(first, second), max(first, second))
        else:
            keys = np.array(widths, dtype=float)
            if rng is not None:
                keys += rng.gumbel(size=len(cands))
            at = int(keys.argmin())
            pair = cands[at]
            del cands[at], widths[at]
        i, j = pair
        a, b = active.pop(i), active.pop(j)
        active[k] = out = a ^ b
        for label in a & b:
            del owners[label]
        # Each label of ``out`` moves from its operand to ``k``; a tensor
        # still holding it is a neighbour of that operand.
        edges: set[tuple[int, int]] = set()
        for label in out:
            holders = owners[label]
            old = i if label in a else j
            holders.remove(old)
            if holders:
                edges.add((holders[0], old))
            holders.append(k)
        for x, old in edges:
            at = bisect.bisect_left(cands, (min(x, old), max(x, old)))
            del cands[at], widths[at]
        for x in {x for x, _ in edges}:
            at = bisect.bisect_left(cands, (x, k))
            cands.insert(at, (x, k))
            widths.insert(at, len(active[x] | out))
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
    A network without tensors raises ``StructuralError`` (``_walk``).
    """
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
    """Refuse a plan whose ``step_footprint`` is over the budget, as
    ``run_sliced`` does before it dispatches any slice.  A plan that does
    not fit ``net`` raises ``StructuralError``."""
    check_budget(step_footprint(net, plan), "the plan's largest contraction step")


def _compile(net: TensorNetwork, steps, fixed: frozenset[str]):
    """Compile ``steps`` over ``net`` with the labels ``fixed`` taken out
    of every tensor, in one ``_walk``.

    Returns ``(program, labels, dependent, footprint)``.  ``program`` holds
    one ``(i, j, k, args)`` per step, with ``args`` the arguments of
    ``_step``: the ``newaxes`` and ``newshape`` that ``np.tensordot``
    computes for each operand, summing over the labels the operands share
    in ``i``'s order, and the output shape, ``i``'s other labels then
    ``j``'s.  ``labels[x]`` is id ``x``'s ordered labels and
    ``dependent[x]`` whether it holds a fixed label, a leaf by its labels
    and a step by its operands.  ``footprint`` is the elements the largest
    step holds at once, its operands and its output (``_cost``'s step
    over these index sets)."""
    labels = [tuple(l for l in t.indices if l not in fixed) for t in net.tensors]
    dependent = [not fixed.isdisjoint(t.indices) for t in net.tensors]
    footprint = max((1 << len(x) for x in labels), default=1)
    program = []
    for i, j, k in _walk(len(labels), steps):
        a, b = labels[i], labels[j]
        axes_a, rest_a, axes_b = [], [], []
        for x, l in enumerate(a):
            if l in b:
                axes_a.append(x)
                axes_b.append(b.index(l))
            else:
                rest_a.append(x)
        rest_b = [x for x, l in enumerate(b) if l not in a]
        out = tuple([a[x] for x in rest_a] + [b[x] for x in rest_b])
        d = 1 << len(axes_a)
        program.append((i, j, k, (
            rest_a + axes_a, (1 << len(rest_a), d),
            axes_b + rest_b, (d, 1 << len(rest_b)),
            (2,) * len(out),
        )))
        labels.append(out)
        dependent.append(dependent[i] or dependent[j])
        footprint = max(footprint, (1 << len(a)) + (1 << len(b)) + (1 << len(out)))
    return program, labels, dependent, footprint


def _step(x: np.ndarray, y: np.ndarray, pa, sa, pb, sb, so) -> np.ndarray:
    """One compiled step on bare arrays: ``np.tensordot``'s transposes,
    reshapes and ``np.dot``, in its order, so its bytes are
    ``contract_pair``'s."""
    return np.dot(x.transpose(pa).reshape(sa), y.transpose(pb).reshape(sb)).reshape(so)


def contract(net: TensorNetwork, plan: ContractionPlan, assignments=None) -> Tensor:
    """Execute ``plan``: the sum of its contractions under each of
    ``assignments`` (default: every one of ``slice_assignments(plan)``, whose
    sum equals the unsliced result; the value is plan-independent).  Every
    assignment must fix the same labels, else ``ConfigError`` (also when
    none is given), and those must be closed labels of ``net``, else
    ``StructuralError``.  A plan that does not fit ``net`` raises
    ``StructuralError``, and one whose largest step, with the fixed labels
    taken out, is over the memory budget ``CapacityError``, before any step
    runs.  For the default assignments that step is ``step_footprint``'s;
    under the one empty assignment it is the unsliced plan's.

    The plan is compiled once per call (``_compile``) and runs on bare
    arrays through ``_step``.  A leaf that holds a fixed label is
    dependent, and so is a step with a dependent operand.  The invariant
    steps run once per call, in plan order, and their results that
    dependent steps read are held for the call; the dependent steps run
    once per assignment, in plan order, from those results and the
    dependent leaves' sliced views.  Every step makes ``np.tensordot``'s
    operations on the operands of a full replay per assignment, so the
    value is bit-identical to one made with ``contract_pair``."""
    assignments = list(slice_assignments(plan) if assignments is None else assignments)
    if not assignments:
        raise ConfigError("contract needs at least one assignment")
    fixed = frozenset(assignments[0])
    if any(a.keys() != fixed for a in assignments):
        raise ConfigError("every assignment must fix the same labels")
    _check_closed(net, fixed | frozenset(plan.sliced_labels))
    program, labels, dependent, footprint = _compile(net, plan.steps, fixed)
    check_budget(footprint, "the plan's largest contraction step")
    held = {i: t.data for i, t in enumerate(net.tensors) if not dependent[i]}
    for i, j, k, args in program:
        if not dependent[k]:
            held[k] = _step(held.pop(i), held.pop(j), *args)
    leaves = [(i, t) for i, t in enumerate(net.tensors) if dependent[i]]
    program = [step for step in program if dependent[step[2]]]
    total = None
    for assignment in assignments:
        buf = dict(held)
        for i, t in leaves:
            buf[i] = t.data[(*(assignment.get(l, slice(None)) for l in t.indices), ...)]
        for i, j, k, args in program:
            buf[k] = _step(buf.pop(i), buf.pop(j), *args)
        (part,) = buf.values()
        total = part if total is None else total + part
    return Tensor(labels[-1], total)


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

    The plan is priced in one walk, which keeps every tensor's index set,
    every step's index union and its width, the FLOPs, and per label the
    steps and tensors holding it and ``saved``, the FLOPs slicing it
    saves: slicing ``L`` halves each step whose union holds ``L``, and
    takes one index off the peak only when ``L`` is in every tensor of the
    top size.  When some candidate is in every such tensor, only those are
    scored.  A pick updates only the steps and tensors holding the picked
    label: their sets, widths, the FLOPs and the ``saved`` of the labels
    they hold.
    """
    if target_slices < 1 or target_slices & (target_slices - 1):
        raise ConfigError(f"target_slices must be a power of two >= 1, got {target_slices}")
    wanted = int(math.log2(target_slices))
    candidates = sorted(net.all_labels() - set(net.open_indices) - set(plan.sliced_labels))
    chosen: list[str] = list(plan.sliced_labels)
    warning = wanted > len(candidates)

    sets = [set(s) for s in _index_sets(net, frozenset(chosen))]
    unions = []
    for i, j, _ in _walk(len(sets), plan.steps):
        unions.append(sets[i] | sets[j])
        sets.append(sets[i] ^ sets[j])
    widths = [len(u) for u in unions]
    sizes = [len(s) for s in sets]
    flops = sum(1 << w for w in widths)
    saved: Counter[str] = Counter()
    steps_of: dict[str, list[int]] = {}
    ids_of: dict[str, list[int]] = {}
    for x, u in enumerate(unions):
        half = (1 << widths[x]) >> 1
        for label in u:
            saved[label] += half
            steps_of.setdefault(label, []).append(x)
    for x, s in enumerate(sets):
        for label in s:
            ids_of.setdefault(label, []).append(x)

    for _ in range(min(wanted, len(candidates))):
        top = max(sizes)
        in_every_top = set.intersection(*(sets[x] for x, n in enumerate(sizes) if n == top))
        best = min([l for l in candidates if l in in_every_top] or candidates,
                   key=lambda l: (max(flops - saved[l], 1), l))
        chosen.append(best)
        candidates.remove(best)
        for x in steps_of.get(best, ()):
            unions[x].discard(best)
            widths[x] -= 1
            w = widths[x]
            flops -= 1 << w
            drop = (1 << w) - ((1 << w) >> 1)
            for label in unions[x]:
                saved[label] -= drop
        for x in ids_of.get(best, ()):
            sets[x].discard(best)
            sizes[x] -= 1

    return replace(
        plan,
        sliced_labels=tuple(sorted(chosen)),
        slice_warning=warning,
        est_flops=max(flops, 1) << len(chosen),
        est_peak_elements=1 << max(sizes),
    )


# -- circuit-level entry points -----------------------------------------


def build_network(c: Circuit, bitstring: str | None = None) -> TensorNetwork:
    """The network every entry point plans on: ``circuit_to_network`` with
    its rank-1 tensors absorbed into a neighbour each.

    Without ``bitstring`` the network stays open on each qubit's final wire;
    an idle qubit keeps its input vector as a rank-1 open tensor.  Its
    ``2^n``-element output over the budget raises ``CapacityError`` before
    anything is built, so no one plans a network whose value is refused.
    """
    if bitstring is None:
        check_budget(1 << c.num_qubits, f"the {c.num_qubits}-qubit output state")
    return absorb_small_tensors(circuit_to_network(c, bitstring), max_rank=1)


def evaluate(net: TensorNetwork, plan: ContractionPlan,
             assignments=None) -> complex | OutputDistribution:
    """The value of ``contract(net, plan, assignments)``, which checks the
    plan first: a ``complex`` for a closed network, and for an open one the
    output state squared, as an ``OutputDistribution``.

    Qubit ``q``'s open index is ``net.open_indices[q]``; the output axes are
    put in reverse qubit order so that qubit 0 is the least-significant bit
    of the flat index, as in ``bitstring_to_index``.
    """
    result = contract(net, plan, assignments)
    if not net.open_indices:
        return complex(result.data.reshape(()))
    axes = [result.indices.index(label) for label in reversed(net.open_indices)]
    view = result.data.transpose(axes)
    probs = np.empty(view.shape)
    np.abs(view, out=probs)
    return OutputDistribution(len(net.open_indices), np.square(probs, out=probs).reshape(-1))


def amplitude(
    c: Circuit,
    bitstring: str,
    cfg: PathfinderConfig | None = None,
) -> complex:
    """Probability amplitude of ``bitstring`` via network contraction."""
    net = build_network(c, bitstring)
    return evaluate(net, find_path(net, cfg or PathfinderConfig()))


def reconstruct_distribution(
    c: Circuit, cfg: PathfinderConfig | None = None
) -> OutputDistribution:
    """Full output distribution from one contraction of the open network;
    ``build_network`` refuses a ``2^n`` output over the budget before
    anything is planned."""
    net = build_network(c)
    return evaluate(net, find_path(net, cfg or PathfinderConfig()))
