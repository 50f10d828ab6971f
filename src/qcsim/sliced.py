"""Sliced tensor contraction over a local worker pool.

The distributed algorithm's semantics are reproduced with OS processes
standing in for ranks (CPU-bound contraction needs real parallelism):
pathfinding samples are spread over the pool and the single globally best
plan is shared; the network is sliced into a power-of-two number of
sub-networks; slices are assigned to workers by
longest-processing-time-first on their FLOP estimates; each worker contracts
and locally sums its slices; a final reduction adds the per-worker partials.
Per-sample pathfinder seeds depend only on (seed, sample index), so the
winning plan is identical for every worker count.  With
``reduce_order="deterministic"`` the slice order within a worker and the
reduction order are fixed, making repeated runs bit-identical.

Each worker pins its BLAS pools to one thread; otherwise every process
spins up its own BLAS threads and the oversubscription erases the scaling.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - soft dependency
    threadpool_limits = None

_WORKER_BLAS_LIMIT = None


def _limit_worker_blas() -> None:
    global _WORKER_BLAS_LIMIT
    if threadpool_limits is not None:
        _WORKER_BLAS_LIMIT = threadpool_limits(limits=1)

from .circuit import Circuit
from .errors import ConfigError
from .generators import GeneratorSpec, generate
from . import tensornet as tn
from .tensornet import (
    ContractionPlan,
    PathfinderConfig,
    TensorNetwork,
    build_network,
    choose_slices,
    slice_assignments,
)


@dataclass(frozen=True)
class WorkerPoolConfig:
    workers: int = 1
    reduce_order: str = "deterministic"  # or "arrival"

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.reduce_order not in ("deterministic", "arrival"):
            raise ConfigError(f"unknown reduce_order {self.reduce_order!r}")


@dataclass
class ScalingRun:
    circuit_name: str
    n: int
    workers: int
    slices: int
    wall_time: float
    per_worker_flops: list[float]
    result: complex
    pathfind_time: float = 0.0
    est_flops: int = 0
    rep: int = 0

    @property
    def imbalance(self) -> float:
        lo = min(self.per_worker_flops)
        hi = max(self.per_worker_flops)
        return hi / lo if lo > 0 else float("inf")


def _sample_plan(net: TensorNetwork, cfg: PathfinderConfig, sample: int) -> ContractionPlan:
    """One pathfinder descent, identical to find_path's sample ``sample``."""
    sets = tn._index_sets(net)
    if sample == 0:
        steps, flops, peak = tn._greedy_descent(sets, 0.0, None)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, sample)))
        steps, flops, peak = tn._greedy_descent(sets, cfg.greedy_noise, rng)
    return ContractionPlan(len(net.tensors), steps, flops, peak)


def _pathfind_shard(args) -> tuple[tuple[int, int], ContractionPlan] | None:
    net, cfg, lo, hi = args
    best = None
    for sample in range(lo, hi):
        plan = _sample_plan(net, cfg, sample)
        key = (plan.est_flops, sample)
        if best is None or key < best[0]:
            best = (key, plan)
    return best


def _shared_plan(
    net: TensorNetwork,
    cfg: PathfinderConfig,
    executor: ProcessPoolExecutor | None,
    workers: int,
) -> ContractionPlan:
    shards = []
    for w in range(workers):
        lo = w * cfg.num_samples // workers
        hi = (w + 1) * cfg.num_samples // workers
        if hi > lo:
            shards.append((net, cfg, lo, hi))
    if executor is None or len(shards) == 1:
        results = [_pathfind_shard(s) for s in shards]
    else:
        results = list(executor.map(_pathfind_shard, shards))
    best = min((r for r in results if r is not None), key=lambda r: r[0])
    return best[1]


def _contract_shard(args) -> complex:
    net, plan, assignments = args
    partial = 0.0 + 0.0j
    for assignment in assignments:
        t = tn._contract_assignment(net, plan, assignment)
        partial += complex(t.data.reshape(()))
    return partial


def make_worker_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool whose workers run single-threaded BLAS."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_limit_worker_blas)


def run_sliced(
    c: Circuit,
    bitstring: str,
    cfg: PathfinderConfig | None = None,
    pool: WorkerPoolConfig | None = None,
    slices: int = 1,
    executor: ProcessPoolExecutor | None = None,
) -> ScalingRun:
    """Contract the closed network of ``c``/``bitstring`` in ``slices``
    independent pieces spread over the worker pool; returns the amplitude
    and the run's accounting.

    Pass a ``make_worker_pool`` executor to amortize pool startup over
    repeated runs; otherwise a pool is created and torn down per call.
    """
    cfg = cfg or PathfinderConfig()
    pool = pool or WorkerPoolConfig()
    if slices < 1 or slices & (slices - 1):
        raise ConfigError(f"slices must be a power of two, got {slices}")
    if slices < pool.workers:
        raise ConfigError(f"slices ({slices}) must be >= workers ({pool.workers})")

    net = build_network(c, bitstring)

    own_executor = executor is None
    executor = executor if executor is not None else make_worker_pool(pool.workers)
    try:
        t0 = time.perf_counter()
        plan = _shared_plan(net, cfg, executor if pool.workers > 1 else None,
                            pool.workers)
        if slices > 1:
            plan = choose_slices(net, plan, slices)
        pathfind_time = time.perf_counter() - t0

        assignments = list(slice_assignments(plan))
        per_slice = plan.per_slice_flops or plan.est_flops

        # Longest-processing-time-first; slice estimates are symmetric here
        # so this reduces to a balanced round-robin, but the policy is
        # general.
        order = sorted(range(len(assignments)), key=lambda i: (-per_slice, i))
        loads = [0.0] * pool.workers
        shards: list[list[int]] = [[] for _ in range(pool.workers)]
        for idx in order:
            w = min(range(pool.workers), key=lambda j: (loads[j], j))
            loads[w] += per_slice
            shards[w].append(idx)
        tasks = [
            (net, plan, [assignments[i] for i in shard]) for shard in shards
        ]

        t1 = time.perf_counter()
        if pool.reduce_order == "deterministic":
            partials = list(executor.map(_contract_shard, tasks))
        else:
            futures = [executor.submit(_contract_shard, t) for t in tasks]
            partials = [f.result() for f in as_completed(futures)]
        total = 0.0 + 0.0j
        for p in partials:
            total += p
        wall = time.perf_counter() - t1
    finally:
        if own_executor:
            executor.shutdown()

    return ScalingRun(
        circuit_name=c.name or "circuit",
        n=c.num_qubits,
        workers=pool.workers,
        slices=slices,
        wall_time=wall,
        per_worker_flops=[float(l) for l in loads],
        result=total,
        pathfind_time=pathfind_time,
        est_flops=plan.est_flops,
    )


def strong_scaling_experiment(
    spec: GeneratorSpec,
    worker_counts: list[int],
    cfg: PathfinderConfig | None = None,
    repetitions: int = 30,
    slices: int | None = None,
    bitstring: str | None = None,
) -> list[ScalingRun]:
    """Mean-of-``repetitions`` timing per worker count, one warmup excluded.

    Slice count defaults to 4x the largest worker count (rounded up to a
    power of two) so the balancer has work to spread.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    cfg = cfg or PathfinderConfig()
    c = generate(spec)
    bits = bitstring if bitstring is not None else "0" * c.num_qubits
    if slices is None:
        slices = 1
        while slices < 4 * max(worker_counts):
            slices *= 2
    runs: list[ScalingRun] = []
    for workers in worker_counts:
        pool = WorkerPoolConfig(workers=workers)
        with make_worker_pool(workers) as executor:
            run_sliced(c, bits, cfg, pool, slices, executor=executor)  # warmup
            for rep in range(repetitions):
                run = run_sliced(c, bits, cfg, pool, slices, executor=executor)
                run.rep = rep
                runs.append(run)
    return runs
