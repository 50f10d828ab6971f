"""Sliced tensor contraction over a local worker pool.

The distributed algorithm's semantics are reproduced with OS processes
standing in for ranks (CPU-bound contraction needs real parallelism):
pathfinding is ``tensornet.find_path`` with the pool as its executor, so
its samples are spread over the workers and the one best plan is shared;
the network is sliced into a power-of-two number of sub-networks; every
slice has the same cost, so slice ``i`` goes to worker ``i mod workers``;
each worker runs ``tensornet.contract`` on its slices' assignments, which
sums them locally, and times that; a final reduction adds the per-worker
partials.  Per-sample pathfinder seeds depend only on (seed, sample
index), so the winning plan is identical for every worker count and to
``find_path``'s without a pool.  A network with fewer sliceable labels
than asked yields fewer slices, and only workers that get one take part.
The slice order within a worker and the reduction order are fixed, so
repeated runs are bit-identical.

Pool workers cap their BLAS at one thread (through ``blas``), since
otherwise every process spins up its own BLAS threads and the
oversubscription erases the scaling.  When no route to the thread count
exists, ``threadpool_limits`` is None, one warning is logged and workers
keep their default BLAS threads.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import blas
from .circuit import Circuit
from .errors import ConfigError
from . import tensornet as tn
from .tensornet import PathfinderConfig, build_network, choose_slices, slice_assignments


def __getattr__(name: str):
    # The call that caps this process's BLAS threads, used as
    # ``threadpool_limits(limits=n)``, or None when there is no route;
    # resolved on first use rather than at import.
    if name == "threadpool_limits":
        return blas.limit if blas.controls() is not None else None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _pin_worker_blas() -> None:
    blas.limit(1)


@dataclass(frozen=True)
class WorkerPoolConfig:
    workers: int = 1

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass
class ScalingRun:
    """What one sliced run measured: the amplitude, the pathfinding and
    contraction wall times, the plan's estimated FLOPs, and each worker's
    contraction seconds."""

    result: complex
    pathfind_time: float
    wall_time: float
    est_flops: int
    worker_s: list[float]

    @property
    def imbalance(self) -> float:
        """The slowest worker's contraction time over the fastest's."""
        lo, hi = min(self.worker_s), max(self.worker_s)
        return hi / lo if lo > 0 else float("inf")


def _contract_shard(args) -> tuple[complex, float]:
    net, plan, assignments = args
    t0 = time.perf_counter()
    value = complex(tn.contract(net, plan, assignments).data.reshape(()))
    return value, time.perf_counter() - t0


def make_worker_pool(workers: int) -> ProcessPoolExecutor:
    """Process pool whose workers run single-threaded BLAS, where a route to
    cap BLAS threads exists (a warning is logged where none does)."""
    blas.controls()  # resolved here, so that forked workers inherit it
    return ProcessPoolExecutor(max_workers=workers, initializer=_pin_worker_blas)


def check_slices(slices: int, workers: int) -> None:
    """Raise ``ConfigError`` unless ``slices`` is a power of two and at
    least ``workers``."""
    if slices < 1 or slices & (slices - 1):
        raise ConfigError(f"slices must be a power of two, got {slices}")
    if slices < workers:
        raise ConfigError(f"slices ({slices}) must be >= workers ({workers})")


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
    and what the run measured.  A plan whose largest step (per slice) is
    over the memory budget raises ``CapacityError`` before any slice is
    dispatched, and a ``bitstring`` of None ``ConfigError`` before any pool
    starts.

    Pass a ``make_worker_pool`` executor to amortize pool startup over
    repeated runs; otherwise a pool is created and torn down per call.
    """
    if bitstring is None:
        raise ConfigError("run_sliced contracts one amplitude and needs its bitstring")
    cfg = cfg or PathfinderConfig()
    pool = pool or WorkerPoolConfig()
    check_slices(slices, pool.workers)

    net = build_network(c, bitstring)

    own_executor = executor is None
    executor = executor if executor is not None else make_worker_pool(pool.workers)
    try:
        t0 = time.perf_counter()
        plan = tn.find_path(net, cfg, executor if pool.workers > 1 else None)
        if slices > 1:
            plan = choose_slices(net, plan, slices)
        pathfind_time = time.perf_counter() - t0
        tn._check_budget(net, plan)

        assignments = list(slice_assignments(plan))
        workers = min(pool.workers, len(assignments))
        tasks = [(net, plan, assignments[w::workers]) for w in range(workers)]

        t1 = time.perf_counter()
        parts = list(executor.map(_contract_shard, tasks))
        wall = time.perf_counter() - t1
    finally:
        if own_executor:
            executor.shutdown()

    return ScalingRun(
        result=sum((value for value, _ in parts), 0j),
        pathfind_time=pathfind_time,
        wall_time=wall,
        est_flops=plan.est_flops,
        worker_s=[seconds for _, seconds in parts],
    )

