"""Benchmark harness: timed runs, CSV/JSON emission, experiments.

Timing protocol: monotonic clock (``perf_counter``), configurable warmup
runs excluded from statistics, mean and 90th percentile reported over the
measured repetitions.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, fields

import numpy as np

from .circuit import Circuit
from .errors import ConfigError
from .generators import Family, GeneratorSpec, generate
from .sliced import ScalingRun
from . import statevector as sv_backend
from . import tensornet as tn_backend
from .tensornet import PathfinderConfig

SCALING_COLUMNS = (
    "circuit",
    "n",
    "workers",
    "slices",
    "rep",
    "wall_time_s",
    "flops_est",
    "imbalance",
    "result_re",
    "result_im",
)

MEMORY_COLUMNS = ("series", "n", "bytes")


@dataclass
class BenchRecord:
    circuit: str
    family: str
    n: int
    backend: str
    precision: str
    pathfind_samples: int
    pathfind_time_s: float
    contract_or_run_time_s: float
    total_time_s: float
    mem_bytes_est: int
    peak_intermediate_elements: int
    seed: int
    rep: int


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def timed(fn, warmup: int, reps: int) -> tuple[list[float], object]:
    """Run ``fn`` ``warmup + reps`` times; return measured times and the
    last result.  ``reps`` below 1 raises ``ConfigError``."""
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return times, result


def summarize_times(times: list[float]) -> dict:
    arr = np.asarray(times)
    return {
        "mean_s": float(arr.mean()),
        "p90_s": float(np.percentile(arr, 90)),
        "reps": len(times),
    }


def bench_simulate(
    c: Circuit,
    backend: str,
    precision: str = "single",
    cfg: PathfinderConfig | None = None,
    warmup: int = 3,
    reps: int = 10,
    seed: int = 0,
) -> tuple[object, list[BenchRecord]]:
    """Run one backend on ``c`` with the timing protocol.

    Returns (distribution-or-amplitude, per-rep records).  The tensor
    network's time splits into one shared pathfinding phase plus per-rep
    contraction; the state vector has no pathfinding component.  The tensor
    network always computes in double precision, whatever ``precision``
    asks, and its records say so.
    """
    cfg = cfg or PathfinderConfig()
    n = c.num_qubits

    if backend == "sv":
        times, state = timed(lambda: sv_backend.run(c, precision), warmup, reps)
        result = sv_backend.distribution(state)
        pathfind_time, samples, peak = 0.0, 0, 1 << n
        mem = sv_backend.sv_memory_bytes(n, precision)
    elif backend == "tn":
        # Plan once, outside the timed contraction, on the network that runs.
        wants_distribution = n <= tn_backend.DEFAULT_ENUMERATION_GUARD
        net = tn_backend.build_network(c, None if wants_distribution else "0" * n)
        t0 = time.perf_counter()
        plan = tn_backend.find_path(net, cfg)
        pathfind_time = time.perf_counter() - t0
        if wants_distribution:
            work = lambda: tn_backend.distribution_from_plan(net, plan)
        else:
            work = lambda: complex(tn_backend.contract(net, plan).data.reshape(()))
        times, result = timed(work, warmup, reps)
        samples, peak = cfg.num_samples, plan.est_peak_elements
        mem = tn_backend.tn_memory_bytes(net, "double")
        precision = "double"
    else:
        raise ConfigError(f"unknown backend {backend!r}; use sv, tn or auto")

    records = [
        BenchRecord(
            circuit=c.name or "circuit",
            family=c.params.get("family", ""),
            n=n,
            backend=backend,
            precision=precision,
            pathfind_samples=samples,
            pathfind_time_s=pathfind_time,
            contract_or_run_time_s=t,
            total_time_s=pathfind_time + t,
            mem_bytes_est=mem,
            peak_intermediate_elements=peak,
            seed=seed,
            rep=rep,
        )
        for rep, t in enumerate(times)
    ]
    return result, records


# -- pathfinding-budget study --------------------------------------------


@dataclass
class PathStudyRow:
    family: str
    n: int
    samples: int
    pathfind_time_s: float
    best_est_flops: int
    contract_time_mean_s: float
    contract_time_p90_s: float


PATHSTUDY_COLUMNS = tuple(f.name for f in fields(PathStudyRow))


@dataclass
class PathStudyResult:
    rows: list[PathStudyRow]
    observed_class: str
    predicted_class: str


def pathfinding_study(
    spec: GeneratorSpec,
    samples_list: list[int],
    repetitions: int = 10,
    warmup: int = 1,
    seed: int = 0,
    bitstring: str | None = None,
) -> PathStudyResult:
    """Pathfinding budget vs contraction time, single-threaded pathfinding.

    For each budget the whole sample sweep runs sequentially (the study
    measures total search cost, not wall-clock of a parallel search), then
    the best plan's contraction is timed with the normal protocol.

    Slope classification: contraction-time improvement of 10% or more from
    the first to the best budget marks the problem unbounded; a FLOP
    landscape flat to within 1% marks it pathfinding-bound; anything else
    is contraction-bound.  An empty ``samples_list`` raises ``ConfigError``.
    """
    from .advisor import advise_circuit

    if not samples_list:
        raise ConfigError("samples_list must name at least one sample budget")
    c = generate(spec)
    bits = bitstring if bitstring is not None else "0" * c.num_qubits
    net = tn_backend.build_network(c, bits)

    rows: list[PathStudyRow] = []
    for samples in samples_list:
        cfg = PathfinderConfig(num_samples=samples, seed=seed)
        t0 = time.perf_counter()
        plan = tn_backend.find_path(net, cfg)
        pathfind_time = time.perf_counter() - t0
        times, _ = timed(lambda: tn_backend.contract(net, plan), warmup, repetitions)
        stats = summarize_times(times)
        rows.append(
            PathStudyRow(
                family=spec.family.value,
                n=spec.n,
                samples=samples,
                pathfind_time_s=pathfind_time,
                best_est_flops=plan.est_flops,
                contract_time_mean_s=stats["mean_s"],
                contract_time_p90_s=stats["p90_s"],
            )
        )

    first_flops, last_flops = rows[0].best_est_flops, rows[-1].best_est_flops
    flops_gain = (first_flops - last_flops) / first_flops if first_flops else 0.0
    first_t = rows[0].contract_time_mean_s
    best_t = min(r.contract_time_mean_s for r in rows)
    time_gain = (first_t - best_t) / first_t if first_t > 0 else 0.0
    if time_gain >= 0.10 and flops_gain > 0.0:
        observed = "unbounded"
    elif flops_gain < 0.01:
        observed = "pathfinding_bound"
    else:
        observed = "contraction_bound"
    predicted = advise_circuit(c).pathfinding_class.value
    return PathStudyResult(rows, observed, predicted)


# -- memory table ---------------------------------------------------------


def memory_table(
    n_values: list[int],
    families: list[Family] | None = None,
    precision: str = "single",
) -> list[dict]:
    """State-vector and per-family tensor-network byte counts per size."""
    families = families if families is not None else list(Family)
    rows: list[dict] = []
    for n in n_values:
        rows.append({"series": "statevector", "n": n,
                     "bytes": sv_backend.sv_memory_bytes(n, precision)})
        for fam in families:
            c = generate(GeneratorSpec(fam, n))
            net = tn_backend.circuit_to_network(c)
            rows.append({"series": f"tn-{fam.value}", "n": n,
                         "bytes": tn_backend.tn_memory_bytes(net, precision)})
    return rows


# -- CSV / JSON emission ---------------------------------------------------


def scaling_run_row(run: ScalingRun) -> dict:
    return {
        "circuit": run.circuit_name,
        "n": run.n,
        "workers": run.workers,
        "slices": run.slices,
        "rep": run.rep,
        "wall_time_s": run.wall_time,
        "flops_est": run.est_flops,
        "imbalance": run.imbalance,
        "result_re": run.result.real,
        "result_im": run.result.imag,
    }


def rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row[k] for k in columns})
    return buf.getvalue()


def csv_to_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
