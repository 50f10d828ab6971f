"""Benchmark harness: timed runs, CSV/JSON emission, experiments.

Timing protocol: monotonic clock (``perf_counter``), warmup runs excluded
from statistics, mean and 90th percentile reported over the measured
repetitions.  ``bench_simulate`` takes its warmup count;
``pathfinding_study`` and ``strong_scaling_experiment`` warm up once.  A
TN run plans once, untimed, then times ``tensornet.evaluate`` of that plan.

Every experiment returns flat dict rows whose keys are its CSV columns, in
column order, and ``rows_to_csv`` takes the columns from the first row:

- ``bench_simulate``: one row per measured rep (circuit, family, n,
  backend, precision, pathfind_samples, pathfind_time_s,
  contract_or_run_time_s, total_time_s, mem_bytes_est,
  peak_intermediate_elements, seed, rep).
- ``pathfinding_study``: one row per sample budget (family, n, samples,
  pathfind_time_s, best_est_flops, contract_time_mean_s,
  contract_time_p90_s), under ``"rows"`` beside the observed and predicted
  pathfinding class.
- ``strong_scaling_experiment``: one row per worker count and rep
  (circuit, n, workers, slices, rep, wall_time_s, flops_est, imbalance,
  result_re, result_im).
- ``memory_table``: one row per size (series, n, bytes), the state
  vector's bytes.  A TN run's memory depends on its plan: it is the plan's
  largest contraction step, which ``bench_simulate`` (and so
  ``qcsim simulate --backend tn --json``) reports as ``mem_bytes_est``.
"""
from __future__ import annotations

import csv
import io
import json
import time

import numpy as np

from .advisor import advise_circuit
from .circuit import Circuit
from .errors import ConfigError
from .generators import GeneratorSpec, generate
from .sliced import WorkerPoolConfig, check_slices, make_worker_pool, run_sliced
from . import statevector as sv_backend
from . import tensornet as tn_backend
from .tensornet import PathfinderConfig

# ``bench_simulate``'s TN output: the full distribution up to this many
# qubits, else the all-zeros amplitude.  An output policy, not a memory
# rule: at 21-22 qubits the open plans of qft, qpe and random (8 samples,
# seed 0) step at 2^29 to 2^38 elements, over the default budget of 2^28
# on a 7.8 GiB machine, where the closed plans of qft and qpe fit at 2^24
# to 2^27.
TN_DISTRIBUTION_QUBITS = 20


def timed(fn, warmup: int, reps: int) -> tuple[list[float], object]:
    """Run ``fn`` ``warmup + reps`` times; return measured times and the
    last result.  Each rep's result is dropped before the next call, so
    that no two are held at once.  ``warmup`` below 0 or ``reps`` below 1
    raises ``ConfigError``."""
    if warmup < 0:
        raise ConfigError(f"warmup must be >= 0, got {warmup}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        result = None
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
) -> tuple[object, list[dict]]:
    """Run one backend on ``c`` with the timing protocol.

    Returns (distribution-or-amplitude, per-rep rows).  The tensor
    network's time splits into one shared pathfinding phase plus per-rep
    ``tensornet.evaluate``; the state vector has no pathfinding component.
    ``tensornet.build_network`` refuses a TN distribution whose ``2^n``
    output is over the budget before any pathfinding.  The tensor
    network always computes in double precision, whatever ``precision``
    asks, and its rows say so; a ``precision`` other than 'single' and
    'double' raises ``ConfigError`` on either backend.  ``mem_bytes_est`` is the state vector's
    bytes, or the bytes of the plan's largest contraction step
    (``tensornet.step_footprint``).  Each row's ``seed`` is ``cfg.seed``.
    """
    cfg = cfg or PathfinderConfig()
    n = c.num_qubits
    sv_backend.precision_dtype(precision)  # refuse an unknown precision on both backends

    if backend == "sv":
        times, state = timed(lambda: sv_backend.run(c, precision), warmup, reps)
        result = sv_backend.distribution(state)
        pathfind_time, samples, peak = 0.0, 0, 1 << n
        mem = sv_backend.sv_memory_bytes(n, precision)
    elif backend == "tn":
        # Plan once, outside the timed contraction, on the network that runs.
        net = tn_backend.build_network(c, None if n <= TN_DISTRIBUTION_QUBITS else "0" * n)
        t0 = time.perf_counter()
        plan = tn_backend.find_path(net, cfg)
        pathfind_time = time.perf_counter() - t0
        times, result = timed(lambda: tn_backend.evaluate(net, plan), warmup, reps)
        samples, peak = cfg.num_samples, plan.est_peak_elements
        mem = tn_backend.step_footprint(net, plan) * sv_backend.ELEMENT_BYTES
        precision = "double"
    else:
        raise ConfigError(f"unknown backend {backend!r}; use sv, tn or auto")

    fixed = {
        "circuit": c.name or "circuit",
        "family": c.params.get("family", ""),
        "n": n,
        "backend": backend,
        "precision": precision,
        "pathfind_samples": samples,
        "pathfind_time_s": pathfind_time,
    }
    rows = [
        {
            **fixed,
            "contract_or_run_time_s": t,
            "total_time_s": pathfind_time + t,
            "mem_bytes_est": mem,
            "peak_intermediate_elements": peak,
            "seed": cfg.seed,
            "rep": rep,
        }
        for rep, t in enumerate(times)
    ]
    return result, rows


# -- pathfinding-budget study --------------------------------------------


def pathfinding_study(
    spec: GeneratorSpec,
    samples_list: list[int],
    repetitions: int = 10,
    seed: int = 0,
) -> dict:
    """Pathfinding budget vs contraction time, single-threaded pathfinding,
    on the circuit's all-zeros amplitude.

    For each budget the whole sample sweep runs sequentially (the study
    measures total search cost, not wall-clock of a parallel search), then
    the best plan's ``tensornet.evaluate`` is timed with the normal
    protocol, after one warmup run.  Returns
    ``{"observed_class", "predicted_class", "rows"}``.

    Slope classification: contraction-time improvement of 10% or more from
    the first to the best budget marks the problem unbounded; a FLOP
    landscape flat to within 1% marks it pathfinding-bound; anything else
    is contraction-bound.  An empty ``samples_list`` raises ``ConfigError``.
    """
    if not samples_list:
        raise ConfigError("samples_list must name at least one sample budget")
    c = generate(spec)
    net = tn_backend.build_network(c, "0" * c.num_qubits)

    rows: list[dict] = []
    for samples in samples_list:
        cfg = PathfinderConfig(num_samples=samples, seed=seed)
        t0 = time.perf_counter()
        plan = tn_backend.find_path(net, cfg)
        pathfind_time = time.perf_counter() - t0
        times, _ = timed(lambda: tn_backend.evaluate(net, plan), 1, repetitions)
        stats = summarize_times(times)
        rows.append({
            "family": spec.family.value,
            "n": spec.n,
            "samples": samples,
            "pathfind_time_s": pathfind_time,
            "best_est_flops": plan.est_flops,
            "contract_time_mean_s": stats["mean_s"],
            "contract_time_p90_s": stats["p90_s"],
        })

    first_flops, last_flops = rows[0]["best_est_flops"], rows[-1]["best_est_flops"]
    flops_gain = (first_flops - last_flops) / first_flops if first_flops else 0.0
    first_t = rows[0]["contract_time_mean_s"]
    best_t = min(r["contract_time_mean_s"] for r in rows)
    time_gain = (first_t - best_t) / first_t if first_t > 0 else 0.0
    if time_gain >= 0.10 and flops_gain > 0.0:
        observed = "unbounded"
    elif flops_gain < 0.01:
        observed = "pathfinding_bound"
    else:
        observed = "contraction_bound"
    return {
        "observed_class": observed,
        "predicted_class": advise_circuit(c).pathfinding_class.value,
        "rows": rows,
    }


# -- strong scaling of sliced contraction ---------------------------------


def strong_scaling_experiment(
    spec: GeneratorSpec,
    worker_counts: list[int],
    cfg: PathfinderConfig | None = None,
    repetitions: int = 30,
    slices: int | None = None,
) -> list[dict]:
    """``repetitions`` timed sliced runs of the all-zeros amplitude per
    worker count, after one warmup run on the same pool.

    The slice count defaults to the least power of two at or above 4x the
    largest worker count (8 for workers 1 and 2), so that every worker
    contracts several slices.  A slice count that is not a power of two or
    is below a worker count raises ``ConfigError`` before any pool starts.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if not worker_counts:
        raise ConfigError("worker_counts must name at least one worker count")
    most = max(worker_counts)
    if slices is not None:
        check_slices(slices, most)
    cfg = cfg or PathfinderConfig()
    c = generate(spec)
    bits = "0" * c.num_qubits
    if slices is None:
        slices = 1 << (4 * most - 1).bit_length()
    rows: list[dict] = []
    for workers in worker_counts:
        pool = WorkerPoolConfig(workers=workers)
        with make_worker_pool(workers) as executor:
            run_sliced(c, bits, cfg, pool, slices, executor=executor)  # warmup
            for rep in range(repetitions):
                run = run_sliced(c, bits, cfg, pool, slices, executor=executor)
                rows.append({
                    "circuit": c.name or "circuit",
                    "n": c.num_qubits,
                    "workers": workers,
                    "slices": slices,
                    "rep": rep,
                    "wall_time_s": run.wall_time,
                    "flops_est": run.est_flops,
                    "imbalance": run.imbalance,
                    "result_re": run.result.real,
                    "result_im": run.result.imag,
                })
    return rows


# -- memory table ---------------------------------------------------------


def memory_table(n_values: list[int], precision: str = "single") -> list[dict]:
    """The state vector's bytes per size, as ``statevector`` rows.  An
    empty ``n_values`` raises ``ConfigError``."""
    if not n_values:
        raise ConfigError("n_values must name at least one qubit count")
    return [
        {"series": "statevector", "n": n, "bytes": sv_backend.sv_memory_bytes(n, precision)}
        for n in n_values
    ]


# -- CSV / JSON emission ---------------------------------------------------


def rows_to_csv(rows: list[dict]) -> str:
    """CSV text of a non-empty ``rows``, its columns the first row's keys."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
