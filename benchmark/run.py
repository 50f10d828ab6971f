"""qcsim benchmark: the circuit -> metrics -> advisor -> backend pipeline,
timed end to end on fixed workloads, and per layer in a separate traced run.

Run it from the root of a checkout; it imports ``qcsim`` from ``src/``:

    python3 benchmark/run.py --workload tn-dist --seed 1 --seconds 36 --trace 0

Workloads are listed in ``workloads.WORKLOADS``.  One run:

1. Set-up, repeated ``SETUP_REPS`` times: prepare the job inputs, start the
   worker pool if the workload has one, and run one untimed warm-up pass of
   the job list at ``WARMUP_N`` qubits.  ``setup_s`` is the time to import
   ``qcsim`` plus the median set-up.
2. Timed section: whole passes over the job list, in a fixed order, as
   many as bring the jobs' summed wall time nearest to ``--seconds`` (at
   least one).  Each job is timed on its own with ``perf_counter``;
   whatever is done between jobs is untimed.
3. Every result is checked after the timed section (see ``workloads``).

Each job's time is its least wall time over the passes.  The host's
stalls only ever add time, and they come and go within seconds, so the
least time is the steadiest estimate of the job's own cost.  The human-readable report
goes to standard output first; its last line is one JSON object.  With
``--trace 0`` its metrics are the end-to-end ones:

* ``setup_s``: import plus median set-up, seconds.
* ``jobs_per_s``: jobs per pass over the summed job times, times the
  share of job results that verified.
* ``job_s_geomean``: geometric mean of the job times, so that cheap and
  costly jobs count alike.
* ``peak_rss_mib``: peak resident memory up to the end of the timed
  section, of this process plus its largest pool worker.

The report before it gives the job count, ``failed_frac`` (failed jobs
and probes over those attempted; the result's ``failed`` counts jobs
only), every failure, the jobs left unmeasured and the environment.

With ``--trace 1`` every call into a ``qcsim`` module made by the job code
is timed (see ``tracer``) and the metrics are those in ``PER_LAYER``.
Totals (``*.s``, counts, FLOPs, bytes, CPU time) are per pass of the job
list; layers a workload does not call read 0.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPS = 3
# One amplitude update of a complex128 state reads and writes 16 bytes.
BYTES_PER_AMP_UPDATE = 32
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_geomean": "s",
    "peak_rss_mib": "MiB",
}

TIMED_CALLS = (
    "generators.generate",
    "qasm.parse_qasm",
    "metrics.compute_all",
    "advisor.recommend",
    "statevector.run",
    "statevector.distribution",
    "tensornet.find_path",
    "tensornet.reconstruct_distribution",
    "sliced.run_sliced",
)

PER_LAYER = {
    **{f"{name}.s": "s" for name in TIMED_CALLS},
    "statevector.gates": "count",
    "statevector.amp_updates": "count",
    "statevector.amp_updates_per_s": "1/s",
    "statevector.bytes_computed": "B",
    **{
        f"statevector.ns_per_amp.n{n}.{kind}": "ns"
        for n in (16, 20)
        for kind in ("1q_dense", "1q_diag", "2q_dense", "2q_diag")
    },
    "tensornet.find_path.s_per_sample": "s",
    "tensornet.tensors": "count",
    "tensornet.plan.est_flops": "count",
    "tensornet.plan.peak_elements_log2": "log2",
    "sliced.pathfind_s": "s",
    "sliced.contract_wall_s": "s",
    "sliced.overhead_s": "s",
    "sliced.imbalance": "ratio",
    "sliced.est_flops": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "process.cpu_s": "s",
    "failed_frac": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest ended child.

    Linux reports ``ru_maxrss`` in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def environment(worker_blas_pinning: bool, dtypes) -> dict:
    """Facts recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas_text = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "worker_blas_pinning": worker_blas_pinning,
        "dtype": sorted(dtypes),
    }


def layer_metrics(tr, passes, timed_s, call_overhead_s, cpu_s, failed_frac, probe) -> dict:
    busy, counts = tr.busy, tr.counts
    m = {f"{name}.s": busy[name] / passes for name in TIMED_CALLS}
    amp_updates = counts["statevector.amp_updates"]
    m["statevector.gates"] = counts["statevector.gates"] / passes
    m["statevector.amp_updates"] = amp_updates / passes
    m["statevector.amp_updates_per_s"] = _ratio(amp_updates, busy["statevector.run"])
    m["statevector.bytes_computed"] = amp_updates * BYTES_PER_AMP_UPDATE / passes
    m.update(probe)
    m["tensornet.find_path.s_per_sample"] = _ratio(
        busy["tensornet.find_path"], counts["tensornet.samples"]
    )
    m["tensornet.tensors"] = counts["tensornet.tensors"] / passes
    m["tensornet.plan.est_flops"] = counts["tensornet.plan.est_flops"] / passes
    m["tensornet.plan.peak_elements_log2"] = tr.maxima.get("tensornet.plan.peak_elements_log2", 0)
    pathfind, wall = counts["sliced.pathfind_s"], counts["sliced.contract_wall_s"]
    m["sliced.pathfind_s"] = pathfind / passes
    m["sliced.contract_wall_s"] = wall / passes
    m["sliced.overhead_s"] = (busy["sliced.run_sliced"] - pathfind - wall) / passes
    m["sliced.imbalance"] = _ratio(counts["sliced.imbalance"], counts["sliced.runs"])
    m["sliced.est_flops"] = counts["sliced.est_flops"] / passes
    m["trace.coverage"] = _ratio(tr.covered_s, timed_s)
    m["trace.overhead_frac"] = _ratio(call_overhead_s * tr.in_job_calls, timed_s)
    m["process.cpu_s"] = cpu_s / passes
    m["failed_frac"] = failed_frac
    return m


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  jobs=None, import_s: float = 0.0) -> tuple[list[str], dict]:
    """Run one workload; return (report lines, result object).

    ``jobs`` replaces the workload's job list (the tests use tiny ones).
    ``qcsim`` must already be importable.
    """
    import workloads as wl
    from qcsim import sliced
    from tracer import NullTracer, Tracer, call_overhead_s

    cls = wl.WORKLOADS[name]
    untraced = NullTracer()
    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        w = cls(jobs)
        inputs = [w.prepare(job) for job in w.jobs]
        w.start()
        for i, job in enumerate(w.jobs):
            small = wl.Job(job.family, wl.WARMUP_N)
            w.run(w.prepare(small), w.draw(seed, 0, i, small), untraced)
        setup_times.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            w.close()
    setup_s = import_s + statistics.median(setup_times)

    tr = Tracer() if trace else untraced
    records, job_s, errors, probes = [], [], [], []
    passes, timed_s = 0, 0.0
    cpu0 = _cpu_s()
    try:
        # Stop when one more pass would end further from ``seconds``.
        while passes == 0 or timed_s + timed_s / passes / 2 <= seconds:
            for i, job in enumerate(w.jobs):
                draw = w.draw(seed, passes, i, job)
                tr.job_begin()
                t0 = time.perf_counter()
                try:
                    result = w.run(inputs[i], draw, tr)
                except Exception as exc:  # a failed job is counted, not fatal
                    result = exc
                dt = time.perf_counter() - t0
                tr.job_end()
                timed_s += dt
                job_s.append(dt)
                if isinstance(result, Exception):
                    errors.append(f"{type(result).__name__}: {result}")
                    records.append((job, draw, None))
                else:
                    errors.append(None)
                    records.append((job, draw, w.observe(job, draw, result, tr)))
                del result  # free a large result before the next job starts
            probes.extend(w.probe())
            passes += 1
    finally:
        w.close()
    cpu_s = _cpu_s() - cpu0
    peak_rss_mib = _peak_rss_mib()

    checked = [i for i, (_, _, obs) in enumerate(records) if obs is not None]
    for i, err in zip(checked, w.check([records[i] for i in checked])):
        errors[i] = err

    failed = sum(err is not None for err in errors)
    probe_failed = sum(err is not None for _, err in probes)
    failed_frac = (failed + probe_failed) / (len(job_s) + len(probes))
    per_job = len(w.jobs)
    job_least = [min(job_s[j::per_job]) for j in range(per_job)]
    values = {
        "setup_s": setup_s,
        "jobs_per_s": (1 - failed / len(job_s)) * per_job / sum(job_least),
        "job_s_geomean": math.exp(statistics.fmean(math.log(t) for t in job_least)),
        "peak_rss_mib": peak_rss_mib,
    }

    lines = [
        f"workload {name}: seed {seed}, {len(job_s)} jobs ({len(w.jobs)} per pass, "
        f"{passes} passes) in {timed_s:.2f} s timed, trace {'on' if trace else 'off'}",
        *(f"  {k:<14} {v:.6g} {END_TO_END[k]}" for k, v in values.items()),
        f"  {'failed_frac':<14} {failed_frac:.6g} ratio ({failed} of {len(job_s)} jobs, "
        f"{probe_failed} of {len(probes)} probes failed)",
    ]
    lines += [f"  job {records[i][0].name} failed: {err}"
              for i, err in enumerate(errors) if err is not None]
    lines += sorted({f"  probe {p} failed: {err}" for p, err in probes if err is not None})
    lines += [f"  unmeasured: {k}: {why}" for k, why in wl.UNMEASURED.items()]
    dtypes = {obs["dtype"] for _, _, obs in records if obs is not None}
    pinning = sliced.threadpool_limits is not None
    lines.append("env " + json.dumps(environment(pinning, dtypes), sort_keys=True))

    if trace:
        if "statevector" in w.LAYERS:
            probe = wl.apply_gate_probe(w.jobs)
        else:
            probe = {k: 0.0 for k in PER_LAYER if k.startswith("statevector.ns_per_amp.")}
        metrics = layer_metrics(tr, passes, timed_s, call_overhead_s(), cpu_s, failed_frac, probe)
        units = PER_LAYER
    else:
        metrics, units = values, END_TO_END
    summary = {
        "correct": failed == 0,
        "attempted": len(job_s),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qcsim" / "__init__.py").is_file():
        print(f"benchmark: no qcsim sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports qcsim; timed as part of set-up

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START
    lines, summary = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace), import_s=import_s)
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
