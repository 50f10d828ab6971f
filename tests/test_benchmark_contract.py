"""The benchmark under ``benchmark/`` calls into ``qcsim`` by name: function
names, keyword arguments, config fields and result fields.  One tiny run of
every workload, traced and untraced, keeps a change to that API from going
unnoticed by the main suite.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY_JOBS = {
    # At n=5 every gate lies in the state vector's band 0 (qubits 0-4);
    # qpe-8 (checked against its closed form) and random-8 (against a TN
    # amplitude) also cross into band 1; vqe-12 and qaoa-12 (TN
    # amplitudes) fuse gates into blocks on three bands and fuse crossing
    # items.
    "sv-dist": [wl.Job("qft", 5), wl.Job("vqe", 5), wl.Job("qpe", 8), wl.Job("random", 8),
                wl.Job("vqe", 12), wl.Job("qaoa", 12)],
    "tn-dist": [wl.Job("qft", 4), wl.Job("random", 4)],
    "tn-sliced": [wl.Job("qft", 8)],
}


def test_every_workload_has_a_tiny_job_list():
    assert set(TINY_JOBS) == set(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_JOBS))
def test_workload_runs_correctly(name, trace):
    lines, summary = run.run_benchmark(name, seed=3, seconds=0.0, trace=trace,
                                       jobs=TINY_JOBS[name])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == len(TINY_JOBS[name])
    failed_frac = next(line for line in lines if "failed_frac" in line)
    if name == "tn-dist":
        assert "0 of 2 probes failed" in failed_frac
    else:
        assert "0 of 0 probes failed" in failed_frac
