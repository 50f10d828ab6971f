"""Tests of the benchmark itself: its declared metrics, its workload to
layer map, its checks, and one tiny run of every workload.

Run from the repository root: ``python3 -m pytest benchmark/tests -q``.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from qcsim import statevector as sv
from qcsim.circuit import bitstring_to_index
from qcsim.generators import generate

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The layers each workload is built to exercise, and the per-layer metrics
# that belong to each layer (by the metric name's first component).
LAYERS = {"statevector", "tensornet", "sliced", "generators", "metrics", "advisor", "qasm"}
BENCHMARK_LAYERS = {"trace", "process", "failed_frac"}

TINY_JOBS = {
    "sv-dist": [wl.Job("qft", 5), wl.Job("bv", 5), wl.Job("qpe", 5), wl.Job("qaoa", 5)],
    "tn-dist": [wl.Job("qft", 4), wl.Job("random", 4)],
    "tn-sliced": [wl.Job("qft", 8)],
}


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_workload_maps_to_the_layers():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert sorted(declared) == sorted(wl.WORKLOADS)
    exercised = set()
    for name in declared:
        layers = set(wl.WORKLOADS[name].LAYERS)
        assert layers and layers <= LAYERS, name
        exercised |= layers
    assert exercised == LAYERS
    for metric in run.PER_LAYER:
        assert metric.split(".")[0] in LAYERS | BENCHMARK_LAYERS, metric


@pytest.mark.parametrize("family", ["qft", "bv", "qpe"])
@pytest.mark.parametrize("n", [4, 7, 10])
def test_closed_forms_agree_with_the_state_vector(family, n):
    c = generate(wl.Job(family, n).spec())
    amps = sv.run(c).amps
    probs = np.abs(amps) ** 2
    for index in (0, (1 << n) - 1, 5 << (n - 3)):
        assert wl.closed_form_error(c, amps, probs, index) <= 1e-12


def test_qpe_closed_form_gives_every_amplitude():
    c = generate(wl.Job("qpe", 6).spec())
    amps = sv.run(c).amps
    got = [wl._qpe_amplitude(c, i) for i in range(len(amps))]
    assert np.abs(np.array(got) - amps).max() <= 1e-12


def test_check_reports_a_wrong_amplitude():
    job = wl.Job("qft", 5)
    draw = wl.make_draw(5, 1, 0, 0)
    amps = sv.run(generate(job.spec())).amps
    right = complex(amps[bitstring_to_index(draw.bitstring)])
    records = [(job, draw, {"amp": right}), (job, draw, {"amp": right + 1e-6})]
    errors = wl.TnSliced().check(records)
    assert errors[0] is None
    assert errors[1] is not None


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_each_workload_runs_once(name, trace):
    lines, summary = run.run_benchmark(name, seed=3, seconds=0.0, trace=trace,
                                       jobs=TINY_JOBS[name])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == len(TINY_JOBS[name])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    values = {k: v["value"] for k, v in summary["metrics"].items()}
    assert all(np.isfinite(v) for v in values.values())
    if trace:
        assert 0.9 <= values["trace.coverage"] <= 1.0
        for layer in wl.WORKLOADS[name].LAYERS:
            assert any(values[k] > 0 for k in values if k.startswith(layer + ".")), layer
    else:
        assert all(v > 0 for v in values.values())
    assert any(line.startswith("env ") for line in lines)
    # The two tn-dist probes fail today; nothing else may.
    failed_frac = [line for line in lines if "failed_frac" in line][0]
    assert ("2 of 2 probes failed" in failed_frac) == (name == "tn-dist")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "tn-dist",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
