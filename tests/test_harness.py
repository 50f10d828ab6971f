import csv
import io
import json
import tracemalloc

import pytest

from qcsim import harness
from qcsim import statevector as sv_backend
from qcsim.circuit import Circuit
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.tensornet import PathfinderConfig, build_network, find_path, step_footprint

CFG = PathfinderConfig(num_samples=2, seed=0)

BENCH_HEADER = [
    "circuit", "family", "n", "backend", "precision", "pathfind_samples",
    "pathfind_time_s", "contract_or_run_time_s", "total_time_s", "mem_bytes_est",
    "peak_intermediate_elements", "seed", "rep",
]
SCALING_HEADER = [
    "circuit", "n", "workers", "slices", "rep", "wall_time_s", "flops_est",
    "imbalance", "result_re", "result_im",
]
PATHSTUDY_HEADER = [
    "family", "n", "samples", "pathfind_time_s", "best_est_flops",
    "contract_time_mean_s", "contract_time_p90_s",
]


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_bench_simulate_sv_records():
    c = generate(GeneratorSpec(Family.QFT, 5))
    dist, records = harness.bench_simulate(c, "sv", warmup=1, reps=3)
    assert len(records) == 3
    for r in records:
        assert r["backend"] == "sv"
        assert r["total_time_s"] >= r["contract_or_run_time_s"]
        assert r["total_time_s"] >= r["pathfind_time_s"]
        assert r["mem_bytes_est"] == 32 * 8
    # bench default is single precision; norm drift stays inside 1e-6
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_bench_simulate_tn_records():
    # Pathfinding is timed once, outside the contraction, and the plan
    # figures come from the network that runs, computed in double.
    c = generate(GeneratorSpec(Family.VQE, 5))
    dist, records = harness.bench_simulate(
        c, "tn", precision="single", cfg=CFG, warmup=1, reps=2
    )
    net = build_network(c)
    plan = find_path(net, CFG)
    for r in records:
        assert r["backend"] == "tn"
        assert r["pathfind_samples"] == 2
        assert r["total_time_s"] == r["pathfind_time_s"] + r["contract_or_run_time_s"]
        assert r["precision"] == "double"
        assert r["peak_intermediate_elements"] == plan.est_peak_elements
        assert r["mem_bytes_est"] == step_footprint(net, plan) * 16
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-6)


def test_bench_simulate_tn_memory_is_the_largest_step():
    # qft-12's input tensors hold 17760 bytes; its largest contraction
    # step holds 331776 elements: two operands and the output.
    c = generate(GeneratorSpec(Family.QFT, 12))
    _, records = harness.bench_simulate(c, "tn", warmup=0, reps=1)
    net = build_network(c)
    plan = find_path(net, PathfinderConfig())
    assert records[0]["mem_bytes_est"] == step_footprint(net, plan) * 16 == 5308416


def test_bench_simulate_tn_amplitude_past_enumeration_guard():
    c = Circuit(21).h(0).cnot(0, 1)
    amp, records = harness.bench_simulate(c, "tn", cfg=CFG, warmup=0, reps=1)
    assert amp == pytest.approx(2 ** -0.5, abs=1e-12)
    r = records[0]
    assert r["total_time_s"] == r["pathfind_time_s"] + r["contract_or_run_time_s"]


def test_bench_csv_round_trip():
    c = generate(GeneratorSpec(Family.QFT, 4))
    _, records = harness.bench_simulate(c, "sv", warmup=0, reps=2)
    text = harness.rows_to_csv(records)
    assert text.splitlines()[0] == ",".join(BENCH_HEADER)
    rows = _read_csv(text)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert int(row["n"]) == rec["n"]
        assert float(row["total_time_s"]) == pytest.approx(rec["total_time_s"])
        assert int(row["rep"]) == rec["rep"]


def test_scaling_csv_round_trip():
    runs = harness.strong_scaling_experiment(
        GeneratorSpec(Family.VQE, 6), [1, 2], CFG, repetitions=2, slices=4
    )
    text = harness.rows_to_csv(runs)
    assert text.splitlines()[0] == ",".join(SCALING_HEADER)
    rows = _read_csv(text)
    back = [
        complex(float(r["result_re"]), float(r["result_im"])) for r in rows
    ]
    for value, run in zip(back, runs):
        assert value == pytest.approx(complex(run["result_re"], run["result_im"]), abs=1e-12)


def test_pathstudy_rows_and_csv():
    result = harness.pathfinding_study(
        GeneratorSpec(Family.VQE, 6), [1, 2, 4], repetitions=2
    )
    assert set(result) == {"observed_class", "predicted_class", "rows"}
    assert [r["samples"] for r in result["rows"]] == [1, 2, 4]
    flops = [r["best_est_flops"] for r in result["rows"]]
    assert all(a >= b for a, b in zip(flops, flops[1:]))
    assert result["predicted_class"] == "pathfinding_bound"
    text = harness.rows_to_csv(result["rows"])
    assert text.splitlines()[0] == ",".join(PATHSTUDY_HEADER)
    rows = _read_csv(text)
    assert int(rows[0]["samples"]) == 1


def test_pathstudy_single_budget():
    result = harness.pathfinding_study(
        GeneratorSpec(Family.QFT, 5), [1], repetitions=1
    )
    assert len(result["rows"]) == 1


def test_memory_table_values():
    rows = harness.memory_table([22, 23])
    assert [r["series"] for r in rows] == ["statevector", "statevector"]
    assert [r["bytes"] for r in rows] == [32 * 1024 * 1024, 64 * 1024 * 1024]
    text = harness.rows_to_csv(rows)
    assert text.splitlines()[0] == "series,n,bytes"
    assert _read_csv(text)[0]["series"] == "statevector"


def test_timing_summary_fields():
    stats = harness.summarize_times([0.1, 0.2, 0.3, 0.4])
    assert stats["mean_s"] == pytest.approx(0.25)
    assert stats["reps"] == 4
    assert 0.3 <= stats["p90_s"] <= 0.4


def test_to_json_round_trip():
    payload = {"a": 1, "b": [1.5, 2.5]}
    assert json.loads(harness.to_json(payload)) == payload


@pytest.mark.parametrize("backend", ["sv", "tn"])
def test_bench_simulate_rows_carry_the_pathfinder_seed(backend):
    cfg = PathfinderConfig(num_samples=2, seed=7)
    c = generate(GeneratorSpec(Family.QFT, 4))
    _, records = harness.bench_simulate(c, backend, cfg=cfg, warmup=0, reps=2)
    assert [r["seed"] for r in records] == [cfg.seed, cfg.seed]


def test_timed_holds_one_result_at_a_time():
    # A single run already peaks above its state (the scratch and numpy's
    # buffers); a second rep may add little to that, not a second state.
    c = generate(GeneratorSpec(Family.QFT, 14))
    state_bytes = 16 << 14
    peaks = []
    for reps in (1, 2):
        tracemalloc.start()
        try:
            harness.timed(lambda: sv_backend.run(c, "double"), 0, reps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 0.3 * state_bytes
