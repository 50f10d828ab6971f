import logging
import sys

import pytest
from hypothesis import given, settings, strategies as st

from qcsim import blas, sliced, tensornet
from qcsim.circuit import Circuit, bitstring_to_index
from qcsim.errors import CapacityError, ConfigError
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.harness import bench_simulate, pathfinding_study, strong_scaling_experiment
from qcsim.sliced import WorkerPoolConfig, make_worker_pool, run_sliced
from qcsim.statevector import distribution, run
from qcsim.tensornet import (
    PathfinderConfig,
    amplitude,
    build_network,
    choose_slices,
    find_path,
    reconstruct_distribution,
    slice_assignments,
)

from conftest import draw_gates, most_likely

CFG = PathfinderConfig(num_samples=4, seed=13)


def test_degenerate_configuration_matches_amplitude():
    c = generate(GeneratorSpec(Family.QFT, 10))
    direct = amplitude(c, "0" * 10, CFG)
    r = run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=1), slices=1)
    assert r.result == pytest.approx(direct, abs=1e-12)


def test_bell_two_workers_two_slices(bell):
    r = run_sliced(bell, "00", CFG, WorkerPoolConfig(workers=2), slices=2)
    assert r.result == pytest.approx(2 ** -0.5, abs=1e-10)


def test_result_invariant_across_worker_and_slice_counts():
    c = generate(GeneratorSpec(Family.QFT, 10))
    reference = run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=1), slices=1).result
    for slices in (2, 4, 8, 16):
        for workers in (1, 2, 4):
            if slices < workers:
                continue
            r = run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=workers), slices=slices)
            rel = abs(r.result - reference) / abs(reference)
            assert rel <= 1e-8, (slices, workers)


def test_deterministic_reduce_is_bit_identical():
    c = generate(GeneratorSpec(Family.QAOA, 8))
    bits = most_likely(distribution(run(c)))
    pool = WorkerPoolConfig(workers=2)
    results = {run_sliced(c, bits, CFG, pool, slices=8).result for _ in range(5)}
    assert len(results) == 1


def test_slices_must_cover_workers(bell):
    with pytest.raises(ConfigError):
        run_sliced(bell, "00", CFG, WorkerPoolConfig(workers=4), slices=2)


def test_slices_must_be_power_of_two(bell):
    with pytest.raises(ConfigError):
        run_sliced(bell, "00", CFG, WorkerPoolConfig(workers=1), slices=3)


def test_non_binary_bitstring_raises_before_a_pool_starts(monkeypatch, bell):
    pools = []
    monkeypatch.setattr(sliced, "make_worker_pool", lambda workers: pools.append(workers))
    for bitstring, match in (("02", "holds '2'"), (None, "needs its bitstring")):
        with pytest.raises(ConfigError, match=match):
            run_sliced(bell, bitstring, CFG, WorkerPoolConfig(workers=2), slices=2)
    assert pools == []


class RecordingExecutor:
    """Runs ``map`` in this process and records every call."""

    def __init__(self):
        self.calls = []

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.calls.append((fn, tasks))
        return map(fn, tasks)


def test_load_balance_bound():
    c = generate(GeneratorSpec(Family.QFT, 12))
    for workers in (2, 4):
        executor = RecordingExecutor()
        run_sliced(c, "0" * 12, CFG, WorkerPoolConfig(workers=workers),
                   slices=4 * workers, executor=executor)
        [tasks] = [tasks for fn, tasks in executor.calls if fn is sliced._contract_shard]
        assert [len(shard) for _, _, shard in tasks] == [4] * workers


def test_workers_beyond_the_slices_made_get_no_task():
    # An idle circuit's closed network has no label left to slice, so the
    # 4 slices asked for are 1, and only one of the 2 workers contracts.
    executor = RecordingExecutor()
    r = run_sliced(Circuit(3), "000", CFG, WorkerPoolConfig(workers=2), slices=4,
                   executor=executor)
    [tasks] = [tasks for fn, tasks in executor.calls if fn is sliced._contract_shard]
    assert [shard for _, _, shard in tasks] == [[{}]]
    assert r.result == 1 and len(r.worker_s) == 1


def test_scaling_run_accounting():
    c = generate(GeneratorSpec(Family.VQE, 8))
    r = run_sliced(c, "0" * 8, CFG, WorkerPoolConfig(workers=2), slices=4)
    assert len(r.worker_s) == 2
    assert all(s > 0 for s in r.worker_s)
    assert r.wall_time > 0
    assert r.imbalance >= 1.0


def test_strong_scaling_experiment_rows():
    spec = GeneratorSpec(Family.VQE, 8)
    runs = strong_scaling_experiment(spec, [1, 2], CFG, repetitions=2, slices=4)
    assert len(runs) == 4
    assert [r["workers"] for r in runs] == [1, 1, 2, 2]
    assert [r["rep"] for r in runs] == [0, 1, 0, 1]
    assert {r["slices"] for r in runs} == {4}
    values = {complex(round(r["result_re"], 10), round(r["result_im"], 10)) for r in runs}
    assert len(values) <= 2  # same value up to reduction rounding


def test_worker_pool_config_validation():
    with pytest.raises(ConfigError):
        WorkerPoolConfig(workers=0)


@pytest.fixture(scope="module")
def pool():
    with make_worker_pool(2) as executor:
        yield executor


def test_pooled_plan_matches_find_path(pool):
    cases = [
        (build_network(generate(GeneratorSpec(family, 8, seed=1)), "0" * 8),
         PathfinderConfig(num_samples=5, seed=3))
        for family in (Family.QFT, Family.QAOA, Family.RANDOM, Family.VQE)
    ]
    cases.append((build_network(generate(GeneratorSpec(Family.QFT, 14)), "0" * 14),
                  PathfinderConfig(num_samples=4, seed=3)))
    for net, cfg in cases:
        expected = find_path(net, cfg)
        assert find_path(net, cfg, pool) == expected
        recording = RecordingExecutor()
        assert find_path(net, cfg, recording) == expected
        [(fn, tasks)] = recording.calls
        assert fn is tensornet._descent
        assert [sample for _, _, sample in tasks] == list(range(cfg.num_samples))


def test_every_tn_entry_point_plans_through_find_path(monkeypatch):
    calls = []
    real = tensornet.find_path

    def spy(net, cfg, executor=None):
        calls.append(executor)
        return real(net, cfg, executor)

    monkeypatch.setattr(tensornet, "find_path", spy)

    def planned(fn):
        calls.clear()
        fn()
        return list(calls)

    spec = GeneratorSpec(Family.QFT, 6)
    c = generate(spec)
    bits = "0" * 6
    assert planned(lambda: amplitude(c, bits, CFG)) == [None]
    assert planned(lambda: reconstruct_distribution(c, CFG)) == [None]
    one, two = RecordingExecutor(), RecordingExecutor()
    assert planned(lambda: run_sliced(c, bits, CFG, WorkerPoolConfig(workers=1),
                                      slices=2, executor=one)) == [None]
    assert planned(lambda: run_sliced(c, bits, CFG, WorkerPoolConfig(workers=2),
                                      slices=2, executor=two)) == [two]
    assert [len(tasks) for fn, tasks in two.calls if fn is tensornet._descent] == [4]
    assert planned(lambda: bench_simulate(c, "tn", warmup=0, reps=1)) == [None]
    assert planned(lambda: pathfinding_study(spec, [1, 2], repetitions=1)) == [None] * 2


@st.composite
def circuits_and_bits(draw):
    n = draw(st.integers(3, 6))
    c = draw_gates(draw, Circuit(n), range(n), max_gates=16)
    bits = draw(st.text("01", min_size=n, max_size=n))
    return c, bits, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(case=circuits_and_bits())
def test_pooled_sliced_amplitude_matches_sv(pool, case):
    c, bits, seed = case
    r = run_sliced(c, bits, PathfinderConfig(num_samples=3, seed=seed),
                   WorkerPoolConfig(workers=2), slices=4, executor=pool)
    assert r.result == pytest.approx(run(c, "double").amps[bitstring_to_index(bits)], abs=1e-10)


def test_slices_go_round_robin():
    c = generate(GeneratorSpec(Family.QFT, 10))
    executor = RecordingExecutor()
    r = run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=3), slices=8, executor=executor)
    net = build_network(c, "0" * 10)
    plan = choose_slices(net, find_path(net, CFG), 8)
    assignments = list(slice_assignments(plan))
    assert len(assignments) == 8
    [tasks] = [tasks for fn, tasks in executor.calls if fn is sliced._contract_shard]
    assert [shard for _, _, shard in tasks] == [assignments[w::3] for w in range(3)]
    assert r.result == pytest.approx(amplitude(c, "0" * 10, CFG), abs=1e-12)


def test_run_sliced_checks_the_per_slice_budget(monkeypatch):
    # qft-10's largest step, operands and output, holds 5120 elements
    # unsliced, 3072 per slice over 2 slices and 1280 over 8; its peak
    # tensors alone (2048, 1024, 512) would all fit 2^11.
    c = generate(GeneratorSpec(Family.QFT, 10))
    expected = amplitude(c, "0" * 10, CFG)
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "11")
    executor = RecordingExecutor()
    with pytest.raises(CapacityError) as info:
        run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=1), slices=1, executor=executor)
    assert info.value.required_bytes == 5120 * 16
    with pytest.raises(CapacityError) as info:
        run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=2), slices=2, executor=executor)
    assert info.value.required_bytes == 3072 * 16
    assert "QCSIM_MAX_QUBITS" in str(info.value)
    assert all(fn is not sliced._contract_shard for fn, _ in executor.calls)
    r = run_sliced(c, "0" * 10, CFG, WorkerPoolConfig(workers=2), slices=8, executor=executor)
    assert r.result == pytest.approx(expected, abs=1e-12)


def _worker_blas_threads() -> int:
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        return blas._openblas_calls()[1]()
    return max(p["num_threads"] for p in threadpool_info() if p["user_api"] == "blas")


@pytest.mark.skipif(sliced.threadpool_limits is None, reason="no BLAS pinning route")
def test_pool_worker_runs_one_blas_thread():
    with make_worker_pool(1) as executor:
        assert executor.submit(_worker_blas_threads).result(timeout=60) == 1


@pytest.fixture
def no_blas_route(monkeypatch, tmp_path):
    empty_maps = tmp_path / "maps"
    empty_maps.write_text("")
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(blas, "_MAPS", str(empty_maps))
    blas.controls.cache_clear()
    yield
    blas.controls.cache_clear()


def test_missing_blas_route_warns_once(no_blas_route, caplog):
    with caplog.at_level(logging.WARNING, logger="qcsim.blas"):
        assert sliced.threadpool_limits is None
        assert sliced.threadpool_limits is None
        sliced._pin_worker_blas()
    assert len(caplog.records) == 1
    assert "BLAS" in caplog.records[0].getMessage()
