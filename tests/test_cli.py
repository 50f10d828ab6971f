import json

import pytest

from qcsim import statevector, tensornet
from qcsim.cli import _distribution_payload, main
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.harness import TN_DISTRIBUTION_QUBITS
from qcsim.qasm import parse_qasm

from conftest import gate_counts, top_outcomes


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_qft_file(tmp_path, capsys):
    out = tmp_path / "qft4.qasm"
    code, _, _ = run_cli(capsys, "generate", "--family", "qft", "--n", "4",
                         "--out", str(out))
    assert code == 0
    circuit = parse_qasm(out.read_text())
    assert gate_counts(circuit) == (12, 8)


def test_generate_bv_empty_oracle(tmp_path, capsys):
    out = tmp_path / "bv.qasm"
    code, _, _ = run_cli(capsys, "generate", "--family", "bv", "--n", "4",
                         "--m", "0", "--out", str(out))
    assert code == 0
    assert gate_counts(parse_qasm(out.read_text())) == (8, 0)


def test_invalid_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "generate", "--family", "grover", "--n", "4")
    assert code == 2
    assert "grover" in err


def test_metrics_qaoa(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--family", "qaoa", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["program_communication"] == 1.0
    assert payload["entanglement_variance"] == 0.0
    assert payload["absent"] == []


def test_metrics_avg_seeds(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--family", "random", "--n", "8",
                           "--avg-seeds", "25")
    assert code == 0
    payload = json.loads(out)
    assert 0.4 <= payload["program_communication"] <= 0.6


def test_metrics_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[3];\n")
    code, out, _ = run_cli(capsys, "metrics", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["absent"]) == 5


def test_metrics_parse_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n")
    code, _, err = run_cli(capsys, "metrics", "--in", str(src))
    assert code == 4
    assert "line 3" in err


def test_simulate_bell_sv(tmp_path, capsys):
    src = tmp_path / "bell.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    code, out, _ = run_cli(capsys, "simulate", "--in", str(src),
                           "--backend", "sv", "--warmup", "0", "--reps", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["top_outcomes"]["00"] == pytest.approx(0.5)
    assert payload["top_outcomes"]["11"] == pytest.approx(0.5)
    # CNOT joins the block H starts on band 0: the plan is one GEMM.
    assert payload["passes"] == {"move": 0, "gemm": 1, "phase": 0}


@pytest.mark.parametrize("family", [Family.QFT, Family.BERNSTEIN_VAZIRANI])
def test_distribution_payload_is_the_top_16_without_a_full_dict(family):
    dist = statevector.distribution(statevector.run(generate(GeneratorSpec(family, 8))))
    payload = _distribution_payload(dist)
    assert payload["num_qubits"] == 8
    assert list(payload["top_outcomes"].items()) == list(top_outcomes(dist).items())


def test_simulate_bell_tn_matches(tmp_path, capsys):
    src = tmp_path / "bell.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    code, out, _ = run_cli(capsys, "simulate", "--in", str(src),
                           "--backend", "tn", "--warmup", "0", "--reps", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["top_outcomes"]["00"] == pytest.approx(0.5, abs=1e-9)


def test_simulate_capacity_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "6")
    code, _, err = run_cli(capsys, "simulate", "--family", "qft", "--n", "10",
                           "--backend", "sv", "--warmup", "0", "--reps", "1")
    assert code == 3
    assert str((1 << 10) * 16) in err


def test_simulate_tn_refuses_an_output_over_budget_before_pathfinding(capsys, monkeypatch):
    monkeypatch.setenv("QCSIM_MAX_QUBITS", "5")
    planned = []
    monkeypatch.setattr(tensornet, "find_path", lambda *args: planned.append(args))
    code, out, err = run_cli(capsys, "simulate", "--family", "qft", "--n", "6",
                             "--backend", "tn", "--warmup", "0", "--reps", "1")
    assert (code, out, planned) == (3, "", [])
    assert "output state" in err


def test_simulate_tn_above_the_distribution_limit_prints_the_zero_amplitude(capsys):
    n = TN_DISTRIBUTION_QUBITS + 1
    code, out, _ = run_cli(capsys, "simulate", "--family", "vqe", "--n", str(n),
                           "--backend", "tn", "--warmup", "0", "--reps", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["bitstring"] == "0" * n
    want = complex(statevector.run(generate(GeneratorSpec(Family.VQE, n))).amps[0])
    got = complex(payload["amplitude_re"], payload["amplitude_im"])
    assert got == pytest.approx(want, abs=1e-10)


def test_simulate_bench_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(capsys, "simulate", "--family", "vqe", "--n", "5",
                         "--backend", "tn", "--warmup", "0", "--reps", "2",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "circuit"
    assert len(lines) == 3


def test_simulate_auto_runs(capsys):
    # The advisor leaves vqe-5 to either backend: both run, sv first, and
    # the faster one's payload is printed.
    code, out, _ = run_cli(capsys, "simulate", "--family", "vqe", "--n", "5",
                           "--backend", "auto", "--warmup", "0", "--reps", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["auto"] == {"recommended": "either", "ran": ["sv", "tn"],
                               "faster": payload["backend"]}
    assert [row["backend"] for row in payload["bench_records"]] == ["sv", "tn"]


def test_simulate_auto_runs_only_the_recommended_backend(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--family", "qft", "--n", "6",
                           "--backend", "auto", "--warmup", "0", "--reps", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["auto"] == {"recommended": "sv", "ran": ["sv"]}
    assert payload["backend"] == "sv"
    assert {row["backend"] for row in payload["bench_records"]} == {"sv"}


def test_pathstudy_csv(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, _, _ = run_cli(capsys, "pathstudy", "--family", "vqe", "--n", "6",
                         "--samples", "1,2", "--reps", "1", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3


EXPERIMENT_ARGV = {
    "pathstudy": ["pathstudy", "--family", "vqe", "--n", "4", "--samples", "1,2",
                  "--reps", "1"],
    "scaling": ["scaling", "--family", "vqe", "--n", "4", "--workers", "1",
                "--slices", "2", "--reps", "1", "--samples", "1"],
    "memory": ["memory", "--n-range", "3:4"],
}


@pytest.mark.parametrize("command", sorted(EXPERIMENT_ARGV))
def test_experiment_output_rule(tmp_path, capsys, command):
    # The CSV goes to --out when given, else to stdout; --json puts JSON on
    # stdout.
    argv = EXPERIMENT_ARGV[command]
    out = tmp_path / "rows.csv"
    code, stdout, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert stdout == ""
    csv_text = out.read_text()
    header = csv_text.splitlines()[0].split(",")
    assert len(csv_text.splitlines()) > 1

    code, stdout, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(stdout)
    rows = payload["rows"] if command == "pathstudy" else payload
    assert set(rows[0]) == set(header)

    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert stdout.splitlines()[0].split(",") == header
    assert len(stdout.splitlines()) == len(csv_text.splitlines())


@pytest.mark.parametrize("argv", [
    ["simulate", "--family", "qft", "--n", "4", "--backend", "sv", "--reps", "0"],
    ["simulate", "--family", "qft", "--n", "4", "--backend", "tn", "--reps", "0"],
    ["simulate", "--family", "qft", "--n", "4", "--backend", "sv", "--reps", "0",
     "--warmup", "1"],
    ["simulate", "--family", "qft", "--n", "4", "--backend", "tn", "--reps", "0",
     "--warmup", "1"],
    ["pathstudy", "--family", "vqe", "--n", "4", "--samples", "1", "--reps", "0"],
    ["pathstudy", "--family", "vqe", "--n", "4", "--samples", "", "--reps", "1"],
    ["scaling", "--family", "qft", "--n", "4", "--workers", "", "--reps", "1"],
    ["memory", "--n-range", "5:4"],
])
def test_empty_repetitions_or_lists_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qcsim: ") and "must" in err


def test_scaling_rejects_bad_slices(capsys, monkeypatch):
    def no_pool(workers):
        raise AssertionError("started a worker pool")

    monkeypatch.setattr("qcsim.harness.make_worker_pool", no_pool)
    code, _, _ = run_cli(capsys, "scaling", "--family", "qft", "--n", "6",
                         "--workers", "1,4", "--slices", "2", "--reps", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "scaling", "--family", "qft", "--n", "6",
                           "--workers", "1", "--slices", "3", "--reps", "1")
    assert code == 2 and "power of two" in err


def test_scaling_single_worker(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    code, _, _ = run_cli(capsys, "scaling", "--family", "qft", "--n", "6",
                         "--workers", "1", "--slices", "2", "--reps", "1",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2


def test_memory_csv(capsys):
    code, out, _ = run_cli(capsys, "memory", "--n-range", "22:22")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    sv = [r for r in rows if r[0] == "statevector"][0]
    assert int(sv[2]) == 33554432


def test_advise_avg_seeds_reads_the_averaged_metrics(capsys):
    argv = ["--family", "random", "--n", "6", "--avg-seeds", "3"]
    code, out, _ = run_cli(capsys, "advise", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] in ("statevector", "tensornet", "either")
    assert payload["rationale"]
    code, out, _ = run_cli(capsys, "metrics", *argv)
    assert code == 0
    averaged = json.loads(out)
    del averaged["absent"]
    assert payload["metrics"] == averaged


def test_scaling_defaults_to_eight_slices_for_two_workers(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--family", "qft", "--n", "4",
                           "--workers", "1,2", "--reps", "1", "--samples", "1", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [(row["workers"], row["slices"]) for row in rows] == [(1, 8), (2, 8)]


@pytest.mark.parametrize("command", ["metrics", "advise"])
def test_avg_seeds_with_a_file_is_a_usage_error(tmp_path, capsys, command):
    src = tmp_path / "bell.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    code, out, err = run_cli(capsys, command, "--in", str(src), "--avg-seeds", "3")
    assert (code, out) == (2, "")
    assert "--avg-seeds" in err and "--in" in err


def test_advise_json(capsys):
    code, out, _ = run_cli(capsys, "advise", "--family", "hamiltonian", "--n", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["backend"] == "tensornet"
    assert payload["rationale"]


@pytest.mark.parametrize("text, line", [
    ("OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n", 3),
    ("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[0];\n", 5),
])
def test_simulate_malformed_qasm_exits_4_with_line(tmp_path, capsys, text, line):
    src = tmp_path / "bad.qasm"
    src.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--in", str(src), "--warmup", "0", "--reps", "1")
    assert code == 4
    assert out == ""
    assert f"parse error: line {line}" in err


def test_simulate_negative_warmup_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--family", "qft", "--n", "4",
                             "--warmup", "-1", "--reps", "1")
    assert code == 2
    assert out == ""
    assert "warmup must be >= 0" in err
