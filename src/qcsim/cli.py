"""``qcsim`` command-line interface.

Subcommands: generate, metrics, simulate, pathstudy, scaling, memory,
advise.  Exit codes: 0 success, 2 usage/configuration, 3 capacity,
4 parse error.  Work over the one memory budget exits 3, whichever backend
refuses it: a state vector, a contraction step or a distribution's output.
The budget follows the memory the process can have, and
``QCSIM_MAX_QUBITS`` overrides it for every such refusal.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

import numpy as np

from . import harness, statevector
from .advisor import Backend, advise_circuit
from .circuit import Circuit, index_to_bitstring
from .errors import CapacityError, ConfigError, QasmParseError, QcsimError
from .generators import GeneratorSpec, family_from_name, generate
from .metrics import MetricsReport, compute_all
from .qasm import emit_qasm, parse_qasm
from .tensornet import PathfinderConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_PARSE = 4


def _spec_from_args(args) -> GeneratorSpec:
    if args.n is None:
        raise ConfigError("--n is required when generating a circuit")
    given = {f.name: getattr(args, f.name) for f in fields(GeneratorSpec)[2:]
             if getattr(args, f.name) is not None}
    return GeneratorSpec(family_from_name(args.family), args.n, **given)


def _load_circuit(args) -> Circuit:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            return parse_qasm(fh.read())
    if not args.family:
        raise ConfigError("provide --family with --n, or --in FILE")
    return generate(_spec_from_args(args))


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_rows(args, rows: list[dict], payload=None) -> int:
    """The one output rule of the experiment commands: the rows' CSV goes to
    ``--out`` when given, else to stdout; with ``--json``, stdout gets
    ``payload`` (the rows when None) as JSON instead."""
    if args.out or not args.json:
        _write_out(harness.rows_to_csv(rows), args.out)
    if args.json:
        sys.stdout.write(harness.to_json(rows if payload is None else payload) + "\n")
    return EXIT_OK


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _add_generator_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="circuit family (qaoa, random, qpe, qft, vqe, hamiltonian, hiddenshift, bv)")
    p.add_argument("--n", type=int, help="qubit count")
    p.add_argument("--p-layers", dest="p_layers", type=int)
    p.add_argument("--k", type=float, help="one-bit fraction / pairing probability")
    p.add_argument("--m", type=int, help="explicit one-bit count")
    p.add_argument("--l-layers", dest="l_layers", type=int)
    p.add_argument("--t-steps", dest="t_steps", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dual-oracle", dest="dual_oracle", action="store_true",
                   help="hidden shift: include the second (dual) oracle query")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a benchmark circuit as QASM")
    _add_generator_opts(p)
    p.add_argument("--out", help="output path (stdout if omitted)")

    p = sub.add_parser("metrics", help="topology metrics as JSON")
    _add_generator_opts(p)
    p.add_argument("--in", dest="infile", help="read a QASM file instead of generating")
    p.add_argument("--avg-seeds", dest="avg_seeds", type=int, default=0,
                   help="average metrics over this many seeds (seeded families)")
    p.add_argument("--out", help="output path (stdout if omitted)")

    p = sub.add_parser("simulate", help="run a backend, print result JSON")
    _add_generator_opts(p)
    p.add_argument("--in", dest="infile")
    p.add_argument("--backend", choices=("sv", "tn", "auto"), default="sv")
    p.add_argument("--precision", choices=("single", "double"), default="double")
    p.add_argument("--samples", type=int, default=8, help="pathfinder samples (tn)")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--out", help="write the per-rep bench CSV here")
    p.add_argument("--json", action="store_true", help="include the bench records in the JSON output")

    p = sub.add_parser("pathstudy", help="pathfinding budget vs contraction time")
    _add_generator_opts(p)
    p.add_argument("--samples", default="1,2,4,8,16,32",
                   help="comma-separated pathfinder sample budgets")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("scaling", help="strong scaling of sliced contraction")
    _add_generator_opts(p)
    p.add_argument("--workers", default="1,2,4", help="comma-separated worker counts")
    p.add_argument("--slices", type=int, default=None)
    p.add_argument("--reps", type=int, default=30)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("memory", help="state-vector bytes per size (a TN run's memory is its "
                       "plan's largest step: simulate --backend tn --json mem_bytes_est)")
    p.add_argument("--n-range", dest="n_range", default="2:32", help="lo:hi inclusive")
    p.add_argument("--precision", choices=("single", "double"), default="single")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("advise", help="backend recommendation as JSON")
    _add_generator_opts(p)
    p.add_argument("--in", dest="infile")
    p.add_argument("--avg-seeds", dest="avg_seeds", type=int, default=0)
    p.add_argument("--out")
    return parser


def _averaged_report(args) -> MetricsReport:
    spec = _spec_from_args(args)
    reports = []
    for seed in range(args.avg_seeds):
        reports.append(compute_all(generate(replace(spec, seed=seed))))

    def mean_of(field):
        values = [getattr(r, field.name) for r in reports]
        if any(v is None for v in values):
            return None
        mean = float(np.mean(values))
        return int(mean) if field.type in (int, "int") else mean

    return MetricsReport(**{f.name: mean_of(f) for f in fields(MetricsReport)})


def _cmd_generate(args) -> int:
    circuit = generate(_spec_from_args(args))
    _write_out(emit_qasm(circuit), args.out)
    return EXIT_OK


def _cmd_metrics(args) -> int:
    if args.avg_seeds and not args.infile:
        report = _averaged_report(args)
    else:
        report = compute_all(_load_circuit(args))
    payload = report.to_dict()
    payload["absent"] = report.absent()
    _write_out(harness.to_json(payload), args.out)
    return EXIT_OK


def _distribution_payload(dist) -> dict:
    """The 16 likeliest outcomes above 1e-12, ties in index order."""
    top = np.argsort(-dist.probs, kind="stable")[:16]
    return {"num_qubits": dist.num_qubits, "top_outcomes": {
        index_to_bitstring(int(i), dist.num_qubits): float(dist.probs[i])
        for i in top if dist.probs[i] > 1e-12}}


def _simulate_one(circuit, backend, args):
    cfg = PathfinderConfig(num_samples=args.samples, seed=args.seed)
    result, rows = harness.bench_simulate(
        circuit, backend, args.precision, cfg, args.warmup, args.reps)
    if hasattr(result, "probs"):
        payload = _distribution_payload(result)
    else:
        payload = {"bitstring": "0" * circuit.num_qubits,
                   "amplitude_re": result.real, "amplitude_im": result.imag}
    payload["backend"] = backend
    payload["timing"] = harness.summarize_times([r["total_time_s"] for r in rows])
    if backend == "sv":  # planned again here, outside the timed reps
        payload["passes"] = statevector.pass_counts(statevector.plan(circuit, args.precision))
    return payload, rows


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args)
    backend = args.backend
    if backend == "auto":
        recommendation = advise_circuit(circuit)
        if recommendation.backend is Backend.EITHER:
            payload_sv, rows_sv = _simulate_one(circuit, "sv", args)
            payload_tn, rows_tn = _simulate_one(circuit, "tn", args)
            faster = "sv" if (payload_sv["timing"]["mean_s"]
                              <= payload_tn["timing"]["mean_s"]) else "tn"
            payload = payload_sv if faster == "sv" else payload_tn
            rows = rows_sv + rows_tn
            payload["auto"] = {"recommended": "either", "ran": ["sv", "tn"],
                               "faster": faster}
        else:
            chosen = "sv" if recommendation.backend is Backend.STATEVECTOR else "tn"
            payload, rows = _simulate_one(circuit, chosen, args)
            payload["auto"] = {"recommended": chosen, "ran": [chosen]}
    else:
        payload, rows = _simulate_one(circuit, backend, args)
    if args.out:
        _write_out(harness.rows_to_csv(rows), args.out)
    if args.json:
        payload["bench_records"] = rows
    sys.stdout.write(harness.to_json(payload) + "\n")
    return EXIT_OK


def _cmd_pathstudy(args) -> int:
    result = harness.pathfinding_study(
        _spec_from_args(args), _int_list(args.samples), repetitions=args.reps,
        seed=args.seed)
    return _emit_rows(args, result["rows"], result)


def _cmd_scaling(args) -> int:
    cfg = PathfinderConfig(num_samples=args.samples, seed=args.seed)
    rows = harness.strong_scaling_experiment(
        _spec_from_args(args), _int_list(args.workers), cfg,
        repetitions=args.reps, slices=args.slices)
    return _emit_rows(args, rows)


def _cmd_memory(args) -> int:
    lo, _, hi = args.n_range.partition(":")
    n_values = list(range(int(lo), int(hi or lo) + 1))
    return _emit_rows(args, harness.memory_table(n_values, precision=args.precision))


def _cmd_advise(args) -> int:
    if args.avg_seeds and not args.infile:
        from .advisor import recommend
        report = _averaged_report(args)
        recommendation = recommend(report, args.n)
    else:
        recommendation = advise_circuit(_load_circuit(args))
    _write_out(harness.to_json(recommendation.to_dict()), args.out)
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "metrics": _cmd_metrics,
    "simulate": _cmd_simulate,
    "pathstudy": _cmd_pathstudy,
    "scaling": _cmd_scaling,
    "memory": _cmd_memory,
    "advise": _cmd_advise,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as exc:
        print(f"qcsim: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except QasmParseError as exc:
        print(f"qcsim: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # ValueError: --samples, --workers or --n-range text that is not an integer.
    except (QcsimError, ValueError) as exc:
        print(f"qcsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qcsim: i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
