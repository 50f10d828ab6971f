"""Print one sha256 per default TN plan, so two commits' plans can be compared.

The first line is a ``cli`` digest: the sha256 over the exit code and
stdout of ``qcsim generate``, ``metrics``, ``metrics --avg-seeds 3``,
``advise``, ``advise --avg-seeds 3`` and ``simulate`` on the sv, tn and
auto backends (no warmup, one rep), for every family under each of
``CLI_OPTION_SETS``: 128 outputs.  A simulate payload's ``timing`` is left
out, and a run that the advisor left to either backend is reduced to its
``auto`` record without ``faster``, since which backend ran faster depends
on the host's timing.  A change to the CLI or the advisor that moves any
output changes this line.

The second line is a ``circuits`` digest: the sha256 over the QASM text and
``params`` of every family, n from 2 to 20, seeds 0, 1 and 7, under each of
``KNOB_SETS`` (the defaults, then each knob away from its default).  The
``params`` warning is left out, since it depends on which knobs a spec
spells out rather than on the circuit.  A change to ``generators`` that
moves any circuit changes this line.

The third line is an ``sv`` digest: the sha256 over the passes of
``statevector.plan`` for every family, n from 2 to 20, seeds 0 and 1, at
single and double precision.  Each pass adds its kind, the ``repr`` of its
qubits (a move's tuple, a GEMM's lowest qubit) and the bytes of every array
and float it holds (a phase pass holds no qubits).  A change to the state-vector planner that moves any
pass changes this line.

The fourth line is a ``values`` digest: the sha256 over the bytes of
``evaluate``'s value (a closed network's complex amplitude, an open one's
probabilities) for every family, n from 6 to 12, open and closed (the
all-zeros bitstring), with the plan of ``find_path(net,
PathfinderConfig(num_samples=4))`` unsliced and sliced by ``choose_slices``
into 8.  A change to the executor that moves any value, by so much as a
bit, changes this line.

Then, for every circuit family, n in 8/12/16/20, open and closed (the all-zeros
bitstring), the plan is ``find_path(build_network(c, bits),
PathfinderConfig())``; its digest is the sha256 of the ``repr`` of its
``(steps, est_flops, est_peak_elements)``.  The last line is the sha256 of
all the digests in order: equal totals mean equal plans everywhere.

Usage::

    PYTHONPATH=src python tools/plan_digest.py

prints the cli, circuits, sv and values digests, one ``family  n  open|closed  digest``
line per plan, then the total.
It is a check to run by hand, not a test: the n = 20 plans take seconds each.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import numpy as np

from qcsim.cli import main as cli_main
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.qasm import emit_qasm
from qcsim.statevector import plan as sv_plan
from qcsim.tensornet import PathfinderConfig, build_network, choose_slices, evaluate, find_path

SIZES = (8, 12, 16, 20)
KNOB_SETS = ({}, {"p_layers": 2}, {"k": 0.25}, {"m": 1}, {"l_layers": 2}, {"t_steps": 2},
             {"dual_oracle": True})
CLI_OPTION_SETS = (
    ("--n", "4"),
    ("--n", "6", "--seed", "1", "--k", "0.25", "--p-layers", "2", "--l-layers", "2",
     "--t-steps", "2", "--dual-oracle"),
)
CLI_COMMANDS = (
    ("generate",), ("metrics",), ("metrics", "--avg-seeds", "3"), ("advise",),
    ("advise", "--avg-seeds", "3"),
    *(("simulate", "--backend", b, "--warmup", "0", "--reps", "1") for b in ("sv", "tn", "auto")),
)


def _cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    text = out.getvalue()
    if argv[0] == "simulate" and code == 0:
        payload = json.loads(text)
        payload.pop("timing")
        if payload.get("auto", {}).get("recommended") == "either":
            payload = {"auto": {k: v for k, v in payload["auto"].items() if k != "faster"}}
        text = json.dumps(payload, sort_keys=True)
    return f"{code}\n{text}"


def cli_digest() -> str:
    digest = hashlib.sha256()
    for family in Family:
        for options in CLI_OPTION_SETS:
            for command in CLI_COMMANDS:
                argv = [command[0], "--family", family.value, *options, *command[1:]]
                digest.update(repr(argv).encode())
                digest.update(_cli_output(argv).encode())
    return digest.hexdigest()


def circuits_digest() -> str:
    digest = hashlib.sha256()
    for family in Family:
        for n in range(2, 21):
            for seed in (0, 1, 7):
                for knobs in KNOB_SETS:
                    c = generate(GeneratorSpec(family, n, seed=seed, **knobs))
                    params = {k: v for k, v in c.params.items() if k != "warning"}
                    digest.update(emit_qasm(c).encode())
                    digest.update(repr(sorted(params.items())).encode())
    return digest.hexdigest()


def sv_digest() -> str:
    digest = hashlib.sha256()
    for family in Family:
        for n in range(2, 21):
            for seed in (0, 1):
                c = generate(GeneratorSpec(family, n, seed=seed))
                for precision in ("single", "double"):
                    for kind, *args in sv_plan(c, precision):
                        digest.update(kind.encode())
                        for arg in args:
                            if isinstance(arg, np.ndarray):
                                digest.update(np.ascontiguousarray(arg).tobytes())
                            elif isinstance(arg, float):
                                digest.update(np.float64(arg).tobytes())
                            else:
                                digest.update(repr(arg).encode())
    return digest.hexdigest()


def values_digest() -> str:
    digest = hashlib.sha256()
    for family in Family:
        for n in range(6, 13):
            c = generate(GeneratorSpec(family, n))
            for bits in (None, "0" * n):
                net = build_network(c, bits)
                plan = find_path(net, PathfinderConfig(num_samples=4))
                for slices in (1, 8):
                    value = evaluate(net, choose_slices(net, plan, slices))
                    data = value.probs if bits is None else np.complex128(value)
                    digest.update(data.tobytes())
    return digest.hexdigest()


def plan_digest(family: Family, n: int, closed: bool) -> str:
    c = generate(GeneratorSpec(family, n))
    plan = find_path(build_network(c, "0" * n if closed else None), PathfinderConfig())
    record = (plan.steps, plan.est_flops, plan.est_peak_elements)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def main() -> int:
    print(f"cli  {cli_digest()}", flush=True)
    print(f"circuits  {circuits_digest()}", flush=True)
    print(f"sv  {sv_digest()}", flush=True)
    print(f"values  {values_digest()}", flush=True)
    total = hashlib.sha256()
    for family in Family:
        for n in SIZES:
            for closed in (False, True):
                digest = plan_digest(family, n, closed)
                total.update(digest.encode())
                side = "closed" if closed else "open"
                print(f"{family.value:<14} {n:3d}  {side:<6}  {digest}", flush=True)
    print(f"total  {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
