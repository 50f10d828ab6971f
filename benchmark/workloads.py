"""The benchmark's workloads: fixed job lists, the pipeline each job runs,
and the check on every result.

Every job runs ``generate`` (or ``parse_qasm``) -> ``metrics.compute_all``
-> ``advisor.recommend`` and then its workload's fixed backend, whatever
the advisor says.  The advisor's cost is paid, but a change to its rules
cannot move work from one workload to another.

Circuits are fixed, the random family included (its generator seed stays
0: another random circuit can jump from a 2^20 to a 2^34 contraction
peak).  The workload seed picks only the output bitstrings and the
``PathfinderConfig`` seed of each job instance.

Results are checked against a reference their own backend did not
produce: SV against a TN amplitude or a closed form, TN against SV.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from qcsim import sliced
from qcsim import statevector as sv
from qcsim import tensornet as tn
from qcsim.advisor import recommend
from qcsim.circuit import bitstring_to_index
from qcsim.gates import GateKind
from qcsim.generators import Family, GeneratorSpec, generate
from qcsim.metrics import compute_all
from qcsim.qasm import emit_qasm, parse_qasm
from qcsim.tensornet import PathfinderConfig

TOLERANCE = 1e-8
# Size of the untimed warm-up pass run during set-up.
WARMUP_N = 6
# TN amplitudes that check SV results use pure greedy: it is seed-free and,
# on these circuits, cheaper than a best-of-8 search.
REFERENCE_CFG = PathfinderConfig(num_samples=1)

# TN jobs left out: the TN backend checks no memory budget before it
# allocates, and a plan's peak follows the pathfinder seed.  The TN
# workloads use sizes whose plan peaks stayed small for every seed tried.
UNMEASURED = {
    "tn qaoa-24": "the greedy plan peaks at 2^28 elements (about 4 GiB) and the "
    "process is OOM-killed instead of raising CapacityError",
    "tn amplitude of random-18, qpe-18, qft-18": "best-of-8 plan peaks range "
    "from 2^18 to 2^25 elements with the pathfinder seed; one run peaked at "
    "6.2 GiB RSS",
    "tn-sliced qft-20, random-18, qpe-18, qft-16": "best-of-4 plan peaks reach "
    "2^22-2^27 elements with the pathfinder seed; with qft-16 the largest "
    "worker's peak RSS moved between 76 and 98 MiB from seed to seed",
}


@dataclass(frozen=True)
class Job:
    family: str
    n: int

    @property
    def name(self) -> str:
        return f"{self.family}-{self.n}"

    def spec(self) -> GeneratorSpec:
        return GeneratorSpec(Family(self.family), self.n)


@dataclass(frozen=True)
class Draw:
    """What the workload seed picks for one job instance."""

    bitstring: str
    pathfinder_seed: int


def make_draw(n: int, *key: int) -> Draw:
    rng = np.random.default_rng(list(key))
    bits = "".join("1" if b else "0" for b in rng.integers(0, 2, n))
    return Draw(bits, int(rng.integers(2**31)))


def _advise(tr, c) -> None:
    report = tr.call("metrics.compute_all", compute_all, c)
    tr.call("advisor.recommend", recommend, report, c.num_qubits)


def _generate_and_advise(tr, spec: GeneratorSpec):
    c = tr.call("generators.generate", generate, spec)
    _advise(tr, c)
    return c


def _plan_stats(tr, net, cfg, plan) -> None:
    tr.add("tensornet.tensors", len(net.tensors))
    tr.add("tensornet.samples", cfg.num_samples)
    tr.add("tensornet.plan.est_flops", plan.est_flops)
    tr.peak("tensornet.plan.peak_elements_log2", plan.est_peak_elements.bit_length() - 1)


def _amplitude_error(got: complex, want: complex) -> str | None:
    diff = abs(got - want)
    return None if diff <= TOLERANCE else f"amplitude off by {diff:.3g}"


class Workload:
    """One job list plus how to run, observe and check a job.

    ``run`` is the timed part.  ``observe`` runs untimed right after it and
    reduces the result to the few numbers ``check`` needs, so that no large
    result is held through the timed section.  ``check`` runs once after the
    timed section and returns one error (or ``None``) per record.
    """

    name = ""
    JOBS: tuple[Job, ...] = ()
    # Layers whose public functions the workload's jobs call.
    LAYERS: tuple[str, ...] = ()

    def __init__(self, jobs=None):
        self.jobs = tuple(jobs) if jobs is not None else self.JOBS

    def prepare(self, job: Job):
        return job.spec()

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def draw(self, seed: int, pass_index: int, job_index: int, job: Job) -> Draw:
        return make_draw(job.n, seed, pass_index, job_index)

    def run(self, inp, draw: Draw, tr):
        raise NotImplementedError

    def observe(self, job: Job, draw: Draw, result, tr) -> dict:
        raise NotImplementedError

    def check(self, records) -> list[str | None]:
        raise NotImplementedError

    def probe(self) -> list[tuple[str, str | None]]:
        """Untimed robustness probes run once per pass: (name, error)."""
        return []


# -- sv-dist -----------------------------------------------------------------


def _qpe_amplitude(c, index: int) -> complex:
    """Closed-form amplitude of the qpe family's output.

    The n-1 counting qubits end in ``prod_j (|0> + e^{i t_j}|1>)/sqrt(2)``
    before the inverse QFT, ``t_j`` the angle of the CP that qubit j
    controls, with the eigenstate qubit n-1 in |1>.  The inverse QFT reads
    qubit 0 as the most significant bit, so output y (bit-reversed counting
    value) has amplitude ``prod_b (1 + e^{i (t_b - 2 pi y 2^(m-1-b) / M)}) / M``
    with m = n-1 and M = 2^m.
    """
    n = c.num_qubits
    m, size = n - 1, 1 << (n - 1)
    if index < size:  # eigenstate qubit reads 0
        return 0j
    x = index - size
    y = sum(((x >> b) & 1) << (m - 1 - b) for b in range(m))
    angles = [op.angle for op in c.ops if op.kind is GateKind.CP and op.qubits[1] == n - 1]
    amp = 1.0 + 0j
    for b, t in enumerate(angles):
        amp *= 1.0 + np.exp(1j * (t - 2.0 * np.pi * ((y << (m - 1 - b)) % size) / size))
    return complex(amp / size)


def closed_form_error(c, amps: np.ndarray, probs: np.ndarray, index: int) -> float | None:
    """Distance of a state from the family's closed-form answer, or None
    when the family has none.  ``index`` is a basis state to check."""
    family = c.params.get("family")
    n = c.num_qubits
    if family == "qft":  # QFT of |0...0> is uniform
        return float(np.abs(probs - 2.0**-n).max())
    if family == "bv":  # the data register reads the hidden string
        data = probs.reshape(2, -1).sum(axis=0)  # sum out the ancilla, qubit n-1
        return abs(float(data[bitstring_to_index(c.params["hidden_string"])]) - 1.0)
    if family == "qpe":  # at ``index`` and at the most likely outcome
        return max(abs(complex(amps[i]) - _qpe_amplitude(c, i))
                   for i in (index, int(np.argmax(probs))))
    return None


class SvDist(Workload):
    """SV kernel alone: all 8 families at n=16, whose 1 MiB state fits in
    a core's 2 MiB L2, and at n=18, whose 4 MiB state (8 MiB with the
    output of a gate) fits only in L3, so that gains in per-gate overhead
    and in passes over the state each show.  n=20 would do too, but its
    25 s pass leaves room for one pass per run, and a single pass does not
    filter out the host's stalls."""

    name = "sv-dist"
    JOBS = tuple(Job(f.value, n) for n in (16, 18) for f in Family)
    LAYERS = ("generators", "metrics", "advisor", "statevector")

    def draw(self, seed, pass_index, job_index, job):
        # The check bitstring does not change between passes, so each job
        # needs one TN reference amplitude.
        return make_draw(job.n, seed, job_index)

    def run(self, spec, draw, tr):
        c = _generate_and_advise(tr, spec)
        state = tr.call("statevector.run", sv.run, c, "double")
        dist = tr.call("statevector.distribution", sv.distribution, state)
        return c, state, dist

    def observe(self, job, draw, result, tr):
        c, state, dist = result
        gates = len(c.unitary_ops)
        tr.add("statevector.gates", gates)
        tr.add("statevector.amp_updates", gates << c.num_qubits)
        index = bitstring_to_index(draw.bitstring)
        obs = {
            "dtype": str(state.amps.dtype),
            "norm_error": abs(float(dist.probs.sum()) - 1.0),
            "closed_error": closed_form_error(c, state.amps, dist.probs, index),
        }
        if obs["closed_error"] is None:
            obs["amp"] = complex(state.amps[index])
        return obs

    def check(self, records):
        refs: dict[tuple[Job, str], complex] = {}
        errors = []
        for job, draw, obs in records:
            if obs["norm_error"] > TOLERANCE:
                errors.append(f"norm off by {obs['norm_error']:.3g}")
            elif obs["closed_error"] is not None:
                err = obs["closed_error"]
                errors.append(None if err <= TOLERANCE else f"closed form off by {err:.3g}")
            else:
                key = (job, draw.bitstring)
                if key not in refs:
                    refs[key] = tn.amplitude(generate(job.spec()), draw.bitstring, REFERENCE_CFG)
                errors.append(_amplitude_error(obs["amp"], refs[key]))
        return errors


def _check_amplitudes(records) -> list[str | None]:
    """TN amplitudes against SV, one reference state per distinct job."""
    errors: list[str | None] = [None] * len(records)
    for job in dict.fromkeys(job for job, _, _ in records):
        amps = sv.run(generate(job.spec()), "double").amps
        for i, (other, draw, obs) in enumerate(records):
            if other == job:
                want = complex(amps[bitstring_to_index(draw.bitstring)])
                errors[i] = _amplitude_error(obs["amp"], want)
    return errors


# -- tn-dist -----------------------------------------------------------------

_PROBES = {
    "idle-wire": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n',
    "no-gates": 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n',
}


def _closed_network(c):
    """The closed, absorbed network ``reconstruct_distribution`` plans on."""
    n = c.num_qubits
    net = tn.circuit_to_network(c, "0" * n)
    closures = frozenset(range(len(net.tensors) - n, len(net.tensors)))
    return tn.absorb_small_tensors(net, max_rank=1, keep=closures)


def _distribution_error(got: np.ndarray, text: str) -> str | None:
    want = sv.distribution(sv.run(parse_qasm(text), "double")).probs
    diff = float(np.abs(got - want).max())
    return None if diff <= TOLERANCE else f"distribution off by {diff:.3g}"


class TnDist(Workload):
    """Full distribution from parsed QASM text, the path of ``qcsim
    simulate --in FILE --backend tn``: one plan replayed over 2^n closed
    contractions.  Two robustness probes run untimed once per pass."""

    name = "tn-dist"
    JOBS = (
        Job("qaoa", 8), Job("qft", 8), Job("random", 10), Job("qpe", 10),
        Job("vqe", 10), Job("hamiltonian", 10), Job("hiddenshift", 10), Job("bv", 10),
    )
    LAYERS = ("qasm", "metrics", "advisor", "tensornet")

    def prepare(self, job):
        return emit_qasm(generate(job.spec()))

    def run(self, text, draw, tr):
        c = tr.call("qasm.parse_qasm", parse_qasm, text)
        _advise(tr, c)
        cfg = PathfinderConfig(seed=draw.pathfinder_seed)
        dist = tr.call("tensornet.reconstruct_distribution", tn.reconstruct_distribution, c, cfg)
        return c, cfg, dist

    def observe(self, job, draw, result, tr):
        c, cfg, dist = result
        net = _closed_network(c)
        if tr.enabled:
            # Plan the same closed network again so that pathfinding's share
            # shows; this call is outside every job's wall time.
            plan = tr.call("tensornet.find_path", tn.find_path, net, cfg)
            _plan_stats(tr, net, cfg, plan)
        dtypes = {str(t.data.dtype) for t in net.tensors}
        return {"dtype": "/".join(sorted(dtypes)), "probs": dist.probs}

    def check(self, records):
        texts = {job: self.prepare(job) for job in dict.fromkeys(job for job, _, _ in records)}
        return [_distribution_error(obs["probs"], texts[job]) for job, _, obs in records]

    def probe(self):
        results = []
        for name, text in _PROBES.items():
            try:
                dist = tn.reconstruct_distribution(parse_qasm(text))
            except Exception as exc:  # a probe records any failure and goes on
                results.append((name, f"{type(exc).__name__}: {exc}"))
                continue
            results.append((name, _distribution_error(dist.probs, text)))
        return results


# -- tn-sliced ---------------------------------------------------------------


class TnSliced(Workload):
    """``run_sliced`` over one 2-process pool made during set-up, 8 slices:
    pooled pathfinding, ``choose_slices``, worker contraction and the
    reduction.  The only workload that runs ``sliced``."""

    name = "tn-sliced"
    JOBS = (Job("qft", 14), Job("random", 16), Job("qpe", 16))
    LAYERS = ("generators", "metrics", "advisor", "sliced")
    WORKERS = 2
    SLICES = 8
    SAMPLES = 4

    def __init__(self, jobs=None):
        super().__init__(jobs)
        self.pool = None

    def start(self):
        self.pool = sliced.make_worker_pool(self.WORKERS)

    def close(self):
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None

    def run(self, spec, draw, tr):
        c = _generate_and_advise(tr, spec)
        cfg = PathfinderConfig(num_samples=self.SAMPLES, seed=draw.pathfinder_seed)
        return tr.call(
            "sliced.run_sliced", sliced.run_sliced, c, draw.bitstring, cfg,
            sliced.WorkerPoolConfig(workers=self.WORKERS), self.SLICES,
            executor=self.pool,
        )

    def observe(self, job, draw, result, tr):
        tr.add("sliced.pathfind_s", result.pathfind_time)
        tr.add("sliced.contract_wall_s", result.wall_time)
        tr.add("sliced.imbalance", result.imbalance)
        tr.add("sliced.runs", 1)
        tr.add("sliced.est_flops", result.est_flops)
        amp = np.asarray(result.result)
        return {"dtype": str(amp.dtype), "amp": complex(amp)}

    def check(self, records):
        return _check_amplitudes(records)


WORKLOADS = {w.name: w for w in (SvDist, TnDist, TnSliced)}


# -- statevector apply_gate probe -------------------------------------------

PROBE_SIZES = (16, 20)
GATE_CLASSES = ("1q_dense", "1q_diag", "2q_dense", "2q_diag")


def gate_class(op) -> str:
    m = op.matrix()
    diagonal = not np.any(m - np.diag(np.diag(m)))
    return f"{len(op.qubits)}q_{'diag' if diagonal else 'dense'}"


def apply_gate_probe(jobs, per_class: int = 8) -> dict[str, float]:
    """Median ns per amplitude of ``apply_gate`` for each gate class, on an
    n-qubit state, over ``per_class`` ops spread evenly through the ops the
    jobs of at most n qubits apply."""
    out = {}
    for n in PROBE_SIZES:
        by_class: dict[str, list] = {k: [] for k in GATE_CLASSES}
        for job in jobs:
            if job.n <= n:
                for op in generate(job.spec()).unitary_ops:
                    by_class[gate_class(op)].append(op)
        state = sv.init_zero(n, "double")
        for kind, ops in by_class.items():
            picks = [ops[i] for i in np.linspace(0, len(ops) - 1, min(per_class, len(ops)), dtype=int)]
            times = []
            for op in picks:
                t0 = time.perf_counter()
                sv.apply_gate(state, op)
                times.append(time.perf_counter() - t0)
            out[f"statevector.ns_per_amp.n{n}.{kind}"] = (
                statistics.median(times) / (1 << n) * 1e9 if times else 0.0
            )
    return out
