"""The benchmark's three workloads: circuit text, sampling call, reference check.

Each workload names the sampling call a user would make and how its output is
consumed, and checks that output against a reference that does not come from
the compiler under test: the dense oracle, the Pauli-frame reference sampler,
or ``testing.crosscheck``. Why each workload was chosen is in README.md.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from unittest import mock

import numpy as np

import framesim.testing
from framesim import compile_circuit, flatten, parse_circuit, sample, sample_accumulate
from framesim.backend import BytecodeProgram, MeasDormantStatic
from framesim.oracle import dense_run, noise_sites_of, pauli_frame_reference_sample, site_cases
from framesim.runtime import ShotError
from framesim.testing import crosscheck, random_circuit, random_fault_plan, repetition_code_circuit

Z_LIMIT = 5.0  # a rate check fails beyond this many standard deviations

# Own copy of the worked mirror of the acceptance tests: n=2, k_max=1.
MIRROR_TEXT = """\
H 0
T 0
T 0
T 0
CX 0 1
DEPOLARIZE1(0.001) 0 1
CX 0 1
T_DAG 0
H 0
M 0 1
"""


@dataclass
class Checks:
    """Correctness checks of one run; ``wrong / total`` is ``wrong_frac``."""

    total: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.total += 1
        if not ok:
            self.wrong += 1
            self.failures.append(what)

    def extend(self, other: "Checks") -> None:
        self.total += other.total
        self.wrong += other.wrong
        self.failures += other.failures


def corrupt(prog: BytecodeProgram) -> BytecodeProgram:
    """Negative control: invert the flip of the first ``MeasDormantStatic``,
    as ``framesim validate --self-test`` does. A sound check must catch it."""
    for i, ins in enumerate(prog.instrs):
        if isinstance(ins, MeasDormantStatic):
            prog.instrs[i] = MeasDormantStatic(ins.virt, ins.record, ins.flip ^ 1)
            prog.__dict__.pop("_dispatch", None)
            return prog
    raise ValueError("program has no MeasDormantStatic to corrupt")


def pack_records(prog: BytecodeProgram, shots: int, seed: int, workers: int) -> tuple[int, bytes]:
    """Consume ``sample`` and pack every record as ``framesim sample --format
    bin`` does; returns (accepted shots, packed bytes)."""
    chunks = []
    accepted = 0
    for rec in sample(prog, shots, seed=seed, workers=workers):
        bits = np.concatenate([rec.measurements, rec.detectors, rec.observables])
        chunks.append(np.packbits(bits, bitorder="little").tobytes())
        accepted += rec.accepted
    return accepted, b"".join(chunks)


def unpack_records(packed: bytes, shots: int, nbits: int) -> np.ndarray:
    rows = np.frombuffer(packed, dtype=np.uint8).reshape(shots, -1)
    return np.unpackbits(rows, axis=1, bitorder="little")[:, :nbits]


def z_score(count: int, n: int, p: float) -> float:
    """|observed rate - exact probability p| in standard deviations."""
    diff = abs(count / n - p)
    if diff == 0:
        return 0.0
    var = p * (1 - p) / n
    return diff / var ** 0.5 if var > 0 else float("inf")


P_LIMIT = math.erfc(Z_LIMIT / math.sqrt(2))  # two-sided tail mass beyond Z_LIMIT sigma


def two_sample_p(x1: int, n1: int, x2: int, n2: int) -> float:
    """Two-sided p-value that counts x1/n1 and x2/n2 share one rate.

    Exact conditional test: given x1 + x2 events, x1 is binomial with success
    probability n1 / (n1 + n2). Rare-event rates (detectors fire about 0.2% of
    shots) leave too few counts for a normal approximation.
    """
    t = x1 + x2
    if t == 0:
        return 1.0
    q = n1 / (n1 + n2)
    lq, l1q, lt = math.log(q), math.log1p(-q), math.lgamma(t + 1)
    ks = range(x1, t + 1) if x1 >= t * q else range(0, x1 + 1)
    mass = sum(math.exp(lt - math.lgamma(k + 1) - math.lgamma(t - k + 1) + k * lq + (t - k) * l1q)
               for k in ks)
    return min(1.0, 2.0 * mass)


class Workload:
    """One benchmark workload. ``sample`` is the timed call; it returns the
    accepted shot count and the output that ``tally`` folds into the check."""

    name = ""
    shots = 0        # fixed shot count of one sampling call

    def __init__(self, text: str):
        self.text = text

    def sample(self, prog: BytecodeProgram, seed: int):
        raise NotImplementedError

    def tally(self, prog: BytecodeProgram, output) -> None:
        raise NotImplementedError

    def check(self, rng: np.random.Generator, corrupted: bool) -> Checks:
        raise NotImplementedError


class Mirror(Workload):
    """Worked mirror through ``sample_accumulate``: per-shot dispatch and reset."""

    name = "mirror"
    shots = 20_000

    def __init__(self):
        super().__init__(MIRROR_TEXT)
        self.counts = None
        self.n = 0

    def sample(self, prog, seed):
        out = sample_accumulate(prog, self.shots, seed=seed)
        return out["accepted"], out

    def tally(self, prog, output):
        if self.counts is None:
            self.counts = np.zeros_like(output["measurements"])
        self.counts += output["measurements"]
        self.n += output["accepted"]

    def check(self, rng, corrupted):
        checks = Checks()
        exact = exact_marginals(parse_circuit(self.text))
        for q, p in enumerate(exact):
            z = z_score(int(self.counts[q]), self.n, p)
            checks.add(z <= Z_LIMIT, f"measurement {q}: rate {self.counts[q] / self.n:.6f} "
                                     f"vs exact {p:.6f} ({z:.1f} sigma)")
        return checks


def exact_marginals(circuit) -> np.ndarray:
    """P(bit = 1) of each measurement of a circuit whose only measurement is
    its last instruction, summed exactly over every fault pattern of the
    dense oracle."""
    flat = flatten(circuit)
    last = flat.instructions[-1]
    if last.opcode != "M" or any(i.opcode in ("M", "MX", "MY", "R")
                                 for i in flat.instructions[:-1]):
        raise ValueError("exact marginals need a single final M instruction")
    n = flat.qubit_count
    options = []
    for sid, ins, qubits in noise_sites_of(flat):
        cases = site_cases(ins, qubits, n)
        quiet = 1.0 - sum(mass for mass, _ in cases)
        options.append([(quiet, sid, None)] + [(mass, sid, c) for c, (mass, _) in enumerate(cases)])
    idx = np.arange(1 << n)
    out = np.zeros(len(last.targets))
    for combo in itertools.product(*options):
        weight = float(np.prod([mass for mass, _, _ in combo]))
        plan = {sid: case for _, sid, case in combo if case is not None}
        amps = dense_run(flat, fault_plan=plan, max_instructions=len(flat.instructions) - 1)
        probs = np.abs(amps.state.amplitudes) ** 2
        for j, q in enumerate(last.targets):
            out[j] += weight * probs[(idx >> (n - 1 - q)) & 1 == 1].sum()
    return out


class RepCode(Workload):
    """d=25 r=25 repetition code through ``sample(..., workers)``, every record
    packed as ``--format bin`` packs it: compile-heavy, Clifford-only dispatch,
    records path and fork pool."""

    name = "rep_d25"
    shots = 600
    reference_shots = 20_000

    def __init__(self, workers: int):
        super().__init__(repetition_code_circuit(25, 25, 1e-3).serialize())
        self.workers = workers
        self.det = None
        self.obs = None
        self.n = 0

    def sample(self, prog, seed):
        return pack_records(prog, self.shots, seed, self.workers)

    def tally(self, prog, output):
        nm = len(prog.user_records)
        nd, no = prog.num_detectors, prog.num_observables
        bits = unpack_records(output, self.shots, nm + nd + no)
        det = bits[:, nm:nm + nd].sum(axis=0, dtype=np.int64)
        obs = bits[:, nm + nd:].sum(axis=0, dtype=np.int64)
        self.det = det if self.det is None else self.det + det
        self.obs = obs if self.obs is None else self.obs + obs
        self.n += self.shots

    def check(self, rng, corrupted):
        checks = Checks()
        flat = flatten(parse_circuit(self.text))
        _, ref_det, ref_obs = pauli_frame_reference_sample(
            flat, self.reference_shots, seed=int(rng.integers(2**31)))
        m = self.reference_shots
        for label, got, ref in (("detector", self.det, ref_det), ("observable", self.obs, ref_obs)):
            if len(got) != ref.shape[1]:
                checks.add(False, f"{label} count {len(got)} vs reference {ref.shape[1]}")
                continue
            ref_counts = ref.sum(axis=0, dtype=np.int64)
            for j in range(len(got)):
                pval = two_sample_p(int(got[j]), self.n, int(ref_counts[j]), m)
                checks.add(pval >= P_LIMIT, f"{label} {j}: {got[j]}/{self.n} vs reference "
                                            f"{ref_counts[j]}/{m} (p={pval:.2g})")
        return checks


class RotN14(Workload):
    """Seeded n=14 random circuit with many rotations through
    ``sample_accumulate``: dense-array kernels at 2^12..2^14 dominate."""

    name = "rot_n14"
    shots = 200
    trajectories = 3   # forced oracle trajectories checked per run

    def __init__(self, circuit_seed: int):
        circ = random_circuit(np.random.default_rng(circuit_seed), 14, 400, p_noise=1e-3,
                              rot_rate=0.3, measure_rate=0.03)
        super().__init__(circ.serialize())
        self.circuit_seed = circuit_seed
        self.sanity = Checks()

    def sample(self, prog, seed):
        out = sample_accumulate(prog, self.shots, seed=seed)
        return out["accepted"], out

    def tally(self, prog, output):
        meas = output["measurements"]
        ok = (output["accepted"] == self.shots and len(meas) == len(prog.user_records)
              and bool(((meas >= 0) & (meas <= self.shots)).all()))
        self.sanity.add(ok, "sample_accumulate output out of range")

    def check(self, rng, corrupted):
        checks = self.sanity
        circ = parse_circuit(self.text)
        # crosscheck compiles the circuit itself; the negative control has to
        # reach that compile to reach the checked program
        compile_fn = (lambda c: corrupt(compile_circuit(c))) if corrupted else compile_circuit
        with mock.patch.object(framesim.testing, "compile_circuit", compile_fn):
            for t in range(self.trajectories):
                plan = None if t == 0 else random_fault_plan(circ, rng, trigger_rate=0.05)
                try:
                    res = crosscheck(circ, seed=int(rng.integers(2**31)), fault_plan=plan)
                except ShotError as exc:  # the VM gave an outcome the oracle rules out
                    checks.add(False, f"trajectory {t}: {exc}")
                    continue
                checks.add(res["records_match"], f"trajectory {t}: records differ")
                checks.add(res["detectors_match"] and res["observables_match"],
                           f"trajectory {t}: detectors or observables differ")
                checks.add(res["fidelity"] >= 1 - 1e-10,
                           f"trajectory {t}: fidelity {res['fidelity']:.12f}")
        return checks


WORKLOADS = ("mirror", "rep_d25", "rot_n14")


def make_workload(name: str, workers: int, circuit_seed: int) -> Workload:
    if name == "mirror":
        return Mirror()
    if name == "rep_d25":
        return RepCode(workers)
    if name == "rot_n14":
        return RotN14(circuit_seed)
    raise ValueError(f"unknown workload {name!r}")
