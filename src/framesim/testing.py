"""Seeded circuit generators and oracle cross-check harness.

Used by the validation CLI and the test suite. Cross-checks force the dense
oracle's sampled measurement outcomes and fault pattern onto the compiled
run, so records must match bit for bit and the expanded factored state must
match the oracle state up to global phase.
"""
from __future__ import annotations

import numpy as np

from .backend import compile_circuit
from .circuit import Circuit, flatten, parse_circuit
from .oracle import dense_run, expand_factored, fidelity, noise_sites_of
from .pauli import _INV_GATE
from .runtime import ShotState, run_shot

_CLIFFORDS_1Q = ("H", "S", "S_DAG", "X", "Y", "Z")
_INVERSE = {**_INV_GATE, "T": "T_DAG", "T_DAG": "T"}


def random_circuit(rng: np.random.Generator, n: int, depth: int,
                   p_noise: float = 0.0, measure_rate: float = 0.15,
                   rot_rate: float = 0.25, reset_rate: float = 0.0,
                   feedforward_rate: float = 0.0, measure_all: bool = True,
                   max_noncliff: int | None = None) -> Circuit:
    """Random supported-opcode circuit over n qubits."""
    lines: list[str] = []
    records = 0
    noncliff = 0
    for _ in range(depth):
        roll = rng.random()
        q = int(rng.integers(0, n))
        if roll < rot_rate and (max_noncliff is None or noncliff < max_noncliff):
            noncliff += 1
            kind = rng.random()
            if kind < 0.4:
                lines.append(f"T {q}")
            elif kind < 0.6:
                lines.append(f"T_DAG {q}")
            else:
                axis = str(rng.choice(["R_X", "R_Y", "R_Z"]))
                lines.append(f"{axis}({rng.uniform(0.1, 2.8):.6f}) {q}")
        elif roll < rot_rate + measure_rate:
            basis = str(rng.choice(["M", "M", "MX", "MY"]))
            lines.append(f"{basis} {q}")
            records += 1
        elif roll < rot_rate + measure_rate + reset_rate:
            lines.append(f"R {q}")
        elif roll < rot_rate + measure_rate + reset_rate + feedforward_rate and records:
            k = int(rng.integers(1, records + 1))
            gate = str(rng.choice(["CX", "CZ"]))
            lines.append(f"{gate} rec[-{k}] {q}")
        elif n > 1 and rng.random() < 0.5:
            q2 = int(rng.integers(0, n - 1))
            q2 = q2 + 1 if q2 >= q else q2
            lines.append(f"{str(rng.choice(['CX', 'CZ', 'SWAP']))} {q} {q2}")
        else:
            lines.append(f"{str(rng.choice(list(_CLIFFORDS_1Q)))} {q}")
        if p_noise > 0 and rng.random() < 0.3:
            roll2 = rng.random()
            nq = int(rng.integers(0, n))
            if roll2 < 0.5:
                lines.append(f"DEPOLARIZE1({p_noise}) {nq}")
            elif roll2 < 0.75 and n > 1:
                nq2 = int(rng.integers(0, n - 1))
                nq2 = nq2 + 1 if nq2 >= nq else nq2
                lines.append(f"DEPOLARIZE2({p_noise}) {nq} {nq2}")
            else:
                kind = str(rng.choice(["X_ERROR", "Y_ERROR", "Z_ERROR"]))
                lines.append(f"{kind}({p_noise}) {nq}")
    if measure_all:
        lines.append("M " + " ".join(str(j) for j in range(n)))
    return parse_circuit("\n".join(lines) + "\n")


def random_mirror_circuit(rng: np.random.Generator, n: int,
                          nonclifford: int) -> Circuit:
    """Exact UU-dagger circuit plus a final all-qubit Z measurement."""
    ops: list[tuple] = []
    budget = nonclifford
    depth = int(rng.integers(4, 10)) + 2 * nonclifford
    for _ in range(depth):
        if budget and rng.random() < 0.35:
            kind = rng.random()
            q = int(rng.integers(0, n))
            if kind < 0.5:
                ops.append(("T", q, None, None))
            elif kind < 0.7:
                ops.append(("T_DAG", q, None, None))
            else:
                axis = str(rng.choice(["R_X", "R_Y", "R_Z"]))
                ops.append((axis, q, None, float(rng.uniform(0.1, 2.8))))
            budget -= 1
        elif n > 1 and rng.random() < 0.45:
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            ops.append((str(rng.choice(["CX", "CZ", "SWAP"])), a, b, None))
        else:
            ops.append((str(rng.choice(list(_CLIFFORDS_1Q))), int(rng.integers(0, n)), None, None))
    lines = []
    for g, a, b, arg in ops:
        tgt = f"{a}" if b is None else f"{a} {b}"
        lines.append(f"{g}({arg}) {tgt}" if arg is not None else f"{g} {tgt}")
    for g, a, b, arg in reversed(ops):
        tgt = f"{a}" if b is None else f"{a} {b}"
        if arg is not None:
            lines.append(f"{g}(-{arg}) {tgt}")
        else:
            lines.append(f"{_INVERSE[g]} {tgt}")
    lines.append("M " + " ".join(str(j) for j in range(n)))
    return parse_circuit("\n".join(lines) + "\n")


def repetition_code_circuit(distance: int, rounds: int, p: float) -> Circuit:
    """Z-basis repetition-code memory: data bit-flip noise, ancilla parity
    checks each round, detectors between consecutive rounds, one logical
    observable. Noiseless records are all zero."""
    d = distance
    lines: list[str] = []
    anc = [d + j for j in range(d - 1)]
    for t in range(rounds):
        lines.append(f"X_ERROR({p}) " + " ".join(str(j) for j in range(d)))
        for j in range(d - 1):
            lines.append(f"CX {j} {anc[j]}")
            lines.append(f"CX {j + 1} {anc[j]}")
        lines.append("M " + " ".join(str(a) for a in anc))
        for j in range(d - 1):
            cur = -(d - 1 - j)
            if t == 0:
                lines.append(f"DETECTOR rec[{cur}]")
            else:
                prev = -(2 * (d - 1) - j)
                lines.append(f"DETECTOR rec[{cur}] rec[{prev}]")
        lines.append("R " + " ".join(str(a) for a in anc))
    lines.append("M " + " ".join(str(j) for j in range(d)))
    for j in range(d - 1):
        da = -(d - j)
        db = -(d - j - 1)
        aj = -(d + (d - 1) - j)
        lines.append(f"DETECTOR rec[{da}] rec[{db}] rec[{aj}]")
    lines.append(f"OBSERVABLE_INCLUDE(0) rec[-{d}]")
    return parse_circuit("\n".join(lines) + "\n")


def random_fault_plan(circuit: Circuit, rng: np.random.Generator,
                      trigger_rate: float = 0.3) -> dict[int, int]:
    """Deterministic fault injection plan: site -> case index."""
    plan: dict[int, int] = {}
    from .oracle import site_cases

    for sid, ins, qubits in noise_sites_of(circuit):
        if rng.random() < trigger_rate:
            ncases = len(site_cases(ins, qubits, circuit.qubit_count))
            plan[sid] = int(rng.integers(0, ncases))
    return plan


def crosscheck(circuit: Circuit, seed: int = 0,
               fault_plan: dict[int, int] | None = None,
               checkpoints: bool = False) -> dict:
    """Force one oracle trajectory onto the compiled VM and compare.

    The oracle's measurement outcomes become the VM's forced outcomes, and
    ``fault_plan`` (site -> case; None: no fault) becomes its fault list, so
    a site the plan does not name stays quiet in both. Returns
    per-comparison booleans/fidelities; raises nothing on mismatch so callers
    can report. With ``checkpoints`` every circuit prefix is compiled and
    expanded against the truncated oracle run under the same plans.
    """
    flat = flatten(circuit)
    oracle = dense_run(flat, fault_plan=fault_plan, seed=seed)
    outcome_plan = {i: int(b) for i, b in enumerate(oracle.records)}
    # the VM's fault list: exactly the planned sites fire, with their cases
    forced_faults = sorted((fault_plan or {}).items())

    prog = compile_circuit(flat)
    state = ShotState(prog, seed=seed)
    rec = run_shot(prog, state, shot=0, forced_faults=forced_faults,
                   forced_outcomes=outcome_plan)
    out = {
        "records_match": bool(np.array_equal(rec.measurements, oracle.user_records)),
        "detectors_match": bool(np.array_equal(rec.detectors, oracle.detectors)),
        "observables_match": bool(np.array_equal(rec.observables, oracle.observables)),
    }
    expanded = expand_factored(state, prog.final_tableau)
    out["fidelity"] = fidelity(expanded, oracle.state)
    if checkpoints:
        fids = []
        for cut in range(len(flat.instructions) + 1):
            prefix = Circuit(list(flat.instructions[:cut]))
            if prefix.qubit_count < flat.qubit_count:
                # keep the qubit register the same size across prefixes
                prefix.instructions.append(_pad_instruction(flat.qubit_count))
            pprog = compile_circuit(prefix)
            pstate = ShotState(pprog, seed=seed)
            run_shot(pprog, pstate, shot=0, forced_faults=forced_faults,
                     forced_outcomes=outcome_plan)
            pdense = dense_run(flat, fault_plan=fault_plan,
                               outcome_plan=outcome_plan, max_instructions=cut)
            fids.append(fidelity(expand_factored(pstate, pprog.final_tableau),
                                 pdense.state))
        out["checkpoint_fidelities"] = fids
        out["min_checkpoint_fidelity"] = min(fids)
    return out


def _pad_instruction(n: int):
    from .circuit import Instruction

    return Instruction("Z", (n - 1,), (), 0)


def run_validation_suite(seed: int = 0, mirrors: int = 20, fuzz: int = 40,
                         shots_per_mirror: int = 200, verbose: bool = False) -> list[str]:
    """Mirror determinism + forced-trajectory oracle equivalence; returns failures."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for i in range(mirrors):
        n = int(rng.integers(1, 6))
        circ = random_mirror_circuit(rng, n, int(rng.integers(1, 7)))
        prog = compile_circuit(circ)
        state = ShotState(prog, seed=seed + i)
        for shot in range(shots_per_mirror):
            rec = run_shot(prog, state, shot=shot)
            if rec.measurements.any():
                failures.append(f"mirror {i}: nonzero record at shot {shot}")
                break
    for i in range(fuzz):
        n = int(rng.integers(1, 6))
        circ = random_circuit(rng, n, int(rng.integers(3, 25)), p_noise=0.3,
                              reset_rate=0.05, feedforward_rate=0.1)
        plan = random_fault_plan(circ, rng)
        try:
            res = crosscheck(circ, seed=seed + 1000 + i, fault_plan=plan)
        except Exception as exc:  # report, don't mask
            failures.append(f"fuzz {i}: exception {exc!r}")
            continue
        if not (res["records_match"] and res["detectors_match"]
                and res["observables_match"]):
            failures.append(f"fuzz {i}: record mismatch")
        if res["fidelity"] < 1 - 1e-10:
            failures.append(f"fuzz {i}: fidelity {res['fidelity']:.12f}")
    return failures
