"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned: structural checks are exact,
statistical checks use the stated sigma/chi-squared levels, and state
comparisons use fidelity >= 1 - 1e-10.
"""
from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np
import pytest

from framesim.backend import (
    ArrayGate,
    ArrayRot,
    Expand,
    MeasCollapse,
    NoiseBlock,
    compile_circuit,
    localize,
    plan_and_emit,
)
from framesim.analysis import attenuation_model, ratio_credible_interval, t_fidelity_bound
from framesim.circuit import Circuit, Instruction, flatten, parse_circuit
from framesim.hir import Meas, NoiseEvent, Rot, lower_to_hir, peephole_pass, schedule_pass
from framesim.oracle import (
    _apply_1q,
    _apply_cx,
    _apply_cz,
    _GATES_1Q,
    dense_run,
    pauli_frame_reference_sample,
)
from framesim.pauli import PauliString, random_pauli
from framesim.rng import ShotRng
from framesim.runtime import (
    ShotState,
    StratumSpec,
    expectation_probe,
    hazard_sample,
    poisson_binomial,
    run_shot,
    sample,
    sample_accumulate,
)
from framesim.testing import (
    crosscheck,
    random_circuit,
    random_fault_plan,
    random_mirror_circuit,
    repetition_code_circuit,
)

WORKED_MIRROR = """\
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

CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
            7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    hir = schedule_pass(peephole_pass(lower_to_hir(flatten(parse_circuit(WORKED_MIRROR)))))
    rots = [op for op in hir.ops if isinstance(op, Rot)]
    t_like = [r for r in rots if abs(r.angle - math.pi / 8) < 1e-12]
    tdag_like = [r for r in rots if abs(r.angle + math.pi / 8) < 1e-12]
    noise = [op for op in hir.ops if isinstance(op, NoiseEvent)]
    meas = [op for op in hir.ops if isinstance(op, Meas)]
    structure_ok = (len(t_like) == 1 and len(tdag_like) == 1 and len(rots) == 2
                    and len(noise) == 2 and len(meas) == 2)
    prog = compile_circuit(WORKED_MIRROR)
    kmax_ok = prog.k_max == 1
    block_ok = any(isinstance(i, NoiseBlock) and (i.lo, i.hi) == (0, 2)
                   for i in prog.instrs)
    # semantic equivalence: force the oracle trajectory for the noiseless run
    # and for every single-fault injection
    circ = parse_circuit(WORKED_MIRROR)
    sem_ok = True
    plans = [None] + [{site: case} for site in range(2) for case in range(3)]
    for p_i, plan in enumerate(plans):
        for seed in (0, 1):
            res = crosscheck(circ, seed=seed * 31 + p_i, fault_plan=plan)
            sem_ok &= res["records_match"] and res["fidelity"] >= 1 - 1e-10
    elapsed = time.perf_counter() - t0
    ok = structure_ok and kmax_ok and block_ok and sem_ok and elapsed < 1.0
    _report(1, ok, f"HIR 1T/1Tdag/2noise/2meas={structure_ok} k_max=1={kmax_ok} "
                   f"block[0..2)={block_ok} oracle-equiv={sem_ok} ({elapsed:.2f}s)")


def test_criterion_2_mirror_determinism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = 0
    circuits = 0
    shots_each = 10_000
    while circuits < 50:
        n = int(rng.integers(1, 9))
        circ = random_mirror_circuit(rng, n, int(rng.integers(1, 13)))
        prog = compile_circuit(circ)
        state = ShotState(prog, seed=circuits)
        acc = sample_accumulate(prog, shots_each, seed=circuits)
        if acc["measurements"].any():
            bad += 1
        circuits += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    _report(2, ok, f"{circuits} mirrors x {shots_each} shots, "
                   f"nonzero-record circuits={bad} ({elapsed:.1f}s)")


def test_criterion_3_dense_oracle_state_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    worst = 1.0
    mismatches = 0
    n_circuits = 200
    for i in range(n_circuits):
        n = int(rng.integers(1, 7))
        circ = random_circuit(rng, n, int(rng.integers(4, 16)), p_noise=0.3,
                              measure_rate=0.25, max_noncliff=6,
                              reset_rate=0.05, feedforward_rate=0.08)
        plan = random_fault_plan(circ, rng)
        res = crosscheck(circ, seed=9000 + i, fault_plan=plan,
                         checkpoints=(i % 5 == 0))
        if not (res["records_match"] and res["detectors_match"]
                and res["observables_match"]):
            mismatches += 1
        worst = min(worst, res.get("min_checkpoint_fidelity", res["fidelity"]))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and worst >= 1 - 1e-10 and elapsed < 120.0
    _report(3, ok, f"{n_circuits} circuits (every-prefix expansion on 1 in 5), "
                   f"worst fidelity={worst:.12f}, mismatches={mismatches} ({elapsed:.1f}s)")


def test_criterion_4_clifford_statistical_agreement():
    t0 = time.perf_counter()
    shots = 1_000_000
    circ = flatten(repetition_code_circuit(3, 5, 1e-3))
    assert not dense_run(circ).user_records.any()  # reference validity guard
    prog = compile_circuit(circ)
    acc = sample_accumulate(prog, shots, seed=404)
    _, det_ref, _ = pauli_frame_reference_sample(circ, shots, seed=90404)
    p_vm = acc["detectors"] / shots
    p_ref = det_ref.mean(axis=0)
    worst_sigma = 0.0
    for a, b in zip(p_vm, p_ref):
        pooled = (a + b) / 2
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2 / shots)
        worst_sigma = max(worst_sigma, abs(a - b) / sigma)
    elapsed = time.perf_counter() - t0
    ok = worst_sigma < 5.0 and elapsed < 60.0
    _report(4, ok, f"repetition code d=3 r=5 p=1e-3, {prog.num_detectors} detectors, "
                   f"max |diff|={worst_sigma:.2f} sigma over 1e6 shots ({elapsed:.1f}s)")


def test_criterion_5_structural_contracts():
    import random as pyrandom

    # (a) bytecode and schedule identical across 10 differently seeded compiles
    prints = set()
    for seed in range(10):
        pyrandom.seed(seed)
        np.random.seed(seed)
        prog = compile_circuit(WORKED_MIRROR)
        prints.add(prog.fingerprint())
    deterministic = len(prints) == 1
    # (b) 10^3 net-identity passive Cliffords change nothing
    rng = np.random.default_rng(55)
    lines = WORKED_MIRROR.strip().splitlines()
    pairs = [("H 0", "H 0"), ("S 1", "S_DAG 1"), ("CX 0 1", "CX 0 1"),
             ("CZ 1 0", "CZ 1 0"), ("X 0", "X 0"), ("SWAP 0 1", "SWAP 0 1")]
    count = 0
    while count < 1000:
        at = int(rng.integers(0, len(lines) + 1))
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        lines[at:at] = [a, b]
        count += 2
    padded_prog = compile_circuit("\n".join(lines) + "\n")
    base_prog = compile_circuit(WORKED_MIRROR)
    padding_ok = (len(padded_prog.instrs) == len(base_prog.instrs)
                  and padded_prog.active_schedule == base_prog.active_schedule
                  and padded_prog.k_max == base_prog.k_max)
    # (c) per-shot allocation constant: 2^k_max array + O(N) bits, reused
    st = ShotState(base_prog, seed=0)
    run_shot(base_prog, st, shot=0)
    buf_id = id(st.buf)
    tracemalloc.start()
    for shot in range(100):
        run_shot(base_prog, st, shot=shot)
    _, peak_a = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    for shot in range(4000):
        run_shot(base_prog, st, shot=shot)
    _, peak_b = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    alloc_ok = id(st.buf) == buf_id and peak_b < peak_a + 64_000
    assert st.buf.nbytes == 16 * (1 << base_prog.k_max)
    ok = deterministic and padding_ok and alloc_ok
    _report(5, ok, f"seed-independent={deterministic} clifford-padding-invariant="
                   f"{padding_ok} constant-allocation={alloc_ok}")


def test_criterion_6_localization_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    bound_ok = True
    single_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        p = random_pauli(n, rng)
        res = localize(p)
        if len(res.gates) > 2 * n + 2:
            bound_ok = False
            break
        cur = p.copy()
        for g, a, b in res.gates:
            cur.conjugate_gate(g, a, b)
        if cur.weight() != 1 or not cur.is_hermitian():
            single_ok = False
            break
    # dormant-control invariance on |0>_D, dense check up to N=10
    invariance_ok = True
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 11))
        active = {int(q) for q in rng.choice(n, size=int(rng.integers(0, 3)),
                                             replace=False)}
        p = random_pauli(n, rng)
        res = localize(p, active)
        frame_only = [(g, a, b) for g, a, b in res.gates
                      if (g == "CX" and a not in active)
                      or (g == "CZ" and (a not in active or b not in active))
                      or (g in ("S", "H") and b is None and a not in active)]
        if not frame_only:
            continue
        vec = np.zeros(2 ** n, dtype=complex)
        idxs = [0]
        for q in active:
            idxs = idxs + [i | (1 << (n - 1 - q)) for i in idxs]
        for i in idxs:
            vec[i] = rng.normal() + 1j * rng.normal()
        vec /= np.linalg.norm(vec)
        out = vec
        for g, a, b in frame_only:
            if g == "CX":
                out = _apply_cx(out, a, b, n)
            elif g == "CZ":
                out = _apply_cz(out, a, b, n)
            else:
                out = _apply_1q(out, _GATES_1Q[g], a, n)
        if not np.allclose(out, vec, atol=1e-12):
            invariance_ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = bound_ok and single_ok and invariance_ok
    _report(6, ok, f"10^4 paulis N<=64: gate bound<=2N+2={bound_ok} single-axis="
                   f"{single_ok}; dormant-control invariance (N<=10)={invariance_ok}"
                   f" ({elapsed:.1f}s)")


def test_criterion_7_sampler_exactness():
    t0 = time.perf_counter()
    # (a) hazard-skip joint pattern chi-squared over 1e6 shots
    prog = compile_circuit("X_ERROR(0.1) 0\nX_ERROR(0.3) 1\nM 0 1\n")
    rng = ShotRng(7, 0)
    counts = np.zeros(4)
    n = 1_000_000
    for shot in range(n):
        rng.reset(shot)
        hit = 0
        for s, _ in hazard_sample(prog, 0, 2, rng):
            hit |= 1 << s
        counts[hit] += 1
    expect = np.array([0.9 * 0.7, 0.1 * 0.7, 0.9 * 0.3, 0.1 * 0.3]) * n
    chi2_joint = float(((counts - expect) ** 2 / expect).sum())
    joint_ok = chi2_joint < CHI2_999[3]
    # (b) realized fault counts follow the Poisson-binomial pmf
    probs = [0.05, 0.2, 0.35, 0.5]
    text = "".join(f"X_ERROR({p}) {j}\n" for j, p in enumerate(probs)) + "M 0\n"
    prog2 = compile_circuit(text)
    pmf = poisson_binomial(probs)
    cnt = np.zeros(len(probs) + 1)
    for shot in range(n):
        rng.reset(shot + n)
        cnt[len(hazard_sample(prog2, 0, len(probs), rng))] += 1
    expect2 = pmf * n
    chi2_pmf = float(((cnt - expect2) ** 2 / expect2).sum())
    pmf_ok = chi2_pmf < CHI2_999[len(probs)]
    # (c) importance-sampled weighted estimate vs exhaustive enumeration
    toy = ("X_ERROR(0.08) 0\nX_ERROR(0.15) 1\nCX 0 2\nCX 1 2\nX_ERROR(0.1) 2\n"
           "X_ERROR(0.2) 2\nM 2\nOBSERVABLE_INCLUDE(0) rec[-1]\n")
    circ = flatten(parse_circuit(toy))
    prog3 = compile_circuit(circ)
    site_p = [0.08, 0.15, 0.1, 0.2]
    exact = 0.0
    for mask in range(16):
        pr = 1.0
        for i, p in enumerate(site_p):
            pr *= p if (mask >> i) & 1 else 1 - p
        res = dense_run(circ, fault_plan={i: 0 for i in range(4) if (mask >> i) & 1})
        exact += pr * float(res.observables[0])
    est = 0.0
    var = 0.0
    shots = 6000
    for w in range(5):
        spec = StratumSpec(prog3, w)
        hits = sum(int(r.observables[0]) for r in
                   sample(prog3, shots, seed=70 + w, stratum=spec))
        p_hat = hits / shots
        est += spec.weight * p_hat
        var += (spec.weight ** 2) * p_hat * (1 - p_hat) / shots
    is_ok = abs(est - exact) < 3 * math.sqrt(var) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = joint_ok and pmf_ok and is_ok
    _report(7, ok, f"joint chi2={chi2_joint:.1f} pmf chi2={chi2_pmf:.1f} "
                   f"(crit {CHI2_999[3]:.1f}/{CHI2_999[4]:.1f}); IS estimate "
                   f"{est:.5f} vs exact {exact:.5f} within 3 sigma={is_ok} ({elapsed:.0f}s)")


def test_criterion_8_t_state_estimator():
    prog = compile_circuit("H 0\nT 0\n")
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    inv = 1 / math.sqrt(2)
    ex = expectation_probe(prog, st, PauliString.single(1, 0, "X"))
    ey = expectation_probe(prog, st, PauliString.single(1, 0, "Y"))
    ez = expectation_probe(prog, st, PauliString.single(1, 0, "Z"))
    probe_ok = abs(ex - inv) < 1e-12 and abs(ey - inv) < 1e-12 and abs(ez) < 1e-12
    bound_ok = abs(t_fidelity_bound(inv) - 1.0) < 1e-12
    full_ok = abs((0.5 + ex / (2 * math.sqrt(2)) + ey / (2 * math.sqrt(2))) - 1.0) < 1e-12
    # attenuation model vs brute-force single-qubit channel average
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    psi = np.array([1, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
    rng = np.random.default_rng(8)
    att_ok = True
    for _ in range(50):
        px, py, pz = rng.dirichlet([1, 1, 1, 2])[:3]
        branches = [(1 - px - py - pz, np.eye(2)), (px, x), (py, y), (pz, z)]
        bx = sum(p * np.vdot(e @ psi, x @ (e @ psi)).real for p, e in branches)
        by = sum(p * np.vdot(e @ psi, y @ (e @ psi)).real for p, e in branches)
        gx, gy = attenuation_model(px, py, pz, inv, inv)
        att_ok &= abs(gx - bx) < 1e-12 and abs(gy - by) < 1e-12
    ok = probe_ok and bound_ok and full_ok and att_ok
    _report(8, ok, f"<X>=<Y>=1/sqrt2,<Z>=0 ({probe_ok}); bound(1/sqrt2)=1 ({bound_ok}); "
                   f"full-formula=1 ({full_ok}); attenuation 1e-12 ({att_ok})")


def test_criterion_9_interval_coverage_and_equivariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    true_p1, true_p2 = 0.02, 0.008
    true_ratio = true_p1 / true_p2
    n1 = n2 = 5000
    covered = 0
    reps = 1000
    for i in range(reps):
        k1 = int(rng.binomial(n1, true_p1))
        k2 = int(rng.binomial(n2, true_p2))
        ri = ratio_credible_interval(k1, n1, k2, n2, samples=10_000, seed=i)
        covered += ri.lo <= true_ratio <= ri.hi
    coverage = covered / reps
    coverage_ok = abs(coverage - 0.95) <= 0.02
    a = ratio_credible_interval(60, 10 ** 5, 30, 10 ** 5, samples=400_000, seed=7)
    b = ratio_credible_interval(30, 10 ** 5, 60, 10 ** 5, samples=400_000, seed=8)
    equiv_ok = (abs(a.median * b.median - 1) < 0.05
                and abs(a.lo * b.hi - 1) < 0.1 and abs(a.hi * b.lo - 1) < 0.1)
    elapsed = time.perf_counter() - t0
    ok = coverage_ok and equiv_ok
    _report(9, ok, f"coverage {coverage:.3f} in 0.95+-0.02; swap-equivariance="
                   f"{equiv_ok} ({elapsed:.0f}s)")


def test_criterion_10_performance_smoke():
    mirror_prog = compile_circuit(WORKED_MIRROR)

    # synthetic with irreducible peak dimension 10: a rotation layer, a
    # global parity readout that keeps every axis alive, then X readouts
    k10_lines = [f"R_Y(0.7) {q}" for q in range(10)]
    k10_lines += [f"CX {q} {q + 1}" for q in range(9)]
    k10_lines.append("M 9")
    k10_lines += [f"CX {q} {q + 1}" for q in range(8, -1, -1)]
    k10_lines.append("MX " + " ".join(str(q) for q in range(10)))
    k10 = "\n".join(k10_lines) + "\n"
    prog10 = compile_circuit(k10)
    assert prog10.k_max == 10

    padded = k10 + "Z 199\n"
    prog_pad = compile_circuit(padded)
    assert prog_pad.n == 200 and prog_pad.k_max == 10

    # Best of 3 per program. Each repetition times the three programs back to
    # back, so every ratio compares times from the same stretch of host time
    # rather than from stretches seconds apart, over which host speed drifts.
    runs = ((mirror_prog, 60_000), (prog10, 3_000), (prog_pad, 3_000))
    best = [float("inf")] * len(runs)
    for r in range(3):
        for i, (prog, shots) in enumerate(runs):
            t0 = time.process_time()
            sample_accumulate(prog, shots, seed=r)
            best[i] = min(best[i], time.process_time() - t0)
    per_shot_1, per_shot_10, per_shot_pad = (b / shots for b, (_, shots) in zip(best, runs))

    rate = 1 / per_shot_1
    rate_ok = rate >= 1e5
    scaling_ok = per_shot_10 <= 50 * per_shot_1
    padding_ok = per_shot_pad < 2 * per_shot_10

    ok = rate_ok and scaling_ok and padding_ok
    _report(10, ok, f"mirror {rate:,.0f} shots/s (>=1e5: {rate_ok}); "
                    f"k=10 per-shot {per_shot_10 * 1e6:.1f}us vs k=1 "
                    f"{per_shot_1 * 1e6:.1f}us ratio {per_shot_10 / per_shot_1:.1f} "
                    f"(<=50); N=200 padding ratio {per_shot_pad / per_shot_10:.2f} (<2)")
