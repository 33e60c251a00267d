"""Localization, planning/emission, and bytecode optimization."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from framesim import backend
from framesim.backend import (
    ArrayGate,
    ArrayRot,
    CompileError,
    Expand,
    FrameGates,
    MeasCollapse,
    MeasDormantRandom,
    MeasDormantStatic,
    NoiseBlock,
    compile_circuit,
    localize,
    optimize_bytecode,
    plan_and_emit,
    plan_schedule,
)
from framesim.circuit import flatten, parse_circuit
from framesim.hir import NoiseEvent, lower_to_hir, peephole_pass, schedule_pass
from framesim.pauli import PauliString, bit_indices, random_pauli
from framesim.testing import random_circuit, repetition_code_circuit

from test_compile_pin import _corpus, _workloads
from test_pauli import GATE_MATS, embed

MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nDEPOLARIZE1(0.001) 0 1\nCX 0 1\nT_DAG 0\nH 0\nM 0 1\n"


def _gates_to_dense(gates, n):
    u = np.eye(2 ** n, dtype=complex)
    for g, a, b in gates:
        targets = (a,) if b is None else (a, b)
        u = embed(GATE_MATS[g], targets, n) @ u
    return u


def test_localize_zz_textbook():
    res = localize(PauliString.from_label("ZZ"))
    assert res.gates == (("CX", 1, 0),)
    assert res.axis == 0 and res.basis == "Z" and res.sign == 1


def test_localize_single_qubit_z_is_trivial():
    p = PauliString.single(5, 3, "Z")
    res = localize(p)
    assert res.gates == () and res.axis == 3 and res.basis == "Z"


def test_localize_rejects_identity():
    with pytest.raises(CompileError):
        localize(PauliString.identity(3))


def test_localize_random_verified_by_dense_conjugation():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        p = random_pauli(n, rng)
        res = localize(p)
        u = _gates_to_dense(res.gates, n)
        got = u @ p.to_dense() @ u.conj().T
        single = PauliString.single(n, res.axis, res.basis)
        assert np.allclose(got, res.sign * single.to_dense(), atol=1e-9)


def test_localize_gate_count_bound():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 65))
        p = random_pauli(n, rng)
        res = localize(p)
        assert len(res.gates) <= 2 * n + 2
        # and the bit-level replay reaches a single axis
        cur = p.copy()
        for g, a, b in res.gates:
            cur.conjugate_gate(g, a, b)
        assert cur.weight() == 1


def test_localize_active_pivot_preferences():
    # pure-Z with an active qubit: pivot active, no promotion
    p = PauliString.from_label("ZZZ")
    res = localize(p, active_set={1})
    assert res.axis == 1
    assert all(g == "CX" and b == 1 for g, a, b in res.gates)
    # X-support on a dormant qubit: dormant pivot even when actives exist
    p = PauliString.from_label("XX")
    res = localize(p, active_set={0})
    assert res.axis == 1


def _reference_localize(pauli: PauliString, active_set=frozenset()):
    """The gate-by-gate localization that the closed form replaced, kept as
    the reference: it conjugates a copy of the word by each gate it emits."""
    cur = pauli.copy()
    gates = []

    def emit(g, a, b=None):
        gates.append((g, a, b))
        cur.conjugate_gate(g, a, b)

    xs = bit_indices(cur.x)
    if xs:
        dormant = [q for q in xs if q not in active_set]
        v = dormant[0] if dormant else xs[0]
        for q in xs:
            if q != v:
                emit("CX", v, q)
        for q in bit_indices(cur.z):
            if q != v:
                emit("CZ", v, q)
        if (cur.z >> v) & 1:
            emit("S", v)
        basis = "X"
    else:
        zs = bit_indices(cur.z)
        act = [q for q in zs if q in active_set]
        v = act[0] if act else zs[0]
        for q in zs:
            if q != v:
                emit("CX", q, v)
        basis = "Z"
    assert cur.weight() == 1
    return tuple(gates), v, basis, cur.hermitian_sign()


def test_closed_form_localize_matches_gate_by_gate_reference():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(2500):
        n = int(rng.integers(1, 41))
        weight = int(rng.integers(1, min(n, 12) + 1))
        support = rng.choice(n, size=weight, replace=False)
        letters = rng.choice(list("XYZ"), size=weight)
        p = PauliString(n)
        for q, ch in zip(support, letters):
            p = p.mul(PauliString.single(n, int(q), str(ch)))
        if rng.random() < 0.5:
            p = PauliString(n, p.x, p.z, p.phase_exp + 2)
        active = {int(q) for q in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        res = localize(p, active)
        assert (res.gates, res.axis, res.basis, res.sign) == _reference_localize(p, active)
        seen.add((res.basis, res.sign, weight == 1, bool(p.x & p.z)))
    # both bases, both signs, single letters and Y letters all occur
    assert {b for b, _, _, _ in seen} == {"X", "Z"}
    assert {s for _, s, _, _ in seen} == {1, -1}
    assert (True, True) in {(w, y) for _, _, w, y in seen}


def test_localize_rejects_a_non_hermitian_word():
    with pytest.raises(ValueError):
        localize(PauliString(2, 0b01, 0b10, 1))


def test_localize_never_entangles_dormant_targets():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        active = {int(q) for q in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
        p = random_pauli(n, rng)
        res = localize(p, active)
        for g, a, b in res.gates:
            if g == "CX" and a in active:
                assert b in active


def test_dormant_controlled_sequences_fix_zero_state():
    """Frame-only localization gates act as identity on |phi> (x) |0>_D."""
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        active = {int(q) for q in rng.choice(n, size=int(rng.integers(0, 3)), replace=False)}
        p = random_pauli(n, rng)
        res = localize(p, active)
        frame_only = [
            (g, a, b) for g, a, b in res.gates
            if (g == "CX" and a not in active)
            or (g == "CZ" and (a not in active or b not in active))
            or (g in ("S", "H") and a not in active and b is None)
        ]
        if not frame_only:
            continue
        u = _gates_to_dense(frame_only, n)
        vec = np.zeros(2 ** n, dtype=complex)
        # random amplitudes on active axes, dormant pinned to |0>
        for _rep in range(3):
            vec[:] = 0
            idxs = [0]
            for q in active:
                idxs = idxs + [i | (1 << (n - 1 - q)) for i in idxs]
            for i in idxs:
                vec[i] = rng.normal() + 1j * rng.normal()
            vec /= np.linalg.norm(vec)
            assert np.allclose(u @ vec, vec, atol=1e-12)
        checked += 1
    assert checked >= 20


def _full_pipeline(text, optimize=True):
    circ = flatten(parse_circuit(text))
    hir = lower_to_hir(circ)
    if optimize:
        hir = schedule_pass(peephole_pass(hir))
    return plan_and_emit(hir)


def test_mirror_plan_matches_worked_example():
    prog = optimize_bytecode(_full_pipeline(MIRROR))
    assert prog.k_max == 1
    kinds = [type(i).__name__ for i in prog.instrs]
    assert kinds.count("Expand") == 1
    assert any(isinstance(i, NoiseBlock) and (i.lo, i.hi) == (0, 2) for i in prog.instrs)
    assert kinds.count("MeasDormantStatic") == 1
    fused = [i for i in prog.instrs if isinstance(i, MeasCollapse)]
    assert len(fused) == 1
    expand = next(i for i in prog.instrs if isinstance(i, Expand))
    assert abs(expand.angle - math.pi / 8) < 1e-12


def test_pure_clifford_kmax_zero():
    prog = compile_circuit("H 0\nCX 0 1\nS 1\nM 0 1\nDETECTOR rec[-1] rec[-2]\n")
    assert prog.k_max == 0
    assert not any(isinstance(i, (Expand, ArrayRot, ArrayGate, MeasCollapse))
                   for i in prog.instrs)


def test_expand_then_collapse_returns_to_zero():
    prog = compile_circuit("H 0\nT 0\nH 0\nM 0\n")
    assert prog.k_max == 1
    assert prog.active_schedule[-1] == 0
    assert prog.final_active == ()


def test_dormant_z_rotation_is_scalar_phase():
    prog = compile_circuit("T 0\nM 0\n")
    assert [type(i) for i in prog.instrs] == [MeasDormantStatic]
    assert prog.k_max == 0


def test_compile_deterministic():
    a = compile_circuit(MIRROR)
    b = compile_circuit(MIRROR)
    assert a.fingerprint() == b.fingerprint()


def test_passive_clifford_padding_changes_nothing():
    """Net-identity Clifford padding is absorbed without a bytecode trace."""
    rng = np.random.default_rng(17)
    base_lines = MIRROR.strip().splitlines()
    lines = list(base_lines)
    pairs = [("H 0", "H 0"), ("S 1", "S_DAG 1"), ("CX 0 1", "CX 0 1"),
             ("X 0", "X 0"), ("CZ 1 0", "CZ 1 0")]
    for _ in range(200):
        at = int(rng.integers(0, len(lines) + 1))
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        lines[at:at] = [a, b]
    padded = "\n".join(lines) + "\n"
    prog0 = compile_circuit(MIRROR)
    prog1 = compile_circuit(padded)
    assert len(prog1.instrs) == len(prog0.instrs)
    assert prog1.active_schedule == prog0.active_schedule
    assert prog1.k_max == prog0.k_max
    assert prog1.dump() == prog0.dump()
    assert prog1.stats.clifford_ops > prog0.stats.clifford_ops


def test_emit_fuses_expand_rot():
    # emission promotes and rotates in one Expand and measures the active
    # axis with one MeasCollapse; the optimizer leaves both as they are
    prog = _full_pipeline("H 0\nT 0\nM 0\n")
    assert [type(i).__name__ for i in prog.instrs] == ["FrameGates", "Expand", "MeasCollapse"]
    expand, meas = prog.instrs[1], prog.instrs[2]
    assert abs(expand.angle - math.pi / 8) < 1e-12 and expand.size == 1
    assert meas.pre_gates == () and meas.u == ((1, 0), (0, 1)) and meas.size == 2
    assert prog.active_schedule == [0, 1, 0]
    opt = optimize_bytecode(prog)
    assert opt.instrs == prog.instrs and opt.active_schedule == prog.active_schedule
    assert [line.split()[0] for line in opt.dump().splitlines()] == [
        "FRAME_CLIFFORD", "EXPAND_T", "MEAS_COLLAPSE[Z]"]


def test_optimizer_folds_basis_change_into_collapse():
    prog = _full_pipeline("H 0\nT 0\nS 0\nH 0\nM 0\n")
    assert [type(i).__name__ for i in prog.instrs] == [
        "FrameGates", "Expand", "ArrayGate", "ArrayGate", "MeasCollapse"]
    opt = optimize_bytecode(prog)
    assert [type(i).__name__ for i in opt.instrs] == ["FrameGates", "Expand", "MeasCollapse"]
    assert opt.active_schedule == [0, 1, 0]
    meas = opt.instrs[-1]
    assert meas.pre_gates == (("S", 0, None), ("H", 0, None))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(np.array(meas.u), h @ np.diag([1, 1j]))
    assert opt.dump().splitlines()[-1] == "MEAS_COLLAPSE[SH] 0 -> rec[0]"


def test_optimizer_coalesces_noise_and_keeps_segments():
    # Clifford gates between noise sites vanish at lowering, so those sites
    # coalesce; an anticommuting measurement keeps segments apart.
    prog = optimize_bytecode(_full_pipeline("X_ERROR(0.1) 0 1 2\nH 0\nX_ERROR(0.2) 0\nM 1\n"))
    blocks = [i for i in prog.instrs if isinstance(i, NoiseBlock)]
    assert [(b.lo, b.hi) for b in blocks] == [(0, 4)]
    prog = optimize_bytecode(_full_pipeline(
        "X_ERROR(0.1) 0\nX_ERROR(0.1) 0\nM 0\nX_ERROR(0.2) 0\nM 0\n"))
    blocks = [i for i in prog.instrs if isinstance(i, NoiseBlock)]
    assert [(b.lo, b.hi) for b in blocks] == [(0, 2), (2, 3)]


def _noise_runs(hir) -> list:
    """``(lo, hi)`` of the sites of each run of adjacent ``NoiseEvent`` ops."""
    runs, last = [], None
    for op in hir.ops:
        if type(op) is NoiseEvent:
            if last is NoiseEvent:
                runs[-1] = (runs[-1][0], op.site + 1)
            else:
                runs.append((op.site, op.site + 1))
        last = type(op)
    return runs


def test_noise_blocks_are_the_runs_of_adjacent_noise_events():
    # a dormant qubit's rotation emits nothing, and still ends a block
    prog = compile_circuit("X_ERROR(0.2) 0\nT 0\nX_ERROR(0.2) 0\nM 0\n")
    assert prog.instrs[:2] == [NoiseBlock(0, 1), NoiseBlock(1, 2)]
    assert [type(i) for i in prog.instrs[2:]] == [MeasDormantStatic]
    for text in [*_workloads(), *_corpus(200)]:
        hir = peephole_pass(lower_to_hir(flatten(parse_circuit(text))))
        winner, _ = plan_schedule(hir)
        blocks = [(i.lo, i.hi) for i in compile_circuit(text).instrs
                  if isinstance(i, NoiseBlock)]
        assert blocks == _noise_runs(winner)


def test_optimizer_noop_without_adjacency():
    prog = _full_pipeline("X_ERROR(0.1) 0\nH 0\nT 0\nM 1\n", optimize=False)
    opt = optimize_bytecode(prog)
    # nothing adjacent to fuse except bookkeeping; instruction kinds preserved
    assert [type(i).__name__ for i in opt.instrs if isinstance(i, NoiseBlock)] == ["NoiseBlock"]


def test_optimizer_never_increases_traversals():
    rng = np.random.default_rng(23)
    from framesim.testing import random_circuit

    for _ in range(15):
        circ = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(3, 18)),
                              p_noise=0.2)
        prog = _full_pipeline(circ.serialize())
        opt = optimize_bytecode(prog)
        work = sum(getattr(i, "size", 0) for i in prog.instrs)
        work_opt = sum(getattr(i, "size", 0) for i in opt.instrs)
        assert work_opt <= work
        assert len(opt.instrs) <= len(prog.instrs)


def test_postselect_detector_out_of_range_rejected():
    text = "X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\nM 0\nDETECTOR rec[-1]\n"
    for bad in ((2,), (-1,), (0, 5)):
        with pytest.raises(CompileError, match="does not exist"):
            compile_circuit(text, postselect_detectors=bad)
    prog = compile_circuit(text, postselect_detectors=(0, 1))
    assert sum(type(i).__name__ == "PostSelectIns" for i in prog.instrs) == 2


def test_stats_dump_fields():
    prog = compile_circuit(MIRROR)
    d = prog.stats.as_dict()
    assert d["n_qubits"] == 2
    assert d["measurements"] == 2
    assert d["active_measurements"] == 1
    assert d["nonclifford_rotations"] == 2
    assert d["noise_mechanisms"] == 2
    assert d["k_max"] == 1


def test_schedule_is_amplitude_and_seed_free():
    # compiling under different global RNG states cannot matter: the
    # compiler consults no randomness at all
    import random

    random.seed(1)
    np.random.seed(1)
    a = compile_circuit(MIRROR).fingerprint()
    random.seed(99)
    np.random.seed(99)
    b = compile_circuit(MIRROR).fingerprint()
    assert a == b


@pytest.mark.parametrize("text, planned", [
    (repetition_code_circuit(3, 2, 0.01).serialize(), 1),  # no Rot: k_max is 0
    (MIRROR, 2),
], ids=["repetition_code", "mirror"])
def test_compile_plans_each_candidate_once(monkeypatch, text, planned):
    calls = []
    real = backend.plan_and_emit

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(backend, "plan_and_emit", counting)
    compile_circuit(text)
    assert len(calls) == planned


def test_one_call_and_staged_pipelines_agree():
    """``compile_circuit`` keeps the program planned for the schedule's
    winner; it must equal planning the winner again, rejected or kept."""
    rng = np.random.default_rng(12345)
    rejected = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        depth = int(rng.integers(3, 60))
        rot_rate = float(rng.uniform(0.05, 0.5))
        measure_rate = float(rng.uniform(0.05, 0.3))
        circ = random_circuit(rng, n, depth, p_noise=0.1, reset_rate=0.05,
                              feedforward_rate=0.05, rot_rate=rot_rate,
                              measure_rate=measure_rate)
        hir = peephole_pass(lower_to_hir(flatten(circ)))
        scheduled = schedule_pass(hir)
        rejected += scheduled is hir
        staged = optimize_bytecode(plan_and_emit(scheduled))
        assert compile_circuit(circ).fingerprint() == staged.fingerprint()
    assert rejected >= 5


def test_wide_frame_compiles_in_linear_time():
    # one H per qubit on 1999 qubits, then one measurement: a forward map
    # costs the weight of its operand, so the final frame's inverse takes
    # milliseconds; a scan of all n rows per mapped Pauli took seconds
    text = "".join(f"H {q}\n" for q in range(1999)) + "M 0\n"
    start = time.process_time()
    prog = compile_circuit(text)
    assert time.process_time() - start < 1.0
    assert prog.n == 1999


@pytest.mark.parametrize("was_enabled", [True, False])
@pytest.mark.parametrize("text, error", [
    (MIRROR, None),
    ("H 0\nNOPE 1\n", "CircuitError"),
    ("M 0\nDETECTOR rec[-1]\n", "CompileError"),
], ids=["ok", "circuit_error", "compile_error"])
def test_compile_pauses_the_collector_and_restores_its_state(monkeypatch, was_enabled,
                                                             text, error):
    """The cyclic collector is off while the compile runs and back in its
    previous state afterwards, also when the compile raises."""
    import gc

    seen = []
    real = backend.lower_to_hir

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(backend, "lower_to_hir", recording)
    was = gc.isenabled()
    try:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
        if error is None:
            compile_circuit(text)
            assert seen == [False]
        else:
            with pytest.raises(ValueError) as info:
                compile_circuit(text, postselect_detectors=(3,))
            assert type(info.value).__name__ == error
        assert gc.isenabled() is was_enabled
        if was_enabled:
            # a young collection that fell due ran before returning
            assert gc.get_count()[0] <= gc.get_threshold()[0]
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


def test_compile_leaves_no_cyclic_garbage():
    """With the collector paused, nothing would collect reference cycles a
    compile made: compiling the bench texts and 30 seeded random circuits
    leaves none."""
    import gc

    rng = np.random.default_rng(2024)
    texts = list(_workloads()) + [
        random_circuit(rng, int(rng.integers(1, 9)), int(rng.integers(3, 60)), p_noise=0.05,
                       reset_rate=0.05, feedforward_rate=0.05,
                       rot_rate=float(rng.uniform(0.05, 0.5))).serialize()
        for _ in range(30)]
    gc.collect()
    for text in texts:
        compile_circuit(text)
    assert gc.collect() == 0
