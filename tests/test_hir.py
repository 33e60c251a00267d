"""Lowering and the two HIR optimization passes."""
from __future__ import annotations

import math

import numpy as np
import pytest

from framesim.circuit import Circuit, Instruction, flatten, parse_circuit
from framesim.hir import (
    CondPauli,
    DetectorDef,
    Meas,
    NoiseEvent,
    ObservableDef,
    PostSelectOp,
    Rot,
    _facts,
    _swappable,
    lower_to_hir,
    peephole_pass,
    schedule_pass,
)
from framesim.backend import _plan_cost, plan_and_emit
from framesim.oracle import dense_run, fidelity, DenseState, site_cases
from framesim.testing import crosscheck, random_circuit, random_fault_plan

from conftest import hir_dense_replay

MIRROR = """\
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


def lower(text):
    return lower_to_hir(flatten(parse_circuit(text)))


def test_clifford_circuit_lowers_to_single_meas():
    hir = lower("H 0\nCX 0 1\nS 1\nH 1\nCZ 0 1\nM 0\n")
    kinds = [type(op).__name__ for op in hir.ops]
    assert kinds == ["Meas"]
    assert hir.stats.clifford_ops == 5


def test_mirror_pre_optimization_counts():
    hir = lower(MIRROR)
    rots = [op for op in hir.ops if isinstance(op, Rot)]
    noise = [op for op in hir.ops if isinstance(op, NoiseEvent)]
    meas = [op for op in hir.ops if isinstance(op, Meas)]
    assert len(rots) == 4 and len(noise) == 2 and len(meas) == 2
    assert all(r.generator.short_str() == "+X0" for r in rots)


def test_h_t_m_generator_and_distribution():
    hir = lower("H 0\nT 0\nM 0\n")
    rot = next(op for op in hir.ops if isinstance(op, Rot))
    assert rot.generator.short_str() == "+X0"
    assert abs(rot.angle - math.pi / 8) < 1e-12
    # replay matches the dense oracle trajectory for both forced outcomes
    for forced in (0, 1):
        oracle = dense_run(flatten(parse_circuit("H 0\nT 0\nM 0\n")),
                           outcome_plan={0: forced})
        vec, records, _, _ = hir_dense_replay(hir, outcome_plan={0: forced})
        assert records[0] == forced
        assert fidelity(DenseState(vec, 1), oracle.state) > 1 - 1e-12


def _replay_equiv(text, hir, seed=0, plan=None):
    flat = flatten(parse_circuit(text))
    oracle = dense_run(flat, fault_plan=plan, seed=seed)
    outcome_plan = {i: int(b) for i, b in enumerate(oracle.records)}
    vec, records, dets, _ = hir_dense_replay(hir, fault_plan=plan,
                                             outcome_plan=outcome_plan)
    if sorted(records) != list(range(len(oracle.records))):
        return False
    got = [records[i] for i in sorted(records)]
    if got != [int(b) for b in oracle.records]:
        return False
    return fidelity(DenseState(vec, max(flat.qubit_count, 1)), oracle.state) > 1 - 1e-10


def test_lowering_counts_qubits_appended_after_flatten():
    # flatten keeps the count it found; an instruction appended later on a
    # higher qubit must still widen the register
    flat = flatten(parse_circuit("H 0\nT 0\nM 0\n"))
    assert flat.qubit_count == 1
    flat.instructions.append(Instruction("X", (3,), (), 0))
    flat.instructions.append(Instruction("M", (3,), (), 0))
    assert flat.qubit_count == 4
    hir = lower_to_hir(flat)
    assert hir.n == 4
    meas = [op for op in hir.ops if isinstance(op, Meas)]
    assert [m.observable.short_str() for m in meas] == ["+X0", "+Z3"] and meas[1].flip
    res = crosscheck(flat)
    assert res["records_match"] and res["fidelity"] > 1 - 1e-10


def test_lowered_noise_cases_are_mapped_site_cases():
    """Lowering builds each site's cases from the frame's rows; they equal
    ``heisenberg_map`` of ``oracle.site_cases`` through the frame of the
    circuit before the site, in order and in phase."""
    rng = np.random.default_rng(89)
    sites = 0
    for _ in range(30):
        flat = flatten(random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(5, 40)),
                                      p_noise=0.3, reset_rate=0.05, feedforward_rate=0.05))
        n = max(flat.qubit_count, 1)
        pad = Instruction("QUBIT_COORDS", (n - 1,), (), 0)  # widens, changes no frame
        events = [op for op in lower_to_hir(flat).ops if isinstance(op, NoiseEvent)]
        sid = 0
        for k, ins in enumerate(flat.instructions):
            if ins.opcode not in ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"):
                continue
            frame = lower_to_hir(Circuit(flat.instructions[:k] + [pad])).final_frame
            width = 2 if ins.opcode == "DEPOLARIZE2" else 1
            for at in range(0, len(ins.targets), width):
                want = [(mass, frame.heisenberg_map(p).key())
                        for mass, p in site_cases(ins, ins.targets[at:at + width], n)]
                got = [(mass, p.key()) for mass, p in events[sid].cases]
                assert got == want
                sid += 1
        assert sid == len(events)
        sites += sid
    assert sites > 100


def test_lowering_replay_invariant_random():
    rng = np.random.default_rng(31)
    for i in range(25):
        n = int(rng.integers(1, 5))
        circ = random_circuit(rng, n, int(rng.integers(2, 18)), p_noise=0.3,
                              reset_rate=0.05, feedforward_rate=0.1)
        text = circ.serialize()
        plan = random_fault_plan(circ, rng)
        hir = lower(text)
        assert _replay_equiv(text, hir, seed=i, plan=plan)


def test_peephole_fuses_three_t_into_one():
    hir = peephole_pass(lower(MIRROR))
    rots = [op for op in hir.ops if isinstance(op, Rot)]
    assert len(rots) == 2
    angles = sorted(r.angle for r in rots)
    assert abs(angles[0] + math.pi / 8) < 1e-12
    assert abs(angles[1] - math.pi / 8) < 1e-12
    # the absorbed quarter turn rewrote the downstream q0 measurement to Y
    meas0 = next(op for op in hir.ops if isinstance(op, Meas) and op.record == 0)
    assert meas0.observable.short_str() == "+Y0"


def test_peephole_cancels_inverse_pair():
    hir = peephole_pass(lower("H 0\nR_Z(0.7) 0\nR_Z(-0.7) 0\nM 0\n"))
    assert [type(op).__name__ for op in hir.ops] == ["Meas"]


def test_peephole_absorbs_clifford_multiples():
    # two T gates make an S: nothing non-Clifford survives
    hir = peephole_pass(lower("H 0\nT 0\nT 0\nM 0\n"))
    assert not any(isinstance(op, Rot) for op in hir.ops)
    assert _replay_equiv("H 0\nT 0\nT 0\nM 0\n", hir)


def test_quarter_turn_rotations_are_absorbed_into_the_frame():
    # a rotation by a multiple of pi/2 is Clifford: lowering absorbs it into
    # the frame and emits no Rot, while the T beside it stays
    for axis in "XYZ":
        for k in range(-4, 5):
            for prep in ("H 0\n", "H 0\nS 0\n"):
                text = (f"H 1\nT 1\n{prep}R_{axis}({k * math.pi / 2!r}) 0\nCX 0 1\nT 1\n"
                        "H 1\nM 1\nH 0\nM 0\n")
                assert sum(isinstance(op, Rot) for op in lower(text).ops) == 2
                for seed in range(3):
                    res = crosscheck(parse_circuit(text), seed=seed, checkpoints=True)
                    assert res["records_match"], (text, seed)
                    assert res["min_checkpoint_fidelity"] >= 1 - 1e-10, (text, seed)


def test_peephole_semantics_on_injected_cancelling_pairs():
    rng = np.random.default_rng(47)
    for i in range(15):
        n = int(rng.integers(1, 4))
        base = random_circuit(rng, n, int(rng.integers(2, 10)), measure_all=True)
        lines = base.serialize().splitlines()
        insert_at = int(rng.integers(0, len(lines)))
        q = int(rng.integers(0, n))
        theta = float(rng.uniform(0.2, 1.2))
        lines[insert_at:insert_at] = [f"R_Y({theta}) {q}", f"R_Y(-{theta}) {q}"]
        text = "\n".join(lines) + "\n"
        hir = schedule_pass(peephole_pass(lower(text)))
        assert _replay_equiv(text, hir, seed=i)


def test_peephole_idempotent():
    rng = np.random.default_rng(53)
    for i in range(10):
        circ = random_circuit(rng, int(rng.integers(1, 4)), int(rng.integers(3, 14)))
        once = peephole_pass(lower(circ.serialize()))
        twice = peephole_pass(once)
        assert once.dump() == twice.dump()


def test_schedule_hoists_commuting_measurement():
    hir = schedule_pass(peephole_pass(lower(MIRROR)))
    order = [(type(op).__name__, getattr(op, "record", None)) for op in hir.ops]
    # the Z1 measurement (record 1) runs before the T_DAG rotation and the
    # record-0 measurement; record indices stay attached to their ops
    names = [o[0] for o in order]
    assert order[3] == ("Meas", 1)
    assert names.index("Rot") < 3  # the T rotation stays up front
    assert order[-1] == ("Meas", 0)


def test_schedule_noop_without_legal_moves():
    # all ops pairwise anticommute on the same qubit: nothing may move
    hir = peephole_pass(lower("H 0\nT 0\nMX 0\nT 0\nMX 0\n"))
    scheduled = schedule_pass(hir)
    assert scheduled.dump() == hir.dump()


def test_schedule_contracts_before_second_expansion():
    hir = schedule_pass(peephole_pass(lower("H 0\nT 0\nH 1\nT 1\nM 0\n")))
    assert _plan_cost(plan_and_emit(hir))[0] == 1


def test_schedule_never_increases_kmax():
    rng = np.random.default_rng(61)
    for i in range(20):
        n = int(rng.integers(2, 5))
        circ = random_circuit(rng, n, int(rng.integers(4, 20)), p_noise=0.2)
        hir = peephole_pass(lower(circ.serialize()))
        before = _plan_cost(plan_and_emit(hir))
        after = _plan_cost(plan_and_emit(schedule_pass(hir)))
        assert after[0] <= before[0]
        assert _replay_equiv(circ.serialize(), schedule_pass(hir), seed=i)


def test_schedule_matches_exhaustive_min_on_tiny_cases():
    """BFS over legal adjacent swaps gives the reachable minimum k_max."""
    from dataclasses import replace

    rng = np.random.default_rng(67)
    checked = 0
    for i in range(12):
        n = int(rng.integers(2, 4))
        circ = random_circuit(rng, n, int(rng.integers(3, 7)), measure_all=True)
        hir = peephole_pass(lower(circ.serialize()))
        if not 2 <= len(hir.ops) <= 6:
            continue
        seen = {tuple(map(id, hir.ops))}
        frontier = [list(hir.ops)]
        best = _plan_cost(plan_and_emit(hir))[0]
        while frontier:
            ops = frontier.pop()
            for j in range(len(ops) - 1):
                if _swappable(_facts(ops[j]), _facts(ops[j + 1])):
                    cand = list(ops)
                    cand[j], cand[j + 1] = cand[j + 1], cand[j]
                    key = tuple(map(id, cand))
                    if key not in seen:
                        seen.add(key)
                        best = min(best, _plan_cost(plan_and_emit(replace(hir, ops=cand)))[0])
                        frontier.append(cand)
        scheduled_k = _plan_cost(plan_and_emit(schedule_pass(hir)))[0]
        assert scheduled_k >= best  # sanity on the oracle itself
        assert scheduled_k <= _plan_cost(plan_and_emit(hir))[0]
        checked += 1
    assert checked >= 4


def test_record_indices_strictly_increasing_after_lowering():
    rng = np.random.default_rng(71)
    for _ in range(10):
        circ = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(4, 20)),
                              reset_rate=0.1)
        hir = lower(circ.serialize())
        recs = [op.record for op in hir.ops if isinstance(op, Meas)]
        assert recs == sorted(recs)
        assert len(set(recs)) == len(recs)


def test_hir_dump_format():
    hir = schedule_pass(peephole_pass(lower(MIRROR)))
    lines = hir.dump().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("T") and "+X0" in lines[0]
    assert lines[1] == "NOISE site=0"
    assert "MEAS" in lines[3] and "rec[1]" in lines[3]
    assert lines[4].startswith("T_DAG")


# The object-based swap predicate the scheduler used before it kept per-op
# facts, copied here as the reference for the facts-based one.

def _reference_paulis(op):
    if isinstance(op, Rot):
        return [op.generator]
    if isinstance(op, Meas):
        return [op.observable]
    if isinstance(op, NoiseEvent):
        return [p for _, p in op.cases]
    if isinstance(op, CondPauli):
        return [op.pauli]
    return []


def _reference_reads(op):
    if isinstance(op, CondPauli):
        return (op.record,)
    if isinstance(op, (DetectorDef, ObservableDef)):
        return op.records
    if isinstance(op, PostSelectOp) and op.kind == "record":
        return (op.ref,)
    return ()


def _reference_swappable(a, b) -> bool:
    if isinstance(a, PostSelectOp) or isinstance(b, PostSelectOp):
        return False
    if isinstance(a, NoiseEvent) and isinstance(b, NoiseEvent):
        return False
    writes = (a.record,) if isinstance(a, Meas) else ()
    for r in _reference_reads(b):
        if r in writes:
            return False
    return all(pa.commutes_with(pb) for pa in _reference_paulis(a)
               for pb in _reference_paulis(b))


def _swap_corpus():
    from framesim.testing import repetition_code_circuit

    rng = np.random.default_rng(83)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        yield random_circuit(rng, n, int(rng.integers(5, 40)), p_noise=0.05, reset_rate=0.1,
                             feedforward_rate=0.1).serialize()
    yield repetition_code_circuit(3, 2, 0.1).serialize()
    yield ("H 0\nT 0\nCX 0 1\nM 0\nX_ERROR(0.1) 1\nM 1\nDETECTOR rec[-1] rec[-2]\n"
           "POSTSELECT rec[-2]\nT 1\nOBSERVABLE_INCLUDE(0) rec[-1]\nM 1\n")


def test_facts_swappable_matches_object_predicate():
    pairs = same_support_commuting = 0
    for text in _swap_corpus():
        ops = peephole_pass(lower(text)).ops
        facts = [_facts(op) for op in ops]
        for a, fa in zip(ops, facts):
            for b, fb in zip(ops, facts):
                want = _reference_swappable(a, b)
                assert _swappable(fa, fb) == want, (a, b)
                pairs += 1
                same_support_commuting += bool(want and fa[4] & fb[4])
    assert pairs > 20_000 and same_support_commuting > 1000
