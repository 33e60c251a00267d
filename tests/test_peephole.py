"""The peephole pass against the fixpoint it replaced, and its work bound.

``_reference_peephole`` is the eager pass the deferred one replaced, copied
here as the reference: every absorbed Clifford part rewrites every later op
it anticommutes with, and full sweeps repeat until one changes nothing.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from framesim import hir as hir_module
from framesim.circuit import flatten, parse_circuit
from framesim.hir import (
    CondPauli,
    Meas,
    NoiseEvent,
    Rot,
    _canonical_rot,
    _facts,
    _Peephole,
    _split_clifford_part,
    _swappable,
    _TOL,
    lower_to_hir,
    peephole_pass,
)
from framesim.pauli import CliffordTableau, PauliString
from framesim.testing import random_circuit


def _conjugate_by_quarter(p: PauliString, w: PauliString, m: int) -> PauliString:
    """C^dag P C for C = exp(-i m pi/4 W); W a +1 Hermitian word."""
    if p.commutes_with(w):
        return p
    m = m % 4
    if m == 0:
        return p
    if m == 2:
        out = p.copy()
        out.phase_exp = (out.phase_exp + 2) & 3
        return out
    out = w.mul(p)
    out.phase_exp = (out.phase_exp + (1 if m == 1 else 3)) & 3
    return out


def _reference_absorb(ops, facts, start, word, m, frame):
    m = m % 8
    if m == 0:
        return
    frame.absorb_rotation_right(word, m)
    wx, wz = word.x, word.z
    for idx in range(start, len(ops)):
        _, _, _, paulis, support = facts[idx]
        if not support & (wx | wz) or not any(((x & wz) ^ (z & wx)).bit_count() & 1
                                              for x, z in paulis):
            continue
        op = ops[idx]
        if isinstance(op, Rot):
            g = _conjugate_by_quarter(op.generator, word, m)
            ops[idx] = _canonical_rot(g, op.angle, op.eighths)
        elif isinstance(op, Meas):
            g = _conjugate_by_quarter(op.observable, word, m)
            ops[idx] = Meas(g.hermitian_word(), op.record,
                            flip=op.flip ^ (g.hermitian_sign() < 0))
        elif isinstance(op, NoiseEvent):
            ops[idx] = NoiseEvent(op.site, [(mass, _conjugate_by_quarter(p, word, m))
                                            for mass, p in op.cases])
        elif isinstance(op, CondPauli):
            ops[idx] = CondPauli(_conjugate_by_quarter(op.pauli, word, m), op.record)
        facts[idx] = _facts(ops[idx])


def _reference_peephole(hir):
    """Returns (ops, final frame, number of sweeps)."""
    ops = list(hir.ops)
    facts = [_facts(op) for op in ops]
    frame = hir.final_frame.copy()
    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        i = 0
        while i < len(ops):
            op = ops[i]
            if not isinstance(op, Rot):
                i += 1
                continue
            j = i + 1
            while j < len(ops):
                other = ops[j]
                if (isinstance(other, Rot)
                        and other.generator.word_key() == op.generator.word_key()):
                    if op.eighths is not None and other.eighths is not None:
                        fused = Rot(op.generator, (op.eighths + other.eighths) * math.pi / 8,
                                    op.eighths + other.eighths)
                    else:
                        fused = Rot(op.generator, op.angle + other.angle, None)
                    ops[i] = fused
                    del ops[j]
                    del facts[j]
                    changed = True
                    op = fused
                    continue
                if not _swappable(facts[i], facts[j]) or not _swappable(facts[j], facts[i]):
                    break
                j += 1
            m, resid_angle, resid_eighths = _split_clifford_part(op.angle, op.eighths)
            if m != 0 or abs(resid_angle) < _TOL:
                del ops[i]
                del facts[i]
                if abs(resid_angle) >= _TOL:
                    ops.insert(i, Rot(op.generator, resid_angle, resid_eighths))
                    facts.insert(i, _facts(ops[i]))
                _reference_absorb(ops, facts, i + (abs(resid_angle) >= _TOL),
                                  op.generator, m, frame)
                changed = True
                continue
            i += 1
    return ops, frame, sweeps


def lower(text):
    return lower_to_hir(flatten(parse_circuit(text)))


def _record_sweeps(monkeypatch):
    """Wrap ``_Peephole.sweep``; returns the list of (re-examination?,
    changed the list?) per sweep."""
    seen = []
    sweep = _Peephole.sweep

    def spy(self, pending):
        before = list(map(id, self.ops))
        out = sweep(self, pending)
        seen.append((pending is not None, list(map(id, self.ops)) != before))
        return out

    monkeypatch.setattr(_Peephole, "sweep", spy)
    return seen


def _assert_matches_reference(hir):
    ops, frame, sweeps = _reference_peephole(hir)
    dump = hir.dump()
    out = peephole_pass(hir)
    assert hir.dump() == dump  # the input is not mutated
    assert out.ops == ops
    assert out.dump() == replace(hir, ops=ops).dump()
    assert out.final_frame.ix == frame.ix and out.final_frame.iz == frame.iz
    return sweeps


def test_exact_split_keeps_residual_within_one_eighth():
    # trunc peels quarter turns so that the residual is -1, 0 or 1 eighths
    for eighths in range(-40, 41):
        m, angle, resid = _split_clifford_part(eighths * math.pi / 8, eighths)
        assert resid in (-1, 0, 1) and 2 * m + resid == eighths
        assert angle == resid * math.pi / 8


def test_deferred_peephole_matches_eager_fixpoint(monkeypatch):
    seen = _record_sweeps(monkeypatch)
    rng = np.random.default_rng(20261018)
    later_sweeps = 0
    for k in range(1000):
        n = int(rng.integers(1, 7))
        text = random_circuit(rng, n, int(rng.integers(4, 60)), p_noise=0.01,
                              rot_rate=(0.1, 0.3, 0.6, 0.9)[k % 4], reset_rate=0.05,
                              feedforward_rate=0.05).serialize()
        later_sweeps += _assert_matches_reference(lower(text)) > 2
    reexams = [changed for again, changed in seen if again]
    # the corpus reaches a re-examination that changes the list (the
    # fixpoint needed a third sweep) and one that does not
    assert True in reexams and False in reexams
    assert later_sweeps > 0


def test_deleted_blocker_unblocks_an_earlier_rotation(monkeypatch):
    # T on Z0 stops its lookahead at the X0 rotation after it. The two X0
    # rotations fuse into a quarter turn, which is absorbed and deleted, and
    # that turns the later Y0 rotation into a Z0 one: only a second look
    # from the T fuses the two.
    seen = _record_sweeps(monkeypatch)
    text = f"T 0\nR_X(0.5) 0\nR_X({math.pi / 2 - 0.5!r}) 0\nR_Y({math.pi / 4!r}) 0\nM 0\n"
    hir = lower(text)
    assert [type(op).__name__ for op in hir.ops] == ["Rot", "Rot", "Rot", "Rot", "Meas"]
    assert _assert_matches_reference(hir) == 3
    assert seen == [(False, True), (True, True)]
    assert not any(isinstance(op, Rot) for op in peephole_pass(hir).ops)


def _dense_rotation_circuit(count: int) -> str:
    """``count`` rotations with a Clifford part on generators made dense by a
    layer of Cliffords before each, each followed by a noise site."""
    rng = np.random.default_rng(7)
    n = 10
    lines = []
    for _ in range(count):
        for _ in range(4):
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            lines.append(f"CX {a} {b}")
            lines.append(f"{rng.choice(['H', 'S'])} {a}")
        lines.append(f"R_Z({rng.uniform(1.7, 2.3):.6f}) {int(rng.integers(0, n))}")
        lines.append(f"DEPOLARIZE1(0.001) {int(rng.integers(0, n))}")
    lines.append("M " + " ".join(str(q) for q in range(n)))
    return "\n".join(lines) + "\n"


def test_peephole_rewrites_grow_linearly(monkeypatch):
    """Op rewrites (each recomputes the op's facts) and tableau maps per
    peephole pass, counted, not timed: the eager pass rewrote every later
    op an absorbed part anticommutes with, quadratic in the rotations."""
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(hir_module, "_facts", counted(hir_module._facts))
    monkeypatch.setattr(CliffordTableau, "_map", counted(CliffordTableau._map))
    work = {}
    for count in (200, 400):
        lowered = lower(_dense_rotation_circuit(count))
        assert sum(isinstance(op, Rot) for op in lowered.ops) == count
        calls[0] = 0
        peephole_pass(lowered)
        work[count] = calls[0]
    assert work[400] <= 2.5 * work[200], work
