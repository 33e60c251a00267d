"""The scheduler's jumps against the adjacent-swap bubble they replaced.

``bubble_schedule`` below is the bubble-sort ``schedule_candidate`` of the
compiler before the jump, copied verbatim apart from its name. It moves
each op one adjacent swap at a time, testing every op it crosses, so it is
quadratic in a run of commuting ops; the jump must give the same op order.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesim.circuit import flatten, parse_circuit
from framesim.hir import (
    _MEAS,
    _NOISE,
    _ROT,
    HirProgram,
    _Sequence,
    _facts,
    _swappable,
    lower_to_hir,
    peephole_pass,
    schedule_candidate,
)
from framesim.testing import random_circuit


def bubble_schedule(hir: HirProgram) -> HirProgram:
    """Pull measurements earlier and push rotations later via commuting swaps.

    A bubble stops before crossing a rotation/measurement that shares qubit
    support with the moved op (crossing such a commuting neighbour forfeits
    the contraction the move was after). Only reorders ops; each op's facts
    are computed once and travel with it.
    """
    ops = list(hir.ops)
    facts = [_facts(op) for op in ops]
    for i in range(len(ops)):
        moved = facts[i]
        if moved[0] == _MEAS:
            sup = moved[4]
            j = i
            while j > 0:
                prev = facts[j - 1]
                if prev[0] == _NOISE:
                    break  # entering a noise run splits its sampling block
                if prev[0] == _ROT and sup & prev[4]:
                    break
                if not _swappable(prev, moved):
                    break
                ops[j - 1], ops[j] = ops[j], ops[j - 1]
                facts[j - 1], facts[j] = moved, prev
                j -= 1
    for i in range(len(ops) - 1, -1, -1):
        moved = facts[i]
        if moved[0] == _ROT:
            sup = moved[4]
            j = i
            while j + 1 < len(ops):
                nxt = facts[j + 1]
                if (nxt[0] == _ROT or nxt[0] == _MEAS) and sup & nxt[4]:
                    break
                if not _swappable(moved, nxt):
                    break
                ops[j], ops[j + 1] = ops[j + 1], ops[j]
                facts[j], facts[j + 1] = nxt, moved
                j += 1
    return replace(hir, ops=ops)


def _hir(text: str) -> HirProgram:
    return lower_to_hir(flatten(parse_circuit(text)))


def _assert_same_order(hir: HirProgram) -> None:
    for prog in (hir, peephole_pass(hir)):
        got = schedule_candidate(prog).ops
        want = bubble_schedule(prog).ops
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def _with_postselection(text: str, rng: np.random.Generator, rate: float) -> str:
    """Follow some measurements with a postselection on their record."""
    lines = []
    for line in text.splitlines():
        lines.append(line)
        if line.split()[0] in ("M", "MX", "MY") and rng.random() < rate:
            lines.append(f"POSTSELECT({int(rng.integers(0, 2))}) rec[-1]")
    return "\n".join(lines) + "\n"


def _commuting_heavy(rng: np.random.Generator, n: int, pairs: int, mixed: float) -> str:
    """``CX`` then ``M`` pairs; with probability ``mixed`` per pair one more
    op that breaks the commuting run: ``T``, ``MX``, ``H``, noise or a reset."""
    lines = []
    for _ in range(pairs):
        a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
        lines.append(f"CX {a} {b}")
        lines.append(f"M {int(rng.integers(0, n))}")
        if rng.random() < mixed:
            q = int(rng.integers(0, n))
            lines.append(str(rng.choice(["T", "T_DAG", "MX", "H", "X_ERROR(0.01)", "R"])) + f" {q}")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), depth=st.integers(1, 80),
       noise=st.sampled_from([0.0, 0.01]), psel=st.sampled_from([0.0, 0.3]))
def test_jump_matches_bubble_on_random_circuits(seed, n, depth, noise, psel):
    """Rotations, noise, resets, feedforward, postselection."""
    rng = np.random.default_rng(seed)
    text = random_circuit(rng, n, depth, p_noise=noise, reset_rate=0.08,
                          feedforward_rate=0.08).serialize()
    _assert_same_order(_hir(_with_postselection(text, rng, psel)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), pairs=st.integers(1, 120),
       mixed=st.sampled_from([0.0, 0.1, 0.4]), psel=st.sampled_from([0.0, 0.1]))
def test_jump_matches_bubble_on_commuting_heavy_circuits(seed, n, pairs, mixed, psel):
    """Long runs of commuting measurements, broken now and then."""
    rng = np.random.default_rng(seed)
    text = _commuting_heavy(rng, n, pairs, mixed)
    _assert_same_order(_hir(_with_postselection(text, rng, psel)))


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (1, 8, 0, 0), (1, 0, 8, 0), (0, 1, 1, 1)])
def test_sequence_labels_increase_along_the_list(weights):
    """Appends and inserts, many at the head or right after the previous
    insert, so gaps run out again and again: the labels stay strictly
    increasing along the list, which stays the list ``list.insert`` builds."""
    rng = np.random.default_rng(sum(weights))
    steps = 3000
    seq = _Sequence(steps)
    want = []
    prev = seq.head
    p = np.array(weights) / sum(weights)
    for v in range(steps):
        where = rng.choice(["append", "head", "last", "any"], p=p)
        if where == "append" or not want:
            seq.append(v)
            want.append(v)
        else:
            a = {"head": seq.head, "last": prev,
                 "any": want[int(rng.integers(0, len(want)))]}[where]
            seq.insert_after(a, v)
            want.insert(0 if a == seq.head else want.index(a) + 1, v)
        prev = v
    assert seq.order() == want
    labels = [seq.label[v] for v in [seq.head] + want]
    assert all(a < b for a, b in zip(labels, labels[1:]))


def test_jump_matches_bubble_when_measurements_crowd_one_spot():
    """Z measurements crowd the front of a long commuting run, so its order
    labels are spread out many times over, and the X measurements among
    them stop at whichever crowded one they anticommute with last."""
    rng = np.random.default_rng(11)
    lines = []
    for _ in range(500):
        a, b = (int(v) for v in rng.choice(8, size=2, replace=False))
        lines.append(f"CX {a} {b}")
        lines.append(f"{'MX' if rng.random() < 0.15 else 'M'} {int(rng.integers(0, 8))}")
    _assert_same_order(_hir("\n".join(lines) + "\n"))


def test_schedule_is_linear_in_a_commuting_run():
    """2,000 ``CX`` + 2,000 ``M`` over 50 qubits: every measurement commutes
    with every earlier one, so the bubble made about 2 million swap tests
    (1.5 to 2 s of process time); the jump's work grows with the ops'
    weights, not with the distances they move."""
    hir = _hir(_commuting_heavy(np.random.default_rng(0), 50, 2000, 0.0))
    t0 = time.process_time()
    schedule_candidate(hir)
    assert time.process_time() - t0 < 0.5
