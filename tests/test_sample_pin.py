"""Golden sampling pins: the sampled records of fixed programs, as digests.

Sampling speed work must not change what a seed samples. Each pin is sha256
over, for each program of its corpus and each of its strata: every record
of ``sample`` (one worker, ``keep_rejected`` both ways), then the totals of
``sample_accumulate``. ``SAMPLE_SHA256`` takes the strata none and, when
the program has noise sites, one fault; it was computed at commit c8b2d25,
before a sampled shot became its own random stream and ``gamma`` moved onto
the walk's path. ``SPLIT_SHA256`` covers programs whose shots part most
often (coins on the closure VM, a collapse of probability 1/2 at each of
20 steps, and noise with a postselected detector under a two-fault
stratum); it was computed at commit 0e876c4, before shots that agree came
to share their frame. A change that moves a pin changes sampled records and
must say why.
"""
from __future__ import annotations

import hashlib

import numpy as np

import framesim.runtime as runtime
from framesim import compile_circuit
from framesim.runtime import StratumSpec, sample, sample_accumulate
from framesim.testing import random_circuit, repetition_code_circuit

WORKED_MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nDEPOLARIZE1(0.001) 0 1\nCX 0 1\nT_DAG 0\nH 0\nM 0 1\n"

SAMPLE_SHA256 = "5bb6749478c4fa69067285eb03d0955a9d7262dd17a710140b48ade47cab526d"
SPLIT_SHA256 = "e2ef12041584438691e76333a02b5d78c560964465bedcfcc3713e564b9db853"
WALK_SHA256 = "90fd64eefffb38de2aaffc49f94b24873654f02343eccba2ef29b484c63b49f7"

COINS = "H 0\nT 0\n" + "".join(f"H {q}\nM {q}\n" for q in range(1, 21))
FORKING = ("".join(f"H {q}\nT {q}\n" for q in range(1, 5))
           + "".join(f"H 0\nT 0\nCX {1 + j % 4} 0\nM 0\n" for j in range(20)) + "M 1 2 3 4\n")
NOISY = ("H 0\nT 0\nH 1\nCX 1 2\nDEPOLARIZE1(0.05) 1 2\nDEPOLARIZE1(1) 3\nX_ERROR(0.1) 2\n"
         "CX 1 2\nH 1\nM 1\nDETECTOR rec[-1]\nX_ERROR(1) 1\nX_ERROR(0.1) 2\nCX 0 2\nM 2\n"
         "DETECTOR rec[-1]\nH 3\nM 3\nDEPOLARIZE2(0.1) 0 3\nT 0\nH 0\nM 0 3\n")


def _programs():
    """(program, shots, strata): the worked mirror over three of its chunks, a d=5
    repetition code with and without postselected detectors (frame table),
    the benchmark's rot_n14 circuit at 6 qubits, and seeded circuits with
    rotations, noise, resets and feedforward, every third postselecting a
    midway detector; strata none and, with noise sites, one fault."""
    progs = [(compile_circuit(WORKED_MIRROR), 2500)]
    rep = repetition_code_circuit(5, 5, 0.05).serialize()
    progs.append((compile_circuit(rep), 300))
    progs.append((compile_circuit(rep, postselect_detectors=(0, 5, 11)), 300))
    progs.append((compile_circuit(random_circuit(np.random.default_rng(0), 6, 400, p_noise=1e-3,
                                                 rot_rate=0.3, measure_rate=0.03)), 200))
    rng = np.random.default_rng(2222)
    for i in range(10):
        n = int(rng.integers(2, 7))
        head, tail = (random_circuit(rng, n, int(rng.integers(5, 30)), p_noise=0.05,
                                     rot_rate=0.3, reset_rate=0.05, feedforward_rate=0.1,
                                     measure_all=part == 1) for part in (0, 1))
        text = head.serialize() + "M 0\nDETECTOR rec[-1]\n" + tail.serialize()
        progs.append((compile_circuit(text, postselect_detectors=(0,) if i % 3 == 0 else ()),
                      150))
    for prog, shots in progs:
        yield prog, shots, [None] + ([StratumSpec(prog, 1)] if prog.sites else [])


def _split_programs():
    """(program, shots, strata): 20 coins beside a rotated qubit on the
    closure VM, over two chunks; 20 collapses of probability 1/2 beside a
    4-qubit array; and a noisy k_max = 1 program that postselects its first
    detector, whose noise blocks hold certain sites of one and of three
    cases between hazard segments, with no stratum and two faults."""
    coins = compile_circuit(COINS)
    assert coins.k_max == 1 and runtime._fold_shots(coins) < 1500
    yield coins, 1500, [None]
    yield compile_circuit(FORKING), 400, [None]
    noisy = compile_circuit(NOISY, postselect_detectors=(0,))
    assert noisy.k_max == 1 and any(s.prob >= 1 and len(s.case_x) > 1 for s in noisy.sites)
    yield noisy, 1200, [None, StratumSpec(noisy, 2)]


def _records(h, records) -> None:
    for r in records:
        h.update(r.measurements.tobytes() + r.detectors.tobytes() + r.observables.tobytes())
        h.update(repr((r.accepted, r.weight)).encode())
    h.update(b"\1")


def _totals(h, acc: dict) -> None:
    for key in ("measurements", "detectors", "observables"):
        h.update(acc[key].astype(np.int64).tobytes())
    h.update(repr((acc["shots"], acc["accepted"], acc["weight_sum"])).encode())
    h.update(b"\0")


def _digest(programs) -> str:
    h = hashlib.sha256()
    for seed, (prog, shots, strata) in enumerate(programs):
        for stratum in strata:
            for keep in (True, False):
                _records(h, sample(prog, shots, seed=seed, stratum=stratum, keep_rejected=keep))
            _totals(h, sample_accumulate(prog, shots, seed=seed, stratum=stratum))
    return h.hexdigest()


def _walk_digest() -> str:
    prog = compile_circuit(random_circuit(np.random.default_rng(0), 14, 400, p_noise=1e-3,
                                          rot_rate=0.3, measure_rate=0.03))
    assert prog.k_max == 14
    h = hashlib.sha256()
    for seed in (0, 1):
        _totals(h, sample_accumulate(prog, 200, seed=seed))
    _records(h, sample(prog, 40, seed=2))
    return h.hexdigest()


def test_sampled_records_are_pinned():
    assert _digest(_programs()) == SAMPLE_SHA256


def test_records_of_parting_shots_are_pinned():
    assert _digest(_split_programs()) == SPLIT_SHA256


def test_records_of_the_walk_at_capacity_are_pinned():
    assert _walk_digest() == WALK_SHA256
