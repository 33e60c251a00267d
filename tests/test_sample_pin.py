"""Golden sampling pin: the sampled records of fixed programs, as one digest.

Sampling speed work must not change what a seed samples. ``SAMPLE_SHA256``
is sha256 over, for each program of the corpus and each stratum (none, and
one fault when the program has noise sites): every record of ``sample``
(one worker, ``keep_rejected`` both ways), then the totals of
``sample_accumulate``. It was computed at commit c8b2d25, before a sampled
shot became its own random stream and ``gamma`` moved onto the walk's
path. A change that moves it changes sampled records and must say why.
"""
from __future__ import annotations

import hashlib

import numpy as np

from framesim import compile_circuit
from framesim.runtime import StratumSpec, sample, sample_accumulate
from framesim.testing import random_circuit, repetition_code_circuit

WORKED_MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nDEPOLARIZE1(0.001) 0 1\nCX 0 1\nT_DAG 0\nH 0\nM 0 1\n"

SAMPLE_SHA256 = "5bb6749478c4fa69067285eb03d0955a9d7262dd17a710140b48ade47cab526d"


def _programs():
    """(program, shots): the worked mirror over three of its chunks, a d=5
    repetition code with and without postselected detectors (frame table),
    the benchmark's rot_n14 circuit at 6 qubits, and seeded circuits with
    rotations, noise, resets and feedforward, every third postselecting a
    midway detector."""
    yield compile_circuit(WORKED_MIRROR), 2500
    rep = repetition_code_circuit(5, 5, 0.05).serialize()
    yield compile_circuit(rep), 300
    yield compile_circuit(rep, postselect_detectors=(0, 5, 11)), 300
    yield compile_circuit(random_circuit(np.random.default_rng(0), 6, 400, p_noise=1e-3,
                                         rot_rate=0.3, measure_rate=0.03)), 200
    rng = np.random.default_rng(2222)
    for i in range(10):
        n = int(rng.integers(2, 7))
        head, tail = (random_circuit(rng, n, int(rng.integers(5, 30)), p_noise=0.05,
                                     rot_rate=0.3, reset_rate=0.05, feedforward_rate=0.1,
                                     measure_all=part == 1) for part in (0, 1))
        text = head.serialize() + "M 0\nDETECTOR rec[-1]\n" + tail.serialize()
        yield compile_circuit(text, postselect_detectors=(0,) if i % 3 == 0 else ()), 150


def _digest() -> str:
    h = hashlib.sha256()
    for seed, (prog, shots) in enumerate(_programs()):
        strata = [None] + ([StratumSpec(prog, 1)] if prog.sites else [])
        for stratum in strata:
            for keep in (True, False):
                for r in sample(prog, shots, seed=seed, stratum=stratum, keep_rejected=keep):
                    h.update(r.measurements.tobytes() + r.detectors.tobytes()
                             + r.observables.tobytes())
                    h.update(repr((r.accepted, r.weight)).encode())
                h.update(b"\1")
            acc = sample_accumulate(prog, shots, seed=seed, stratum=stratum)
            for key in ("measurements", "detectors", "observables"):
                h.update(acc[key].astype(np.int64).tobytes())
            h.update(repr((acc["shots"], acc["accepted"], acc["weight_sum"])).encode())
            h.update(b"\0")
    return h.hexdigest()


def test_sampled_records_are_pinned():
    assert _digest() == SAMPLE_SHA256
