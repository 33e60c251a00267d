"""Golden compile pin: the emitted programs of fixed circuits, as digests.

Compiler speed work must not change what the compiler emits. The digests
below are sha256 over ``BytecodeProgram.fingerprint()`` (the bytecode dump
plus the active schedule), each fingerprint followed by a NUL byte. The
first two constants were computed at commit b715b7f, before the per-op
scheduling facts and the column-indexed ``forward_map`` went in.
``COMMUTING_SHA256`` was computed at commit 48f235b, before the scheduler's
jumps and the per-gate ``absorb_left`` rows replaced the adjacent-swap bubble
and the generic row conjugation. The fingerprint leaves out the noise site
tables, so ``SITES_SHA256`` pins those of the workloads and the corpus: it
was computed at commit c18a4f9, before lowering and planning mapped noise
cases without phases. ``FRONTEND_SHA256`` pins what the front end hands
the compiler, the ``(opcode, targets, args, line)`` of every instruction of
``flatten(parse_circuit(text))`` for the same texts: it was computed at
commit a985830, before the parser kept one parse per distinct statement and
flatten shared the instructions without records. The three program
digests moved after commit 0588ef9, when a dormant qubit's Z rotation stopped
emitting the no-op ``GAMMA_ROT``: each is the earlier digest of the same
fingerprints with every ``GAMMA_ROT`` line dropped, each ``FRAME_CLIFFORD``
line that became adjacent to the one before it joined to it, and the
active schedule kept for the lines that stay; every ``NOISE_BLOCK`` line
is unchanged. A change that moves any of them changes emitted programs and
must say why.
"""
from __future__ import annotations

import hashlib

import numpy as np

from framesim import compile_circuit, flatten, parse_circuit
from framesim.testing import random_circuit, repetition_code_circuit

WORKED_MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nDEPOLARIZE1(0.001) 0 1\nCX 0 1\nT_DAG 0\nH 0\nM 0 1\n"

WORKLOADS_SHA256 = "4015bda7baef62428db554faad8b9ef0285bd8b9398f7e3086188dcf8e5639b8"
CORPUS_200_SHA256 = "b5770015270ed8093ae329cb59f226d7e5d59bbd2c1b5fb1515782687f1af5be"
COMMUTING_SHA256 = "3cd7ad5ba24d0591fb72e41ab0790b4fbc15dfee2a346e5859b0d88b7e854435"
SITES_SHA256 = "2b1f115558ae320c0897c59b39a607ec6f460e539bda6641f06d1bf15aa92c41"
FRONTEND_SHA256 = "4333571072835b198043cf5a53b8de849769f4fc7c56fbec5c9dfaaddee83ef0"


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(compile_circuit(text).fingerprint().encode())
        h.update(b"\0")
    return h.hexdigest()


def _site_digest(texts) -> str:
    """sha256 over each program's site tables and cumulative hazards."""
    h = hashlib.sha256()
    for text in texts:
        prog = compile_circuit(text)
        h.update(repr([(s.prob, s.case_cum, s.case_x, s.case_z) for s in prog.sites]).encode())
        h.update(repr(prog.cum_hazard).encode())
        h.update(b"\0")
    return h.hexdigest()


def _frontend_digest(texts) -> str:
    """sha256 over each flattened instruction's opcode, targets, arguments and line."""
    h = hashlib.sha256()
    for text in texts:
        for ins in flatten(parse_circuit(text)).instructions:
            h.update(repr((ins.opcode, ins.targets, ins.args, ins.line)).encode())
        h.update(b"\0")
    return h.hexdigest()


def _workloads():
    """The three programs the benchmark compiles: mirror, rep_d25, rot_n14."""
    yield WORKED_MIRROR
    yield repetition_code_circuit(25, 25, 1e-3).serialize()
    yield random_circuit(np.random.default_rng(0), 14, 400, p_noise=1e-3, rot_rate=0.3,
                         measure_rate=0.03).serialize()


def _corpus(count: int):
    """Small seeded circuits with rotations, noise, resets and feedforward."""
    rng = np.random.default_rng(12345)
    for _ in range(count):
        n = int(rng.integers(1, 7))
        depth = int(rng.integers(4, 60))
        yield random_circuit(rng, n, depth, p_noise=0.01, reset_rate=0.05,
                             feedforward_rate=0.05).serialize()


def _commuting(seed: int, mixed: bool = False, n: int = 20, pairs: int = 300) -> str:
    """``pairs`` seeded ``CX`` + ``M`` pairs over ``n`` qubits: long runs of
    commuting measurements. ``mixed`` adds, after some pairs, a ``T``, an
    ``MX``, an ``X_ERROR`` or an ``H``."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(pairs):
        a, b = rng.choice(n, size=2, replace=False)
        lines.append(f"CX {a} {b}")
        lines.append(f"M {int(rng.integers(0, n))}")
        if mixed:
            roll = rng.random()
            q = int(rng.integers(0, n))
            if roll < 0.04:
                lines.append(f"T {q}")
            elif roll < 0.08:
                lines.append(f"MX {q}")
            elif roll < 0.10:
                lines.append(f"X_ERROR(0.01) {q}")
            elif roll < 0.13:
                lines.append(f"H {q}")
    return "\n".join(lines) + "\n"


def test_workload_programs_are_pinned():
    assert _digest(_workloads()) == WORKLOADS_SHA256


def test_corpus_programs_are_pinned():
    assert _digest(_corpus(200)) == CORPUS_200_SHA256


def test_commuting_heavy_programs_are_pinned():
    assert _digest([_commuting(1), _commuting(2), _commuting(3),
                    _commuting(4, mixed=True)]) == COMMUTING_SHA256


def test_noise_site_tables_are_pinned():
    assert _site_digest([*_workloads(), *_corpus(200)]) == SITES_SHA256


def test_front_end_output_is_pinned():
    assert _frontend_digest([*_workloads(), *_corpus(200)]) == FRONTEND_SHA256
