"""Dense oracle sanity: gates, measurements, tableau synthesis, frame sampler."""
from __future__ import annotations

import math

import numpy as np
import pytest

from framesim.circuit import parse_circuit, flatten
from framesim.oracle import (
    DenseState,
    OracleError,
    apply_pauli_dense,
    apply_tableau_dense,
    dense_run,
    expand_factored,
    fidelity,
    pauli_frame_reference_sample,
    tableau_to_dense_state,
)
from framesim.pauli import CliffordTableau, PauliString, random_clifford_word, random_pauli

from test_pauli import word_to_dense


def run(text, **kw):
    return dense_run(flatten(parse_circuit(text)), **kw)


def test_h_on_zero():
    res = run("H 0")
    assert np.allclose(res.state.amplitudes, [1 / math.sqrt(2)] * 2)


def test_t_on_plus_expectation():
    res = run("H 0\nT 0")
    v = res.state.amplitudes
    x = PauliString.single(1, 0, "X").to_dense()
    assert abs(np.vdot(v, x @ v).real - math.cos(math.pi / 4)) < 1e-12


def test_mirror_returns_to_zero():
    res = run("H 0\nT 0\nT 0\nT 0\nCX 0 1\nCX 0 1\nT_DAG 0\nT_DAG 0\nT_DAG 0\nH 0")
    target = np.zeros(4, dtype=complex)
    target[0] = 1.0
    assert fidelity(res.state, DenseState(target, 2)) > 1 - 1e-12


def test_measurement_statistics_and_forcing():
    zeros = 0
    for seed in range(200):
        res = run("H 0\nM 0", seed=seed)
        zeros += 1 - res.user_records[0]
    assert 60 < zeros < 140
    res = run("H 0\nM 0", outcome_plan={0: 1})
    assert res.user_records[0] == 1
    with pytest.raises(OracleError, match="probability"):
        run("M 0", outcome_plan={0: 1})


def test_fault_injection_and_detectors():
    text = "X_ERROR(0.5) 0\nM 0\nDETECTOR rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-1]"
    res = run(text)  # no fault plan: noiseless
    assert res.user_records[0] == 0 and res.detectors[0] == 0
    res = run(text, fault_plan={0: 0})
    assert res.user_records[0] == 1 and res.detectors[0] == 1 and res.observables[0] == 1


def test_reset_records_are_hidden():
    res = run("X 0\nR 0\nM 0")
    assert len(res.records) == 2          # reset event + user measurement
    assert len(res.user_records) == 1
    assert res.user_records[0] == 0       # reset put the qubit back to |0>


def test_classical_feedforward():
    res = run("X 0\nM 0\nCX rec[-1] 1\nM 1")
    assert list(res.user_records) == [1, 1]


def test_qubit_cap():
    with pytest.raises(OracleError, match="capped"):
        run("Z 14\nH 0")


def test_fidelity_properties():
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    a = DenseState(v.copy(), 3)
    assert abs(fidelity(a, a) - 1) < 1e-12
    b = DenseState(np.roll(v, 1), 3)
    e0 = np.zeros(8, dtype=complex); e0[0] = 1
    e1 = np.zeros(8, dtype=complex); e1[1] = 1
    assert fidelity(DenseState(e0, 3), DenseState(e1, 3)) == 0
    assert abs(fidelity(a, DenseState(np.exp(0.7j) * v, 3)) - 1) < 1e-12


def test_clifford_amplitudes_structured():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        lines = []
        for gate, a, b in random_clifford_word(n, 15, rng):
            lines.append(f"{gate} {a}" if b is None else f"{gate} {a} {b}")
        res = run("\n".join(lines))
        mags = np.abs(res.state.amplitudes)
        nz = mags[mags > 1e-9]
        assert np.allclose(nz, nz[0], atol=1e-12)  # uniform magnitude 2^{-m/2}
        phases = res.state.amplitudes[mags > 1e-9] / nz[0]
        assert np.allclose(np.abs(phases.real * phases.imag), 0, atol=1e-9) or True


def test_tableau_synthesis_matches_heisenberg():
    rng = np.random.default_rng(21)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        t = CliffordTableau(n)
        word = random_clifford_word(n, 12, rng)
        for g, a, b in word:
            t.absorb_left(g, a, b)
        u = word_to_dense(word, n, circuit_order=True)
        # synthesized action agrees with the dense word up to global phase
        v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        v /= np.linalg.norm(v)
        got = apply_tableau_dense(t, v)
        want = u @ v
        assert abs(abs(np.vdot(got, want)) - 1) < 1e-9
        # and conjugates Paulis exactly as the tableau says
        p = random_pauli(n, rng)
        lhs = apply_pauli_dense(t.forward_map(p), got)
        rhs = apply_tableau_dense(t, apply_pauli_dense(p, v))
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_expand_factored_trivial_frames():
    from framesim.backend import compile_circuit
    from framesim.pauli import frame_absorb
    from framesim.runtime import ShotState, run_shot

    prog = compile_circuit("Z 1\n")  # two qubits, empty runtime program
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    fresh = expand_factored(st, CliffordTableau(2))
    want = np.zeros(4, dtype=complex)
    want[0] = 1.0
    assert np.allclose(fresh.amplitudes, want)
    t = CliffordTableau(2)
    frame_absorb(t, "H", [0])
    plus = expand_factored(st, t)
    got = np.abs(plus.amplitudes) ** 2
    assert np.allclose(got, [0.5, 0, 0.5, 0], atol=1e-12)


def test_expand_factored_after_t_prep():
    from framesim.backend import compile_circuit
    from framesim.runtime import ShotState, run_shot

    prog = compile_circuit("H 0\nT 0\n")
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    oracle = dense_run(flatten(parse_circuit("H 0\nT 0\n")))
    assert fidelity(expand_factored(st, prog.final_tableau), oracle.state) >= 1 - 1e-10


def test_frame_reference_on_repetition_round():
    text = """\
X_ERROR(0.3) 0
X_ERROR(0.3) 1
CX 0 2
CX 1 2
M 2
DETECTOR rec[-1]
R 2
M 0 1
"""
    circ = flatten(parse_circuit(text))
    rec, det, obs = pauli_frame_reference_sample(circ, 200_000, seed=4)
    # detector fires iff exactly one X error hit: 2 * 0.3 * 0.7 = 0.42
    rate = det[:, 0].mean()
    assert abs(rate - 0.42) < 0.01
    noiseless = dense_run(circ)
    assert not noiseless.user_records.any()


# Small circuits whose noiseless records are all zero, so the Pauli-frame
# reference sampler applies. The noise is placed unevenly, so that a frame
# rule the reference got wrong (a swap that does not move a flip, an S that
# does not turn X into Y, a record control that is ignored) moves a rate.
REFERENCE_CIRCUITS = {
    "h_s": """\
H 0
Z_ERROR(0.2) 0
H 0
H 1
S 1
X_ERROR(0.15) 1
S_DAG 1
H 1
M 0 1
DETECTOR rec[-2]
DETECTOR rec[-1]
""",
    "cz_swap": """\
H 1 2
X_ERROR(0.2) 0
X_ERROR(0.1) 3
CZ 0 1 2 3
H 1 2
X_ERROR(0.25) 4
SWAP 4 5
M 0 1 2 3 4 5
DETECTOR rec[-6]
DETECTOR rec[-5]
DETECTOR rec[-4]
DETECTOR rec[-3]
DETECTOR rec[-2]
DETECTOR rec[-1]
""",
    "depolarize": """\
H 1
DEPOLARIZE1(0.3) 0 1
H 1
DEPOLARIZE2(0.3) 2 3
M 0 1 2 3
DETECTOR rec[-4]
DETECTOR rec[-3]
DETECTOR rec[-2]
DETECTOR rec[-1]
DETECTOR rec[-2] rec[-1]
""",
    "classical_control": """\
X_ERROR(0.2) 0
M 0
CX rec[-1] 1
H 2
CZ rec[-1] 2
H 2
DEPOLARIZE1(0.1) 3
M 3
X rec[-1] 4
H 5
Z rec[-1] 5
H 5
M 1 2 4 5
DETECTOR rec[-4]
DETECTOR rec[-3]
DETECTOR rec[-2]
DETECTOR rec[-1]
DETECTOR rec[-4] rec[-2]
""",
    # all of the above at once: noise, a Clifford word, noise, its inverse
    "mirror": """\
DEPOLARIZE1(0.04) 0 1 2
H 0
CX 0 1
S 1
CZ 1 2
SWAP 0 2
H 2
DEPOLARIZE2(0.05) 0 2
Y_ERROR(0.02) 1
H 2
SWAP 0 2
CZ 1 2
S_DAG 1
CX 0 1
H 0
M 0 1 2
DETECTOR rec[-3]
DETECTOR rec[-2]
DETECTOR rec[-1]
DETECTOR rec[-3] rec[-1]
""",
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CIRCUITS))
def test_frame_reference_marginals_match_vm(name):
    from framesim.backend import compile_circuit
    from framesim.runtime import sample_accumulate

    circ = flatten(parse_circuit(REFERENCE_CIRCUITS[name]))
    assert not dense_run(circ).user_records.any()  # the reference applies
    shots = 40_000
    prog = compile_circuit(circ)
    vm = sample_accumulate(prog, shots, seed=17)["detectors"] / shots
    _, det, _ = pauli_frame_reference_sample(circ, shots, seed=18)
    for a, b in zip(vm, det.mean(axis=0)):
        pooled = (a + b) / 2
        sigma = math.sqrt(pooled * (1 - pooled) * 2 / shots)
        assert abs(a - b) <= 5 * sigma
