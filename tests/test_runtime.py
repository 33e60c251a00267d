"""VM execution: measurement statistics, noise sampling, strata, probes."""
from __future__ import annotations

import cmath
import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framesim.rng
from framesim import runtime
from framesim.backend import ArrayGate, ArrayRot, Expand, MeasCollapse, compile_circuit
from framesim.oracle import expand_factored, fidelity, dense_run
from framesim.circuit import flatten, parse_circuit
from framesim.pauli import PauliString
from framesim.testing import crosscheck, random_circuit, random_fault_plan
from framesim.rng import ShotRng, ShotStreams, mix64
from framesim.runtime import (
    _row_form,
    BRANCH_FLOOR,
    ShotError,
    ShotState,
    StratumSpec,
    expectation_probe,
    hazard_sample,
    poisson_binomial,
    run_shot,
    sample,
    sample_accumulate,
)

EXACT_MIRROR = "H 0\nT 0\nT 0\nT 0\nCX 0 1\nCX 0 1\nS_DAG 0\nT_DAG 0\nH 0\nM 0 1\n"

# chi-squared 99.9th percentiles by degrees of freedom (p > 0.001 passes)
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
            7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588}


def test_exact_mirror_deterministic():
    prog = compile_circuit(EXACT_MIRROR)
    st = ShotState(prog)
    for shot in range(3000):
        rec = run_shot(prog, st, shot=shot)
        assert not rec.measurements.any()


def test_fair_coin_within_3_sigma():
    prog = compile_circuit("H 0\nM 0\n")
    n = 100_000
    acc = sample_accumulate(prog, n, seed=2)
    k = int(acc["measurements"][0])
    sigma = math.sqrt(n * 0.25)
    assert abs(k - n / 2) < 3 * sigma


def test_h_t_h_branch_probability():
    prog = compile_circuit("H 0\nT 0\nH 0\nM 0\n")
    n = 200_000
    acc = sample_accumulate(prog, n, seed=3)
    p = acc["measurements"][0] / n
    expected = math.sin(math.pi / 8) ** 2
    assert abs(p - expected) < 4 * math.sqrt(expected * (1 - expected) / n)


def test_same_seed_identical_streams():
    prog = compile_circuit("H 0\nT 0\nH 0\nM 0\nDEPOLARIZE1(0.3) 0\nM 0\n")
    a = [rec.measurements.tolist() for rec in sample(prog, 500, seed=9)]
    b = [rec.measurements.tolist() for rec in sample(prog, 500, seed=9)]
    assert a == b
    c = [rec.measurements.tolist() for rec in sample(prog, 500, seed=10)]
    assert a != c


def test_rng_tabulated_draws_match_scalar_mixer():
    # draw c of a shot is mix64(key + c * golden), key = mix64(mix64(seed) ^ shot);
    # a reset stream mixes each draw, and a chunk's streams give the same
    # uniforms, one draw of each listed shot at a time or a grid of them
    golden, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    seed = 2024
    rng = ShotRng(seed, 0)
    lo, hi = 1000, 1300
    shots = list(range(300)) + [5, 6, 7, 2**64 - 1, 1000] + list(range(1001, 1300))
    for i, shot in enumerate(shots):
        rng.reset(shot)
        key = mix64(mix64(seed) ^ shot)
        draws = i % 7 if shot < 1100 else 90
        for c in range(draws):
            want = mix64((key + c * golden) & mask)
            kind = (shot + c) % 3
            if kind == 0:
                assert rng.next_u64() == want
            elif kind == 1:
                assert (rng.uniform() >= 0.5) == want >> 63
            else:
                assert rng.uniform() == (want >> 11) * 2.0 ** -53
        assert rng.draws == draws
    streams = ShotStreams(seed, lo, hi)
    rows = np.arange(0, hi - lo, 3)
    keys = [mix64(mix64(seed) ^ (lo + r)) for r in rows.tolist()]
    grid = streams.uniforms(rows, np.full(len(rows), 2), 64)
    assert not streams.counts.any()
    for c in range(66):
        want = [(mix64((key + c * golden) & mask) >> 11) * 2.0 ** -53 for key in keys]
        if c >= 2:
            assert grid[:, c - 2].tolist() == want
        assert streams.uniform(rows).tolist() == want
    assert streams.counts.tolist() == [66 * (r % 3 == 0) for r in range(hi - lo)]


def test_rng_uniform_below_one_at_max_draw(monkeypatch):
    # the largest draw must map below 1.0, so an exponential stays finite
    class MaxDraw(ShotRng):
        def next_u64(self):
            return 2**64 - 1

    per_draw = MaxDraw(0, 0)
    assert per_draw.uniform() < 1.0
    assert math.isfinite(per_draw.exponential())

    # every draw of a chunk's streams is the largest one
    monkeypatch.setattr(framesim.rng, "_mix64_inplace", lambda x, tmp: x.fill(2**64 - 1))
    u = ShotStreams(0, 0, 4).uniform(np.arange(4))
    assert (u < 1.0).all()
    assert np.isfinite(-np.log1p(-u)).all()


def test_active_array_grows_and_shrinks_against_oracle():
    # the active array grows to 2^k_max, then measurements shrink it and the
    # shot ends with a smaller one of more than one entry; every prefix must
    # expand to the dense oracle's state
    lines = [f"R_Y(0.{q + 3}) {q}" for q in range(6)]
    lines += [f"CX {q} {q + 1}" for q in range(5)]
    lines += ["MX 0", "M 5", "H 2"]
    circ = parse_circuit("\n".join(lines) + "\n")
    prog = compile_circuit(circ)
    assert 1 < 1 << prog.active_schedule[-1] < 1 << prog.k_max
    for seed in range(4):
        res = crosscheck(circ, seed=seed, checkpoints=True)
        assert res["records_match"]
        assert res["min_checkpoint_fidelity"] >= 1 - 1e-10


def test_norm2_sums_long_arrays_in_chunks():
    rng = np.random.default_rng(14)
    for size in (runtime._DOT + 8, 2 * runtime._DOT):
        x = rng.normal(size=size) + 1j * rng.normal(size=size)
        expect = np.vdot(x, x).real
        runs = runtime._runs(x[None].view(np.float64))
        assert runs.ndim == 3 and runs.shape[-1] <= runtime._DOT
        assert abs(runtime._norm2(runs, True)[0] - expect) <= 1e-12 * expect


def test_parity_readout_of_14_qubits_against_oracle():
    # criterion 10's construction at n = 14: its collapses take the squared
    # norm of a 2^14-entry array in chunks
    lines = [f"R_Y(0.7) {q}" for q in range(14)]
    lines += [f"CX {q} {q + 1}" for q in range(13)]
    lines.append("M 13")
    lines += [f"CX {q} {q + 1}" for q in range(12, -1, -1)]
    lines.append("MX " + " ".join(str(q) for q in range(14)))
    circ = parse_circuit("\n".join(lines) + "\n")
    assert compile_circuit(circ).k_max == 14
    res = crosscheck(circ, seed=3)
    assert res["records_match"] and res["fidelity"] > 1 - 1e-10


# a reset's record is not a user record, so these cut their output rows
@pytest.mark.parametrize("text", [
    EXACT_MIRROR,
    "H 0\nT 0\nM 0\nR 0\nH 0\nX_ERROR(0.2) 1\nM 1 0\nDETECTOR rec[-1]\n",
    "X_ERROR(0.3) 0\nM 0\nDETECTOR rec[-1]\nPOSTSELECT rec[-1]\nR 1\nH 1\nM 1\n",
], ids=["mirror", "closure_vm", "frame_table"])
def test_program_pickled_after_sampling_samples_the_same(text):
    import pickle

    prog = compile_circuit(text)
    before = list(sample(prog, 50, seed=5))
    again = pickle.loads(pickle.dumps(prog))
    for a, b in zip(before, sample(again, 50, seed=5), strict=True):
        assert np.array_equal(a.measurements, b.measurements)
        assert np.array_equal(a.detectors, b.detectors)
        assert np.array_equal(a.observables, b.observables)
        assert a.accepted == b.accepted


def _vector_kernels(prog) -> set:
    """The vectorized kernel forms a program runs: each gate kind and
    ArrayRot, each also on axis 1 (the stride-2 sub-arrays; two-entry void
    elements for CX); each collapse layout (the array's two slices, axis 1's
    lanes, the void-element gather) and the form of the collapse's branch-1
    row."""
    reach = set()
    for ins in prog.instrs:
        if isinstance(ins, ArrayGate):
            reach.add(ins.gate if ins.gate != "CX" else
                      "CX control above" if ins.axa > ins.axb else "CX control below")
            if 1 in (ins.axa, ins.axb) and 0 not in (ins.axa, ins.axb):
                reach.add(ins.gate + " axis 1")
        elif isinstance(ins, ArrayRot):
            reach.add("ArrayRot")
            if ins.axis == 1:
                reach.add("ArrayRot axis 1")
        elif isinstance(ins, MeasCollapse):
            top = 1 << ins.axis == ins.size >> 1  # the halves are the two slices
            reach.add("collapse " + ("slices" if top else "axis 1" if ins.axis == 1
                                     else "gathered"))
            form, c, _ = _row_form(*ins.u[1])
            if ins.u == ((1, 0), (0, 1)):
                reach.add("collapse identity")
            elif form in (2, 3) and complex(c).imag == 0:
                reach.add("collapse real ratio")
            elif form == 4:
                reach.add("collapse general row")
    return reach


VECTOR_FORMS = {"S", "H", "CZ", "CX control above", "CX control below", "ArrayRot",
                "S axis 1", "H axis 1", "CZ axis 1", "CX axis 1", "ArrayRot axis 1",
                "collapse slices", "collapse gathered", "collapse axis 1",
                "collapse identity", "collapse real ratio", "collapse general row"}


def _vector_corpus():
    """Random circuits whose arrays grow past 16 entries, without a final
    measurement of every qubit, which would leave a basis state and make
    the fidelity check blind to the amplitudes."""
    rng = np.random.default_rng(2026)
    circuits = [random_circuit(rng, 7, 70, p_noise=0.05, rot_rate=0.45, measure_rate=0.06,
                               measure_all=False) for _ in range(40)]
    return rng, [c for c in circuits if compile_circuit(c).k_max > 4]


def test_vectorized_kernels_match_oracle():
    # force oracle trajectories, faults included, through every form of
    # every numpy kernel
    rng, circuits = _vector_corpus()
    reach = set()
    for circ in circuits:
        reach |= _vector_kernels(compile_circuit(circ))
        for seed in range(3):
            res = crosscheck(circ, seed=seed, fault_plan=random_fault_plan(circ, rng))
            assert res["records_match"] and res["detectors_match"]
            assert res["fidelity"] > 1 - 1e-10
    assert reach == VECTOR_FORMS


def test_crosscheck_sees_a_wrong_vectorized_kernel(monkeypatch):
    # negative control: swap the halves after each axis-1 H, an amplitude
    # error; the corpus's fidelity must fall, whatever the records do
    right = runtime._c_array_gate

    def wrong(ins, prog):
        run = right(ins, prog)
        if ins.gate != "H" or ins.axa != 1:
            return run

        def swapped(st):
            run(st)
            v = st.buf[:ins.size].reshape(-1, 2, 2)
            v[:] = v[:, ::-1].copy()

        return swapped

    monkeypatch.setitem(runtime._FACTORIES, ArrayGate, wrong)
    rng, circuits = _vector_corpus()
    worst = 1.0
    for circ in circuits:
        for seed in range(3):
            try:
                res = crosscheck(circ, seed=seed, fault_plan=random_fault_plan(circ, rng))
            except ShotError:  # a forced outcome the wrong state rules out
                continue
            worst = min(worst, res["fidelity"])
    assert worst < 1 - 1e-10


def _kernel_run(ins, amps, frame_x=0, forced=None):
    """``ins``'s kernel on a state holding ``amps``: the live array
    afterwards."""
    k = len(amps).bit_length() - 1
    prog = SimpleNamespace(n=16, k_max=k + 1, record_count=1, num_detectors=0,
                           num_observables=0, final_active=(), instrs=[])
    st = ShotState(prog)
    st.buf[:len(amps)] = amps
    st.k = k
    st.frame_x = frame_x
    if forced is not None:
        st.forced_outcomes = {0: forced}
    runtime._FACTORIES[type(ins)](ins, prog)(st)
    return st.active_view()


def _on_axis(amps, a, m):
    """The 2x2 matrix ``m`` applied to axis ``a`` of ``amps``."""
    t = amps.reshape(-1, 2, 1 << a)
    return np.einsum("ij,ajb->aib", np.asarray(m), t).reshape(-1)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 10])
def test_vectorized_kernels_match_dense_at_every_axis(k):
    # every size has the one numpy form: from a one-entry array expanded to
    # two up to 2^10 entries, and collapses down to one entry
    size = 1 << k
    rng = np.random.default_rng(7)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps /= np.linalg.norm(amps)
    idx = np.arange(size)
    r = math.sqrt(0.5)
    cases = [(Expand(0, k, size, 0.3), {"frame_x": 1},
              np.concatenate([amps * cmath.exp(0.3j), amps * cmath.exp(-0.3j)]) * r)]
    for a in range(k):
        bit = (idx >> a) & 1
        cases += [
            (ArrayGate("S", 0, None, a, None, size), {}, np.where(bit, 1j, 1) * amps),
            (ArrayGate("H", 0, None, a, None, size), {}, _on_axis(amps, a, [[r, r], [r, -r]])),
        ]
        for parity in (0, 1):
            # branch 0's phase is global, and the kernel leaves it out
            phase = np.exp(-0.4j * np.where(bit ^ parity, -1, 1))
            cases.append((ArrayRot(0, a, 0.4, size), {"frame_x": parity},
                          phase * amps / phase[0]))
        for u in (((1, 0), (0, 1)), ((r, r), (r, -r)), ((r, r * 1j), (r, -r * 1j)),
                  ((0, 1), (1, 0))):
            rotated = _on_axis(amps, a, u).reshape(-1, 2, 1 << a)
            for branch in (0, 1):
                ins = MeasCollapse(0, a, 0, 0, size, u, ())
                half = rotated[:, branch].reshape(-1)
                cases.append((ins, {"forced": branch}, half / np.linalg.norm(half)))
        for b in range(k):
            if b == a:
                continue
            cases.append((ArrayGate("CX", 0, 1, a, b, size), {},
                          amps[np.where(bit, idx ^ (1 << b), idx)]))
            cases.append((ArrayGate("CZ", 0, 1, a, b, size), {},
                          np.where(bit & (idx >> b), -1, 1) * amps))
    for ins, kw, want in cases:
        got = _kernel_run(ins, amps, **kw)
        assert np.abs(got - want).max() < 1e-12, ins


# a program the closure VM runs (k_max = 1): it forks whenever workers > 1
ACTIVE = "H 0\nT 0\nH 0\nM 0\nDEPOLARIZE1(0.2) 0\nM 0\n"


def test_first_record_of_a_slow_program_arrives_quickly():
    # a closure-VM chunk is capped by its active work as well as by its
    # output bytes, so the first record of this k_max = 14 circuit waits for
    # a few dozen shots rather than tens of thousands
    circ = random_circuit(np.random.default_rng(0), 14, 400, p_noise=1e-3, rot_rate=0.3,
                          measure_rate=0.03)
    prog = compile_circuit(circ)
    assert prog.k_max == 14 and runtime._chunk_shots(prog) < 100
    t0 = time.perf_counter()
    next(sample(prog, 10**6))
    assert time.perf_counter() - t0 < 1.0


def test_records_do_not_depend_on_chunk_size(monkeypatch):
    circ = random_circuit(np.random.default_rng(3), 6, 60, p_noise=0.05, rot_rate=0.3,
                          measure_rate=0.1)
    prog = compile_circuit(circ)
    assert prog.k_max > 0
    work = runtime._plan_cost(prog)[1]

    def run():
        recs = [(r.measurements.tolist(), r.detectors.tolist(), r.observables.tolist())
                for r in sample(prog, 50, seed=2)]
        acc = sample_accumulate(prog, 50, seed=2)
        return recs, acc["measurements"].tolist(), acc["detectors"].tolist()

    want = run()
    assert runtime._chunk_shots(prog) >= 50  # one chunk
    for per_chunk in (1, 7):
        monkeypatch.setattr(runtime, "_CHUNK_WORK", per_chunk * work)
        assert runtime._chunk_shots(prog) == per_chunk
        assert run() == want


def test_worker_count_does_not_change_records():
    prog = compile_circuit(ACTIVE)
    assert prog.k_max > 0
    one = [rec.measurements.tolist() for rec in sample(prog, 200, seed=4, workers=1)]
    two = [rec.measurements.tolist() for rec in sample(prog, 200, seed=4, workers=2)]
    assert one == two


def _stratified_records(prog, workers, shots=50):
    return [(rec.measurements.tolist(), rec.weight)
            for st in (None, StratumSpec(prog, 1))
            for rec in sample(prog, shots, seed=4, workers=workers, stratum=st)]


def test_worker_count_capped_at_cpu_count(monkeypatch, pool_sizes):
    import os

    prog = compile_circuit(ACTIVE)
    serial = _stratified_records(prog, 1)
    for cpus, workers, expect in ((3, 1000, 3), (16, 5, 5), (64, 1000, 50)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert _stratified_records(prog, workers) == serial
        assert pool_sizes[-2:] == [expect, expect]


def test_one_worker_after_the_cap_samples_without_a_pool(monkeypatch, pool_sizes):
    import os

    prog = compile_circuit(ACTIVE)
    serial = _stratified_records(prog, 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _stratified_records(prog, 8) == serial
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _stratified_records(prog, 2, shots=1) == _stratified_records(prog, 1, shots=1)
    assert pool_sizes == []


@pytest.mark.parametrize("text", [ACTIVE, "H 0\nM 0\nDEPOLARIZE1(0.2) 0\nM 0\n"],
                         ids=["closure_vm", "frame_table"])
@pytest.mark.parametrize("shots", [-3, 0])
def test_shot_count_below_one_is_refused(text, shots):
    prog = compile_circuit(text)
    for run in (sample_accumulate, lambda prog, shots: list(sample(prog, shots))):
        with pytest.raises(ValueError, match="shots must be >= 1"):
            run(prog, shots)


@pytest.mark.parametrize("text", [ACTIVE, "H 0\nM 0\nDEPOLARIZE1(0.2) 0\nM 0\n"],
                         ids=["closure_vm", "frame_table"])
@pytest.mark.parametrize("value", [-1, 2**64, 1.5])
def test_a_seed_or_shot_outside_the_streams_is_refused(text, value):
    # the streams take a seed and a shot index modulo 2^64, so -1 would
    # give 2^64 - 1's records and 2^64 seed 0's; a float is no integer
    prog = compile_circuit(text)
    calls = [("seed", lambda: list(sample(prog, 3, seed=value))),
             ("seed", lambda: sample_accumulate(prog, 3, seed=value)),
             ("seed", lambda: ShotState(prog, seed=value)),
             ("seed", lambda: run_shot(prog, seed=value)),
             ("shot", lambda: run_shot(prog, shot=value))]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} {value}"):
            call()
    last = 2**64 - 1  # the last seed and shot run
    assert _record_tuple(next(sample(prog, 1, seed=last))) == _record_tuple(
        run_shot(prog, ShotState(prog, seed=np.uint64(last)), shot=0))
    run_shot(prog, shot=last, seed=last)


@pytest.mark.parametrize("text", [ACTIVE, "H 0\nM 0\nDEPOLARIZE1(0.2) 0\nM 0\n",
                                  "X_ERROR(0.1) 0 1 2\nM 0 1 2\n"])
def test_workers_below_one_and_a_fractional_stratum_are_refused(text):
    # as the CLI refuses --workers 0; a count of 1.5 (faults, shots or
    # workers) is no count at all
    prog = compile_circuit(text)
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            list(sample(prog, 3, workers=workers))
    for shots, workers in ((2.5, 1), (3, 2.5)):
        with pytest.raises(ValueError, match="is not an integer"):
            list(sample(prog, shots, workers=workers))
    with pytest.raises(ValueError, match="shots 2.5 is not an integer"):
        sample_accumulate(prog, 2.5)
    assert len(list(sample(prog, np.int64(3), workers=np.int64(1)))) == 3
    for w in (1.5, "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            StratumSpec(prog, w)
    assert StratumSpec(prog, np.int64(1)).w == 1


def test_a_state_or_stratum_of_another_program_is_refused():
    # states of another n and k_max, of another output width, and of the
    # same sizes with the active qubits in the other order
    a = compile_circuit("X 0\nM 0 1 2\n")
    b = compile_circuit("H 0\nT 0\nM 0\n")
    text = "H 1\nR_Z(0.3) 1\nH 0\nT 0\nH 0\n"
    c = compile_circuit(text)
    d = compile_circuit("H 0\nT 0\nH 1\nR_Z(0.3) 1\nH 0\n")
    assert c.final_active == d.final_active[::-1] != d.final_active
    for prog, other in ((b, a), (b, compile_circuit("H 0\nT 0\nM 0\nM 0\n")), (c, d)):
        state = ShotState(other)
        with pytest.raises(ValueError, match="ShotState"):
            run_shot(prog, state)
        with pytest.raises(ValueError, match="ShotState"):
            expectation_probe(prog, state, PauliString.single(prog.n, 0, "Z"))
    state = ShotState(compile_circuit(text))  # the same program, compiled again
    run_shot(c, state)
    assert expectation_probe(c, state, PauliString.single(2, 1, "X")) == pytest.approx(
        math.cos(0.3))
    # three sites of probability 0.3, against one site, or three of 0.2, on
    # the closure VM and on the frame table
    stratum = StratumSpec(compile_circuit("X_ERROR(0.3) 0 1 2\nM 0 1 2\n"), 1)
    for text in ("H 0\nT 0\nX_ERROR(0.3) 0\nM 0\n", "X_ERROR(0.2) 0 1 2\nM 0 1 2\n"):
        prog = compile_circuit(text)
        with pytest.raises(ValueError, match="stratum"):
            list(sample(prog, 4, stratum=stratum))
        with pytest.raises(ValueError, match="stratum"):
            sample_accumulate(prog, 4, stratum=stratum)
    same = compile_circuit("X_ERROR(0.3) 0 1 2\nM 0 1 2\n")
    assert sample_accumulate(same, 4, stratum=stratum)["accepted"] == 4


def test_hazard_sample_edge_cases():
    prog = compile_circuit("X_ERROR(0.0) 0\nX_ERROR(1.0) 0\nM 0\n")
    rng = ShotRng(0, 0)
    for shot in range(200):
        rng.reset(shot)
        faults = hazard_sample(prog, 0, 2, rng)
        assert faults == [(1, 0)]  # p=0 never fires, p=1 always does


def test_hazard_all_zero_probability():
    prog = compile_circuit("X_ERROR(0) 0 1 2\nM 0\n")
    rng = ShotRng(1, 0)
    for shot in range(100):
        rng.reset(shot)
        assert hazard_sample(prog, 0, 3, rng) == []


def test_hazard_sites_after_certain_site_still_fire():
    # regression: a p=1 site must not absorb the hazard of later sites
    prog = compile_circuit("X_ERROR(1.0) 0\nX_ERROR(0.5) 1\nM 0 1\n")
    rng = ShotRng(0, 0)
    h0 = h1 = 0
    n = 20_000
    for shot in range(n):
        rng.reset(shot)
        hit = {s for s, _ in hazard_sample(prog, 0, 2, rng)}
        h0 += 0 in hit
        h1 += 1 in hit
    assert h0 == n
    assert abs(h1 / n - 0.5) < 3 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("text", [
    "H 0\nDEPOLARIZE1(0.2) 0 1\nCX 0 1\nX_ERROR(0.1) 1\nM 0 1\n",
    # the certain site splits the noise block into several segments
    "X_ERROR(0.3) 0\nX_ERROR(1.0) 1\nDEPOLARIZE1(0.2) 0\nM 0 1\n",
], ids=["plain", "certain_site"])
def test_sampled_program_freed_without_cycle_collector(text):
    # the program holds its instruction closures; none may refer back to it
    import gc
    import weakref

    prog = compile_circuit(text)
    assert prog.sites
    for _ in sample(prog, 50, seed=1):
        pass
    sample_accumulate(prog, 50, seed=2)
    ref = weakref.ref(prog)
    gc.disable()
    try:
        del prog
        assert ref() is None
    finally:
        gc.enable()


def test_hazard_joint_pattern_chi2():
    prog = compile_circuit("X_ERROR(0.1) 0\nX_ERROR(0.3) 1\nM 0 1\n")
    rng = ShotRng(12, 0)
    counts = np.zeros(4)
    n = 200_000
    for shot in range(n):
        rng.reset(shot)
        hit = {s for s, _ in hazard_sample(prog, 0, 2, rng)}
        counts[(0 in hit) * 2 + (1 in hit)] += 1
    expect = np.array([0.9 * 0.7, 0.9 * 0.3, 0.1 * 0.7, 0.1 * 0.3]) * n
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < CHI2_999[3]


def test_shot_loop_paths_agree():
    # sample, sample_accumulate and run_shot share one shot loop; their
    # results must agree shot for shot, with postselection and with a stratum
    rng = np.random.default_rng(8)
    for _ in range(6):
        circ = random_circuit(rng, int(rng.integers(1, 5)), int(rng.integers(4, 20)),
                              p_noise=0.2, reset_rate=0.05, feedforward_rate=0.1)
        prog = compile_circuit(circ.serialize() + "DETECTOR rec[-1]\n",
                               postselect_detectors=(0,))
        strata = [None] + ([StratumSpec(prog, 1)] if prog.sites else [])
        for stratum in strata:
            recs = list(sample(prog, 300, seed=5, stratum=stratum, keep_rejected=False))
            acc = sample_accumulate(prog, 300, seed=5, stratum=stratum)
            assert acc["shots"] == 300 and acc["accepted"] == len(recs)
            assert acc["weight_sum"] == sum(r.weight for r in recs)
            for key in ("measurements", "detectors", "observables"):
                total = sum((getattr(r, key).astype(np.int64) for r in recs),
                            np.zeros(len(acc[key]), dtype=np.int64))
                assert np.array_equal(acc[key], total)
        state = ShotState(prog, seed=5)
        for shot, rec in enumerate(sample(prog, 300, seed=5)):
            one = run_shot(prog, state, shot=shot)
            assert np.array_equal(one.measurements, rec.measurements)
            assert np.array_equal(one.detectors, rec.detectors)
            assert np.array_equal(one.observables, rec.observables)
            assert (one.accepted, one.weight) == (rec.accepted, rec.weight)


def test_poisson_binomial_basics():
    assert poisson_binomial([]).tolist() == [1.0]
    assert np.allclose(poisson_binomial([1.0]), [0.0, 1.0])
    assert np.allclose(poisson_binomial([0.5, 0.5]), [0.25, 0.5, 0.25])
    rng = np.random.default_rng(0)
    for _ in range(20):
        probs = rng.random(int(rng.integers(1, 12)))
        pmf = poisson_binomial(probs)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert (pmf >= -1e-15).all()


def test_stratum_weights_cover_unity():
    prog = compile_circuit("X_ERROR(0.1) 0\nX_ERROR(0.25) 1\nX_ERROR(0.4) 0\nM 0 1\n")
    weights = [StratumSpec(prog, w).weight for w in range(4)]
    assert abs(sum(weights) - 1.0) < 1e-12
    pmf = poisson_binomial([0.1, 0.25, 0.4])
    assert np.allclose(weights, pmf)


def test_stratum_zero_runs_noiseless():
    prog = compile_circuit("X_ERROR(0.3) 0\nX_ERROR(0.2) 1\nM 0 1\n")
    recs = list(sample(prog, 500, seed=5, stratum=StratumSpec(prog, 0)))
    assert all(not r.measurements.any() for r in recs)
    assert all(abs(r.weight - 0.7 * 0.8) < 1e-12 for r in recs)


def test_stratum_site_selection_frequencies():
    probs = [0.1, 0.3, 0.6]
    prog = compile_circuit(
        "X_ERROR(0.1) 0\nX_ERROR(0.3) 1\nX_ERROR(0.6) 2\nM 0 1 2\n")
    spec = StratumSpec(prog, 1)
    rng = ShotRng(6, 0)
    counts = np.zeros(3)
    n = 120_000
    for shot in range(n):
        rng.reset(shot)
        [(site, _)] = spec.draw_forced(rng)
        counts[site] += 1
    raw = np.array([p * np.prod([1 - q for j, q in enumerate(probs) if j != i])
                    for i, p in enumerate(probs)])
    expect = raw / raw.sum() * n
    chi2 = float(((counts - expect) ** 2 / expect).sum())
    assert chi2 < CHI2_999[2]


def test_stratum_rejects_overflow():
    prog = compile_circuit("X_ERROR(0.1) 0\nM 0\n")
    with pytest.raises(ValueError):
        StratumSpec(prog, 2)


def test_importance_estimate_matches_enumeration():
    """Weighted error estimate vs brute-force fault-subset enumeration."""
    text = ("X_ERROR(0.08) 0\nX_ERROR(0.15) 1\nCX 0 2\nCX 1 2\nX_ERROR(0.1) 2\n"
            "M 2\nOBSERVABLE_INCLUDE(0) rec[-1]\n")
    circ = flatten(parse_circuit(text))
    prog = compile_circuit(circ)
    probs = [0.08, 0.15, 0.1]
    # exact: enumerate all fault subsets, outcome is deterministic per subset
    exact = 0.0
    for mask in range(8):
        pr = 1.0
        for i in range(3):
            pr *= probs[i] if (mask >> i) & 1 else 1 - probs[i]
        res = dense_run(circ, fault_plan={i: 0 for i in range(3) if (mask >> i) & 1})
        exact += pr * float(res.observables[0])
    est = 0.0
    var = 0.0
    shots = 4000
    for w in range(4):
        spec = StratumSpec(prog, w)
        hits = sum(int(r.observables[0]) for r in
                   sample(prog, shots, seed=w + 1, stratum=spec))
        p_hat = hits / shots
        est += spec.weight * p_hat
        var += (spec.weight ** 2) * p_hat * (1 - p_hat) / shots
    assert abs(est - exact) < 3 * math.sqrt(var) + 1e-9


def test_probe_fresh_state_values():
    prog = compile_circuit("TICK\nZ 0\n")  # trivial 1-qubit program
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    assert expectation_probe(prog, st, PauliString.single(1, 0, "Z")) == pytest.approx(1.0)
    assert expectation_probe(prog, st, PauliString.single(1, 0, "X")) == pytest.approx(0.0)


def test_probe_t_state():
    prog = compile_circuit("H 0\nT 0\n")
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    inv = 1 / math.sqrt(2)
    assert abs(expectation_probe(prog, st, PauliString.single(1, 0, "X")) - inv) < 1e-12
    assert abs(expectation_probe(prog, st, PauliString.single(1, 0, "Y")) - inv) < 1e-12
    assert abs(expectation_probe(prog, st, PauliString.single(1, 0, "Z"))) < 1e-12


def test_probe_rejects_non_hermitian():
    prog = compile_circuit("H 0\n")
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    bad = PauliString.single(1, 0, "X")
    bad.phase_exp = 1
    with pytest.raises(ValueError):
        expectation_probe(prog, st, bad)


@pytest.mark.parametrize("text", [
    "X_ERROR(1) 1\nM 1\nPOSTSELECT(0) rec[-1]\nH 0\nT 0\n",
    "H 0\nT 0\nX_ERROR(1) 1\nM 1\nPOSTSELECT(0) rec[-1]\nS 0\nH 0\n",
], ids=["rotation_after_check", "gates_after_check"])
def test_probe_refuses_a_shot_a_postselection_stopped(text):
    # the final tableau and active set describe gates the stopped shot never
    # ran: read anyway, the first program's probe indexed past its array and
    # the second's returned <Y> = -0.707
    prog = compile_circuit(text)
    st = ShotState(prog)
    assert not run_shot(prog, st, shot=0).accepted
    with pytest.raises(ValueError, match="postselection"):
        expectation_probe(prog, st, PauliString.single(2, 0, "Y"))


# k_max = 40: buf and scratch would take 32 * 2^40 bytes
WIDE = "".join(f"H {q}\nT {q}\n" for q in range(40))


def test_state_refuses_an_active_array_larger_than_memory(monkeypatch, pool_sizes):
    # refused before anything is allocated, and in this process, before a
    # pool starts: a pool initializer that raised would respawn forever
    import os

    prog = compile_circuit(WIDE)
    assert prog.k_max == 40
    need = f"k_max=40 needs {32 << 40} bytes"
    with pytest.raises(ShotError, match=need):
        run_shot(prog)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(ShotError, match=need):
        list(sample(prog, 4, workers=2))
    assert pool_sizes == []


def test_state_counts_sampling_snapshots_against_memory(monkeypatch):
    # k_max = 8: buf and scratch take 8 KiB and a chunk's snapshots up to
    # _SNAP_BYTES, so a machine with 1 MiB refuses the state
    import os

    prog = compile_circuit("".join(f"H {q}\nT {q}\n" for q in range(8)))
    assert prog.k_max == 8
    need = (32 + 16 * runtime._snapshots(8)) << 8
    assert runtime._SNAP_BYTES - (16 << 8) < need - (32 << 8) <= runtime._SNAP_BYTES
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}.get)
    with pytest.raises(ShotError, match=f"k_max=8 needs {need} bytes"):
        ShotState(prog)


def test_normalization_after_active_measurement():
    rng = np.random.default_rng(29)
    from framesim.testing import random_circuit

    for i in range(10):
        circ = random_circuit(rng, 3, 12, p_noise=0.2)
        prog = compile_circuit(circ)
        st = ShotState(prog)
        run_shot(prog, st, shot=i)
        assert abs(np.linalg.norm(st.active_view()) - 1.0) < 1e-12


def test_branch_floor_forces_alternate_branch():
    # mirror circuits have a numerically extinct wrong branch; the floor
    # guarantees the deterministic outcome even at the bit level
    prog = compile_circuit(EXACT_MIRROR)
    st = ShotState(prog)
    for shot in range(200):
        assert not run_shot(prog, st, shot=shot).measurements.any()


def test_branch_floor_flips_a_draw_into_an_extinct_branch(monkeypatch):
    # one size-2 collapse whose branch 1 has probability sin(1e-7)^2 ~ 1e-14,
    # below the floor; a draw of 0.0 lands in it and must be flipped back
    prog = compile_circuit("R_X(2e-7) 0\nM 0\n")
    kinds = [type(ins) for ins in prog.instrs]
    assert kinds.count(Expand) == kinds.count(MeasCollapse) == 1
    monkeypatch.setattr(ShotRng, "uniform", lambda self: 0.0)
    for shot in range(3):
        assert run_shot(prog, shot=shot).measurements.tolist() == [0]


@pytest.mark.parametrize("text", [
    "H 0\nM 0\nX rec[-1] 0\nM 0\n",
    "H 0\nM 0\nH 0\nZ rec[-1] 0\nH 0\nM 0\n",
    "H 0\nH 1\nM 1 0\nX rec[-1] 0 rec[-2] 1\nM 0 1\n",
], ids=["X", "Z", "X_two_pairs"])
def test_classical_pauli_controls_undo_the_outcome(text):
    # each controlled Pauli returns its measured qubit to |0>, so the final
    # measurements read 0 whatever the first ones gave
    circ = parse_circuit(text)
    for seed in range(4):
        res = crosscheck(circ, seed=seed)
        assert res["records_match"] and res["fidelity"] > 1 - 1e-10
    prog = compile_circuit(circ)
    final = len(circ.instructions[-1].targets)
    recs = [rec.measurements for rec in sample(prog, 200, seed=3)]
    assert all(not rec[-final:].any() for rec in recs)
    assert 0 < sum(int(rec[0]) for rec in recs) < 200


def test_forced_zero_probability_branch_raises():
    prog = compile_circuit("M 0\n")
    with pytest.raises(ShotError, match="probability"):
        run_shot(prog, shot=0, forced_outcomes={0: 1})
    # a collapse's branch below BRANCH_FLOOR cannot be forced either
    prog = compile_circuit("R_X(2e-7) 0\nM 0\n")
    assert MeasCollapse in map(type, prog.instrs)
    with pytest.raises(ShotError, match="has probability 1.000e-14"):
        run_shot(prog, shot=0, forced_outcomes={0: 1})


def test_run_shot_refuses_malformed_forced_inputs():
    prog = compile_circuit("X_ERROR(0.1) 0\nH 0\nM 0\nDEPOLARIZE1(0.1) 0\nM 0\n")
    for faults, outcomes in [
        ([(1, 0), (0, 0)], None),  # sites out of order
        ([(0, 0), (0, 0)], None),  # a site twice
        ([(-1, 0)], None),         # a negative site
        ([(0, 3)], None),          # a case its one-case site does not have
        ([(1, 3)], None),
        (None, {0: 5}),            # an outcome other than 0 or 1
        (None, {0: -2}),
        (None, {-2: 0}),           # a negative record
    ]:
        with pytest.raises(ValueError, match="forced"):
            run_shot(prog, forced_faults=faults, forced_outcomes=outcomes)
    # sites and records past the program's last are ignored
    rec = run_shot(prog, forced_faults=[(0, 0), (1, 2), (7, 9)],
                   forced_outcomes={0: 1, 9: 1})
    assert rec.measurements[0] == 1


def test_nan_detection_aborts_shot():
    prog = compile_circuit("H 0\nT 0\nH 0\nM 0\n")
    bad_instrs = [replace(i, angle=float("nan")) if isinstance(i, Expand) else i
                  for i in prog.instrs]
    prog.instrs = bad_instrs
    prog.__dict__.pop("_dispatch", None)
    with pytest.raises(ShotError, match="NaN"):
        run_shot(prog, shot=0)


def test_postselect_stops_execution_immediately():
    text = "H 0\nM 0\nPOSTSELECT rec[-1]\nH 1\nT 1\nH 1\nM 1\n"
    prog = compile_circuit(text)
    executed = []
    st = ShotState(prog)
    rejected = None
    for shot in range(50):
        executed.clear()
        rec = run_shot(prog, st, shot=shot, trace=lambda _s, i: executed.append(i))
        if not rec.accepted:
            rejected = list(executed)
            break
    assert rejected is not None
    from framesim.backend import PostSelectIns

    psel_at = next(i for i, ins in enumerate(prog.instrs)
                   if isinstance(ins, PostSelectIns))
    # nothing after the failed postselect ran (the halting check itself
    # raises before its trace callback fires)
    assert len(rejected) <= psel_at
    assert len(rejected) < len(prog.instrs) - 1


def test_postselect_rejection_rate_and_filtering():
    text = "H 0\nM 0\nPOSTSELECT rec[-1]\nM 0\n"
    prog = compile_circuit(text)
    recs = list(sample(prog, 4000, seed=8, keep_rejected=True))
    accepted = [r for r in recs if r.accepted]
    assert len(recs) == 4000
    assert abs(len(accepted) / 4000 - 0.5) < 0.05
    assert all(r.measurements[0] == 0 for r in accepted)
    only_kept = list(sample(prog, 4000, seed=8, keep_rejected=False))
    assert len(only_kept) == len(accepted)


def test_rng_stream_frozen_after_rejection():
    text = "H 0\nM 0\nPOSTSELECT rec[-1]\nH 1\nM 1\nDEPOLARIZE1(0.5) 1\nM 1\n"
    prog = compile_circuit(text)
    st = ShotState(prog)
    draws = {}
    for shot in range(50):
        rec = run_shot(prog, st, shot=shot)
        draws[bool(rec.accepted)] = st.draws
        if len(draws) == 2:
            break
    assert draws[False] < draws[True]


def test_per_shot_allocation_is_constant():
    import tracemalloc

    prog = compile_circuit(EXACT_MIRROR)
    st = ShotState(prog)
    run_shot(prog, st, shot=0)  # warm caches
    tracemalloc.start()
    for shot in range(50):
        run_shot(prog, st, shot=shot)
    _, peak_small = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    for shot in range(2000):
        run_shot(prog, st, shot=shot)
    _, peak_big = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak_big < peak_small + 64_000  # records only, no growth with shots


def test_shot_state_expand_factored_consistency():
    prog = compile_circuit("H 0\nT 0\n")
    st = ShotState(prog)
    run_shot(prog, st, shot=0)
    expanded = expand_factored(st, prog.final_tableau)
    oracle = dense_run(flatten(parse_circuit("H 0\nT 0\n")))
    assert fidelity(expanded, oracle.state) > 1 - 1e-12


def test_sample_requires_positive_shots():
    prog = compile_circuit("M 0\n")
    with pytest.raises(ValueError):
        list(sample(prog, 0))


def test_repeat_blocks_through_full_pipeline():
    from framesim.testing import crosscheck

    text = """\
REPEAT 3 {
    H 0
    T 0
    H 0
    M 0
    CX rec[-1] 1
    X_ERROR(0.3) 1
}
M 1
DETECTOR rec[-1] rec[-2]
"""
    circ = parse_circuit(text)
    for seed in range(4):
        res = crosscheck(circ, seed=seed, fault_plan={1: 0})
        assert res["records_match"] and res["detectors_match"]
        assert res["fidelity"] > 1 - 1e-10


def test_postselect_required_one():
    prog = compile_circuit("H 0\nM 0\nPOSTSELECT(1) rec[-1]\nM 0\n")
    recs = list(sample(prog, 2000, seed=12, keep_rejected=False))
    assert recs and all(r.measurements[0] == 1 for r in recs)
    assert abs(len(recs) / 2000 - 0.5) < 0.06


def test_free_sampling_matches_fault_averaged_distribution():
    """Unforced noisy sampling vs the exact subset-averaged law (chi^2)."""
    text = ("H 0\nT 0\nDEPOLARIZE1(0.15) 0\nCX 0 1\nX_ERROR(0.2) 1\n"
            "H 0\nM 0 1\n")
    circ = flatten(parse_circuit(text))
    from framesim.oracle import noise_sites_of, site_cases
    import itertools

    sites = noise_sites_of(circ)
    exact = np.zeros(4)
    case_lists = []
    for sid, ins, qubits in sites:
        cases = site_cases(ins, qubits, circ.qubit_count)
        opts = [(None, 1.0 - sum(m for m, _ in cases))]
        opts += [(ci, m) for ci, (m, _) in enumerate(cases)]
        case_lists.append(opts)
    for combo in itertools.product(*case_lists):
        pr = 1.0
        plan = {}
        for sid, (ci, mass) in enumerate(combo):
            pr *= mass
            if ci is not None:
                plan[sid] = ci
        for m0 in (0, 1):
            for m1 in (0, 1):
                exact[m0 * 2 + m1] += pr * _forced_prob(circ, plan, (m0, m1))
    assert abs(exact.sum() - 1.0) < 1e-9
    prog = compile_circuit(circ)
    n = 300_000
    counts = np.zeros(4)
    for rec in sample(prog, n, seed=77):
        counts[int(rec.measurements[0]) * 2 + int(rec.measurements[1])] += 1
    expect = exact * n
    chi2 = float(((counts - expect) ** 2 / np.maximum(expect, 1e-9)).sum())
    assert chi2 < CHI2_999[3], (counts / n, exact)


def _forced_prob(circ, plan, bits):
    """P(record bits | fault plan) by chaining forced-branch norms."""
    from framesim.oracle import (_GATES_1Q, _apply_1q, _apply_cx, _apply_cz,
                                 apply_pauli_dense, site_cases)
    from framesim.pauli import PauliString
    import math as _m

    n = circ.qubit_count
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    sid = 0
    rec_i = 0
    prob = 1.0
    for ins in circ.instructions:
        op = ins.opcode
        if op in _GATES_1Q:
            for q in ins.targets:
                vec = _apply_1q(vec, _GATES_1Q[op], q, n)
        elif op == "CX":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                vec = _apply_cx(vec, a, b, n)
        elif op in ("X_ERROR", "DEPOLARIZE1"):
            for q in ins.targets:
                case = plan.get(sid)
                if case is not None:
                    _, pauli = site_cases(ins, (q,), n)[case]
                    vec = apply_pauli_dense(pauli, vec)
                sid += 1
        elif op == "M":
            for q in ins.targets:
                obs = PauliString.single(n, q, "Z")
                ovec = apply_pauli_dense(obs, vec)
                plus = 0.5 * (vec + ovec)
                p_plus = float(np.vdot(plus, plus).real)
                want = bits[rec_i]
                p_branch = p_plus if want == 0 else 1.0 - p_plus
                if p_branch < 1e-15:
                    return 0.0
                vec = (plus if want == 0 else 0.5 * (vec - ovec)) / _m.sqrt(p_branch)
                prob *= p_branch
                rec_i += 1
        else:
            raise AssertionError(op)
    return prob


def test_runtime_k_tracks_planned_schedule():
    """Theorem-1 contract: the live active dimension equals the compiled
    schedule at every instruction, for every shot."""
    rng = np.random.default_rng(97)
    from framesim.testing import random_circuit

    for i in range(8):
        circ = random_circuit(rng, int(rng.integers(2, 5)), int(rng.integers(5, 18)),
                              p_noise=0.3)
        prog = compile_circuit(circ)
        planned = prog.active_schedule
        st = ShotState(prog)
        for shot in range(25):
            seen = []
            run_shot(prog, st, shot=shot, trace=lambda s, _i: seen.append(s.k))
            assert seen == planned


# A k_max > 0 program with a reset and a postselected detector: its user
# records are three of its four records, so sampling selects user columns.
CHUNKED = ("H 0\nT 0\nH 0\nM 0\nR 0\nH 1\nT 1\nCX 1 0\nDEPOLARIZE1(0.2) 0 1\n"
           "M 0 1\nDETECTOR rec[-1]\n")


def _record_tuple(rec) -> tuple:
    return (rec.measurements.tolist(), rec.detectors.tolist(), rec.observables.tolist(),
            bool(rec.accepted), rec.weight)


@pytest.mark.parametrize("workers", [1, 2])
def test_closure_vm_chunks_match_run_shot(monkeypatch, workers):
    # chunks of 7 shots: 60 shots cross several chunk boundaries, serially
    # and over a real fork pool
    import os

    import framesim.runtime as runtime

    prog = compile_circuit(CHUNKED, postselect_detectors=(0,))
    assert prog.k_max > 0 and prog.user_records == (0, 2, 3) and prog.record_count == 4
    pools = []
    parallel = runtime._sample_parallel

    def counted(*args):
        pools.append(args[4])
        yield from parallel(*args)

    monkeypatch.setattr(runtime, "_sample_parallel", counted)
    monkeypatch.setattr(runtime, "_chunk_shots", lambda prog: 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    seed = 9
    for stratum in (None, StratumSpec(prog, 1)):
        state = ShotState(prog, seed=seed)
        reference = []
        for shot in range(60):
            if stratum is None:
                reference.append(_record_tuple(run_shot(prog, state, shot=shot)))
            else:
                runtime._run(prog, runtime._compiled(prog), state, shot, stratum)
                reference.append(_record_tuple(runtime.make_record(prog, state)))
        accepted = [r for r in reference if r[3]]
        assert 0 < len(accepted) < 60
        for keep in (True, False):
            got = [_record_tuple(r) for r in sample(prog, 60, seed=seed, workers=workers,
                                                   stratum=stratum, keep_rejected=keep)]
            assert got == (reference if keep else accepted)
        acc = sample_accumulate(prog, 60, seed=seed, stratum=stratum)
        weight_sum = 0.0
        for r in accepted:
            weight_sum += r[4]
        assert acc["accepted"] == len(accepted) and acc["weight_sum"] == weight_sum
        for i, key in enumerate(("measurements", "detectors", "observables")):
            total = np.sum([r[i] for r in accepted], axis=0, dtype=np.int64)
            assert acc[key].tolist() == total.tolist()
    assert pools == ([2] * 4 if workers == 2 else [])


def test_pool_makes_chunk_bounds_as_it_sends_them(monkeypatch, pool_sizes):
    # one-shot chunks over 500,000 shots: a list of every chunk's bounds,
    # made before the first shot, would take tens of megabytes
    import os
    import tracemalloc

    import framesim.runtime as runtime

    prog = compile_circuit("X_ERROR(0.1) 0\nM 0\n")
    monkeypatch.setattr(runtime, "_chunk_shots", lambda prog: 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert runtime._frame_table(prog) is not None  # built before the measurement
    stream = sample(prog, 500_000, seed=1, workers=2)
    tracemalloc.start()
    try:
        first = next(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        stream.close()
    assert pool_sizes == [2]
    assert _record_tuple(first) == _record_tuple(run_shot(prog, shot=0, seed=1))
    assert peak < 5 * 2**20


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 5), depth=st.integers(1, 40),
       rot_rate=st.sampled_from([0.1, 0.3, 0.6, 0.9]), measure_all=st.booleans())
def test_closure_vm_matches_dense_oracle_property(seed, n, depth, rot_rate, measure_all):
    """The whole compile and the closure VM (``run_shot``) against the dense
    oracle, with the oracle's outcomes and a random fault plan forced on
    both. Without the final measurement the state is not a basis state, so
    an amplitude error shows in the fidelity."""
    rng = np.random.default_rng(seed)
    circ = random_circuit(rng, n, depth, p_noise=0.2, rot_rate=rot_rate, reset_rate=0.05,
                          feedforward_rate=0.1, measure_all=measure_all)
    res = crosscheck(circ, seed=seed, fault_plan=random_fault_plan(circ, rng, trigger_rate=0.5))
    assert res["records_match"] and res["detectors_match"] and res["observables_match"]
    assert res["fidelity"] >= 1 - 1e-10


def test_batched_kernels_match_each_row_alone():
    # every kernel over a batch of three rows, rows 0 and 2 of frame A and
    # row 1 of frame B, whose probe bits differ: each row ends as it does
    # alone, a collapse forced to one outcome halving every row, row 1 on
    # the other branch, and laid out branch 0's rows first
    k, rows = 4, 3
    size = 1 << k
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    r = math.sqrt(0.5)
    prog = SimpleNamespace(n=16, k_max=k + 3, record_count=1, num_detectors=0,
                           num_observables=0, final_active=(), instrs=[])
    cases = [Expand(0, k, size, 0.3), ArrayRot(0, 2, 0.4, size), ArrayRot(0, 1, 0.4, size),
             MeasCollapse(0, 3, 0, 0, size, ((r, r * 1j), (r, -r * 1j)), ()),
             MeasCollapse(0, 1, 0, 0, size, ((1, 0), (0, 1)), ())]
    cases += [ArrayGate(g, 0, None if g in "SH" else 1, a, None if g in "SH" else b, size)
              for g in ("S", "H", "CX", "CZ") for a, b in ((1, 3), (3, 0))]
    bits = [0, 1, 0]  # each row's frame X bit of qubit 0
    # the outcome 1 is branch 1 ^ bit: row 1 takes branch 0, laid out first
    layout = [1, 0, 2]
    for ins in cases:
        st = ShotState(prog)
        st.buf[:rows * size] = amps.reshape(-1)
        st.k, st.rows = k, rows
        at = [0, 1, 2]
        if isinstance(ins, MeasCollapse):
            probs, apply = runtime._collapse_kernel(ins)
            apply(st, [1], [0, 2], probs(st))
            at = layout
        elif isinstance(ins, ArrayGate):
            runtime._array_gate_kernel(ins)(st)
        else:
            (runtime._expand_kernel if isinstance(ins, Expand)
             else runtime._array_rot_kernel)(ins)(st, bits)
        got = st.buf[:st.rows << st.k].reshape(st.rows, -1)
        for r, (bit, row) in enumerate(zip(bits, amps)):
            want = _kernel_run(ins, row, frame_x=bit,
                               forced=1 if isinstance(ins, MeasCollapse) else None)
            assert np.abs(got[at.index(r)] - want).max() < 1e-12, (ins, r)


@pytest.mark.parametrize("axis", [0, 1, 3, 5])
@pytest.mark.parametrize("u", ["I", "H", "HS", "SH"])
def test_a_lone_row_collapses_as_in_a_batch(axis, u):
    # a batch of one row, a lone shot's, collapses to the branch and
    # amplitudes that row gets in a batch of two, on axis 0, axis 1, a
    # middle axis and the top axis, with a folded basis change or none
    k = 6
    size = 1 << k
    r = math.sqrt(0.5)
    rows_u = {"I": ((1, 0), (0, 1)), "H": ((r, r), (r, -r)), "HS": ((r, r * 1j), (r, -r * 1j)),
              "SH": ((r, r), (r * 1j, -r * 1j))}
    ins = MeasCollapse(0, axis, 0, 0, size, rows_u[u], ())
    rng = np.random.default_rng(axis)
    amps = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2, size))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    prog = SimpleNamespace(n=16, k_max=k + 1, record_count=1, num_detectors=0,
                           num_observables=0, final_active=(), instrs=[])
    probs, apply = runtime._collapse_kernel(ins)
    for branch in (0, 1):
        lone = ShotState(prog)
        lone.buf[:size] = amps[0]
        lone.k = k
        draw = probs(lone)
        apply(lone, [] if branch else [0], [0] if branch else [], draw)
        batch = ShotState(prog)
        batch.buf[:2 * size] = amps.reshape(-1)
        batch.k, batch.rows = k, 2
        draws = probs(batch)
        # row 0 on ``branch``, row 1 on the other; branch 0's rows come first
        apply(batch, [1] if branch else [0], [0] if branch else [1], draws)
        assert draw[0][1:3] == draws[0][1:3]
        assert abs(draw[0][0] - draws[0][0]) <= 1e-15
        assert (lone.k, lone.rows, batch.k, batch.rows) == (k - 1, 1, k - 1, 2)
        got = lone.active_view()
        want = batch.buf[:2 << batch.k].reshape(2, -1)[branch]
        assert np.abs(got - want).max() <= 1e-15, (axis, u, branch)
