"""The frame table's path walk against shots alone, shot for shot.

``sample`` and ``sample_accumulate`` run each chunk of shots of a program
with an active array on its frame table, whose path walk runs each
amplitude kernel once per step over the batch of the chunk's paths;
``run_shot`` and ``runtime._run`` run one shot on the closure VM. Records,
acceptance and weights must agree exactly.
"""
from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest

import framesim.runtime as runtime
import framesim.table as frametable
from framesim.backend import MeasCollapse, PostSelectIns, compile_circuit
from framesim.rng import ShotRng, ShotStreams
from framesim.runtime import ShotState, StratumSpec, run_shot, sample, sample_accumulate
from framesim.table import _GUARD
from framesim.testing import random_circuit
from test_sample_pin import COINS, NOISY


def _corpus(count: int) -> list:
    """Seeded programs with rotations (k_max > 0), noise, resets and
    feedforward; each measures qubit 0 midway into detector 0, which every
    third program postselects, so a group loses shots there and goes on."""
    rng = np.random.default_rng(1919)
    progs = []
    while len(progs) < count:
        n = int(rng.integers(2, 7))
        head, tail = (random_circuit(rng, n, int(rng.integers(5, 30)), p_noise=0.1,
                                     rot_rate=0.3, reset_rate=0.05, feedforward_rate=0.1,
                                     measure_all=part == 1) for part in (0, 1))
        text = head.serialize() + "M 0\nDETECTOR rec[-1]\n" + tail.serialize()
        prog = compile_circuit(text, postselect_detectors=(0,) if len(progs) % 3 == 0 else ())
        if prog.k_max:
            progs.append(prog)
    return progs


def _tuple(r) -> tuple:
    return (r.measurements.tolist(), r.detectors.tolist(), r.observables.tolist(),
            r.accepted, r.weight)


def _strata(prog) -> list:
    return [None] + [StratumSpec(prog, w) for w in range(3) if w <= len(prog.sites)]


def _alone(prog, shots: int, seed: int, stratum) -> list:
    """Each shot's record from a walk of its own."""
    state = ShotState(prog, seed=seed)
    code = runtime._compiled(prog)
    out = []
    for shot in range(shots):
        runtime._run(prog, code, state, shot, stratum)
        out.append(_tuple(runtime.make_record(prog, state)))
    return out


def _check_sampled(prog, seed: int, stratum, workers: int = 1) -> int:
    """``sample`` (keep_rejected both ways) and ``sample_accumulate`` of 60
    shots against the shots alone; returns how many were rejected."""
    alone = _alone(prog, 60, seed, stratum)
    accepted = [r for r in alone if r[3]]
    for keep in (True, False):
        got = [_tuple(r) for r in sample(prog, 60, seed=seed, workers=workers,
                                          stratum=stratum, keep_rejected=keep)]
        assert got == (alone if keep else accepted)
    acc = sample_accumulate(prog, 60, seed=seed, stratum=stratum)
    assert acc["accepted"] == len(accepted)
    for i, key in enumerate(("measurements", "detectors", "observables")):
        want = np.sum([r[i] for r in accepted], axis=0, dtype=np.int64) if accepted else 0
        assert (acc[key] == want).all()
    return len(alone) - len(accepted)


@pytest.mark.parametrize("first", [None, 1, 7])
def test_grouped_records_match_groups_of_one(monkeypatch, first):
    # chunks as sized, or a first chunk of 1 or 7 shots for sample, then full ones
    rejected = 0
    for i, prog in enumerate(_corpus(20)):
        if first is not None:
            monkeypatch.setattr(runtime, "_CHUNK_WORK", first * runtime._plan_cost(prog)[1])
            assert runtime._chunk_shots(prog) == first
        for stratum in _strata(prog):
            rejected += _check_sampled(prog, i, stratum)
    assert rejected > 0


def test_grouped_records_match_groups_of_one_over_a_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for i, prog in enumerate(_corpus(8)):
        # first chunks of 7 shots, then a worker's share of 30: 7, 30, 23
        monkeypatch.setattr(runtime, "_CHUNK_WORK", 7 * runtime._plan_cost(prog)[1])
        for stratum in _strata(prog)[:2]:
            _check_sampled(prog, i, stratum, workers=2)


def _watch(prog, watched) -> None:
    """Replace the program's path-walk steps by ``watched(step)`` of each."""
    steps = runtime._path_steps(prog, runtime._frame_table(prog))
    runtime._cache(prog)["paths"] = [None if fn is None else watched(fn) for fn in steps]


def _rows_alone(prog, seed: int, lo: int, hi: int, stratum) -> np.ndarray:
    """Shots [lo, hi) each run alone on the closure VM, as one row of
    output bits per shot."""
    state = ShotState(prog, seed=seed)
    code = runtime._compiled(prog)
    rows = []
    for shot in range(lo, hi):
        runtime._run(prog, code, state, shot, stratum)
        rec = runtime.make_record(prog, state)
        rows.append(np.concatenate([rec.measurements, rec.detectors, rec.observables]))
    return np.array(rows, dtype=np.uint8).reshape(hi - lo, -1)


def _sampled_rows(prog, state, seed: int, lo: int, hi: int, stratum) -> np.ndarray:
    """Shots [lo, hi) of one ``_shot_rows`` chunk, unpacked."""
    width = len(prog.user_records) + prog.num_detectors + prog.num_observables
    rows, _ = runtime._shot_rows(prog, state, seed, lo, hi, stratum, True)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


@pytest.mark.parametrize("need", [0, 5, 74])
def test_a_sampled_shot_draws_its_scalar_stream(need):
    # a chunk's shots at lo > 0 draw from its streams: a grid of ``need``
    # draws from each shot's counter, then draws one at a time; each shot's
    # uniforms, coins and exponentials equal a fresh scalar stream's
    lo, hi = 1000, 1040
    streams = ShotStreams(77, lo, hi)
    rows = np.arange(hi - lo)
    alone = [ShotRng(77, shot) for shot in range(lo, hi)]
    grid = streams.uniforms(rows, streams.counts, need)
    streams.counts += np.uint64(need)
    for c in range(need):
        assert grid[:, c].tolist() == [a.uniform() for a in alone]
    for d in range(80):
        u = streams.uniform(rows).tolist()
        if d % 3 == 0:  # a uniform, a coin, an exponential, ...
            assert u == [a.uniform() for a in alone]
        elif d % 3 == 1:
            assert [x >= 0.5 for x in u] == [a.uniform() >= 0.5 for a in alone]
        else:
            assert [-math.log1p(-x) for x in u] == [a.exponential() for a in alone]
    assert streams.counts.tolist() == [a.draws for a in alone]
    assert all(a.draws == need + 80 for a in alone)


def test_a_chunk_tabulates_once_and_builds_no_stream(monkeypatch):
    # one ShotStreams per _shot_rows chunk, and no ShotRng constructed for
    # its shots, a stratum's fault lists included
    prog = compile_circuit("H 0\nT 0\n" + "H 1\nDEPOLARIZE1(0.2) 1\nM 1\n" * 5 + "M 0\n")
    assert prog.k_max == 1
    for stratum in (None, StratumSpec(prog, 2)):
        state = ShotState(prog, seed=3)
        calls = []
        streams, init = ShotStreams.__init__, ShotRng.__init__

        def tabled(self, *args):
            calls.append("streams")
            streams(self, *args)

        def built(self, *args):
            calls.append("init")
            init(self, *args)

        with monkeypatch.context() as m:
            m.setattr(ShotStreams, "__init__", tabled)
            m.setattr(ShotRng, "__init__", built)
            _, flags = runtime._shot_rows(prog, state, 3, 100, 400, stratum, True)
        assert calls == ["streams"] and len(flags) == 300


def test_a_branch_floor_flip_shares_its_branch(monkeypatch):
    # qubit 0 measures 1 with probability 1 - 2.5e-13, so a draw at or above
    # it takes branch 0 below the floor and flips to branch 1, at branch
    # 1's own probability; the patched draws send about half the draws
    # there, those of a shot alone and those of a chunk's streams
    flips = []
    uniform, uniforms, each = ShotRng.uniform, ShotStreams.uniforms, ShotStreams.uniform

    def patched(self):
        u = uniform(self)
        if u < 0.5:
            flips.append(u)
            return 1 - 2.0 ** -53
        return u

    def lifted(us):
        low = us < 0.5
        flips.extend(us[low].tolist())
        us[low] = 1 - 2.0 ** -53
        return us

    monkeypatch.setattr(ShotRng, "uniform", patched)
    monkeypatch.setattr(ShotStreams, "uniforms", lambda *args: lifted(uniforms(*args)))
    monkeypatch.setattr(ShotStreams, "uniform", lambda *args: lifted(each(*args)))
    prog = compile_circuit(f"H 1\nT 1\nCX 1 0\nR_Y({math.pi - 1e-6!r}) 0\nM 0\n"
                           "T 1\nH 1\nM 1\nT 0\nH 0\nM 0 1\n")
    assert prog.k_max > 0 and any(isinstance(i, MeasCollapse) for i in prog.instrs)
    alone = _alone(prog, 64, 3, None)
    assert flips
    flips.clear()
    assert [_tuple(r) for r in sample(prog, 64, seed=3)] == alone
    assert flips


def _deterministic_program():
    """A noiseless program whose 8-qubit active array passes the list size,
    and whose collapses each measure a qubit turned by 1e-10 rad, branch 1
    having probability 2.5e-21: every shot takes one path."""
    text = "".join(f"H {q}\nT {q}\n" for q in range(8))
    text += "".join(f"CX {q} {q + 1}\nT {q + 1}\n" for q in range(7))
    text += "".join(f"H {q}\nT {q}\n" for q in range(8))
    text += "".join(f"R_Y(1e-10) {q}\n" for q in range(8, 11)) + "M 8 9 10\n"
    prog = compile_circuit(text)
    assert prog.k_max == 8 and not prog.sites
    assert sum(isinstance(i, MeasCollapse) for i in prog.instrs) == 3
    return prog


def test_one_path_runs_each_kernel_once_per_chunk(monkeypatch):
    # each vectorized kernel fetches its views once per run; N shots on one
    # path fetch them as often as one shot does
    prog = _deterministic_program()
    calls = []
    views = runtime._views

    def counted(st, make):
        calls.append(make)
        return views(st, make)

    monkeypatch.setattr(runtime, "_views", counted)
    run_shot(prog, ShotState(prog), shot=0)
    per_shot = len(calls)
    assert per_shot > 40
    shots = 40
    assert runtime._chunk_shots(prog) >= shots  # one chunk
    calls.clear()
    assert not sample_accumulate(prog, shots, seed=2)["measurements"].any()
    assert len(calls) == per_shot


def test_sampling_conjugates_no_frame(monkeypatch):
    # the frame table holds the frame work: N sampled shots conjugate no
    # frame, where one shot alone conjugates one per frame word
    prog = _deterministic_program()
    runtime._compiled(prog)  # specialized before counting
    calls = []
    conjugate = runtime._conjugate_frame

    def counted(*args):
        calls.append(args[0])
        return conjugate(*args)

    monkeypatch.setattr(runtime, "_conjugate_frame", counted)
    run_shot(prog, ShotState(prog), shot=0)
    assert len(calls) > 20
    calls.clear()
    assert not sample_accumulate(prog, 40, seed=2)["measurements"].any()
    assert calls == []


def test_a_certain_site_of_one_case_fires_in_every_shot():
    # X_ERROR(1) draws nothing and fires in every shot, whose DEPOLARIZE1
    # fault in the same block may fire too; every shot's record is its own
    # shot's alone
    prog = compile_circuit("H 0\nT 0\nX_ERROR(1) 1\nDEPOLARIZE1(0.01) 1\nM 1\n")
    assert prog.k_max == 1 and [s.prob for s in prog.sites] == [1.0, 0.01]
    assert sum(isinstance(i, runtime.NoiseBlock) for i in prog.instrs) == 1
    shots = 1000
    alone = _alone(prog, shots, 5, None)
    assert [_tuple(r) for r in sample(prog, shots, seed=5)] == alone
    assert shots * 0.99 < sum(r[0][0] for r in alone) < shots


def test_a_hazard_skip_inside_the_guard_fires_no_fault(monkeypatch):
    # shot 5's X_ERROR(0.01) skip is planted where its target equals the
    # segment's end S[b]: numpy's test cannot clear it, since its target is
    # not below S[b] + _GUARD, so the shot runs the segment's exact
    # arithmetic, which finds no fault; its record is a shot alone's, M 1
    # reading 0
    prog = compile_circuit("H 0\nT 0\nX_ERROR(0.01) 1\nM 1\nM 0\n")
    assert type(prog.instrs[0]) is runtime.NoiseBlock and prog.record_count == 2
    s_b = prog.cum_hazard[1]
    u = 0.01
    while -math.log1p(-u) < s_b or -np.log1p(-u) < s_b:
        u = math.nextafter(u, 1.0)
    assert s_b <= -np.log1p(-u) < s_b + _GUARD * max(s_b, 1.0)
    shot, uniforms, segment = 5, ShotStreams.uniforms, frametable._segment
    exact = []

    def planted(self, rows, start, n):  # the noise block's draw is each shot's first
        out = uniforms(self, rows, start, n)
        out[(rows == shot) & (start == 0), 0] = u
        return out

    def counted(tab, streams, fire, rows, *args):
        exact.extend(rows.tolist())
        return segment(tab, streams, fire, rows, *args)

    monkeypatch.setattr(ShotStreams, "uniforms", planted)
    monkeypatch.setattr(frametable, "_segment", counted)
    shots = 64
    alone = _alone(prog, shots, 2, None)
    assert [_tuple(r) for r in sample(prog, shots, seed=2)] == alone
    assert exact == [shot]
    assert alone[shot][0][0] == 0


def _forking_program():
    """20 collapses of probability 1/2 beside a 4-qubit array: the walk
    forks at each."""
    text = "".join(f"H {q}\nT {q}\n" for q in range(1, 5))
    text += "".join(f"H 0\nT 0\nCX {1 + j % 4} 0\nM 0\n" for j in range(20))
    text += "M 1 2 3 4\n"
    prog = compile_circuit(text)
    assert sum(isinstance(i, MeasCollapse) for i in prog.instrs) >= 20
    return prog


def test_live_snapshots_stay_within_log2_of_the_group(monkeypatch):
    # at most floor(log2(group)) deferred parts, each holding one snapshot
    prog = _forking_program()
    live = []

    def watched(fn):
        def step(st, part, *args):
            live.append(len(st.pending))
            return fn(st, part, *args)
        return step

    _watch(prog, watched)
    for shots in (1, 2, 3, 64, 100):
        live.clear()
        state = ShotState(prog, seed=shots)
        runtime._shot_rows(prog, state, shots, 0, shots, None, True)  # one part
        assert max(live) <= math.floor(math.log2(shots))
        if shots >= 64:
            assert max(live) >= 3  # it forked
    assert _alone(prog, 100, 1, None) == [_tuple(r) for r in sample(prog, 100, seed=1)]


def test_snapshot_budget_caps_the_chunks(monkeypatch):
    # room for three snapshots of the whole array: a group of 16 shots could
    # keep four, so chunks hold at most 15 shots, and the bytes of the
    # snapshots live at any step stay within the budget
    prog = _forking_program()
    want = [_tuple(r) for r in sample(prog, 100, seed=4)]
    budget = 3 * 16 << prog.k_max
    monkeypatch.setattr(runtime, "_SNAP_BYTES", budget)
    assert runtime._fold_shots(prog) == runtime._chunk_shots(prog) == 15
    sizes, live = [], []
    rows = runtime._shot_rows

    def counted(prog, engine, seed, lo, hi, *rest):
        sizes.append(hi - lo)
        return rows(prog, engine, seed, lo, hi, *rest)

    def watched(fn):
        def step(st, part, *args):
            live.append(sum(16 * len(p.snap[1]) for p in st.pending if p.snap))
            return fn(st, part, *args)
        return step

    _watch(prog, watched)
    monkeypatch.setattr(runtime, "_shot_rows", counted)
    assert [_tuple(r) for r in sample(prog, 100, seed=4)] == want
    assert sizes == [15] * 6 + [10]
    assert 0 < max(live) <= budget
    # a budget below one snapshot: one-shot chunks that never snapshot
    monkeypatch.setattr(runtime, "_SNAP_BYTES", budget // 4)
    sizes.clear()
    live.clear()
    assert [_tuple(r) for r in sample(prog, 20, seed=4)] == want[:20]
    assert sizes == [1] * 20 and max(live) == 0


def test_a_chunk_holds_its_walk_state_within_the_fold_budget():
    # 80 random coins and 80 noisy sites beside a rotated qubit: each shot
    # tabulates the most uniforms a table holds, and a stratum adds fault
    # lists; a chunk's peak allocation stays within _FOLD_BYTES
    text = "H 0\nT 0\n" + "H 1\nDEPOLARIZE1(0.2) 1\nM 1\n" * 80 + "M 0\n"
    prog = compile_circuit(text)
    assert prog.k_max == 1
    for stratum in (None, StratumSpec(prog, 5), StratumSpec(prog, 40)):
        n = runtime._fold_shots(prog, stratum)
        state = ShotState(prog, seed=1)
        runtime._shot_rows(prog, state, 1, 0, n, stratum, True)
        tracemalloc.start()
        try:
            runtime._shot_rows(prog, state, 1, n, 2 * n, stratum, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= runtime._FOLD_BYTES


def _counted_rows(monkeypatch) -> list:
    """The (lo, hi) of each ``_shot_rows`` call from here on."""
    bounds = []
    rows = runtime._shot_rows

    def counted(prog, engine, seed, lo, hi, *rest):
        bounds.append((lo, hi))
        return rows(prog, engine, seed, lo, hi, *rest)

    monkeypatch.setattr(runtime, "_shot_rows", counted)
    return bounds


def test_only_a_streamed_first_chunk_is_capped(monkeypatch):
    # the benchmark's rot_n14 circuit (seed 0): sample's first chunk is
    # capped by its amplitude work, then chunks are as large as memory
    # allows; sample_accumulate walks all 200 shots as one group
    circ = random_circuit(np.random.default_rng(0), 14, 400, p_noise=1e-3, rot_rate=0.3,
                          measure_rate=0.03)
    prog = compile_circuit(circ)
    assert prog.k_max == 14 and runtime._chunk_shots(prog) == 21
    bounds = _counted_rows(monkeypatch)
    sample_accumulate(prog, 200)
    assert bounds == [(0, 200)]
    bounds.clear()
    for _ in sample(prog, 200):
        pass
    assert bounds == [(0, 21), (21, 200)]


def test_fold_budget_splits_an_accumulating_call(monkeypatch):
    # a fold budget of a few shots splits 60 shots into several chunks for
    # sample_accumulate too; its totals match the shots alone, with strata
    # and postselection
    bounds = _counted_rows(monkeypatch)
    rejected = 0
    for i, prog in enumerate(_corpus(8)):
        for stratum in _strata(prog):
            with monkeypatch.context() as m:
                budget = runtime._FOLD_BYTES
                while runtime._fold_shots(prog, stratum) > 9:
                    budget //= 2
                    m.setattr(runtime, "_FOLD_BYTES", budget)
                most = runtime._fold_shots(prog, stratum)
                assert runtime._chunk_shots(prog) >= most
                bounds.clear()
                rejected += _check_sampled(prog, i, stratum)
            # two sample calls and one sample_accumulate, each in the same chunks
            chunks = list(runtime._bounds(60, most, most))
            assert len(chunks) >= 7 and bounds == chunks * 3
    assert rejected > 0


def test_an_accumulating_call_walks_its_paths_once(monkeypatch):
    # with a 7-shot first chunk for sample, sample_accumulate still runs
    # the amplitude kernels of one group, while sample reruns the paths of
    # its first chunk
    prog = _forking_program()
    monkeypatch.setattr(runtime, "_CHUNK_WORK", 7 * runtime._plan_cost(prog)[1])
    assert runtime._chunk_shots(prog) == 7 and runtime._fold_shots(prog) >= 100
    calls = []
    views = runtime._views

    def counted(st, make):
        calls.append(make)
        return views(st, make)

    monkeypatch.setattr(runtime, "_views", counted)
    runtime._shot_rows(prog, ShotState(prog, seed=5), 5, 0, 100, None, False)
    group = len(calls)
    calls.clear()
    sample_accumulate(prog, 100, seed=5)
    assert len(calls) == group
    calls.clear()
    for _ in sample(prog, 100, seed=5):
        pass
    assert len(calls) > group


def _k10_program():
    """Criterion 10's program: ten rotated qubits, a parity readout that
    keeps every axis alive, then an X readout of each; its collapses halve
    the array ten times, and its paths multiply."""
    lines = [f"R_Y(0.7) {q}" for q in range(10)] + [f"CX {q} {q + 1}" for q in range(9)]
    lines += ["M 9"] + [f"CX {q} {q + 1}" for q in range(8, -1, -1)]
    lines.append("MX " + " ".join(str(q) for q in range(10)))
    prog = compile_circuit("\n".join(lines) + "\n")
    assert prog.k_max == 10
    return prog


def _rot_n14_program():
    """The benchmark's rot_n14 circuit (circuit seed 0): k_max = 14."""
    circ = random_circuit(np.random.default_rng(0), 14, 400, p_noise=1e-3, rot_rate=0.3,
                          measure_rate=0.03)
    return compile_circuit(circ)


@pytest.mark.parametrize("make, shots", [(_k10_program, 600), (_forking_program, 100),
                                         (_rot_n14_program, 40)])
def test_a_batch_holds_its_rows_within_the_capacity(make, shots):
    # before and after every step, the batch's P rows of 2^k entries fit
    # 2^k_max; the deferred parts' snapshots stay within _snapshots(k_max)
    # whole arrays and floor(log2(shots)) parts; and the sampled records are
    # the shots' own
    prog = make()
    cap = 1 << prog.k_max
    seen = []

    def watched(fn):
        def step(st, part, *args):
            assert st.rows << st.k <= cap
            snaps = [p.snap for p in st.pending if p.snap is not None]
            assert sum(len(entries) for _, entries in snaps) <= runtime._snapshots(prog.k_max) * cap
            assert len(snaps) <= math.floor(math.log2(shots))
            seen.append(st.rows)
            split = fn(st, part, *args)
            assert st.rows << st.k <= cap
            return split
        return step

    _watch(prog, watched)
    state = ShotState(prog, seed=3)
    rows = _sampled_rows(prog, state, 3, 0, shots, None)
    assert max(seen) > 1  # some step ran a batch of several rows
    assert (rows == _rows_alone(prog, 3, 0, shots, None)).all()


def test_the_walk_buffer_stays_inside_the_walk_steps(monkeypatch):
    # the path walk's steps run under _WALK_BUF; the spans, the checks and
    # the closure VM under the caller's buffer size, which is back after a
    # call, a partly consumed stream and a shot that fails mid-walk; and the
    # buffer size changes no sum
    prog = next(p for p in _corpus(9) if any(type(i) is PostSelectIns for i in p.instrs))
    seen = {"step": set(), "span": set(), "check": set(), "shot": set()}

    def spy(name, fn):
        def call(*args):
            seen[name].add(np.getbufsize())
            return fn(*args)
        return call

    monkeypatch.setattr(frametable, "_span", spy("span", frametable._span))
    monkeypatch.setattr(frametable, "_check", spy("check", frametable._check))
    _watch(prog, lambda fn: spy("step", fn))
    calls = 0

    def failing(fn):
        def step(*args):
            nonlocal calls
            calls += 1
            if calls == 5:
                raise runtime.ShotError("planted")
            return fn(*args)
        return step

    with np.errstate():
        np.setbufsize(4096)
        sample_accumulate(prog, 50, seed=1)
        assert np.getbufsize() == 4096
        stream = sample(prog, 50, seed=1)
        next(stream)
        assert np.getbufsize() == 4096
        stream.close()
        run_shot(prog, shot=3, trace=lambda st, ins: seen["shot"].add(np.getbufsize()))
        assert seen == {"step": {frametable._WALK_BUF}, "span": {4096}, "check": {4096},
                        "shot": {4096}}
        _watch(prog, failing)
        with pytest.raises(runtime.ShotError, match="planted"):
            sample_accumulate(prog, 50, seed=1)
        assert np.getbufsize() == 4096
    rot = _rot_n14_program()
    want = sample_accumulate(rot, 200)
    monkeypatch.setattr(frametable, "_WALK_BUF", 8192)
    got = sample_accumulate(rot, 200)
    for key in ("measurements", "detectors", "observables"):
        assert (got[key] == want[key]).all()


def test_k10_records_match_each_shot_alone():
    # more than a chunk of criterion 10's program, hundreds of paths a
    # chunk, against run_shot of each shot
    prog = _k10_program()
    shots = runtime._fold_shots(prog) + 50
    state = ShotState(prog, seed=8)
    alone = [_tuple(run_shot(prog, state, shot=shot)) for shot in range(shots)]
    assert [_tuple(r) for r in sample(prog, shots, seed=8)] == alone


def test_chunk_rows_equal_rows_built_per_shot(monkeypatch):
    # postselected corpus programs and a stratum: a chunk's rows equal each
    # shot's row alone; sample_accumulate sums sample's accepted records;
    # keep_rejected=False drops exactly the rejected shots; and a pool of
    # two gives the serial records
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rejected = strata = 0
    for i, prog in enumerate(_corpus(9)):
        for stratum in (None, StratumSpec(prog, 1) if prog.sites else None):
            strata += stratum is not None
            rows = _sampled_rows(prog, ShotState(prog, seed=i), i, 10, 70, stratum)
            assert (rows == _rows_alone(prog, i, 10, 70, stratum)).all()
            records = [_tuple(r) for r in sample(prog, 70, seed=i, stratum=stratum)]
            kept = [_tuple(r) for r in sample(prog, 70, seed=i, stratum=stratum,
                                              keep_rejected=False)]
            accepted = [r for r in records if r[3]]
            assert kept == accepted
            rejected += len(records) - len(accepted)
            assert [_tuple(r) for r in sample(prog, 70, seed=i, stratum=stratum,
                                              workers=2)] == records
            acc = sample_accumulate(prog, 70, seed=i, stratum=stratum)
            assert acc["accepted"] == len(accepted)
            for j, key in enumerate(("measurements", "detectors", "observables")):
                want = np.sum([r[j] for r in accepted], axis=0, dtype=np.int64) \
                    if accepted else 0
                assert (acc[key] == want).all()
    assert rejected > 0 and strata > 0


def _rot8_program():
    """The rot_n14 circuit at 8 qubits: its walk defers rows past the
    capacity."""
    return compile_circuit(random_circuit(np.random.default_rng(0), 8, 400, p_noise=1e-3,
                                          rot_rate=0.3, measure_rate=0.03))


def _sampled(prog, shots: int, stratum) -> tuple:
    acc = sample_accumulate(prog, shots, seed=5, stratum=stratum)
    return ([_tuple(r) for r in sample(prog, shots, seed=5, stratum=stratum)],
            [acc[key].tolist() for key in ("measurements", "detectors", "observables")],
            acc["accepted"], acc["weight_sum"])


def test_python_and_numpy_bookkeeping_sample_alike(monkeypatch):
    # every part's steps keep their rows in Python lists (_FEW = 2^20), or
    # every part's in numpy (_FEW = 0): the records are the default's
    noisy = compile_circuit(NOISY, postselect_detectors=(0,))
    cases = [(_forking_program(), 400, None), (compile_circuit(COINS), 300, None),
             (noisy, 600, StratumSpec(noisy, 2)), (_k10_program(), 300, None),
             (_rot8_program(), 200, None)]
    for prog, shots, stratum in cases:
        want = _sampled(prog, shots, stratum)
        for few in (0, 1 << 20):
            monkeypatch.setattr(runtime, "_FEW", few)
            assert _sampled(prog, shots, stratum) == want, (few, prog.k_max)
        monkeypatch.undo()
