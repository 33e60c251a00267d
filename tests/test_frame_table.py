"""The frame table against the closure VM, bit for bit.

``sample`` and ``sample_accumulate`` run every program through its table;
with ``runtime._frame_table`` patched to return None they run the same
program shot by shot on the closure VM, the reference engine. Records,
acceptance, weights and totals must agree exactly, serially and over a fork
pool. The frame-only programs here have no path walk; ``test_walk.py``
samples programs with an active array against their shots alone.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import framesim.rng
import framesim.runtime as runtime
import framesim.table as frametable
from framesim.backend import (
    ArrayRot,
    Expand,
    MeasCollapse,
    MeasDormantRandom,
    NoiseBlock,
    compile_circuit,
)
from framesim.rng import _MAX_WIDTH, ShotRng, ShotStreams
from framesim.runtime import ShotState, StratumSpec, run_shot, sample, sample_accumulate
from framesim.table import _COIN, _COLLAPSE, _NOISE, _SURE, _Active, _may_fault, _Span, _table_shots
from framesim.testing import random_circuit, repetition_code_circuit
from test_sample_pin import FORKING, NOISY
from test_walk import _corpus as _active_corpus

# An observable read before and after a postselected record, so a rejected
# shot keeps the observable as it stood at the check.
POSTSELECTED_RECORD = """\
OBSERVABLE_INCLUDE(0) rec[-1]
M 0
POSTSELECT rec[-1]
OBSERVABLE_INCLUDE(0) rec[-2]
OBSERVABLE_INCLUDE(1) rec[-1]
"""


def _records(prog, shots, seed, **kw) -> list:
    return [(r.measurements.tolist(), r.detectors.tolist(), r.observables.tolist(),
             r.accepted, r.weight) for r in sample(prog, shots, seed=seed, **kw)]


def _totals(prog, shots, seed, stratum) -> tuple:
    acc = sample_accumulate(prog, shots, seed=seed, stratum=stratum)
    return (acc["shots"], acc["accepted"], acc["weight_sum"],
            *(acc[k].tolist() for k in ("measurements", "detectors", "observables")))


def _both(monkeypatch, fn):
    """``fn()`` through the frame table, then through the closure VM."""
    table = fn()
    with monkeypatch.context() as m:
        m.setattr(runtime, "_frame_table", lambda prog: None)
        closure = fn()
    return table, closure


def _corpus(count: int):
    """The rot_rate=0 fuzz corpus: resets, feedforward, M/MX/MY (coins of
    MeasDormantRandom), noise, and in turn a postselected detector or a
    postselected record."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        circ = random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(3, 30)),
                              p_noise=0.2, rot_rate=0.0, reset_rate=0.08,
                              feedforward_rate=0.1)
        text = circ.serialize() + "DETECTOR rec[-1]\n"
        if i % 2:
            yield compile_circuit(text + POSTSELECTED_RECORD)
        else:
            yield compile_circuit(text, postselect_detectors=(0,))


def _strata(prog) -> list:
    return [None] + [StratumSpec(prog, w) for w in (1, 2) if w <= len(prog.sites)]


_CHECK = "check"  # the label _kinds gives a postselection check


def _kinds(tab) -> set:
    """The kinds of a table's span parts, ``_CHECK`` if it has a check and
    ``"moves"`` if a check has moves."""
    kinds = set()
    for item in tab.spans:
        if type(item) is _Span:
            kinds.update(item.kind.tolist())
        elif type(item) is not _Active:  # a check (bit, required, keep, moves)
            kinds.add(_CHECK)
            if item[3]:
                kinds.add("moves")
    return kinds


# Coins, certain (p=1) sites and multi-case sites, across a check: the noise
# block of the second line is one certain site and a segment, the one of
# the third a segment, a certain site and a segment.
CERTAIN_SITES = (
    "H 0\nX_ERROR(1.0) 1\nDEPOLARIZE1(0.4) 0 1\nM 0 1\nDETECTOR rec[-1]\n"
    "X_ERROR(0.2) 2\nY_ERROR(1.0) 0\nDEPOLARIZE2(0.5) 1 2\nM 2\n"
    "POSTSELECT rec[-1]\nH 2\nX_ERROR(0.3) 0\nM 0 2\nDETECTOR rec[-1] rec[-2]\n")


def _dormant_rotation_program():
    """A rotation of a dormant qubit between two noise sites: it emits
    nothing, and the sites stay two adjacent noise blocks. The fuzz corpus
    has no rotations."""
    prog = compile_circuit("X_ERROR(0.2) 0\nT 0\nX_ERROR(0.2) 0\nM 0\nDETECTOR rec[-1]\n")
    assert prog.k_max == 0 and runtime._frame_table(prog) is not None
    assert [type(ins) for ins in prog.instrs[:2]] == [NoiseBlock, NoiseBlock]
    return prog


def test_corpus_exercises_every_table_step():
    kinds = set()
    for prog in _corpus(50):
        assert prog.k_max == 0
        tab = runtime._frame_table(prog)
        assert tab is not None
        kinds |= _kinds(tab)
    assert kinds == {_NOISE, _COIN, _CHECK, "moves"}


@pytest.mark.parametrize("seed", [3, 11])
def test_table_records_match_closure_vm_on_corpus(monkeypatch, seed):
    rejected = 0
    for prog in [compile_circuit(CERTAIN_SITES), _dormant_rotation_program(), *_corpus(50)]:
        for stratum in _strata(prog):
            for keep in (True, False):
                table, closure = _both(monkeypatch, lambda: _records(
                    prog, 60, seed, stratum=stratum, keep_rejected=keep))
                assert table == closure
                rejected += sum(not r[3] for r in table)
    assert rejected > 0


@pytest.mark.parametrize("seed", [3, 11])
def test_table_totals_match_closure_vm_on_corpus(monkeypatch, seed):
    for prog in [_dormant_rotation_program(), *_corpus(50)]:
        for stratum in _strata(prog):
            table, closure = _both(monkeypatch, lambda: _totals(prog, 60, seed, stratum))
            assert table == closure


@pytest.mark.parametrize("seed", [3, 11])
def test_table_worker_records_match_closure_vm(monkeypatch, seed):
    # one fork pool per program, against the serial closure VM; the stratum
    # and keep_rejected rotate. Chunks of 7 shots give each of the 2 workers
    # more than a chunk of the 60 shots, so every run forks.
    import os

    pools = []
    parallel = runtime._sample_parallel

    def counted(*args):
        pools.append(args[4])
        yield from parallel(*args)

    monkeypatch.setattr(runtime, "_sample_parallel", counted)
    monkeypatch.setattr(runtime, "_chunk_shots", lambda prog: 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for i, prog in enumerate(_corpus(50)):
        strata = _strata(prog)
        stratum = strata[i % len(strata)]
        keep = i % 4 < 2
        with monkeypatch.context() as m:
            m.setattr(runtime, "_frame_table", lambda prog: None)
            closure = _records(prog, 60, seed, stratum=stratum, keep_rejected=keep)
        assert _records(prog, 60, seed, stratum=stratum, keep_rejected=keep,
                        workers=2) == closure
    assert pools == [2] * 50


def test_table_program_forks_only_past_a_chunk_per_worker(monkeypatch, pool_sizes):
    import os

    prog = next(_corpus(1))
    monkeypatch.setattr(runtime, "_chunk_shots", lambda prog: 10)
    serial = _records(prog, 21, 3)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _records(prog, 20, 3, workers=2) == serial[:20]
    assert pool_sizes == []
    assert _records(prog, 21, 3, workers=2) == serial
    assert pool_sizes == [2]


@pytest.mark.parametrize("seed", [5, 6])
def test_table_matches_closure_vm_on_repetition_code(monkeypatch, seed):
    prog = compile_circuit(repetition_code_circuit(25, 25, 1e-3))
    assert runtime._frame_table(prog) is not None
    for workers in (1, 2):
        table, closure = _both(monkeypatch, lambda: _records(prog, 150, seed, workers=workers))
        assert table == closure
    table, closure = _both(monkeypatch, lambda: _totals(prog, 150, seed, None))
    assert table == closure
    stratum = StratumSpec(prog, 2)
    table, closure = _both(monkeypatch, lambda: _records(prog, 40, seed, stratum=stratum))
    assert table == closure


def test_chunk_where_every_shot_faults_matches_closure_vm(monkeypatch):
    # One noise site whose cumulative hazard is set to the largest first
    # exponential of the chunk, as numpy computes it: every shot's serial
    # target falls below it, so every shot faults. Where numpy's log1p
    # rounds that largest draw above math.log1p's, that shot's numpy target
    # lands exactly on the bound, and only the guard sends it to the
    # serial arithmetic that fires its fault.
    shots = 64
    for seed in range(2000):
        u = ShotStreams(seed, 0, shots).uniform(np.arange(shots))  # first draws
        top = float(-np.log1p(-u.max()))
        if top > -math.log1p(-u.max()):
            break
    else:  # numpy's log1p agrees with math.log1p here: a bound just above
        top = math.nextafter(top, math.inf)
    prog = compile_circuit("X_ERROR(0.5) 0\nM 0\n")
    prog.cum_hazard = [0.0, top]
    table, closure = _both(monkeypatch, lambda: _records(prog, shots, seed))
    assert table == closure
    assert all(r[0] == [1] for r in closure)


def _log1p_disagreements() -> list:
    """Uniform draws at which np.log1p and math.log1p differ here, or plain
    draws where they never do."""
    u = np.random.default_rng(7).integers(0, 2**53, 20_000) * 2.0**-53
    differ = np.log1p(-u) != np.array([math.log1p(-x) for x in u.tolist()])
    return (u[differ] if differ.any() else u[:200]).tolist()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(u=st.sampled_from(_log1p_disagreements()) | st.floats(0, 1, exclude_max=True),
       start=st.sampled_from([0.0, 1e-9, 1.0]) | st.floats(0, 1e6),
       offset=st.integers(-2, 2), numpy_side=st.booleans())
def test_sure_survival_never_hides_a_fault_property(u, start, offset, numpy_side):
    # A segment [start, s_b) with s_b within two ulps of either target, also
    # where s_b is far above the segment's own hazard s_b - start: a draw
    # that _may_fault clears must draw no fault in the serial loop.
    exact = start + -math.log1p(-u)
    s_b = float(start - np.log1p(-u)) if numpy_side else exact
    for _ in range(abs(offset)):
        s_b = math.nextafter(s_b, math.copysign(math.inf, offset))
    assume(s_b >= start)
    survives = not _may_fault(np.array([start]), np.array([u]), s_b)[0]
    rng = SimpleNamespace(exponential=lambda: -math.log1p(-u))
    sites = [SimpleNamespace(case_cum=[0.5], prob=0.5)]
    faults = runtime._segment_faults([start, s_b], sites, rng, 0, 1)
    assert not (survives and faults)


def test_table_is_rebuilt_after_instructions_change():
    # the negative controls edit prog.instrs and drop the "_dispatch" entry
    from framesim.backend import MeasDormantStatic

    prog = compile_circuit("X_ERROR(1.0) 0\nM 0\n")
    assert [r[0] for r in _records(prog, 3, 0)] == [[1]] * 3
    prog.instrs = [replace(i, flip=i.flip ^ 1) if isinstance(i, MeasDormantStatic) else i
                   for i in prog.instrs]
    prog.__dict__.pop("_dispatch")
    assert [r[0] for r in _records(prog, 3, 0)] == [[0]] * 3


def test_table_chunks_do_not_change_records(monkeypatch):
    prog = next(_corpus(1))
    whole = _records(prog, 300, 9)
    monkeypatch.setattr(runtime, "_FOLD_BYTES", 7 * len(prog.user_records) + 1)
    assert runtime._chunk_shots(prog) < 300
    assert _records(prog, 300, 9) == whole
    assert _records(prog, 300, 9, workers=2) == whole


def test_grids_and_xor_batches_do_not_change_records(monkeypatch):
    # Grids of at most 7 draws split a chunk's shots over many grids, and
    # XOR batches of 2 rows split one shot's coins across batches.
    progs = [compile_circuit(repetition_code_circuit(5, 5, 0.05)), *_corpus(10)]
    whole = [_records(prog, 100, 2) for prog in progs]
    monkeypatch.setattr(frametable, "_GRID", 7)
    monkeypatch.setattr(frametable, "_XOR_PAIRS", 2)
    assert [_records(prog, 100, 2) for prog in progs] == whole


def _output_bits(rec) -> np.ndarray:
    return np.concatenate([rec.measurements, rec.detectors, rec.observables])


def _coin_free_programs(count: int):
    """The fuzz corpus's circuits without their checks, where no measurement
    draws a coin."""
    rng = np.random.default_rng(2025)
    while count:
        circ = random_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(3, 30)),
                              p_noise=0.2, rot_rate=0.0, reset_rate=0.08,
                              feedforward_rate=0.1)
        prog = compile_circuit(circ.serialize() + "DETECTOR rec[-1]\n")
        if prog.sites and not any(isinstance(i, MeasDormantRandom) for i in prog.instrs):
            count -= 1
            yield prog


def _active_programs() -> list:
    """Programs with an active array: the walk corpus of ``test_walk.py``
    and the forking and noisy programs of the split pin."""
    return [*_active_corpus(20), compile_circuit(FORKING),
            compile_circuit(NOISY, postselect_detectors=(0,))]


def _probed_shot(prog, state, faults, outcomes):
    """A closure-VM shot's output bits followed by the probe bit that each
    ``Expand`` and ``ArrayRot`` reads, the frame X bit of its qubit as a
    trace callback sees it after the step before; None if rejected."""
    instrs = prog.instrs
    probes = [] if type(instrs[0]) not in (Expand, ArrayRot) else [0]
    at = iter(range(1, len(instrs) + 1))

    def trace(st, ins):
        i = next(at)
        if i < len(instrs) and type(instrs[i]) in (Expand, ArrayRot):
            probes.append(st.frame_x >> instrs[i].virt & 1)

    rec = run_shot(prog, state, forced_faults=faults, forced_outcomes=outcomes, trace=trace)
    return np.concatenate([_output_bits(rec), probes]).astype(np.uint8) if rec.accepted else None


def test_effect_rows_match_forced_faults_on_closure_vm():
    # Each noise case's effect row is what that one fault changes in the
    # closure VM's output bits; the constant row is the fault-free output.
    progs = [compile_circuit(repetition_code_circuit(25, 25, 1e-3)),
             *_coin_free_programs(20)]
    multi = 0
    for prog in progs:
        tab = runtime._frame_table(prog)
        width = len(prog.user_records) + prog.num_detectors + prog.num_observables
        effects = np.unpackbits(np.frombuffer(tab.effects, dtype=np.uint8).reshape(
            -1, tab.nbytes), axis=1, count=width, bitorder="little")
        assert len(effects) == 1 + sum(len(s.case_x) for s in prog.sites)
        state = ShotState(prog)
        clean = _output_bits(run_shot(prog, state, forced_faults=[]))
        assert effects[0].tolist() == clean.tolist()
        for site, table in enumerate(prog.sites):
            multi += len(table.case_x) > 1
            for case in range(len(table.case_x)):
                faulty = _output_bits(run_shot(prog, state, forced_faults=[(site, case)]))
                assert effects[tab.first[site] + case].tolist() == (faulty ^ clean).tolist()
    assert multi > 0
    # With an active array, every record an output bit: with the branches
    # of the fault-free shot held (each collapse's outcome forced to its
    # record XOR the row's bit there), a single fault gives the fault-free
    # shot XOR its row, a collapse's row is its branch flipped, and each
    # probe column is the bit the probe reads.
    checked = {"fault": 0, "collapse": 0, "probe": 0}
    for i, prog in enumerate(_active_programs()):
        prog = replace(prog, user_records=tuple(range(prog.record_count)))
        tab = runtime._frame_table(prog)
        width = prog.record_count + prog.num_detectors + prog.num_observables
        acts = [a for a in tab.spans if type(a) is _Active]
        collapses = [a for a in acts if type(a.ins) is MeasCollapse]
        columns = list(range(width)) + [a.at for a in acts if type(a.ins) in (Expand, ArrayRot)]
        effects = np.unpackbits(np.frombuffer(tab.effects, dtype=np.uint8).reshape(
            -1, tab.nbytes), axis=1, bitorder="little")[:, columns]
        state = ShotState(prog, seed=i)
        first = _output_bits(run_shot(prog, state, forced_faults=[]))
        held = {a.ins.record: int(first[a.ins.record]) for a in collapses}
        clean = _probed_shot(prog, state, [], held)
        if clean is None:
            continue
        inputs = [([(site, case)], tab.first[site] + case) for site, table in enumerate(prog.sites)
                  for case in range(len(table.case_x))]
        inputs += [([], a.at) for a in collapses]
        for faults, row in inputs:
            outcomes = {r: b ^ int(effects[row, r]) for r, b in held.items()}
            try:
                got = _probed_shot(prog, state, faults, outcomes)
            except runtime.ShotError:  # the held branch is impossible on this path
                continue
            if got is not None:
                assert (got ^ clean).tolist() == effects[row].tolist()
                checked["fault" if faults else "collapse"] += 1
                checked["probe"] += int(effects[row, width:].any())
    assert min(checked.values()) > 20


def test_stratum_lists_draw_on_bounded_tables():
    # 70 noise sites and one output bit: a table of the first draws of the
    # fault lists is 64 wide, so it holds a thousand shots at a time, and a
    # stratum adds less than _FOLD_BYTES to a chunk's peak (one table of
    # the chunk's 16k shots alone would take 8 MB)
    prog = compile_circuit("X_ERROR(0.01) 0\n" * 70 + "M 0\n")
    tab = runtime._frame_table(prog)
    shots = 1 << 14
    peaks = []
    for stratum in (None, StratumSpec(prog, 1), StratumSpec(prog, 3)):
        tracemalloc.start()
        try:
            rows, _ = _table_shots(tab, 5, 0, shots, stratum, True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        if stratum is not None:  # an odd number of X faults flips the record
            assert (rows[:, 0] & 1).all()
    assert max(peaks[1:]) <= peaks[0] + runtime._FOLD_BYTES


def _draw_programs() -> list:
    """Programs whose table shots draw for coins, certain (p=1) sites and
    multi-case sites, across checks."""
    return [compile_circuit(CERTAIN_SITES), *_corpus(30)]


def test_table_shots_make_the_closure_vm_draws(monkeypatch):
    # Every shot's draw counter after _table_shots equals the draws the
    # closure VM's ShotRng made for that shot, so each shot consumed exactly
    # the serial draws whatever path the grid sent it down; a program with
    # an active array draws its collapses in its spans, for the path walk.
    made = []

    class Recorded(ShotStreams):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(frametable, "ShotStreams", Recorded)
    seen = set()
    # 81 sites: a stratum's draws run past its chunk's table of _MAX_WIDTH
    wide = compile_circuit(repetition_code_circuit(9, 9, 0.01))
    assert len(wide.sites) > _MAX_WIDTH
    for prog in (_draw_programs() + [compile_circuit(repetition_code_circuit(7, 7, 0.01)), wide]
                 + _active_programs()[::3]):
        tab = runtime._frame_table(prog)
        seen |= _kinds(tab) - {"moves"}
        seen.update("certain" for s in prog.sites if s.prob >= 1.0)
        seen.update("multi" for s in prog.sites if len(s.case_x) > 1)
        code = runtime._compiled(prog)
        for stratum in _strata(prog) + [StratumSpec(prog, 0)] * (prog is wide):
            for keep in (True, False):
                made.clear()
                state = ShotState(prog, seed=4)
                walk = (state, runtime._path_steps(prog, tab)) if prog.k_max else None
                _table_shots(tab, 4, 10, 90, stratum, keep, walk)
                draws = []
                for shot in range(10, 90):
                    runtime._run(prog, code, state, shot, stratum)
                    draws.append(state.draws)
                assert made[0].counts.tolist() == draws
    assert seen == {_NOISE, _COIN, _CHECK, _SURE, _COLLAPSE, "certain", "multi"}


@pytest.mark.parametrize("draw, coin", [(1 << 63, 1), ((1 << 63) - 1, 0)])
def test_coin_boundary_in_both_engines(monkeypatch, draw, coin):
    # A draw's uniform is (x >> 11) * 2**-53, exactly 1/2 at x = 2**63: every
    # coin reads u >= 0.5, so that draw is a 1 and the draw below it a 0.
    class Fixed(ShotRng):
        def next_u64(self):
            return draw

    assert (Fixed(0, 0).uniform() >= 0.5) == coin  # a draw of the scalar mixer

    monkeypatch.setattr(framesim.rng, "_mix64_inplace", lambda x, tmp: x.fill(draw))
    rng = ShotRng(0)
    rng._put(*ShotStreams(0, 0, 2).table(slice(None), 1))
    rng._seat(1)  # a slot of a chunk's table
    assert rng._avail == 1
    assert (rng.uniform() >= 0.5) == coin
    prog = compile_circuit("H 0\nM 0\n")
    (meas,) = [i for i in prog.instrs if type(i) is MeasDormantRandom]
    tab = runtime._frame_table(prog)
    assert _kinds(tab) == {_COIN}
    for stratum in (None, StratumSpec(prog, 0)):  # _span's grid, then the stratum branch
        rows, _ = _table_shots(tab, 4, 0, 20, stratum, True)
        assert (rows[:, 0] & 1).tolist() == [coin ^ meas.flip] * 20


# An observable changed after a check by one record and, through a record
# included twice, by nothing: a rejected shot keeps each as it stood there.
CHANGED_AFTER_CHECK = """\
H 0
M 0
OBSERVABLE_INCLUDE(0) rec[-1]
OBSERVABLE_INCLUDE(1) rec[-1]
X_ERROR(0.3) 1
M 1
POSTSELECT rec[-1]
X_ERROR(0.2) 2
M 2
OBSERVABLE_INCLUDE(0) rec[-1]
OBSERVABLE_INCLUDE(1) rec[-1] rec[-1]
OBSERVABLE_INCLUDE(2) rec[-2]
DETECTOR rec[-1]
"""


@pytest.mark.parametrize("seed", [0, 1])
def test_backward_build_keeps_observables_as_at_the_check(monkeypatch, seed):
    prog = compile_circuit(CHANGED_AFTER_CHECK)
    (check,) = [s for s in runtime._frame_table(prog).spans if type(s) is not _Span]
    assert len(check[3]) == 3  # each observable touched after the check moves
    for keep in (False, True):
        table, closure = _both(monkeypatch, lambda: _records(prog, 200, seed,
                                                             keep_rejected=keep))
        assert table == closure
    # rejected shots kept observables 0 and 1 as the coin set them
    assert {tuple(r[2]) for r in table if not r[3]} == {(0, 0, 0), (1, 1, 0)}


def test_oversized_table_falls_back_to_closure_vm(monkeypatch):
    prog = compile_circuit(repetition_code_circuit(3, 3, 0.1))
    monkeypatch.setattr(frametable, "_TABLE_BITS", 10)
    assert runtime._frame_table(prog) is None
    assert len(_records(prog, 20, 1)) == 20


def test_table_budget_counts_the_build_rows(monkeypatch):
    # 2,000 (M 0, DETECTOR) pairs after one fault and one coin: three effect
    # rows of about 4,000 bits fit, but the build's row per record does not
    prog = compile_circuit("X_ERROR(0.3) 0\nH 1\nM 1\n" + "M 0\nDETECTOR rec[-1]\n" * 2000)
    inputs = 1 + len(prog.sites) + sum(type(i) is MeasDormantRandom for i in prog.instrs)
    width = len(prog.user_records) + prog.num_detectors
    assert inputs == 3 and width == 4001
    monkeypatch.setattr(frametable, "_TABLE_BITS", 1 << 20)
    assert inputs * width <= frametable._TABLE_BITS
    assert runtime._frame_table(prog) is None
    table, closure = _both(monkeypatch, lambda: _records(prog, 40, 3))
    assert table == closure
    assert len({tuple(r[0][:2]) for r in table}) > 1  # the fault and the coin vary


def test_mid_sized_repetition_code_samples_on_the_table(monkeypatch):
    # d=61, 100 rounds: the budget counts user_bit as the bits it holds,
    # about nm^2/2 for nm user records, so the build fits in 0.90 of it;
    # d=101 needs 2.49 of it and falls back
    prog = compile_circuit(repetition_code_circuit(61, 100, 1e-3))
    assert runtime._frame_table(prog) is not None
    table, closure = _both(monkeypatch, lambda: _records(prog, 20, 5))
    assert table == closure
    assert len({tuple(r[1]) for r in table}) > 1  # faults fire
    assert runtime._frame_table(compile_circuit(repetition_code_circuit(101, 100, 1e-3))) is None


def test_a_program_without_outputs_samples(monkeypatch):
    # no records, detectors or observables: a chunk still has shots, on the
    # frame table, with and without a path walk, and on the closure VM
    for text in ("H 0\nS 0\n", "H 0\nT 0\n"):
        for table in (True, False):
            with monkeypatch.context() as m:
                if not table:
                    m.setattr(runtime, "_frame_table", lambda prog: None)
                prog = compile_circuit(text)
                assert (runtime._frame_table(prog) is not None) == table
                assert [r.measurements.size for r in sample(prog, 3)] == [0, 0, 0]
                assert sample_accumulate(prog, 3)["accepted"] == 3


# -- property test: small generated circuits -------------------------------------

_P = st.sampled_from([0.1, 0.5, 1.0])


@st.composite
def _frame_circuits(draw):
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    lines, records = [], 0
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["1q", "2q", "noise", "meas", "reset", "ff", "det",
                                     "obs", "post"]))
        if kind == "1q":
            lines.append(f"{draw(st.sampled_from(['H', 'S', 'S_DAG', 'X', 'Y', 'Z']))} "
                         f"{draw(qubit)}")
        elif kind == "2q" and n > 1:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            lines.append(f"{draw(st.sampled_from(['CX', 'CZ', 'SWAP']))} {a} {b}")
        elif kind == "noise":
            op = draw(st.sampled_from(["X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1",
                                       "DEPOLARIZE2"]))
            if op == "DEPOLARIZE2" and n > 1:
                a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
                lines.append(f"{op}({draw(_P)}) {a} {b}")
            elif op != "DEPOLARIZE2":
                lines.append(f"{op}({draw(_P)}) {draw(qubit)}")
        elif kind == "meas":
            lines.append(f"{draw(st.sampled_from(['M', 'MX', 'MY']))} {draw(qubit)}")
            records += 1
        elif kind == "reset":
            lines.append(f"R {draw(qubit)}")
        elif records:
            k = draw(st.integers(1, records))
            if kind == "ff":
                lines.append(f"{draw(st.sampled_from(['CX', 'CZ', 'X', 'Z']))} rec[-{k}] "
                             f"{draw(qubit)}")
            elif kind == "det":
                lines.append(f"DETECTOR rec[-{k}]")
            elif kind == "obs":
                lines.append(f"OBSERVABLE_INCLUDE({draw(st.integers(0, 1))}) rec[-{k}]")
            elif kind == "post":
                lines.append(f"POSTSELECT({draw(st.integers(0, 1))}) rec[-{k}]")
    lines.append("M " + " ".join(str(q) for q in range(n)))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(text=_frame_circuits(), seed=st.integers(0, 2**31 - 1), w=st.integers(0, 2))
def test_table_matches_closure_vm_property(text, seed, w):
    prog = compile_circuit(text)
    assert runtime._frame_table(prog) is not None
    stratum = StratumSpec(prog, w) if w <= len(prog.sites) else None
    with pytest.MonkeyPatch.context() as mp:
        table = (_records(prog, 40, seed, stratum=stratum), _totals(prog, 40, seed, stratum))
        mp.setattr(runtime, "_frame_table", lambda prog: None)
        closure = (_records(prog, 40, seed, stratum=stratum), _totals(prog, 40, seed, stratum))
    assert table == closure
