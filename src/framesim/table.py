"""The frame table: how every program is sampled.

A shot's output bits are a constant XOR the effect rows of the random
inputs that fire: a noise site's case, a ``MeasDormantRandom`` coin, or a
``MeasCollapse`` that takes branch 1. :func:`_build_table` makes every row
in one backward walk (about 2.5 ms for the d=25, 25-round repetition code,
against 3.7 ms for the forward walk and transpose it replaced);
``runtime._frame_table`` builds the table on a program's first sampling
call and keeps it in the program's runtime cache. The frame X bit that an
``Expand`` or ``ArrayRot`` reads, its probe bit, is a hidden column of the
rows. A backward effect row is zero in every column read before its input
fires, so a shot's probe bit is that column of its XOR row, read after all
the draws of the shot's span.

:func:`_table_shots` then runs a chunk of shots one span at a time, a span
being the draws between two postselections: one numpy grid holds each
shot's next draws as a shot without faults would make them, numpy clears
the shots that surely survive every hazard segment, and the rest run their
first unsure segment in lock-step and are gridded again from the next part
(600 shots of that code: about 1.5 ms against 2.3 ms for one lock-step pass
per noise block; three to five grids, the second for about 290 shots).
A shot's draws never depend on its path, so a span also holds each
collapse's draw; after the span, the path walk of a program with an active
array runs its ``ArrayGate``, ``Expand``, ``ArrayRot`` and ``MeasCollapse``
instructions up to the next check, on the batch of the chunk's paths.
Each shot keeps its own draw counter, so it makes exactly the closure VM's
draws, in instruction order, and stops at a failed postselection. numpy
only clears shots that surely survive a hazard segment; every draw that may
fire a fault takes the serial VM's arithmetic (``math.log1p``, the same
float sum and search), so records are bit-identical to the closure VM's.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .backend import (
    _FRAME_OPCODES,
    ArrayGate,
    ArrayRot,
    BytecodeProgram,
    CondFrame,
    DetectorIns,
    Expand,
    FrameGates,
    MeasCollapse,
    MeasDormantRandom,
    MeasDormantStatic,
    NoiseBlock,
    ObservableIns,
    PostSelectIns,
    _block_plan,
)
from .rng import _MAX_WIDTH, ShotRng, ShotStreams

# span parts: a segment, a coin, a certain (p=1) site, a collapse's draw
_NOISE, _COIN, _SURE, _COLLAPSE = 0, 1, 2, 3
_TABLE_BITS = 1 << 28  # most bits of rows a table's build may hold: 32 MiB
_GUARD = 2.0 ** -40  # a lock-step survival's margin, relative to the bound (_may_fault)
_GRID = 1 << 16  # most draws of one span grid; more shots take several grids
_XOR_PAIRS = 1 << 12  # most effect rows gathered at once for _xor_rows


@dataclass(slots=True, eq=False)
class _Span:
    """A run of the draw sequence without a check, as the parts a shot draws
    for, in order: hazard segments (``_NOISE``), certain sites (``_SURE``),
    coins (``_COIN``) and collapses (``_COLLAPSE``), the part kinds in
    ``kind``. A shot in which no fault fires makes ``off[k]`` draws before
    part k and ``off[-1]`` in all; those offsets are its draws' columns in
    :func:`_span`'s grid.

    Per part, [``lo``, ``hi``) are a segment's sites or a certain site's,
    and ``lo`` a coin's or a collapse's effect row. ``seg`` lists the
    segments, with the cumulative hazards at their ends; ``fixed`` lists the
    certain sites and coins, which fire without a hazard draw: ``coin``
    marks its coins, whose draws are in the columns ``coin_col``. ``coll``
    lists the collapses, which never fire by themselves: the draw of the
    j-th, in column ``coll_col[j]``, is kept for the path walk."""

    kind: np.ndarray
    off: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    seg: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    fixed: np.ndarray
    coin: np.ndarray
    coin_col: np.ndarray
    coll: np.ndarray
    coll_col: np.ndarray


@dataclass(slots=True, eq=False)
class _Active:
    """An instruction of the path walk, ``ins``: an ``ArrayGate``; an
    ``Expand`` or ``ArrayRot``, whose probe bit is the hidden column ``at``;
    or a ``MeasCollapse``, whose branch 1 is the effect row ``at`` and whose
    draw is the ``j``-th collapse draw of its span."""

    ins: object
    at: int = 0
    j: int = 0


@dataclass(slots=True, eq=False)
class _Part:
    """Shots of a chunk that walk on from item ``pc`` of the table's spans:
    ``shots``, their indices in the chunk, and ``rows``, each one's row of
    the path walk's batch (None without a walk). A deferred part holds
    ``snap``, its rows ``(k, entries)``, which the batch takes when the
    part resumes."""

    pc: int
    shots: np.ndarray
    rows: np.ndarray | None
    snap: tuple | None = None

    def keep(self, mask: np.ndarray) -> None:
        self.shots = self.shots[mask]
        if self.rows is not None:
            self.rows = self.rows[mask]


@dataclass(slots=True, eq=False)
class _FrameTable:
    """A program as XOR effects on its output bits.

    Output bit p of a shot is bit p of the constant row XOR the effect row of
    each fault that fires, each coin that comes up 1 and each collapse that
    takes branch 1. ``effects`` holds one row of ``nbytes`` little-endian
    bytes per random input: row 0 is the constant, row ``first[site] +
    case`` a fault. The first bits are the user records, detectors and
    observables, in that order; a bit above them is hidden: an observable
    as it stood at a postselection that a later ``ObservableIns`` changes,
    or the frame X bit that an ``Expand`` or ``ArrayRot`` reads, its probe
    bit. A row is padded to whole 64-bit words, so the shots' rows are
    XORed as words.

    ``spans`` is the shot's sequence, in instruction order: each run of
    draws between postselections as a :class:`_Span` (the d=25, 25-round
    repetition code's 25 noise blocks are one span), followed by the
    instructions of the path walk up to the next check, each an
    :class:`_Active`, and each postselection as a check ``(bit, required,
    keep, moves)``. A failed check ends the shot with the output bits
    ``keep`` written before it and, for each ``(hidden, obs)`` of
    ``moves``, the hidden snapshot moved onto its observable.
    ``collapses`` is the most collapse draws of one span. The remaining
    fields are the program's sites and ``cum_hazard`` in the forms the
    draws read.
    """

    effects: bytes
    nbytes: int     # bytes of one packed shot, hidden bits and padding included
    hazard: np.ndarray  # the program's cum_hazard
    first: np.ndarray   # per site, the effect row of case 0
    prob: np.ndarray    # per site, its probability
    ncases: np.ndarray  # per site, its case count
    case_cum: np.ndarray  # per site of several cases: case_cum, inf-padded
    spans: list
    collapses: int


def _transpose(sx: list, sz: list, gates) -> None:
    """Map the rows ``sx``, ``sz`` back through the Clifford word ``gates``
    by each gate's transpose, last gate first."""
    for g, a, b in reversed(gates):
        op = _FRAME_OPCODES[g]
        if op == 2:  # CX
            sx[a] ^= sx[b]
            sz[b] ^= sz[a]
        elif op == 0:  # H
            sx[a], sz[a] = sz[a], sx[a]
        elif op == 1:  # S
            sx[a] ^= sz[a]
        else:  # CZ
            sx[a] ^= sz[b]
            sx[b] ^= sz[a]


def _build_table(prog: BytecodeProgram):
    """The program's :class:`_FrameTable`, or None when its build would hold
    more than _TABLE_BITS bits of rows. Walk ``prog.instrs`` once,
    backwards, holding for each frame bit and record the output bits it
    flips from that point on, as Python ints over output bits: ``sx[q]`` and
    ``sz[q]`` for virtual qubit q's frame X and Z bits, ``recs[r]`` for
    record r. A gate maps them by its transpose, and a probe adds its hidden
    column to the X bit it reads. A fault's effect row is the XOR of the
    rows of the frame bits its case flips; a coin's or a collapse's branch
    the row of its record XOR that of the frame X bit it sets. Each is
    packed to bytes once, and no transpose is needed. The walk meets the
    sequence backwards: at each check and at the end it closes the path
    walk's instructions and the span parts met since the last check
    (:func:`_close`), and it reverses the list.

    A check's hidden bits are made when the walk reaches it: an observable
    that an ``ObservableIns`` after the check changes gets one, and each
    ``ObservableIns`` of that observable before the check flips it too, so
    it holds the observable as it stood at the check."""
    sites = prog.sites
    nm, nd, no = len(prog.user_records), prog.num_detectors, prog.num_observables
    width = nm + nd + no
    kinds = Counter(map(type, prog.instrs))
    n_inputs = 1 + kinds[MeasDormantRandom] + kinds[MeasCollapse] + sum(len(s.case_x) for s in sites)
    # the walk holds, besides the effect rows, the rows sx, sz, recs and
    # obs_bits, and user_bit, whose p-th user record holds p + 1 bits; a
    # row's columns are the output bits, the probe bits and the hidden
    # observables of the checks
    held = n_inputs + 2 * prog.n + prog.record_count + no
    cols = width + kinds[Expand] + kinds[ArrayRot] + kinds[PostSelectIns] * no
    if held * cols + nm * (nm + 1) // 2 > _TABLE_BITS:
        return None
    sx = [0] * prog.n
    sz = [0] * prog.n
    recs = [0] * prog.record_count
    user_bit = [0] * prog.record_count  # per record, its output bit if a user record
    for p, r in enumerate(prog.user_records):
        user_bit[r] = 1 << p
    obs0 = nm + nd
    # per observable: its output bit and the hidden bits of the checks after
    obs_bits = [1 << (obs0 + o) for o in range(no)]
    touched = 0  # the observables that an ObservableIns after this point changes
    after = 0  # the record and detector bits written after this point
    hidden = width  # the next hidden bit
    rows = [0] * n_inputs  # effect rows as ints; row 0 is the constant
    nxt = n_inputs  # one past the row of the last input not yet met
    site_bit = [0] * len(sites)
    hazard = np.array(prog.cum_hazard)
    spans: list = []  # the spans, path walk instructions and checks met, backwards
    run: list = []  # the span parts met since the last check, backwards
    acts: list = []  # the path walk's instructions met since then, backwards
    collapses = 0
    for ins in reversed(prog.instrs):
        t = type(ins)
        if t is MeasDormantStatic:
            r = ins.record
            bit = user_bit[r]
            after |= bit
            row = recs[r] ^ bit
            sx[ins.virt] ^= row
            if ins.flip:
                rows[0] ^= row
        elif t is DetectorIns:
            bit = 1 << (nm + ins.index)
            after |= bit
            for r in ins.records:
                recs[r] ^= bit
        elif t is CondFrame:
            # the record flips the outputs of the frame bits it feeds forward
            row, m = 0, ins.xmask
            while m:
                low = m & -m
                row ^= sx[low.bit_length() - 1]
                m ^= low
            m = ins.zmask
            while m:
                low = m & -m
                row ^= sz[low.bit_length() - 1]
                m ^= low
            recs[ins.record] ^= row
        elif t is FrameGates:
            _transpose(sx, sz, ins.gates)
        elif t is NoiseBlock:
            lo, hi = ins.lo, ins.hi
            for s in range(hi - 1, lo - 1, -1):
                site = sites[s]
                nxt -= len(site.case_x)
                site_bit[s] = nxt
                i = nxt
                for cx, cz in zip(site.case_x, site.case_z):
                    row = 0  # the outputs of the frame bits the case flips
                    while cx:
                        low = cx & -cx
                        row ^= sx[low.bit_length() - 1]
                        cx ^= low
                    while cz:
                        low = cz & -cz
                        row ^= sz[low.bit_length() - 1]
                        cz ^= low
                    rows[i] = row
                    i += 1
            run += [(_SURE, p, p + 1, int(len(sites[p].case_cum) > 1)) if isinstance(p, int)
                    else (_NOISE, *p, 1) for p in reversed(_block_plan(sites, lo, hi))]
        elif t is MeasDormantRandom or t is MeasCollapse:
            v, r = ins.virt, ins.record
            bit = user_bit[r]
            after |= bit
            row = recs[r] ^ bit
            if ins.flip:
                rows[0] ^= row
            nxt -= 1
            # a coin or a branch 1 flips the record and sets the new X bit
            rows[nxt] = row ^ sx[v]
            if t is MeasDormantRandom:
                # the new X bit is the old Z bit XOR the coin; the new Z bit
                # is the old X bit
                sx[v], sz[v] = sz[v], rows[nxt]
                run.append((_COIN, nxt, 0, 1))
            else:
                # the old X bit is the record's parity, and stays
                sx[v] ^= row
                _transpose(sx, sz, ins.pre_gates)
                run.append((_COLLAPSE, nxt, 0, 1))
                acts.append(_Active(ins, nxt))
        elif t is ObservableIns:
            bits = obs_bits[ins.index]
            touched |= 1 << ins.index
            for r in ins.records:
                recs[r] ^= bits
        elif t is PostSelectIns:
            # a postselected record is always a user record
            p = (nm + ins.ref if ins.kind == "detector"
                 else user_bit[ins.ref].bit_length() - 1)
            moves = []
            for o in range(no):
                if touched >> o & 1:
                    moves.append((hidden, obs0 + o))
                    obs_bits[o] |= 1 << hidden
                    hidden += 1
            keep = ((1 << width) - 1) & ~after & ~(touched << obs0)
            collapses = max(collapses, _close(spans, run, acts, hazard))
            run, acts = [], []
            spans.append((p, ins.required, keep, tuple(moves)))
        elif t is ArrayGate:
            _transpose(sx, sz, ((ins.gate, ins.va, ins.vb),))
            acts.append(_Active(ins))
        elif t is Expand or t is ArrayRot:
            sx[ins.virt] ^= 1 << hidden  # the probe reads the frame X bit here
            acts.append(_Active(ins, hidden))
            hidden += 1
        else:
            raise TypeError(f"{t.__name__} has no frame-table form")
    collapses = max(collapses, _close(spans, run, acts, hazard))
    spans.reverse()
    nbytes = 8 * max(1, (hidden + 63) // 64)
    ncases = [len(s.case_cum) for s in sites]
    case_cum = np.full((len(sites), max(ncases, default=1)), np.inf)
    for i, n in enumerate(ncases):
        if n > 1:  # a one-case site draws no case
            case_cum[i, :n] = sites[i].case_cum
    return _FrameTable(
        effects=b"".join([row.to_bytes(nbytes, "little") for row in rows]),
        nbytes=nbytes, hazard=hazard,
        first=np.array(site_bit, dtype=np.int64),
        prob=np.array([s.prob for s in sites], dtype=np.float64),
        ncases=np.array(ncases, dtype=np.int64),
        case_cum=case_cum,
        spans=spans, collapses=collapses)


def _close(spans: list, run: list, acts: list, hazard: np.ndarray) -> int:
    """Put the path walk's instructions ``acts`` and then the span of the
    parts ``run``, both met backwards since the last check, on ``spans``,
    which is backwards too; number the span's collapse draws, and return
    how many it has."""
    colls = [a for a in reversed(acts) if type(a.ins) is MeasCollapse]
    for j, a in enumerate(colls):
        a.j = j
    spans += acts
    if run:
        spans.append(_span_of(run, hazard))
    return len(colls)


def _span_of(parts: list, hazard: np.ndarray) -> _Span:
    """The :class:`_Span` of ``parts``, span parts ``(kind, lo, hi,
    fault-free draws)`` given backwards."""
    kind, lo, hi, draws = (np.array(col, dtype=np.int64) for col in zip(*reversed(parts)))
    off = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(draws, out=off[1:])
    seg = (kind == _NOISE).nonzero()[0]
    fixed = ((kind == _SURE) | (kind == _COIN)).nonzero()[0]
    coin = kind[fixed] == _COIN
    coll = (kind == _COLLAPSE).nonzero()[0]
    return _Span(kind=kind, off=off, lo=lo, hi=hi, seg=seg, seg_start=hazard[lo[seg]],
                 seg_end=hazard[hi[seg]], fixed=fixed, coin=coin, coin_col=off[fixed[coin]],
                 coll=coll, coll_col=off[coll])


def _table_shots(tab: _FrameTable, seed: int, lo: int, hi: int, stratum,
                 keep_rejected: bool, walk=None) -> tuple[np.ndarray, np.ndarray]:
    """Shots [lo, hi) of a frame table, as ``runtime._shot_rows`` returns
    them; a row has ``tab.nbytes`` bytes, hidden bits and padding included.

    The shots run a span at a time (:func:`_span`) and stop at a failed
    check; ``acc`` accumulates their output rows and ``uniforms`` each
    one's collapse draws of its span. Each shot keeps its own draw counter,
    so it makes the serial VM's draws in its order: the stratum's fault
    list, then per part a segment's hazard-skip draws, a certain site's
    case, a coin's bit or a collapse's uniform. A stratum's shots run each
    part of a span in lock-step, and draw only the cases their listed sites
    leave open.

    A program with an active array gives ``walk``, ``(state, steps)``: after
    each span its path walk runs the instructions up to the next check,
    item ``pc`` of ``tab.spans`` as ``steps[pc](state, part, acc,
    uniforms)`` (``runtime._path_steps``) on ``state``'s batch. A step may
    defer some of the part's shots with a snapshot of their rows, returning
    them as a :class:`_Part`; the walk is depth first, and a deferred part
    reruns its step when the parts after it are done.
    """
    nbytes = tab.nbytes
    effects = np.frombuffer(tab.effects, dtype="<u8").reshape(-1, nbytes // 8)
    streams = ShotStreams(seed, lo, hi)
    acc = np.empty((hi - lo, nbytes // 8), dtype="<u8")
    acc[:] = effects[0]
    acc8 = acc.view(np.uint8)
    accepted = np.ones(hi - lo, dtype=bool)
    uniforms = np.empty((hi - lo, tab.collapses))
    forced = None if stratum is None else _forced_sites(stratum, streams)

    def fire(rows, sites) -> None:
        """Shots ``rows`` (distinct) fault at ``sites``: draw each case
        where a site has several, as ``_pick_case`` does, and XOR its
        effect."""
        acc[rows] ^= effects[_fault_rows(tab, sites, lambda m: streams.uniform(rows[m]))]

    parts = [_Part(0, np.arange(hi - lo), None)]
    if walk is not None:
        st, steps = walk
        st.k, st.rows = 0, 1
        st.buf[0] = 1
        parts[0].rows = np.zeros(hi - lo, dtype=np.intp)
        st.pending = parts
    while parts:
        part = parts.pop()
        if part.snap is not None:
            st.restore(part.snap)
        for pc in range(part.pc, len(tab.spans)):
            item = tab.spans[pc]
            if type(item) is _Active:
                split = steps[pc](st, part, acc8, uniforms)
                if split is not None:
                    split.pc = pc
                    parts.append(split)
                continue
            run = part.shots
            if type(item) is _Span and forced is None:
                step = max(1, _GRID // max(int(item.off[-1]), 1))
                for i in range(0, len(run), step):
                    _span(tab, item, streams, acc, effects, fire, run[i:i + step], uniforms)
                continue
            if type(item) is _Span:
                j = 0
                for kind, a, b in zip(item.kind.tolist(), item.lo.tolist(), item.hi.tolist()):
                    if kind == _COIN:
                        acc[run[streams.uniform(run) >= 0.5]] ^= effects[a]
                        continue
                    if kind == _COLLAPSE:
                        uniforms[run, j] = streams.uniform(run)
                        j += 1
                        continue
                    for col in forced:  # each shot's k-th listed site in [a, b), in turn
                        sites = col[run]
                        hit = ((sites >= a) & (sites < b)).nonzero()[0]
                        if len(hit):
                            fire(run[hit], sites[hit])
                continue
            a, b, keep, moves = item  # a check
            fail = (acc8[run, a >> 3] >> (a & 7)) & 1 != b
            if fail.any():
                rows = run[fail]
                old = acc8[rows]
                new = old & np.frombuffer(keep.to_bytes(nbytes, "little"), dtype=np.uint8)
                for hidden, obs in moves:
                    new[:, obs >> 3] |= ((old[:, hidden >> 3] >> (hidden & 7)) & 1) << (obs & 7)
                acc8[rows] = new
                accepted[rows] = False
                part.keep(~fail)
                if not len(part.shots):
                    break
    if keep_rejected:
        return acc8, accepted
    return acc8[accepted], accepted[accepted]


def _fault_rows(tab: _FrameTable, sites: np.ndarray, uniform) -> np.ndarray:
    """The effect rows of faults at ``sites``: ``uniform(m)`` gives the
    case draws of the entries ``m`` whose site has several cases, which
    pick the case as ``_pick_case`` does."""
    row = tab.first[sites]
    multi = (tab.ncases[sites] > 1).nonzero()[0]
    if len(multi):
        s = sites[multi]
        u = uniform(multi) * tab.prob[s]
        # bisect_right: the count of case_cum entries <= u
        case = np.count_nonzero(tab.case_cum[s] <= u[:, None], axis=1)
        row[multi] += np.minimum(case, tab.ncases[s] - 1)
    return row


def _span(tab: _FrameTable, span: _Span, streams: ShotStreams, acc: np.ndarray,
          effects: np.ndarray, fire, rows: np.ndarray, uniforms: np.ndarray) -> None:
    """Shots ``rows`` run ``span``, a grid of draws at a time.

    Each round draws, for each shot, the uniforms a fault-free shot would
    draw from the shot's next part on, one per column. Where
    :func:`_may_fault` clears every segment, the shot is done: its coins and
    certain sites fire from their columns, and its collapse draws go to its
    row of ``uniforms``. Otherwise the parts before its first unsure segment
    do, and the shot runs that segment as :func:`_segment`, whose faults
    shift its counter; it starts the next round at the next part.
    """
    nparts = len(span.off) - 1
    draws = int(span.off[-1])
    seg, fixed, coll = span.seg, span.fixed, span.coll
    p0 = np.zeros(len(rows), dtype=np.int64)  # each shot's next part
    start = streams.counts[rows].astype(np.int64)  # its counter at part 0, had it no fault
    while True:
        u = streams.uniforms(rows, start, draws)
        stop = np.full(len(rows), nparts)  # each shot's first unsure segment
        if len(seg):
            unsure = _may_fault(span.seg_start, u[:, span.off[seg]], span.seg_end)
            unsure &= seg >= p0[:, None]
            some = unsure.any(axis=1).nonzero()[0]
            stop[some] = seg[unsure[some].argmax(axis=1)]
        if len(fixed):
            fired = (fixed >= p0[:, None]) & (fixed < stop[:, None])
            if len(span.coin_col):
                fired[:, span.coin] &= u[:, span.coin_col] >= 0.5
            k, c = fired.nonzero()  # k ascending
            parts = fixed[c]
            which = span.lo[parts]
            sure = (~span.coin[c]).nonzero()[0]
            if len(sure):
                which[sure] = _fault_rows(tab, which[sure],
                                          lambda m: u[k[sure[m]], span.off[parts[sure[m]]]])
            _xor_rows(acc, rows, k, effects, which)
        if len(coll):  # the collapse draws of this round's parts
            k, c = ((coll >= p0[:, None]) & (coll < stop[:, None])).nonzero()
            uniforms[rows[k], c] = u[k, span.coll_col[c]]
        streams.counts[rows] = start + span.off[stop]
        left = (stop < nparts).nonzero()[0]
        if not len(left):
            return
        rows, part = rows[left], stop[left]
        _segment(tab, streams, fire, rows, span.lo[part], span.hi[part])
        going = (part + 1 < nparts).nonzero()[0]
        if not len(going):
            return
        rows, p0 = rows[going], part[going] + 1
        start = streams.counts[rows].astype(np.int64) - span.off[p0]


def _xor_rows(acc: np.ndarray, rows: np.ndarray, k: np.ndarray, effects: np.ndarray,
              which: np.ndarray) -> None:
    """``acc[rows[k[i]]] ^= effects[which[i]]`` for each i, where ``k`` is
    ascending and may repeat: the effects of each shot are XORed together
    first, _XOR_PAIRS at a time."""
    for i in range(0, len(k), _XOR_PAIRS):
        kk = k[i:i + _XOR_PAIRS]
        heads = np.flatnonzero(np.r_[True, kk[1:] != kk[:-1]])
        acc[rows[kk[heads]]] ^= np.bitwise_xor.reduceat(effects[which[i:i + _XOR_PAIRS]],
                                                        heads, axis=0)


def _may_fault(start, u: np.ndarray, s_b) -> np.ndarray:
    """Where the hazard-skip draws ``u`` (uniforms) taken at cumulative
    hazard ``start`` may end below ``s_b``: only those shots run the serial
    loop's exact arithmetic, and every other one surely survives.

    numpy never decides that a fault fires: ``np.log1p`` and ``math.log1p``
    may differ in the last bits. Each is within a few ulps of log1p, so the
    two targets t = start + exponential (start >= 0) differ by at most
    2^-47 of the larger. Were the serial target below s_b while the numpy
    one reached s_b + g, with g = 2^-40 max(|s_b|, 1), the numpy target
    would be below s_b / (1 - 2^-47), and the two would differ by less than
    2^-46 max(|s_b|, 1), far below g.
    """
    return start - np.log1p(-u) < s_b + _GUARD * np.maximum(np.abs(s_b), 1.0)


def _segment(tab: _FrameTable, streams: ShotStreams, fire, rows: np.ndarray,
             pos: np.ndarray, stop: np.ndarray) -> None:
    """Shots ``rows`` run the hazard-skip loop, each over its own sites
    [pos, stop), which hold no certain site, in lock-step: "while any shot
    is still inside its segment", each such shot draws its next
    exponential. A shot that :func:`_may_fault` takes the serial loop's
    arithmetic, whose results numpy reproduces exactly: ``math.log1p`` per
    draw, one float addition, and ``bisect_right`` on S as a
    ``searchsorted``; it fires the site it finds.
    """
    hazard = tab.hazard
    while len(rows):
        u = streams.uniform(rows)
        k = _may_fault(hazard[pos], u, hazard[stop]).nonzero()[0]
        if not len(k):
            return
        # the serial VM's sum S[i] + -math.log1p(-u), as the same float ops
        target = hazard[pos[k]] + -np.array(list(map(math.log1p, (-u[k]).tolist())))
        hit = (target < hazard[stop[k]]).nonzero()[0]
        if not len(hit):
            return
        rows, stop = rows[k[hit]], stop[k[hit]]
        # bisect_right(S, target, i + 1, b + 1) - 1: S[i] <= target < S[b]
        sites = np.searchsorted(hazard, target[hit], side="right") - 1
        fire(rows, sites)
        inside = (sites + 1 < stop).nonzero()[0]
        rows, pos, stop = rows[inside], sites[inside] + 1, stop[inside]


def _forced_sites(stratum, streams: ShotStreams) -> np.ndarray:
    """Each shot's stratum fault list, drawn first as the closure VM draws
    it (``ShotRng._each_slot``), on tables of at most _GRID draws (a list
    draws at most once a site): row k holds each shot's k-th of its w
    sites, and ``streams`` resumes each shot after those draws."""
    width = min(len(stratum.probs), _MAX_WIDTH) if stratum.w else 0
    n, step, rng = len(streams.counts), _GRID // max(width, 1), ShotRng(0)
    forced = np.empty((stratum.w, n), dtype=np.int64)
    for i in range(0, n, step):
        rows = slice(i, i + step)
        rng._put(*streams.table(rows, width))  # the keys are the table's
        lists, streams.counts[rows] = rng._each_slot(stratum.draw_forced, len(rng._keys))
        forced[:, rows] = np.array([[site for site, _ in f] for f in lists], dtype=np.int64).T
    return forced
