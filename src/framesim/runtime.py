"""Per-shot bytecode execution over the factored runtime state.

Each program class has one engine. A program with an active array
(``k_max`` > 0) runs on the closure VM below. A frame-only program
(``k_max`` == 0) is sampled through its frame table: the first ``sample`` or
``sample_accumulate`` call walks ``prog.instrs`` once, backwards, holding
for each frame bit and record the output bits it flips from that point on,
so each random input (a noise site's case, a ``MeasDormantRandom`` coin)
gets its packed XOR effect row directly (about 2.5 ms for the d=25,
25-round repetition code, against 3.7 ms for the forward walk and
transpose it replaced). A chunk of shots then runs one span at a time, a span being the
steps between two postselections: one numpy grid holds each shot's next
draws as a shot without faults would make them, numpy clears the shots
that surely survive every hazard segment, and the rest run their first
unsure segment in lock-step and are gridded again from the next part
(600 shots of that code: about 1.5 ms against 2.3 ms for one lock-step
pass per noise block; three to five grids, the second for about 290
shots). Each shot keeps its own draw counter, so it makes exactly the
closure VM's draws in instruction order (the stratum's fault list, then
per ``NoiseBlock`` the hazard-skip draws, or the cases the stratum left
open, and per coin one bit), stopping at a failed postselection. A fired
input XORs its effect row into the shot's output row. numpy only clears
shots that surely survive a hazard segment; every draw that may fire a
fault takes the serial VM's arithmetic (``math.log1p``, the same float
sum and search), so records are bit-identical to the closure VM's.
``run_shot``, ``trace``, ``expectation_probe`` and ``testing.crosscheck``
always use the closure VM, the reference engine, and so does a frame-only
program whose table would exceed ``_TABLE_BITS``.

Sampling has one path for both engines. ``_shot_rows`` runs a range of
shots, on the table or the closure VM, and returns each kept shot's output
bits as packed rows with its acceptance flags; a chunk is about a megabyte
(``_FOLD_BYTES``) of unpacked output bits, and a closure-VM chunk also at
most about ``_CHUNK_WORK`` amplitude operations. ``_chunks`` yields the
chunks in shot order, from this process or from a fork pool, and unpacks
them; ``sample`` yields each row as a ``ShotRecord`` and
``sample_accumulate`` sums them. So records arrive a chunk at a time, and
the first record of a slow program waits for a chunk of tens of shots at
most. The chunks of one process share one ``ShotState``. The pool is
forked after the table or the closures are built, so the workers inherit
them; it keeps at most two chunks per worker in flight, and a table
program forks only when each worker gets more than a whole chunk.

In the closure VM, a shot owns one preallocated :class:`ShotState`: the
active array, the Pauli frame as two Python-int bitmasks, a global scalar,
record, detector and observable bytes, and a counter-based RNG stream. One
loop runs every shot, for ``run_shot`` and ``_shot_rows`` alike: it resets
what a shot reads before it writes it, draws a stratum's forced faults, and
walks the instruction list until the end or a failed postselection. A shot's faults reach the ``NoiseBlock``
kernels in one form, a sorted list of ``(site, case)`` pairs: the
hazard-skip sampler produces it per block, and a forced run (``run_shot``'s
``forced_faults``, ``testing.crosscheck``, ``StratumSpec.draw_forced``)
passes it for the whole shot, where a ``None`` case is drawn when its block
runs, in the order the sampled path draws it. Storage is reused from shot
to shot, and nothing consults the amplitudes to decide control flow (the
compiler fixed the schedule).

The dispatch loop is threaded code: each instruction is specialized once
into a closure with its operands (qubit masks, index tuples, precomputed
rotation phases) bound, so the hot path is a list of calls; every
instruction kind has exactly one kernel. On that path, frame, record and
detector updates are Python int and bytearray operations, never numpy
scalar accesses. An active array of at most ``_SMALL`` entries is a
Python list worked by scalar loops over precomputed indices; a larger one
is a numpy array (capacity 2^k_max) worked by vectorized sweeps over views
built once per state. At these sizes a numpy call costs about a microsecond
whatever it computes, and a strided view costs that again for every run of
its innermost axis, so the kernels make few calls over long runs:

* ``ArrayRot`` multiplies only the branch-1 half, by its phase relative to
  branch 0's, and folds branch 0's phase into ``gamma``; the phase has unit
  modulus, so ``|gamma|^2`` stays the product of the branch probabilities.
* A kernel whose lowest axis is 1 (``S``, ``H``, ``CZ``, ``ArrayRot``) runs
  on the two stride-2 sub-arrays, where that axis becomes axis 0 and each
  view is one long strided run. ``CX`` moves each run of entries below its
  lower axis as one element of a void dtype, and so does ``MeasCollapse``
  when it copies the two halves of a lower axis into ``scratch`` in one
  call (on axis 1 it copies the sub-arrays' halves as long runs instead).
* ``MeasCollapse`` writes its halves, its branch row and its output between
  ``buf`` and ``scratch``, allocating nothing. A branch row of its basis
  change that is one half, their sum or their difference, times a factor
  (the identity, a bare ``H``), costs no multiply or one add; the factor
  goes into the output's scale. ``p_all`` comes from the two halves, one
  pass for the identity, and no ``np.vdot`` spans more than ``_DOT``
  entries.

These forms change rounding, not results. ``gamma`` carries
``ArrayRot``'s branch-0 phase, ``p_all`` is summed over the halves in
their copied order and a row is applied as c (v0 + eps v1), so amplitudes
differ from plain two-half sweeps in the last bits (about 1e-18 absolute
at 2^14 entries), and a record can differ only where a draw lands within
rounding of a branch probability.
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .backend import (
    ArrayGate,
    ArrayRot,
    BytecodeProgram,
    CondFrame,
    DetectorIns,
    Expand,
    FrameGates,
    GammaRot,
    MeasCollapse,
    MeasDormantRandom,
    MeasDormantStatic,
    NoiseBlock,
    ObservableIns,
    PostSelectIns,
    _plan_cost,
)
from .pauli import PauliString
from .rng import ShotRng, ShotStreams

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
BRANCH_FLOOR = 1e-12
_SMALL = 16  # active arrays up to this size live in a Python list
_FOLD_BYTES = 1 << 20  # unpacked output bytes of a chunk of shots
_CHUNK_WORK = 1 << 24  # most amplitude operations of a closure-VM chunk
# entries of the longest np.vdot: OpenBLAS runs a longer one on several
# threads, which doubled the CPU time of a 2^14-entry program's shots on a
# 2-core host for no gain in wall time
_DOT = 1 << 13


class ShotError(RuntimeError):
    pass


class _Halt(Exception):
    """Raised by a failed postselect check to stop the shot immediately."""


@dataclass(slots=True)
class ShotRecord:
    measurements: np.ndarray
    detectors: np.ndarray
    observables: np.ndarray
    accepted: bool
    weight: float


_EMPTY_BITS = np.zeros(0, dtype=np.uint8)


class ShotState:
    """Reusable per-shot storage; capacity fixed by the compiled program.

    * The active array has 2^k entries. While that is at most ``_SMALL``
      it lives in ``amps``, a Python list, where scalar kernels touch no
      numpy; a larger one lives in ``buf`` (complex128, capacity 2^k_max).
      ``active_view()`` returns the live 2^k entries as a prefix of
      ``buf`` either way. ``scratch`` is a work buffer of the same capacity,
      and ``views`` keeps the numpy views of the two that vectorized kernels
      reuse from shot to shot.
    * ``frame_x``/``frame_z`` hold the Pauli frame as Python ints: bit j is
      virtual qubit j, the bit format of every ``PauliString``.
    * ``records``, ``detectors`` and ``observables`` are bytearrays of 0/1
      bytes.

    ``reset`` clears only what a shot reads before writing it: ``amps[0]``,
    the frame, the scalars and the observables, which accumulate by XOR.
    Every record and detector is written before it is read, so they are
    cleared only when a postselection can stop a shot before writing them
    all.
    """

    __slots__ = ("n", "k", "k_max", "amps", "buf", "scratch", "views", "frame_x", "frame_z",
                 "gamma", "records", "detectors", "observables", "weight",
                 "accepted", "rng", "forced_faults",
                 "forced_outcomes", "active_virtuals", "_zero_records",
                 "_blank", "_bits")

    def __init__(self, prog: BytecodeProgram, seed: int = 0):
        self.n = prog.n
        self.k_max = prog.k_max
        cap = 1 << prog.k_max
        self.buf = np.zeros(cap, dtype=np.complex128)
        self.scratch = np.zeros(cap, dtype=np.complex128)
        self.views = {}
        self.amps = [0j] * min(cap, _SMALL)
        self.frame_x = 0
        self.frame_z = 0
        self.records = bytearray(prog.record_count)
        self.detectors = bytearray(prog.num_detectors)
        self.observables = bytearray(prog.num_observables)
        # zero bytes for the clears in reset, and numpy views for make_record
        self._blank = tuple(bytes(len(b)) for b in
                            (self.records, self.detectors, self.observables))
        self._bits = tuple(np.frombuffer(b, dtype=np.uint8) for b in
                           (self.records, self.detectors, self.observables))
        self.rng = ShotRng(seed, 0)
        self.forced_faults = None
        self.forced_outcomes = None
        self.active_virtuals = prog.final_active
        self.gamma = 1.0 + 0.0j
        self.k = 0
        self.weight = 1.0
        self.accepted = True
        # rejected shots stop early; only then can stale bits leak into output
        self._zero_records = any(isinstance(i, PostSelectIns) for i in prog.instrs)

    def reset(self, shot: int) -> None:
        self.amps[0] = 1 + 0j
        self.frame_x = 0
        self.frame_z = 0
        if self._zero_records:
            self.records[:] = self._blank[0]
            self.detectors[:] = self._blank[1]
        if self.observables:
            self.observables[:] = self._blank[2]
        self.gamma = 1.0 + 0.0j
        self.k = 0
        self.weight = 1.0
        self.accepted = True
        self.rng.reset(shot)

    def active_view(self) -> np.ndarray:
        size = 1 << self.k
        if size <= _SMALL:  # the list holds the live entries
            self.buf[:size] = self.amps[:size]
        return self.buf[:size]


# -- instruction specialization --------------------------------------------------
#
# Each _c_* factory binds one instruction's operands and returns run(st).

# the gates the backend emits: localization's CX, CZ and S, plus H
_FRAME_OPCODES = {"H": 0, "S": 1, "CX": 2, "CZ": 3}


def _frame_ops(gates) -> tuple:
    """(opcode, mask_a, mask_b) for each gate of a Clifford word; a gate the
    backend does not emit is a KeyError here, when it is specialized."""
    return tuple((_FRAME_OPCODES[g], 1 << a, 0 if b is None else 1 << b)
                 for g, a, b in gates)


def _conjugate_frame(ops, fx: int, fz: int) -> tuple[int, int]:
    """The frame (fx, fz) conjugated by the word ``ops`` of :func:`_frame_ops`."""
    for op, ma, mb in ops:
        if op == 2:  # CX: x flows control -> target, z target -> control
            if fx & ma:
                fx ^= mb
            if fz & mb:
                fz ^= ma
        elif op == 0:  # H: swap the x and z bits
            if (fx ^ fz) & ma:
                fx ^= ma
                fz ^= ma
        elif op == 1:  # S
            if fx & ma:
                fz ^= ma
        else:  # CZ
            if fx & ma:
                fz ^= mb
            if fx & mb:
                fz ^= ma
    return fx, fz


def _c_frame(ins: FrameGates, prog):
    ops = _frame_ops(ins.gates)

    def run(st: ShotState) -> None:
        st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)

    return run


def _indices(size: int, keep) -> tuple:
    """Array indices i < size with keep(i), in increasing order, for the
    scalar loops; arrays too large for the list need none."""
    if size > _SMALL:
        return ()
    return tuple(i for i in range(size) if keep(i))


def _views(st: ShotState, make):
    """``make(st)``: numpy views of the state's buffers, built once per state."""
    views = st.views.get(make)
    if views is None:
        views = st.views[make] = make(st)
    return views


def _c0(z) -> np.ndarray:
    """A complex 0-d array: as a ufunc operand it costs less per call than a
    Python scalar, which numpy has to convert and promote each time."""
    return np.array(z, dtype=np.complex128)


def _split(x: np.ndarray, lo: int) -> tuple:
    """``(sub, shift)`` pairs that cover the 1-D array ``x`` for a kernel whose
    lowest axis is ``lo``. On axis 1 a view's inner loop has two entries, and
    a numpy call pays for every inner loop, so an axis-1 kernel runs on the
    two stride-2 sub-arrays, where that axis becomes axis 0 (``shift`` 1)
    and its views are single long strided runs. Any other axis keeps ``x``:
    from axis 2 up a split into 2^lo sub-arrays measured slower at 2^10
    entries and mixed at 2^13 (2-core x86-64 host, numpy 2.4)."""
    if lo == 1:
        return (x[0::2], 1), (x[1::2], 1)
    return ((x, 0),)


def _halves(x: np.ndarray, a: int) -> tuple:
    """The (branch-0, branch-1) views of axis ``a`` of the 1-D array ``x``."""
    v = x.reshape(-1, 2, 1 << a)
    return v[:, 0, :], v[:, 1, :]


def _blocks(x: np.ndarray, a: int) -> np.ndarray:
    """The contiguous array ``x`` with each run of 2^a entries as one element
    of a void dtype. numpy copies such an element whole, so a copy that keeps
    these runs intact loops only over the axes above ``a``."""
    return x.view(f"V{x.itemsize << a}")


def _c_array_gate(ins: ArrayGate, prog):
    g, size = ins.gate, ins.size
    a, b = ins.axa, ins.axb
    ops = _frame_ops(((g, ins.va, ins.vb),))
    if g == "S":
        ph_np = _c0(1j)
        ones = _indices(size, lambda i: (i >> a) & 1)

        def make(st):
            return tuple(_halves(x, a - s)[1] for x, s in _split(st.buf[:size], a))

        def run(st: ShotState) -> None:
            st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)
            if size <= _SMALL:
                amps = st.amps
                for i in ones:
                    amps[i] *= 1j
            else:
                for v1 in _views(st, make):
                    np.multiply(v1, ph_np, out=v1)

        return run
    if g == "H":
        step = 1 << a
        pairs = tuple((i, i + step) for i in _indices(size, lambda i: not (i >> a) & 1))
        inv_sqrt2 = _c0(_INV_SQRT2)

        def make(st):
            parts = tuple(_halves(x, a - s) + (st.scratch[: len(x) // 2].reshape(-1, step >> s),)
                          for x, s in _split(st.buf[:size], a))
            return st.buf[:size], parts

        def run(st: ShotState) -> None:
            st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)
            if size <= _SMALL:
                amps = st.amps
                for i, j in pairs:
                    lo = amps[i]
                    hi = amps[j]
                    amps[i] = (lo + hi) * _INV_SQRT2
                    amps[j] = (lo - hi) * _INV_SQRT2
            else:
                whole, parts = _views(st, make)
                for v0, v1, sc in parts:
                    np.copyto(sc, v0)
                    np.add(sc, v1, out=v0)
                    np.subtract(sc, v1, out=v1)
                np.multiply(whole, inv_sqrt2, out=whole)

        return run
    hi, lo = max(a, b), min(a, b)
    mid = 1 << (hi - lo - 1)  # entries between the two axes
    if g == "CX":
        tm = 1 << b
        pairs = tuple((i, i | tm) for i in _indices(size, lambda i: (i >> a) & 1
                                                    and not (i >> b) & 1))

        def make(st):
            # (destination, source): the control-set block with its target
            # axis reversed; numpy buffers the overlapping copy. The runs of
            # entries below the lower axis move whole, as void elements.
            view = _blocks(st.buf[:size], lo).reshape(-1, 2, mid, 2)
            if a == hi:
                return view[:, 1], view[:, 1, :, ::-1]
            return view[:, :, :, 1], view[:, ::-1, :, 1]

        def run(st: ShotState) -> None:
            st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)
            if size <= _SMALL:
                amps = st.amps
                for i, j in pairs:
                    amps[i], amps[j] = amps[j], amps[i]
            else:
                np.copyto(*_views(st, make))

        return run
    if g == "CZ":
        ones = _indices(size, lambda i: (i >> a) & 1 and (i >> b) & 1)
        minus = _c0(-1)  # a multiply: numpy's complex negative has no fast loop

        def make(st):
            return tuple(x.reshape(-1, 2, mid, 2, 1 << (lo - s))[:, 1, :, 1, :]
                         for x, s in _split(st.buf[:size], lo))

        def run(st: ShotState) -> None:
            st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)
            if size <= _SMALL:
                amps = st.amps
                for i in ones:
                    amps[i] = -amps[i]
            else:
                for v11 in _views(st, make):
                    np.multiply(v11, minus, out=v11)

        return run
    raise ShotError(f"unknown array gate {g}")


def _c_expand(ins: Expand, prog):
    size, virt = ins.size, ins.virt
    e0 = cmath.exp(-1j * ins.angle) * _INV_SQRT2
    e1 = cmath.exp(1j * ins.angle) * _INV_SQRT2
    phases = ((e0, e1), (e1, e0))  # indexed by frame parity
    phases_np = tuple((_c0(p0), _c0(p1)) for p0, p1 in phases)

    def make(st):
        return st.buf[:size], st.buf[size: 2 * size]

    def run(st: ShotState) -> None:
        parity = (st.frame_x >> virt) & 1
        if size == 1:
            ph0, ph1 = phases[parity]
            amps = st.amps
            v = amps[0]
            amps[0] = v * ph0
            amps[1] = v * ph1
        elif 2 * size <= _SMALL:
            ph0, ph1 = phases[parity]
            amps = st.amps
            for i in range(size):
                v = amps[i]
                amps[i] = v * ph0
                amps[size + i] = v * ph1
        else:
            ph0, ph1 = phases_np[parity]
            old, new = _views(st, make)
            if size <= _SMALL:  # the array outgrows the list
                old[:] = st.amps[:size]
            np.multiply(old, ph1, out=new)
            np.multiply(old, ph0, out=old)
        st.k += 1

    return run


def _c_gamma_rot(ins: GammaRot, prog):
    virt = ins.virt
    phases = (cmath.exp(-1j * ins.angle), cmath.exp(1j * ins.angle))

    def run(st: ShotState) -> None:
        st.gamma *= phases[(st.frame_x >> virt) & 1]

    return run


def _c_array_rot(ins: ArrayRot, prog):
    virt, a, size = ins.virt, ins.axis, ins.size
    e0 = cmath.exp(-1j * ins.angle)
    e1 = e0.conjugate()
    phases = ((e0, e1), (e1, e0))
    # above the list size branch 0's phase goes into gamma, and only branch 1
    # is multiplied, by its phase relative to branch 0's
    ratios = (_c0(e1 / e0), _c0(e0 / e1))
    zeros = _indices(size, lambda i: not (i >> a) & 1)
    ones = _indices(size, lambda i: (i >> a) & 1)

    def make(st):
        return tuple(_halves(x, a - s)[1] for x, s in _split(st.buf[:size], a))

    def run(st: ShotState) -> None:
        if size == 2:
            ph0, ph1 = phases[(st.frame_x >> virt) & 1]
            amps = st.amps
            amps[0] *= ph0
            amps[1] *= ph1
        elif size <= _SMALL:
            ph0, ph1 = phases[(st.frame_x >> virt) & 1]
            amps = st.amps
            for i in zeros:
                amps[i] *= ph0
            for i in ones:
                amps[i] *= ph1
        else:
            parity = (st.frame_x >> virt) & 1
            st.gamma *= phases[parity][0]
            ratio = ratios[parity]
            for v1 in _views(st, make):
                np.multiply(v1, ratio, out=v1)

    return run


def _c_meas_dormant_static(ins: MeasDormantStatic, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip

    def run(st: ShotState) -> None:
        bit = ((st.frame_x >> virt) & 1) ^ flip
        fo = st.forced_outcomes
        if fo is not None:
            forced = fo.get(record)
            if forced is not None and forced != bit:
                raise ShotError(
                    f"forced outcome {forced} for record {record} has probability 0")
        st.records[record] = bit

    return run


def _c_meas_dormant_random(ins: MeasDormantRandom, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip
    m = 1 << virt

    def run(st: ShotState) -> None:
        fx, fz = st.frame_x, st.frame_z
        p = (fz >> virt) & 1
        fo = st.forced_outcomes
        if fo is None:
            coin = st.rng.bit()
        else:
            forced = fo.get(record)
            coin = st.rng.bit() if forced is None else forced ^ p ^ flip
        st.records[record] = coin ^ p ^ flip
        if (fx ^ fz) & m:  # swap the x and z bits
            fx ^= m
            fz ^= m
        if coin:
            fx ^= m
        st.frame_x, st.frame_z = fx, fz
        st.gamma *= _INV_SQRT2

    return run


def _norm2(x: np.ndarray) -> float:
    """The squared norm of the contiguous complex array ``x``, from vdots of
    at most ``_DOT`` entries each."""
    if x.size <= _DOT:
        return float(np.vdot(x, x).real)
    x = x.reshape(-1)
    return float(sum(np.vdot(x[i:i + _DOT], x[i:i + _DOT]).real
                     for i in range(0, len(x), _DOT)))


def _row_form(u0: complex, u1: complex) -> tuple:
    """``(form, c, eps)`` for a row (u0, u1) of a collapse's basis change: the
    row is c (1, eps), or c (0, 1) for form 1. Form 0 is eps = 0, forms 2
    and 3 are eps = 1 and -1, and form 4 any other eps, so the row takes
    branch 0, branch 1, their sum, their difference, or branch 0 plus eps
    times branch 1, times c."""
    if u0 == 0:
        return 1, u1, 0j
    eps = u1 / u0
    return {0: 0, 1: 2, -1: 3}.get(eps, 4), u0, eps


def _row(form: int, eps: np.ndarray, v0, v1, out, spare):
    """The row of form ``form`` (of :func:`_row_form`) applied to the
    branches ``v0``, ``v1``, short of its factor c: one of them, or ``out``
    holding the result; ``spare`` is a work half for form 4."""
    if form == 0:
        return v0
    if form == 1:
        return v1
    if form == 2:
        return np.add(v0, v1, out=out)
    if form == 3:
        return np.subtract(v0, v1, out=out)
    np.multiply(v1, eps, out=spare)
    return np.add(v0, spare, out=out)


def _c_meas_collapse(ins: MeasCollapse, prog):
    virt, a, record, flip, size = ins.virt, ins.axis, ins.record, ins.flip, ins.size
    (u00, u01), (u10, u11) = ins.u
    m = 1 << virt
    # The folded basis change acts on this qubit alone: tabulate its frame
    # update (x mask, z mask to XOR in) by the qubit's (x, z) bits.
    pre = None
    if ins.pre_gates:
        ops = _frame_ops(ins.pre_gates)
        pre = tuple((x0 ^ x1, z0 ^ z1) for x0, z0 in ((0, 0), (0, m), (m, 0), (m, m))
                    for x1, z1 in (_conjugate_frame(ops, x0, z0),))
    half = size >> 1
    step = 1 << a
    # (branch-0, branch-1) index pairs; pair i becomes entry i after collapse
    pairs = tuple((i, i + step) for i in _indices(size, lambda i: not (i >> a) & 1))
    (f0, c0, eps0), (f1, c1, eps1) = _row_form(u00, u01), _row_form(u10, u11)
    eps0, eps1 = _c0(eps0), _c0(eps1)
    c1_sq = abs(c1) ** 2

    def make(st):
        """(copy, halves, v0, v1, head, tmp, tmp2, k): the (destination,
        source) copy that fills ``halves`` when they are not the array's two
        slices; the contiguous branch halves v0 and v1, its two halves; the
        collapsed array's place; two work halves apart from all three; a
        0-d slot for this shot's factor."""
        buf, sc = st.buf, st.scratch
        k = _c0(0)
        if step == half:
            return None, buf[:size], buf[:half], buf[half:size], buf[:half], sc[:half], \
                sc[half:size], k
        # One copy moves the halves into scratch, and buf[:size] becomes the
        # work space. On axis 1 the copy keeps the two stride-2 sub-arrays
        # apart, so each half is two long runs, and the collapsed array is
        # written back through the transposed view of its two lanes.
        # Elsewhere each run of 2^a entries moves as one element.
        if a == 1:
            copy = (sc[:size].reshape(2, 2, -1), buf[:size].reshape(-1, 2, 2).transpose(1, 2, 0))
            lanes = 2
        else:
            copy = (_blocks(sc[:size], a).reshape(2, -1), _blocks(buf[:size], a).reshape(-1, 2).T)
            lanes = 1
        v0, v1, tmp, tmp2 = (x.reshape(lanes, -1) for x in
                             (sc[:half], sc[half:size], buf[half:size], buf[:half]))
        return copy, sc[:size], v0, v1, buf[:half].reshape(-1, lanes).T, tmp, tmp2, k

    def run(st: ShotState) -> None:
        fx, fz = st.frame_x, st.frame_z
        if pre is not None:
            dx, dz = pre[(2 if fx & m else 0) | (1 if fz & m else 0)]
            fx ^= dx
            fz ^= dz
        if size == 2:
            amps = st.amps
            a0 = amps[0]
            a1 = amps[1]
            b0 = u00 * a0 + u01 * a1
            b1 = u10 * a0 + u11 * a1
            p1 = b1.real * b1.real + b1.imag * b1.imag
            p_all = p1 + b0.real * b0.real + b0.imag * b0.imag
        elif size <= _SMALL:
            amps = st.amps
            rows = []  # (b0, b1): u applied to each pair
            p1 = 0.0
            p_all = 0.0
            for i, j in pairs:
                a0 = amps[i]
                a1 = amps[j]
                b0 = u00 * a0 + u01 * a1
                b1 = u10 * a0 + u11 * a1
                q1 = b1.real * b1.real + b1.imag * b1.imag
                p1 += q1
                p_all += q1 + b0.real * b0.real + b0.imag * b0.imag
                rows.append((b0, b1))
        else:
            copy, halves, v0, v1, head, tmp, tmp2, k = _views(st, make)
            if copy is not None:
                np.copyto(*copy)
            w1 = _row(f1, eps1, v0, v1, tmp, tmp2)
            if f1 < 2:  # row 1 takes one branch, so p_all is one pass away
                n0 = _norm2(v0)
                n1 = _norm2(v1)
                p_all = n0 + n1  # u is unitary
                p1 = c1_sq * (n1 if f1 else n0)
            else:
                p_all = _norm2(halves)
                p1 = c1_sq * _norm2(w1)
        if p1 != p1:
            raise ShotError("NaN amplitude encountered at an active measurement")
        p1 = p1 / p_all if p_all > 0 else 0.0
        if p1 < 0.0:
            p1 = 0.0
        elif p1 > 1.0:
            p1 = 1.0
        parity = (fx >> virt) & 1
        fo = st.forced_outcomes
        forced = None if fo is None else fo.get(record)
        if forced is None:
            branch = 1 if st.rng.uniform() < p1 else 0
            p_branch = p1 if branch else 1.0 - p1
            if p_branch < BRANCH_FLOOR:
                branch ^= 1
                p_branch = 1.0 - p_branch
        else:
            branch = forced ^ parity ^ flip
            p_branch = p1 if branch else 1.0 - p1
            if p_branch < BRANCH_FLOOR:
                raise ShotError(
                    f"forced outcome {forced} for record {record} has probability"
                    f" {p_branch:.3e}")
        st.records[record] = branch ^ parity ^ flip
        scale = 1.0 / math.sqrt(p_branch * p_all)
        if size == 2:
            amps[0] = (b1 if branch else b0) * scale
        elif size <= _SMALL:
            amps[:half] = [row[branch] * scale for row in rows]
        else:
            if branch:
                k[()] = c1 * scale
                np.multiply(w1, k, out=head)
            else:
                k[()] = c0 * scale
                np.multiply(_row(f0, eps0, v0, v1, head, tmp), k, out=head)
            if half <= _SMALL:  # the array fits the list again
                st.amps[:half] = st.buf[:half].tolist()
        if branch:
            fx ^= m
        st.frame_x, st.frame_z = fx, fz
        st.k -= 1
        st.gamma *= math.sqrt(p_branch)

    return run


def _c_cond_frame(ins: CondFrame, prog):
    xmask, zmask, record = ins.xmask, ins.zmask, ins.record

    def run(st: ShotState) -> None:
        if st.records[record]:
            st.frame_x ^= xmask
            st.frame_z ^= zmask

    return run


def _c_noise_block(ins: NoiseBlock, prog):
    # the closure binds what it reads of ``prog``, not ``prog`` itself: the
    # program holds its closures, and a reference back would make a cycle
    S = prog.cum_hazard
    sites = prog.sites
    lo, hi = ins.lo, ins.hi
    plan = _block_plan(sites, lo, hi)
    # a block without certain sites is one hazard segment
    one_segment = plan == [(lo, hi)]
    lo_key, hi_key = (lo,), (hi,)  # (s,) sorts just before the pairs of site s

    def run(st: ShotState) -> None:
        ff = st.forced_faults
        rng = st.rng
        if ff is None:
            if one_segment:
                faults = _segment_faults(S, sites, rng, lo, hi)
            else:
                faults = _plan_faults(S, sites, plan, rng)
            if not faults:
                return
        else:
            faults = ff[bisect_left(ff, lo_key):bisect_left(ff, hi_key)]
        for site, case in faults:
            tab = sites[site]
            if case is None:
                case = _pick_case(tab, rng)
            st.frame_x ^= tab.case_x[case]
            st.frame_z ^= tab.case_z[case]

    return run


def _c_detector(ins: DetectorIns, prog):
    index, records = ins.index, ins.records

    def run(st: ShotState) -> None:
        bit = 0
        rec = st.records
        for r in records:
            bit ^= rec[r]
        st.detectors[index] = bit

    return run


def _c_observable(ins: ObservableIns, prog):
    index, records = ins.index, ins.records

    def run(st: ShotState) -> None:
        bit = 0
        rec = st.records
        for r in records:
            bit ^= rec[r]
        st.observables[index] ^= bit

    return run


def _c_postselect(ins: PostSelectIns, prog):
    kind, ref, required = ins.kind, ins.ref, ins.required

    def run(st: ShotState) -> None:
        bit = st.detectors[ref] if kind == "detector" else st.records[ref]
        if bit != required:
            st.accepted = False
            raise _Halt

    return run


_FACTORIES = {
    FrameGates: _c_frame,
    ArrayGate: _c_array_gate,
    Expand: _c_expand,
    GammaRot: _c_gamma_rot,
    ArrayRot: _c_array_rot,
    MeasDormantStatic: _c_meas_dormant_static,
    MeasDormantRandom: _c_meas_dormant_random,
    MeasCollapse: _c_meas_collapse,
    CondFrame: _c_cond_frame,
    NoiseBlock: _c_noise_block,
    DetectorIns: _c_detector,
    ObservableIns: _c_observable,
    PostSelectIns: _c_postselect,
}


def _cache(prog: BytecodeProgram) -> dict:
    """The program's runtime cache: its instruction closures (``"code"``)
    and its frame table (``"table"``), each built on first use. Code that
    edits ``prog.instrs`` drops the whole entry."""
    cache = prog.__dict__.get("_dispatch")
    if cache is None:
        cache = prog.__dict__["_dispatch"] = {}
    return cache


def _compiled(prog: BytecodeProgram):
    """Instruction closures, specialized once per program."""
    cache = _cache(prog)
    code = cache.get("code")
    if code is None:
        code = cache["code"] = [_FACTORIES[type(i)](i, prog) for i in prog.instrs]
    return code


# -- frame-only programs as a table from random inputs to output bits -------------

_NOISE, _COIN, _CHECK = 0, 1, 2
_SURE = 3  # a span part: a certain (p=1) site
_TABLE_BITS = 1 << 28  # most (inputs x output bits) a table may hold: 32 MiB of effects
_GUARD = 2.0 ** -40  # a lock-step survival's margin, relative to the bound (_may_fault)
_GRID = 1 << 16  # most draws of one span grid; more shots take several grids
_XOR_PAIRS = 1 << 12  # most effect rows gathered at once for _xor_rows


@dataclass(slots=True, eq=False)
class _Span:
    """A run of table steps without a check, as the parts a shot draws for,
    in order: hazard segments, certain sites and coins. A shot in which no
    fault fires makes ``off[k]`` draws before part k and ``off[-1]`` in all;
    those offsets are its draws' columns in :func:`_span`'s grid.

    Per part, ``lo`` is a segment's first site, a certain site or a coin's
    effect row, and ``hi`` a segment's stop. ``seg`` lists the segments, with
    the cumulative hazards at their ends; ``fixed`` lists the other parts,
    which fire without a hazard draw: ``coin`` marks its coins, whose draws
    are in the columns ``coin_col``."""

    steps: list  # the span's _NOISE and _COIN steps, which a stratum's shots run
    off: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    seg: np.ndarray
    seg_start: np.ndarray
    seg_end: np.ndarray
    fixed: np.ndarray
    coin: np.ndarray
    coin_col: np.ndarray


@dataclass(slots=True, eq=False)
class _FrameTable:
    """A frame-only program as XOR effects on its output bits.

    Output bit p of a shot is bit p of the constant row XOR the effect row of
    each fault that fires and of each coin that comes up 1. ``effects`` holds
    one row of ``nbytes`` little-endian bytes per random input: row 0 is the
    constant, row ``first[site] + case`` a fault. The first bits are the
    user records, detectors and observables, in that order; a bit above
    them is hidden: an observable as it stood at a postselection that a
    later ``ObservableIns`` changes. A row is padded to whole 64-bit words,
    so the shots' rows are XORed as words.

    ``steps`` is the shot's draw sequence, in instruction order:

    * ``(_NOISE, lo, hi, plan)`` draws the faults of a noise block (``plan``
      is its block plan);
    * ``(_COIN, row, 0, None)`` draws a coin with effect row ``row``;
    * ``(_CHECK, bit, required, (keep, moves))`` is a postselection. A failed
      check ends the shot with the output bits ``keep`` written before it
      and, for each ``(hidden, obs)`` of ``moves``, the hidden snapshot moved
      onto its observable.

    ``spans`` is the same sequence as :func:`_table_shots` runs it: each
    check, and each run of other steps between them as a :class:`_Span`
    (the d=25, 25-round repetition code's 25 noise blocks are one span).
    The remaining fields are the program's sites and ``cum_hazard`` in the
    forms the draws read.
    """

    effects: bytes
    steps: list
    nbytes: int     # bytes of one packed shot, hidden bits and padding included
    S: list         # the program's cum_hazard
    hazard: np.ndarray  # S as an array
    first: np.ndarray   # per site, the effect row of case 0
    prob: np.ndarray    # per site, its probability
    ncases: np.ndarray  # per site, its case count
    case_cum: np.ndarray  # per site of several cases: case_cum, inf-padded
    spans: list


def _frame_table(prog: BytecodeProgram):
    """The program's frame table, or None when the closure VM runs it: the
    program has an active array, or the table would exceed _TABLE_BITS."""
    if prog.k_max:
        return None
    cache = _cache(prog)
    if "table" not in cache:
        cache["table"] = _build_table(prog)
    return cache["table"]


def _build_table(prog: BytecodeProgram):
    """Walk ``prog.instrs`` once, backwards, holding for each frame bit and
    record the output bits it flips from that point on, as Python ints over
    output bits: ``sx[q]`` and ``sz[q]`` for virtual qubit q's frame X and Z
    bits, ``recs[r]`` for record r. A gate maps them by its transpose. A
    fault's effect row is the XOR of the rows of the frame bits its case
    flips, a coin's the row of its record XOR that of the frame X bit it
    sets; each is packed to bytes once, and no transpose is needed. For the
    d=25, 25-round repetition code (2,547 instructions, 625 effect rows of
    160 bytes) this takes about 2.5 ms, against 3.7 ms for the forward walk
    over affine forms and the bit-matrix transpose it replaced.

    A check's hidden bits are made when the walk reaches it: an observable
    that an ``ObservableIns`` after the check changes gets one, and each
    ``ObservableIns`` of that observable before the check flips it too, so
    it holds the observable as it stood at the check."""
    sites = prog.sites
    nm, nd, no = len(prog.user_records), prog.num_detectors, prog.num_observables
    width = nm + nd + no
    kinds = list(map(type, prog.instrs))
    n_inputs = 1 + kinds.count(MeasDormantRandom) + sum(len(s.case_x) for s in sites)
    if n_inputs * (width + kinds.count(PostSelectIns) * no) > _TABLE_BITS:
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
    steps: list = []
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
            for op, a, b in reversed(ins.gates):  # each gate's transpose
                op = _FRAME_OPCODES[op]
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
            steps.append((_NOISE, lo, hi, _block_plan(sites, lo, hi)))
        elif t is MeasDormantRandom:
            v, r = ins.virt, ins.record
            bit = user_bit[r]
            after |= bit
            row = recs[r] ^ bit
            if ins.flip:
                rows[0] ^= row
            nxt -= 1
            # the coin sets the record and the new X bit, which is the old Z
            # bit XOR the coin; the new Z bit is the old X bit
            rows[nxt] = row ^ sx[v]
            sx[v], sz[v] = sz[v], rows[nxt]
            steps.append((_COIN, nxt, 0, None))
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
            steps.append((_CHECK, p, ins.required, (keep, tuple(moves))))
        elif t is not GammaRot:  # a rotation of a dormant qubit moves only gamma
            raise ShotError(f"{t.__name__} has no frame-table form")
    steps.reverse()
    nbytes = 8 * max(1, (hidden + 63) // 64)
    ncases = [len(s.case_cum) for s in sites]
    case_cum = np.full((len(sites), max(ncases, default=1)), np.inf)
    for i, n in enumerate(ncases):
        if n > 1:  # a one-case site draws no case
            case_cum[i, :n] = sites[i].case_cum
    hazard = np.array(prog.cum_hazard)
    return _FrameTable(
        effects=b"".join([row.to_bytes(nbytes, "little") for row in rows]), steps=steps,
        nbytes=nbytes, S=prog.cum_hazard, hazard=hazard,
        first=np.array(site_bit, dtype=np.int64),
        prob=np.array([s.prob for s in sites], dtype=np.float64),
        ncases=np.array(ncases, dtype=np.int64),
        case_cum=case_cum,
        spans=_spans(steps, sites, hazard))


def _spans(steps: list, sites, hazard: np.ndarray) -> list:
    """``steps`` with each run of steps between checks as a :class:`_Span`."""
    items: list = []
    run: list = []
    parts: list = []  # the run's parts: (kind, lo, hi, fault-free draws)
    for step in steps:
        kind, a, b, plan = step
        if kind == _CHECK:
            if run:
                items.append(_span_of(run, parts, hazard))
                run, parts = [], []
            items.append(step)
            continue
        run.append(step)
        if kind == _COIN:
            parts.append((_COIN, a, 0, 1))
        else:
            parts += [(_SURE, p, 0, int(len(sites[p].case_cum) > 1)) if isinstance(p, int)
                      else (_NOISE, *p, 1) for p in plan]
    if run:
        items.append(_span_of(run, parts, hazard))
    return items


def _span_of(steps: list, parts: list, hazard: np.ndarray) -> _Span:
    """The :class:`_Span` of ``steps``, whose parts are ``parts``."""
    kind, lo, hi, draws = (np.array(col, dtype=np.int64) for col in zip(*parts))
    off = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(draws, out=off[1:])
    seg = (kind == _NOISE).nonzero()[0]
    fixed = (kind != _NOISE).nonzero()[0]
    coin = kind[fixed] == _COIN
    return _Span(steps=steps, off=off, lo=lo, hi=hi, seg=seg, seg_start=hazard[lo[seg]],
                 seg_end=hazard[hi[seg]], fixed=fixed, coin=coin, coin_col=off[fixed[coin]])


def _table_shots(tab: _FrameTable, seed: int, lo: int, hi: int, stratum,
                 keep_rejected: bool) -> tuple[np.ndarray, np.ndarray]:
    """Shots [lo, hi) of a frame table, as :func:`_shot_rows` returns them;
    a row has ``tab.nbytes`` bytes, hidden bits and padding included.

    The shots run a span at a time (:func:`_span`) and stop at a failed
    check; ``acc`` accumulates their output rows. Each shot keeps its own
    draw counter, so it makes the serial VM's draws in its order: the
    stratum's fault list, then per step a noise block's hazard-skip draws
    (or, with a stratum, the cases its listed sites leave open) or a coin.
    A stratum's shots run each step of a span in lock-step.
    """
    nbytes = tab.nbytes
    effects = np.frombuffer(tab.effects, dtype="<u8").reshape(-1, nbytes // 8)
    streams = ShotStreams(seed, lo, hi)
    acc = np.empty((hi - lo, nbytes // 8), dtype="<u8")
    acc[:] = effects[0]
    acc8 = acc.view(np.uint8)
    accepted = np.ones(hi - lo, dtype=bool)
    run = np.arange(hi - lo)  # the rows of the shots still running
    forced = None if stratum is None else _forced_sites(stratum, seed, lo, hi, streams)

    def fire(rows, sites) -> None:
        """Shots ``rows`` (distinct) fault at ``sites``: draw each case
        where a site has several, as ``_pick_case`` does, and XOR its
        effect."""
        acc[rows] ^= effects[_fault_rows(tab, sites, lambda m: streams.uniform(rows[m]))]

    for item in tab.spans:
        if type(item) is _Span and forced is None:
            step = max(1, _GRID // max(int(item.off[-1]), 1))
            for i in range(0, len(run), step):
                _span(tab, item, streams, acc, effects, fire, run[i:i + step])
            continue
        if type(item) is _Span:
            for kind, a, b, _ in item.steps:
                if kind == _NOISE:
                    for col in forced:  # each shot's k-th listed site, in turn
                        sites = col[run]
                        hit = ((sites >= a) & (sites < b)).nonzero()[0]
                        if len(hit):
                            fire(run[hit], sites[hit])
                else:
                    acc[run[streams.next_u64(run) >> 63 == 1]] ^= effects[a]
            continue
        _, a, b, (keep, moves) = item  # a check
        fail = (acc8[run, a >> 3] >> (a & 7)) & 1 != b
        if fail.any():
            rows = run[fail]
            old = acc8[rows]
            new = old & np.frombuffer(keep.to_bytes(nbytes, "little"), dtype=np.uint8)
            for hidden, obs in moves:
                new[:, obs >> 3] |= ((old[:, hidden >> 3] >> (hidden & 7)) & 1) << (obs & 7)
            acc8[rows] = new
            accepted[rows] = False
            run = run[~fail]
            if not len(run):
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
          effects: np.ndarray, fire, rows: np.ndarray) -> None:
    """Shots ``rows`` run ``span``, a grid of draws at a time.

    Each round draws, for each shot, the uniforms a fault-free shot would
    draw from the shot's next part on, one per column. Where
    :func:`_may_fault` clears every segment, the shot is done: its coins and
    certain sites fire from their columns. Otherwise the parts before its
    first unsure segment do, and the shot runs that segment as
    :func:`_segment`, whose faults shift its counter; it starts the next
    round at the next part.
    """
    nparts = len(span.off) - 1
    draws = int(span.off[-1])
    seg, fixed = span.seg, span.fixed
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


def _forced_sites(stratum, seed: int, lo: int, hi: int, streams: ShotStreams) -> np.ndarray:
    """Each shot's stratum fault list, drawn first on a scalar stream: row k
    holds each shot's k-th listed site (-1 past its last), and ``streams``
    resumes each shot after those draws."""
    rng = ShotRng(seed, lo)
    lists = []
    for shot in range(lo, hi):
        rng.reset(shot)
        lists.append([site for site, _ in stratum.draw_forced(rng)])
        streams.counts[shot - lo] = rng.draws
    forced = np.full((max(map(len, lists)), hi - lo), -1, dtype=np.int64)
    for i, sites in enumerate(lists):
        forced[:len(sites), i] = sites
    return forced


# -- hazard sampling -------------------------------------------------------------


def hazard_sample(prog: BytecodeProgram, lo: int, hi: int, rng: ShotRng) -> list:
    """Sample triggered (site, case) pairs for sites in [lo, hi).

    Cumulative-hazard skipping: one exponential draw jumps directly to the
    next realized fault, with certain (p=1) sites handled as segment breaks.
    The joint law equals independent per-site Bernoulli draws.
    """
    return _plan_faults(prog.cum_hazard, prog.sites, _block_plan(prog.sites, lo, hi), rng)


def _plan_faults(S, sites, plan, rng: ShotRng) -> list:
    """The (site, case) faults realized over a block plan: a certain site
    always fires, each segment between them is hazard-skipped."""
    out: list = []
    for part in plan:
        if isinstance(part, int):
            out.append((part, _pick_case(sites[part], rng)))
        else:
            out.extend(_segment_faults(S, sites, rng, *part) or ())
    return out


def _segment_faults(S, sites, rng: ShotRng, i: int, b: int):
    """The (site, case) faults realized among sites [i, b), which hold no
    certain site, or None when none is: the hazard-skip loop."""
    out = None
    s_b = S[b]
    while i < b:
        target = S[i] + rng.exponential()
        if target >= s_b:
            break  # survived the rest of the segment
        # the first index with S > target is one past the site that fires
        site = bisect_right(S, target, i + 1, b + 1) - 1
        if out is None:
            out = []
        out.append((site, _pick_case(sites[site], rng)))
        i = site + 1
    return out


def _pick_case(site, rng: ShotRng) -> int:
    if len(site.case_cum) == 1:
        return 0
    u = rng.uniform() * site.prob
    c = bisect_right(site.case_cum, u)
    return min(c, len(site.case_cum) - 1)


def _block_plan(sites, lo: int, hi: int) -> list:
    """Sites [lo, hi) as a plan for :func:`_plan_faults`: each certain (p=1)
    site on its own, the runs between them as (start, stop) segments."""
    plan: list = []
    start = lo
    for s in range(lo, hi):
        if sites[s].prob >= 1.0:
            if start < s:
                plan.append((start, s))
            plan.append(s)
            start = s + 1
    if start < hi:
        plan.append((start, hi))
    return plan


# -- shot execution ---------------------------------------------------------------


def run_shot(prog: BytecodeProgram, state: ShotState | None = None, shot: int = 0,
             seed: int = 0, forced_faults=None, forced_outcomes=None,
             trace=None) -> ShotRecord:
    """Execute one shot; returns its record. ``state`` is reused if given.

    ``forced_faults`` is the shot's faults as a list of ``(site, case)``
    pairs sorted by site, each site at most once: exactly the listed sites
    fire, so ``[]`` means no fault fires, and a case of ``None`` is drawn
    from the site's case law when its block runs. ``None`` (the default)
    samples the faults. ``forced_outcomes`` maps record indices to the
    outcome a measurement must give.
    """
    if state is None:
        state = ShotState(prog, seed=seed)
    _run(prog, _compiled(prog), state, shot, None, forced_faults, forced_outcomes, trace)
    return make_record(prog, state)


def _run(prog, code: list, state: ShotState, shot: int, stratum=None, forced_faults=None,
         forced_outcomes=None, trace=None) -> bool:
    """Run shot ``shot`` of ``prog`` on ``state``: reset, let the stratum
    draw the shot's fault list (which then replaces ``forced_faults``) and
    set its weight, run ``code``, the program's closures, until the end or a
    failed postselection. ``trace(state, ins)`` is called after each
    instruction. Returns whether the shot was accepted."""
    state.reset(shot)
    if stratum is not None:
        forced_faults = stratum.draw_forced(state.rng)
        state.weight = stratum.weight
    state.forced_faults = forced_faults
    state.forced_outcomes = forced_outcomes
    try:
        if trace is None:
            for fn in code:
                fn(state)
        else:
            for fn, ins in zip(code, prog.instrs):
                fn(state)
                trace(state, ins)
    except _Halt:
        pass
    return state.accepted


def make_record(prog: BytecodeProgram, state: ShotState) -> ShotRecord:
    uidx = _user_idx(prog)
    rec, det, obs = state._bits
    # fancy indexing already yields a fresh array; identity maps just copy
    return ShotRecord(
        measurements=rec.copy() if uidx is None else rec[uidx],
        detectors=det.copy() if len(det) else _EMPTY_BITS,
        observables=obs.copy() if len(obs) else _EMPTY_BITS,
        accepted=state.accepted,
        weight=state.weight,
    )


def _user_idx(prog: BytecodeProgram):
    """Index array for user records, or None when they are all records."""
    if "_user_idx" not in prog.__dict__:
        if prog.user_records == tuple(range(prog.record_count)):
            prog.__dict__["_user_idx"] = None
        else:
            prog.__dict__["_user_idx"] = np.array(prog.user_records, dtype=np.int64)
    return prog.__dict__["_user_idx"]


def _chunk_shots(prog: BytecodeProgram) -> int:
    """Shots per chunk: about _FOLD_BYTES of unpacked output bits, and for a
    program with an active array at most about _CHUNK_WORK amplitude
    operations (its work, the sum of its sweep sizes, per shot), so that a
    slow program's first record does not wait long."""
    width = len(prog.user_records) + prog.num_detectors + prog.num_observables
    shots = max(1, _FOLD_BYTES // max(width, 1))
    if prog.k_max:
        shots = min(shots, max(1, _CHUNK_WORK // _plan_cost(prog)[1]))
    return shots


def _shot_rows(prog: BytecodeProgram, seed: int, lo: int, hi: int, stratum,
               keep_rejected: bool, state: ShotState | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Shots [lo, hi), on the program's frame table or else the closure VM:
    each kept shot's output bits (user records, detectors, observables)
    packed little-endian, one uint8 row per shot, and its acceptance flags
    (bool). A rejected shot is kept only with ``keep_rejected``. The closure
    VM runs on ``state``, a ShotState of ``prog`` seeded with ``seed``, or
    on a new one. This is the one place that runs shots for ``sample`` and
    ``sample_accumulate``."""
    tab = _frame_table(prog)
    if tab is not None:
        return _table_shots(tab, seed, lo, hi, stratum, keep_rejected)
    if state is None:
        state = ShotState(prog, seed=seed)
    code = _compiled(prog)
    rec, det, obs = state.records, state.detectors, state.observables
    rows, flags = bytearray(), bytearray()
    for shot in range(lo, hi):
        if _run(prog, code, state, shot, stratum) or keep_rejected:
            rows += rec
            rows += det
            rows += obs
            flags.append(state.accepted)
    width = len(rec) + len(det) + len(obs)
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(flags), width)
    uidx = _user_idx(prog)
    if uidx is not None:
        bits = bits[:, np.concatenate([uidx, np.arange(len(rec), width)])]
    return np.packbits(bits, axis=1, bitorder="little"), np.frombuffer(flags, dtype=bool)


def _chunks(prog: BytecodeProgram, shots: int, seed: int, workers: int, stratum,
            keep_rejected: bool):
    """Yield each chunk of :func:`_shot_rows` in shot order, unpacked to one
    uint8 row of output bits per kept shot, with its acceptance flags; the
    chunks come from a fork pool when :func:`sample`'s rule for
    ``workers`` starts one."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    tab = _frame_table(prog)
    step = _chunk_shots(prog)
    workers = min(workers, shots, os.cpu_count() or 1)
    if workers > 1 and (tab is None or shots > workers * step):
        parts = _sample_parallel(prog, tab, shots, seed, workers, stratum, keep_rejected)
    else:
        # one state for every chunk: its views are built on its first shot
        state = None if tab is not None else ShotState(prog, seed=seed)
        parts = (_shot_rows(prog, seed, lo, min(lo + step, shots), stratum, keep_rejected,
                            state) for lo in range(0, shots, step))
    width = len(prog.user_records) + prog.num_detectors + prog.num_observables
    for packed, flags in parts:
        yield np.unpackbits(packed, axis=1, count=width, bitorder="little"), flags


def sample(prog: BytecodeProgram, shots: int, seed: int = 0, workers: int = 1,
           stratum=None, keep_rejected: bool = True):
    """Yield ShotRecords for shot indices 0..shots-1, deterministically.

    Records depend only on (seed, shot index): any worker split produces the
    same stream, and a frame-only program's table gives the records the
    closure VM gives. With a stratum, every record carries that stratum's
    weight and noise sites are forced per its conditional law. Records
    arrive a chunk of shots at a time, as row views of the chunk's bits.

    ``workers`` is capped at the shot count and ``os.cpu_count()``. A fork
    pool starts only when that leaves more than one worker and, for a
    frame-table program, when each worker gets more than a whole chunk of
    shots; below that the pool costs more than the shots, and this process
    samples alone.
    """
    weight = 1.0 if stratum is None else stratum.weight
    nm = len(prog.user_records)
    nmd = nm + prog.num_detectors
    for bits, flags in _chunks(prog, shots, seed, workers, stratum, keep_rejected):
        for m, d, o, accepted in zip(bits[:, :nm], bits[:, nm:nmd], bits[:, nmd:],
                                     flags.tolist()):
            yield ShotRecord(m, d, o, accepted, weight)


_WORKER = None  # a pool worker's (prog, seed, stratum, keep_rejected, state)


def _init_worker(prog, seed, stratum, keep_rejected) -> None:
    """Pool initializer. A fork worker gets its arguments by inheritance, not
    by pickle, so the program arrives with the caches the parent built. A
    closure-VM worker runs all its jobs on one ShotState."""
    global _WORKER
    state = None if _frame_table(prog) is not None else ShotState(prog, seed=seed)
    _WORKER = (prog, seed, stratum, keep_rejected, state)


def _worker_range(bounds):
    """Shots [lo, hi) in a pool worker, as packed rows."""
    prog, seed, stratum, keep_rejected, state = _WORKER
    return _shot_rows(prog, seed, *bounds, stratum, keep_rejected, state)


def _sample_parallel(prog, tab, shots, seed, workers, stratum, keep_rejected):
    """Yield the packed chunks of :func:`_shot_rows` in shot order from a
    pool of ``workers`` fork workers. The parent builds the program's table
    (``tab``) or closures before the fork. Chunk bounds are made as jobs are
    sent, and at most two chunks per worker are in flight, so the parent
    holds a bounded number of chunks whatever the shot count."""
    import multiprocessing as mp

    if tab is None:
        _compiled(prog)
    step = min(_chunk_shots(prog), -(-shots // workers))
    jobs = ((lo, min(lo + step, shots)) for lo in range(0, shots, step))
    ctx = mp.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker,
                  initargs=(prog, seed, stratum, keep_rejected)) as pool:
        pending = deque(pool.apply_async(_worker_range, (job,))
                        for job in itertools.islice(jobs, 2 * workers))
        while pending:
            part = pending.popleft().get()
            job = next(jobs, None)
            if job is not None:
                pending.append(pool.apply_async(_worker_range, (job,)))
            yield part


def sample_accumulate(prog: BytecodeProgram, shots: int, seed: int = 0,
                      stratum=None) -> dict:
    """Streaming marginals: bit sums for measurements/detectors/observables.

    The accepted shots' bits are summed a chunk at a time; the weight sum
    adds one shot's weight at a time, as a shot-by-shot loop would.
    """
    nm = len(prog.user_records)
    nmd = nm + prog.num_detectors
    totals = np.zeros(nmd + prog.num_observables, dtype=np.int64)
    weight = 1.0 if stratum is None else stratum.weight
    accepted = 0
    weight_sum = 0.0
    for bits, flags in _chunks(prog, shots, seed, 1, stratum, False):
        totals += bits.sum(axis=0, dtype=np.int64)
        accepted += len(flags)
        for _ in range(len(flags)):
            weight_sum += weight
    return {"shots": shots, "accepted": accepted, "weight_sum": weight_sum,
            "measurements": totals[:nm].copy(), "detectors": totals[nm:nmd].copy(),
            "observables": totals[nmd:].copy()}


# -- stratified importance sampling --------------------------------------------


def poisson_binomial(probs) -> np.ndarray:
    """Exact pmf of the number of triggered sites; length len(probs)+1."""
    pmf = np.array([1.0])
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return pmf


class StratumSpec:
    """Shot batch conditioned on exactly w realized faults.

    ``weight`` is Pr[W = w] under the Poisson-binomial law of the site
    probabilities; ``draw_forced`` samples a site subset from the exact
    conditional law by sequential conditioning on suffix counts.
    """

    def __init__(self, prog: BytecodeProgram, w: int):
        probs = [s.prob for s in prog.sites]
        e = len(probs)
        if w < 0:
            raise ValueError(f"stratum fault count {w} is negative")
        if w > e:
            raise ValueError(f"stratum fault count {w} exceeds {e} sites")
        self.w = w
        self.probs = probs
        # suffix[i][c] = Pr[c faults among sites i..E-1], for counts c <= w,
        # by the recurrence of poisson_binomial in its float operation order
        suffix = [None] * e + [[1.0]]
        for i in range(e - 1, -1, -1):
            p = probs[i]
            q = 1.0 - p
            prev = suffix[i + 1]
            nxt = [prev[c] * q + prev[c - 1] * p for c in range(1, len(prev))]
            nxt.insert(0, prev[0] * q)
            if len(prev) <= w:
                nxt.append(prev[-1] * p)
            suffix[i] = nxt
        self.suffix = suffix
        self.weight = suffix[0][w]

    def draw_forced(self, rng: ShotRng) -> list:
        """The shot's fault list: ``(site, None)`` for each of the w sites
        drawn, in site order; their cases are drawn when their blocks run."""
        e = len(self.probs)
        suffix = self.suffix
        need = self.w
        out = []
        for i in range(e):
            if need == 0:
                break
            if e - i == need:
                out.extend((j, None) for j in range(i, e))
                break
            # 0 < need < e - i, so both counts are inside the tables
            p_here = self.probs[i] * suffix[i + 1][need - 1]
            if rng.uniform() * suffix[i][need] < p_here:
                out.append((i, None))
                need -= 1
        return out


# -- expectation probe -----------------------------------------------------------


def expectation_probe(prog: BytecodeProgram, state: ShotState,
                      observable: PauliString) -> float:
    """<psi|P|psi> of the current factored state, non-collapsing.

    Dormant axes contribute <0|Z|0> = 1 or kill the term (<0|X|0> = 0);
    active support costs one traversal of the active array.
    """
    if not observable.is_hermitian():
        raise ValueError("probe observable must be Hermitian")
    mapped = prog.final_tableau.heisenberg_map(observable)
    sign = mapped.hermitian_sign()
    word = mapped.hermitian_word()
    wx, wz = word.x, word.z
    par = ((wx & state.frame_z).bit_count() + (wz & state.frame_x).bit_count()) & 1
    active_pos = {v: p for p, v in enumerate(state.active_virtuals)}
    xm = 0
    zm = 0
    for j in word.support():
        if j not in active_pos:
            if (wx >> j) & 1:
                return 0.0
            continue
        p = active_pos[j]
        xm |= ((wx >> j) & 1) << p
        zm |= ((wz >> j) & 1) << p
    ycount = (xm & zm).bit_count()
    amps = state.active_view()
    idx = np.arange(len(amps))
    phases = (1j ** (ycount & 3)) * (1.0 - 2.0 * (np.bitwise_count(idx & zm) & 1))
    wphi = np.zeros_like(amps)
    wphi[idx ^ xm] = phases * amps
    norm2 = float(np.vdot(amps, amps).real)
    val = float(np.vdot(amps, wphi).real) / norm2
    return sign * (-1.0 if par else 1.0) * val
