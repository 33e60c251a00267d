"""Bytecode execution over the factored runtime state, and sampling.

Each program class has one engine. A program with an active array
(``k_max`` > 0) runs on the closure VM below. A frame-only program
(``k_max`` == 0) is sampled through its frame table (:mod:`framesim.table`).
``_frame_table`` is the switch. ``run_shot``, ``trace``,
``expectation_probe`` and ``testing.crosscheck`` always use the closure VM,
the reference engine.

Sampling has one path for both engines. ``_chunks`` picks the engine once
per call, in this process and before any fork: the program's table, or one
``ShotState`` with the program's closures built, which the chunks of this
process share and each fork worker inherits. ``_shot_rows`` runs a range of
shots on it and returns each kept shot's output bits as packed rows with
its acceptance flags. A chunk holds about a megabyte (``_FOLD_BYTES``) of
unpacked output bits and, on the closure VM, of per-shot walk state, and
few enough shots that the walk's snapshots fit ``_SNAP_BYTES``. The
first closure-VM chunk of a ``sample`` call, whose records stream, also
holds at most about ``_CHUNK_WORK`` amplitude operations; every other
chunk, and every chunk of ``sample_accumulate``, which returns only at
its end, is as large as those budgets allow, so that its shots share the
most paths. ``_chunks`` yields the chunks in shot order, from this
process or from a fork pool, and unpacks them; ``sample`` yields each row
as a ``ShotRecord`` and ``sample_accumulate`` sums them. So records
arrive a chunk at a time, and the first record of a slow program waits
for a chunk of tens of shots at most. The pool keeps at most two chunks
per worker in flight, and a table program forks only when each worker
gets more than a whole chunk.

The closure VM runs a group of shots in one depth-first walk (``_walk``).
Its unit is a class of shots (``_ShotClass``): shots that have so far made
the same draws with the same outcomes. The shots of a class share one
Pauli frame, as two Python-int bitmasks, one bytearray of record, detector
and observable bytes, one acceptance flag and one draw counter. Each shot
keeps its counter-based RNG stream, its slot of the chunk's one table of
draws, from which it makes exactly the draws it would make alone. A class
of several holds its slots as one index array, and each of its draw steps
is a few numpy calls (a gather of the slots' uniforms, a mask); a class of
one draws from its stream with scalar reads. A path is the set of a
chunk's shots that share one active array, and the array and its size
``k`` are all of its state: with a class's frame, the array gives its
shots' normalized state up to a global phase, which no output reads, so
no scalar is kept beside it. Two classes hold
bit-identical arrays for as long as they agree on the path key: the probe
bits, which are the frame X bits that ``Expand`` and ``ArrayRot`` read to
pick the sign of their angle, and each collapse's branch, whose
probability and scale the path fixes (a draw that hits ``BRANCH_FLOOR``
takes the other branch at that branch's own probability, bit for bit). So
each step does its frame, record, detector and postselection work once per
class, its draws once per member shot, and its amplitude kernel once per
path, on the state's one array:

* ``ArrayGate`` conjugates each class's frame by its gate, then runs its
  kernel.
* ``Expand`` and ``ArrayRot``, the probe steps, split the group by their
  probe bit and pass that bit to the kernel.
* ``MeasCollapse`` computes its branch probability once per path; draws
  once per member shot, and splits a class whose members take both
  branches; records and updates the frame once per class; and applies each
  branch taken once. ``MeasDormantRandom`` splits a class by its members'
  coins in the same way.
* ``NoiseBlock`` draws each member's first hazard skip of each segment
  (one per segment, the same draw a shot alone makes), and gives a certain
  site of one case to the whole class. numpy only clears the members whose
  skip surely passes the segment (``table._may_fault``); every other
  member, and one whose certain site draws its case, leaves for a class of
  its own, which redraws the block from there as its shot would, with the
  exact arithmetic, so a draw within the guard costs only its sharing.

A chunk starts as one class (with a stratum, one per count of draws that
its shots' fault lists took). At a split the walk goes on with the part
of fewer shots and defers the other with a snapshot of the array. A
deferred ``Expand`` or ``ArrayRot`` part reruns its instruction on the
snapshot; a deferred collapse branch keeps only its collapsed half. Since
the part the walk goes on with holds at most half the shots of the group
it came from, at most log2(group size) snapshots are live at once, each of
at most 2^k_max entries. ``run_shot``, ``trace``, ``expectation_probe``
and ``testing.crosscheck`` run the same walk with a group of one class of
one shot, the :class:`ShotState` itself, which holds both the shot and its
array. A class that fails a postselection leaves the group there.
Nothing consults the amplitudes to decide control flow (the compiler fixed
the schedule). A shot's faults reach the ``NoiseBlock`` steps in one form,
a sorted list of ``(site, case)`` pairs: the hazard-skip sampler produces
it per block, and a forced run (``run_shot``'s ``forced_faults``,
``testing.crosscheck``, ``StratumSpec.draw_forced``) passes it for the
whole shot, where a ``None`` case is drawn when its block runs, in the
order the sampled path draws it; a member of a class with a fault listed
in a block leaves for a class of its own there.

The dispatch loop is threaded code: each instruction is specialized once
into a closure with its operands (qubit masks, precomputed rotation
phases) bound, so the hot path is a list of calls; every instruction kind
has exactly one kernel. On that path, frame, record and detector updates
are Python int and bytearray operations, never numpy scalar accesses.
The active array is the first 2^k entries of one numpy array (capacity
2^k_max), and each kernel has one form at every size: vectorized sweeps
over views built once per state. A kernel runs once per path, so its
shots share its cost; a group of one pays it alone. README's "Amplitude
kernels" section gives the kernels' forms, and why they change rounding
and not results.
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import index, length_hint

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
    _plan_cost,
)
from .pauli import PauliString
from .rng import _MAX_WIDTH, ShotRng
from .table import _build_table, _may_fault, _table_shots

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
BRANCH_FLOOR = 1e-12
_FOLD_BYTES = 1 << 20  # unpacked output bytes and walk state of a chunk of shots
_CHUNK_WORK = 1 << 24  # most amplitude operations of a sample call's first closure-VM chunk
_SNAP_BYTES = 1 << 24  # most bytes of the snapshots a chunk's walk keeps at once
_STRATUM_BYTES = 1 << 30  # most bytes of a StratumSpec's suffix tables
# bytes of a suffix table entry: a Python float and its list slot, and a
# share of its list's header and spare slots (33-42 bytes measured with
# tracemalloc, Python 3.11)
_STRATUM_ENTRY_BYTES = 40
# a class of one shot, the most a shot's walk state takes: its _ShotClass
# and members index array (about 370 bytes, 470 at the peak with its
# output bytearray, when 20 coins leave every shot alone, measured with
# tracemalloc over a chunk's walk, Python 3.11); its uniforms (8 bytes a
# draw), output bytes and stratum faults come on top
_SHOT_BYTES = 512
# entries of the longest np.vdot: OpenBLAS runs a longer one on several
# threads, which doubled the CPU time of a 2^14-entry program's shots on a
# 2-core host for no gain in wall time
_DOT = 1 << 13


class ShotError(RuntimeError):
    pass


class _Halt(Exception):
    """Raised when a postselection stops every shot of a path."""


@dataclass(slots=True)
class ShotRecord:
    measurements: np.ndarray
    detectors: np.ndarray
    observables: np.ndarray
    accepted: bool
    weight: float


class ShotState(ShotRng):
    """Reusable storage of the closure VM: the active array of a walk's
    paths, and the fields of one shot, a class of one
    (``members``, :class:`_ShotClass`), its random stream included;
    capacity fixed by the compiled program.

    * The active array is the first 2^k entries of ``buf`` (complex128,
      capacity 2^k_max) at every size; ``active_view()`` returns them.
      ``scratch`` is a work buffer of the same capacity, and ``views``
      keeps the numpy views of the two that the kernels reuse from shot to
      shot. ``pending`` holds the walk's deferred parts, each with its
      snapshot of the array: a group of n shots keeps at most floor(log2 n)
      of them, and sampling keeps a chunk's within ``_SNAP_BYTES``
      (:func:`_fold_shots`). ``classes`` lists the classes of the chunk
      being sampled.
    * ``frame_x``/``frame_z`` hold the Pauli frame as Python ints: bit j is
      virtual qubit j, the bit format of every ``PauliString``.
    * ``out`` holds the records, detectors and observables, in that order,
      as 0/1 bytes; :func:`_columns` names those of the output row.
      ``forced_faults`` is None or ``[the shot's faults]``.
    * The state is the shot's :class:`ShotRng` stream. For sampling it
      tabulates each chunk's draws once (:meth:`ShotRng._table`), and the
      classes of the chunk's shots read their slots of that table.

    A program whose ``buf`` and ``scratch`` (32 * 2^k_max bytes) and
    sampling's snapshots exceed the machine's physical memory is refused
    before anything is allocated.

    ``reset`` moves the stream to a shot and clears only what the shot
    reads before writing it: the frame, the scalars and the observables,
    which accumulate by XOR. Every record and detector is written before it
    is read, so they are cleared only when a postselection can stop a shot
    before writing them all. The walk starts the path's array.
    """

    __slots__ = ("n", "k", "k_max", "buf", "scratch", "views", "pending", "classes", "members",
                 "frame_x", "frame_z", "out", "weight", "accepted",
                 "forced_faults", "forced_outcomes", "active_virtuals", "_clear")

    def __init__(self, prog: BytecodeProgram, seed: int = 0):
        self.n = prog.n
        self.k_max = prog.k_max
        cap = 1 << prog.k_max
        need = (32 + 16 * _snapshots(prog.k_max)) * cap
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ShotError(f"k_max={prog.k_max} needs {need} bytes for its active "
                            "array and snapshots, more than this machine's physical memory")
        self.buf = np.zeros(cap, dtype=np.complex128)
        self.scratch = np.zeros(cap, dtype=np.complex128)
        self.views = {}
        self.pending = []
        self.classes = []
        self.members = [0]
        nr, nd = prog.record_count, prog.num_detectors
        self.out = bytearray(nr + nd + prog.num_observables)
        # rejected shots stop early; only then can stale bits leak into output
        start = 0 if any(isinstance(i, PostSelectIns) for i in prog.instrs) else nr + nd
        self._clear = (start, bytes(len(self.out) - start)) if len(self.out) > start else None
        self.forced_faults = None
        self.forced_outcomes = None
        self.active_virtuals = prog.final_active
        self.k = 0
        super().__init__(seed, 0)  # resets to shot 0, so it comes after out and _clear
        # a shot with no fault draws once per collapse, coin and noise block
        self.widen(sum(isinstance(i, (MeasCollapse, MeasDormantRandom, NoiseBlock))
                       for i in prog.instrs))

    def reset(self, shot: int) -> None:
        self.frame_x = 0
        self.frame_z = 0
        if self._clear is not None:
            start, zeros = self._clear
            self.out[start:] = zeros
        self.weight = 1.0
        self.accepted = True
        ShotRng.reset(self, shot)

    def active_view(self) -> np.ndarray:
        return self.buf[:1 << self.k]

    def snapshot(self) -> tuple:
        """``(k, entries)``: a copy of the live array, for :meth:`restore`."""
        return self.k, self.buf[:1 << self.k].copy()

    def restore(self, snap: tuple) -> None:
        """Make ``snap``, a :meth:`snapshot` or a collapsed half, the live
        array."""
        self.k, entries = snap
        self.buf[:len(entries)] = entries


class _ShotClass(ShotRng):
    """Shots of a group walk that have made the same draws with the same
    outcomes: ``members``, an index array of their slots of the chunk's
    table of draws (:meth:`ShotRng._table`). They share a
    :class:`ShotState`'s shot fields: one frame, one ``out``, one acceptance
    flag and one draw counter; ``forced_faults`` is None or each slot's
    fault list. A class of several draws for its members with numpy
    (:meth:`ShotRng.uniform_each`). The stream is seated at ``members[0]``,
    so a class of one draws as its shot, with the scalar draws."""

    __slots__ = ("frame_x", "frame_z", "out", "accepted", "forced_faults", "members")

    def __init__(self, keys: np.ndarray, uniforms: memoryview, width: int,
                 members: np.ndarray, out: bytearray, count: int = 0, forced_faults=None):
        self._put(keys, uniforms, width)
        self._count = count
        self.frame_x = self.frame_z = 0
        self.out, self.accepted, self.forced_faults = out, True, forced_faults
        self.keep(members)

    def keep(self, members: np.ndarray) -> None:
        """Hold ``members`` from here on, seated at the first if any."""
        self.members = members
        if len(members):
            self._seat(int(members[0]))


def _part(st: ShotState, cls: _ShotClass, members: np.ndarray) -> _ShotClass:
    """A new class of ``members``, shots that the caller takes out of
    ``cls``, with a copy of its frame, bytes and counter, in ``st.classes``."""
    part = _ShotClass(cls._keys, cls._uniforms, cls._width, members, bytearray(cls.out),
                      cls._count, cls.forced_faults)
    part.frame_x, part.frame_z = cls.frame_x, cls.frame_z
    st.classes.append(part)
    return part


def _below(st: ShotState, cls, p: float) -> tuple:
    """Each member of ``cls``, a class of several, draws a uniform. Returns
    whether the draws of the members that ``cls`` keeps are below ``p``, and
    the class of the others, split off, or None when every draw agrees."""
    members = cls.members
    below = cls.uniform_each(members) < p
    part = members[below]
    if len(part) == 0 or len(part) == len(members):
        return len(part) > 0, None
    cls.keep(members[~below])
    return False, _part(st, cls, part)


# -- instruction specialization --------------------------------------------------
#
# Each _c_* factory binds one instruction's operands and returns its step,
# run(st, group): ``st`` holds the path's active array and ``group`` its
# classes (a list the step may change). A step that splits the group
# returns the deferred part: (offset to resume at, classes, snapshot).

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

    def run(st: ShotState, group: list) -> None:
        for c in group:
            c.frame_x, c.frame_z = _conjugate_frame(ops, c.frame_x, c.frame_z)

    return run


def _shots_in(part: list) -> int:
    return sum(len(c.members) for c in part)


def _fork(st: ShotState, group: list, m: int):
    """Split ``group`` by the frame X bit ``m`` that a kernel reads. Returns
    that bit of the classes left in ``group`` and, when some have the other
    bit, their deferred part, which reruns this instruction on a snapshot
    of the array. The part of fewer shots stays."""
    first = group[0].frame_x & m
    for c in group:
        if c.frame_x & m != first:
            break
    else:
        return 1 if first else 0, None
    ones = [c for c in group if c.frame_x & m]
    zeros = [c for c in group if not c.frame_x & m]
    stay, bit, other = (ones, 1, zeros) if _shots_in(ones) <= _shots_in(zeros) \
        else (zeros, 0, ones)
    group[:] = stay
    return bit, (0, other, st.snapshot())


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


def _array_gate_kernel(ins: ArrayGate):
    """The amplitude kernel ``kernel(st)`` of an ``ArrayGate``."""
    g, size = ins.gate, ins.size
    a, b = ins.axa, ins.axb
    if g == "S":
        ph = _c0(1j)

        def make(st):
            return tuple(_halves(x, a - s)[1] for x, s in _split(st.buf[:size], a))

        def kernel(st: ShotState) -> None:
            for v1 in _views(st, make):
                np.multiply(v1, ph, out=v1)

        return kernel
    if g == "H":
        step = 1 << a
        inv_sqrt2 = _c0(_INV_SQRT2)

        def make(st):
            parts = tuple(_halves(x, a - s) + (st.scratch[: len(x) // 2].reshape(-1, step >> s),)
                          for x, s in _split(st.buf[:size], a))
            return st.buf[:size], parts

        def kernel(st: ShotState) -> None:
            whole, parts = _views(st, make)
            for v0, v1, sc in parts:
                np.copyto(sc, v0)
                np.add(sc, v1, out=v0)
                np.subtract(sc, v1, out=v1)
            np.multiply(whole, inv_sqrt2, out=whole)

        return kernel
    hi, lo = max(a, b), min(a, b)
    mid = 1 << (hi - lo - 1)  # entries between the two axes
    if g == "CX":
        def make(st):
            # (destination, source): the control-set block with its target
            # axis reversed; numpy buffers the overlapping copy. The runs of
            # entries below the lower axis move whole, as void elements.
            view = _blocks(st.buf[:size], lo).reshape(-1, 2, mid, 2)
            if a == hi:
                return view[:, 1], view[:, 1, :, ::-1]
            return view[:, :, :, 1], view[:, ::-1, :, 1]

        def kernel(st: ShotState) -> None:
            np.copyto(*_views(st, make))

        return kernel
    if g == "CZ":
        minus = _c0(-1)  # a multiply: numpy's complex negative has no fast loop

        def make(st):
            return tuple(x.reshape(-1, 2, mid, 2, 1 << (lo - s))[:, 1, :, 1, :]
                         for x, s in _split(st.buf[:size], lo))

        def kernel(st: ShotState) -> None:
            for v11 in _views(st, make):
                np.multiply(v11, minus, out=v11)

        return kernel
    raise ShotError(f"unknown array gate {g}")


def _c_array_gate(ins: ArrayGate, prog):
    ops = _frame_ops(((ins.gate, ins.va, ins.vb),))
    kernel = _array_gate_kernel(ins)

    def run(st: ShotState, group: list) -> None:
        for c in group:
            c.frame_x, c.frame_z = _conjugate_frame(ops, c.frame_x, c.frame_z)
        kernel(st)

    return run


def _expand_kernel(ins: Expand):
    """The amplitude kernel ``kernel(st, parity)`` of an ``Expand``, given the
    frame X bit of its qubit."""
    size = ins.size
    e0 = cmath.exp(-1j * ins.angle) * _INV_SQRT2
    e1 = cmath.exp(1j * ins.angle) * _INV_SQRT2
    phases = ((_c0(e0), _c0(e1)), (_c0(e1), _c0(e0)))  # indexed by frame parity

    def make(st):
        return st.buf[:size], st.buf[size: 2 * size]

    def kernel(st: ShotState, parity: int) -> None:
        ph0, ph1 = phases[parity]
        old, new = _views(st, make)
        np.multiply(old, ph1, out=new)
        np.multiply(old, ph0, out=old)
        st.k += 1

    return kernel


def _array_rot_kernel(ins: ArrayRot):
    """The amplitude kernel ``kernel(st, parity)`` of an ``ArrayRot``, given
    the frame X bit of its qubit. It multiplies only branch 1, by its phase
    relative to branch 0's, and so leaves out branch 0's phase, a global
    one."""
    a, size = ins.axis, ins.size
    e0 = cmath.exp(-1j * ins.angle)
    e1 = e0.conjugate()
    ratios = (_c0(e1 / e0), _c0(e0 / e1))  # indexed by frame parity

    def make(st):
        return tuple(_halves(x, a - s)[1] for x, s in _split(st.buf[:size], a))

    def kernel(st: ShotState, parity: int) -> None:
        ratio = ratios[parity]
        for v1 in _views(st, make):
            np.multiply(v1, ratio, out=v1)

    return kernel


def _c_probe(ins: Expand | ArrayRot, prog):
    """The step of an ``Expand`` or ``ArrayRot``, whose kernel reads the
    frame X bit of its qubit, the probe bit."""
    m = 1 << ins.virt
    kernel = (_expand_kernel if type(ins) is Expand else _array_rot_kernel)(ins)

    def run(st: ShotState, group: list):
        parity, split = _fork(st, group, m)
        kernel(st, parity)
        return split

    return run


def _c_meas_dormant_static(ins: MeasDormantStatic, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip

    def run(st: ShotState, group: list) -> None:
        for c in group:
            c.out[record] = ((c.frame_x >> virt) & 1) ^ flip
        fo = st.forced_outcomes
        if fo is not None:
            forced = fo.get(record)
            if forced is not None and any(c.out[record] != forced for c in group):
                raise ShotError(
                    f"forced outcome {forced} for record {record} has probability 0")

    return run


def _c_meas_dormant_random(ins: MeasDormantRandom, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip
    m = 1 << virt

    def run(st: ShotState, group: list) -> None:
        fo = st.forced_outcomes
        forced = None if fo is None else fo.get(record)
        parted = None
        for c in group:
            fx, fz = c.frame_x, c.frame_z
            p = (fz >> virt) & 1
            if (fx ^ fz) & m:  # swap the x and z bits
                fx ^= m
                fz ^= m
            if forced is not None:
                coin = forced ^ p ^ flip
            elif len(c.members) == 1:
                coin = 1 if c.uniform() >= 0.5 else 0
            else:  # each member's coin: the class of the 0s is split off
                zero, part = _below(st, c, 0.5)
                coin = 0 if zero else 1
                if part is not None:
                    part.out[record] = p ^ flip
                    part.frame_x, part.frame_z = fx, fz
                    parted = parted or []
                    parted.append(part)
            c.out[record] = coin ^ p ^ flip
            c.frame_x, c.frame_z = fx ^ m if coin else fx, fz
        if parted:
            group += parted

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
    (f0, c0, eps0), (f1, c1, eps1) = _row_form(*ins.u[0]), _row_form(*ins.u[1])
    eps0, eps1 = _c0(eps0), _c0(eps1)
    c1_sq = abs(c1) ** 2

    def make(st):
        """(copy, halves, v0, v1, head, tmp, tmp2, k, lanes): the
        (destination, source) copy that fills ``halves`` when they are not
        the array's two slices; the contiguous branch halves v0 and v1, its
        two halves; the collapsed array's place; two work halves apart from
        all three; a 0-d slot for a branch's factor; and the lanes that
        ``head`` transposes, 0 when it is a plain slice."""
        buf, sc = st.buf, st.scratch
        k = _c0(0)
        if step == half:
            return None, buf[:size], buf[:half], buf[half:size], buf[:half], sc[:half], \
                sc[half:size], k, 0
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
        return copy, sc[:size], v0, v1, buf[:half].reshape(-1, lanes).T, tmp, tmp2, k, lanes

    def run(st: ShotState, group: list):
        # the branch probability, once per path
        copy, halves, v0, v1, head, tmp, tmp2, k, lanes = _views(st, make)
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
        # a draw per member, the record and frame per class. A draw that hits
        # the floor takes the other branch with probability 1 - p_branch, its
        # own: for a flip to 1, p1 > 1 - BRANCH_FLOOR >= 1/2, so 1 - p1 is
        # exact and 1 - (1 - p1) == p1. So a path's shots take one of two
        # (branch, probability) pairs, one array each.
        q0 = 1.0 - p1
        probs = (q0, p1)
        hit = 1 if p1 >= BRANCH_FLOOR else 0  # the branch of a draw below p1
        miss = 0 if q0 >= BRANCH_FLOOR else 1  # and of any other draw
        fo = st.forced_outcomes
        forced = None if fo is None else fo.get(record)
        parts = ([], [])
        for c in group:
            fx, fz = c.frame_x, c.frame_z
            if pre is not None:
                dx, dz = pre[(2 if fx & m else 0) | (1 if fz & m else 0)]
                fx ^= dx
                fz ^= dz
            parity = (fx >> virt) & 1
            if forced is not None:
                branch = forced ^ parity ^ flip
                if probs[branch] < BRANCH_FLOOR:
                    raise ShotError(
                        f"forced outcome {forced} for record {record} has probability"
                        f" {probs[branch]:.3e}")
            elif len(c.members) == 1:
                branch = hit if c.uniform() < p1 else miss
            elif hit == miss:  # every draw takes one branch: count them, unread
                c._count += 1
                branch = hit
            else:  # a draw below p1 takes branch 1: that class is split off
                one, part = _below(st, c, p1)
                branch = 1 if one else 0
                if part is not None:
                    part.out[record] = 1 ^ parity ^ flip
                    part.frame_x, part.frame_z = fx ^ m, fz
                    parts[1].append(part)
            c.out[record] = branch ^ parity ^ flip
            if branch:
                fx ^= m
            c.frame_x, c.frame_z = fx, fz
            parts[branch].append(c)
        # each branch taken, once: the deferred one into a fresh array of its
        # collapsed half, then the group's in place; the part of fewer shots
        # stays
        both = parts[0] and parts[1]
        stay = 1 if not parts[0] or both and _shots_in(parts[1]) < _shots_in(parts[0]) else 0
        split = None
        for branch in ((1 - stay, stay) if both else (stay,)):
            scale = 1.0 / math.sqrt(probs[branch] * p_all)
            here = branch == stay
            if here:
                out, spare = head, tmp
            else:
                entries = np.empty(half, dtype=np.complex128)
                out, spare = (entries.reshape(-1, lanes).T if lanes else entries), tmp2
            if branch:
                k[()] = c1 * scale
                np.multiply(w1, k, out=out)
            else:
                k[()] = c0 * scale
                np.multiply(_row(f0, eps0, v0, v1, out, spare), k, out=out)
            if not here:
                split = (1, parts[branch], (st.k - 1, entries))
                group[:] = parts[stay]
        st.k -= 1
        return split

    return run


def _c_cond_frame(ins: CondFrame, prog):
    xmask, zmask, record = ins.xmask, ins.zmask, ins.record

    def run(st: ShotState, group: list) -> None:
        for c in group:
            if c.out[record]:
                c.frame_x ^= xmask
                c.frame_z ^= zmask

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
    tails = [plan[i:] for i in range(len(plan))]  # the plan from each part on
    lo_key, hi_key = (lo,), (hi,)  # (s,) sorts just before the pairs of site s

    def listed(f: list) -> list:
        return f[bisect_left(f, lo_key):bisect_left(f, hi_key)]

    def run(st: ShotState, group: list) -> None:
        left = None  # the classes of one that members of a class leave for
        for c in group:
            members, ff = c.members, c.forced_faults
            if len(members) == 1:  # a class of one takes its faults as its shot
                if ff is not None:
                    faults = listed(ff[members[0]])
                elif one_segment:
                    faults = _segment_faults(S, sites, c, lo, hi)
                else:
                    faults = _plan_faults(S, sites, plan, c)
                if faults:
                    _take(c, faults, sites)
                continue
            left = left or []
            if ff is not None:  # a member with a fault listed here leaves with it
                gone = np.array([bool(listed(ff[s])) for s in members.tolist()])
                for one in _leave(st, c, gone, c._count, left):
                    _take(one, listed(ff[one._slot]), sites)
                continue
            for i, part in enumerate(plan):
                count = c._count
                if type(part) is int:
                    tab = sites[part]
                    if len(tab.case_cum) == 1:  # a certain fault of one case
                        c.frame_x ^= tab.case_x[0]
                        c.frame_z ^= tab.case_z[0]
                        continue
                    gone = np.ones(len(members), dtype=bool)  # each draws its case
                else:
                    # the members whose first hazard skip may land in the
                    # segment: numpy only clears a member that surely survives
                    gone = _may_fault(S[part[0]], c.uniform_each(members), S[part[1]])
                # each leaves for a class of one, which draws from this part
                # on with the exact arithmetic, the same draw first
                for one in _leave(st, c, gone, count, left):
                    _take(one, _plan_faults(S, sites, tails[i], one), sites)
                members = c.members
                if not len(members):
                    break
        if left:
            group[:] = [c for c in group if len(c.members)] + left

    return run


def _leave(st: ShotState, c, gone: np.ndarray, count: int, left: list) -> list:
    """Move the members of ``c`` where the mask ``gone`` holds each to a
    class of one at draw ``count``; returns those classes, which ``left``
    gains too."""
    if not gone.any():
        return []
    members = c.members
    slots = members[gone]
    c.keep(members[~gone])
    ones = [_part(st, c, slots[j:j + 1]) for j in range(len(slots))]
    for one in ones:
        one._count = count
    left += ones
    return ones


def _take(c, faults: list, sites) -> None:
    """XOR the faults into the frame of ``c``, a class of one, which draws
    each None case."""
    for site, case in faults:
        tab = sites[site]
        if case is None:
            case = _pick_case(tab, c)
        c.frame_x ^= tab.case_x[case]
        c.frame_z ^= tab.case_z[case]


def _c_detector(ins: DetectorIns, prog):
    index, records = prog.record_count + ins.index, ins.records

    def run(st: ShotState, group: list) -> None:
        for c in group:
            out = c.out
            bit = 0
            for r in records:
                bit ^= out[r]
            out[index] = bit

    return run


def _c_observable(ins: ObservableIns, prog):
    index = prog.record_count + prog.num_detectors + ins.index
    records = ins.records

    def run(st: ShotState, group: list) -> None:
        for c in group:
            out = c.out
            bit = 0
            for r in records:
                bit ^= out[r]
            out[index] ^= bit

    return run


def _c_postselect(ins: PostSelectIns, prog):
    ref = prog.record_count + ins.ref if ins.kind == "detector" else ins.ref
    required = ins.required

    def run(st: ShotState, group: list) -> None:
        stopped = [c for c in group if c.out[ref] != required]
        if stopped:
            for c in stopped:
                c.accepted = False
            if len(stopped) == len(group):
                raise _Halt
            group[:] = [c for c in group if c.accepted]

    return run


_FACTORIES = {
    FrameGates: _c_frame,
    ArrayGate: _c_array_gate,
    Expand: _c_probe,
    ArrayRot: _c_probe,
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
    """The program's runtime cache: its instruction closures (``"code"``),
    its frame table (``"table"``) and its output columns (``"columns"``),
    each built on first use. Code that edits ``prog.instrs`` drops the
    whole entry."""
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


def _frame_table(prog: BytecodeProgram):
    """The engine switch: the program's frame table (:mod:`framesim.table`),
    or None when the closure VM runs it: the program has an active array, or
    the table would exceed ``table._TABLE_BITS``."""
    if prog.k_max:
        return None
    cache = _cache(prog)
    if "table" not in cache:
        cache["table"] = _build_table(prog)
    return cache["table"]


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
    outcome, 0 or 1, a measurement must give. Sites that do not increase
    strictly from 0, a case that is not one of its site's, a negative
    record or another outcome raise ``ValueError``. Sites and records past
    the program's last are ignored: ``testing.crosscheck`` hands each
    prefix of a circuit the whole circuit's plans.
    """
    if forced_faults is not None or forced_outcomes is not None:
        _check_forced(prog, forced_faults, forced_outcomes)
    if state is None:
        state = ShotState(prog, seed=seed)
    else:
        _check_state(prog, state)
    _run(prog, _compiled(prog), state, shot, None, forced_faults, forced_outcomes, trace)
    return make_record(prog, state)


def _check_forced(prog: BytecodeProgram, forced_faults, forced_outcomes) -> None:
    """Refuse the forced inputs that ``run_shot`` would misread."""
    last = -1
    for site, case in forced_faults or ():
        if site <= last:
            raise ValueError(f"forced fault sites must increase strictly from 0, got "
                             f"{[s for s, _ in forced_faults]}")
        last = site
        if site < len(prog.sites) and case is not None:
            cases = len(prog.sites[site].case_cum)
            if case not in range(cases):
                raise ValueError(f"forced case {case!r} of site {site}, which has "
                                 f"{cases} case(s)")
    for record, outcome in (forced_outcomes or {}).items():
        if record < 0 or outcome not in (0, 1):
            raise ValueError(f"forced outcome {outcome!r} for record {record}: "
                             f"records are non-negative and outcomes 0 or 1")


def _check_state(prog: BytecodeProgram, state: ShotState) -> None:
    """Refuse ``state`` when it was built for a program of another size or
    of other final active qubits, which ``expectation_probe`` reads."""
    have = (state.n, state.k_max, len(state.out), state.active_virtuals)
    want = (prog.n, prog.k_max, prog.record_count + prog.num_detectors + prog.num_observables,
            prog.final_active)
    if have != want:
        raise ValueError(f"a ShotState of (n, k_max, output width, active qubits) {have} "
                         f"given for a program of {want}")


def _run(prog, code: list, state: ShotState, shot: int, stratum=None, forced_faults=None,
         forced_outcomes=None, trace=None) -> bool:
    """Run shot ``shot`` of ``prog`` on ``state``, a group of one: reset, let
    the stratum draw the shot's fault list (which then replaces
    ``forced_faults``) and set its weight, and walk ``code``, the program's
    closures. ``trace(state, ins)`` is called after each instruction.
    Returns whether the shot was accepted."""
    state.reset(shot)
    if stratum is not None:
        forced_faults = stratum.draw_forced(state)
        state.weight = stratum.weight
    state.forced_faults = None if forced_faults is None else [forced_faults]
    state.forced_outcomes = forced_outcomes
    _walk(prog, code, state, [state], trace)
    return state.accepted


def _walk(prog, code: list, st: ShotState, group: list, trace=None) -> None:
    """Run the classes of ``group``, each at its start, through ``code``,
    the program's closures, depth first on ``st``'s one active array: a path
    runs until the end or until a postselection stops its last class, and
    then the walk takes up the part deferred last. ``trace(st, ins)`` is
    called after each instruction of a group of one."""
    st.k = 0
    st.buf[0] = 1
    pending = st.pending
    pending[:] = [(0, group, None)]
    while pending:
        pc, group, snap = pending.pop()
        if snap is not None:
            st.restore(snap)
            snap = None  # the array holds it now
        steps = iter(code)
        if pc:
            next(itertools.islice(steps, pc, pc), None)  # skip to pc
        try:
            for fn in steps if trace is None else _traced(steps, prog, pc, st, trace):
                split = fn(st, group)
                if split is not None:
                    # the iterator stands just past the step that split
                    step, part, snap = split
                    pc = len(code) - length_hint(steps) - 1
                    pending.append((pc + step, part, snap))
        except _Halt:
            pass


def _traced(steps, prog, pc: int, st: ShotState, trace):
    """The steps of ``steps``, the program's from ``pc`` on, each followed,
    once it has run, by ``trace(st, ins)`` with its instruction."""
    for fn, ins in zip(steps, itertools.islice(prog.instrs, pc, None)):
        yield fn
        trace(st, ins)


def make_record(prog: BytecodeProgram, state: ShotState) -> ShotRecord:
    """The shot ``state`` holds, its three fields slices of one fresh row
    of its output bits, as :func:`sample` makes them."""
    bits = np.frombuffer(state.out, dtype=np.uint8)
    cols = _columns(prog)
    # fancy indexing already yields a fresh array
    row = bits.copy() if cols is None else bits[cols]
    nm = len(prog.user_records)
    nmd = nm + prog.num_detectors
    return ShotRecord(row[:nm], row[nm:nmd], row[nmd:], state.accepted, state.weight)


def _columns(prog: BytecodeProgram):
    """The bytes of a shot's ``out`` that form its output row (user
    records, detectors, observables), or None when the user records are
    all the records, and the row is all of ``out``."""
    cache = _cache(prog)
    if "columns" not in cache:
        user, nr = prog.user_records, prog.record_count
        end = nr + prog.num_detectors + prog.num_observables
        cache["columns"] = None if user == tuple(range(nr)) else np.concatenate(
            [np.array(user, dtype=np.intp), np.arange(nr, end, dtype=np.intp)])
    return cache["columns"]


def _snapshots(k_max: int) -> int:
    """How many snapshots of a 2^k_max-entry array fit ``_SNAP_BYTES``. A
    group of n shots keeps at most floor(log2 n) of them, so a chunk stays
    below 2^(this + 1) shots."""
    return _SNAP_BYTES // (16 << k_max)


def _fold_shots(prog: BytecodeProgram, stratum=None) -> int:
    """Most shots of a chunk: about _FOLD_BYTES of unpacked output bits and,
    on the closure VM, of the walk's per-shot state, and few enough that
    the walk's snapshots fit _SNAP_BYTES."""
    width = len(prog.user_records) + prog.num_detectors + prog.num_observables
    if _frame_table(prog) is not None:
        return max(1, _FOLD_BYTES // max(width, 1))
    # each shot's class, its table of uniforms, its output bytes and their
    # copy in the chunk's rows, and its stratum's fault list of w (site,
    # None) pairs (57 + about 90 w bytes)
    width += _SHOT_BYTES + 8 * _MAX_WIDTH \
        + 2 * (prog.record_count + prog.num_detectors + prog.num_observables)
    if stratum is not None:
        width += 64 + 128 * stratum.w
    return max(1, min(_FOLD_BYTES // width, (2 << min(_snapshots(prog.k_max), 62)) - 1))


def _chunk_shots(prog: BytecodeProgram) -> int:
    """Shots of :func:`sample`'s first chunk: :func:`_fold_shots`, and for a
    program with an active array at most about _CHUNK_WORK amplitude
    operations (its work, the sum of its sweep sizes, per shot), so that a
    slow program's first record does not wait long."""
    shots = _fold_shots(prog)
    if prog.k_max:
        shots = min(shots, max(1, _CHUNK_WORK // _plan_cost(prog)[1]))
    return shots


def _integer(value, name: str) -> int:
    """``value`` as an int, or a ValueError naming it as ``name``."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None


def _bounds(shots: int, first: int, most: int):
    """The (lo, hi) of each chunk of shots [0, ``shots``): ``first`` shots,
    then ``most`` at a time. The bounds are made as they are taken."""
    lo, step = 0, first
    while lo < shots:
        hi = min(lo + step, shots)
        yield lo, hi
        lo, step = hi, most


def _classes(state: ShotState, lo: int, hi: int, stratum) -> list:
    """Shots [lo, hi) of ``state``'s seed, on one table of draws, as the
    classes a walk starts with, which start ``state.classes``: one class,
    or with a stratum, once each shot has drawn its fault list, one per
    count of draws."""
    keys, uniforms, width = state._table(lo, hi)
    size = len(state.out)
    classes = [_ShotClass(keys, uniforms, width, np.arange(hi - lo), bytearray(size))]
    if stratum is not None:
        faults, counts = classes[0]._each_slot(stratum.draw_forced, hi - lo)
        slots = {}
        for slot, count in enumerate(counts):
            slots.setdefault(count, []).append(slot)
        classes = [_ShotClass(keys, uniforms, width, np.array(members), bytearray(size), count,
                              faults)
                   for count, members in slots.items()]
    state.classes = list(classes)
    return classes


def _shot_rows(prog: BytecodeProgram, engine, seed: int, lo: int, hi: int, stratum,
               keep_rejected: bool) -> tuple[np.ndarray, np.ndarray]:
    """Shots [lo, hi) on ``engine``, the program's frame table or a
    ShotState of ``prog`` seeded with ``seed``, on which the closure VM
    walks them as one group: each kept shot's output bits (user records,
    detectors, observables; the :func:`_columns` of its final class's
    ``out``) packed little-endian, one uint8 row per shot, and its
    acceptance flags (bool). A rejected shot is kept only with
    ``keep_rejected``. This is the one place that runs shots for ``sample``
    and ``sample_accumulate``."""
    if type(engine) is not ShotState:
        return _table_shots(engine, seed, lo, hi, stratum, keep_rejected)
    state = engine
    _walk(prog, _compiled(prog), state, _classes(state, lo, hi, stratum))
    classes, state.classes = state.classes, []
    state.widen(max(c._count for c in classes))
    final = [None] * (hi - lo)  # each shot's final class
    for c in classes:
        for slot in c.members.tolist():
            final[slot] = c
    if not keep_rejected:
        final = [c for c in final if c.accepted]
    width = len(state.out)
    bits = np.frombuffer(b"".join([c.out for c in final]), dtype=np.uint8)
    bits = bits.reshape(len(final), width)
    flags = bytes([c.accepted for c in final])
    cols = _columns(prog)
    if cols is not None:
        bits = bits[:, cols]
    return np.packbits(bits, axis=1, bitorder="little"), np.frombuffer(flags, dtype=bool)


def _chunks(prog: BytecodeProgram, shots: int, seed: int, workers: int, stratum,
            keep_rejected: bool, stream: bool):
    """Yield each chunk of :func:`_shot_rows` in shot order, unpacked to one
    uint8 row of output bits per kept shot, with its acceptance flags; the
    chunks come from a fork pool when :func:`sample`'s rule for
    ``workers`` starts one.

    This is the one chunk rule. Each chunk holds :func:`_fold_shots`
    shots, and no more than a worker's share in a pool. With ``stream``,
    set by :func:`sample`, whose records go out as each chunk arrives, the
    first chunk holds at most :func:`_chunk_shots`, so the first record
    comes soon. Without it the first chunk is full size too, so that more
    shots share each path."""
    shots, workers = _integer(shots, "shots"), _integer(workers, "workers")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if stratum is not None and stratum.probs != [s.prob for s in prog.sites]:
        raise ValueError("the stratum was built for a program of other noise sites")
    # the engine, once and before any fork; a state's views are built on its
    # first shot, so every chunk of a process runs on the one state
    engine = _frame_table(prog)
    if engine is None:
        engine = ShotState(prog, seed=seed)
        _compiled(prog)
    most = _fold_shots(prog, stratum)
    first = min(_chunk_shots(prog), most) if stream else most
    workers = min(workers, shots, os.cpu_count() or 1)
    if workers > 1 and (type(engine) is ShotState or shots > workers * first):
        most = min(most, -(-shots // workers))
        bounds = _bounds(shots, min(first, most), most)
        parts = _sample_parallel(prog, engine, bounds, seed, workers, stratum, keep_rejected)
    else:
        parts = (_shot_rows(prog, engine, seed, lo, hi, stratum, keep_rejected)
                 for lo, hi in _bounds(shots, first, most))
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

    ``workers`` must be at least 1, and is capped at the shot count and
    ``os.cpu_count()``. A fork pool starts only when that leaves more than
    one worker and, for a frame-table program, when each worker gets more
    than a whole chunk of shots; below that the pool costs more than the
    shots, and this process samples alone.
    """
    weight = 1.0 if stratum is None else stratum.weight
    nm = len(prog.user_records)
    nmd = nm + prog.num_detectors
    for bits, flags in _chunks(prog, shots, seed, workers, stratum, keep_rejected, True):
        for m, d, o, accepted in zip(bits[:, :nm], bits[:, nm:nmd], bits[:, nmd:],
                                     flags.tolist()):
            yield ShotRecord(m, d, o, accepted, weight)


_WORKER = None  # a pool worker's (prog, engine, seed, stratum, keep_rejected)


def _init_worker(*args) -> None:
    """Pool initializer. A fork worker gets its arguments by inheritance, not
    by pickle, so the program and its engine arrive as the parent built
    them; a closure-VM worker runs all its jobs on its copy of the state."""
    global _WORKER
    _WORKER = args


def _worker_range(bounds):
    """Shots [lo, hi) in a pool worker, as packed rows."""
    prog, engine, seed, stratum, keep_rejected = _WORKER
    return _shot_rows(prog, engine, seed, *bounds, stratum, keep_rejected)


def _sample_parallel(prog, engine, jobs, seed, workers, stratum, keep_rejected):
    """Yield the packed chunks of :func:`_shot_rows` in shot order from a
    pool of ``workers`` fork workers, which inherit ``engine``; ``jobs`` is
    the chunk bounds of :func:`_chunks`, a :func:`_bounds` generator. The
    bounds are made as jobs are sent, and at most two chunks per worker are
    in flight, so the parent holds a bounded number of chunks whatever the
    shot count."""
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(workers, initializer=_init_worker,
                  initargs=(prog, engine, seed, stratum, keep_rejected)) as pool:
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

    The accepted shots' bits are summed a chunk at a time. Without a
    stratum each weight is 1.0, so a chunk adds its count of shots, the
    sum a shot-by-shot loop makes, since every partial sum is an integer
    below 2^53; a stratum's weight is added one shot at a time. Nothing
    is returned before the last chunk, so every chunk, the first too, holds
    as many shots as the memory budget allows (:func:`_fold_shots`), and
    the shots of a chunk share the amplitude work of each path they take.
    """
    nm = len(prog.user_records)
    nmd = nm + prog.num_detectors
    totals = np.zeros(nmd + prog.num_observables, dtype=np.int64)
    weight = 1.0 if stratum is None else stratum.weight
    accepted = 0
    weight_sum = 0.0
    for bits, flags in _chunks(prog, shots, seed, 1, stratum, False, False):
        totals += bits.sum(axis=0, dtype=np.int64)
        accepted += len(flags)
        if stratum is None:  # whole partial sums, below 2^53: exact
            weight_sum += float(len(flags))
            continue
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
        w = _integer(w, "stratum fault count")
        if w < 0:
            raise ValueError(f"stratum fault count {w} is negative")
        if w > e:
            raise ValueError(f"stratum fault count {w} exceeds {e} sites")
        # suffix[i] below holds min(e - i, w) + 1 entries
        need = _STRATUM_ENTRY_BYTES * ((w + 1) * (w + 2) // 2 + (e - w) * (w + 1))
        if need > _STRATUM_BYTES:
            raise ValueError(f"stratum fault count {w} over {e} noise sites needs about "
                             f"{need} bytes of tables, more than {_STRATUM_BYTES}")
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
    active support costs one traversal of the active array. The shot must
    have been accepted: a failed postselection stops it before the final
    tableau and active set the probe reads.
    """
    _check_state(prog, state)
    if not observable.is_hermitian():
        raise ValueError("probe observable must be Hermitian")
    if not state.accepted:
        raise ValueError("probe of a shot that a postselection stopped")
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
