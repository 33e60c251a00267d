"""Bytecode execution over the factored runtime state, and sampling.

Sampling has one engine, the frame table (:mod:`framesim.table`): a shot's
output bits are a constant XOR the effect rows of the random inputs that
fire, and a chunk of shots draws each span of its draws on a numpy grid.
A program with an active array (``k_max`` > 0) adds the path walk: after
each span, the ``ArrayGate``, ``Expand``, ``ArrayRot`` and ``MeasCollapse``
instructions up to the next check run on the batch of the chunk's paths
(:func:`_path_steps`), each shot reading its probe bits from its own XOR
row and its branch from its collapse draw. A program whose table build
would pass ``table._TABLE_BITS`` samples shot by shot on the closure VM.
``run_shot``, ``trace``, ``expectation_probe`` and ``testing.crosscheck``
always use the closure VM, the single-path reference engine.

The batch is ``buf[:rows << k]`` viewed as (rows, 2^k), with rows * 2^k <=
2^k_max, and every amplitude kernel runs once per step over its leading
path axis; a shot of the closure VM is a batch of one row, on the same
kernels. ``Expand`` and ``ArrayRot`` give each row its probe bit, copying a
row whose shots read both; past the capacity the rows of fewer shots stay
and the others are deferred with a snapshot of their rows, so at most
floor(log2 shots) snapshots live at once. ``MeasCollapse`` computes its
branch probability per row and lays out the branches taken as the next
batch's rows, which always fit. Only the walk's steps run under a small
ufunc buffer, ``table._WALK_BUF`` elements; spans, checks, the closure VM
and the caller keep their own.

``_chunks`` picks the engine once per call, before any fork, and runs the
shots in chunks sized by ``_fold_shots`` (and, for ``sample``'s first,
``_chunk_shots``) through ``_shot_rows``, here or in a fork pool. README's
"Sampling" and "Amplitude kernels" give the design and its measurements.
"""
from __future__ import annotations

import cmath
import itertools
import math
import os
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from operator import index

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
from .rng import ShotRng
from .table import _Active, _build_table, _Part, _Span, _table_shots

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
BRANCH_FLOOR = 1e-12
_FOLD_BYTES = 1 << 20  # unpacked output bytes and walk state of a chunk of shots
_CHUNK_WORK = 1 << 24  # most amplitude operations of a sample call's first path-walk chunk
_SNAP_BYTES = 1 << 24  # most bytes of the snapshots a chunk's walk keeps at once
_STRATUM_BYTES = 1 << 30  # most bytes of a StratumSpec's suffix tables
# bytes of a suffix table entry: a Python float and its list slot, and a
# share of its list's header and spare slots (33-42 bytes measured with
# tracemalloc, Python 3.11)
_STRATUM_ENTRY_BYTES = 40
# shots of a part up to which the path walk's steps keep its bookkeeping in
# Python lists (a probe step's keys, _relayout's count and layout, a
# collapse's branches, fired rows and layout): a numpy call costs about a
# microsecond whatever its size
_FEW = 16
# floats of the longest dot: OpenBLAS runs one of more than 10^4 on several
# threads, which doubled the CPU time of a 2^14-entry program's shots on a
# 2-core host for no gain in wall time
_DOT = 1 << 13


class ShotError(RuntimeError):
    pass


class _Halt(Exception):
    """Raised when a postselection stops the shot."""


@dataclass(slots=True)
class ShotRecord:
    measurements: np.ndarray
    detectors: np.ndarray
    observables: np.ndarray
    accepted: bool
    weight: float


class ShotState(ShotRng):
    """Reusable storage of the closure VM, one shot and its random stream,
    and of the path walk's batch; capacity fixed by the compiled program.

    * The batch is ``rows`` rows of 2^k entries, ``buf[:rows << k]``
      (complex128, capacity 2^k_max), with rows * 2^k <= 2^k_max;
      ``active_view()`` returns row 0, a shot's whole array. ``scratch`` is
      a work buffer of the same capacity, which a kernel may write and
      :meth:`swap` in, and ``views`` keeps the kernels' numpy views of the
      two per row count. ``pending`` holds the path walk's deferred parts
      (``table._Part``), each with a snapshot of its rows, at most 2^k_max
      entries: a chunk of n shots keeps at most floor(log2 n) of them, and
      within ``_SNAP_BYTES`` (:func:`_fold_shots`).
    * ``frame_x``/``frame_z`` hold the Pauli frame as Python ints: bit j is
      virtual qubit j, the bit format of every ``PauliString``.
    * ``out`` holds the records, detectors and observables, in that order,
      as 0/1 bytes; :func:`_columns` names those of the output row.
      ``forced_faults`` is None or the shot's faults.

    A program whose ``buf`` and ``scratch`` (32 * 2^k_max bytes) and
    sampling's snapshots exceed the machine's physical memory is refused
    before anything is allocated. ``reset`` moves the stream to a shot and
    clears what the shot reads before writing it: the frame, the scalars,
    the observables (accumulated by XOR), and the records and detectors
    only when a postselection can stop a shot before writing them all.
    """

    __slots__ = ("n", "k", "k_max", "rows", "buf", "scratch", "views", "pending",
                 "frame_x", "frame_z", "out", "weight", "accepted",
                 "forced_faults", "forced_outcomes", "active_virtuals", "_clear")

    def __init__(self, prog: BytecodeProgram, seed: int = 0):
        seed = _word(seed, "seed")
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
        nr, nd = prog.record_count, prog.num_detectors
        self.out = bytearray(nr + nd + prog.num_observables)
        # rejected shots stop early; only then can stale bits leak into output
        start = 0 if any(isinstance(i, PostSelectIns) for i in prog.instrs) else nr + nd
        self._clear = (start, bytes(len(self.out) - start)) if len(self.out) > start else None
        self.forced_faults = None
        self.forced_outcomes = None
        self.active_virtuals = prog.final_active
        self.k = 0
        self.rows = 1
        super().__init__(seed, 0)  # resets to shot 0, so it comes after out and _clear

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
        """The first row of the batch: a shot's whole array."""
        return self.buf[:1 << self.k]

    def restore(self, snap: tuple) -> None:
        """Make ``snap``, ``(k, entries)`` with whole rows of 2^k entries,
        the live batch."""
        self.k, entries = snap
        self.buf[:len(entries)] = entries
        self.rows = len(entries) >> self.k

    def swap(self) -> None:
        """Make the work buffer, which a kernel has written, the batch's."""
        self.buf, self.scratch = self.scratch, self.buf


# -- instruction specialization --------------------------------------------------
#
# Each _c_* factory binds one instruction's operands and returns its step
# on the closure VM, run(st), for the shot that ``st`` holds. The kernels
# (_*_kernel) act on the batch of ``st``: one row for a shot, the paths of
# a step for the path walk (_path_steps).

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


def _views(st: ShotState, make):
    """``make(st)``: numpy views of the state's buffers for a batch of
    ``st.rows`` rows, built once per state, row count and buffer order."""
    key = (make, st.rows, id(st.buf))
    views = st.views.get(key)
    if views is None:
        views = st.views[key] = make(st)
    return views


def _c0(z) -> np.ndarray:
    """A complex 0-d array: as a ufunc operand it costs less per call than a
    Python scalar, which numpy has to convert and promote each time."""
    return np.array(z, dtype=np.complex128)


def _split(x: np.ndarray, lo: int) -> tuple:
    """``(sub, shift)`` pairs that cover the batch ``x``, whole rows flat,
    for a kernel whose lowest axis is ``lo``: on axis 1 the two stride-2
    sub-arrays, where that axis becomes axis 0 (``shift`` 1), and
    otherwise ``x`` (README, "Amplitude kernels")."""
    if lo == 1:
        return (x[0::2], 1), (x[1::2], 1)
    return ((x, 0),)


def _halves(x: np.ndarray, a: int, rows: int = 1) -> tuple:
    """The (branch-0, branch-1) views of axis ``a`` of the flat batch ``x``
    of ``rows`` rows, each ``(rows, blocks, 2^a)``."""
    v = x.reshape(rows, -1, 2, 1 << a)
    return v[:, :, 0, :], v[:, :, 1, :]


def _blocks(x: np.ndarray, a: int) -> np.ndarray:
    """The contiguous array ``x`` with each run of 2^a entries as one element
    of a void dtype. numpy copies such an element whole, so a copy that keeps
    these runs intact loops only over the axes above ``a``."""
    return x.view(f"V{x.itemsize << a}")


def _array_gate_kernel(ins: ArrayGate):
    """The amplitude kernel ``kernel(st)`` of an ``ArrayGate``. A gate acts
    alike on every row, so it sweeps the batch as one flat array."""
    g, size = ins.gate, ins.size
    a, b = ins.axa, ins.axb
    if g == "S":
        ph = _c0(1j)

        def make(st):
            return tuple(_halves(x, a - s)[1] for x, s in _split(st.buf[:st.rows * size], a))

        def kernel(st: ShotState) -> None:
            for v1 in _views(st, make):
                np.multiply(v1, ph, out=v1)

        return kernel
    if g == "H":
        step = 1 << a
        inv_sqrt2 = _c0(_INV_SQRT2)

        def make(st):
            whole = st.buf[:st.rows * size]
            parts = tuple(_halves(x, a - s) + (st.scratch[: len(x) // 2].reshape(1, -1, step >> s),)
                          for x, s in _split(whole, a))
            return whole, parts

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
            view = _blocks(st.buf[:st.rows * size], lo).reshape(-1, 2, mid, 2)
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
                         for x, s in _split(st.buf[:st.rows * size], lo))

        def kernel(st: ShotState) -> None:
            for v11 in _views(st, make):
                np.multiply(v11, minus, out=v11)

        return kernel
    raise ShotError(f"unknown array gate {g}")


def _c_array_gate(ins: ArrayGate, prog):
    ops = _frame_ops(((ins.gate, ins.va, ins.vb),))
    kernel = _array_gate_kernel(ins)

    def run(st: ShotState) -> None:
        st.frame_x, st.frame_z = _conjugate_frame(ops, st.frame_x, st.frame_z)
        kernel(st)

    return run


def _expand_kernel(ins: Expand):
    """The amplitude kernel ``kernel(st, bits)`` of an ``Expand``, given the
    frame X bit of its qubit for each row: one multiply writes each row
    and its copy, by their phases, into the work buffer."""
    size = ins.size
    e0 = cmath.exp(-1j * ins.angle) * _INV_SQRT2
    e1 = cmath.exp(1j * ins.angle) * _INV_SQRT2
    phases = np.array([[e0, e1], [e1, e0]]).reshape(2, 2, 1)  # indexed by frame parity
    alike = (phases[:1], phases[1:])  # the phases of rows that all have one bit

    def make(st):
        rows = st.rows
        return st.buf[:rows * size].reshape(rows, 1, size), \
            st.scratch[:2 * rows * size].reshape(rows, 2, size)

    def kernel(st: ShotState, bits: list) -> None:
        old, new = _views(st, make)
        np.multiply(old, alike[bits[0]] if bits.count(bits[0]) == len(bits) else phases[bits],
                    out=new)
        st.swap()
        st.k += 1

    return kernel


def _array_rot_kernel(ins: ArrayRot):
    """The amplitude kernel ``kernel(st, bits)`` of an ``ArrayRot``, given
    the frame X bit of its qubit for each row. It multiplies only branch
    1, by its phase relative to branch 0's, and so leaves out branch 0's
    phase, a global one."""
    a, size = ins.axis, ins.size
    e0 = cmath.exp(-1j * ins.angle)
    e1 = e0.conjugate()
    ratios = np.array([e1 / e0, e0 / e1]).reshape(2, 1, 1)  # indexed by frame parity
    alike = (_c0(e1 / e0), _c0(e0 / e1))

    def make(st):
        return tuple(_halves(x, a - s, st.rows)[1] for x, s in _split(st.buf[:st.rows * size], a))

    def kernel(st: ShotState, bits: list) -> None:
        ratio = alike[bits[0]] if bits.count(bits[0]) == len(bits) else ratios[bits]
        for v1 in _views(st, make):
            np.multiply(v1, ratio, out=v1)

    return kernel


def _c_probe(ins: Expand | ArrayRot, prog):
    """The step of an ``Expand`` or ``ArrayRot``, whose kernel reads the
    frame X bit of its qubit, the probe bit."""
    m = 1 << ins.virt
    kernel = (_expand_kernel if type(ins) is Expand else _array_rot_kernel)(ins)
    bits = ([0], [1])

    def run(st: ShotState) -> None:
        kernel(st, bits[1 if st.frame_x & m else 0])

    return run


def _c_meas_dormant_static(ins: MeasDormantStatic, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip

    def run(st: ShotState) -> None:
        st.out[record] = ((st.frame_x >> virt) & 1) ^ flip
        fo = st.forced_outcomes
        if fo is not None:
            forced = fo.get(record)
            if forced is not None and st.out[record] != forced:
                raise ShotError(
                    f"forced outcome {forced} for record {record} has probability 0")

    return run


def _c_meas_dormant_random(ins: MeasDormantRandom, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip
    m = 1 << virt

    def run(st: ShotState) -> None:
        fo = st.forced_outcomes
        forced = None if fo is None else fo.get(record)
        fx, fz = st.frame_x, st.frame_z
        p = (fz >> virt) & 1
        if (fx ^ fz) & m:  # swap the x and z bits
            fx ^= m
            fz ^= m
        coin = forced ^ p ^ flip if forced is not None else 1 if st.uniform() >= 0.5 else 0
        st.out[record] = coin ^ p ^ flip
        st.frame_x, st.frame_z = fx ^ m if coin else fx, fz

    return run


def _runs(f: np.ndarray) -> np.ndarray:
    """The float rows ``f`` for :func:`_norm2`, each row cut into equal runs
    of at most ``_DOT`` floats on a new last axis when it is longer."""
    n = f.shape[-1]
    if n <= _DOT:
        return f
    cuts = -(-n // _DOT)
    while n % cuts:
        cuts += 1
    return f.reshape(*f.shape[:-1], cuts, n // cuts)


def _norm2(runs: np.ndarray, cut: bool) -> np.ndarray:
    """The squared norm of each row of a complex array, from the
    :func:`_runs` of its float view, ``cut`` when they added an axis."""
    dots = np.vecdot(runs, runs)
    return np.add.reduce(dots, axis=-1) if cut else dots


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


def _row(form: int, eps: np.ndarray, v0, v1, out):
    """The row of form ``form`` (of :func:`_row_form`) applied to the
    branches ``v0``, ``v1``, short of its factor c: one of them, or ``out``,
    apart from both, holding the result."""
    if form == 0:
        return v0
    if form == 1:
        return v1
    if form == 2:
        return np.add(v0, v1, out=out)
    if form == 3:
        return np.subtract(v0, v1, out=out)
    np.multiply(v1, eps, out=out)
    return np.add(v0, out, out=out)


def _pick(rows: list):
    """The ascending ``rows`` as a slice (a view) when consecutive."""
    return slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] == len(rows) - 1 else rows


def _scales(scale: np.ndarray, c: complex, rows: list, draws: list, branch: int):
    """Each output row's factor, c / sqrt(p_branch p_all) of its row's
    ``draws``: one row's in the 0-d ``scale``, which numpy multiplies by
    faster than a broadcast array, several in a (rows, 1, 1) array."""
    out = [c * (1.0 / math.sqrt((p if branch else 1.0 - p) * total))
           for p, _, _, total in map(draws.__getitem__, rows)]
    if len(out) == 1:
        scale[()] = out[0]
        return scale
    return np.array(out)[:, None, None]


def _collapse_kernel(ins: MeasCollapse) -> tuple:
    """``(probs, apply)``, the amplitude kernel of a ``MeasCollapse`` in two
    halves. ``probs(st)`` gives, for each row of the batch, ``(p1, branch
    of a draw below p1, branch of any other draw, p_all)``. ``apply(st,
    zero, one, draws)`` then writes the next batch from those ``draws``:
    the rows ``zero``, ascending, collapsed to branch 0, then the rows
    ``one`` collapsed to branch 1."""
    a, size = ins.axis, ins.size
    half = size >> 1
    top = 1 << a == half
    cut = size > _DOT  # rows of half floats are cut into runs
    lanes = 2 if a == 1 and not top else 1
    (f0, c0, eps0), (f1, c1, eps1) = _row_form(*ins.u[0]), _row_form(*ins.u[1])
    eps0, eps1 = _c0(eps0), _c0(eps1)
    c1_sq = abs(c1) ** 2
    scale = _c0(0)  # one output row's factor

    def make(st):
        """(copy, halves, ones, v0, v1, w1, out): the copy that fills the
        halves unless they are each row's two slices; the :func:`_runs` of
        the (rows, 2, half) halves and, if row 1 mixes the branches, of
        ``w1``; the branches as (rows,
        lanes, half / lanes); branch 1's work rows ``w1``, past branch 0's
        output rows; and up to two output rows per row, in the buffer that
        does not hold the halves, transposed from ``lanes``."""
        rows = st.rows
        n = rows * size
        copy = None
        if top:
            src, dst = st.buf, st.scratch
        else:
            # One copy moves each row's halves into scratch, and the batch's
            # buffer becomes the output. On axis 1 the copy keeps the two
            # stride-2 sub-arrays apart, so each half is two long runs.
            # Elsewhere each run of 2^a entries moves as one element.
            src, dst = st.scratch, st.buf
            if a == 1:
                copy = (src[:n].reshape(rows, 2, 2, -1),
                        dst[:n].reshape(rows, -1, 2, 2).transpose(0, 2, 3, 1))
            else:
                copy = (_blocks(src[:n], a).reshape(rows, 2, -1),
                        _blocks(dst[:n], a).reshape(rows, -1, 2).transpose(0, 2, 1))
        halves = src[:n].reshape(rows, 2, half)
        v0, v1 = (halves[:, i].reshape(rows, lanes, -1) for i in (0, 1))
        w1 = dst[n >> 1:n].reshape(rows, lanes, -1)
        out = dst[:n].reshape(2 * rows, -1, lanes).transpose(0, 2, 1)
        ones = _runs(w1.reshape(rows, half).view(np.float64)) if f1 > 1 else None
        return copy, _runs(halves.view(np.float64)), ones, v0, v1, w1, out

    def probs(st: ShotState) -> list:
        # the branch probabilities, per row, in Python floats
        copy, halves, ones, v0, v1, w1, _ = _views(st, make)
        if copy is not None:
            np.copyto(*copy)
        norms = _norm2(halves, cut).tolist()  # each row's [branch 0's, branch 1's]
        if f1 > 1:  # row 1 mixes the branches
            _row(f1, eps1, v0, v1, w1)
            ones = _norm2(ones, cut).tolist()
        # A draw that hits the floor takes the other branch with probability
        # 1 - p_branch, its own: for a flip to 1, p1 > 1 - BRANCH_FLOOR >=
        # 1/2, so 1 - p1 is exact and 1 - (1 - p1) == p1. So a row's shots
        # take one of two (branch, probability) pairs.
        draws = []
        for r, (n0, n1) in enumerate(norms):
            total = n0 + n1  # u is unitary
            p = c1_sq * (ones[r] if f1 > 1 else n1 if f1 else n0)
            if p != p:
                raise ShotError("NaN amplitude encountered at an active measurement")
            p = p / total if total > 0 else 0.0
            p = 0.0 if p < 0.0 else 1.0 if p > 1.0 else p
            draws.append((p, 1 if p >= BRANCH_FLOOR else 0, 0 if 1.0 - p >= BRANCH_FLOOR else 1,
                          total))
        return draws

    def apply(st: ShotState, zero: list, one: list, draws: list) -> None:
        rows = st.rows
        _, _, _, v0, v1, w1, out = _views(st, make)
        if f1 < 2:  # row 1 takes one branch
            w1 = v1 if f1 else v0
        n0 = len(zero)
        if zero:
            dst = out[:n0]
            pick = slice(None) if n0 == rows else _pick(zero)
            np.multiply(_row(f0, eps0, v0[pick], v1[pick], dst),
                        _scales(scale, c0, zero, draws, 0), out=dst)
        if one:
            dst = out[n0:n0 + len(one)]
            np.multiply(w1[slice(None) if len(one) == rows else _pick(one)],
                        _scales(scale, c1, one, draws, 1), out=dst)
        if top:
            st.swap()
        st.k -= 1
        st.rows = n0 + len(one)

    return probs, apply


def _c_meas_collapse(ins: MeasCollapse, prog):
    virt, record, flip = ins.virt, ins.record, ins.flip
    m = 1 << virt
    # The folded basis change acts on this qubit alone: tabulate its frame
    # update (x mask, z mask to XOR in) by the qubit's (x, z) bits.
    pre = None
    if ins.pre_gates:
        ops = _frame_ops(ins.pre_gates)
        pre = tuple((x0 ^ x1, z0 ^ z1) for x0, z0 in ((0, 0), (0, m), (m, 0), (m, m))
                    for x1, z1 in (_conjugate_frame(ops, x0, z0),))
    probs, apply = _collapse_kernel(ins)
    layouts = (([0], []), ([], [0]))  # the one row's (zero, one) by branch

    def run(st: ShotState) -> None:
        draws = probs(st)
        p, hit, miss, _ = draws[0]
        fx, fz = st.frame_x, st.frame_z
        if pre is not None:
            dx, dz = pre[(2 if fx & m else 0) | (1 if fz & m else 0)]
            fx ^= dx
            fz ^= dz
        parity = (fx >> virt) & 1
        fo = st.forced_outcomes
        forced = None if fo is None else fo.get(record)
        if forced is not None:
            branch = forced ^ parity ^ flip
            prob = p if branch else 1.0 - p
            if prob < BRANCH_FLOOR:
                raise ShotError(f"forced outcome {forced} for record {record} has "
                                f"probability {prob:.3e}")
        else:
            branch = hit if st.uniform() < p else miss
        st.out[record] = branch ^ parity ^ flip
        st.frame_x, st.frame_z = fx ^ m if branch else fx, fz
        apply(st, *layouts[branch], draws)

    return run


def _c_cond_frame(ins: CondFrame, prog):
    xmask, zmask, record = ins.xmask, ins.zmask, ins.record

    def run(st: ShotState) -> None:
        if st.out[record]:
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
        if ff is not None:
            faults = ff[bisect_left(ff, lo_key):bisect_left(ff, hi_key)]
        elif one_segment:
            faults = _segment_faults(S, sites, st, lo, hi)
        else:
            faults = _plan_faults(S, sites, plan, st)
        for site, case in faults or ():
            tab = sites[site]
            if case is None:
                case = _pick_case(tab, st)
            st.frame_x ^= tab.case_x[case]
            st.frame_z ^= tab.case_z[case]

    return run


def _c_detector(ins: DetectorIns, prog):
    index, records = prog.record_count + ins.index, ins.records

    def run(st: ShotState) -> None:
        out = st.out
        bit = 0
        for r in records:
            bit ^= out[r]
        out[index] = bit

    return run


def _c_observable(ins: ObservableIns, prog):
    index = prog.record_count + prog.num_detectors + ins.index
    records = ins.records

    def run(st: ShotState) -> None:
        out = st.out
        bit = 0
        for r in records:
            bit ^= out[r]
        out[index] ^= bit

    return run


def _c_postselect(ins: PostSelectIns, prog):
    ref = prog.record_count + ins.ref if ins.kind == "detector" else ins.ref
    required = ins.required

    def run(st: ShotState) -> None:
        if st.out[ref] != required:
            st.accepted = False
            raise _Halt

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
    its frame table (``"table"``), its path-walk steps (``"paths"``) and its
    output columns (``"columns"``), each built on first use. Code that
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


def _frame_table(prog: BytecodeProgram):
    """The engine switch: the program's frame table (:mod:`framesim.table`),
    or None when the closure VM samples it shot by shot, because the table
    would exceed ``table._TABLE_BITS``."""
    cache = _cache(prog)
    if "table" not in cache:
        cache["table"] = _build_table(prog)
    return cache["table"]


# -- the path walk ---------------------------------------------------------------
#
# A step of the path walk, step(st, part, acc, uniforms), runs one
# instruction for a table._Part of a chunk's shots on the batch of ``st``:
# ``acc`` holds each shot's XOR row (bytes) and ``uniforms`` its collapse
# draws of the span. A step that defers some of the part's shots returns
# them as a new part. The per-row bookkeeping is Python over the batch's
# (row, bit) keys, which are few. The per-shot work is Python lists for a
# part of up to _FEW shots: the probe bits and keys of _p_probe, the count
# and layout of _relayout, and each shot's branch, fired row and next row in
# _p_collapse. A larger part takes numpy for each, and so does a split at
# the capacity, whatever the part's size. A part of one shot on a batch of
# one row runs a shot's own arithmetic: its probe bit, or its collapse's
# branch.


def _path_steps(prog: BytecodeProgram, tab) -> list:
    """The path walk's step for each item of ``tab.spans``, None for a span
    or a check; built once per program."""
    cache = _cache(prog)
    steps = cache.get("paths")
    if steps is None:
        effects = np.frombuffer(tab.effects, dtype=np.uint8).reshape(-1, tab.nbytes)
        steps = cache["paths"] = [
            None if type(item) is not _Active
            else _p_gate(item.ins) if type(item.ins) is ArrayGate
            else _p_collapse(item.ins, effects[item.at], item.j) if type(item.ins) is MeasCollapse
            else _p_probe(item.ins, item.at)
            for item in tab.spans]
    return steps


def _p_gate(ins: ArrayGate):
    kernel = _array_gate_kernel(ins)

    def step(st: ShotState, part: _Part, acc, uniforms) -> None:
        kernel(st)

    return step


def _p_probe(ins: Expand | ArrayRot, col: int):
    """The step of an ``Expand`` or ``ArrayRot``, whose probe bit is each
    shot's bit ``col`` of its XOR row."""
    grow = type(ins) is Expand
    kernel = (_expand_kernel if grow else _array_rot_kernel)(ins)
    byte, shift = col >> 3, col & 7

    def step(st: ShotState, part: _Part, acc, uniforms):
        shots = part.shots
        if len(shots) == 1 and st.rows == 1:
            kernel(st, [int(acc[shots[0], byte]) >> shift & 1])
            return None
        if len(shots) <= _FEW:
            key = [r << 1 | b >> shift & 1
                   for r, b in zip(part.rows.tolist(), acc[:, byte][shots].tolist())]
        else:
            key = part.rows * 2 + ((acc[shots, byte] >> shift) & 1)
        split, bits = _relayout(st, part, key, grow)
        kernel(st, bits)
        return split

    return step


def _relayout(st: ShotState, part: _Part, key, grow: int) -> tuple:
    """Lay the batch out for a probe step: a row for each key, (row << 1 |
    probe bit), that a shot of ``part`` holds, rows without a shot dropped;
    ``key`` is a list for a part of up to ``_FEW`` shots and an array
    otherwise. Past the capacity after the step, the rows that hold fewer
    shots stay (at most half the part's shots) and the others are
    deferred, as a new part with a snapshot of their rows, to rerun the
    step. Returns the deferred part or None, and each row's bit."""
    k, rows = st.k, st.rows
    few = type(key) is list
    if few:
        order = sorted(set(key))  # the keys held, ascending
    else:
        counts = np.bincount(key, minlength=2 * rows).tolist()
        order = [q for q, n in enumerate(counts) if n]
    most = (1 << st.k_max) >> (k + grow)  # rows that fit after the step
    split = None
    if len(order) > most:
        if few:  # a split takes the numpy path, whatever the part's size
            key, few = np.asarray(key), False
            counts = np.bincount(key, minlength=2 * rows).tolist()
        stay, held = [], 0
        for q in sorted(order, key=counts.__getitem__):  # fewest shots first
            if len(stay) == most or held + counts[q] > len(key) / 2:
                break
            stay.append(q)
            held += counts[q]
        stay.sort()
        old = sorted({q >> 1 for q in set(order).difference(stay)})  # the deferred part's rows
        snap = np.empty(len(old) << k, dtype=np.complex128)
        np.take(st.buf[:rows << k].reshape(rows, -1), old, axis=0,
                out=snap.reshape(len(old), -1), mode="clip")
        gone = np.ones(2 * rows, dtype=bool)
        gone[stay] = False
        place = np.zeros(rows, dtype=np.intp)
        place[old] = np.arange(len(old))
        leave = gone[key]
        split = _Part(0, part.shots[leave], place[part.rows[leave]], (k, snap))
        part.keep(~leave)
        key = key[~leave]
        order = stay
    src = [q >> 1 for q in order]
    if src != list(range(len(src))):  # rows copied or moved
        # The rows are in range: under the default mode="raise" numpy
        # copies a take through a buffer into ``out``, which took about 3
        # times as long for rows of 2^10-2^13 entries (numpy 2.4.6).
        np.take(st.buf[:rows << k].reshape(rows, -1), src, axis=0,
                out=st.scratch[:len(src) << k].reshape(len(src), -1), mode="clip")
        st.swap()
        if few:
            at = dict(zip(order, range(len(order))))
            part.rows = np.array([at[q] for q in key], dtype=np.intp)
        else:
            at = np.zeros(2 * rows, dtype=np.intp)
            at[order] = np.arange(len(order))
            part.rows = at[key]
    st.rows = len(src)
    return split, [q & 1 for q in order]


def _p_collapse(ins: MeasCollapse, effect: np.ndarray, j: int):
    """The step of a ``MeasCollapse``, whose branch 1 XORs ``effect`` into
    a shot's row, drawn by the shot's ``j``-th collapse draw of the span."""
    probs, apply = _collapse_kernel(ins)

    def step(st: ShotState, part: _Part, acc, uniforms) -> None:
        draws = probs(st)
        shots = part.shots
        if len(shots) == 1 and st.rows == 1:  # one path: run_shot's arithmetic
            p, hit, miss, _ = draws[0]
            if hit if uniforms[shots[0], j] < p else miss:
                acc[shots[0]] ^= effect
                apply(st, [], [0], draws)
            else:
                apply(st, [0], [], draws)
            return
        few = len(shots) <= _FEW
        if few:
            # each shot's (row, branch) key, its branch 1 XORed in row by row
            key = []
            for s, r, u in zip(shots.tolist(), part.rows.tolist(),
                               uniforms[:, j][shots].tolist()):
                p, hit, miss, _ = draws[r]
                if hit if u < p else miss:
                    acc[s] ^= effect
                    key.append(r << 1 | 1)
                else:
                    key.append(r << 1)
            held = sorted(set(key))
        else:
            r = part.rows
            p, hit, miss = (np.array(col) for col in list(zip(*draws))[:3])
            branch = np.where(uniforms[shots, j] < p[r], hit[r], miss[r])
            one = branch.nonzero()[0]
            if len(one):
                acc[shots[one]] ^= effect
            key = r * 2 + branch
            held = np.bincount(key, minlength=2 * st.rows).nonzero()[0].tolist()
        # each (row, branch) taken, once: branch 0's rows, then branch 1's
        taken = [q for q in held if not q & 1]
        n0 = len(taken)
        taken += [q for q in held if q & 1]
        if few:
            at = dict(zip(taken, range(len(taken))))
            part.rows = np.array([at[q] for q in key], dtype=np.intp)
        else:
            at = np.zeros(2 * st.rows, dtype=np.intp)
            at[taken] = np.arange(len(taken))
            part.rows = at[key]
        apply(st, [q >> 1 for q in taken[:n0]], [q >> 1 for q in taken[n0:]], draws)

    return step


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
    record or another outcome raise ``ValueError``, as do a ``shot`` or
    ``seed`` outside [0, 2^64). Sites and records past the program's last
    are ignored: ``testing.crosscheck`` hands each prefix of a circuit the
    whole circuit's plans.
    """
    shot, seed = _word(shot, "shot"), _word(seed, "seed")
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
    """Run shot ``shot`` of ``prog`` on ``state``: reset, let the stratum draw
    the shot's fault list (which then replaces ``forced_faults``) and set
    its weight, and walk ``code``, the program's closures.
    ``trace(state, ins)`` is called after each instruction. Returns whether
    the shot was accepted."""
    state.reset(shot)
    if stratum is not None:
        forced_faults = stratum.draw_forced(state)
        state.weight = stratum.weight
    state.forced_faults = forced_faults
    state.forced_outcomes = forced_outcomes
    state.k = 0
    state.rows = 1
    state.buf[0] = 1
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
    """Most shots of a chunk: about _FOLD_BYTES of each shot's unpacked
    output bits and packed XOR row, and with an active array its path-walk
    arrays and its share of a span grid, or on the closure VM its output
    bytes; and few enough that the path walk's snapshots fit _SNAP_BYTES."""
    width = len(prog.user_records) + prog.num_detectors + prog.num_observables
    tab = _frame_table(prog)
    if tab is None:  # shot by shot: each shot's out bytes, and their bits
        width += 2 * (prog.record_count + prog.num_detectors + prog.num_observables)
    elif not prog.k_max:
        return max(1, _FOLD_BYTES // max(width, 1))
    else:
        # its XOR row; its index, row and key in the walk, with their
        # temporaries, and its collapse draws; and 32 bytes a draw of the
        # longest span's grid, its floats and their temporaries (25-28
        # measured with tracemalloc over a chunk, Python 3.11)
        draws = max((int(item.off[-1]) for item in tab.spans if type(item) is _Span), default=0)
        width += tab.nbytes + 64 + 8 * tab.collapses + 32 * draws
    if stratum is not None:  # its fault list of w (site, None) pairs (57 + about 90 w bytes)
        width += 64 + 128 * stratum.w
    return max(1, min(_FOLD_BYTES // max(width, 1), (2 << min(_snapshots(prog.k_max), 62)) - 1))


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


def _word(value, name: str) -> int:
    """``value``, a seed or a shot index, as an int in [0, 2^64), or a
    ValueError naming it as ``name``: the streams would wrap it."""
    value = _integer(value, name)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} {value} is outside [0, 2^64)")
    return value


def _bounds(shots: int, first: int, most: int):
    """The (lo, hi) of each chunk of shots [0, ``shots``): ``first`` shots,
    then ``most`` at a time. The bounds are made as they are taken."""
    lo, step = 0, first
    while lo < shots:
        hi = min(lo + step, shots)
        yield lo, hi
        lo, step = hi, most


def _shot_rows(prog: BytecodeProgram, engine, seed: int, lo: int, hi: int, stratum,
               keep_rejected: bool) -> tuple[np.ndarray, np.ndarray]:
    """Shots [lo, hi) on ``engine``: the frame table of a program without an
    active array, or a ShotState of ``prog`` seeded with ``seed``, on whose
    batch the table's path walk runs, or which runs each shot on the
    closure VM when the program has no table. Returns each kept shot's
    output bits (user records, detectors, observables) as one packed
    little-endian uint8 row per shot, bits past them included, and its
    acceptance flags (bool). A rejected shot is kept only with
    ``keep_rejected``. This is the one place that runs shots for ``sample``
    and ``sample_accumulate``."""
    if type(engine) is not ShotState:
        return _table_shots(engine, seed, lo, hi, stratum, keep_rejected)
    tab = _frame_table(prog)
    if tab is not None:
        return _table_shots(tab, seed, lo, hi, stratum, keep_rejected,
                            (engine, _path_steps(prog, tab)))
    code = _compiled(prog)
    out = np.empty((hi - lo, len(engine.out)), dtype=np.uint8)
    flags = np.empty(hi - lo, dtype=bool)
    for i in range(hi - lo):
        flags[i] = _run(prog, code, engine, lo + i, stratum)
        out[i] = np.frombuffer(engine.out, dtype=np.uint8)
    cols = _columns(prog)
    if cols is not None:
        out = out[:, cols]
    if not keep_rejected:
        out, flags = out[flags], flags[flags]
    return np.packbits(out, axis=1, bitorder="little"), flags


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
    seed = _word(seed, "seed")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if stratum is not None and stratum.probs != [s.prob for s in prog.sites]:
        raise ValueError("the stratum was built for a program of other noise sites")
    # the engine, once and before any fork; a state's views are built on its
    # first shot, so every chunk of a process runs on the one state
    engine = tab = _frame_table(prog)
    if tab is None or prog.k_max:
        engine = ShotState(prog, seed=seed)
        if tab is None:
            _compiled(prog)
        else:
            _path_steps(prog, tab)
    most = _fold_shots(prog, stratum)
    first = min(_chunk_shots(prog), most) if stream else most
    workers = min(workers, shots, os.cpu_count() or 1)
    pool = workers > 1 and (type(engine) is ShotState or shots > workers * first)
    if pool:
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
    same stream, and the frame table gives the records the closure VM
    gives. With a stratum, every record carries that stratum's
    weight and noise sites are forced per its conditional law. Records
    arrive a chunk of shots at a time, as row views of the chunk's bits.

    ``seed`` must be an integer in [0, 2^64), and ``workers`` at least 1;
    ``workers`` is capped at the shot count and ``os.cpu_count()``. A fork
    pool starts only when that leaves more than one worker and, for a
    frame-table program, when each worker gets more than a whole chunk of
    shots; below that the pool costs more than the shots, and this process
    samples alone.
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
    them; a worker with a state runs all its jobs on its copy of it."""
    global _WORKER
    _WORKER = args


def _worker_range(bounds):
    """Shots [lo, hi) in a pool worker, as :func:`_shot_rows` packs them."""
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
