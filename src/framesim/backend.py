"""Lower optimized HIR to VM bytecode.

The backend walks the HIR once, keeping a mutable "adjustment" tableau W of
all virtual Clifford transformations it has absorbed so far. Each op's
generator is first conjugated by W into the current virtual coordinates,
then localized to a single axis; the localization gates are absorbed into W
and emitted as runtime instructions:

* gates whose controls sit on dormant qubits act as the identity on the
  stored state (dormant invariance), so they become frame-only updates;
* gates acting inside the active set additionally update the dense array.

Each runtime operation is emitted in its one executable form: promoting a
qubit and rotating it is one ``Expand``, measuring an active qubit and
retiring its axis is one ``MeasCollapse``; neighbouring frame words are
merged as they are emitted, and so are the noise sites of each run of
adjacent noise events. A dormant qubit's Z rotation multiplies the state
by a global phase, which no output reads, and emits nothing.
``optimize_bytecode`` then only folds single-axis basis changes into the
collapse after them. The instruction list is the only record of the
active dimension k.
``plan_schedule`` plans the scheduling pass's candidates, each once, and
``compile_circuit`` keeps the winner's program.

Because the emitted instruction stream, the active-set trajectory, and all
index/parity operands are fixed here, per-shot execution never makes a
scheduling decision: the compiler consults no randomness and no amplitudes.
"""
from __future__ import annotations

import gc
import math
from dataclasses import dataclass, replace
from itertools import accumulate

from .circuit import check_circuit, flatten, parse_circuit
from .hir import (
    CondPauli,
    DetectorDef,
    HirProgram,
    Meas,
    NoiseEvent,
    ObservableDef,
    PostSelectOp,
    Rot,
    _rec_name,
    lower_to_hir,
    peephole_pass,
    schedule_candidate,
)
from .pauli import CliffordTableau, CompileStats, PauliString, bit_indices

_TOL = 1e-12


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class LocalizationResult:
    """Virtual Clifford word compressing a Pauli to one axis.

    Conjugating the input by ``gates`` (in order) yields sign * P_axis with
    P in {X, Z} on qubit ``axis``.
    """

    gates: tuple
    axis: int
    basis: str
    sign: int


def localize(pauli: PauliString, active_set=frozenset()) -> LocalizationResult:
    """Greedy single-axis compression of a Hermitian Pauli, in closed form.

    Pivot choice: X-support prefers a dormant pivot (promotion is forced
    there anyway and keeps every control dormant); pure-Z support prefers an
    active pivot, which avoids promotion entirely. Emitted controlled gates
    then never have an active control with a dormant target.

    With X-support and pivot v, ``CX(v, q)`` for every other X qubit q
    leaves X on v alone and the parity of the Y count as v's Z bit,
    ``CZ(v, q)`` for every other Z qubit q clears the rest, and ``S(v)``
    turns a remaining Y into X. None of these gates changes the phase
    except ``S``, so a word with c Y letters becomes -X_v exactly when
    c mod 4 is 1 or 2. A Z word becomes +Z_v by ``CX(q, v)`` for every other
    qubit q; a weight-1 X or Z word needs no gates.
    """
    if pauli.weight() == 0:
        raise CompileError("cannot localize the identity")
    gates, axis, basis, sign = _localize_bits(pauli.x, pauli.z, active_set)
    return LocalizationResult(gates, axis, basis, sign * pauli.hermitian_sign())


def _localize_bits(x: int, z: int, active) -> tuple:
    """``localize`` of the +1 Hermitian word with bits ``(x, z)``, not the
    identity, as ``(gates, axis, basis, sign)``."""
    if x:
        xs = bit_indices(x)
        v = next((q for q in xs if q not in active), xs[0])
        gates = [("CX", v, q) for q in xs if q != v]
        gates += [("CZ", v, q) for q in bit_indices(z & ~(1 << v))]
        y = (x & z).bit_count()
        if y & 1:
            gates.append(("S", v, None))
        return tuple(gates), v, "X", -1 if y & 3 in (1, 2) else 1
    if not z & (z - 1):
        return (), z.bit_length() - 1, "Z", 1
    zs = bit_indices(z)
    v = next((q for q in zs if q in active), zs[0])
    return tuple([("CX", q, v) for q in zs if q != v]), v, "Z", 1


# -- bytecode instructions ----------------------------------------------------


@dataclass(frozen=True)
class FrameGates:
    """Conjugate the runtime Pauli frame by a fixed local Clifford word."""

    gates: tuple  # ((gate, a, b), ...)


# the gates the backend emits: localization's CX, CZ and S, plus H; both
# runtime engines read a FrameGates word through these opcodes
_FRAME_OPCODES = {"H": 0, "S": 1, "CX": 2, "CZ": 3}


@dataclass(frozen=True)
class ArrayGate:
    """Local Clifford acting inside the active set: array kernel + frame."""

    gate: str     # CX | CZ | S | H
    va: int       # virtual qubits (frame side)
    vb: int | None
    axa: int      # axis positions (array side)
    axb: int | None
    size: int     # 2^k at this point


@dataclass(frozen=True)
class Expand:
    """Promote a dormant qubit and rotate it: array <- array (x) Rz-rotated |+>."""

    virt: int
    axis: int
    size: int          # 2^k before expansion
    angle: float


@dataclass(frozen=True)
class ArrayRot:
    """Diagonal Z-axis rotation over the active array."""

    virt: int
    axis: int
    angle: float
    size: int


@dataclass(frozen=True)
class MeasDormantStatic:
    virt: int
    record: int
    flip: int


@dataclass(frozen=True)
class MeasDormantRandom:
    virt: int
    record: int
    flip: int


@dataclass(frozen=True)
class MeasCollapse:
    """Active interfering measurement that retires the measured axis.

    ``u`` is the composed 2x2 unitary of the single-axis array gates folded
    in ahead of it (identity when none were); ``pre_gates`` carries their
    frame-bit updates. One traversal computes the branch weight and writes
    the collapsed, compacted array.
    """

    virt: int
    axis: int
    record: int
    flip: int
    size: int
    u: tuple                   # ((u00, u01), (u10, u11)) complex
    pre_gates: tuple


@dataclass(frozen=True)
class CondFrame:
    """Record-conditioned Pauli multiplied into the frame."""

    xmask: int    # frame bits the VM XORs in (bit j = virtual qubit j)
    zmask: int
    record: int


@dataclass(frozen=True)
class NoiseBlock:
    lo: int
    hi: int


@dataclass(frozen=True)
class DetectorIns:
    index: int
    records: tuple


@dataclass(frozen=True)
class ObservableIns:
    index: int
    records: tuple


@dataclass(frozen=True)
class PostSelectIns:
    kind: str
    ref: int
    required: int


@dataclass
class SiteTable:
    """Per-site trigger probability and case decomposition."""

    prob: float
    case_cum: list          # cumulative masses, last == prob
    case_x: list            # per case, the frame X bits the VM XORs in (bit j = qubit j)
    case_z: list            # and the frame Z bits


def _block_plan(sites, lo: int, hi: int) -> list:
    """Sites [lo, hi) of a ``NoiseBlock`` as the parts its faults are drawn
    over: each certain (p=1) site on its own, the runs between them as
    (start, stop) hazard segments."""
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


@dataclass
class BytecodeProgram:
    n: int
    instrs: list
    k_max: int
    sites: list                  # SiteTable per noise site
    cum_hazard: list             # length len(sites)+1, prefix -log1p(-p)
    record_count: int
    user_records: tuple
    num_detectors: int
    num_observables: int
    final_tableau: CliffordTableau
    final_active: tuple
    stats: CompileStats

    @property
    def active_schedule(self) -> list:
        """k after each instruction: +1 per ``Expand``, -1 per ``MeasCollapse``."""
        return list(accumulate(isinstance(ins, Expand) - isinstance(ins, MeasCollapse)
                               for ins in self.instrs))

    def dump(self) -> str:
        lines = [_render_instr(ins, self) for ins in self.instrs]
        return "\n".join(lines) + ("\n" if lines else "")

    def fingerprint(self) -> str:
        return self.dump() + repr(self.active_schedule)

    def __getstate__(self):
        # the runtime cache (closures, frame table, path steps, output columns) does not pickle
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setstate__(self, state):
        self.__dict__.update(state)


def _render_instr(ins, prog: BytecodeProgram) -> str:
    recs = prog.user_records
    if isinstance(ins, FrameGates):
        body = " ".join(f"{g} {a}" if b is None else f"{g} {a} {b}" for g, a, b in ins.gates)
        return f"FRAME_CLIFFORD {body}"
    if isinstance(ins, ArrayGate):
        tgt = f"{ins.axa}" if ins.axb is None else f"{ins.axa} {ins.axb}"
        return f"ARRAY_{ins.gate} {tgt}"
    if isinstance(ins, Expand):
        if abs(ins.angle - math.pi / 8) < 1e-12:
            return f"EXPAND_T {ins.axis}"
        if abs(ins.angle + math.pi / 8) < 1e-12:
            return f"EXPAND_T_DAG {ins.axis}"
        return f"EXPAND_ROT({ins.angle:.6g}) {ins.axis}"
    if isinstance(ins, ArrayRot):
        if abs(ins.angle - math.pi / 8) < 1e-12:
            return f"ARRAY_T {ins.axis}"
        if abs(ins.angle + math.pi / 8) < 1e-12:
            return f"ARRAY_T_DAG {ins.axis}"
        return f"ARRAY_ROT({ins.angle:.6g}) {ins.axis}"
    if isinstance(ins, MeasDormantStatic):
        return f"MEAS_DORMANT_STATIC {ins.virt} -> {_rec_name(ins.record, recs)}"
    if isinstance(ins, MeasDormantRandom):
        return f"MEAS_DORMANT_RANDOM {ins.virt} -> {_rec_name(ins.record, recs)}"
    if isinstance(ins, MeasCollapse):
        basis = "".join(g for g, _, _ in ins.pre_gates) or "Z"
        return (f"MEAS_COLLAPSE[{basis}] {ins.axis} -> {_rec_name(ins.record, recs)}")
    if isinstance(ins, CondFrame):
        return f"COND_FRAME_PAULI if {_rec_name(ins.record, recs)}"
    if isinstance(ins, NoiseBlock):
        return f"NOISE_BLOCK sites=[{ins.lo}..{ins.hi})"
    if isinstance(ins, DetectorIns):
        return f"DETECTOR D{ins.index}"
    if isinstance(ins, ObservableIns):
        return f"OBSERVABLE L{ins.index}"
    if isinstance(ins, PostSelectIns):
        where = f"D{ins.ref}" if ins.kind == "detector" else _rec_name(ins.ref, recs)
        return f"POSTSELECT {where} == {ins.required}"
    return repr(ins)


def plan_and_emit(hir: HirProgram, postselect_detectors=()) -> BytecodeProgram:
    """Classify every HIR op against the planned active set and emit bytecode.

    Neighbouring frame words are emitted as one ``FrameGates``. A
    ``NoiseBlock`` holds the sites of one run of adjacent ``NoiseEvent`` ops:
    every other HIR op ends the run, even one that emits nothing (a dormant
    qubit's Z rotation), so the blocks, and with them every shot's draws,
    are set by the HIR alone."""
    n = hir.n
    low_n = (1 << n) - 1
    adj = CliffordTableau(n)     # accumulated virtual adjustment W
    active: dict[int, int] = {}  # virtual qubit -> axis position
    instrs: list = []
    emit = instrs.append
    k_max = 0
    sites: list[SiteTable] = []
    m_active = 0
    rot_count = 0
    postselect_detectors = frozenset(postselect_detectors)
    noise_run = False  # the op before is a NoiseEvent, whose block ends instrs

    def emit_frame(gates: tuple) -> None:
        """Emit a frame word, merged into the one just before it if any."""
        if instrs and type(instrs[-1]) is FrameGates:
            instrs[-1] = FrameGates(instrs[-1].gates + gates)
        else:
            emit(FrameGates(gates))

    def absorb_and_emit_gates(gates: tuple) -> None:
        """Absorb a word of local gates into ``adj`` and emit it. A gate
        whose control (for CZ, either qubit) is dormant acts on the frame
        alone, and each run of those is one frame word; the others act on
        the array too. No CX may have an active control and a dormant
        target."""
        start = 0
        for i, (g, a, b) in enumerate(gates):
            adj.absorb_left(g, a, b)
            if a in active and (g != "CZ" or b in active):
                if g == "CX" and b not in active:
                    raise CompileError(
                        "localization produced an entangling CX into a dormant qubit")
                if start < i:
                    emit_frame(gates[start:i])
                emit(ArrayGate(g, a, b, active[a], None if b is None else active[b],
                               1 << len(active)))
                start = i + 1
        if start < len(gates):
            emit_frame(gates[start:])

    def localize_through(word: PauliString):
        """Localize ``adj``'s forward image of ``word`` to one axis and
        absorb the localizing gates; returns ``(axis, basis, sign)``. Then
        ``adj`` maps ``word`` to sign * P on the axis, so its stored row of
        P is sign * ``word``, and the sign is read off that row's phase."""
        x, z = adj._forward_bits(word.x, word.z)
        gates, v, basis, _ = _localize_bits(x, z, active)
        absorb_and_emit_gates(gates)
        e = (adj.iz if basis == "Z" else adj.ix)[v][2] - word.phase_exp
        if e & 1:
            raise CompileError(f"cannot localize the non-Hermitian image of {word}")
        return v, basis, 1 - (e & 2)

    for op in hir.ops:
        kind = type(op)
        if kind is Meas:
            v, basis, sign = localize_through(op.observable)
            flip = int(op.flip) ^ (1 if sign < 0 else 0)
            if v not in active:
                if basis == "Z":
                    emit(MeasDormantStatic(v, op.record, flip))
                else:
                    emit(MeasDormantRandom(v, op.record, flip))
                    adj.absorb_left("H", v)
            else:
                if basis == "X":
                    absorb_and_emit_gates((("H", v, None),))
                axis = active[v]
                m_active += 1
                size = 1 << len(active)
                del active[v]
                for u, ax in list(active.items()):
                    if ax > axis:
                        active[u] = ax - 1
                emit(MeasCollapse(v, axis, op.record, flip, size, _IDENTITY_2X2, ()))
        elif kind is Rot:
            rot_count += 1
            v, basis, sign = localize_through(op.generator)
            theta = op.angle * sign
            if v in active:
                if basis == "X":
                    absorb_and_emit_gates((("H", v, None),))
                emit(ArrayRot(v, active[v], theta, 1 << len(active)))
            elif basis == "X":
                adj.absorb_left("H", v)
                emit_frame((("H", v, None),))
                axis = len(active)
                active[v] = axis
                emit(Expand(v, axis, 1 << axis, theta))
                k_max = max(k_max, axis + 1)
            # else a dormant Z rotation: a global phase, which emits nothing
        elif kind is NoiseEvent:
            if op.site != len(sites):
                raise CompileError("noise sites out of order")
            cum = 0.0
            case_cum, case_x, case_z = [], [], []
            # the cases span at most the images of two generators per qubit
            # of the site, and the bits of a forward map are linear: each
            # case is reduced against a basis of the cases before it, and
            # only what is left is mapped
            basis = []  # (pivot bit, reduced case bits, their forward bits)
            for mass, pauli in op.cases:
                v = pauli.x | pauli.z << n
                x = z = 0
                for pivot, bv, bx, bz in basis:
                    if v & pivot:
                        v ^= bv
                        x ^= bx
                        z ^= bz
                if v:
                    bx, bz = adj._forward_bits(v & low_n, v >> n)
                    basis.append((v & -v, v, bx, bz))
                    x ^= bx
                    z ^= bz
                cum += mass
                case_cum.append(cum)
                case_x.append(x)
                case_z.append(z)
            sites.append(SiteTable(cum, case_cum, case_x, case_z))
            if noise_run:
                instrs[-1] = NoiseBlock(instrs[-1].lo, op.site + 1)
            else:
                emit(NoiseBlock(op.site, op.site + 1))
        elif kind is CondPauli:
            emit(CondFrame(*adj._forward_bits(op.pauli.x, op.pauli.z), op.record))
        elif kind is DetectorDef:
            emit(DetectorIns(op.index, op.records))
            if op.index in postselect_detectors:
                emit(PostSelectIns("detector", op.index, 0))
        elif kind is ObservableDef:
            emit(ObservableIns(op.index, op.records))
        elif kind is PostSelectOp:
            emit(PostSelectIns(op.kind, op.ref, op.required))
        else:
            raise CompileError(f"cannot emit HIR op {op!r}")
        noise_run = kind is NoiseEvent

    cum_hazard = [0.0]
    for s in sites:
        p = min(s.prob, 1.0)
        # certain sites fire unconditionally via the block plan; a zero
        # increment keeps every skip segment's hazard finite
        inc = 0.0 if p >= 1.0 else -math.log1p(-p)
        cum_hazard.append(cum_hazard[-1] + inc)

    final_tableau = hir.final_frame.compose(adj.inverse())
    final_active = tuple(v for v, ax in sorted(active.items(), key=lambda kv: kv[1]))
    stats = replace(hir.stats, active_measurements=m_active, k_max=k_max,
                    nonclifford_rotations=rot_count)
    return BytecodeProgram(
        n=n, instrs=instrs, k_max=k_max,
        sites=sites, cum_hazard=cum_hazard,
        record_count=hir.record_count, user_records=hir.user_records,
        num_detectors=hir.num_detectors, num_observables=hir.num_observables,
        final_tableau=final_tableau, final_active=final_active, stats=stats)


def _plan_cost(prog: BytecodeProgram) -> tuple[int, int]:
    """(k_max, total active-array work): the scheduling objective.

    Work counts the sweep size of every instruction that touches the dense
    array, so moving frame-only operations between k-levels is free.
    """
    return prog.k_max, sum(getattr(ins, "size", 0) for ins in prog.instrs)


def plan_schedule(hir: HirProgram, postselect_detectors=()):
    """``(winner, its program)``: ``schedule_candidate(hir)``, or ``hir``
    itself if the candidate's (k_max, work) is worse. ``hir`` is planned only
    if the candidate could lose: k_max 0 leaves no sized instruction, so cost
    (0, 0), and an unmoved candidate plans the same. ``PostSelectIns`` has no
    size, so the postselected detectors leave the costs unchanged."""
    candidate = schedule_candidate(hir)
    prog = plan_and_emit(candidate, postselect_detectors)
    if prog.k_max == 0 or all(a is b for a, b in zip(candidate.ops, hir.ops)):
        return candidate, prog
    before = plan_and_emit(hir, postselect_detectors)
    if _plan_cost(prog) > _plan_cost(before):
        return hir, before
    return candidate, prog


_GATE_2X2 = {
    "S": ((1, 0), (0, 1j)),
    "H": ((math.sqrt(0.5), math.sqrt(0.5)), (math.sqrt(0.5), -math.sqrt(0.5))),
}
_IDENTITY_2X2 = ((1 + 0j, 0j), (0j, 1 + 0j))


def _fold_into_collapse(instrs: list, meas: MeasCollapse) -> MeasCollapse:
    """Pop the run of single-axis array gates on ``meas``'s qubit that ends
    ``instrs`` and fold it into ``meas``'s basis change."""
    gates = []
    while (instrs and isinstance(instrs[-1], ArrayGate) and instrs[-1].gate in _GATE_2X2
           and instrs[-1].axa == meas.axis and instrs[-1].va == meas.virt):
        gates.append(instrs.pop())
    if not gates:
        return meas
    u = meas.u
    for g in reversed(gates):
        m = _GATE_2X2[g.gate]
        u = (
            (m[0][0] * u[0][0] + m[0][1] * u[1][0], m[0][0] * u[0][1] + m[0][1] * u[1][1]),
            (m[1][0] * u[0][0] + m[1][1] * u[1][0], m[1][0] * u[0][1] + m[1][1] * u[1][1]),
        )
    pre = tuple((g.gate, g.va, None) for g in reversed(gates))
    return replace(meas, u=u, pre_gates=pre + meas.pre_gates)


def optimize_bytecode(prog: BytecodeProgram) -> BytecodeProgram:
    """Fold the single-axis array gates just before each measurement
    collapse into it (``plan_and_emit`` already merged neighbouring frame
    words, and the noise sites of each run of adjacent noise events).
    Full-array traversals never increase."""
    instrs: list = []
    for ins in prog.instrs:
        if isinstance(ins, MeasCollapse):
            ins = _fold_into_collapse(instrs, ins)
        instrs.append(ins)
    return replace(prog, instrs=instrs)


def compile_circuit(circuit_or_text, postselect_detectors=()) -> BytecodeProgram:
    """Full pipeline: parse/flatten -> HIR -> passes -> bytecode -> optimize.

    ``postselect_detectors`` lists detector indices whose shots are kept only
    when the detector reads 0; an index outside the circuit's detectors is a
    :class:`CompileError`. A :class:`Circuit` is validated as parsed text
    is, and its qubits recounted (:func:`circuit.check_circuit`).

    The compile makes no reference cycles, so the cyclic garbage collector
    is paused while it runs and its previous state restored after. If a
    young-generation collection fell due meanwhile, that one collection
    runs before returning, when only the program is left of the compile's
    objects, so its cost stays with the compile and does not move into the
    sampling that follows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _compile(circuit_or_text, tuple(postselect_detectors))
    finally:
        if enabled:
            gc.enable()
            if gc.get_count()[0] > gc.get_threshold()[0]:
                gc.collect(0)


def _compile(circuit_or_text, postselect_detectors: tuple) -> BytecodeProgram:
    """:func:`compile_circuit`'s pipeline; its objects other than the
    program die when it returns."""
    if isinstance(circuit_or_text, str):
        circuit = parse_circuit(circuit_or_text)
    else:  # built in code, or edited since its parse
        circuit = circuit_or_text
        check_circuit(circuit)
    hir = peephole_pass(lower_to_hir(flatten(circuit)))
    check_postselect_detectors(hir, postselect_detectors)
    return optimize_bytecode(plan_schedule(hir, postselect_detectors)[1])


def check_postselect_detectors(hir: HirProgram, postselect_detectors) -> None:
    """Raise a :class:`CompileError` for a postselected detector index that
    ``hir`` has no detector for."""
    for d in postselect_detectors:
        if not 0 <= d < hir.num_detectors:
            raise CompileError(f"postselected detector D{d} does not exist: the circuit "
                               f"has {hir.num_detectors} detector(s)")
