"""Heisenberg-picture intermediate representation and its optimization passes.

Lowering walks the flattened physical circuit once, absorbing every Clifford
gate into the accumulated coordinate frame and mapping the generator of each
remaining (active) operation through that frame at its own timestep. The
result is an op list that acts in one common virtual basis plus a final
frame tableau: replaying the ops on |0...0> and then applying the frame
reproduces the physical circuit.

Two passes rewrite the op list:

* ``peephole_pass`` fuses rotations on equal generators across commuting
  neighbours, drops full turns, and splits off Clifford quarter-turn parts,
  absorbing them into the final frame while conjugating all later ops.
* ``schedule_pass`` moves measurements earlier and rotations later past
  the ops they commute with, keeping the result only if the planned peak
  active dimension (and then total active work) does not get worse. The
  backend's ``plan_schedule`` does that planning and hands the plan to the
  compiler.

Each op's scheduling facts (kind, records read and written, Pauli bits,
support) are computed once. The peephole moves ops by adjacent swaps, each a
few integer operations on two facts tuples; ops on disjoint qubits commute
without a Pauli product. The scheduler moves each op in one jump, to a stop
found from a per-qubit index of the ops it might not cross.
"""
from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, replace

from .circuit import Circuit, CircuitError, Rec
from .pauli import CliffordTableau, CompileStats, PauliString

_QUARTER = math.pi / 4.0
_TAU = 2.0 * math.pi
_TOL = 1e-12


@dataclass
class Rot:
    """exp(-i * angle * generator); generator is a +1-signed Hermitian word."""

    generator: PauliString
    angle: float
    eighths: int | None = None  # exact angle in units of pi/8 for T-like input


@dataclass
class Meas:
    """Projective measurement of a Hermitian word; flip encodes its sign."""

    observable: PauliString
    record: int
    flip: bool = False


@dataclass
class NoiseEvent:
    site: int
    cases: list  # [(mass, virtual PauliString), ...], masses in (0, 1]


@dataclass
class CondPauli:
    pauli: PauliString
    record: int


@dataclass
class DetectorDef:
    index: int
    records: tuple


@dataclass
class ObservableDef:
    index: int
    records: tuple


@dataclass
class PostSelectOp:
    kind: str  # "record" | "detector"
    ref: int
    required: int


@dataclass
class HirProgram:
    n: int
    ops: list
    final_frame: CliffordTableau
    record_count: int
    user_records: tuple
    num_detectors: int
    num_observables: int
    stats: CompileStats

    def dump(self) -> str:
        lines = [_render_op(op, self.user_records) for op in self.ops]
        return "\n".join(lines) + ("\n" if lines else "")


def _rec_name(record: int, user_records: tuple) -> str:
    try:
        return f"rec[{user_records.index(record)}]"
    except ValueError:
        return f"tmp[{record}]"


def _render_op(op, user_records: tuple) -> str:
    if isinstance(op, Rot):
        label = None
        if op.eighths is not None:
            if op.eighths % 16 == 1:
                label = "T    "
            elif op.eighths % 16 == 15:
                label = "T_DAG"
        if label is None:
            if abs(op.angle - math.pi / 8) < _TOL:
                label = "T    "
            elif abs(op.angle + math.pi / 8) < _TOL:
                label = "T_DAG"
            else:
                label = f"ROT({op.angle:.6g})"
        return f"{label} {op.generator.short_str()}"
    if isinstance(op, Meas):
        sign = "-" if op.flip else "+"
        body = op.observable.short_str()[1:]
        return f"MEAS  {sign}{body} -> {_rec_name(op.record, user_records)}"
    if isinstance(op, NoiseEvent):
        return f"NOISE site={op.site}"
    if isinstance(op, CondPauli):
        return f"COND  {op.pauli.short_str()} if {_rec_name(op.record, user_records)}"
    if isinstance(op, DetectorDef):
        refs = "^".join(_rec_name(r, user_records) for r in op.records)
        return f"DET   D{op.index} = {refs}"
    if isinstance(op, ObservableDef):
        refs = "^".join(_rec_name(r, user_records) for r in op.records)
        return f"OBS   L{op.index} ^= {refs}"
    if isinstance(op, PostSelectOp):
        where = f"D{op.ref}" if op.kind == "detector" else _rec_name(op.ref, user_records)
        return f"PSEL  {where} == {op.required}"
    return repr(op)


_ROT_AXES = {"T": "Z", "T_DAG": "Z", "R_X": "X", "R_Y": "Y", "R_Z": "Z"}


def _canonical_rot(generator: PauliString, angle: float, eighths) -> Rot:
    """Fold the mapped sign into the angle; keep a +1 Hermitian word."""
    sign = generator.hermitian_sign()
    word = generator.hermitian_word()
    if sign < 0:
        angle = -angle
        eighths = None if eighths is None else -eighths
    return Rot(word, angle, eighths)


def lower_to_hir(circuit: Circuit) -> HirProgram:
    """Lower a flattened, validated circuit; Cliffords vanish into the frame."""
    n = max(circuit.qubit_count, 1)
    frame = CliffordTableau(n)
    ops: list = []
    records = 0
    user_records: list[int] = []
    detectors = 0
    observables: set[int] = set()
    site = 0
    clifford_ops = 0
    from .oracle import site_cases  # case tables shared with the dense oracle

    for ins in circuit.instructions:
        op = ins.opcode
        if op in ("H", "S", "S_DAG", "X", "Y", "Z"):
            if ins.targets and isinstance(ins.targets[0], Rec):
                if op not in ("X", "Z"):
                    raise CircuitError(f"{op} does not take record controls", ins.line)
                for ctrl, tgt in zip(ins.targets[::2], ins.targets[1::2]):
                    ops.append(CondPauli(frame.heisenberg_single(tgt, op),
                                         user_records[ctrl.value]))
                continue
            for q in ins.targets:
                frame.absorb_left(op, q)
                clifford_ops += 1
        elif op in ("CX", "CZ", "SWAP"):
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                if isinstance(a, Rec):
                    kind = "X" if op == "CX" else "Z"
                    ops.append(CondPauli(frame.heisenberg_single(b, kind),
                                         user_records[a.value]))
                else:
                    frame.absorb_left(op, a, b)
                    clifford_ops += 1
        elif op in ("T", "T_DAG", "R_X", "R_Y", "R_Z"):
            if op == "T":
                angle, eighths = math.pi / 8, 1
            elif op == "T_DAG":
                angle, eighths = -math.pi / 8, -1
            else:
                angle, eighths = ins.args[0] / 2.0, None
            axis = _ROT_AXES[op]
            for q in ins.targets:
                rot = _canonical_rot(frame.heisenberg_single(q, axis), angle, eighths)
                quarters = _clifford_quarters(rot)
                if quarters is not None:
                    if quarters % 8:
                        frame.absorb_rotation_right(rot.generator, quarters % 8)
                    continue
                ops.append(rot)
        elif op in ("M", "MX", "MY"):
            basis = {"M": "Z", "MX": "X", "MY": "Y"}[op]
            for q in ins.targets:
                mapped = frame.heisenberg_single(q, basis)
                ops.append(Meas(mapped.hermitian_word(),
                                records, flip=mapped.hermitian_sign() < 0))
                user_records.append(records)
                records += 1
        elif op == "R":
            for q in ins.targets:
                mapped = frame.heisenberg_single(q, "Z")
                ops.append(Meas(mapped.hermitian_word(), records,
                                flip=mapped.hermitian_sign() < 0))
                ops.append(CondPauli(frame.heisenberg_single(q, "X"), records))
                records += 1
        elif op in ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"):
            groups = ([(q,) for q in ins.targets] if op != "DEPOLARIZE2"
                      else list(zip(ins.targets[::2], ins.targets[1::2])))
            for qubits in groups:
                cases = [(mass, frame.heisenberg_map(pauli))
                         for mass, pauli in site_cases(ins, qubits, n) if mass > 0.0]
                ops.append(NoiseEvent(site, cases))
                site += 1
        elif op == "DETECTOR":
            refs = tuple(user_records[t.value] for t in ins.targets)
            ops.append(DetectorDef(detectors, refs))
            detectors += 1
        elif op == "OBSERVABLE_INCLUDE":
            k = int(ins.args[0])
            refs = tuple(user_records[t.value] for t in ins.targets)
            ops.append(ObservableDef(k, refs))
            observables.add(k)
        elif op == "POSTSELECT":
            required = int(ins.args[0]) if ins.args else 0
            for t in ins.targets:
                ops.append(PostSelectOp("record", user_records[t.value], required))
        elif op in ("TICK", "QUBIT_COORDS"):
            continue
        else:
            raise CircuitError(f"cannot lower opcode {op}", ins.line)

    stats = CompileStats(
        n_qubits=n,
        clifford_ops=clifford_ops,
        measurements=records,
        nonclifford_rotations=sum(1 for o in ops if isinstance(o, Rot)),
        noise_mechanisms=site,
    )
    return HirProgram(n, ops, frame, records, tuple(user_records),
                      detectors, max(observables, default=-1) + 1, stats)


# -- scheduling facts -----------------------------------------------------------
#
# Both passes test ops against each other many times, so every op's
# scheduling facts are computed once and kept in a list parallel to the op
# list (the peephole swaps them along with the ops). The facts of an op are
# the tuple (kind, reads, write, paulis, support): its kind code below, the
# records it reads, the record it writes (or None), its Paulis as (x, z) bit
# pairs and the union of their supports as one mask.

_OTHER, _ROT, _MEAS, _NOISE, _PSEL = range(5)


def _facts(op) -> tuple:
    if isinstance(op, Rot):
        g = op.generator
        return _ROT, (), None, ((g.x, g.z),), g.x | g.z
    if isinstance(op, Meas):
        g = op.observable
        return _MEAS, (), op.record, ((g.x, g.z),), g.x | g.z
    if isinstance(op, NoiseEvent):
        paulis = tuple((p.x, p.z) for _, p in op.cases)
        support = 0
        for x, z in paulis:
            support |= x | z
        return _NOISE, (), None, paulis, support
    if isinstance(op, CondPauli):
        g = op.pauli
        return _OTHER, (op.record,), None, ((g.x, g.z),), g.x | g.z
    if isinstance(op, (DetectorDef, ObservableDef)):
        return _OTHER, op.records, None, (), 0
    if isinstance(op, PostSelectOp):
        return _PSEL, (), None, (), 0
    return _OTHER, (), None, (), 0


def _swappable(a: tuple, b: tuple) -> bool:
    """True if the op with facts ``b`` may execute before the adjacent op with
    facts ``a``: neither postselects, not both are noise, ``b`` reads no
    record ``a`` writes, and every Pauli pair commutes. Ops on disjoint
    qubits commute without a product."""
    kind_a, _, write_a, paulis_a, support_a = a
    kind_b, reads_b, _, paulis_b, support_b = b
    if kind_a == _PSEL or kind_b == _PSEL or kind_a == kind_b == _NOISE:
        return False
    if write_a is not None and write_a in reads_b:
        return False
    if not support_a & support_b:
        return True
    for xa, za in paulis_a:
        for xb, zb in paulis_b:
            if ((xa & zb) ^ (za & xb)).bit_count() & 1:
                return False
    return True


# -- peephole ------------------------------------------------------------------


def _clifford_quarters(rot: Rot) -> int | None:
    """Quarter-turn count if the rotation is Clifford, else None."""
    if rot.eighths is not None:
        return rot.eighths // 2 if rot.eighths % 2 == 0 else None
    q = rot.angle / _QUARTER
    if abs(q - round(q)) < _TOL / _QUARTER * 4:
        return int(round(q))
    return None


def _split_clifford_part(angle: float, eighths):
    """Return (quarter_turns, residual_angle, residual_eighths).

    Residual lands in [-pi/8, pi/8] with the half-way points kept as T-like
    rotations rather than pushed to the other side.
    """
    if eighths is not None:
        e = eighths % 16
        if e > 8:
            e -= 16
        # e in [-7, 8]; peel quarter turns of 2 eighths keeping |resid| <= 1
        m = int(math.trunc(e / 2))
        resid = e - 2 * m
        if resid > 1:
            m += 1
            resid -= 2
        elif resid < -1:
            m -= 1
            resid += 2
        full = (eighths - resid) // 2
        return full, resid * math.pi / 8, resid
    a = math.remainder(angle, _TAU)
    m = math.trunc(a / _QUARTER)
    resid = a - m * _QUARTER
    if resid > math.pi / 8 + _TOL:
        m += 1
        resid -= _QUARTER
    elif resid < -math.pi / 8 - _TOL:
        m -= 1
        resid += _QUARTER
    return m, resid, None


def _conjugate_by_quarter(p: PauliString, w: PauliString, m: int) -> PauliString:
    """C^dag P C for C = exp(-i m pi/4 W); W a +1 Hermitian word."""
    if p.commutes_with(w):
        return p
    m = m % 4
    if m == 0:
        return p
    if m == 2:
        out = p.copy()
        out.phase_exp = (out.phase_exp + 2) & 3
        return out
    out = w.mul(p)
    out.phase_exp = (out.phase_exp + (1 if m == 1 else 3)) & 3
    return out


def _absorb_clifford_rotation(ops: list, facts: list, start: int, word: PauliString, m: int,
                              frame: CliffordTableau) -> None:
    """Push exp(-i m pi/4 word) at position start into the final frame.

    Only ops with a Pauli that anticommutes with ``word`` change; they are
    rewritten and their facts recomputed."""
    m = m % 8
    if m == 0:
        return
    frame.absorb_rotation_right(word, m)
    wx, wz = word.x, word.z
    for idx in range(start, len(ops)):
        _, _, _, paulis, support = facts[idx]
        if not support & (wx | wz) or not any(((x & wz) ^ (z & wx)).bit_count() & 1
                                              for x, z in paulis):
            continue
        op = ops[idx]
        if isinstance(op, Rot):
            g = _conjugate_by_quarter(op.generator, word, m)
            ops[idx] = _canonical_rot(g, op.angle, op.eighths)
        elif isinstance(op, Meas):
            g = _conjugate_by_quarter(op.observable, word, m)
            ops[idx] = Meas(g.hermitian_word(), op.record,
                            flip=op.flip ^ (g.hermitian_sign() < 0))
        elif isinstance(op, NoiseEvent):
            ops[idx] = NoiseEvent(op.site, [(mass, _conjugate_by_quarter(p, word, m))
                                            for mass, p in op.cases])
        elif isinstance(op, CondPauli):
            ops[idx] = CondPauli(_conjugate_by_quarter(op.pauli, word, m), op.record)
        facts[idx] = _facts(ops[idx])


def peephole_pass(hir: HirProgram) -> HirProgram:
    """Fuse equal-generator rotations, drop full turns, absorb Clifford parts.

    Returns ``hir`` itself when it has no rotation, so there is nothing to do."""
    if not any(isinstance(op, Rot) for op in hir.ops):
        return hir
    ops = list(hir.ops)
    facts = [_facts(op) for op in ops]
    frame = hir.final_frame.copy()
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(ops):
            op = ops[i]
            if not isinstance(op, Rot):
                i += 1
                continue
            # try to pull a later rotation with the same generator back to i
            j = i + 1
            while j < len(ops):
                other = ops[j]
                if (isinstance(other, Rot)
                        and other.generator.word_key() == op.generator.word_key()):
                    if op.eighths is not None and other.eighths is not None:
                        fused = Rot(op.generator, (op.eighths + other.eighths) * math.pi / 8,
                                    op.eighths + other.eighths)
                    else:
                        fused = Rot(op.generator, op.angle + other.angle, None)
                    ops[i] = fused  # same generator, so facts[i] still holds
                    del ops[j]
                    del facts[j]
                    changed = True
                    op = fused
                    continue
                if not _swappable(facts[i], facts[j]) or not _swappable(facts[j], facts[i]):
                    break
                j += 1
            m, resid_angle, resid_eighths = _split_clifford_part(op.angle, op.eighths)
            if m != 0 or abs(resid_angle) < _TOL:
                del ops[i]
                del facts[i]
                if abs(resid_angle) >= _TOL:
                    ops.insert(i, Rot(op.generator, resid_angle, resid_eighths))
                    facts.insert(i, _facts(ops[i]))
                _absorb_clifford_rotation(ops, facts, i + (abs(resid_angle) >= _TOL),
                                          op.generator, m, frame)
                changed = True
                continue
            i += 1
    out = replace(hir, ops=ops, final_frame=frame)
    out.stats = replace(hir.stats,
                        nonclifford_rotations=sum(1 for o in ops if isinstance(o, Rot)))
    return out


# -- scheduling ----------------------------------------------------------------


class _Sequence:
    """Ops in their current order, each with an integer label that increases
    along the list, so two positions compare in O(1): order maintenance
    after Bender et al. (2002). Nodes are op indices; node ``size`` is a head
    sentinel with label 0. An append adds ``_GAP`` to the tail's label; an
    insert takes the midpoint of its gap and, when the gap is empty, first
    spreads out the smallest aligned label range around it that is sparse
    enough."""

    _GAP = 1 << 32

    def __init__(self, size: int):
        self.label = [0] * (size + 1)
        self.nxt = [-1] * (size + 1)
        self.prv = [-1] * (size + 1)
        self.head = self.tail = size

    def append(self, v: int) -> None:
        t = self.tail
        self.label[v] = self.label[t] + self._GAP
        self.nxt[t] = v
        self.prv[v] = t
        self.tail = v

    def insert_after(self, a: int, v: int) -> None:
        if a == self.tail:
            self.append(v)
            return
        label, nxt = self.label, self.nxt
        b = nxt[a]
        if label[b] - label[a] < 2:
            self._spread(a)
        label[v] = (label[a] + label[b]) >> 1
        nxt[a], nxt[v] = v, b
        self.prv[b], self.prv[v] = v, a

    def _spread(self, a: int) -> None:
        """Relabel evenly the nodes of the smallest range [base, base + 2^i)
        around ``a``'s label that holds fewer than (4/3)^i - 1 of them, so
        every gap in it exceeds (3/2)^i - 1 >= 2."""
        label, nxt, prv = self.label, self.nxt, self.prv
        lo = hi = a
        count = 1
        i = 0
        while True:
            i += 1
            base = label[a] >> i << i
            top = base + (1 << i)
            while prv[lo] >= 0 and label[prv[lo]] >= base:
                lo = prv[lo]
                count += 1
            while nxt[hi] >= 0 and label[nxt[hi]] < top:
                hi = nxt[hi]
                count += 1
            if (count + 1) * 3 ** i < 4 ** i:
                break
        step = (1 << i) // (count + 1)
        v = lo
        while True:
            label[v] = base
            if v == hi:
                return
            base += step
            v = nxt[v]

    def order(self) -> list:
        out = []
        v = self.nxt[self.head]
        while v >= 0:
            out.append(v)
            v = self.nxt[v]
        return out


def _jump(order: list, facts: list, mover: int, walls: tuple, barriers: tuple) -> list:
    """Move each op of kind ``mover``, taken in ``order``, to just after the
    latest op before it that it may not cross; return the new order.

    An op may not cross a barrier, a wall whose support meets its own, or an
    op with an anticommuting Pauli (``_swappable``; a mover reads no record
    and writes none that an op before it reads). The index holds, per qubit,
    the latest wall on it and, by position, the other ops since the last
    barrier with an X (or Z) bit on it. A mover tests only the ops whose X
    bits meet its Z bits or whose Z bits meet its X bits, from the latest
    down, and the walls on its support, then inserts itself once. An op is
    indexed only on the qubits where a later mover may look it up before a
    barrier or a wall that stays put stops it."""
    size = len(order)
    look_x = [0] * size  # per position, the X bits that movers after it look up
    look_z = [0] * size
    ax = az = 0
    last = -1
    for j in range(size - 1, -1, -1):
        look_x[j] = ax
        look_z[j] = az
        kind, _, _, paulis, support = facts[order[j]]
        if kind == mover:
            ax |= paulis[0][0]
            az |= paulis[0][1]
            if last < 0:
                last = j
        elif kind in walls:
            # a wall that does not move stops every later mover on its support
            ax &= ~support
            az &= ~support
        elif kind in barriers:
            ax = az = 0
    if last < 0:
        return order
    seq = _Sequence(len(facts))
    label = seq.label
    start = seq.head
    wall_at: dict = {}  # qubit -> the latest wall on it
    xs = defaultdict(list)  # qubit -> non-wall ops with an X bit there, by position
    zs = defaultdict(list)  # the same for Z bits
    in_walls = in_xs = in_zs = 0  # the qubits each of the three has a key for
    commuting: set = set()  # the ops a mover was found to commute with
    for j in range(last + 1):
        i = order[j]
        kind, _, _, paulis, support = facts[i]
        if kind in barriers:
            seq.append(i)
            start = i
            wall_at.clear()
            xs.clear()
            zs.clear()
            in_walls = in_xs = in_zs = 0
            continue
        moved = False
        if kind == mover:
            (x, z), = paulis
            at = start
            best = label[at]
            m = support & in_walls
            while m:
                low = m & -m
                m ^= low
                w = wall_at[low.bit_length() - 1]
                if label[w] > best:
                    at, best = w, label[w]
            commuting.clear()
            for index, m in ((xs, z & in_xs), (zs, x & in_zs)):
                while m:
                    low = m & -m
                    m ^= low
                    for c in reversed(index[low.bit_length() - 1]):
                        if label[c] <= best:
                            break
                        if c in commuting:
                            continue
                        if any(((cx & z) ^ (cz & x)).bit_count() & 1 for cx, cz in facts[c][3]):
                            at, best = c, label[c]
                            break
                        commuting.add(c)
            moved = at != seq.tail
            seq.insert_after(at, i)
        else:
            seq.append(i)
        if not paulis:
            continue
        if kind in walls:
            # a mover lands after every wall on its support, so each op
            # placed is the latest wall on its own qubits
            m = support & (look_x[j] | look_z[j])
            in_walls |= m
            while m:
                low = m & -m
                m ^= low
                wall_at[low.bit_length() - 1] = i
            continue
        ux = uz = 0
        for px, pz in paulis:
            ux |= px
            uz |= pz
        ux &= look_z[j]
        uz &= look_x[j]
        in_xs |= ux
        in_zs |= uz
        for index, m in ((xs, ux), (zs, uz)):
            while m:
                low = m & -m
                m ^= low
                if moved:
                    bisect.insort(index[low.bit_length() - 1], i, key=label.__getitem__)
                else:
                    index[low.bit_length() - 1].append(i)
    return seq.order() + order[last + 1:]


def schedule_candidate(hir: HirProgram) -> HirProgram:
    """Pull measurements earlier, then push rotations later, each by one jump.

    A measurement stops after the latest noise event, postselection, rotation
    on its support or op it anticommutes with; a rotation stops before the
    earliest postselection, rotation or measurement on its support or op it
    anticommutes with (crossing a commuting rotation or measurement on shared
    support forfeits the contraction the move was after). Measurements move
    in program order and rotations in reverse, each past the ops already
    placed, which is what moving them one adjacent swap at a time would give.
    Only reorders ops."""
    facts = [_facts(op) for op in hir.ops]
    order = _jump(list(range(len(facts))), facts, _MEAS, (_ROT,), (_NOISE, _PSEL))
    order = _jump(order[::-1], facts, _ROT, (_ROT, _MEAS), (_PSEL,))[::-1]
    return replace(hir, ops=[hir.ops[i] for i in order])


def schedule_pass(hir: HirProgram) -> HirProgram:
    """:func:`schedule_candidate`, or ``hir`` itself if the backend's plans
    show a worse peak active dimension, then total active-array work."""
    from .backend import plan_schedule

    return plan_schedule(hir)[0]
