"""Heisenberg-picture intermediate representation and its optimization passes.

Lowering walks the flattened physical circuit once, absorbing every Clifford
gate into the accumulated coordinate frame and mapping the generator of each
remaining (active) operation through that frame at its own timestep. The
result is an op list that acts in one common virtual basis plus a final
frame tableau: replaying the ops on |0...0> and then applying the frame
reproduces the physical circuit.

Lowering builds a noise site's cases as products of the frame's stored rows
for its qubits, in the order of the oracle's case tables.

Two passes rewrite the op list:

* ``peephole_pass`` fuses each rotation with the later rotations on the same
  word that it reaches past ops it commutes with, drops full turns, and
  splits off Clifford quarter-turn parts into the final frame. A part
  conjugates every later op, so each sweep keeps the product of its parts
  as one tableau and maps an op through it when the sweep first reaches
  it; only the few ops a lookahead has already reached are conjugated part
  by part. After the first sweep, only rotations whose lookahead stopped at
  a deleted op are looked at again.
* ``schedule_pass`` moves measurements earlier and rotations later past
  the ops they commute with, keeping the result only if the planned peak
  active dimension (and then total active work) does not get worse. The
  backend's ``plan_schedule`` does that planning and hands the plan to the
  compiler.

Each op's scheduling facts (kind, records read and written, Pauli bits,
support) are computed once per form of the op. Whether two ops commute is a
few integer operations on their facts tuples; ops on disjoint qubits commute
without a Pauli product. The scheduler moves each op in one jump, to a stop
found from a per-qubit index of the ops it might not cross.
"""
from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, replace

from .circuit import Circuit, CircuitError, Rec
from .oracle import _SITE_LABELS  # the noise case tables shared with the dense oracle
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


def _letter_row(frame: CliffordTableau, q: int, letter: str) -> tuple:
    """``heisenberg_single`` of the Hermitian one-qubit Pauli ``letter`` on
    qubit q as an ``(x, z, e)`` tuple: a stored row for X and Z, and for
    Y = i X Z their product."""
    if letter == "X":
        return frame.ix[q]
    if letter == "Z":
        return frame.iz[q]
    xx, xz, xe = frame.ix[q]
    zx, zz, ze = frame.iz[q]
    return xx ^ zx, xz ^ zz, (1 + xe + ze + 2 * ((xz & zx).bit_count() & 1)) & 3


def _meas(frame: CliffordTableau, q: int, kind: str, record: int) -> Meas:
    """The measurement of the Hermitian one-qubit Pauli ``kind`` on qubit q,
    mapped through the frame: its row's word, and the row's sign as the flip."""
    x, z, e = _letter_row(frame, q, kind)
    y = (x & z).bit_count()
    return Meas(PauliString(frame.n, x, z, y), record, flip=(e - y) & 3 == 2)


# what lowering does with each opcode
(_GATE_1Q, _GATE_2Q, _ROTATION, _MEASURE, _RESET, _NOISE_SITE, _DETECTOR, _OBSERVABLE,
 _POSTSELECT, _SKIP) = range(10)
_LOWERING = {
    **dict.fromkeys(("H", "S", "S_DAG", "X", "Y", "Z"), _GATE_1Q),
    **dict.fromkeys(("CX", "CZ", "SWAP"), _GATE_2Q),
    **dict.fromkeys(_ROT_AXES, _ROTATION),
    "M": _MEASURE, "MX": _MEASURE, "MY": _MEASURE, "R": _RESET,
    **dict.fromkeys(_SITE_LABELS, _NOISE_SITE),
    "DETECTOR": _DETECTOR, "OBSERVABLE_INCLUDE": _OBSERVABLE, "POSTSELECT": _POSTSELECT,
    "TICK": _SKIP, "QUBIT_COORDS": _SKIP,
}
_MEAS_BASIS = {"M": "Z", "MX": "X", "MY": "Y"}


def lower_to_hir(circuit: Circuit) -> HirProgram:
    """Lower a flattened, validated circuit; Cliffords vanish into the frame."""
    n = max(circuit.qubit_count, 1)
    frame = CliffordTableau(n)
    absorb = frame.absorb_left
    ops: list = []
    records = 0
    user_records: list[int] = []
    detectors = 0
    observables: set[int] = set()
    site = 0
    clifford_ops = 0
    rotations = 0

    for ins in circuit.instructions:
        op = ins.opcode
        kind = _LOWERING.get(op)
        if kind == _GATE_2Q:
            pairs = iter(ins.targets)
            for a, b in zip(pairs, pairs):
                if isinstance(a, Rec):
                    letter = "X" if op == "CX" else "Z"
                    ops.append(CondPauli(frame.heisenberg_single(b, letter),
                                         user_records[a.value]))
                else:
                    absorb(op, a, b)
                    clifford_ops += 1
        elif kind == _DETECTOR:
            refs = tuple([user_records[t.value] for t in ins.targets])
            ops.append(DetectorDef(detectors, refs))
            detectors += 1
        elif kind == _GATE_1Q:
            if ins.targets and isinstance(ins.targets[0], Rec):
                if op not in ("X", "Z"):
                    raise CircuitError(f"{op} does not take record controls", ins.line)
                for ctrl, tgt in zip(ins.targets[::2], ins.targets[1::2]):
                    ops.append(CondPauli(frame.heisenberg_single(tgt, op),
                                         user_records[ctrl.value]))
                continue
            for q in ins.targets:
                absorb(op, q)
                clifford_ops += 1
        elif kind == _NOISE_SITE:
            divisor, labels = _SITE_LABELS[op]
            mass = ins.args[0] / divisor
            groups = ([(q,) for q in ins.targets] if op != "DEPOLARIZE2"
                      else list(zip(ins.targets[::2], ins.targets[1::2])))
            for qubits in groups:
                cases = []
                if mass > 0.0:
                    # each case is a product of the frame's rows for its qubits
                    for label in labels:
                        x = z = e = 0
                        for ch, q in zip(label, qubits):
                            if ch != "I":
                                rx, rz, re = _letter_row(frame, q, ch)
                                e += re + 2 * ((z & rx).bit_count() & 1)
                                x ^= rx
                                z ^= rz
                        cases.append((mass, PauliString(n, x, z, e)))
                ops.append(NoiseEvent(site, cases))
                site += 1
        elif kind == _MEASURE:
            basis = _MEAS_BASIS[op]
            for q in ins.targets:
                ops.append(_meas(frame, q, basis, records))
                user_records.append(records)
                records += 1
        elif kind == _RESET:
            for q in ins.targets:
                ops.append(_meas(frame, q, "Z", records))
                ops.append(CondPauli(PauliString(n, *frame.ix[q]), records))
                records += 1
        elif kind == _ROTATION:
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
                rotations += 1
        elif kind == _OBSERVABLE:
            k = int(ins.args[0])
            refs = tuple([user_records[t.value] for t in ins.targets])
            ops.append(ObservableDef(k, refs))
            observables.add(k)
        elif kind == _POSTSELECT:
            required = int(ins.args[0]) if ins.args else 0
            for t in ins.targets:
                ops.append(PostSelectOp("record", user_records[t.value], required))
        elif kind != _SKIP:
            raise CircuitError(f"cannot lower opcode {op}", ins.line)

    stats = CompileStats(
        n_qubits=n,
        clifford_ops=clifford_ops,
        measurements=records,
        nonclifford_rotations=rotations,
        noise_mechanisms=site,
    )
    return HirProgram(n, ops, frame, records, tuple(user_records),
                      detectors, max(observables, default=-1) + 1, stats)


# -- scheduling facts -----------------------------------------------------------
#
# Both passes test ops against each other many times, so every op's
# scheduling facts are computed once and kept in a list parallel to the op
# list (the peephole recomputes them when it rewrites an op). The facts of an
# op are the tuple (kind, reads, write, paulis, support): its kind code below,
# the records it reads, the record it writes (or None), its Paulis as (x, z)
# bit pairs and the union of their supports as one mask.

_OTHER, _ROT, _MEAS, _NOISE, _PSEL = range(5)


def _facts(op) -> tuple:
    kind = type(op)
    if kind is Meas:
        g = op.observable
        return _MEAS, (), op.record, ((g.x, g.z),), g.x | g.z
    if kind is Rot:
        g = op.generator
        return _ROT, (), None, ((g.x, g.z),), g.x | g.z
    if kind is NoiseEvent:
        paulis = tuple([(p.x, p.z) for _, p in op.cases])
        support = 0
        for x, z in paulis:
            support |= x | z
        return _NOISE, (), None, paulis, support
    if kind is CondPauli:
        g = op.pauli
        return _OTHER, (op.record,), None, ((g.x, g.z),), g.x | g.z
    if kind is DetectorDef or kind is ObservableDef:
        return _OTHER, op.records, None, (), 0
    if kind is PostSelectOp:
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
        # e in [-7, 8]; peeling quarter turns of 2 eighths with trunc keeps
        # |resid| <= 1
        resid = e - 2 * math.trunc(e / 2)
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


def _quarter_image(w: PauliString, m: int):
    """The map ``(x, z, e) -> C^dag (i^e X^x Z^z) C`` for C = exp(-i m pi/4 W),
    W a +1 Hermitian word and m in 1..3: the identity on what commutes with
    W, and on the rest a sign for m = 2, else i^(+-1) W P."""
    wx, wz, we = w.x, w.z, w.phase_exp
    turn = 1 if m == 1 else 3

    def image(x: int, z: int, e: int) -> tuple:
        if not ((x & wz) ^ (z & wx)).bit_count() & 1:
            return x, z, e
        if m == 2:
            return x, z, (e + 2) & 3
        return wx ^ x, wz ^ z, (we + e + 2 * ((wz & x).bit_count() & 1) + turn) & 3

    return image


def _rewrite(op, image):
    """``op`` with each of its Paulis ``i^e X^x Z^z`` replaced by
    ``image(x, z, e)``, a conjugation; a rotation or measurement folds the
    sign it gains as lowering does."""
    if isinstance(op, Rot):
        g = op.generator
        return _canonical_rot(PauliString(g.n, *image(g.x, g.z, g.phase_exp)),
                              op.angle, op.eighths)
    if isinstance(op, Meas):
        g = op.observable
        g = PauliString(g.n, *image(g.x, g.z, g.phase_exp))
        return Meas(g.hermitian_word(), op.record, flip=op.flip ^ (g.hermitian_sign() < 0))
    if isinstance(op, NoiseEvent):
        return NoiseEvent(op.site, [(mass, PauliString(p.n, *image(p.x, p.z, p.phase_exp)))
                                    for mass, p in op.cases])
    if isinstance(op, CondPauli):
        g = op.pauli
        return CondPauli(PauliString(g.n, *image(g.x, g.z, g.phase_exp)), op.record)
    return op


class _Peephole:
    """The peephole's op list, each op with its facts and a uid that its
    rewrites keep. ``stop`` maps a rotation's uid to the uid of the op at
    which its last lookahead stopped; ``blocked`` maps an op's uid to the
    uids of the rotations whose lookahead stopped there."""

    def __init__(self, hir: HirProgram):
        self.n = hir.n
        self.ops = list(hir.ops)
        self.facts = [_facts(op) for op in self.ops]
        self.uids = list(range(len(self.ops)))
        self.stop: dict = {}
        self.blocked = defaultdict(list)

    def _reach(self, p: int, delta, touched: int) -> None:
        """Map ``ops[p]`` from its sweep-start form through ``delta``, unless
        it misses ``touched``, the support of every part in ``delta``."""
        if self.facts[p][4] & touched:
            self.ops[p] = _rewrite(self.ops[p], delta._map)
            self.facts[p] = _facts(self.ops[p])

    def _delete(self, p: int, unblocked: list) -> None:
        """Delete ``ops[p]``; note the rotations whose lookahead stopped there."""
        u = self.uids[p]
        self.stop.pop(u, None)
        unblocked.extend((r, u) for r in self.blocked.pop(u, ()))
        del self.ops[p], self.facts[p], self.uids[p]

    def sweep(self, pending):
        """Move a cursor over the ops once and return ``(delta, unblocked)``.

        At each rotation the cursor fuses into it every later rotation on the
        same word it reaches past ops that commute with it, then splits off
        its Clifford part. ``pending`` None examines every rotation; a set
        examines only the rotations with those uids until the list first
        changes, and every rotation after that.

        A split-off part exp(-i m pi/4 W) conjugates every later op by
        itself. Those are deferred: ``delta`` (None until the first part) is
        the product of the parts so far, and an op is mapped through it
        when the cursor or a lookahead first reaches it. An op reached
        before takes each later part at once, unless the part's own
        lookahead passed it, which means it commutes with W.
        ``unblocked`` is the set of rotations whose last lookahead stopped
        at an op this sweep deleted."""
        ops, facts, uids, stop, blocked = self.ops, self.facts, self.uids, self.stop, self.blocked
        delta = None
        touched = 0
        unblocked: list = []  # (rotation uid, uid of the deleted op)
        reached = 0  # ops[:reached] are in current coordinates
        i = 0
        while i < len(ops):
            if i == reached:
                self._reach(i, delta, touched)
                reached += 1
            kind, _, _, paulis, support = facts[i]
            if kind != _ROT or (pending is not None and uids[i] not in pending):
                i += 1
                continue
            op = ops[i]
            word = paulis[0]
            x, z = word
            j = i + 1
            while j < len(ops):
                if j == reached:
                    self._reach(j, delta, touched)
                    reached += 1
                kind, _, _, others, osup = facts[j]
                if kind == _ROT and others[0] == word:
                    other = ops[j]
                    if op.eighths is not None and other.eighths is not None:
                        op = Rot(op.generator, (op.eighths + other.eighths) * math.pi / 8,
                                 op.eighths + other.eighths)
                    else:
                        op = Rot(op.generator, op.angle + other.angle, None)
                    ops[i] = op  # same generator, so facts[i] still holds
                    self._delete(j, unblocked)
                    reached -= 1
                    pending = None
                    continue
                # may j move before i, and i after j? one check covers both
                if kind == _PSEL or (support & osup and any(
                        ((ox & z) ^ (oz & x)).bit_count() & 1 for ox, oz in others)):
                    stop[uids[i]] = uids[j]
                    blocked[uids[j]].append(uids[i])
                    break
                j += 1
            else:
                stop.pop(uids[i], None)
            m, resid_angle, resid_eighths = _split_clifford_part(op.angle, op.eighths)
            if m == 0 and abs(resid_angle) >= _TOL:
                i += 1
                continue
            pending = None
            if abs(resid_angle) >= _TOL:
                ops[i] = Rot(op.generator, resid_angle, resid_eighths)
            else:
                self._delete(i, unblocked)
                reached -= 1
                j -= 1
            m %= 4  # exp(-i pi W) = -1 conjugates nothing
            if m:
                # from where the lookahead stopped, the ops already reached
                # take the part now
                quarter = _quarter_image(op.generator, m)
                for idx in range(j, reached):
                    _, _, _, others, osup = facts[idx]
                    if support & osup and any(((ox & z) ^ (oz & x)).bit_count() & 1
                                              for ox, oz in others):
                        ops[idx] = _rewrite(ops[idx], quarter)
                        facts[idx] = _facts(ops[idx])
                if delta is None:
                    delta = CliffordTableau(self.n)
                delta.absorb_rotation_right(op.generator, m)
                touched |= support
        return delta, {r for r, u in unblocked if stop.get(r) == u}


def peephole_pass(hir: HirProgram) -> HirProgram:
    """Fuse equal-generator rotations, drop full turns, absorb Clifford parts.

    Sweeps until nothing changes. A rotation's lookahead stops at the first
    op it does not commute with, and every rewrite after that conjugates
    both by the same Clifford or by one that commutes with the rotation, so
    the lookahead would stop there again unless a sweep deleted that op.
    After the first sweep, a sweep therefore examines only the rotations so
    unblocked, until one of them changes the list. Returns ``hir`` itself
    when it has no rotation, so there is nothing to do."""
    if Rot not in map(type, hir.ops):
        return hir
    work = _Peephole(hir)
    frame = hir.final_frame
    pending = None
    while pending is None or pending:
        delta, pending = work.sweep(pending)
        if delta is not None:
            frame = frame.compose(delta)
    out = replace(hir, ops=work.ops, final_frame=frame)
    out.stats = replace(hir.stats,
                        nonclifford_rotations=sum(1 for o in work.ops if isinstance(o, Rot)))
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
    Only reorders ops; without a rotation, only measurements move."""
    facts = [_facts(op) for op in hir.ops]
    order = _jump(list(range(len(facts))), facts, _MEAS, (_ROT,), (_NOISE, _PSEL))
    if Rot in map(type, hir.ops):
        order = _jump(order[::-1], facts, _ROT, (_ROT, _MEAS), (_PSEL,))[::-1]
    return replace(hir, ops=[hir.ops[i] for i in order])


def schedule_pass(hir: HirProgram) -> HirProgram:
    """:func:`schedule_candidate`, or ``hir`` itself if the backend's plans
    show a worse peak active dimension, then total active-array work."""
    from .backend import plan_schedule

    return plan_schedule(hir)[0]
