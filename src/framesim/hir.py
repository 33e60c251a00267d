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
* ``schedule_pass`` bubbles measurements earlier and rotations later through
  commuting swaps, keeping the result only if the planned peak active
  dimension (and then total active work) does not get worse. The backend's
  ``plan_schedule`` does that planning and hands the plan to the compiler.

Both passes move ops by adjacent swaps. Each op's scheduling facts (kind,
records read and written, Pauli bits, support) are computed once and travel
with it, so a swap test is a few integer operations; ops on disjoint qubits
commute without a Pauli product.
"""
from __future__ import annotations

import math
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
                    phys = PauliString.single(n, tgt, op)
                    ops.append(CondPauli(frame.heisenberg_map(phys), user_records[ctrl.value]))
                continue
            for q in ins.targets:
                frame.absorb_left(op, q)
                clifford_ops += 1
        elif op in ("CX", "CZ", "SWAP"):
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                if isinstance(a, Rec):
                    kind = "X" if op == "CX" else "Z"
                    phys = PauliString.single(n, b, kind)
                    ops.append(CondPauli(frame.heisenberg_map(phys), user_records[a.value]))
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
                phys = PauliString.single(n, q, axis)
                rot = _canonical_rot(frame.heisenberg_map(phys), angle, eighths)
                quarters = _clifford_quarters(rot)
                if quarters is not None:
                    if quarters % 8:
                        frame.absorb_rotation_right(rot.generator, quarters % 8)
                    continue
                ops.append(rot)
        elif op in ("M", "MX", "MY"):
            basis = {"M": "Z", "MX": "X", "MY": "Y"}[op]
            for q in ins.targets:
                phys = PauliString.single(n, q, basis)
                mapped = frame.heisenberg_map(phys)
                ops.append(Meas(mapped.hermitian_word(),
                                records, flip=mapped.hermitian_sign() < 0))
                user_records.append(records)
                records += 1
        elif op == "R":
            for q in ins.targets:
                phys_z = PauliString.single(n, q, "Z")
                mapped = frame.heisenberg_map(phys_z)
                ops.append(Meas(mapped.hermitian_word(), records,
                                flip=mapped.hermitian_sign() < 0))
                phys_x = PauliString.single(n, q, "X")
                ops.append(CondPauli(frame.heisenberg_map(phys_x), records))
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
# Both passes move ops by adjacent swaps and test each swap many times, so
# every op's scheduling facts are computed once, kept in a list parallel to
# the op list and swapped along with it. The facts of an op are the tuple
# (kind, reads, write, paulis, support): its kind code below, the records it
# reads, the record it writes (or None), its Paulis as (x, z) bit pairs and
# the union of their supports as one mask.

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


def schedule_candidate(hir: HirProgram) -> HirProgram:
    """Pull measurements earlier and push rotations later via commuting swaps.

    A bubble stops before crossing a rotation/measurement that shares qubit
    support with the moved op (crossing such a commuting neighbour forfeits
    the contraction the move was after). Only reorders ops; each op's facts
    are computed once and travel with it.
    """
    ops = list(hir.ops)
    facts = [_facts(op) for op in ops]
    for i in range(len(ops)):
        moved = facts[i]
        if moved[0] == _MEAS:
            sup = moved[4]
            j = i
            while j > 0:
                prev = facts[j - 1]
                if prev[0] == _NOISE:
                    break  # entering a noise run splits its sampling block
                if prev[0] == _ROT and sup & prev[4]:
                    break
                if not _swappable(prev, moved):
                    break
                ops[j - 1], ops[j] = ops[j], ops[j - 1]
                facts[j - 1], facts[j] = moved, prev
                j -= 1
    for i in range(len(ops) - 1, -1, -1):
        moved = facts[i]
        if moved[0] == _ROT:
            sup = moved[4]
            j = i
            while j + 1 < len(ops):
                nxt = facts[j + 1]
                if (nxt[0] == _ROT or nxt[0] == _MEAS) and sup & nxt[4]:
                    break
                if not _swappable(moved, nxt):
                    break
                ops[j], ops[j + 1] = ops[j + 1], ops[j]
                facts[j], facts[j + 1] = nxt, moved
                j += 1
    return replace(hir, ops=ops)


def schedule_pass(hir: HirProgram) -> HirProgram:
    """:func:`schedule_candidate`, or ``hir`` itself if the backend's plans
    show a worse peak active dimension, then total active-array work."""
    from .backend import plan_schedule

    return plan_schedule(hir)[0]
