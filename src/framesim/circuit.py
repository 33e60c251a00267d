"""Circuit text format: parsing, validation, flattening.

Grammar (one instruction per line or ``;``-separated):

    NAME(arg, ...) target target ...
    REPEAT n { ... }
    # comment

Targets are decimal qubit indices, lookbacks ``rec[-k]`` (k >= 1), or, as an
extension used by flattened circuits, absolute records ``rec[r]`` (r >= 0).
Qubit indices, record numbers and REPEAT counts are ASCII digits only: no
sign (but the lookback's ``-``), underscore or other script's digits.

Parsing keeps, for the length of one call, a dict from each distinct
statement text to its validated opcode, targets and arguments, so a
statement repeated on many lines is parsed once. Flattening expands REPEAT
blocks in textual order and rewrites lookbacks to absolute measurement
indices; an instruction without record targets is immutable and needs no
rewrite, so the flat circuit shares it with its input.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Union

CLIFFORD_1Q = ("H", "S", "S_DAG", "X", "Y", "Z")
CLIFFORD_2Q = ("CX", "CZ", "SWAP")
ROTATIONS = ("T", "T_DAG", "R_X", "R_Y", "R_Z")
MEASUREMENTS = ("M", "MX", "MY")
NOISE_1Q = ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1")
NOISE_2Q = ("DEPOLARIZE2",)
ANNOTATIONS = ("DETECTOR", "OBSERVABLE_INCLUDE", "TICK", "QUBIT_COORDS", "POSTSELECT")

OPCODES = frozenset(CLIFFORD_1Q + CLIFFORD_2Q + ROTATIONS + MEASUREMENTS
                    + NOISE_1Q + NOISE_2Q + ANNOTATIONS + ("R",))

# Size limits checked before flattening allocates anything. Compile time
# grows with qubits times targets, so one stray index (``H 2047``) already
# costs seconds; the target limit keeps flatten and compile within about a
# gigabyte, whatever the REPEAT counts.
MAX_QUBITS = 2048
MAX_TARGETS = 1 << 20  # flattened targets; an instruction without any counts one

# the opcodes that take arguments; every other opcode takes none, apart
# from the coordinates and the optional bit that _validate admits
_ARG_COUNT = {"R_X": 1, "R_Y": 1, "R_Z": 1, "X_ERROR": 1, "Y_ERROR": 1,
              "Z_ERROR": 1, "DEPOLARIZE1": 1, "DEPOLARIZE2": 1,
              "OBSERVABLE_INCLUDE": 1}


class CircuitError(ValueError):
    """Parse or validation failure, carrying a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class Rec:
    """Measurement record target: negative = lookback, non-negative = absolute."""

    value: int

    def __str__(self) -> str:
        return f"rec[{self.value}]"


Target = Union[int, Rec]


@dataclass(frozen=True, init=False)
class Instruction:
    """One statement. Equality, hashing and the refusal of attribute writes
    are the frozen dataclass's; ``__init__`` fills the instance dict
    directly, since the generated one calls ``object.__setattr__`` per
    field and costs about twice as much."""

    opcode: str
    targets: tuple[Target, ...] = ()
    args: tuple[float, ...] = ()
    line: int = 0

    def __init__(self, opcode: str, targets: tuple = (), args: tuple = (), line: int = 0):
        d = self.__dict__
        d["opcode"] = opcode
        d["targets"] = targets
        d["args"] = args
        d["line"] = line

    def __str__(self) -> str:
        s = self.opcode
        if self.args:
            s += "(" + ", ".join(_fmt_arg(a) for a in self.args) + ")"
        for t in self.targets:
            s += f" {t}"
        return s


@dataclass(frozen=True)
class RepeatBlock:
    count: int
    body: "Circuit"
    line: int = 0


@dataclass
class Circuit:
    """Ordered instruction list; qubit_count is inferred (max target + 1)."""

    instructions: list = field(default_factory=list)
    # (instructions covered, their qubit count), as ``parse_circuit`` or
    # ``flatten`` left it
    _counted: tuple = field(default=(0, 0), init=False, repr=False, compare=False)

    @property
    def qubit_count(self) -> int:
        """One more than the largest qubit target. ``parse_circuit`` and
        ``flatten`` store on their output the count together with the number
        of instructions it covers, so only instructions appended since are
        walked; an instruction replaced in place, or one added to a REPEAT
        body, is not seen until :func:`check_circuit` recounts them."""
        counted, best = self._counted
        if counted > len(self.instructions):
            counted = best = 0
        for ins in islice(self.instructions, counted, None):
            if isinstance(ins, RepeatBlock):
                best = max(best, ins.body.qubit_count)
            else:
                for t in ins.targets:
                    if isinstance(t, int) and t >= best:
                        best = t + 1
        return best

    def __len__(self) -> int:
        return len(self.instructions)

    def serialize(self) -> str:
        lines: list[str] = []
        _serialize_into(self, lines, indent=0)
        return "\n".join(lines) + ("\n" if lines else "")

    def __str__(self) -> str:
        return self.serialize()


def _fmt_arg(a: float) -> str:
    if a == int(a) and abs(a) < 1e15:
        return str(int(a))
    return repr(a)


def _serialize_into(circuit: Circuit, lines: list[str], indent: int) -> None:
    pad = "    " * indent
    for ins in circuit.instructions:
        if isinstance(ins, RepeatBlock):
            lines.append(f"{pad}REPEAT {ins.count} {{")
            _serialize_into(ins.body, lines, indent + 1)
            lines.append(pad + "}")
        else:
            lines.append(pad + str(ins))


def _is_decimal(text: str) -> bool:
    """True for one or more ASCII digits and nothing else: ``int`` alone also
    takes signs, underscores and non-ASCII digits."""
    return text.isdigit() and text.isascii()


def _parse_target(tok: str, line: int) -> Target:
    if _is_decimal(tok):
        return int(tok)
    if tok.startswith("rec["):
        inner = tok[4:-1]
        if not tok.endswith("]") or not _is_decimal(inner.removeprefix("-")):
            raise CircuitError(f"malformed record target {tok!r}", line)
        v = int(inner)
        if inner.startswith("-") and v == 0:
            raise CircuitError("lookback must be >= 1", line)
        return Rec(v)
    if tok.startswith("-") and _is_decimal(tok[1:]):
        raise CircuitError(f"negative qubit index {tok}", line)
    raise CircuitError(f"malformed target {tok!r}", line)


_NOISE = frozenset(NOISE_1Q + NOISE_2Q)
_PAIRED = frozenset(CLIFFORD_2Q)
_NEEDS_QUBIT = frozenset(CLIFFORD_1Q + ROTATIONS + MEASUREMENTS + NOISE_1Q + ("R",)) - {"X", "Z"}


def _validate(ins: Instruction) -> None:
    op, line = ins.opcode, ins.line
    if op == "POSTSELECT":
        if len(ins.args) > 1:
            raise CircuitError(f"POSTSELECT takes at most 1 argument, got {len(ins.args)}",
                               line)
        if ins.args and ins.args[0] not in (0.0, 1.0):
            raise CircuitError("POSTSELECT argument must be 0 or 1", line)
    elif op not in ("DETECTOR", "QUBIT_COORDS"):  # coordinates, ignored as in Stim
        # no other opcode reads an argument it is not listed with, so one
        # given would be dropped in silence: M(0.01) would sample no noise
        want = _ARG_COUNT.get(op, 0)
        if len(ins.args) != want:
            raise CircuitError(f"{op} takes {want} argument(s), got {len(ins.args)}", line)
    if op in _NOISE:
        p = ins.args[0]
        if not 0.0 <= p <= 1.0:
            raise CircuitError(f"{op} probability {p} outside [0, 1]", line)
    if op == "OBSERVABLE_INCLUDE":
        if ins.args[0] < 0 or ins.args[0] != int(ins.args[0]):
            raise CircuitError("observable index must be a non-negative integer", line)
        # every shot holds a byte for each observable up to the highest index
        if ins.args[0] >= MAX_TARGETS:
            raise CircuitError(f"observable index {int(ins.args[0])} is past the limit of "
                               f"{MAX_TARGETS} observables", line)
    qubit_targets = [t for t in ins.targets if isinstance(t, int)]
    rec_targets = len(qubit_targets) < len(ins.targets)
    if op in _PAIRED:
        # classical control form: CX/CZ rec[-k] q (pairwise)
        if len(ins.targets) % 2:
            raise CircuitError(f"{op} expects target pairs", line)
        for a, b in zip(ins.targets[::2], ins.targets[1::2]):
            if isinstance(b, Rec):
                raise CircuitError(f"{op} second of pair must be a qubit", line)
            if isinstance(a, Rec) and op == "SWAP":
                raise CircuitError("SWAP does not take record controls", line)
            if isinstance(a, int) and isinstance(b, int) and a == b:
                raise CircuitError(f"{op} needs distinct qubits, got {a} {a}", line)
    elif op == "DEPOLARIZE2":
        if rec_targets or len(ins.targets) % 2:
            raise CircuitError("DEPOLARIZE2 expects qubit pairs", line)
        for a, b in zip(ins.targets[::2], ins.targets[1::2]):
            if a == b:
                raise CircuitError("DEPOLARIZE2 needs distinct qubits", line)
    elif op in ("DETECTOR", "POSTSELECT"):
        if qubit_targets:
            raise CircuitError(f"{op} targets must be records", line)
        if op == "POSTSELECT" and not rec_targets:
            raise CircuitError("POSTSELECT needs at least one record target", line)
    elif op == "OBSERVABLE_INCLUDE":
        if qubit_targets:
            raise CircuitError("OBSERVABLE_INCLUDE targets must be records", line)
    elif op in ("X", "Z"):
        # plain Pauli gates, or classically controlled (rec, qubit) pairs
        if rec_targets:
            if len(ins.targets) % 2:
                raise CircuitError(f"classical {op} expects (rec, qubit) pairs", line)
            for ctrl, tgt in zip(ins.targets[::2], ins.targets[1::2]):
                if not isinstance(ctrl, Rec) or not isinstance(tgt, int):
                    raise CircuitError(f"classical {op} expects (rec, qubit) pairs", line)
    elif rec_targets:
        raise CircuitError(f"{op} does not take record targets", line)
    if op in _NEEDS_QUBIT and not qubit_targets:
        raise CircuitError(f"{op} needs at least one qubit target", line)


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text; raises :class:`CircuitError` with line numbers.

    Each distinct statement text is parsed and validated once per call, the
    first time it occurs, so an invalid statement is reported at its first
    line. A dict local to the call keeps the statement's opcode, targets and
    arguments, and each later occurrence costs one lookup and one
    :class:`Instruction` carrying its own line. A raw line that holds one
    plain statement (no ``#``, ``;``, ``{`` or ``}``) is kept in a second
    such dict, so a repeated line is not split or stripped again. The qubit
    count is found along the way and stored on the result.
    """
    root = Circuit()
    stack: list[Circuit] = [root]
    body = root.instructions
    parsed: dict[str, tuple] = {}  # statement text -> (opcode, targets, args)
    plain: dict[str, tuple] = {}   # raw line of one plain statement -> the same
    qubits = 0
    lines = text.splitlines()

    for lineno, raw in enumerate(lines, start=1):
        fields = plain.get(raw)
        if fields is not None:
            op, targets, args = fields
            body.append(Instruction(op, targets, args, lineno))
            continue
        for chunk in raw.split("#", 1)[0].split(";"):
            stmt = chunk.strip()
            while stmt:
                if stmt[0] == "}":
                    if len(stack) == 1:
                        raise CircuitError("unmatched '}'", lineno)
                    stack.pop()
                    body = stack[-1].instructions
                    stmt = stmt[1:].strip()
                    continue
                if stmt[:6].upper() == "REPEAT":
                    rest = stmt[6:].strip()
                    if "{" not in rest:
                        raise CircuitError("REPEAT needs '{'", lineno)
                    count_str, after = rest.split("{", 1)
                    count_str = count_str.strip()
                    if not _is_decimal(count_str):
                        raise CircuitError(f"bad REPEAT count {count_str!r}", lineno)
                    count = int(count_str)
                    if count < 1:
                        raise CircuitError(f"REPEAT count must be >= 1, got {count}", lineno)
                    block = Circuit()
                    body.append(RepeatBlock(count, block, lineno))
                    stack.append(block)
                    body = block.instructions
                    stmt = after.strip()
                    continue
                # ordinary instruction; may be terminated by '}' on same line
                brace = stmt.find("}")
                if brace >= 0:
                    ins_text, stmt = stmt[:brace].strip(), stmt[brace:]
                else:
                    ins_text, stmt = stmt, ""
                fields = parsed.get(ins_text)
                if fields is None:
                    ins = _parse_instruction(ins_text, lineno)
                    fields = parsed[ins_text] = (ins.opcode, ins.targets, ins.args)
                    for t in ins.targets:
                        if type(t) is int and t >= qubits:
                            qubits = t + 1
                    body.append(ins)
                else:
                    body.append(Instruction(*fields, lineno))
        if fields is not None and not ("#" in raw or ";" in raw or "{" in raw or "}" in raw):
            plain[raw] = fields

    if len(stack) != 1:
        raise CircuitError("unclosed REPEAT block", len(lines))
    root._counted = (len(root.instructions), qubits)
    return root


def _parse_instruction(stmt: str, lineno: int) -> Instruction:
    head = stmt.split(None, 1)
    name_part = head[0]
    rest = head[1] if len(head) > 1 else ""
    args: tuple[float, ...] = ()
    if "(" in name_part:
        if not name_part.endswith(")"):
            # arguments may contain spaces: "DEPOLARIZE1( 0.1 )"
            close = stmt.find(")")
            if close < 0:
                raise CircuitError("missing ')'", lineno)
            name_part = stmt[:close + 1]
            rest = stmt[close + 1:]
        name, arg_text = name_part.split("(", 1)
        arg_text = arg_text.rstrip(")").strip()
        if arg_text:
            try:
                # float() alone also takes underscores and non-ASCII digits
                if not arg_text.isascii() or "_" in arg_text:
                    raise ValueError
                args = tuple(float(a) for a in arg_text.split(","))
            except ValueError:
                raise CircuitError(f"malformed argument list ({arg_text!r})", lineno) from None
    else:
        name = name_part
    name = name.upper()
    if name not in OPCODES:
        raise CircuitError(f"unknown opcode {name!r}", lineno)
    for a in args:
        if math.isnan(a) or math.isinf(a):
            raise CircuitError(f"non-finite argument in {name}", lineno)
    targets = tuple(_parse_target(tok, lineno) for tok in rest.split())
    ins = Instruction(name, targets, args, lineno)
    _validate(ins)
    return ins


def check_circuit(circuit: Circuit) -> None:
    """Validate a circuit built in code as :func:`parse_circuit` validates
    text, raising :class:`CircuitError`: each distinct instruction object
    once, REPEAT bodies included, with a known opcode, finite arguments,
    and qubit targets that are ints >= 0 (records are :class:`Rec`). Each
    circuit's qubit count is recounted and stored, so an instruction
    replaced in place or added to a REPEAT body is counted."""
    seen: set = set()

    def walk(c: Circuit) -> int:
        qubits = 0
        for ins in c.instructions:
            if isinstance(ins, RepeatBlock):
                if type(ins.count) is not int or ins.count < 1:
                    raise CircuitError(f"REPEAT count must be an int >= 1, got {ins.count!r}",
                                       ins.line)
                qubits = max(qubits, walk(ins.body))
                continue
            if not isinstance(ins, Instruction):
                raise CircuitError(f"not an instruction: {ins!r}")
            if id(ins) not in seen:
                seen.add(id(ins))
                if ins.opcode not in OPCODES:
                    raise CircuitError(f"unknown opcode {ins.opcode!r}", ins.line)
                if not all(isinstance(a, (int, float)) and math.isfinite(a) for a in ins.args):
                    raise CircuitError(f"non-finite or non-numeric argument in {ins.opcode}",
                                       ins.line)
                for t in ins.targets:
                    if type(t) is Rec and type(t.value) is int:
                        continue
                    if type(t) is not int or t < 0:
                        raise CircuitError(f"{ins.opcode} target {t!r} is neither a qubit "
                                           "index >= 0 nor a record", ins.line)
                _validate(ins)
            for t in ins.targets:
                if type(t) is int and t >= qubits:
                    qubits = t + 1
        c._counted = (len(c.instructions), qubits)
        return qubits

    walk(circuit)


def flatten(circuit: Circuit) -> Circuit:
    """Expand REPEAT blocks and resolve lookbacks to absolute record indices.

    Idempotent; raises on lookbacks that reach past the records produced so
    far and on absolute records not yet produced. Detector / observable /
    postselect record references are resolved the same way as classical
    controls. Instructions are immutable, so one without record targets is
    shared with the input, as often as its REPEAT blocks repeat it; only
    instructions with record targets are rebuilt. Whether a target tuple
    holds records, and how many qubits it names, is found once per tuple
    object: the parser shares one among the occurrences of a statement. A
    circuit over more than ``MAX_QUBITS`` qubits or ``MAX_TARGETS``
    flattened targets is refused before anything is expanded.
    """
    n = circuit.qubit_count
    if n > MAX_QUBITS:
        raise CircuitError(f"circuit uses {n} qubits; the limit is {MAX_QUBITS}")
    size = _flat_targets(circuit)
    if size > MAX_TARGETS:
        raise CircuitError(f"circuit flattens to {size} targets; the limit is {MAX_TARGETS}")
    out = Circuit()
    _flatten_into(circuit, out.instructions, 0, {})
    out._counted = (len(out.instructions), n)
    return out


_MEASURING = frozenset(MEASUREMENTS)


def _flatten_into(circuit: Circuit, out: list, record_count: int, seen: dict) -> int:
    """Append ``circuit`` flattened to ``out``, after ``record_count``
    records, and return the record count after it. ``seen`` maps the id of
    each target tuple met so far to whether it holds a record and how many
    qubit targets it has; the input holds every such tuple until the
    flatten returns, so no id is reused meanwhile."""
    append = out.append
    for ins in circuit.instructions:
        if isinstance(ins, RepeatBlock):
            for _ in range(ins.count):
                record_count = _flatten_into(ins.body, out, record_count, seen)
            continue
        targets = ins.targets
        facts = seen.get(id(targets))
        if facts is None:
            facts = seen[id(targets)] = (Rec in map(type, targets),
                                         sum(isinstance(t, int) for t in targets))
        if facts[0]:
            ins = _resolve_records(ins, record_count)
        append(ins)
        if ins.opcode in _MEASURING:
            record_count += facts[1]
    return record_count


def _resolve_records(ins: Instruction, record_count: int) -> Instruction:
    """``ins`` with its lookbacks made absolute, after ``record_count``
    records; ``ins`` itself if all its records are absolute already."""
    targets = []
    changed = False
    for t in ins.targets:
        if isinstance(t, Rec):
            v = t.value
            if v < 0:
                if record_count + v < 0:
                    raise CircuitError(f"lookback rec[{v}] reaches before any record", ins.line)
                t = Rec(record_count + v)
                changed = True
            elif v >= record_count:
                raise CircuitError(f"absolute record rec[{v}] not yet produced", ins.line)
        targets.append(t)
    return Instruction(ins.opcode, tuple(targets), ins.args, ins.line) if changed else ins


def _flat_targets(circuit: Circuit) -> int:
    """Flattened targets, counting an instruction without targets as one."""
    total = 0
    for ins in circuit.instructions:
        if isinstance(ins, RepeatBlock):
            total += ins.count * _flat_targets(ins.body)
        else:
            total += len(ins.targets) or 1
    return total
