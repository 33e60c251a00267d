"""Parser, validator, and flattener behavior."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesim.backend import compile_circuit
from framesim.circuit import (
    Circuit,
    CircuitError,
    Instruction,
    Rec,
    RepeatBlock,
    flatten,
    parse_circuit,
)

MIRROR_TEXT = """\
H 0
T 0
T 0
T 0
CX 0 1
DEPOLARIZE1(0.001) 0 1
CX 0 1
T_DAG 0
H 0
M 0 1
"""


def test_parse_mirror_circuit():
    c = parse_circuit(MIRROR_TEXT)
    assert len(c) == 10
    assert c.qubit_count == 2
    assert c.instructions[5].opcode == "DEPOLARIZE1"
    assert c.instructions[5].args == (0.001,)
    assert c.instructions[9].targets == (0, 1)


def test_parse_empty():
    c = parse_circuit("")
    assert len(c) == 0
    assert c.qubit_count == 0


def test_parse_repeat_flattens():
    c = flatten(parse_circuit("REPEAT 3 { X 0 }"))
    assert [i.opcode for i in c.instructions] == ["X", "X", "X"]


def test_parse_comments_and_semicolons():
    c = parse_circuit("H 0  # prepare\nT 0; T 0\n")
    assert [i.opcode for i in c.instructions] == ["H", "T", "T"]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(CircuitError, match="line 2"):
        parse_circuit("H 0\nBADOP 1\n")
    with pytest.raises(CircuitError, match="unknown opcode"):
        parse_circuit("FOO 0")
    with pytest.raises(CircuitError, match="negative"):
        parse_circuit("H -1")
    with pytest.raises(CircuitError, match="malformed"):
        parse_circuit("H zero")
    with pytest.raises(CircuitError, match="argument"):
        parse_circuit("DEPOLARIZE1(a) 0")


def test_probability_validation():
    with pytest.raises(CircuitError, match="outside"):
        parse_circuit("X_ERROR(1.5) 0")
    with pytest.raises(CircuitError, match="outside"):
        parse_circuit("DEPOLARIZE1(-0.1) 0")
    # uniform-limit depolarizing up to 1 is allowed
    parse_circuit("DEPOLARIZE1(0.9) 0")


def test_repeat_validation():
    with pytest.raises(CircuitError, match="count"):
        parse_circuit("REPEAT 0 { X 0 }")
    with pytest.raises(CircuitError, match="unclosed"):
        parse_circuit("REPEAT 2 { X 0")
    with pytest.raises(CircuitError, match="unmatched"):
        parse_circuit("}")


def test_rec_targets():
    c = parse_circuit("M 0\nCX rec[-1] 1\n")
    assert c.instructions[1].targets[0] == Rec(-1)
    with pytest.raises(CircuitError, match="lookback must be >= 1"):
        parse_circuit("CX rec[-0] 1")
    # absolute records are accepted syntax but must already exist at flatten
    with pytest.raises(CircuitError, match="not yet produced"):
        flatten(parse_circuit("CX rec[0] 1"))


def test_flatten_identity_on_flat_circuit():
    c = parse_circuit(MIRROR_TEXT)
    f = flatten(c)
    assert [str(i) for i in f.instructions] == [str(i) for i in c.instructions]


def test_flatten_resolves_lookbacks():
    c = parse_circuit("REPEAT 2 { M 0; CX rec[-1] 1 }")
    f = flatten(c)
    assert f.instructions[1].targets[0] == Rec(0)
    assert f.instructions[3].targets[0] == Rec(2 - 1)


def test_flatten_nested_repeat():
    c = parse_circuit("REPEAT 2 { REPEAT 2 { X 0 } }")
    f = flatten(c)
    assert [i.opcode for i in f.instructions] == ["X"] * 4


def test_flatten_idempotent():
    c = parse_circuit("REPEAT 2 { M 0; CX rec[-1] 1 }\nDETECTOR rec[-1]")
    f = flatten(c)
    assert flatten(f).serialize() == f.serialize()


def test_flatten_lookback_out_of_range():
    with pytest.raises(CircuitError, match="lookback"):
        flatten(parse_circuit("M 0\nCX rec[-2] 1"))


def test_instruction_count_formula():
    c = parse_circuit("H 0\nREPEAT 3 { X 0; REPEAT 2 { Z 1 } }\nM 0")
    assert len(flatten(c)) == 11


def test_roundtrip_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(25):
        c = _random_circuit_text(rng)
        p1 = parse_circuit(c)
        p2 = parse_circuit(p1.serialize())
        assert p1.serialize() == p2.serialize()
        f = flatten(p1)
        assert parse_circuit(f.serialize()).serialize() == f.serialize()


def _random_circuit_text(rng) -> str:
    lines = []
    n = int(rng.integers(1, 5))
    measured = 0
    for _ in range(int(rng.integers(1, 20))):
        roll = rng.random()
        q = int(rng.integers(0, n))
        if roll < 0.4:
            g = str(rng.choice(["H", "S", "S_DAG", "X", "Y", "Z", "T", "T_DAG"]))
            lines.append(f"{g} {q}")
        elif roll < 0.55 and n > 1:
            q2 = int(rng.integers(0, n - 1))
            q2 = q2 + 1 if q2 >= q else q2
            lines.append(f"{str(rng.choice(['CX', 'CZ']))} {q} {q2}")
        elif roll < 0.7:
            lines.append(f"R_Z({float(rng.uniform(0, 3)):.3f}) {q}")
        elif roll < 0.8:
            lines.append(f"X_ERROR({float(rng.uniform(0, 0.2)):.4f}) {q}")
        elif roll < 0.9:
            lines.append(f"M {q}")
            measured += 1
        elif measured:
            lines.append(f"DETECTOR rec[-{int(rng.integers(1, measured + 1))}]")
    return "\n".join(lines) + "\n"


def test_qubit_coords_accepted_and_ignored():
    c = parse_circuit("QUBIT_COORDS(0, 1) 0\nH 0\n")
    assert c.instructions[0].opcode == "QUBIT_COORDS"


def test_detector_with_coordinate_args():
    c = parse_circuit("M 0\nDETECTOR(1, 2) rec[-1]")
    assert c.instructions[1].args == (1.0, 2.0)


def test_postselect_forms():
    c = parse_circuit("M 0\nPOSTSELECT rec[-1]\nM 1\nPOSTSELECT(1) rec[-1]")
    assert c.instructions[1].args == ()
    assert c.instructions[3].args == (1.0,)
    with pytest.raises(CircuitError):
        parse_circuit("POSTSELECT 0")


# one malformed line per raise site of the parser and validator; the bad
# statement sits on the line the error must name
@pytest.mark.parametrize("text, line", [
    ("H 0\nCX rec[-1 0", 2),                     # record target without ']'
    ("H 0\nCX rec[x] 0", 2),                     # record target not an integer
    ("M 0\nCX rec[-0] 1", 2),                    # lookback of zero
    ("H 0\nH q", 2),                             # qubit target not an integer
    ("H 0\nH -3", 2),                            # negative qubit
    ("H 0\nX_ERROR 0", 2),                       # missing probability argument
    ("H 0\nDEPOLARIZE2(1.5) 0 1", 2),            # probability above one
    ("M 0\nPOSTSELECT(2) rec[-1]", 2),           # postselect value not 0 or 1
    ("M 0\nOBSERVABLE_INCLUDE(0.5) rec[-1]", 2),  # fractional observable index
    ("H 0\nCX 0 1 2", 2),                        # odd target count
    ("M 0\nCZ 0 rec[-1]", 2),                    # record as the second of a pair
    ("M 0\nSWAP rec[-1] 0", 2),                  # record control on SWAP
    ("H 0\nCZ 1 1", 2),                          # repeated qubit in a pair
    ("H 0\nDEPOLARIZE2(0.1) 0 1 2", 2),          # odd qubit count
    ("H 0\nDEPOLARIZE2(0.1) 2 2", 2),            # repeated qubit in a pair
    ("M 0\nDETECTOR 0", 2),                      # qubit target on a detector
    ("M 0\nPOSTSELECT", 2),                      # postselect without a record
    ("M 0\nOBSERVABLE_INCLUDE(0) 1", 2),         # qubit target on an observable
    ("M 0\nX rec[-1]", 2),                       # classical X without its qubit
    ("M 0\nZ 0 rec[-1]", 2),                     # classical Z pair out of order
    ("M 0\nMX rec[-1]", 2),                      # record target on a measurement
    ("H 0\nR_Z(0.5)", 2),                        # rotation without a qubit
    ("H 0\n}", 2),                               # unmatched brace
    ("H 0\nREPEAT 3 H 0", 2),                    # REPEAT without '{'
    ("H 0\nREPEAT three { H 0 }", 2),            # REPEAT count not an integer
    ("H 0\nREPEAT -1 { H 0 }", 2),               # REPEAT count below one
    ("H 0\nREPEAT 2 {\nH 0", 3),                 # unclosed REPEAT: the last line
    ("H 0\nR_X(0.5 0", 2),                       # missing ')'
    ("H 0\nR_X(0.5, x) 0", 2),                   # argument not a number
    ("H 0\nCNOT 0 1", 2),                        # unknown opcode
    ("H 0\nR_Y(inf) 0", 2),                      # non-finite argument
    ("H 0\nM(0.01) 0", 2),                       # argument on an opcode that takes none
    ("H 0\nCX(0.2) 0 1", 2),
    ("H 0\nTICK(1)", 2),
    ("M 0\nPOSTSELECT(0, 1) rec[-1]", 2),        # postselect with two arguments
])
def test_parse_error_names_its_line(text, line):
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


def test_nested_repeat_serialize_round_trip():
    text = "H 0\nREPEAT 2 {\n    M 0\n    REPEAT 3 {\n        CX rec[-1] 4\n        X_ERROR(0.25) 6\n    }\n}\nM 4\n"
    c = parse_circuit(text)
    assert c.serialize() == text
    assert parse_circuit(c.serialize()).serialize() == text
    assert c.qubit_count == 7 == flatten(c).qubit_count


def test_size_limits_refuse_before_flattening(monkeypatch, tmp_path, capsys):
    import framesim.circuit
    from framesim.backend import compile_circuit
    from framesim.cli import main
    from framesim.testing import crosscheck

    monkeypatch.setattr(framesim.circuit, "MAX_QUBITS", 4)
    monkeypatch.setattr(framesim.circuit, "MAX_TARGETS", 24)
    # at the limits: 4 qubits, 1 + 10 * 2 + 3 = 24 targets
    ok = parse_circuit("H 3\nREPEAT 10 { CX 0 1 }\nM 0 1 2\n")
    assert len(flatten(ok)) == 12
    assert crosscheck(ok)["records_match"]
    too_wide = "H 4\nM 0\n"
    too_long = "H 3\nREPEAT 10 { CX 0 1 }\nM 0 1 2 3\n"
    # a REPEAT count this large would need terabytes if it were expanded
    huge = "REPEAT 1000000000 { REPEAT 1000000000 { H 0 } }\n"
    for text, match in ((too_wide, "5 qubits"), (too_long, "25 targets"),
                        (huge, "targets")):
        with pytest.raises(CircuitError, match=match):
            flatten(parse_circuit(text))
        with pytest.raises(CircuitError, match=match):
            compile_circuit(text)
        with pytest.raises(CircuitError, match=match):
            crosscheck(parse_circuit(text))
        path = tmp_path / "c.txt"
        path.write_text(text)
        for argv in (["compile", str(path), "--emit", "hir"], ["compile", str(path)],
                     ["sample", str(path), "--shots", "2"]):
            assert main(argv) == 1
            assert "limit" in capsys.readouterr().err


def test_observable_index_past_the_limit_is_refused(tmp_path, capsys):
    from framesim.circuit import MAX_TARGETS
    from framesim.cli import main

    # parse only: a program with this many observables is never built
    text = "M 0\nOBSERVABLE_INCLUDE(4000000000) rec[-1]\n"
    with pytest.raises(CircuitError, match=f"limit of {MAX_TARGETS}") as err:
        parse_circuit(text)
    assert err.value.line == 2
    path = tmp_path / "c.txt"
    path.write_text(text)
    assert main(["sample", str(path), "--shots", "2"]) == 1
    assert "limit" in capsys.readouterr().err
    last = parse_circuit(f"M 0\nOBSERVABLE_INCLUDE({MAX_TARGETS - 1}) rec[-1]\n")
    assert last.instructions[1].args == (MAX_TARGETS - 1,)


_QUBIT = st.integers(0, 40)
_REC = st.integers(1, 9).map(lambda k: f"rec[-{k}]") | st.integers(0, 9).map(lambda r: f"rec[{r}]")
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_PAIRS = st.lists(st.tuples(_QUBIT, _QUBIT).filter(lambda ab: ab[0] != ab[1]),
                  min_size=1, max_size=3).map(lambda ps: [q for ab in ps for q in ab])


def _args(values) -> str:
    return "(" + ", ".join(repr(v) for v in values) + ")"


@st.composite
def _instruction_line(draw) -> str:
    kind = draw(st.sampled_from(["1q", "rot", "noise", "2q", "dep2", "cond", "detector",
                                 "observable", "postselect", "tick", "coords"]))
    if kind == "1q":
        name = draw(st.sampled_from(["H", "S", "S_DAG", "X", "Y", "Z", "T", "T_DAG",
                                     "M", "MX", "MY", "R"]))
        targets = draw(st.lists(_QUBIT, min_size=1, max_size=4))
    elif kind == "rot":
        name = draw(st.sampled_from(["R_X", "R_Y", "R_Z"])) + _args([draw(_FINITE)])
        targets = draw(st.lists(_QUBIT, min_size=1, max_size=3))
    elif kind == "noise":
        name = draw(st.sampled_from(["X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1"]))
        name += _args([draw(st.floats(0.0, 1.0))])
        targets = draw(st.lists(_QUBIT, min_size=1, max_size=3))
    elif kind == "2q":
        name, targets = draw(st.sampled_from(["CX", "CZ", "SWAP"])), draw(_PAIRS)
    elif kind == "dep2":
        name, targets = "DEPOLARIZE2" + _args([draw(st.floats(0.0, 1.0))]), draw(_PAIRS)
    elif kind == "cond":
        name = draw(st.sampled_from(["CX", "CZ", "X", "Z"]))
        targets = [t for _ in range(draw(st.integers(1, 2))) for t in (draw(_REC), draw(_QUBIT))]
    elif kind == "detector":
        name = "DETECTOR" + (_args(draw(st.lists(_FINITE, min_size=1, max_size=3)))
                             if draw(st.booleans()) else "")
        targets = draw(st.lists(_REC, max_size=3))
    elif kind == "observable":
        name = f"OBSERVABLE_INCLUDE({draw(st.integers(0, 5))})"
        targets = draw(st.lists(_REC, max_size=3))
    elif kind == "postselect":
        name = "POSTSELECT" + draw(st.sampled_from(["", "(0)", "(1)"]))
        targets = draw(st.lists(_REC, min_size=1, max_size=3))
    elif kind == "tick":
        name, targets = "TICK", []
    else:
        name = "QUBIT_COORDS" + _args(draw(st.lists(_FINITE, min_size=1, max_size=2)))
        targets = [draw(_QUBIT)]
    if draw(st.booleans()):
        name = name.lower()
    line = " ".join([name, *map(str, targets)])
    return line + ("  # note" if draw(st.booleans()) else "")


@st.composite
def _circuit_lines(draw, depth: int = 2) -> list:
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if depth and draw(st.integers(0, 4)) == 0:
            lines.append(f"REPEAT {draw(st.integers(1, 5))} {{")
            lines.extend("  " + line for line in draw(_circuit_lines(depth - 1)))
            lines.append("}")
        else:
            lines.append(draw(_instruction_line()))
    return lines


def _shape(circuit: Circuit) -> list:
    """The parsed structure without source line numbers."""
    return [("REPEAT", ins.count, _shape(ins.body)) if isinstance(ins, RepeatBlock)
            else (ins.opcode, ins.targets, ins.args) for ins in circuit.instructions]


@settings(max_examples=200, deadline=None)
@given(_circuit_lines())
def test_parse_serialize_parse_is_a_fixed_point(lines):
    first = parse_circuit("\n".join(lines) + "\n")
    text = first.serialize()
    second = parse_circuit(text)
    assert _shape(second) == _shape(first)
    assert second.serialize() == text


# numbers are ASCII decimal: int() and float() alone also take signs,
# underscores and other scripts' digits ("H ٣" would read as qubit 3)
@pytest.mark.parametrize("stmt", [
    "H 1_0",
    "H +3",
    "H -0",
    "H ٣",                # ARABIC-INDIC DIGIT THREE
    "H ²",                # SUPERSCRIPT TWO
    "M 0\nCX rec[+0] 1",
    "M 0\nCX rec[-1_0] 1",
    "M 0\nCX rec[١] 1",
    "M 0\nCX rec[--1] 1",
    "M 0\nCX rec[] 1",
    "REPEAT 1_0 {\nH 0\n}",
    "REPEAT +2 {\nH 0\n}",
    "REPEAT ٣ {\nH 0\n}",
    "R_X(0_5) 0",
    "R_X(٠.5) 0",
])
def test_numbers_must_be_ascii_decimal(stmt):
    first, *rest = stmt.split("\n")
    text = "\n".join(["H 0", first, *rest])
    line = 3 if first == "M 0" else 2
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert err.value.line == line


def test_ascii_decimal_forms_still_parse():
    c = parse_circuit("H 007\nM 0\nCX rec[-01] 10\nREPEAT 02 {\nR_X(-0.5e-1) 1\n}\n")
    assert c.instructions[0].targets == (7,)
    assert c.instructions[2].targets == (Rec(-1), 10)
    assert c.instructions[3].count == 2
    assert c.instructions[3].body.instructions[0].args == (-0.05,)


def test_repeated_statement_keeps_its_own_line():
    c = parse_circuit("H 0\nCX 0 1\nH 0\n\nH 0  # again\nCX 0 1; H 0\n")
    assert [(i.opcode, i.targets, i.line) for i in c.instructions] == [
        ("H", (0,), 1), ("CX", (0, 1), 2), ("H", (0,), 3),
        ("H", (0,), 5), ("CX", (0, 1), 6), ("H", (0,), 6)]


def test_repeated_invalid_statement_raises_at_its_first_line():
    text = "H 0\nM 0\nCZ 1 1\nH 0\nM 1\nX 2\nCZ 1 1\n"
    with pytest.raises(CircuitError) as err:
        parse_circuit(text)
    assert err.value.line == 3
    assert "distinct" in str(err.value)


def test_semicolons_braces_and_repeat_bodies_parse_as_statements():
    text = ("H 0; H 0 ;M 0\n"
            "REPEAT 2 { CX rec[-1] 1; H 0 }\n"
            "REPEAT 3 {\n"
            "  M 0; REPEAT 2 { H 0 } H 0 }  H 0\n"
            "M 0\n")
    c = parse_circuit(text)

    def shape(circuit):
        return [("REPEAT", ins.count, ins.line, shape(ins.body)) if isinstance(ins, RepeatBlock)
                else (ins.opcode, ins.targets, ins.line) for ins in circuit.instructions]

    assert shape(c) == [
        ("H", (0,), 1), ("H", (0,), 1), ("M", (0,), 1),
        ("REPEAT", 2, 2, [("CX", (Rec(-1), 1), 2), ("H", (0,), 2)]),
        ("REPEAT", 3, 3, [("M", (0,), 4), ("REPEAT", 2, 4, [("H", (0,), 4)]), ("H", (0,), 4)]),
        ("H", (0,), 4),
        ("M", (0,), 5),
    ]
    with pytest.raises(CircuitError, match="unmatched"):
        parse_circuit(text + "}\n")


def test_each_distinct_statement_is_parsed_once(monkeypatch):
    import framesim.circuit
    from framesim.testing import repetition_code_circuit

    text = repetition_code_circuit(25, 25, 1e-3).serialize()
    calls = []
    parse_one = framesim.circuit._parse_instruction

    def counting(stmt, lineno):
        calls.append(stmt)
        return parse_one(stmt, lineno)

    monkeypatch.setattr(framesim.circuit, "_parse_instruction", counting)
    c = parse_circuit(text)
    statements = [line.strip() for line in text.splitlines() if line.strip()]
    assert len(c) == len(statements) == 1901
    assert len(calls) == len(set(calls)) == len(set(statements)) == 125


def _shape(circuit):
    return [("REPEAT", ins.count, ins.line, _shape(ins.body)) if isinstance(ins, RepeatBlock)
            else (ins.opcode, ins.targets, ins.args, ins.line) for ins in circuit.instructions]


def test_repeated_raw_lines_parse_as_before():
    """A repeated raw line of one plain statement is looked up, not split
    again; repeated lines with a comment, a ``;``, surrounding whitespace, a
    ``}`` or a ``REPEAT`` parse as before. The reference is the same text
    with every line made distinct by a comment of its own."""
    lines = ["H 0", "H 0 # c", "H 0", "  H 0  ", "  H 0  ", "H 0; X 1", "H 0; X 1",
             "REPEAT 2 {", "M 0", "M 0", "}", "REPEAT 2 {", "M 0 }", "REPEAT 2 {", "M 0 }",
             "X_ERROR(0.1) 0 1", "X_ERROR(0.1) 0 1", "CX 0 1", "CX 0 1 ", "CX 0 1",
             "M 1; DETECTOR rec[-1]", "DETECTOR rec[-1]", "DETECTOR rec[-1]", "", "H 0"]
    text = "\n".join(lines) + "\n"
    distinct = "".join(f"{line} # {k}\n" for k, line in enumerate(lines))
    c = parse_circuit(text)
    assert _shape(c) == _shape(parse_circuit(distinct))
    assert _shape(flatten(c)) == _shape(flatten(parse_circuit(distinct)))
    assert [(ins.opcode, ins.line) for ins in c.instructions[:8]] == [
        ("H", 1), ("H", 2), ("H", 3), ("H", 4), ("H", 5), ("H", 6), ("X", 6), ("H", 7)]
    assert c.instructions[-1].line == 25
    # the parser stores the qubit count; an instruction appended later counts
    assert c.qubit_count == Circuit(list(c.instructions)).qubit_count == 2
    c.instructions.append(Instruction("H", (9,)))
    assert c.qubit_count == 10


def test_repeated_invalid_line_is_reported_at_its_first_line():
    with pytest.raises(CircuitError, match="unknown opcode") as err:
        parse_circuit("H 0\nNOPE 1\nH 0\nNOPE 1\n")
    assert err.value.line == 2
    # valid alone, but its lookback reaches before any record the first time
    with pytest.raises(CircuitError, match="before any record") as err:
        flatten(parse_circuit("M 0\nDETECTOR rec[-2]\nM 1\nDETECTOR rec[-2]\n"))
    assert err.value.line == 2


def test_flatten_shares_instructions_without_records():
    from framesim.testing import repetition_code_circuit

    c = parse_circuit(repetition_code_circuit(5, 3, 1e-3).serialize())
    f = flatten(c)
    assert len(f) == len(c)
    shared = [a is b for a, b in zip(c.instructions, f.instructions)]
    has_rec = [any(isinstance(t, Rec) for t in ins.targets) for ins in c.instructions]
    assert shared == [not r for r in has_rec]
    assert any(has_rec) and not all(has_rec)
    # a REPEAT body's instruction appears once per repetition, as one object
    f = flatten(parse_circuit("REPEAT 3 { H 0; M 0; DETECTOR rec[-1] }"))
    assert f.instructions[0] is f.instructions[3] is f.instructions[6]
    assert [ins.targets for ins in f.instructions[2::3]] == [(Rec(0),), (Rec(1),), (Rec(2),)]


def test_flatten_of_a_flat_circuit_is_equal_and_shared():
    c = parse_circuit("REPEAT 2 { M 0; CX rec[-1] 1 }\nDETECTOR rec[-1] rec[-2]\nX_ERROR(0.1) 0")
    f = flatten(c)
    again = flatten(f)
    assert again == f
    assert all(a is b for a, b in zip(again.instructions, f.instructions))
    assert again.qubit_count == f.qubit_count == 2


def test_flatten_refuses_absolute_records_not_yet_produced():
    with pytest.raises(CircuitError, match="not yet produced") as err:
        flatten(parse_circuit("M 0 1\nCX rec[1] 2\nDETECTOR rec[2]"))
    assert err.value.line == 3
    f = flatten(parse_circuit("M 0\nCX rec[-1] 1"))
    f.instructions.insert(0, Instruction("DETECTOR", (Rec(0),), (), 1))
    with pytest.raises(CircuitError, match=r"rec\[0\] not yet produced"):
        flatten(f)


@pytest.mark.parametrize("ins", [
    Instruction("M", (-1,)),
    Instruction("CX", (0,)),
    Instruction("R_Z", (0,)),
    Instruction("X_ERROR", (0,), (2.0,)),
    Instruction("H", (1.5,)),
    Instruction("NOT_AN_OP", (0,)),
    Instruction("R_Z", (0,), (float("nan"),)),
    Instruction("R_Z", (0,), ("0.3",)),
    "H 0",
    *(RepeatBlock(count, Circuit([Instruction("H", (0,))])) for count in (0, 2.5, True)),
])
def test_a_circuit_built_in_code_is_validated(ins):
    # compile_circuit validates a Circuit as the parser validates text, in a
    # REPEAT body too, once per distinct instruction object: an element that
    # is no instruction, a bad REPEAT count and a non-finite or non-numeric
    # argument are refused by name
    match = ("not an instruction" if isinstance(ins, str)
             else "REPEAT count" if isinstance(ins, RepeatBlock)
             else "non-finite or non-numeric" if ins.opcode == "R_Z" and ins.args else None)
    for circ in (Circuit([ins]), Circuit([RepeatBlock(2, Circuit([Instruction("H", (0,)), ins]))])):
        with pytest.raises(CircuitError, match=match):
            compile_circuit(circ)
    # with a valid instruction in its place, the REPEAT circuit compiles as its text
    valid = Circuit([RepeatBlock(2, Circuit([Instruction("H", (0,)), Instruction("T", (0,))]))])
    assert compile_circuit(valid).fingerprint() == \
        compile_circuit("REPEAT 2 {\nH 0\nT 0\n}\n").fingerprint()


def test_an_instruction_replaced_in_place_is_counted():
    # the parse counted one qubit; H 5 in place of H 0 makes six
    circ = parse_circuit("H 0\nM 0\n")
    assert circ.qubit_count == 1
    circ.instructions[0] = Instruction("H", (5,))
    prog = compile_circuit(circ)
    assert prog.n == 6 and circ.qubit_count == 6
