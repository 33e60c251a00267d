"""Pauli algebra and tableau checks against dense matrix oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framesim.pauli import (
    _INV_GATE,
    _LEFT_ROWS,
    CliffordTableau,
    PauliString,
    _conjugate_bits,
    frame_absorb,
    random_clifford_word,
    random_pauli,
)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

GATE_MATS = {"H": _H, "S": _S, "S_DAG": _S.conj().T, "X": _X, "Y": _Y, "Z": _Z,
             "CX": _CX, "CZ": _CZ, "SWAP": _SWAP}


def embed(mat: np.ndarray, targets, n: int) -> np.ndarray:
    """Dense n-qubit embedding of a 1- or 2-qubit gate (qubit 0 = leftmost)."""
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    for col in range(dim):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_col = 0
        for t in targets:
            sub_col = (sub_col << 1) | bits[t]
        for sub_row in range(2 ** k):
            amp = mat[sub_row, sub_col]
            if amp == 0:
                continue
            new_bits = list(bits)
            for i, t in enumerate(targets):
                new_bits[t] = (sub_row >> (k - 1 - i)) & 1
            row = 0
            for q in range(n):
                row = (row << 1) | new_bits[q]
            out[row, col] += amp
    return out


def word_to_dense(word, n: int, circuit_order: bool = True) -> np.ndarray:
    """Dense unitary of a gate word; circuit order means later gates multiply
    on the left (state evolution), otherwise on the right."""
    u = np.eye(2 ** n, dtype=complex)
    for gate, a, b in word:
        targets = (a,) if b is None else (a, b)
        g = embed(GATE_MATS[gate], targets, n)
        u = g @ u if circuit_order else u @ g
    return u


def test_mul_xz_is_minus_i_y():
    x = PauliString.single(1, 0, "X")
    z = PauliString.single(1, 0, "Z")
    prod = x.mul(z)
    assert prod.x == 1 and prod.z == 1
    assert prod.residual_phase() == 3
    assert str(prod) == "-iY"
    assert np.allclose(prod.to_dense(), -1j * _Y)


def test_mul_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = random_pauli(4, rng)
        ident = PauliString.identity(4)
        assert ident.mul(p) == p
        assert p.mul(ident) == p


def test_mul_matches_dense_kron():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        a = random_pauli(n, rng, allow_identity=True)
        b = random_pauli(n, rng, allow_identity=True)
        prod = a.mul(b)
        assert np.allclose(prod.to_dense(), a.to_dense() @ b.to_dense())


def test_mul_associative_and_adjoint():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        a, b, c = (random_pauli(n, rng) for _ in range(3))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))
        ab = a.mul(b)
        assert np.allclose(ab.adjoint().to_dense(), ab.to_dense().conj().T)


def test_mul_length_mismatch():
    with pytest.raises(ValueError):
        PauliString.identity(2).mul(PauliString.identity(3))


def test_commutes_basics():
    x = PauliString.single(1, 0, "X")
    z = PauliString.single(1, 0, "Z")
    assert not x.commutes_with(z)
    xx = PauliString.from_label("XX")
    zz = PauliString.from_label("ZZ")
    assert xx.commutes_with(zz)


def test_commutes_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        a = random_pauli(n, rng)
        b = random_pauli(n, rng)
        da, db = a.to_dense(), b.to_dense()
        dense_comm = np.allclose(da @ db, db @ da)
        assert a.commutes_with(b) == dense_comm


def test_hermitian_bookkeeping():
    y = PauliString.single(3, 1, "Y")
    assert y.is_hermitian() and y.hermitian_sign() == 1
    my = y.copy()
    my.phase_exp = (my.phase_exp + 2) & 3
    assert my.hermitian_sign() == -1
    iy = y.copy()
    iy.phase_exp = (iy.phase_exp + 1) & 3
    assert not iy.is_hermitian()


def test_label_roundtrip():
    rng = np.random.default_rng(19)
    for _ in range(30):
        p = random_pauli(5, rng)
        assert PauliString.from_label(str(p)) == p


def test_conjugate_gate_matches_dense():
    rng = np.random.default_rng(23)
    for _ in range(120):
        n = int(rng.integers(1, 4))
        p = random_pauli(n, rng, allow_identity=True)
        (gate, a, b), = random_clifford_word(n, 1, rng)
        q = p.copy()
        q.conjugate_gate(gate, a, b)
        targets = (a,) if b is None else (a, b)
        u = embed(GATE_MATS[gate], targets, n)
        assert np.allclose(q.to_dense(), u @ p.to_dense() @ u.conj().T)


def test_frame_absorb_h_textbook():
    t = CliffordTableau(1)
    frame_absorb(t, "H", [0])
    assert str(t.z_image(0)) == "+X"
    assert str(t.x_image(0)) == "+Z"


def test_frame_absorb_cx_textbook():
    t = CliffordTableau(2)
    frame_absorb(t, "CX", [0, 1])
    assert str(t.x_image(0)) == "+XX"
    assert str(t.z_image(1)) == "+ZZ"


def test_frame_absorb_rejects_non_clifford():
    t = CliffordTableau(1)
    with pytest.raises(ValueError):
        frame_absorb(t, "T", [0])


def test_frame_absorb_circuit_order_semantics():
    # For a circuit prefix g1 then g2, the mapped generator of a later op O
    # must satisfy: measuring U^dag O U on the pre-circuit state reproduces
    # measuring O on the evolved state. The Bell prefix pins the direction:
    # X0X1 is deterministic on the Bell state, so its virtual image must be
    # deterministic on |00>.
    t = CliffordTableau(2)
    frame_absorb(t, "H", [0])
    frame_absorb(t, "CX", [0, 1])
    mapped = t.heisenberg_map(PauliString.from_label("XX"))
    assert mapped.short_str() in ("+Z0", "-Z0")
    word = [("H", 0, None), ("CX", 0, 1)]
    u = word_to_dense(word, 2, circuit_order=True)
    p = PauliString.from_label("XX")
    assert np.allclose(mapped.to_dense(), u.conj().T @ p.to_dense() @ u)


def test_heisenberg_identity_tableau():
    rng = np.random.default_rng(29)
    t = CliffordTableau(4)
    for _ in range(10):
        p = random_pauli(4, rng)
        assert t.heisenberg_map(p) == p


def test_heisenberg_after_h_maps_z_to_x():
    t = CliffordTableau(2)
    frame_absorb(t, "H", [0])
    z0 = PauliString.single(2, 0, "Z")
    assert t.heisenberg_map(z0).short_str() == "+X0"


def test_maps_match_dense_conjugation():
    rng = np.random.default_rng(31)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        word = random_clifford_word(n, int(rng.integers(1, 12)), rng)
        t = CliffordTableau(n)
        for gate, a, b in word:
            t.absorb_right(gate, a, b)
        u = word_to_dense(word, n, circuit_order=False)
        for _ in range(4):
            p = random_pauli(n, rng)
            fwd = t.forward_map(p)
            inv = t.heisenberg_map(p)
            assert np.allclose(fwd.to_dense(), u @ p.to_dense() @ u.conj().T)
            assert np.allclose(inv.to_dense(), u.conj().T @ p.to_dense() @ u)


def test_absorb_left_matches_dense():
    rng = np.random.default_rng(37)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        word = random_clifford_word(n, 8, rng)
        t = CliffordTableau(n)
        u = np.eye(2 ** n, dtype=complex)
        for gate, a, b in word:
            t.absorb_left(gate, a, b)
            targets = (a,) if b is None else (a, b)
            u = embed(GATE_MATS[gate], targets, n) @ u
        p = random_pauli(n, rng)
        assert np.allclose(t.forward_map(p).to_dense(), u @ p.to_dense() @ u.conj().T)
        assert np.allclose(t.heisenberg_map(p).to_dense(), u.conj().T @ p.to_dense() @ u)


def test_map_inverse_map_roundtrip_exact():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        t = CliffordTableau(n)
        for gate, a, b in random_clifford_word(n, 20, rng):
            t.absorb_right(gate, a, b)
        p = random_pauli(n, rng)
        assert t.forward_map(t.heisenberg_map(p)) == p
        assert t.heisenberg_map(t.forward_map(p)) == p


def test_tableau_invariants_random_words():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        t = CliffordTableau(n)
        for gate, a, b in random_clifford_word(n, 25, rng):
            t.absorb_right(gate, a, b)
        assert t.check_symplectic()


def test_commutation_preserved_by_maps():
    rng = np.random.default_rng(47)
    t = CliffordTableau(5)
    for gate, a, b in random_clifford_word(5, 30, rng):
        t.absorb_right(gate, a, b)
    for _ in range(50):
        a = random_pauli(5, rng)
        b = random_pauli(5, rng)
        assert a.commutes_with(b) == t.heisenberg_map(a).commutes_with(t.heisenberg_map(b))


def test_absorb_rotation_right_matches_dense():
    rng = np.random.default_rng(53)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        word = random_clifford_word(n, 6, rng)
        t = CliffordTableau(n)
        u = np.eye(2 ** n, dtype=complex)
        for gate, a, b in word:
            t.absorb_right(gate, a, b)
            targets = (a,) if b is None else (a, b)
            u = u @ embed(GATE_MATS[gate], targets, n)
        gen = random_pauli(n, rng)
        m = int(rng.integers(1, 8))
        t.absorb_rotation_right(gen, m)
        g = gen.to_dense()
        w, v = np.linalg.eigh(g)
        c = v @ np.diag(np.exp(-1j * m * np.pi / 4 * w)) @ v.conj().T
        u = u @ c
        p = random_pauli(n, rng)
        assert np.allclose(t.forward_map(p).to_dense(), u @ p.to_dense() @ u.conj().T, atol=1e-9)
        assert np.allclose(t.heisenberg_map(p).to_dense(), u.conj().T @ p.to_dense() @ u, atol=1e-9)


def test_compose_and_inverse():
    rng = np.random.default_rng(59)
    n = 4
    ta, tb = CliffordTableau(n), CliffordTableau(n)
    for gate, a, b in random_clifford_word(n, 15, rng):
        ta.absorb_right(gate, a, b)
    for gate, a, b in random_clifford_word(n, 15, rng):
        tb.absorb_right(gate, a, b)
    tc = ta.compose(tb)
    for _ in range(10):
        p = random_pauli(n, rng)
        assert tc.forward_map(p) == ta.forward_map(tb.forward_map(p))
        assert tc.heisenberg_map(p) == tb.heisenberg_map(ta.heisenberg_map(p))
    ident = ta.compose(ta.inverse())
    assert ident.is_identity()


@pytest.mark.parametrize("n", [70, 130])
def test_int_tableau_past_one_machine_word(n):
    # rows span several 64-bit words; gates land on both sides of each boundary
    rng = np.random.default_rng(n)
    word = random_clifford_word(n, 400, rng)
    left, right = CliffordTableau(n), CliffordTableau(n)
    for gate, a, b in word:
        left.absorb_left(gate, a, b)
        right.absorb_right(gate, a, b)
    assert left.check_symplectic() and right.check_symplectic()
    paulis = [random_pauli(n, rng) for _ in range(12)]
    for t in (left, right):
        for p in paulis:
            assert t.forward_map(t.heisenberg_map(p)) == p
            assert t.heisenberg_map(t.forward_map(p)) == p
        for p, q in zip(paulis, paulis[1:]):
            for f in (t.forward_map, t.heisenberg_map):
                assert p.commutes_with(q) == f(p).commutes_with(f(q))
    for p in paulis:
        # left-absorbed U = G_L ... G_1 conjugates gate by gate in word order,
        # right-absorbed U = G_1 ... G_L in reverse order
        fwd, rev = p.copy(), p.copy()
        for gate, a, b in word:
            fwd.conjugate_gate(gate, a, b)
        for gate, a, b in reversed(word):
            rev.conjugate_gate(gate, a, b)
        assert left.forward_map(p) == fwd
        assert right.forward_map(p) == rev


def _forward_map_by_rows(t: CliffordTableau, p: PauliString) -> PauliString:
    """The row-by-row forward map: one commutation parity per inverse row."""
    qx = qz = 0
    for c, ((xx, xz, _), (zx, zz, _)) in enumerate(zip(t.ix, t.iz)):
        if ((p.x & zz) ^ (p.z & zx)).bit_count() & 1:
            qx |= 1 << c
        if ((p.x & xz) ^ (p.z & xx)).bit_count() & 1:
            qz |= 1 << c
    return PauliString(t.n, qx, qz, p.phase_exp - t._map(qx, qz, 0)[2])


def _draw_pauli(data, n: int) -> PauliString:
    p = PauliString(n, data.draw(st.integers(0, 2 ** n - 1)), data.draw(st.integers(0, 2 ** n - 1)))
    p.phase_exp = (p.y_count() + 2 * data.draw(st.integers(0, 1))) & 3
    return p


def _draw_gate(data, n: int) -> tuple:
    if n >= 2 and data.draw(st.booleans()):
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return data.draw(st.sampled_from(["CX", "CZ", "SWAP"])), a, b
    return data.draw(st.sampled_from(["H", "S", "S_DAG", "X", "Y", "Z"])), data.draw(
        st.integers(0, n - 1)), None


def _rotation_dense(p: PauliString, m: int) -> np.ndarray:
    w, v = np.linalg.eigh(p.to_dense())
    return v @ np.diag(np.exp(-1j * m * np.pi / 4 * w)) @ v.conj().T


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_forward_map_matches_row_parities_property(data):
    """Every mutator keeps the transposed rows in step: after each step of a
    random sequence, forward_map equals the row-by-row parities, and for
    n <= 3 the dense conjugation by a unitary tracked alongside."""
    n = data.draw(st.integers(1, 3) | st.integers(4, 70))
    t = CliffordTableau(n)
    dense = n <= 3
    u = np.eye(2 ** n, dtype=complex) if dense else None
    steps = data.draw(st.lists(st.sampled_from(
        ["left", "right", "rotation", "copy", "compose", "inverse", "probe"]), max_size=25))
    for step in steps + ["probe"]:
        if step == "left":
            gate, a, b = _draw_gate(data, n)
            t.absorb_left(gate, a, b)
            if dense:
                u = embed(GATE_MATS[gate], (a,) if b is None else (a, b), n) @ u
        elif step == "right":
            gate, a, b = _draw_gate(data, n)
            t.absorb_right(gate, a, b)
            if dense:
                u = u @ embed(GATE_MATS[gate], (a,) if b is None else (a, b), n)
        elif step == "rotation":
            p, m = _draw_pauli(data, n), data.draw(st.integers(0, 7))
            t.absorb_rotation_right(p, m)
            if dense:
                u = u @ _rotation_dense(p, m)
        elif step == "copy":
            # the copy owns its rows and columns: writing to it leaves t alone
            twin = t.copy()
            gate, a, b = _draw_gate(data, n)
            twin.absorb_left(gate, a, b)
            p = _draw_pauli(data, n)
            assert twin.forward_map(p) == _forward_map_by_rows(twin, p)
        elif step == "compose":
            other = CliffordTableau(n)
            v = np.eye(2 ** n, dtype=complex) if dense else None
            for _ in range(data.draw(st.integers(0, 4))):
                gate, a, b = _draw_gate(data, n)
                other.absorb_left(gate, a, b)
                if dense:
                    v = embed(GATE_MATS[gate], (a,) if b is None else (a, b), n) @ v
            if data.draw(st.booleans()):
                other.forward_map(PauliString(n))  # build other's columns first
            t = t.compose(other)
            if dense:
                u = u @ v
        elif step == "inverse":
            t = t.inverse()
            if dense:
                u = u.conj().T
        else:
            p = _draw_pauli(data, n)
            got = t.forward_map(p)
            assert got == _forward_map_by_rows(t, p)
            if dense:
                assert np.allclose(got.to_dense(), u @ p.to_dense() @ u.conj().T, atol=1e-9)
    for j in range(n):
        assert t.x_image(j) == _forward_map_by_rows(t, PauliString.single(n, j, "X"))
        assert t.z_image(j) == _forward_map_by_rows(t, PauliString.single(n, j, "Z"))



def _absorb_left_generic(t: CliffordTableau, gate: str, a: int, b: int | None = None) -> None:
    """The generic conjugation path ``absorb_left`` replaced: every row of
    G's qubits, changed or not, is ``_map`` of the named-gate conjugation
    ``G^dag P G`` of its generator."""
    inv = _INV_GATE.get(gate, gate)
    new = []
    for q in ((a,) if b is None else (a, b)):
        bit = 1 << q
        new.append((False, q, t._map(*_conjugate_bits(inv, a, b, bit, 0, 0))))
        new.append((True, q, t._map(*_conjugate_bits(inv, a, b, 0, bit, 0))))
    t._write_rows(new)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_absorb_left_matches_generic_conjugation_property(data):
    """For a random tableau and every gate, the per-gate row table gives the
    rows, phases included, and the column bits (when built) of the generic
    conjugation path; a one-qubit Pauli's image is its row."""
    n = data.draw(st.integers(2, 6) | st.integers(7, 70))
    t = CliffordTableau(n)
    for _ in range(data.draw(st.integers(0, 30))):
        gate, a, b = _draw_gate(data, n)
        t.absorb_right(gate, a, b)
    if data.draw(st.booleans()):
        t._columns()
    for gate in ("H", "S", "S_DAG", "X", "Y", "Z", "CX", "CZ", "SWAP"):
        a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if gate not in ("CX", "CZ", "SWAP"):
            b = None
        ref = t.copy()
        _absorb_left_generic(ref, gate, a, b)
        t.absorb_left(gate, a, b)
        assert t.ix == ref.ix and t.iz == ref.iz, gate
        assert t._cols == ref._cols, gate
    for kind in ("X", "Y", "Z"):
        assert t.heisenberg_single(a, kind) == t.heisenberg_map(PauliString.single(n, a, kind))


def _absorb_left_two_pass(t: CliffordTableau, gate: str, a: int, b: int | None = None) -> None:
    """Reference reading of ``_LEFT_ROWS``: every changed row is computed
    from the old rows first, then all are stored; the columns are not kept."""
    qubits = (a, a, b, b)
    old = [(t.iz if row & 1 else t.ix)[qubits[row]] for row in range(4 if b is not None else 2)]
    new = []
    for row, first, rest, de in _LEFT_ROWS[gate]:
        x, z, e = 0, 0, de
        for f in (first, *rest):
            fx, fz, fe = old[f]
            e += fe + 2 * ((z & fx).bit_count() & 1)
            x ^= fx
            z ^= fz
        new.append((row, (x, z, e & 3)))
    for row, value in new:
        (t.iz if row & 1 else t.ix)[qubits[row]] = value


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_absorb_left_matches_two_pass_reference(seed):
    """On random tableaux of 8-64 qubits with columns built, each gate of
    ``_LEFT_ROWS`` gives the rows of the two-pass reference, and the columns
    it keeps equal those rebuilt from its rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 65))
    t = CliffordTableau(n)
    for gate, a, b in random_clifford_word(n, 4 * n, rng):
        t.absorb_right(gate, a, b)
    t._columns()
    ref = CliffordTableau._from_rows(n, list(t.ix), list(t.iz))
    gates = sorted(_LEFT_ROWS)
    for step in range(300):
        gate = gates[step % len(gates)] if step < len(gates) else str(rng.choice(gates))
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        if gate not in ("CX", "CZ", "SWAP"):
            b = None
        t.absorb_left(gate, a, b)
        _absorb_left_two_pass(ref, gate, a, b)
        assert t.ix == ref.ix and t.iz == ref.iz, (step, gate)
        rebuilt = CliffordTableau._from_rows(n, list(t.ix), list(t.iz))
        assert t._cols == rebuilt._columns(), (step, gate)
    assert t.check_symplectic()


def test_absorb_left_rejects_unknown_gate():
    with pytest.raises(ValueError):
        CliffordTableau(2).absorb_left("T", 0)
