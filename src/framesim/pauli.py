"""Bit-vector Pauli algebra and Clifford conjugation tableaus.

Everything downstream (the compiler, the localizer, the runtime frame) is
built on two objects defined here:

* :class:`PauliString` stores an N-qubit Pauli as two uint8 bit vectors plus
  a power of i, with the fixed operator convention

      P = i^phase_exp * X^x * Z^z,

  where the X block multiplies to the left of the Z block. A Hermitian
  ``Y_j`` is therefore the bit pattern ``x_j = z_j = 1`` together with one
  factor of i folded into ``phase_exp``. All products and conjugations track
  ``phase_exp`` exactly mod 4.

* :class:`CliffordTableau` stores a Clifford unitary U through the images of
  the generators ``X_j``/``Z_j`` under conjugation, maintaining forward
  (``U P U^dag``) and inverse (``U^dag P U``) rows simultaneously so that
  mapping an operator into the frame coordinates never requires inverting
  anything at use time.

Bit vectors use numpy uint8 arrays; per-gate updates touch a constant number
of rows or columns, so absorbing a gate is linear in the qubit count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

GATE_NAMES_1Q = ("H", "S", "S_DAG", "X", "Y", "Z")
GATE_NAMES_2Q = ("CX", "CZ", "SWAP")

_INV_GATE = {"H": "H", "S": "S_DAG", "S_DAG": "S", "X": "X", "Y": "Y", "Z": "Z",
             "CX": "CX", "CZ": "CZ", "SWAP": "SWAP"}

_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


class PauliString:
    """N-qubit Pauli operator ``i^phase_exp X^x Z^z``."""

    __slots__ = ("n", "x", "z", "phase_exp")

    def __init__(self, n: int, x=None, z=None, phase_exp: int = 0):
        self.n = n
        self.x = np.zeros(n, dtype=np.uint8) if x is None else np.asarray(x, dtype=np.uint8)
        self.z = np.zeros(n, dtype=np.uint8) if z is None else np.asarray(z, dtype=np.uint8)
        self.phase_exp = phase_exp & 3

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """Hermitian X/Y/Z on one qubit (Y carries its factor of i)."""
        p = cls(n)
        if kind == "X":
            p.x[qubit] = 1
        elif kind == "Z":
            p.z[qubit] = 1
        elif kind == "Y":
            p.x[qubit] = 1
            p.z[qubit] = 1
            p.phase_exp = 1
        else:
            raise ValueError(f"unknown Pauli kind {kind!r}")
        return p

    @classmethod
    def from_label(cls, label: str, n: int | None = None) -> "PauliString":
        """Parse ``'+iXZ_Y'`` style dense labels (``_`` or ``I`` = identity)."""
        s = label
        phase = 0
        if s.startswith(("+i", "-i")):
            phase = 1 if s[0] == "+" else 3
            s = s[2:]
        elif s.startswith(("+", "-")):
            phase = 0 if s[0] == "+" else 2
            s = s[1:]
        if n is None:
            n = len(s)
        p = cls(n, phase_exp=phase)
        for j, ch in enumerate(s):
            if ch in "_I":
                continue
            p = p.mul(cls.single(n, j, ch))
        return p

    def copy(self) -> "PauliString":
        return PauliString(self.n, self.x.copy(), self.z.copy(), self.phase_exp)

    # -- structure ----------------------------------------------------

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not self.x.any() and not self.z.any()

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.x | self.z)

    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def y_count(self) -> int:
        return int(np.count_nonzero(self.x & self.z))

    def residual_phase(self) -> int:
        """Power of i left after writing the string as phase * Hermitian word."""
        return (self.phase_exp - self.y_count()) & 3

    def is_hermitian(self) -> bool:
        return self.residual_phase() in (0, 2)

    def hermitian_sign(self) -> int:
        """+1 or -1 for a Hermitian string; raises otherwise."""
        r = self.residual_phase()
        if r == 0:
            return 1
        if r == 2:
            return -1
        raise ValueError(f"{self} is not Hermitian")

    def hermitian_word(self) -> "PauliString":
        """The sign-free Hermitian word (phase_exp set to the Y count)."""
        w = self.copy()
        w.phase_exp = w.y_count() & 3
        return w

    def key(self) -> tuple:
        return (self.x.tobytes(), self.z.tobytes(), self.phase_exp)

    def word_key(self) -> tuple:
        """Key ignoring the overall sign (bits only)."""
        return (self.x.tobytes(), self.z.tobytes())

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString) and self.n == other.n
                and self.phase_exp == other.phase_exp
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z))

    def __hash__(self):
        return hash(self.key())

    # -- algebra ------------------------------------------------------

    def mul(self, other: "PauliString") -> "PauliString":
        """Operator product self * other with exact i-power tracking."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        cross = int(np.count_nonzero(self.z & other.x)) & 1
        return PauliString(
            self.n,
            self.x ^ other.x,
            self.z ^ other.z,
            (self.phase_exp + other.phase_exp + 2 * cross) & 3,
        )

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        par = (int(np.count_nonzero(self.x & other.z))
               + int(np.count_nonzero(self.z & other.x))) & 1
        return par == 0

    def adjoint(self) -> "PauliString":
        """Dagger: conjugate the scalar, bits unchanged."""
        # (i^e X^x Z^z)^dag = i^{-e} Z^z X^x = i^{-e} (-1)^{|x&z|} X^x Z^z
        e = (-self.phase_exp + 2 * self.y_count()) & 3
        return PauliString(self.n, self.x.copy(), self.z.copy(), e)

    def conjugate_gate(self, gate: str, a: int, b: int | None = None) -> None:
        """In-place conjugation ``P <- G P G^dag`` for a named local Clifford."""
        x, z = self.x, self.z
        if gate == "H":
            self.phase_exp = (self.phase_exp + 2 * (x[a] & z[a])) & 3
            x[a], z[a] = z[a], x[a]
        elif gate == "S":
            self.phase_exp = (self.phase_exp + x[a]) & 3
            z[a] ^= x[a]
        elif gate == "S_DAG":
            self.phase_exp = (self.phase_exp + 3 * x[a]) & 3
            z[a] ^= x[a]
        elif gate == "X":
            self.phase_exp = (self.phase_exp + 2 * z[a]) & 3
        elif gate == "Z":
            self.phase_exp = (self.phase_exp + 2 * x[a]) & 3
        elif gate == "Y":
            self.phase_exp = (self.phase_exp + 2 * (x[a] ^ z[a])) & 3
        elif gate == "CX":
            x[b] ^= x[a]
            z[a] ^= z[b]
        elif gate == "CZ":
            self.phase_exp = (self.phase_exp + 2 * (x[a] & x[b])) & 3
            z[b] ^= x[a]
            z[a] ^= x[b]
        elif gate == "SWAP":
            x[a], x[b] = x[b], x[a]
            z[a], z[b] = z[b], z[a]
        else:
            raise ValueError(f"unknown gate {gate!r}")

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        chars = []
        for j in range(self.n):
            chars.append("_XZY"[int(self.x[j]) + 2 * int(self.z[j])])
        return _PHASE_PREFIX[self.residual_phase()] + "".join(chars)

    def short_str(self) -> str:
        """Compact support rendering, e.g. ``+X0`` or ``-iY2Z5``."""
        terms = []
        for j in self.support():
            terms.append("_XZY"[int(self.x[j]) + 2 * int(self.z[j])] + str(int(j)))
        body = "".join(terms) if terms else "_"
        return _PHASE_PREFIX[self.residual_phase()] + body

    def __repr__(self) -> str:
        return f"PauliString({self.short_str()!r}, n={self.n})"

    def to_dense(self) -> np.ndarray:
        """Dense 2^n matrix; test/oracle use only."""
        if self.n > 12:
            raise ValueError("dense form capped at 12 qubits")
        mats = {
            "_": np.eye(2, dtype=complex),
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Z": np.array([[1, 0], [0, -1]], dtype=complex),
        }
        out = np.array([[1j ** self.phase_exp]], dtype=complex)
        for j in range(self.n):
            m = np.eye(2, dtype=complex)
            if self.x[j]:
                m = m @ mats["X"]
            if self.z[j]:
                m = m @ mats["Z"]
            out = np.kron(out, m)
        return out


def bits_to_mask(bits) -> int:
    """A 0/1 vector as a Python int: entry j becomes bit j."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def mask_to_bits(mask: int, n: int) -> np.ndarray:
    """Inverse of :func:`bits_to_mask`: the low ``n`` bits as a uint8 vector."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


@dataclass
class CompileStats:
    """Structural counts reported by the compiler."""

    n_qubits: int = 0
    clifford_ops: int = 0
    measurements: int = 0
    active_measurements: int = 0
    nonclifford_rotations: int = 0
    noise_mechanisms: int = 0
    k_max: int = 0

    def as_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "clifford_ops": self.clifford_ops,
            "measurements": self.measurements,
            "active_measurements": self.active_measurements,
            "nonclifford_rotations": self.nonclifford_rotations,
            "noise_mechanisms": self.noise_mechanisms,
            "k_max": self.k_max,
        }


class CliffordTableau:
    """Clifford unitary tracked through generator images, with inverse rows.

    Row conventions:
      forward rows  fx[j], fz[j]  hold  U X_j U^dag  and  U Z_j U^dag
      inverse rows  ix[j], iz[j]  hold  U^dag X_j U  and  U^dag Z_j U

    ``absorb_right`` multiplies a gate on the right (U <- U G, circuit
    order); ``absorb_left`` multiplies on the left (U <- G U). Both cost
    O(n) bit operations per local gate.
    """

    __slots__ = ("n", "fx_x", "fx_z", "fx_p", "fz_x", "fz_z", "fz_p",
                 "ix_x", "ix_z", "ix_p", "iz_x", "iz_z", "iz_p")

    def __init__(self, n: int):
        self.n = n
        eye = np.eye(n, dtype=np.uint8)
        zero = np.zeros((n, n), dtype=np.uint8)
        self.fx_x = eye.copy(); self.fx_z = zero.copy(); self.fx_p = np.zeros(n, dtype=np.uint8)
        self.fz_x = zero.copy(); self.fz_z = eye.copy(); self.fz_p = np.zeros(n, dtype=np.uint8)
        self.ix_x = eye.copy(); self.ix_z = zero.copy(); self.ix_p = np.zeros(n, dtype=np.uint8)
        self.iz_x = zero.copy(); self.iz_z = eye.copy(); self.iz_p = np.zeros(n, dtype=np.uint8)

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau.__new__(CliffordTableau)
        t.n = self.n
        for f in self.__slots__[1:]:
            setattr(t, f, getattr(self, f).copy())
        return t

    # -- row access helpers --------------------------------------------

    def _row(self, block: str, j: int) -> PauliString:
        x = getattr(self, block + "_x")[j]
        z = getattr(self, block + "_z")[j]
        p = int(getattr(self, block + "_p")[j])
        return PauliString(self.n, x.copy(), z.copy(), p)

    def _set_row(self, block: str, j: int, p: PauliString) -> None:
        getattr(self, block + "_x")[j] = p.x
        getattr(self, block + "_z")[j] = p.z
        getattr(self, block + "_p")[j] = p.phase_exp & 3

    def x_image(self, j: int) -> PauliString:
        return self._row("fx", j)

    def z_image(self, j: int) -> PauliString:
        return self._row("fz", j)

    # -- composition of a Pauli out of stored rows ----------------------

    def _map_through(self, p: PauliString, xx, xz, xp, zx, zz, zp) -> PauliString:
        out_x = np.zeros(self.n, dtype=np.uint8)
        out_z = np.zeros(self.n, dtype=np.uint8)
        phase = p.phase_exp
        for j in np.flatnonzero(p.x):
            cross = int(np.count_nonzero(out_z & xx[j])) & 1
            phase = (phase + int(xp[j]) + 2 * cross) & 3
            out_x ^= xx[j]
            out_z ^= xz[j]
        for j in np.flatnonzero(p.z):
            cross = int(np.count_nonzero(out_z & zx[j])) & 1
            phase = (phase + int(zp[j]) + 2 * cross) & 3
            out_x ^= zx[j]
            out_z ^= zz[j]
        return PauliString(self.n, out_x, out_z, phase)

    def forward_map(self, p: PauliString) -> PauliString:
        """U P U^dag, exact in phase."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        return self._map_through(p, self.fx_x, self.fx_z, self.fx_p,
                                 self.fz_x, self.fz_z, self.fz_p)

    def heisenberg_map(self, p: PauliString) -> PauliString:
        """U^dag P U: map a physical operator into frame coordinates."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        return self._map_through(p, self.ix_x, self.ix_z, self.ix_p,
                                 self.iz_x, self.iz_z, self.iz_p)

    # -- gate absorption -------------------------------------------------

    def _recombine(self, side: str, gate: str, a: int, b: int | None) -> None:
        """Rewrite the rows of one side using G P G^dag decompositions.

        side 'f': forward rows recombine under right-multiplication.
        side 'i': inverse rows recombine under left-multiplication, which
        uses the inverse gate's decomposition.
        """
        if side == "f":
            X, Z = "fx", "fz"
        else:
            X, Z = "ix", "iz"
            gate = _INV_GATE[gate]
        if gate == "H":
            rx, rz = self._row(X, a), self._row(Z, a)
            self._set_row(X, a, rz)
            self._set_row(Z, a, rx)
        elif gate == "S":
            # X_a -> i X_a Z_a under S . S^dag
            r = self._row(X, a).mul(self._row(Z, a))
            r.phase_exp = (r.phase_exp + 1) & 3
            self._set_row(X, a, r)
        elif gate == "S_DAG":
            r = self._row(X, a).mul(self._row(Z, a))
            r.phase_exp = (r.phase_exp + 3) & 3
            self._set_row(X, a, r)
        elif gate == "X":
            getattr(self, Z + "_p")[a] = (getattr(self, Z + "_p")[a] + 2) & 3
        elif gate == "Z":
            getattr(self, X + "_p")[a] = (getattr(self, X + "_p")[a] + 2) & 3
        elif gate == "Y":
            getattr(self, X + "_p")[a] = (getattr(self, X + "_p")[a] + 2) & 3
            getattr(self, Z + "_p")[a] = (getattr(self, Z + "_p")[a] + 2) & 3
        elif gate == "CX":
            self._set_row(X, a, self._row(X, a).mul(self._row(X, b)))
            self._set_row(Z, b, self._row(Z, a).mul(self._row(Z, b)))
        elif gate == "CZ":
            new_a = self._row(X, a).mul(self._row(Z, b))
            new_b = self._row(Z, a).mul(self._row(X, b))
            self._set_row(X, a, new_a)
            self._set_row(X, b, new_b)
        elif gate == "SWAP":
            ra, rb = self._row(X, a), self._row(X, b)
            self._set_row(X, a, rb); self._set_row(X, b, ra)
            ra, rb = self._row(Z, a), self._row(Z, b)
            self._set_row(Z, a, rb); self._set_row(Z, b, ra)
        else:
            raise ValueError(f"unknown gate {gate!r}")

    def _conjugate_rows(self, side: str, gate: str, a: int, b: int | None) -> None:
        """Conjugate every stored row of one side by a gate, column-wise.

        side 'i': inverse rows conjugate by G^dag under right-multiplication.
        side 'f': forward rows conjugate by G under left-multiplication.
        """
        if side == "i":
            gate = _INV_GATE[gate]
        blocks = ("ix", "iz") if side == "i" else ("fx", "fz")
        for blk in blocks:
            bx = getattr(self, blk + "_x")
            bz = getattr(self, blk + "_z")
            bp = getattr(self, blk + "_p")
            if gate == "H":
                bp += 2 * (bx[:, a] & bz[:, a])
                tmp = bx[:, a].copy()
                bx[:, a] = bz[:, a]
                bz[:, a] = tmp
            elif gate == "S":
                bp += bx[:, a]
                bz[:, a] ^= bx[:, a]
            elif gate == "S_DAG":
                bp += 3 * bx[:, a]
                bz[:, a] ^= bx[:, a]
            elif gate == "X":
                bp += 2 * bz[:, a]
            elif gate == "Z":
                bp += 2 * bx[:, a]
            elif gate == "Y":
                bp += 2 * (bx[:, a] ^ bz[:, a])
            elif gate == "CX":
                bx[:, b] ^= bx[:, a]
                bz[:, a] ^= bz[:, b]
            elif gate == "CZ":
                bp += 2 * (bx[:, a] & bx[:, b])
                bz[:, b] ^= bx[:, a]
                bz[:, a] ^= bx[:, b]
            elif gate == "SWAP":
                for arr in (bx, bz):
                    tmp = arr[:, a].copy()
                    arr[:, a] = arr[:, b]
                    arr[:, b] = tmp
            else:
                raise ValueError(f"unknown gate {gate!r}")
            np.bitwise_and(bp, 3, out=bp)

    def absorb_right(self, gate: str, a: int, b: int | None = None) -> None:
        """U <- U G (gate applied after U in circuit order)."""
        self._recombine("f", gate, a, b)
        self._conjugate_rows("i", gate, a, b)

    def absorb_left(self, gate: str, a: int, b: int | None = None) -> None:
        """U <- G U."""
        self._conjugate_rows("f", gate, a, b)
        self._recombine("i", gate, a, b)

    def absorb_rotation_right(self, pauli: PauliString, quarter_turns: int) -> None:
        """U <- U * exp(-i (m pi/4) P) for Hermitian P; m mod 8 matters."""
        m = quarter_turns % 8
        if m == 0:
            return
        if not pauli.is_hermitian():
            raise ValueError("rotation generator must be Hermitian")
        phys = pauli if pauli.hermitian_sign() > 0 else _negate(pauli)
        sign_neg = pauli.hermitian_sign() < 0
        if sign_neg:
            m = (-m) % 8
        fwd_p = self.forward_map(phys)
        n = self.n
        # C G C^dag = -i sin(m pi/2) P G for anticommuting G (m odd),
        # and -G for m in {2, 6}; C^dag R C picks up the opposite sign of i.
        fwd_extra = 3 if m in (1, 5) else 1
        inv_extra = 1 if m in (1, 5) else 3
        for blk in ("fx", "fz"):
            bp = getattr(self, blk + "_p")
            for j in range(n):
                anti = int(phys.z[j]) if blk == "fx" else int(phys.x[j])
                if not anti:
                    continue
                if m % 2 == 0:
                    if m in (2, 6):
                        bp[j] = (bp[j] + 2) & 3
                    continue
                new = fwd_p.mul(self._row(blk, j))
                new.phase_exp = (new.phase_exp + fwd_extra) & 3
                self._set_row(blk, j, new)
        for blk in ("ix", "iz"):
            bp = getattr(self, blk + "_p")
            for j in range(n):
                row = self._row(blk, j)
                if row.commutes_with(phys):
                    continue
                if m % 2 == 0:
                    if m in (2, 6):
                        bp[j] = (bp[j] + 2) & 3
                    continue
                new = phys.mul(row)
                new.phase_exp = (new.phase_exp + inv_extra) & 3
                self._set_row(blk, j, new)

    # -- composition ----------------------------------------------------

    def inverse(self) -> "CliffordTableau":
        t = CliffordTableau.__new__(CliffordTableau)
        t.n = self.n
        t.fx_x = self.ix_x.copy(); t.fx_z = self.ix_z.copy(); t.fx_p = self.ix_p.copy()
        t.fz_x = self.iz_x.copy(); t.fz_z = self.iz_z.copy(); t.fz_p = self.iz_p.copy()
        t.ix_x = self.fx_x.copy(); t.ix_z = self.fx_z.copy(); t.ix_p = self.fx_p.copy()
        t.iz_x = self.fz_x.copy(); t.iz_z = self.fz_z.copy(); t.iz_p = self.fz_p.copy()
        return t

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau for self * other (other applied first under conjugation)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        out = CliffordTableau.__new__(CliffordTableau)
        out.n = self.n
        n = self.n
        fx = [self.forward_map(other.x_image(j)) for j in range(n)]
        fz = [self.forward_map(other.z_image(j)) for j in range(n)]
        ix = [other.heisenberg_map(self._row("ix", j)) for j in range(n)]
        iz = [other.heisenberg_map(self._row("iz", j)) for j in range(n)]
        out.fx_x = np.stack([p.x for p in fx]); out.fx_z = np.stack([p.z for p in fx])
        out.fx_p = np.array([p.phase_exp for p in fx], dtype=np.uint8)
        out.fz_x = np.stack([p.x for p in fz]); out.fz_z = np.stack([p.z for p in fz])
        out.fz_p = np.array([p.phase_exp for p in fz], dtype=np.uint8)
        out.ix_x = np.stack([p.x for p in ix]); out.ix_z = np.stack([p.z for p in ix])
        out.ix_p = np.array([p.phase_exp for p in ix], dtype=np.uint8)
        out.iz_x = np.stack([p.x for p in iz]); out.iz_z = np.stack([p.z for p in iz])
        out.iz_p = np.array([p.phase_exp for p in iz], dtype=np.uint8)
        return out

    def is_identity(self) -> bool:
        n = self.n
        eye = np.eye(n, dtype=np.uint8)
        return (np.array_equal(self.fx_x, eye) and not self.fx_z.any()
                and not self.fx_p.any()
                and np.array_equal(self.fz_z, eye) and not self.fz_x.any()
                and not self.fz_p.any())

    def check_symplectic(self) -> bool:
        """On-diagonal pairs anticommute, all other pairs commute."""
        n = self.n
        for j in range(n):
            for k in range(n):
                xj = self.x_image(j)
                zk = self.z_image(k)
                if xj.commutes_with(zk) != (j != k):
                    return False
                if j < k:
                    if not self.x_image(j).commutes_with(self.x_image(k)):
                        return False
                    if not self.z_image(j).commutes_with(self.z_image(k)):
                        return False
        return True


def _negate(p: PauliString) -> PauliString:
    q = p.copy()
    q.phase_exp = (q.phase_exp + 2) & 3
    return q


def frame_absorb(tableau: CliffordTableau, gate: str, targets: Sequence[int]) -> CliffordTableau:
    """Absorb the next physical Clifford gate of a circuit into the frame.

    The tableau afterwards represents "the old frame followed by G" in
    circuit order (matrix product G * U), keeping ``heisenberg_map`` equal to
    conjugation through the whole circuit prefix. Multi-target one-qubit
    gates and paired two-qubit targets follow circuit conventions.
    """
    gate = gate.upper()
    if gate in GATE_NAMES_1Q:
        for q in targets:
            tableau.absorb_left(gate, q)
    elif gate in GATE_NAMES_2Q:
        if len(targets) % 2:
            raise ValueError(f"{gate} needs target pairs")
        for a, b in zip(targets[::2], targets[1::2]):
            tableau.absorb_left(gate, a, b)
    else:
        raise ValueError(f"{gate!r} is not a supported Clifford gate")
    return tableau


def random_pauli(n: int, rng: np.random.Generator, allow_identity: bool = False) -> PauliString:
    while True:
        x = rng.integers(0, 2, size=n, dtype=np.uint8)
        z = rng.integers(0, 2, size=n, dtype=np.uint8)
        p = PauliString(n, x, z, 0)
        p.phase_exp = p.y_count() & 3  # Hermitian, sign +
        if int(rng.integers(0, 2)):
            p.phase_exp = (p.phase_exp + 2) & 3
        if allow_identity or not p.is_identity():
            if p.weight() or allow_identity:
                return p


def random_clifford_word(n: int, length: int, rng: np.random.Generator) -> list[tuple]:
    """Random list of (gate, a, b) usable with absorb/frame helpers."""
    word = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            word.append((str(rng.choice(["CX", "CZ", "SWAP"])), int(a), int(b)))
        else:
            g = str(rng.choice(["H", "S", "S_DAG", "X", "Y", "Z"]))
            word.append((g, int(rng.integers(0, n)), None))
    return word
