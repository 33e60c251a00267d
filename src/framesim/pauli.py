"""Bit-packed Pauli algebra and Clifford conjugation tableaus.

Everything downstream (the compiler, the localizer, the runtime frame) is
built on two objects defined here, and all of it shares one bit format: a
set of qubits is a Python int whose bit j is qubit j.

* :class:`PauliString` stores an N-qubit Pauli as two such bitmasks plus a
  power of i, with the fixed operator convention

      P = i^phase_exp * X^x * Z^z,

  where the X block multiplies to the left of the Z block. A Hermitian
  ``Y_j`` is therefore the bit pattern ``x_j = z_j = 1`` together with one
  factor of i folded into ``phase_exp``. All products and conjugations track
  ``phase_exp`` exactly mod 4.

* :class:`CliffordTableau` stores a Clifford unitary U through its inverse
  rows, the images ``U^dag X_j U`` and ``U^dag Z_j U``. Mapping an operator
  into frame coordinates reads those rows. The forward image ``U P U^dag``
  is recovered from them by commutation parities, read off a transposed
  copy of the row bits (the row/column bookkeeping of Aaronson and
  Gottesman): per qubit, the set of rows with an x or a z bit there. The
  copy is built on the first forward map and kept in step by every later
  row write, so a forward map costs the weight of its operand, not n.

Parities are ``int.bit_count()`` of an AND of two masks, so a product or a
commutation check costs a few machine-word operations per 64 qubits.
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


def bit_indices(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _conjugate_bits(gate: str, a: int, b: int | None, x: int, z: int, e: int) -> tuple:
    """``G (i^e X^x Z^z) G^dag`` for a named local Clifford, as ``(x, z, e)``."""
    xa = (x >> a) & 1
    za = (z >> a) & 1
    if gate == "H":
        e += 2 * (xa & za)
        if xa != za:
            x ^= 1 << a
            z ^= 1 << a
    elif gate == "S":
        e += xa
        z ^= xa << a
    elif gate == "S_DAG":
        e += 3 * xa
        z ^= xa << a
    elif gate == "X":
        e += 2 * za
    elif gate == "Z":
        e += 2 * xa
    elif gate == "Y":
        e += 2 * (xa ^ za)
    elif gate == "CX":
        x ^= xa << b
        z ^= ((z >> b) & 1) << a
    elif gate == "CZ":
        xb = (x >> b) & 1
        e += 2 * (xa & xb)
        z ^= (xa << b) ^ (xb << a)
    elif gate == "SWAP":
        dx = xa ^ ((x >> b) & 1)
        dz = za ^ ((z >> b) & 1)
        x ^= (dx << a) | (dx << b)
        z ^= (dz << a) | (dz << b)
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return x, z, e & 3


# ``G^dag P G`` for the generators P that a gate G changes, for
# ``CliffordTableau.absorb_left``: per gate, the tuple of changed rows
# ``(row, first, rest, de)``. Rows are numbered 0-3 for ``ix[a]``, ``iz[a]``,
# ``ix[b]``, ``iz[b]`` of the gate's qubits a and b. Row ``row``'s new value is
# the product of the old rows ``first`` and then ``rest``, left to right,
# times ``i^de``. Rows not listed keep their value. S^dag X S = -Y =
# i^3 X Z, and S X S^dag = Y = i X Z.
_X_A, _Z_A, _X_B, _Z_B = range(4)
_LEFT_ROWS = {
    "H": ((_X_A, _Z_A, (), 0), (_Z_A, _X_A, (), 0)),
    "S": ((_X_A, _X_A, (_Z_A,), 3),),
    "S_DAG": ((_X_A, _X_A, (_Z_A,), 1),),
    "X": ((_Z_A, _Z_A, (), 2),),
    "Y": ((_X_A, _X_A, (), 2), (_Z_A, _Z_A, (), 2)),
    "Z": ((_X_A, _X_A, (), 2),),
    "CX": ((_X_A, _X_A, (_X_B,), 0), (_Z_B, _Z_A, (_Z_B,), 0)),
    "CZ": ((_X_A, _X_A, (_Z_B,), 0), (_X_B, _X_B, (_Z_A,), 0)),
    "SWAP": ((_X_A, _X_B, (), 0), (_Z_A, _Z_B, (), 0),
             (_X_B, _X_A, (), 0), (_Z_B, _Z_A, (), 0)),
}


def _anticommute(x1: int, z1: int, x2: int, z2: int) -> int:
    return ((x1 & z2) ^ (z1 & x2)).bit_count() & 1


class PauliString:
    """N-qubit Pauli operator ``i^phase_exp X^x Z^z``; ``x``, ``z`` are bitmasks."""

    __slots__ = ("n", "x", "z", "phase_exp")

    def __init__(self, n: int, x: int = 0, z: int = 0, phase_exp: int = 0):
        self.n = n
        self.x = x
        self.z = z
        self.phase_exp = phase_exp & 3

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """Hermitian X/Y/Z on one qubit (Y carries its factor of i)."""
        bit = 1 << int(qubit)
        if kind == "X":
            return cls(n, bit, 0)
        if kind == "Z":
            return cls(n, 0, bit)
        if kind == "Y":
            return cls(n, bit, bit, 1)
        raise ValueError(f"unknown Pauli kind {kind!r}")

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
        return PauliString(self.n, self.x, self.z, self.phase_exp)

    # -- structure ----------------------------------------------------

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not self.x and not self.z

    def support(self) -> list[int]:
        return bit_indices(self.x | self.z)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

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
        return PauliString(self.n, self.x, self.z, self.y_count())

    def key(self) -> tuple:
        return (self.x, self.z, self.phase_exp)

    def word_key(self) -> tuple:
        """Key ignoring the overall sign (bits only)."""
        return (self.x, self.z)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString) and self.n == other.n
                and self.phase_exp == other.phase_exp
                and self.x == other.x and self.z == other.z)

    def __hash__(self):
        return hash(self.key())

    # -- algebra ------------------------------------------------------

    def mul(self, other: "PauliString") -> "PauliString":
        """Operator product self * other with exact i-power tracking."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        cross = (self.z & other.x).bit_count() & 1
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z,
                           self.phase_exp + other.phase_exp + 2 * cross)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return not _anticommute(self.x, self.z, other.x, other.z)

    def adjoint(self) -> "PauliString":
        """Dagger: conjugate the scalar, bits unchanged."""
        # (i^e X^x Z^z)^dag = i^{-e} Z^z X^x = i^{-e} (-1)^{|x&z|} X^x Z^z
        return PauliString(self.n, self.x, self.z, -self.phase_exp + 2 * self.y_count())

    def conjugate_gate(self, gate: str, a: int, b: int | None = None) -> None:
        """In-place conjugation ``P <- G P G^dag`` for a named local Clifford."""
        self.x, self.z, self.phase_exp = _conjugate_bits(gate, a, b, self.x, self.z,
                                                         self.phase_exp)

    # -- rendering ----------------------------------------------------

    def _char(self, j: int) -> str:
        return "_XZY"[((self.x >> j) & 1) + 2 * ((self.z >> j) & 1)]

    def __str__(self) -> str:
        body = "".join(self._char(j) for j in range(self.n))
        return _PHASE_PREFIX[self.residual_phase()] + body

    def short_str(self) -> str:
        """Compact support rendering, e.g. ``+X0`` or ``-iY2Z5``."""
        body = "".join(self._char(j) + str(j) for j in self.support()) or "_"
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
            if (self.x >> j) & 1:
                m = m @ mats["X"]
            if (self.z >> j) & 1:
                m = m @ mats["Z"]
            out = np.kron(out, m)
        return out


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
    """Clifford unitary U stored as its inverse rows.

    ``ix[j]`` and ``iz[j]`` hold ``U^dag X_j U`` and ``U^dag Z_j U`` as
    ``(x, z, phase_exp)`` int tuples. ``absorb_left`` (U <- G U) rewrites
    the O(1) rows of the gate's qubits; ``absorb_right`` (U <- U G, circuit
    order) and ``absorb_rotation_right`` conjugate every row.

    ``_cols`` is None or the transposed row bits, four lists indexed by
    qubit j whose entries are masks over row indices c: rows ``ix[c]`` with
    an x bit on j, ``ix[c]`` with a z bit on j, then the same for ``iz[c]``.
    ``absorb_left`` flips the column bits of each row it writes; every other
    row write goes through :meth:`_write_rows`, which does the same.
    """

    __slots__ = ("n", "ix", "iz", "_cols")

    def __init__(self, n: int):
        self.n = n
        self.ix = [(1 << j, 0, 0) for j in range(n)]
        self.iz = [(0, 1 << j, 0) for j in range(n)]
        self._cols = None

    @classmethod
    def _from_rows(cls, n: int, ix: list, iz: list) -> "CliffordTableau":
        t = cls.__new__(cls)
        t.n, t.ix, t.iz, t._cols = n, ix, iz, None
        return t

    def copy(self) -> "CliffordTableau":
        t = CliffordTableau._from_rows(self.n, list(self.ix), list(self.iz))
        if self._cols is not None:
            t._cols = tuple(list(col) for col in self._cols)
        return t

    # -- the transposed rows --------------------------------------------

    def _columns(self) -> tuple:
        """The transposed row bits, built from the rows on first use."""
        cols = self._cols
        if cols is None:
            n = self.n
            cols = ([0] * n, [0] * n, [0] * n, [0] * n)
            for rows, colx, colz in ((self.ix, cols[0], cols[1]), (self.iz, cols[2], cols[3])):
                for c, (x, z, _) in enumerate(rows):
                    for j in bit_indices(x):
                        colx[j] |= 1 << c
                    for j in bit_indices(z):
                        colz[j] |= 1 << c
            self._cols = cols
        return cols

    def _write_rows(self, writes) -> None:
        """Store ``(z_row, c, row)`` writes into ``iz`` (or ``ix``) and flip
        the column bits each one changes."""
        cols = self._cols
        for z_row, c, row in writes:
            rows = self.iz if z_row else self.ix
            if cols is not None:
                old = rows[c]
                bit = 1 << c
                base = 2 if z_row else 0
                for col, diff in ((cols[base], old[0] ^ row[0]),
                                  (cols[base + 1], old[1] ^ row[1])):
                    while diff:
                        low = diff & -diff
                        col[low.bit_length() - 1] ^= bit
                        diff ^= low
            rows[c] = row

    # -- the two maps ---------------------------------------------------

    def _map(self, x: int, z: int, e: int) -> tuple:
        """``U^dag (i^e X^x Z^z) U`` as ``(x, z, e)``, multiplied out of the rows."""
        ox = oz = 0
        for rows, mask in ((self.ix, x), (self.iz, z)):
            while mask:
                low = mask & -mask
                rx, rz, re = rows[low.bit_length() - 1]
                e += re + 2 * ((oz & rx).bit_count() & 1)
                ox ^= rx
                oz ^= rz
                mask ^= low
        return ox, oz, e & 3

    def heisenberg_map(self, p: PauliString) -> PauliString:
        """U^dag P U: map a physical operator into frame coordinates."""
        if p.n != self.n:
            raise ValueError("length mismatch")
        return PauliString(self.n, *self._map(p.x, p.z, p.phase_exp))

    def heisenberg_single(self, q: int, kind: str) -> PauliString:
        """``heisenberg_map`` of the Hermitian one-qubit Pauli ``kind`` on
        qubit q; for X and Z that is a stored row."""
        if kind == "Z":
            return PauliString(self.n, *self.iz[q])
        if kind == "X":
            return PauliString(self.n, *self.ix[q])
        return self.heisenberg_map(PauliString.single(self.n, q, kind))

    def forward_map(self, p: PauliString) -> PauliString:
        """U P U^dag, exact in phase.

        Its X bit c is set iff it anticommutes with Z_c, that is iff P
        anticommutes with ``U^dag Z_c U``; likewise its Z bit c with X_c.
        Over the set bits j of ``p.x`` and ``p.z`` that is an XOR of columns.
        The phase is whatever makes ``heisenberg_map`` of the result P.
        """
        if p.n != self.n:
            raise ValueError("length mismatch")
        qx, qz = self._forward_bits(p.x, p.z)
        return PauliString(self.n, qx, qz, p.phase_exp - self._map(qx, qz, 0)[2])

    def _forward_bits(self, x: int, z: int) -> tuple:
        """The X and Z bits of ``forward_map`` of ``X^x Z^z``, without its
        phase: an XOR of columns, linear in ``(x, z)``."""
        xx, xz, zx, zz = self._columns()
        qx = qz = 0
        while x:
            low = x & -x
            j = low.bit_length() - 1
            qx ^= zz[j]
            qz ^= xz[j]
            x ^= low
        while z:
            low = z & -z
            j = low.bit_length() - 1
            qx ^= zx[j]
            qz ^= xx[j]
            z ^= low
        return qx, qz

    def x_image(self, j: int) -> PauliString:
        return self.forward_map(PauliString.single(self.n, j, "X"))

    def z_image(self, j: int) -> PauliString:
        return self.forward_map(PauliString.single(self.n, j, "Z"))

    # -- gate absorption -------------------------------------------------

    def absorb_left(self, gate: str, a: int, b: int | None = None) -> None:
        """U <- G U: the rows of X_q, Z_q for q in G's qubits become the
        images of ``G^dag X_q G`` and ``G^dag Z_q G`` under the old rows.

        ``_LEFT_ROWS`` lists, per gate, only the rows that change, each as a
        product of old rows times a power of i, so CX(a,b) is two products
        and two row writes. Each new row is computed from the old rows, its
        changed column bits flipped and the row stored, in one loop."""
        try:
            changes = _LEFT_ROWS[gate]
        except KeyError:
            raise ValueError(f"unknown gate {gate!r}") from None
        ix, iz, cols = self.ix, self.iz, self._cols
        old = (ix[a], iz[a]) if b is None else (ix[a], iz[a], ix[b], iz[b])
        for row, first, rest, de in changes:
            x, z, e = old[first]
            for f in rest:
                fx, fz, fe = old[f]
                e += fe + 2 * ((z & fx).bit_count() & 1)
                x ^= fx
                z ^= fz
            c = b if row & 2 else a
            if cols is not None:
                ox, oz, _ = old[row]
                bit = 1 << c
                diff = ox ^ x
                col = cols[(row & 1) << 1]
                while diff:
                    low = diff & -diff
                    col[low.bit_length() - 1] ^= bit
                    diff ^= low
                diff = oz ^ z
                col = cols[((row & 1) << 1) + 1]
                while diff:
                    low = diff & -diff
                    col[low.bit_length() - 1] ^= bit
                    diff ^= low
            (iz if row & 1 else ix)[c] = (x, z, (e + de) & 3)

    def absorb_right(self, gate: str, a: int, b: int | None = None) -> None:
        """U <- U G (gate applied after U in circuit order): every row is
        conjugated by G^dag."""
        inv = _INV_GATE.get(gate, gate)
        self._write_rows([(z_row, j, _conjugate_bits(inv, a, b, *row))
                          for z_row, rows in ((False, self.ix), (True, self.iz))
                          for j, row in enumerate(rows)])

    def absorb_rotation_right(self, pauli: PauliString, quarter_turns: int) -> None:
        """U <- U * exp(-i (m pi/4) P) for Hermitian P; m mod 8 matters."""
        m = quarter_turns % 8
        if m == 0:
            return
        if not pauli.is_hermitian():
            raise ValueError("rotation generator must be Hermitian")
        phys = pauli.hermitian_word()
        if pauli.hermitian_sign() < 0:
            m = (-m) % 8
        if m == 4:  # C = -I
            return
        px, pz, pe = phys.x, phys.z, phys.phase_exp
        # C^dag R C = R for commuting R. For anticommuting R it is -R when
        # m is 2 or 6, and i^extra P R when m is odd.
        extra = 1 if m in (1, 5) else 3
        writes = []
        for z_row, rows in ((False, self.ix), (True, self.iz)):
            for j, (x, z, e) in enumerate(rows):
                if not _anticommute(px, pz, x, z):
                    continue
                if m % 2 == 0:
                    writes.append((z_row, j, (x, z, (e + 2) & 3)))
                else:
                    cross = (pz & x).bit_count() & 1
                    writes.append((z_row, j, (px ^ x, pz ^ z, (pe + e + 2 * cross + extra) & 3)))
        self._write_rows(writes)

    # -- composition ----------------------------------------------------

    def inverse(self) -> "CliffordTableau":
        """The rows of U^dag are the forward images of U."""
        return CliffordTableau._from_rows(self.n, [self.x_image(j).key() for j in range(self.n)],
                                          [self.z_image(j).key() for j in range(self.n)])

    def compose(self, other: "CliffordTableau") -> "CliffordTableau":
        """Tableau for self * other (other applied first under conjugation)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return CliffordTableau._from_rows(self.n, [other._map(*row) for row in self.ix],
                                          [other._map(*row) for row in self.iz])

    def is_identity(self) -> bool:
        return all(self.ix[j] == (1 << j, 0, 0) and self.iz[j] == (0, 1 << j, 0)
                   for j in range(self.n))

    def check_symplectic(self) -> bool:
        """On-diagonal pairs of rows anticommute, all other pairs commute.

        This holds for the rows of U^dag exactly when it holds for the
        generator images of U."""
        for j, (xj, zj, _) in enumerate(self.ix):
            for k, (xk, zk, _) in enumerate(self.iz):
                if _anticommute(xj, zj, xk, zk) != (j == k):
                    return False
            for rows in (self.ix, self.iz):
                xa, za, _ = rows[j]
                for xb, zb, _ in rows[j + 1:]:
                    if _anticommute(xa, za, xb, zb):
                        return False
        return True


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
        p = PauliString(n, sum(1 << int(j) for j in np.flatnonzero(x)),
                        sum(1 << int(j) for j in np.flatnonzero(z)))
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
