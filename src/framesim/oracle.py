"""Small-N dense reference simulators used for validation.

Nothing here is on the sampling hot path. The module provides:

* ``dense_run``: textbook state-vector evolution of a flattened circuit with
  deterministic fault injection and forced measurement outcomes.
* ``expand_factored``: expand a VM shot state U * P * (phi (x) 0) back
  into a dense vector for cross-checks.
* ``apply_tableau_dense`` / ``tableau_to_dense_state``: synthesize the action
  of a Clifford tableau on dense vectors by column-wise basis-state
  propagation, so frozen tableaus with no gate history are covered.
* ``pauli_frame_reference_sample``: an independent Pauli-frame propagation
  sampler for Clifford-only noisy circuits (valid when the noiseless record
  string is all zero), vectorized across shots.

Qubit 0 is the most significant bit of dense indices, matching
``PauliString.to_dense``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Instruction, Rec
from .pauli import CliffordTableau, PauliString, bit_indices

MAX_ORACLE_QUBITS = 14

_SQ2 = 1.0 / math.sqrt(2.0)
_GATES_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.diag([1, 1j]).astype(complex),
    "S_DAG": np.diag([1, -1j]).astype(complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "T": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "T_DAG": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}


class OracleError(ValueError):
    pass


@dataclass
class DenseState:
    """Normalized dense state over at most MAX_ORACLE_QUBITS qubits."""

    amplitudes: np.ndarray
    n: int = 0

    def __post_init__(self):
        if self.n == 0:
            self.n = int(round(math.log2(len(self.amplitudes))))
        if self.n > MAX_ORACLE_QUBITS:
            raise OracleError(f"oracle capped at {MAX_ORACLE_QUBITS} qubits, got {self.n}")

    @classmethod
    def zero(cls, n: int) -> "DenseState":
        if n > MAX_ORACLE_QUBITS:
            raise OracleError(f"oracle capped at {MAX_ORACLE_QUBITS} qubits, got {n}")
        amps = np.zeros(2 ** n, dtype=complex)
        amps[0] = 1.0
        return cls(amps, n)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def fidelity(a: DenseState, b: DenseState) -> float:
    """|<a|b>|^2, invariant under global phase; inputs are normalized."""
    va, vb = a.amplitudes, b.amplitudes
    if len(va) != len(vb):
        raise OracleError("length mismatch")
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return 0.0
    return float(abs(np.vdot(va, vb)) ** 2 / (na ** 2 * nb ** 2))


def _apply_1q(vec: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    v = vec.reshape((2 ** q, 2, 2 ** (n - q - 1)))
    out = np.einsum("ab,ibj->iaj", mat, v)
    return np.ascontiguousarray(out).reshape(-1)


def _apply_cx(vec: np.ndarray, c: int, t: int, n: int) -> np.ndarray:
    idx = np.arange(len(vec))
    cbit = (idx >> (n - 1 - c)) & 1
    return vec[idx ^ (cbit << (n - 1 - t))]


def _apply_cz(vec: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    idx = np.arange(len(vec))
    mask = (((idx >> (n - 1 - a)) & 1) & ((idx >> (n - 1 - b)) & 1)) == 1
    v = vec.copy()
    v[mask] *= -1
    return v


def _apply_swap(vec: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    idx = np.arange(len(vec))
    ba = (idx >> (n - 1 - a)) & 1
    bb = (idx >> (n - 1 - b)) & 1
    swapped = idx ^ ((ba ^ bb) << (n - 1 - a)) ^ ((ba ^ bb) << (n - 1 - b))
    return vec[swapped]


def apply_pauli_dense(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Apply i^e X^x Z^z to a dense vector (qubit 0 = MSB)."""
    n = p.n
    xmask = sum(1 << (n - 1 - j) for j in bit_indices(p.x))
    zmask = sum(1 << (n - 1 - j) for j in bit_indices(p.z))
    idx = np.arange(len(vec))
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & zmask) & 1)
    out = np.empty_like(vec)
    out[idx ^ xmask] = (1j ** p.phase_exp) * signs * vec
    return out


def _rotation(vec: np.ndarray, word: PauliString, theta: float) -> np.ndarray:
    """exp(-i theta W) for Hermitian W (sign folded by caller into theta)."""
    return math.cos(theta) * vec - 1j * math.sin(theta) * apply_pauli_dense(word, vec)


def measure_pauli_dense(vec: np.ndarray, obs: PauliString, rng, forced: int | None):
    """Project onto an eigenspace of a Hermitian Pauli; returns (vec', bit)."""
    ovec = apply_pauli_dense(obs, vec)
    plus = 0.5 * (vec + ovec)
    p_plus = float(np.vdot(plus, plus).real)
    p_plus = min(max(p_plus, 0.0), 1.0)
    if forced is None:
        bit = 1 if rng.uniform() >= p_plus else 0
    else:
        bit = int(forced)
        p_branch = p_plus if bit == 0 else 1.0 - p_plus
        if p_branch < 1e-12:
            raise OracleError(f"forced outcome {bit} has probability {p_branch:.3e}")
    if bit == 0:
        new = plus
        norm = math.sqrt(p_plus)
    else:
        new = 0.5 * (vec - ovec)
        norm = math.sqrt(max(1.0 - p_plus, 0.0))
    return new / norm, bit


# Per noise opcode, the divisor of its probability that gives each case's
# mass, and its cases in order: one Pauli letter per qubit of the site.
_SITE_LABELS = {
    "X_ERROR": (1.0, ("X",)),
    "Y_ERROR": (1.0, ("Y",)),
    "Z_ERROR": (1.0, ("Z",)),
    "DEPOLARIZE1": (3.0, ("X", "Y", "Z")),
    "DEPOLARIZE2": (15.0, tuple(a + b for a in "IXYZ" for b in "IXYZ")[1:]),
}


def noise_sites_of(circuit: Circuit) -> list[tuple[int, Instruction, tuple[int, ...]]]:
    """Enumerate noise sites of a flattened circuit in program order.

    One site per qubit target for 1q channels, one per pair for DEPOLARIZE2.
    The triple is (site_id, instruction, qubits).
    """
    sites = []
    sid = 0
    for ins in circuit.instructions:
        if ins.opcode in ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1"):
            for q in ins.targets:
                sites.append((sid, ins, (q,)))
                sid += 1
        elif ins.opcode == "DEPOLARIZE2":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                sites.append((sid, ins, (a, b)))
                sid += 1
    return sites


def site_cases(ins: Instruction, qubits: tuple[int, ...], n: int) -> list[tuple[float, PauliString]]:
    """(probability, physical Pauli) cases for one noise site."""
    try:
        divisor, labels = _SITE_LABELS[ins.opcode]
    except KeyError:
        raise OracleError(f"not a noise opcode: {ins.opcode}") from None
    mass = ins.args[0] / divisor
    out = []
    for label in labels:
        pauli = PauliString.identity(n)
        for ch, q in zip(label, qubits):
            if ch != "I":
                pauli = pauli.mul(PauliString.single(n, q, ch))
        out.append((mass, pauli))
    return out


@dataclass
class DenseRunResult:
    state: DenseState
    records: np.ndarray          # every projective event, R resets included
    user_records: np.ndarray     # M/MX/MY outcomes only, in program order
    detectors: np.ndarray
    observables: np.ndarray


def dense_run(circuit: Circuit, fault_plan: dict[int, int] | None = None,
              outcome_plan: dict[int, int] | None = None, seed: int = 0,
              max_instructions: int | None = None) -> DenseRunResult:
    """Evolve a flattened circuit gate by gate.

    ``fault_plan`` maps site id -> case index; unlisted sites never trigger,
    so ``None`` runs noiselessly. ``outcome_plan`` maps full record index ->
    forced bit (R resets have records too); unforced measurements sample via
    the seeded stream. ``max_instructions`` truncates the run for checkpoint
    comparisons.
    """
    from .rng import ShotRng

    n = circuit.qubit_count
    if n > MAX_ORACLE_QUBITS:
        raise OracleError(f"oracle capped at {MAX_ORACLE_QUBITS} qubits, got {n}")
    n = max(n, 1)
    fault_plan = fault_plan or {}
    outcome_plan = outcome_plan or {}
    rng = ShotRng(seed, 0)
    vec = DenseState.zero(n).amplitudes
    records: list[int] = []
    user_idx: list[int] = []
    detectors: list[int] = []
    observables: dict[int, int] = {}
    sid = 0

    def resolve(t: Rec) -> int:
        # flattened circuits carry user-record indices; map to full indices
        return user_idx[t.value]

    instructions = circuit.instructions
    if max_instructions is not None:
        instructions = instructions[:max_instructions]

    for ins in instructions:
        op = ins.opcode
        if op in _GATES_1Q:
            if op in ("X", "Z") and ins.targets and isinstance(ins.targets[0], Rec):
                for ctrl, tgt in zip(ins.targets[::2], ins.targets[1::2]):
                    if records[resolve(ctrl)]:
                        vec = _apply_1q(vec, _GATES_1Q[op], tgt, n)
                continue
            for q in ins.targets:
                vec = _apply_1q(vec, _GATES_1Q[op], q, n)
        elif op in ("R_X", "R_Y", "R_Z"):
            theta = ins.args[0] / 2.0
            for q in ins.targets:
                word = PauliString.single(n, q, op[-1])
                vec = _rotation(vec, word, theta)
        elif op in ("CX", "CZ"):
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                if isinstance(a, Rec):
                    if records[resolve(a)]:
                        pauli = "X" if op == "CX" else "Z"
                        vec = _apply_1q(vec, _GATES_1Q[pauli], b, n)
                elif op == "CX":
                    vec = _apply_cx(vec, a, b, n)
                else:
                    vec = _apply_cz(vec, a, b, n)
        elif op == "SWAP":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                vec = _apply_swap(vec, a, b, n)
        elif op in ("M", "MX", "MY"):
            basis = {"M": "Z", "MX": "X", "MY": "Y"}[op]
            for q in ins.targets:
                obs = PauliString.single(n, q, basis)
                forced = outcome_plan.get(len(records))
                vec, bit = measure_pauli_dense(vec, obs, rng, forced)
                user_idx.append(len(records))
                records.append(bit)
        elif op == "R":
            for q in ins.targets:
                obs = PauliString.single(n, q, "Z")
                forced = outcome_plan.get(len(records))
                vec, bit = measure_pauli_dense(vec, obs, rng, forced)
                records.append(bit)
                if bit:
                    vec = _apply_1q(vec, _GATES_1Q["X"], q, n)
        elif op in ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "DEPOLARIZE2"):
            groups = ([(q,) for q in ins.targets] if op != "DEPOLARIZE2"
                      else list(zip(ins.targets[::2], ins.targets[1::2])))
            for qubits in groups:
                case = fault_plan.get(sid)
                if case is not None:
                    _, pauli = site_cases(ins, qubits, n)[case]
                    vec = apply_pauli_dense(pauli, vec)
                sid += 1
        elif op == "DETECTOR":
            bit = 0
            for t in ins.targets:
                bit ^= records[resolve(t)]
            detectors.append(bit)
        elif op == "OBSERVABLE_INCLUDE":
            k = int(ins.args[0])
            acc = observables.get(k, 0)
            for t in ins.targets:
                acc ^= records[resolve(t)]
            observables[k] = acc
        elif op in ("TICK", "QUBIT_COORDS", "POSTSELECT"):
            pass  # postselection filters shots; it does not evolve the state
        else:
            raise OracleError(f"unsupported opcode {op}")

    obs_arr = np.zeros(max(observables, default=-1) + 1, dtype=np.uint8)
    for k, v in observables.items():
        obs_arr[k] = v
    return DenseRunResult(
        DenseState(vec, n),
        np.array(records, dtype=np.uint8),
        np.array([records[i] for i in user_idx], dtype=np.uint8),
        np.array(detectors, dtype=np.uint8),
        obs_arr,
    )


# -- tableau synthesis -------------------------------------------------------


def tableau_to_dense_state(tableau: CliffordTableau) -> np.ndarray:
    """U|0...0> up to global phase, by stabilizer projection."""
    n = tableau.n
    if n > MAX_ORACLE_QUBITS:
        raise OracleError("tableau too large for dense synthesis")
    rng = np.random.default_rng(0)
    for _ in range(8):
        vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        for j in range(n):
            stab = tableau.z_image(j)
            vec = 0.5 * (vec + apply_pauli_dense(stab, vec))
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            vec /= norm
            # canonical phase: first nonzero amplitude is real positive
            lead = vec[np.argmax(np.abs(vec) > 1e-9)]
            return vec * (abs(lead) / lead)
    raise OracleError("stabilizer projection collapsed to zero")


def apply_tableau_dense(tableau: CliffordTableau, vec: np.ndarray) -> np.ndarray:
    """U applied to a dense vector, column-by-column from the tableau.

    Columns are generated as U|b> = (U X^b U^dag) U|0>, so relative phases
    between columns are exact; one overall phase is arbitrary.
    """
    n = tableau.n
    psi0 = tableau_to_dense_state(tableau)
    out = np.zeros_like(vec)
    for b in np.flatnonzero(np.abs(vec) > 0):
        xb = PauliString(n, sum(1 << j for j in range(n) if (int(b) >> (n - 1 - j)) & 1))
        col = apply_pauli_dense(tableau.forward_map(xb), psi0)
        out += vec[b] * col
    return out


def expand_factored(state, frame: CliffordTableau) -> DenseState:
    """Expand U * P * (phi (x) 0) into a dense state, normalized, up to a
    global phase.

    ``state`` provides the runtime view: ``n``, ``frame_x``/``frame_z`` as
    Python-int bitmasks (bit j = virtual qubit j), ``k``,
    ``active_virtuals`` (axis -> virtual qubit), and ``active_view()``
    returning the 2^k amplitudes (axis p = index bit p).
    """
    n = state.n
    if n > MAX_ORACLE_QUBITS:
        raise OracleError("state too large to expand")
    amps = state.active_view()
    virt = state.active_virtuals
    vec = np.zeros(2 ** n, dtype=complex)
    for idx in range(len(amps)):
        a = amps[idx]
        if a == 0:
            continue
        dense_idx = 0
        for p, v in enumerate(virt):
            if (idx >> p) & 1:
                dense_idx |= 1 << (n - 1 - v)
        vec[dense_idx] = a
    vec = apply_pauli_dense(PauliString(n, state.frame_x, state.frame_z), vec)
    vec = apply_tableau_dense(frame, vec)
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        raise OracleError("expanded state has zero norm")
    return DenseState(vec / norm, n)


# -- independent Pauli-frame reference sampler -------------------------------


def pauli_frame_reference_sample(circuit: Circuit, shots: int, seed: int,
                                 p_override: float | None = None):
    """Frame-propagation sampler for Clifford-only noisy circuits.

    Valid when the noiseless record string is all zero (stabilizer detector
    circuits built from |0> preparations). Independent of the compiler and
    VM: flips are propagated through the physical circuit, vectorized across
    shots. Returns (records, detectors, observables) uint8 matrices.
    """
    n = circuit.qubit_count
    rng = np.random.default_rng(seed)
    fx = np.zeros((shots, n), dtype=np.uint8)
    fz = np.zeros((shots, n), dtype=np.uint8)
    records: list[np.ndarray] = []
    detectors: list[np.ndarray] = []
    observables: dict[int, np.ndarray] = {}

    def resolve(t: Rec) -> int:
        return t.value

    for ins in circuit.instructions:
        op = ins.opcode
        if op in ("H",):
            for q in ins.targets:
                fx[:, q], fz[:, q] = fz[:, q].copy(), fx[:, q].copy()
        elif op == "S" or op == "S_DAG":
            for q in ins.targets:
                fz[:, q] ^= fx[:, q]
        elif op in ("X", "Y", "Z"):
            if ins.targets and isinstance(ins.targets[0], Rec):
                for ctrl, tgt in zip(ins.targets[::2], ins.targets[1::2]):
                    bit = records[resolve(ctrl)]
                    if op in ("X", "Y"):
                        fx[:, tgt] ^= bit
                    if op in ("Z", "Y"):
                        fz[:, tgt] ^= bit
            continue  # global Paulis do not move frames
        elif op == "CX":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                if isinstance(a, Rec):
                    fx[:, b] ^= records[resolve(a)]
                else:
                    fx[:, b] ^= fx[:, a]
                    fz[:, a] ^= fz[:, b]
        elif op == "CZ":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                if isinstance(a, Rec):
                    fz[:, b] ^= records[resolve(a)]
                else:
                    fz[:, b] ^= fx[:, a]
                    fz[:, a] ^= fx[:, b]
        elif op == "SWAP":
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                fx[:, [a, b]] = fx[:, [b, a]]
                fz[:, [a, b]] = fz[:, [b, a]]
        elif op in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
            p = ins.args[0] if p_override is None else p_override
            kind = op[0]
            for q in ins.targets:
                hit = rng.random(shots) < p
                if kind in ("X", "Y"):
                    fx[:, q] ^= hit
                if kind in ("Z", "Y"):
                    fz[:, q] ^= hit
        elif op == "DEPOLARIZE1":
            p = ins.args[0] if p_override is None else p_override
            for q in ins.targets:
                u = rng.random(shots)
                case = np.where(u < p, (u * 3 / p).astype(np.int64) % 3 + 1, 0)
                fx[:, q] ^= ((case == 1) | (case == 2)).astype(np.uint8)
                fz[:, q] ^= ((case == 2) | (case == 3)).astype(np.uint8)
        elif op == "DEPOLARIZE2":
            p = ins.args[0] if p_override is None else p_override
            for a, b in zip(ins.targets[::2], ins.targets[1::2]):
                u = rng.random(shots)
                case = np.where(u < p, (u * 15 / p).astype(np.int64) % 15 + 1, 0)
                pa, pb = case // 4, case % 4
                fx[:, a] ^= ((pa == 1) | (pa == 2)).astype(np.uint8)
                fz[:, a] ^= ((pa == 2) | (pa == 3)).astype(np.uint8)
                fx[:, b] ^= ((pb == 1) | (pb == 2)).astype(np.uint8)
                fz[:, b] ^= ((pb == 2) | (pb == 3)).astype(np.uint8)
        elif op == "M":
            for q in ins.targets:
                records.append(fx[:, q].copy())
        elif op == "R":
            for q in ins.targets:
                fx[:, q] = 0
                fz[:, q] = 0
        elif op == "DETECTOR":
            bit = np.zeros(shots, dtype=np.uint8)
            for t in ins.targets:
                bit ^= records[resolve(t)]
            detectors.append(bit)
        elif op == "OBSERVABLE_INCLUDE":
            k = int(ins.args[0])
            acc = observables.setdefault(k, np.zeros(shots, dtype=np.uint8))
            for t in ins.targets:
                acc ^= records[resolve(t)]
        elif op in ("TICK", "QUBIT_COORDS"):
            pass
        else:
            raise OracleError(f"reference sampler does not support {op}")

    rec = np.stack(records, axis=1) if records else np.zeros((shots, 0), dtype=np.uint8)
    det = np.stack(detectors, axis=1) if detectors else np.zeros((shots, 0), dtype=np.uint8)
    nobs = max(observables, default=-1) + 1
    obs = np.zeros((shots, nobs), dtype=np.uint8)
    for k, v in observables.items():
        obs[:, k] = v
    return rec, det, obs
