"""Dual-rail qubit circuits compiled onto linear-optical mode circuits.

Each logical qubit owns an ordered pair of modes (rail 0, rail 1) and the
photon's position encodes the bit: a photon in rail 1 means logical 1.
Single-qubit gates are exact two-mode unitaries on the rail pair and
therefore deterministic.  Entangling gates are probabilistic and heralded
by postselection:

* CNOT uses the three-coupler controlled-phase core with two vacuum
  ancilla modes.  All three couplers have reflectivity 1/3; the rail-1
  modes of control and target interfere directly while each rail-0 mode
  leaks into an ancilla, giving a uniform 1/3 amplitude per photon and a
  success probability of 1/9.
* Toffoli applies a direct postselected controlled-controlled-phase: a
  three-mode contraction W = t(I + 2^(1/3) e^{i pi/3} P) on the rail-1
  triple (P a cyclic permutation) has permanents t, t^2, -t^3 on the one,
  two and three photon subsets, which is exactly the doubly-controlled
  sign flip.  W is embedded as a unitary with one extra mode and t is
  pushed to the largest value with all singular values <= 1, giving a
  success probability of (2^(1/3) - 1)^3, roughly 1/57.

Postselection keeps outcomes with exactly one photon per rail pair and no
photon in any ancilla mode.  The same rule type also carries herald
patterns for the GHZ factory, where part of the photons are detected to
signal that the surviving qubits carry entanglement.  A rule is a mask on
the occupation rows of a distribution's outcome view
(:func:`lopsim.fock.outcome_arrays`): one vectorized readout gives the
acceptance mask and the logical index of every row, and the logical
distribution is a weighted ``bincount`` of the accepted indices.
:func:`logical_distributions` is the one batched path from
interferometers to postselected logical distributions, for an ideal or
a noisy source: the F_avg executor and the GHZ fidelity call it, and
Pauli and stabilizer expectations are sign vectors applied to its rows.
Only the VQE backend still reads each circuit out of its Fock
distribution with :func:`logical_distribution`.  The module also owns
the 2x2 gate constants that other modules import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from lopsim.fock import (
    FockState,
    ModeUnitary,
    _glynn_deltas,
    batched_amplitudes,
    enumerate_basis,
    outcome_arrays,
)
from lopsim.mesh import (
    CircuitElement,
    DirectionalCoupler,
    ModePermutation,
    PhotonicCircuit,
    _apply_element,
    two_mode_gate_elements,
    unitary_to_elements,
)
from lopsim.sources import SourceModel, batched_noisy_sectors, build_input

__all__ = [
    "CompilationError",
    "QubitEncoding",
    "Gate",
    "GateCircuit",
    "PostselectionRule",
    "HeraldPattern",
    "CNOT_SUCCESS",
    "TOFFOLI_SUCCESS",
    "GHZ_INPUT_MODES",
    "GHZ_HERALD_MODES",
    "GHZ_OUTPUT_PAIRS",
    "GHZ_MEASUREMENT_SETTINGS",
    "GateCompiler",
    "compile_gate_circuit",
    "logical_matrix",
    "encoding_input_state",
    "pauli_measurement_setting",
    "logical_distribution",
    "logical_distributions",
    "ghz_factory",
    "ghz_input_state",
    "ghz_postselection",
    "ghz_fidelity",
    "ghz_noisy_fidelity",
]


class CompilationError(ValueError):
    """Raised when a gate circuit cannot be mapped onto the mode budget."""


CNOT_SUCCESS = 1.0 / 9.0
TOFFOLI_SUCCESS = (2.0 ** (1.0 / 3.0) - 1.0) ** 3

_SQRT2 = np.sqrt(2.0)
_ID2 = np.eye(2, dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQRT2
_T = np.diag([1.0, np.exp(1j * np.pi / 4.0)])
_S = np.diag([1.0, 1j])

#: Single-qubit Pauli matrices by letter.
_PAULI = {
    "I": _ID2,
    "X": _X,
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}

#: Basis-change matrices V with V P V^dagger = Z for each measured Pauli.
_MEAS_ROT = {"I": _ID2, "Z": _ID2, "X": _H, "Y": _H @ _S.conj().T}


# ---------------------------------------------------------------------------
# Encodings and gate circuits


@dataclass(frozen=True)
class QubitEncoding:
    """Assignment of rail pairs and ancilla modes on a mode circuit.

    ``qubit_pairs[q]`` is the ordered (rail 0, rail 1) pair of qubit q.
    Ancilla modes form the pool that entangling gates draw from; they
    start and must end in vacuum.
    """

    qubit_pairs: tuple[tuple[int, int], ...]
    ancilla_modes: tuple[int, ...] = ()
    n_modes: int = 0

    def __post_init__(self) -> None:
        pairs = tuple((int(a), int(b)) for a, b in self.qubit_pairs)
        ancillas = tuple(int(a) for a in self.ancilla_modes)
        object.__setattr__(self, "qubit_pairs", pairs)
        object.__setattr__(self, "ancilla_modes", ancillas)
        used = [mode for pair in pairs for mode in pair] + list(ancillas)
        if len(set(used)) != len(used):
            raise ValueError("rail and ancilla modes must be disjoint")
        n_modes = self.n_modes if self.n_modes else (max(used) + 1 if used else 0)
        object.__setattr__(self, "n_modes", int(n_modes))
        if used and not 0 <= min(used) <= max(used) < self.n_modes:
            raise ValueError("encoding uses modes outside the circuit")

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_pairs)

    def rail(self, qubit: int, bit: int) -> int:
        return self.qubit_pairs[qubit][bit]

    @classmethod
    def default(cls, n_qubits: int) -> "QubitEncoding":
        """Standard layouts: 2, 6 and 12 modes for 1, 2 and 3 qubits.

        The two-qubit layout keeps the interfering rail-1 modes adjacent
        in the middle and puts the ancillas on the outer modes 0 and 5,
        next to the rail-0 modes they attenuate.
        """
        if n_qubits == 1:
            return cls(((0, 1),), (), 2)
        if n_qubits == 2:
            return cls(((1, 2), (4, 3)), (0, 5), 6)
        if n_qubits == 3:
            return cls(((0, 1), (2, 3), (4, 5)), (6, 7, 8, 9, 10, 11), 12)
        raise CompilationError(f"no default encoding for {n_qubits} qubits")


_GATE_ARITY = {"RX": 1, "RY": 1, "RZ": 1, "H": 1, "T": 1, "CNOT": 2, "TOFFOLI": 3}
_ROTATION_GATES = {"RX", "RY", "RZ"}


@dataclass(frozen=True)
class Gate:
    """One gate application: a name, target qubits and an optional angle."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if name not in _GATE_ARITY:
            raise ValueError(f"unknown gate {self.name!r}")
        if len(self.qubits) != _GATE_ARITY[name]:
            raise ValueError(
                f"{name} takes {_GATE_ARITY[name]} qubit(s), got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{name} targets must be distinct, got {self.qubits}")
        if name in _ROTATION_GATES:
            if self.angle is None:
                raise ValueError(f"{name} needs an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise ValueError(f"{name} takes no angle")


def _single_qubit_matrix(gate: Gate) -> np.ndarray:
    if gate.name == "H":
        return _H
    if gate.name == "T":
        return _T
    half = gate.angle / 2.0
    if gate.name == "RX":
        return np.array(
            [[np.cos(half), -1j * np.sin(half)], [-1j * np.sin(half), np.cos(half)]]
        )
    if gate.name == "RY":
        return np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]])
    return np.diag([np.exp(-1j * half), np.exp(1j * half)])


def _logical_step(u: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    """The 2^n x 2^n logical matrix ``u`` followed by one more gate.

    A single-qubit gate contracts its 2x2 matrix with the row axis of
    its qubit (rows viewed as ``(2^q, 2, rest)``); a CNOT or Toffoli
    permutes the rows, flipping the target bit where every control is 1.
    ``u`` is read, never written.
    """
    dim = len(u)
    if gate.name in ("CNOT", "TOFFOLI"):
        index = np.arange(dim)
        *controls, target = gate.qubits
        fire = np.all([(index >> (n_qubits - 1 - c)) & 1 for c in controls], axis=0)
        return u[index ^ (fire << (n_qubits - 1 - target))]
    q = gate.qubits[0]
    return (_single_qubit_matrix(gate) @ u.reshape(1 << q, 2, -1)).reshape(dim, dim)


@dataclass(frozen=True)
class GateCircuit:
    """Qubit-level circuit: gate list plus an optional Pauli measurement."""

    n_qubits: int
    gates: tuple[Gate, ...] = ()
    measurement: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        if not 1 <= self.n_qubits <= 3:
            raise ValueError(f"supported qubit counts are 1..3, got {self.n_qubits}")
        for gate in self.gates:
            if max(gate.qubits) >= self.n_qubits:
                raise ValueError(f"{gate.name} targets {gate.qubits} out of range")
        if self.measurement is not None:
            word = self.measurement.upper()
            object.__setattr__(self, "measurement", word)
            if len(word) != self.n_qubits or any(c not in "IXYZ" for c in word):
                raise ValueError(f"bad measurement word {self.measurement!r}")

    def logical_unitary(self) -> np.ndarray:
        """The 2^n x 2^n unitary of the gate list (qubit 0 = leftmost bit)."""
        u = np.eye(1 << self.n_qubits, dtype=complex)
        for gate in self.gates:
            u = _logical_step(u, gate, self.n_qubits)
        return u

    @classmethod
    def from_text(cls, text: str, n_qubits: int | None = None) -> "GateCircuit":
        """Parse the one-gate-per-line format.

        Example::

            H 0
            RY 1 0.7853981634
            CNOT 0 1
            MEASURE ZZ

        Lines starting with ``#`` and blank lines are skipped.  The qubit
        count defaults to the smallest one fitting all targets and the
        measurement word.
        """
        gates: list[Gate] = []
        measurement: str | None = None
        max_target = -1
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            name = tokens[0].upper()
            try:
                if name == "MEASURE":
                    if measurement is not None:
                        raise ValueError("duplicate MEASURE line")
                    if len(tokens) != 2:
                        raise ValueError("MEASURE takes one Pauli word")
                    measurement = tokens[1].upper()
                    continue
                arity = _GATE_ARITY.get(name)
                if arity is None:
                    raise ValueError(f"unknown gate {tokens[0]!r}")
                wants_angle = name in _ROTATION_GATES
                if len(tokens) != 1 + arity + int(wants_angle):
                    raise ValueError(f"{name} line has wrong number of fields")
                qubits = tuple(int(t) for t in tokens[1 : 1 + arity])
                angle = float(tokens[1 + arity]) if wants_angle else None
                gates.append(Gate(name, qubits, angle))
                max_target = max(max_target, *qubits)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if n_qubits is None:
            n_qubits = max(max_target + 1, len(measurement or ""), 1)
        return cls(n_qubits, tuple(gates), measurement)

    def to_text(self) -> str:
        lines = []
        for gate in self.gates:
            fields = [gate.name, *map(str, gate.qubits)]
            if gate.angle is not None:
                fields.append(repr(gate.angle))
            lines.append(" ".join(fields))
        if self.measurement is not None:
            lines.append(f"MEASURE {self.measurement}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Postselection


@dataclass(frozen=True)
class PostselectionRule:
    """Accepts output states with one photon per rail pair.

    ``vacuum_modes`` must carry no photon.  ``heralds``, when present, is
    a tuple of alternative herald patterns; each pattern fixes the exact
    photon count on a set of modes and the state must match one of them.
    With ``threshold`` the rule only distinguishes click from no-click on
    every mode, which is what threshold detectors resolve.
    """

    qubit_pairs: tuple[tuple[int, int], ...]
    vacuum_modes: tuple[int, ...] = ()
    heralds: tuple[tuple[tuple[int, int], ...], ...] = ()
    threshold: bool = False

    def readout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Acceptance mask and logical index of each occupation row.

        ``rows`` is a ``(K, m)`` occupation array; the index reads qubit
        0 as the most significant bit and is meaningful only where the
        mask is set.
        """
        rows = np.asarray(rows)
        if not rows.size:
            return np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=np.intp)
        seen = np.minimum(rows, 1) if self.threshold else rows
        pairs = np.array(self.qubit_pairs, dtype=np.intp).reshape(-1, 2)
        rail1 = seen[:, pairs[:, 1]]
        accepted = np.all(seen[:, pairs[:, 0]] + rail1 == 1, axis=1)
        accepted &= np.all(rows[:, list(self.vacuum_modes)] == 0, axis=1)
        if self.heralds:
            matches = []
            for pattern in self.heralds:
                spec = np.array(pattern, dtype=np.intp).reshape(-1, 2)
                want = np.minimum(spec[:, 1], 1) if self.threshold else spec[:, 1]
                matches.append(np.all(seen[:, spec[:, 0]] == want, axis=1))
            accepted &= np.any(matches, axis=0)
        return accepted, rail1 @ (1 << np.arange(len(pairs))[::-1])


def _logical_mass(rows: np.ndarray, values: np.ndarray, rule: PostselectionRule) -> np.ndarray:
    """Accepted mass per logical index, ``(2^n, B)``, of ``(K, B)`` values.

    One readout mask serves all B columns.  The weighted ``bincount``
    runs over (index, column) bins, so each bin sums its rows in order.
    """
    accepted, index = rule.readout(rows)
    kept = values[accepted]
    dim, batch = 1 << len(rule.qubit_pairs), kept.shape[1]
    bins = (index[accepted][:, None] * batch + np.arange(batch)).ravel()
    raw = np.bincount(bins, weights=kept.ravel(), minlength=dim * batch)
    return raw.reshape(dim, batch)


def logical_distribution(
    distribution: Mapping[FockState, float], rule: PostselectionRule
) -> tuple[np.ndarray, float]:
    """Postselected logical distribution and its total weight.

    The probabilities come as an array of shape ``(2,) * n_qubits``,
    indexed by the bits (``probs[(1, 0)]``), normalized over the accepted
    outcomes; ``probs.ravel()`` is the vector with qubit 0 as the most
    significant bit.  The weight is the unnormalized probability of
    acceptance.
    """
    rows, values = outcome_arrays(distribution)
    raw = _logical_mass(rows, values[:, None], rule)[:, 0]
    weight = float(raw.sum())
    if weight <= 0.0:
        raise ValueError("no outcomes pass the postselection rule")
    return (raw / weight).reshape((2,) * len(rule.qubit_pairs)), weight


def logical_distributions(
    unitaries: np.ndarray,
    input_modes: Sequence[int],
    rule: PostselectionRule,
    source: SourceModel | None = None,
) -> np.ndarray:
    """Postselected logical distributions of B interferometers, ``(B, 2^n)``.

    This is the dual-rail readout path of the F_avg plans and the GHZ
    factory.  ``unitaries`` is a ``(B, m, m)`` stack, each fed one
    photon per mode of ``input_modes``.  With ``source=None`` the
    photons are ideal and the stack runs through one
    :func:`~lopsim.fock.batched_amplitudes` pass; with a source, its
    labeled input (:func:`~lopsim.sources.build_input`) runs through one
    :func:`~lopsim.sources.batched_noisy_sectors` trigger sum.  Each
    photon-number sector is read with one mask for all B columns; row b
    is the normalized logical vector of unitary b, qubit 0 the most
    significant bit.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    count, m = unitaries.shape[:2]
    modes = np.asarray(input_modes, dtype=np.intp)
    if source is None:
        amps = batched_amplitudes(unitaries, np.broadcast_to(modes, (count, len(modes))))
        sectors = {len(modes): np.abs(amps.T) ** 2}
    else:
        sectors, _ = batched_noisy_sectors(unitaries, build_input(len(modes), source, modes))
    raw = np.zeros((1 << len(rule.qubit_pairs), 1))
    for n, vec in sectors.items():
        raw = raw + _logical_mass(enumerate_basis(m, n).occupations, vec, rule)
    # rows contiguous, so each weight sums as logical_distribution's does
    raw = np.ascontiguousarray(raw.T)
    weight = raw.sum(axis=1, keepdims=True)
    if not np.all(weight > 0.0):
        raise ValueError("no outcomes pass the postselection rule")
    return raw / weight


def _pauli_signs(word: str) -> np.ndarray:
    """Eigenvalue product of a Pauli word per logical outcome, qubit 0 first.

    Identity letters contribute +1 on both outcomes.
    """
    signs = np.ones(1)
    for pauli in word.upper():
        signs = np.multiply.outer(signs, [1.0, 1.0] if pauli == "I" else [1.0, -1.0]).ravel()
    return signs


# ---------------------------------------------------------------------------
# Compilation


def _allocate_ancillas(pool: list[int], count: int, gate: Gate) -> list[int]:
    if len(pool) < count:
        raise CompilationError(
            f"mode budget exceeded: {gate.name} needs {count} fresh ancilla"
            f" modes, {len(pool)} left"
        )
    taken, pool[:] = pool[:count], pool[count:]
    return taken


def _cnot_elements(
    control: tuple[int, int], target: tuple[int, int], ancillas: Sequence[int]
) -> list[CircuitElement]:
    """Postselected CNOT: H on target, three 1/3 couplers, H on target."""
    elements = list(two_mode_gate_elements(_H, *target))
    elements.append(DirectionalCoupler(control[0], ancillas[0], 1.0 / 3.0))
    elements.append(DirectionalCoupler(target[0], ancillas[1], 1.0 / 3.0))
    elements.append(DirectionalCoupler(control[1], target[1], 1.0 / 3.0))
    elements.extend(two_mode_gate_elements(_H, *target))
    return elements


def _dilate_contraction(w: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Smallest unitary with ``w`` as its top-left block.

    One extra mode is added per singular value of ``w`` below one; the
    extra columns (vacuum inputs) are an arbitrary orthonormal completion.
    """
    from scipy.linalg import null_space

    k = w.shape[0]
    gram = np.eye(k) - w.conj().T @ w
    vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    keep = vals > atol
    bottom = (vecs[:, keep] * np.sqrt(vals[keep])).conj().T
    isometry = np.vstack([w, bottom])
    completion = null_space(isometry.conj().T)
    return np.hstack([isometry, completion])


def _ccz_elements(
    pairs: Sequence[tuple[int, int]], ancillas: Sequence[int]
) -> list[CircuitElement]:
    """Postselected doubly-controlled phase flip on three rail-1 modes."""
    t = 1.0 / np.sqrt(1.0 + 2.0 ** (1.0 / 3.0) + 2.0 ** (2.0 / 3.0))
    kappa = 2.0 ** (1.0 / 3.0) * np.exp(1j * np.pi / 3.0)
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    core = _dilate_contraction(t * (np.eye(3) + kappa * cycle))
    elements: list[CircuitElement] = [
        DirectionalCoupler(pair[0], ancilla, t * t)
        for pair, ancilla in zip(pairs, ancillas[:3])
    ]
    rail1 = [pair[1] for pair in pairs]
    elements.extend(unitary_to_elements(core, [*rail1, ancillas[3]]))
    return elements


def logical_matrix(circuit: PhotonicCircuit, enc: QubitEncoding) -> np.ndarray:
    """Postselected transfer amplitudes between computational basis states.

    Entry (row, col) is the amplitude from the Fock state with photons on
    the rails of basis state col (all other modes empty) to the rails of
    basis state row.  For a correctly compiled gate this equals the gate
    unitary times a constant whose squared magnitude is the success
    probability.  Each entry is a permanent of an n x n block of the mode
    unitary (see :func:`_rail_amplitudes`), not a Fock simulation.
    """
    return _rail_amplitudes(circuit.unitary().matrix, enc)


def _rail_amplitudes(unitary: np.ndarray, enc: QubitEncoding) -> np.ndarray:
    """:func:`logical_matrix` of the mode unitary ``unitary``.

    A rail state holds one photon per qubit on distinct modes, so entry
    (row, col) is the permanent of the n x n block of ``unitary`` on the
    rails of row (rows) and of col (columns), with no factorial factor.
    All 4^n permanents go through Glynn's formula at once: the signed
    sums of each output's rail rows are formed once, over every mode,
    and each input reads its rail columns of them.  No n-photon basis is
    built.
    """
    n = enc.n_qubits
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rails = np.array(enc.qubit_pairs, dtype=np.intp)[np.arange(n), bits]
    deltas, signs = _glynn_deltas(n)
    sums = deltas @ unitary[rails]
    return signs @ np.prod(sums[:, :, rails], axis=-1) / (1 << (n - 1))


def encoding_input_state(
    enc: QubitEncoding, bits: Sequence[int] | None = None
) -> FockState:
    """Fock input with one photon per qubit on the rail of its bit."""
    if bits is None:
        bits = (0,) * enc.n_qubits
    if len(bits) != enc.n_qubits:
        raise ValueError("one bit per qubit required")
    modes = tuple(enc.rail(q, bit) for q, bit in enumerate(bits))
    return FockState.from_modes(enc.n_modes, modes)


def pauli_measurement_setting(word: str, enc: QubitEncoding) -> PhotonicCircuit:
    """Basis-change rotations so rail detection measures the Pauli word."""
    word = word.upper()
    if len(word) != enc.n_qubits:
        raise ValueError(f"word {word!r} does not match {enc.n_qubits} qubits")
    circuit = PhotonicCircuit(enc.n_modes)
    for q, pauli in enumerate(word):
        if pauli not in _MEAS_ROT:
            raise ValueError(f"bad Pauli letter {pauli!r}")
        rotation = _MEAS_ROT[pauli]
        if rotation is not _ID2:
            circuit.extend(two_mode_gate_elements(rotation, *enc.qubit_pairs[q]))
    return circuit


@dataclass(frozen=True, eq=False)
class _CompiledGate:
    """One gate boundary of a compiled circuit: the gate, its elements,
    and the state after it (read-only mode matrix, logical matrix,
    remaining ancilla pool, success product)."""

    gate: Gate
    elements: tuple[CircuitElement, ...]
    modes: np.ndarray
    logical: np.ndarray
    pool: tuple[int, ...]
    success: float


class GateCompiler:
    """Compiles gate circuits on one encoding, reusing the last circuit's work.

    The compiler records the last circuit it compiled, one entry per gate
    boundary.  A new circuit resumes from the longest prefix of gates
    equal to the record's (angles compared exactly; 0.0 and -0.0 are
    equal and decompose alike) and applies only the remaining gates'
    elements, in element order, onto a copy of the recorded mode matrix;
    the logical matrix is extended gate by gate the way
    :meth:`GateCircuit.logical_unitary` builds it.  Each product is
    therefore formed by the same operations in the same order as from
    scratch, and every result is bit-identical to a fresh compile.  Gates
    without an angle (H, T, CNOT, Toffoli) are decomposed once per
    compiler and ancilla assignment.  A rotation gate is looked up in the
    last circuit's rotations (keyed by :class:`Gate`, rebuilt on every
    compile, so it holds one circuit's worth) before it is decomposed, so
    an unchanged angle after the first changed gate is not decomposed
    again; the decomposition depends on the gate alone.  The compile
    check runs in full on every call.  The record is one circuit deep.
    """

    def __init__(self, enc: QubitEncoding):
        self.enc = enc
        self._record: list[_CompiledGate] = []
        self._fixed: dict[tuple[Gate, tuple[int, ...]], tuple[CircuitElement, ...]] = {}
        self._rotations: dict[Gate, tuple[CircuitElement, ...]] = {}

    def _decompose(self, gate: Gate, pool: list[int]) -> tuple[CircuitElement, ...]:
        """Elements of one gate; entangling gates take fresh ancillas from ``pool``."""
        enc = self.enc
        if gate.name in _ROTATION_GATES:
            if gate in self._rotations:
                return self._rotations[gate]
            mat = _single_qubit_matrix(gate)
            return tuple(two_mode_gate_elements(mat, *enc.qubit_pairs[gate.qubits[0]]))
        count = {"CNOT": 2, "TOFFOLI": 4}.get(gate.name, 0)
        ancillas = tuple(_allocate_ancillas(pool, count, gate))
        key = (gate, ancillas)
        if key not in self._fixed:
            pairs = [enc.qubit_pairs[q] for q in gate.qubits]
            if gate.name == "CNOT":
                elements = _cnot_elements(*pairs, ancillas)
            elif gate.name == "TOFFOLI":
                hadamard = two_mode_gate_elements(_H, *pairs[2])
                elements = [*hadamard, *_ccz_elements(pairs, ancillas), *hadamard]
            else:
                elements = two_mode_gate_elements(_single_qubit_matrix(gate), *pairs[0])
            self._fixed[key] = tuple(elements)
        return self._fixed[key]

    def compile(
        self, gc: GateCircuit
    ) -> tuple[PhotonicCircuit, PostselectionRule, float, ModeUnitary]:
        """Compile ``gc``; the result is that of :func:`compile_gate_circuit`."""
        enc = self.enc
        if enc.n_qubits != gc.n_qubits:
            raise CompilationError(
                f"encoding has {enc.n_qubits} qubits, circuit needs {gc.n_qubits}"
            )
        record = self._record
        kept = 0
        for step, gate in zip(record, gc.gates):
            if step.gate != gate:
                break
            kept += 1
        del record[kept:]
        if record:
            last = record[-1]
            modes, logical = last.modes.copy(), last.logical
            pool, success = list(last.pool), last.success
        else:
            modes = np.eye(enc.n_modes, dtype=complex)
            logical = np.eye(1 << gc.n_qubits, dtype=complex)
            pool, success = list(enc.ancilla_modes), 1.0
        for gate in gc.gates[kept:]:
            elements = self._decompose(gate, pool)
            for element in elements:
                _apply_element(modes, element)
            logical = _logical_step(logical, gate, gc.n_qubits)
            if gate.name == "CNOT":
                success *= CNOT_SUCCESS
            elif gate.name == "TOFFOLI":
                success *= TOFFOLI_SUCCESS
            frozen = modes.copy()
            frozen.setflags(write=False)
            logical.setflags(write=False)
            record.append(_CompiledGate(gate, elements, frozen, logical, tuple(pool), success))
        self._rotations = {
            step.gate: step.elements for step in record if step.gate.name in _ROTATION_GATES
        }

        realized = _rail_amplitudes(modes, enc)
        anchor = np.unravel_index(np.argmax(np.abs(logical)), logical.shape)
        scale = realized[anchor] / logical[anchor]
        deviation = float(np.max(np.abs(realized - scale * logical)))
        weight = float(abs(scale) ** 2)
        if not (deviation <= 1e-9 and abs(weight - success) <= 1e-9):
            raise CompilationError(
                f"compiled circuit deviates from the logical unitary by {deviation:.2e}"
                f" (tolerance 1e-9) and has success weight {weight:.6g} against the"
                f" expected {success:.6g}"
            )

        elements = [element for step in record for element in step.elements]
        if gc.measurement is not None:
            setting = pauli_measurement_setting(gc.measurement, enc).elements
            for element in setting:
                _apply_element(modes, element)
            elements.extend(setting)
        rule = PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)
        return PhotonicCircuit(enc.n_modes, elements), rule, success, ModeUnitary(modes)


def compile_gate_circuit(
    gc: GateCircuit, enc: QubitEncoding | None = None
) -> tuple[PhotonicCircuit, PostselectionRule, float, ModeUnitary]:
    """Compile a gate circuit to mode elements plus its postselection rule.

    This is one :class:`GateCompiler` used once, so nothing is reused.  A
    caller compiling many circuits that share leading gates should hold
    a compiler instead; its results are bit-identical to this function's.
    Entangling gates draw fresh ancilla modes from the encoding pool so
    their postselected actions compose exactly; running out of ancillas
    raises ``CompilationError``.  The compiled circuit's unitary is built
    once: the check against the circuit's logical unitary reads it, and
    it is returned as the last item, so a caller need not build it again.
    The check compares the logical matrix of that unitary, 4^n rail
    permanents (:func:`logical_matrix`), with the gate product up to one
    constant, to 1e-9, and the constant's squared magnitude with the
    expected success probability.
    With a measurement word, the word's rotations are applied onto the
    checked matrix in element order, which gives exactly the matrix of
    the returned circuit's ``unitary()``.  The returned success
    probability is the postselection weight, independent of the input
    state (1/9 per CNOT, (2^(1/3)-1)^3 per Toffoli).
    """
    if enc is None:
        enc = QubitEncoding.default(gc.n_qubits)
    return GateCompiler(enc).compile(gc)


# ---------------------------------------------------------------------------
# GHZ factory

#: Input modes of the six photons feeding the factory.
GHZ_INPUT_MODES = (1, 2, 5, 6, 9, 10)

#: Detector modes whose click pattern heralds the generated state.
GHZ_HERALD_MODES = (2, 3, 4, 7, 8, 9)

#: Rail pairs of the three output qubits the factory leaves.
GHZ_OUTPUT_PAIRS = ((0, 1), (5, 6), (10, 11))

#: Rail pairs of the measured (fused) qubits inside the herald modes.
_GHZ_MEASURED_PAIRS = ((2, 3), (4, 7), (8, 9))

#: Paper-style names of the plus-sign heralds by fusion click pattern.
_GHZ_PLUS_NAMES = {(0, 0, 0): "h5", (0, 1, 1): "h3", (1, 0, 1): "h8", (1, 1, 0): "h2"}

#: Measurement settings from which all eight stabilizers are available.
GHZ_MEASUREMENT_SETTINGS = ("XXX", "ZZZ", "YYX", "XYY", "YXY")

_GHZ_STABILIZER_SIGNS = {
    "III": 1.0,
    "XXX": 1.0,
    "ZZI": 1.0,
    "IZZ": 1.0,
    "ZIZ": 1.0,
    "YYX": -1.0,
    "XYY": -1.0,
    "YXY": -1.0,
}


@dataclass(frozen=True)
class HeraldPattern:
    """One herald: exact occupations on the detector modes and the sign
    (+1 or -1) of the three-qubit state |000> + sign |111> it flags."""

    name: str
    occupations: tuple[tuple[int, int], ...]
    sign: int

    def rule(self, threshold: bool = False) -> PostselectionRule:
        return PostselectionRule(
            GHZ_OUTPUT_PAIRS, heralds=(self.occupations,), threshold=threshold
        )


def ghz_input_state() -> FockState:
    return FockState.from_modes(12, GHZ_INPUT_MODES)


def _ghz_elements() -> list[CircuitElement]:
    """Six-photon GHZ factory built from a cyclic parity filter.

    The twelve modes form six adjacent rail pairs.  Every photon is
    rotated to an equal superposition of its pair, the rail-1 modes are
    cyclically shifted by one pair (five swaps), and postselecting one
    photon per pair then only keeps the all-0 and all-1 terms: a six-qubit
    GHZ state.  Fusion rotations on the three odd pairs convert them into
    heralds, and the sign of each herald is the parity of its rail-1
    clicks.  A final routing layer moves the surviving qubits onto the
    output pairs (0,1), (5,6), (10,11).
    """
    elements: list[CircuitElement] = []
    for q in range(6):
        rail0, rail1 = 2 * q, 2 * q + 1
        # photons enter rail 1 on even pairs, rail 0 on odd pairs
        prep = _H @ _X if q % 2 == 0 else _H
        elements.extend(two_mode_gate_elements(prep, rail0, rail1))
    for j in range(5):
        targets = list(range(12))
        a, b = 2 * j + 1, 2 * j + 3
        targets[a], targets[b] = b, a
        elements.append(ModePermutation(tuple(targets)))
    for q in (1, 3, 5):
        elements.extend(two_mode_gate_elements(_H, 2 * q, 2 * q + 1))
    targets = list(range(12))
    for src, dst in ((4, 5), (5, 6), (6, 4), (8, 10), (9, 11), (10, 8), (11, 9)):
        targets[src] = dst
    elements.append(ModePermutation(tuple(targets)))
    return elements


def ghz_factory() -> tuple[PhotonicCircuit, tuple[HeraldPattern, ...], QubitEncoding]:
    """Heralded three-photon GHZ generation on twelve modes.

    Six photons enter on ``GHZ_INPUT_MODES``; three are detected on the
    herald modes and the other three leave as dual-rail qubits on pairs
    (0,1), (5,6) and (10,11).  Each of the eight herald patterns occurs
    with probability 1/256 and flags (|000> + sign |111>)/sqrt(2); the
    plus-sign heralds are h2, h3, h5 and h8.
    """
    circuit = PhotonicCircuit(12).extend(_ghz_elements())
    encoding = QubitEncoding(GHZ_OUTPUT_PAIRS, (), 12)

    plus: list[HeraldPattern] = []
    minus: list[tuple[tuple[int, int], ...]] = []
    for clicks in np.ndindex(2, 2, 2):
        occ = {}
        for (r0, r1), click in zip(_GHZ_MEASURED_PAIRS, clicks):
            occ[r0] = 1 - click
            occ[r1] = click
        occupations = tuple((mode, occ[mode]) for mode in GHZ_HERALD_MODES)
        if sum(clicks) % 2 == 0:
            plus.append(HeraldPattern(_GHZ_PLUS_NAMES[tuple(clicks)], occupations, 1))
        else:
            minus.append(occupations)

    # the minus-sign heralds take the remaining names in ascending order
    # of their occupation tuples
    minus.sort(key=lambda occs: tuple(count for _, count in occs))
    plus.extend(
        HeraldPattern(name, occupations, -1)
        for name, occupations in zip(("h1", "h4", "h6", "h7"), minus)
    )
    heralds = tuple(sorted(plus, key=lambda h: int(h.name[1:])))
    return circuit, heralds, encoding


def ghz_postselection(
    heralds: Sequence[HeraldPattern], sign: int = 1, threshold: bool = False
) -> PostselectionRule:
    """Pooled rule accepting every herald of the given sign."""
    selected = tuple(h.occupations for h in heralds if h.sign == sign)
    if not selected:
        raise ValueError(f"no herald with sign {sign}")
    return PostselectionRule(GHZ_OUTPUT_PAIRS, heralds=selected, threshold=threshold)


def _ghz_expectations(logical: Mapping[str, np.ndarray]) -> dict[str, float]:
    """The eight stabilizers from each setting's logical vector, qubit 0 first.

    A word made of Z and I letters is read from the ZZZ setting, every
    other word from the setting of the same name.
    """
    expectations = {"III": 1.0}
    for word in list(_GHZ_STABILIZER_SIGNS)[1:]:
        setting = "ZZZ" if set(word) <= {"Z", "I"} else word
        expectations[word] = float(_pauli_signs(word) @ logical[setting])
    return expectations


def ghz_fidelity(expectations: Mapping[str, float]) -> float:
    """Fidelity to (|000> + |111>)/sqrt(2) as the stabilizer average.

    Requires all eight expectations, keyed by the unsigned words; the
    three Y-containing stabilizers enter with a minus sign.
    """
    missing = [word for word in _GHZ_STABILIZER_SIGNS if word not in expectations]
    if missing:
        raise ValueError(f"missing stabilizer expectations: {missing}")
    return sum(
        sign * expectations[word] for word, sign in _GHZ_STABILIZER_SIGNS.items()
    ) / len(_GHZ_STABILIZER_SIGNS)


def ghz_noisy_fidelity(source: SourceModel | None = None) -> tuple[float, dict[str, float]]:
    """GHZ fidelity of the factory, pooled over the h+ heralds.

    ``source`` is the photon source (None for ideal photons).  Each of
    the five measurement settings is read with threshold detection in
    one :func:`logical_distributions` call (a batch of five is slower on
    the noisy 12-mode sectors); the two-qubit Z words are parity
    marginals of the ZZZ readout.  Returns the stabilizer-average
    fidelity together with the eight expectations.
    """
    circuit, heralds, encoding = ghz_factory()
    rule = ghz_postselection(heralds, sign=1, threshold=True)
    logical = {}
    for word in GHZ_MEASUREMENT_SETTINGS:
        setting = PhotonicCircuit(12).extend(circuit.elements)
        setting.extend(pauli_measurement_setting(word, encoding).elements)
        unitary = setting.unitary().matrix[None]
        logical[word] = logical_distributions(unitary, GHZ_INPUT_MODES, rule, source)[0]
    expectations = _ghz_expectations(logical)
    return ghz_fidelity(expectations), expectations
