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
(:meth:`lopsim.fock.OutputDistribution.outcomes`, simulated or sampled
counts alike): one vectorized readout gives the
acceptance mask and the logical index of every row, and the logical
distribution is a weighted ``bincount`` of the accepted indices.
:func:`logical_distributions` is the one batched path from
interferometers to postselected logical distributions, for any source
(the perfect one by default), reading each sector through a cached
table of its accepted rows: the F_avg executor, the GHZ fidelity and
the VQE ansatz call it, and Pauli and stabilizer expectations are sign
vectors applied to its rows.  Only the VQE mitigation columns still read
each circuit out of its Fock distribution with :func:`logical_distribution`.

:func:`compile_gate_circuit` compiles any gate circuit through bounded
``lru_cache`` tables (each gate's elements and 2x2 matrix, each checked
gate list, each measurement word) and one bounded store of compiled step
prefixes.  The VQE ansatz binds its angle rows into the same tables and
the same compile routine (:func:`_compiled_rows`), which builds the
rows' common prefix once and the rest side by side.  The module also
owns the 2x2 gate constants that other modules import.
"""

from __future__ import annotations

import operator
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from lopsim.fock import (
    ModeUnitary,
    OutputDistribution,
    _glynn_deltas,
    enumerate_basis,
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
    "compile_gate_circuit",
    "encoding_input_modes",
    "pauli_measurement_setting",
    "logical_distribution",
    "logical_distributions",
    "ghz_factory",
    "ghz_postselection",
    "ghz_fidelity",
    "ghz_noisy_fidelity",
]


class CompilationError(ValueError):
    """Raised when a gate circuit cannot be mapped onto the mode budget."""


CNOT_SUCCESS = 1.0 / 9.0
TOFFOLI_SUCCESS = (2.0 ** (1.0 / 3.0) - 1.0) ** 3

#: A singular value s of a contraction adds a vacuum mode in
#: :func:`_dilate_contraction` when ``1 - s^2`` exceeds this.
DILATION_ATOL = 1e-12

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
    start and must end in vacuum.  Each mode, and ``n_modes``, is taken
    through ``operator.index``, so a float raises ``TypeError``.
    """

    qubit_pairs: tuple[tuple[int, int], ...]
    ancilla_modes: tuple[int, ...] = ()
    n_modes: int = 0

    def __post_init__(self) -> None:
        pairs = tuple((operator.index(a), operator.index(b)) for a, b in self.qubit_pairs)
        ancillas = tuple(map(operator.index, self.ancilla_modes))
        object.__setattr__(self, "qubit_pairs", pairs)
        object.__setattr__(self, "ancilla_modes", ancillas)
        used = [mode for pair in pairs for mode in pair] + list(ancillas)
        if len(set(used)) != len(used):
            raise ValueError("rail and ancilla modes must be disjoint")
        n_modes = self.n_modes if self.n_modes else (max(used) + 1 if used else 0)
        object.__setattr__(self, "n_modes", operator.index(n_modes))
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
    """One gate application: a name, target qubits and an optional angle.

    Each qubit index is taken through ``operator.index``, so a float raises
    ``TypeError``.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "qubits", tuple(map(operator.index, self.qubits)))
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
            angle = float(self.angle)
            if not np.isfinite(angle):
                raise ValueError(f"{name} angle must be finite, got {angle}")
            object.__setattr__(self, "angle", angle)
        elif self.angle is not None:
            raise ValueError(f"{name} takes no angle")


@lru_cache(maxsize=256)
def _gate_matrix(name: str, angle: float | None) -> np.ndarray:
    """Read-only 2x2 matrix of a single-qubit gate: its elements and the check read it."""
    if name in ("H", "T"):
        return _H if name == "H" else _T
    half = angle / 2.0
    cos, sin = np.cos(half), np.sin(half)
    if name == "RX":
        matrix = np.array([[cos, -1j * sin], [-1j * sin, cos]])
    elif name == "RY":
        matrix = np.array([[cos, -sin], [sin, cos]])
    else:
        matrix = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    matrix.setflags(write=False)
    return matrix


def _logical_matrix(n: int, steps: Sequence[tuple], start: np.ndarray | None = None) -> np.ndarray:
    """The 2^n x 2^n unitary of (name, qubits, angle) steps (qubit 0 = leftmost bit).

    A 2x2 matrix contracts with its qubit's row axis; a CNOT or Toffoli
    flips the target bit of the rows where every control is 1.  With
    ``start``, any ``(2^n, X)`` array, the steps act on it instead of on
    the identity.
    """
    dim = 1 << n
    u = np.eye(dim, dtype=complex) if start is None else start
    index = np.arange(dim)
    for name, qubits, angle in steps:
        if name in ("CNOT", "TOFFOLI"):
            *controls, target = qubits
            fire = np.all([(index >> (n - 1 - c)) & 1 for c in controls], axis=0)
            u = u[index ^ (fire << (n - 1 - target))]
        else:
            u = (_gate_matrix(name, angle) @ u.reshape(1 << qubits[0], 2, -1)).reshape(dim, -1)
    return u


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
        return _logical_matrix(self.n_qubits, [(g.name, g.qubits, g.angle) for g in self.gates])

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


# ---------------------------------------------------------------------------
# Postselection


@dataclass(frozen=True)
class PostselectionRule:
    """Accepts output states with one photon per rail pair.

    ``vacuum_modes`` must carry no photon.  ``heralds``, when present, is
    a tuple of alternative herald patterns; each pattern fixes the exact
    photon count on a set of modes and the state must match one of them.
    With ``threshold`` the rule only distinguishes click from no-click on
    every mode, which is what threshold detectors resolve.  Every mode
    and herald count is taken through ``operator.index`` (a float raises
    ``TypeError``), and every mode the rule reads must be nonnegative.
    Fields given as lists are stored as tuples, so a rule built from
    lists equals and hashes as its tuple rule.
    """

    qubit_pairs: tuple[tuple[int, int], ...]
    vacuum_modes: tuple[int, ...] = ()
    heralds: tuple[tuple[tuple[int, int], ...], ...] = ()
    threshold: bool = False

    def __post_init__(self) -> None:
        pairs = tuple(tuple(map(operator.index, pair)) for pair in self.qubit_pairs)
        object.__setattr__(self, "qubit_pairs", pairs)
        object.__setattr__(self, "vacuum_modes", tuple(map(operator.index, self.vacuum_modes)))
        heralds = tuple(
            tuple(tuple(map(operator.index, entry)) for entry in pattern) for pattern in self.heralds
        )
        object.__setattr__(self, "heralds", heralds)
        negative = [mode for mode in self._modes() if mode < 0]
        if negative:
            raise ValueError(f"postselection modes must be nonnegative, got {negative}")

    def _modes(self) -> list[int]:
        """Every mode the rule reads: rails, vacuum modes and herald modes."""
        return [
            *(mode for pair in self.qubit_pairs for mode in pair),
            *self.vacuum_modes,
            *(mode for pattern in self.heralds for mode, _ in pattern),
        ]

    def readout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Acceptance mask and logical index of each occupation row.

        ``rows`` is a ``(K, m)`` occupation array; the index reads qubit
        0 as the most significant bit and is meaningful only where the
        mask is set.  A rule mode at or past m raises ``ValueError``.
        """
        rows = np.asarray(rows)
        outside = [mode for mode in self._modes() if mode >= rows.shape[1]]
        if outside:
            raise ValueError(f"rule reads modes {outside}, rows have {rows.shape[1]} modes")
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


@lru_cache(maxsize=32)
def _readout_table(rule: PostselectionRule, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Accepted row positions in ``enumerate_basis(m, n)`` and their logical indices, read-only."""
    accepted, index = rule.readout(enumerate_basis(m, n).occupations)
    table = (np.flatnonzero(accepted), index[accepted])
    for array in table:
        array.setflags(write=False)
    return table


def logical_distribution(
    distribution: OutputDistribution, rule: PostselectionRule
) -> tuple[np.ndarray, float]:
    """Postselected logical distribution and its total weight.

    The probabilities come as an array of shape ``(2,) * n_qubits``,
    indexed by the bits (``probs[(1, 0)]``), normalized over the accepted
    outcomes; ``probs.ravel()`` is the vector with qubit 0 as the most
    significant bit.  The weight is the accepted mass: the unnormalized
    probability of acceptance, or the accepted shots of sampled counts.
    """
    rows, values = distribution.outcomes()
    accepted, index = rule.readout(rows)
    raw = np.bincount(index[accepted], weights=values[accepted], minlength=1 << len(rule.qubit_pairs))
    weight = float(raw.sum())
    if weight <= 0.0:
        raise ValueError("no outcomes pass the postselection rule")
    return (raw / weight).reshape((2,) * len(rule.qubit_pairs)), weight


def logical_distributions(
    unitaries: np.ndarray,
    input_modes: Sequence[int],
    rule: PostselectionRule,
    source: SourceModel = SourceModel(),
) -> np.ndarray:
    """Postselected logical distributions of B interferometers, ``(B, 2^n)``.

    This is the dual-rail readout path of the F_avg plans, the GHZ
    factory and the VQE ansatz.  ``unitaries`` is a ``(B, m, m)`` stack,
    each fed by one trigger of ``source`` per mode of ``input_modes``
    (integers: a float mode raises ``TypeError``), through one
    :func:`~lopsim.sources.batched_noisy_sectors` trigger sum; the
    default perfect source is the ideal simulator, bit for bit.  Each
    photon-number sector is read for all B columns through one cached
    table of its accepted rows (:func:`_readout_table`); row b is the
    normalized logical vector of unitary b, qubit 0 the most significant
    bit.
    """
    unitaries = np.asarray(unitaries, dtype=complex)
    m = unitaries.shape[1]
    labeled = build_input(len(input_modes), source, input_modes)
    sectors, _ = batched_noisy_sectors(unitaries, labeled)
    dim, batch = 1 << len(rule.qubit_pairs), len(unitaries)
    raw = np.zeros(dim * batch)
    for n, vec in sectors.items():
        kept, index = _readout_table(rule, m, n)
        # one weighted bincount over (index, column) bins: each bin sums its rows in order
        bins = (index[:, None] * batch + np.arange(batch)).ravel()
        raw += np.bincount(bins, weights=vec[kept].ravel(), minlength=dim * batch)
    # rows contiguous, so each weight sums as logical_distribution's does
    raw = np.ascontiguousarray(raw.reshape(dim, batch).T)
    weight = raw.sum(axis=1, keepdims=True)
    if not (weight > 0.0).all():
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


def _dilate_contraction(w: np.ndarray) -> np.ndarray:
    """Smallest unitary with ``w`` as its top-left block.

    One extra mode is added per singular value of ``w`` below one (by more
    than ``DILATION_ATOL`` in ``1 - s^2``); the extra columns (vacuum
    inputs) are an arbitrary orthonormal completion.
    """
    from scipy.linalg import null_space

    k = w.shape[0]
    gram = np.eye(k) - w.conj().T @ w
    vals, vecs = np.linalg.eigh(gram)
    vals = np.clip(vals, 0.0, None)
    keep = vals > DILATION_ATOL
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


def _rail_amplitudes(unitary: np.ndarray, enc: QubitEncoding) -> np.ndarray:
    """Postselected transfer amplitudes of ``unitary`` between basis states.

    Entry (row, col) is the amplitude from one photon on each rail of
    basis state col (all other modes empty) to the rails of basis state
    row: the permanent of the n x n block of ``unitary`` on those rails,
    with no factorial factor.  For a correctly compiled gate this is the
    gate unitary times a constant whose squared magnitude is the success
    probability.  All 4^n permanents go through Glynn's formula at once:
    the signed sums of each output's rail rows are formed once, over
    every mode, and each input reads its rail columns of them.  No
    n-photon basis is built.  A ``(K, m, m)`` stack gives ``(K, 2^n, 2^n)``.
    """
    n = enc.n_qubits
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    rails = np.array(enc.qubit_pairs, dtype=np.intp)[np.arange(n), bits]
    deltas, signs = _glynn_deltas(n)
    sums = deltas @ unitary[..., rails, :]
    return signs @ np.prod(sums[..., rails], axis=-1) / (1 << (n - 1))


def encoding_input_modes(enc: QubitEncoding) -> tuple[int, ...]:
    """Input modes of the all-zero state: one photon per qubit on its rail 0, qubit 0 first."""
    return tuple(enc.rail(q, 0) for q in range(enc.n_qubits))


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


@lru_cache(maxsize=256)
def _gate_elements(
    step: tuple, qubit_pairs: tuple[tuple[int, int], ...], ancillas: tuple[int, ...]
) -> tuple[CircuitElement, ...]:
    """Elements of one gate step on its qubits' rail pairs; entangling gates use ``ancillas``."""
    name, qubits, angle = step
    pairs = [qubit_pairs[q] for q in qubits]
    if name == "CNOT":
        return tuple(_cnot_elements(*pairs, ancillas))
    if name == "TOFFOLI":
        hadamard = two_mode_gate_elements(_H, *pairs[2])
        return (*hadamard, *_ccz_elements(pairs, ancillas), *hadamard)
    return tuple(two_mode_gate_elements(_gate_matrix(name, angle), *pairs[0]))


def _step(
    step: tuple, enc: QubitEncoding, pool: tuple[int, ...]
) -> tuple[tuple[CircuitElement, ...], tuple[int, ...], float]:
    """Elements of one step, the ancilla pool it leaves and its success factor.

    An entangling gate takes the next fresh ancillas of ``pool``; running
    out raises ``CompilationError``.
    """
    name = step[0]
    count = {"CNOT": 2, "TOFFOLI": 4}.get(name, 0)
    if len(pool) < count:
        raise CompilationError(
            f"mode budget exceeded: {name} needs {count} fresh ancilla"
            f" modes, {len(pool)} left"
        )
    factor = {"CNOT": CNOT_SUCCESS, "TOFFOLI": TOFFOLI_SUCCESS}.get(name, 1.0)
    return _gate_elements(step, enc.qubit_pairs, pool[:count]), pool[count:], factor


class _Prefix(NamedTuple):
    """A compiled step prefix; ``checked`` if it passed the check as a whole list."""

    matrix: np.ndarray
    logical: np.ndarray
    pool: tuple[int, ...]
    success: float
    checked: bool


class _StoreInfo(NamedTuple):
    maxsize: int
    currsize: int


class _PrefixStore:
    """Bounded LRU store of compiled step prefixes, keyed by (steps, encoding)."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _Prefix] = OrderedDict()
        self._lengths: Counter[int] = Counter()  # stored keys per step count

    def get(self, steps: tuple[tuple, ...], enc: QubitEncoding) -> _Prefix | None:
        entry = self._entries.get((steps, enc))
        if entry is not None:
            self._entries.move_to_end((steps, enc))
        return entry

    def longest(self, steps: tuple[tuple, ...], enc: QubitEncoding) -> tuple[int, _Prefix | None]:
        """The longest stored prefix of ``steps`` and its length, or ``(0, None)``."""
        # probe only the lengths stored keys have: a long list is not sliced at every length
        for n in sorted((n for n in self._lengths if n <= len(steps)), reverse=True):
            entry = self.get(steps[:n], enc)
            if entry is not None:
                return n, entry
        return 0, None

    def put(self, steps: tuple[tuple, ...], enc: QubitEncoding, entry: _Prefix) -> None:
        if (steps, enc) not in self._entries:
            self._lengths[len(steps)] += 1
        self._entries[(steps, enc)] = entry
        self._entries.move_to_end((steps, enc))
        if len(self._entries) > self.maxsize:
            (old, _), _ = self._entries.popitem(last=False)
            self._lengths[len(old)] -= 1
            if not self._lengths[len(old)]:
                del self._lengths[len(old)]

    def cache_clear(self) -> None:
        self._entries.clear()
        self._lengths.clear()

    def cache_info(self) -> _StoreInfo:
        return _StoreInfo(self.maxsize, len(self._entries))


#: Every compiled step prefix that :func:`_compiled_rows` builds on.
_PREFIXES = _PrefixStore(maxsize=64)


def _prefix(steps: tuple[tuple, ...], enc: QubitEncoding) -> _Prefix:
    """The stored compile of ``steps``, built and stored on its longest stored prefix.

    A step past the mode budget raises before anything is stored.
    """
    start, entry = _PREFIXES.longest(steps, enc)
    if entry is None:
        eye = np.eye(enc.n_modes, dtype=complex), np.eye(1 << enc.n_qubits, dtype=complex)
        entry = _Prefix(*eye, enc.ancilla_modes, 1.0, False)
    elif start == len(steps):
        return entry
    modes, pool, success = entry.matrix.copy(), entry.pool, entry.success
    logical = _logical_matrix(enc.n_qubits, steps[start:], entry.logical)
    for step in steps[start:]:
        elements, pool, factor = _step(step, enc, pool)
        for element in elements:
            _apply_element(modes, element)
        success *= factor
    modes.setflags(write=False)
    logical.setflags(write=False)
    entry = _Prefix(modes, logical, pool, success, False)
    if steps:
        _PREFIXES.put(steps, enc, entry)
    return entry


def _common_prefix(rows: Sequence[tuple[tuple, ...]]) -> int:
    """Number of leading steps that all rows share."""
    head = 0
    while all(head < len(row) and row[head] == rows[0][head] for row in rows):
        head += 1
    return head


def _check(
    enc: QubitEncoding, modes: np.ndarray, logical: np.ndarray, successes: Sequence[float]
) -> None:
    """Raise ``CompilationError`` unless each mode matrix ``modes[i]`` realizes ``logical[i]``.

    Each row's 4^n rail permanents (:func:`_rail_amplitudes`, one call
    for the K rows) must match its logical matrix up to one constant, to
    1e-9, and the constant's squared magnitude its success product.
    """
    rows = np.arange(len(modes))
    realized = _rail_amplitudes(modes, enc).reshape(len(rows), -1)
    flat = logical.reshape(len(rows), -1)
    anchor = np.abs(flat).argmax(axis=1)
    scale = realized[rows, anchor] / flat[rows, anchor]
    deviation = np.max(np.abs(realized - scale[:, None] * flat), axis=1)
    weight = np.abs(scale) ** 2
    passed = (deviation <= 1e-9) & (np.abs(weight - successes) <= 1e-9)
    if not passed.all():
        i = int(np.argmin(passed))
        raise CompilationError(
            f"compiled circuit deviates from the logical unitary by {deviation[i]:.2e}"
            f" (tolerance 1e-9) and has success weight {weight[i]:.6g} against the"
            f" expected {successes[i]:.6g}"
        )


def _compiled_rows(
    rows: Sequence[tuple[tuple, ...]], enc: QubitEncoding
) -> tuple[np.ndarray, list[float]]:
    """Checked mode matrices of K step lists of one length side by side,
    ``(m, K*m)``, and their success products.

    The one compile routine, of :func:`_checked_gates` (K = 1) and the
    VQE ansatz stacks.  The rows' common prefix comes from the store
    (:func:`_prefix`).  After it, a step the same in every row (drawing
    the same ancillas) is applied once to the whole array, and one on
    which the rows differ to each row's own column block, so every entry
    is bit for bit the element-by-element product; the logical matrices
    go alongside.  The distinct rows not yet checked are checked together
    and stored as checked; a failing stack stores none as checked.
    """
    n, m, d, k = enc.n_qubits, enc.n_modes, 1 << enc.n_qubits, len(rows)
    stored = [_PREFIXES.get(row, enc) for row in rows]
    if all(entry is not None and entry.checked for entry in stored):
        return np.hstack([entry.matrix for entry in stored]), [entry.success for entry in stored]
    head = _common_prefix(rows)
    base = _prefix(rows[0][:head], enc)
    wide, logical = np.tile(base.matrix, k), np.tile(base.logical, k)
    pools, successes = [base.pool] * k, [base.success] * k
    for j in range(head, len(rows[0])):
        steps = [row[j] for row in rows]
        if len(set(zip(steps, pools))) == 1:
            groups = [(range(k), slice(None), slice(None))]
        else:
            groups = [((i,), slice(i * m, (i + 1) * m), slice(i * d, (i + 1) * d)) for i in range(k)]
        for members, columns, logical_columns in groups:
            step, target = steps[members[0]], wide[:, columns]
            elements, pool, factor = _step(step, enc, pools[members[0]])
            for element in elements:
                _apply_element(target, element)
            logical[:, logical_columns] = _logical_matrix(n, (step,), logical[:, logical_columns])
            for i in members:
                pools[i], successes[i] = pool, successes[i] * factor
    new = {row: i for i, row in enumerate(rows) if stored[i] is None or not stored[i].checked}
    picked = list(new.values())
    blocks = wide.reshape(m, k, m).transpose(1, 0, 2)[picked]
    logicals = logical.reshape(d, k, d).transpose(1, 0, 2)[picked]
    _check(enc, blocks, logicals, [successes[i] for i in picked])
    blocks.setflags(write=False)
    logicals.setflags(write=False)
    for row, i, block, row_logical in zip(new, picked, blocks, logicals):
        _PREFIXES.put(row, enc, _Prefix(block, row_logical, pools[i], successes[i], True))
    return wide, successes


@lru_cache(maxsize=64)
def _checked_gates(
    steps: tuple[tuple, ...], enc: QubitEncoding
) -> tuple[tuple[CircuitElement, ...], ModeUnitary, float]:
    """Elements, mode unitary and success product of (name, qubits, angle) steps.

    The K = 1 case of :func:`_compiled_rows`: entangling gates take fresh
    ancillas from the encoding pool in step order, and the list is
    checked against its logical unitary once.  A failing list raises
    uncached, a repeated one gets back the unitary its check passed.
    """
    modes, [success] = _compiled_rows((steps,), enc)
    elements: list[CircuitElement] = []
    pool = enc.ancilla_modes
    for step in steps:
        step_elements, pool, _ = _step(step, enc, pool)
        elements.extend(step_elements)
    return tuple(elements), ModeUnitary(modes), success


@lru_cache(maxsize=16)
def _setting_elements(word: str, enc: QubitEncoding) -> tuple[CircuitElement, ...]:
    """Elements of the basis-change rotations of one measurement word."""
    return tuple(pauli_measurement_setting(word, enc).elements)


def _rotated(unitary: ModeUnitary, setting: Sequence[CircuitElement]) -> ModeUnitary:
    """``unitary`` followed by a word's rotation elements, applied to a copy; as is without any."""
    if not setting:
        return unitary
    modes = unitary.matrix.copy()
    for element in setting:
        _apply_element(modes, element)
    return ModeUnitary(modes)


def _setting_unitaries(
    rows: Sequence[tuple[tuple, ...]], words: Sequence[str], enc: QubitEncoding
) -> np.ndarray:
    """Read-only ``(K*W, m, m)`` stack: entry ``k*W + w`` is row k's compile
    followed by word w's rotations, bit for bit :func:`compile_gate_circuit`'s.

    Each word's rotations are applied once to a copy of the whole
    side-by-side array (:func:`_compiled_rows`).
    """
    wide, _ = _compiled_rows(rows, enc)
    m = enc.n_modes
    settings = []
    for word in words:
        setting = _setting_elements(word, enc)
        rotated = wide.copy() if setting else wide
        for element in setting:
            _apply_element(rotated, element)
        settings.append(rotated.reshape(m, len(rows), m))
    stack = np.stack(settings, axis=1).transpose(2, 1, 0, 3).reshape(-1, m, m)
    stack.setflags(write=False)
    return stack


def compile_gate_circuit(
    gc: GateCircuit, enc: QubitEncoding | None = None
) -> tuple[PhotonicCircuit, PostselectionRule, float, ModeUnitary]:
    """Compile a gate circuit to mode elements plus its postselection rule.

    Entangling gates draw fresh ancilla modes from the encoding pool so
    their postselected actions compose exactly; running out of ancillas
    raises ``CompilationError``.  Every distinct gate list is checked
    against its logical unitary (:func:`_checked_gates`, which caches
    it), on the longest prefix of the list that the compiled-prefix store
    holds.  The compiled circuit's unitary, exactly its ``unitary()``, is
    returned as the last item (:func:`_rotated`).  The success
    probability is the postselection weight, independent of the input
    state (1/9 per CNOT, (2^(1/3)-1)^3 per Toffoli).
    """
    if enc is None:
        enc = QubitEncoding.default(gc.n_qubits)
    if enc.n_qubits != gc.n_qubits:
        raise CompilationError(
            f"encoding has {enc.n_qubits} qubits, circuit needs {gc.n_qubits}"
        )
    steps = tuple((g.name, g.qubits, g.angle) for g in gc.gates)
    gate_elements, unitary, success = _checked_gates(steps, enc)
    setting = _setting_elements(gc.measurement, enc) if gc.measurement else ()
    rule = PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)
    circuit = PhotonicCircuit(enc.n_modes, [*gate_elements, *setting])
    return circuit, rule, success, _rotated(unitary, setting)


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
    """One herald: exact occupations on the detector modes and the sign (+1
    or -1) of the state |000> + sign |111> it flags, jointly with one
    photon in each output pair only (see :func:`ghz_factory`)."""

    name: str
    occupations: tuple[tuple[int, int], ...]
    sign: int


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
    (0,1), (5,6) and (10,11).  With ideal photons and photon-number
    detection each of the eight herald patterns occurs with probability
    1/64, and with one photon in each output pair as well (a qubit weight
    of 1/4) with probability 1/256; only then does it flag (|000> + sign
    |111>)/sqrt(2).  The plus-sign heralds are h2, h3, h5 and h8.
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
    heralds: Sequence[HeraldPattern], threshold: bool = False
) -> PostselectionRule:
    """Pooled rule accepting every plus-sign herald."""
    selected = tuple(h.occupations for h in heralds if h.sign == 1)
    if not selected:
        raise ValueError("no herald with sign 1")
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


def ghz_noisy_fidelity(source: SourceModel = SourceModel()) -> tuple[float, dict[str, float]]:
    """GHZ fidelity of the factory, pooled over the h+ heralds.

    ``source`` is the photon source (perfect by default).  The
    factory unitary is built once; each of the five measurement words
    rotates a copy of it (:func:`_rotated`), which is read with
    threshold detection in one :func:`logical_distributions` call (a
    batch of five is slower on the noisy 12-mode sectors); the two-qubit
    Z words are parity marginals of the ZZZ readout.  Returns the
    stabilizer-average fidelity together with the eight expectations.
    """
    circuit, heralds, encoding = ghz_factory()
    rule = ghz_postselection(heralds, threshold=True)
    base = circuit.unitary()
    logical = {}
    for word in GHZ_MEASUREMENT_SETTINGS:
        unitary = _rotated(base, _setting_elements(word, encoding)).matrix[None]
        logical[word] = logical_distributions(unitary, GHZ_INPUT_MODES, rule, source)[0]
    expectations = _ghz_expectations(logical)
    return ghz_fidelity(expectations), expectations
