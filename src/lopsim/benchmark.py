"""Symmetry-based average-gate-fidelity benchmarking for few-qubit gates.

A gate benchmark reduces the average fidelity of a noisy n-qubit gate to a
weighted sum of Pauli correlations measured over separable preparations
drawn from {|0>, |1>, |+>, |+i>} per qubit.  ``build_plan`` derives the
weights from the 16^n correlation system, which is the n-fold Kronecker
product of one 16 x 16 one-qubit system and so is solved one qubit at a
time, ``estimate_favg`` executes a plan against a simulator backend in
one call that carries every configuration (:data:`Executor`;
:func:`photonic_executor` simulates that batch as one stack of
interferometers).

Two estimator functionals are supported.  The ``tabulated`` route solves
the swap-paired estimator used by the reference plan tables; it agrees
with the exact average fidelity on the ideal gate but weighs noise
differently (a depolarizing channel of strength p on one qubit evaluates
to 1 - 2p/3 instead of 1 - p/2).  The ``exact`` route solves the true
Haar-average fidelity.  Tabulated plans additionally follow the reference
label convention in which "+" denotes (|0> - |1>)/sqrt(2), "i" denotes
(|0> - i|1>)/sqrt(2), and X/Y correlations carry inverted signs;
``estimate_favg`` resolves the convention internally so executors always
receive explicit preparation vectors and standard measurement settings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import _frequencies, _seeded_rng, _shot_count
from .qubits import (
    _MEAS_ROT,
    _PAULI,
    _SQRT2,
    GateCircuit,
    QubitEncoding,
    _pauli_signs,
    compile_gate_circuit,
    encoding_input_modes,
    logical_distributions,
)
from .sources import SourceModel

__all__ = [
    "BenchmarkPlan",
    "FidelityEstimate",
    "PlanEntry",
    "build_plan",
    "estimate_favg",
    "photonic_executor",
]

#: Preparation labels in canonical order, one character per qubit.
PREP_LABELS = "01+i"

#: Pauli letters in canonical order.
PAULI_LETTERS = "IXYZ"

#: Plan weights below this magnitude are treated as exact zeros.  The
#: smallest genuine weight across the supported gates is 1/288, so the
#: gap to solver noise is many orders of magnitude.
PLAN_PRUNE_TOL = 1e-10

#: Per-label preparation vectors under each functional's label convention.
_PREP_VECTORS = {
    "exact": {
        "0": np.array([1.0, 0.0], dtype=complex),
        "1": np.array([0.0, 1.0], dtype=complex),
        "+": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
        "i": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    },
    "tabulated": {
        "0": np.array([1.0, 0.0], dtype=complex),
        "1": np.array([0.0, 1.0], dtype=complex),
        "+": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
        "i": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
    },
}

#: Sign carried by each measured letter under each functional's label convention.
_MEAS_SIGNS = {
    "exact": {"I": 1.0, "X": 1.0, "Y": 1.0, "Z": 1.0},
    "tabulated": {"I": 1.0, "X": -1.0, "Y": -1.0, "Z": 1.0},
}

FUNCTIONALS = ("tabulated", "exact")

#: Runs B configurations at once: ``executor(preparations, settings)``
#: takes the ``(B, n, 2)`` per-qubit preparation vectors and the B setting
#: words and returns ``(B, 2^n)`` outcome probabilities after the basis
#: rotations, row b for configuration b (most significant bit = first
#: qubit).
Executor = Callable[[np.ndarray, Sequence[str]], np.ndarray]


def _as_unitary(gate: GateCircuit | np.ndarray) -> np.ndarray:
    if isinstance(gate, GateCircuit):
        return gate.logical_unitary()
    mat = np.asarray(gate, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("gate unitary must be a square matrix")
    if not np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), rtol=0, atol=1e-10):
        raise ValueError("gate matrix is not unitary")
    return mat


def _check_qubits(unitary: np.ndarray, n_qubits: int) -> None:
    if not 1 <= n_qubits <= 4:
        raise ValueError("benchmark plans support 1 to 4 qubits")
    if unitary.shape != (2**n_qubits, 2**n_qubits):
        raise ValueError(
            f"unitary of shape {unitary.shape} does not act on {n_qubits} qubits"
        )


# ---------------------------------------------------------------------------
# Estimator functionals as dual matrices over channel Choi states

def _tabulated_dual(unitary: np.ndarray) -> np.ndarray:
    """Dual matrix of the swap-paired estimator.

    The functional pairs (alpha[i'j';ij] + alpha[i'j';ji]), where
    alpha[i'j';ij] = <i'|U^dagger|i><j|U|j'>, with the correlation
    Trace[|i><j| Phi(|i'><j'|)]; its value on the Choi state J of the
    noisy gate Phi is Trace[G J] with G returned here as a tensor
    indexed [j', i, i', j] (rows j' i, columns i' j).
    """
    d = unitary.shape[0]
    dual = np.einsum("ia,jb->biaj", unitary.conj(), unitary)
    dual += np.einsum("ja,ib->biaj", unitary.conj(), unitary)
    return dual / (d * (d + 1))


def _exact_dual(unitary: np.ndarray) -> np.ndarray:
    """Dual matrix of the Haar-average gate fidelity, indexed as above."""
    d = unitary.shape[0]
    dual = np.einsum("ja,jb,ik->biak", unitary.conj(), unitary, np.eye(d))
    dual += np.einsum("ja,ib->biaj", unitary.conj(), unitary)
    return dual / (d * (d + 1))


_DUALS = {"tabulated": _tabulated_dual, "exact": _exact_dual}


def _qubit_basis(functional: str) -> np.ndarray:
    """One-qubit correlation basis B1, rows (a, b, c, d), columns (prep, word).

    Column (prep, word) is vec(kron(rho^T, P)) for the labelled one-qubit
    preparation rho and signed Pauli letter P.
    """
    vectors = np.array([_PREP_VECTORS[functional][c] for c in PREP_LABELS])
    paulis = np.array([_MEAS_SIGNS[functional][c] * _PAULI[c] for c in PAULI_LETTERS])
    rhos = np.einsum("pc,pa->pca", vectors, vectors.conj())
    return np.einsum("pca,wbd->abcdpw", rhos, paulis).reshape(16, 16)


# ---------------------------------------------------------------------------
# Benchmark plans


@dataclass(frozen=True)
class PlanEntry:
    """One weighted Pauli correlation of a benchmark plan."""

    preparation: str
    word: str
    weight: float

    @property
    def setting(self) -> str:
        """Measurement configuration once I-letters recycle Z data."""
        return self.word.replace("I", "Z")


@dataclass(frozen=True)
class FidelityEstimate:
    """Average-gate-fidelity estimate with shot-noise propagation."""

    f_avg: float
    std_error: float


@dataclass(frozen=True)
class BenchmarkPlan:
    """Weighted-correlation expansion of a gate's average fidelity.

    ``entries`` hold the raw weights; dividing by the smallest weight
    magnitude recovers the integer-like units used in plan tables.  For
    single-qubit plans the identity-word terms, whose correlations equal
    1 on any trace-preserving channel, are folded into ``constant``;
    multi-qubit plans keep them as explicit entries.
    """

    n_qubits: int
    functional: str
    entries: tuple[PlanEntry, ...]
    constant: float

    def configurations(self) -> dict[tuple[str, str], list[int]]:
        """Entry indices grouped by (preparation, setting), in plan order."""
        grouped: dict[tuple[str, str], list[int]] = {}
        for index, entry in enumerate(self.entries):
            grouped.setdefault((entry.preparation, entry.setting), []).append(index)
        return grouped

    def preparation_vectors(self, entry: PlanEntry) -> tuple[np.ndarray, ...]:
        """Per-qubit state vectors realizing the entry's preparation."""
        return tuple(_PREP_VECTORS[self.functional][c].copy() for c in entry.preparation)

    def measurement_sign(self, entry: PlanEntry) -> float:
        """Outcome sign translating the label convention to standard Paulis."""
        sign = 1.0
        for c in entry.word:
            sign *= _MEAS_SIGNS[self.functional][c]
        return sign


def build_plan(
    unitary: GateCircuit | np.ndarray,
    n_qubits: int,
    functional: str = "tabulated",
) -> BenchmarkPlan:
    """Expand a gate's fidelity functional over the product correlation basis.

    The basis spans all products of per-qubit preparations {0, 1, +, i}
    and Pauli letters {I, X, Y, Z}.  It is the n-fold Kronecker product of
    one complete 16 x 16 one-qubit basis, up to a fixed reordering of its
    rows and columns, so the unique weight vector comes from applying
    that basis's inverse along each qubit's axis of the functional's dual
    matrix; zero weights identify correlations that never need to be
    measured.  Raises when the one-qubit basis is numerically singular.
    """
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}")
    mat = _as_unitary(unitary)
    _check_qubits(mat, n_qubits)
    n = n_qubits
    try:
        inverse = np.linalg.solve(_qubit_basis(functional), np.eye(16))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"correlation system is rank deficient: {exc}") from exc

    # Dual rows (a, b) and columns (c, d) are n-bit indices; gather each
    # qubit's (a_k, b_k, c_k, d_k) bits into one axis of length 16.
    dual = _DUALS[functional](mat).reshape((2,) * 4 * n)
    coeffs = dual.transpose([q + k * n for q in range(n) for k in range(4)])
    coeffs = coeffs.reshape((16,) * n)
    for _ in range(n):
        # contracts the leading axis and appends the result, so after n
        # passes the axes are back in qubit order
        coeffs = np.tensordot(coeffs, inverse, axes=(0, 1))
    # axes (prep_1, word_1, ..., prep_n, word_n) to the plan's label order
    # (prep_1..prep_n, word_1..word_n)
    coeffs = coeffs.reshape((4, 4) * n).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    weights = coeffs.reshape(-1)
    if not np.abs(weights.imag).max() <= 1e-9:
        raise ValueError("correlation solve returned non-real weights")

    labels = itertools.product(
        map("".join, itertools.product(PREP_LABELS, repeat=n)),
        map("".join, itertools.product(PAULI_LETTERS, repeat=n)),
    )
    constant = 0.0
    entries: list[PlanEntry] = []
    for (prep, word), weight in zip(labels, weights.real):
        if abs(weight) <= PLAN_PRUNE_TOL:
            continue
        if n == 1 and word == "I":
            constant += weight
        else:
            entries.append(PlanEntry(preparation=prep, word=word, weight=float(weight)))
    return BenchmarkPlan(
        n_qubits=n_qubits,
        functional=functional,
        entries=tuple(entries),
        constant=float(constant),
    )


# ---------------------------------------------------------------------------
# Plan execution


def estimate_favg(
    plan: BenchmarkPlan,
    executor: Executor,
    shots_per_config: int | None = None,
    seed: int = 0,
) -> FidelityEstimate:
    """Execute a plan and combine its correlations into a fidelity.

    The executor is called once, with every distinct (preparation,
    setting) configuration in plan order (see :data:`Executor`): explicit
    per-qubit preparation vectors and the setting words in, one row of
    2^n outcome probabilities per configuration out.  With
    ``shots_per_config`` set (a whole number of at least 1, checked
    before the executor runs), each row is multinomially sampled, in the
    same configuration order, and the standard error propagates each
    term's binomial variance; otherwise correlations are exact
    expectations.

    Estimates are reported unclamped, so sampling noise on a
    near-perfect gate can push the value slightly above 1.
    """
    rng = _seeded_rng(seed)
    shots_per_config = _shot_count(shots_per_config, rng, "shots_per_config")
    n = plan.n_qubits

    groups = plan.configurations()
    preparations = np.array(
        [plan.preparation_vectors(plan.entries[indices[0]]) for indices in groups.values()],
        dtype=complex,
    ).reshape(len(groups), n, 2)
    settings = [key[1] for key in groups]
    results = np.asarray(executor(preparations, settings), dtype=float)
    if results.shape != (len(groups), 2**n):
        raise ValueError("executor returned a malformed probability array")

    total = plan.constant
    variance = 0.0
    signs: dict[str, np.ndarray] = {}
    for indices, probs in zip(groups.values(), results):
        if shots_per_config is not None:
            probs = _frequencies(rng, shots_per_config, probs)
        for index in indices:
            entry = plan.entries[index]
            if entry.word not in signs:
                signs[entry.word] = _pauli_signs(entry.word)
            correlation = float(signs[entry.word] @ probs)
            correlation *= plan.measurement_sign(entry)
            total += entry.weight * correlation
            if shots_per_config is not None:
                spread = max(0.0, 1.0 - correlation * correlation)
                variance += entry.weight**2 * spread / shots_per_config
    return FidelityEstimate(f_avg=float(total), std_error=float(np.sqrt(variance)))


# ---------------------------------------------------------------------------
# Executor backends


def _prep_unitaries(vectors: np.ndarray) -> np.ndarray:
    """Two-mode rotations sending |0> to each requested qubit state.

    ``vectors`` is ``(..., 2)``; returns ``(..., 2, 2)``.
    """
    norm = np.sqrt(np.abs(vectors[..., 0]) ** 2 + np.abs(vectors[..., 1]) ** 2)
    a, b = vectors[..., 0] / norm, vectors[..., 1] / norm
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def photonic_executor(circuit: GateCircuit, source: SourceModel = SourceModel()) -> Executor:
    """Executor running plans on the dual-rail photonic simulator.

    The gate circuit compiles once to postselected mode optics in the
    default encoding, and its checked unitary is the gate matrix.  A call
    stacks ``meas @ gate @ prep`` for its B configurations into one
    ``(B, m, m)`` array (the rotations are exact 2x2 blocks on each
    qubit's rail pair) and simulates and reads out the stack in one
    :func:`~lopsim.qubits.logical_distributions` call, the dual-rail
    readout path shared with the GHZ factory.  ``source`` is the photon
    source (perfect by default).
    """
    enc = QubitEncoding.default(circuit.n_qubits)
    if circuit.measurement is not None:
        raise ValueError("benchmark circuits must not embed a measurement")
    _, rule, _, gate = compile_gate_circuit(circuit, enc)
    m = enc.n_modes
    input_modes = encoding_input_modes(enc)
    pairs = np.array(enc.qubit_pairs, dtype=np.intp)
    block_rows, block_cols = pairs[:, :, None], pairs[:, None, :]

    def run(preparations: np.ndarray, settings: Sequence[str]) -> np.ndarray:
        prep = np.tile(np.eye(m, dtype=complex), (len(preparations), 1, 1))
        meas = prep.copy()
        prep[:, block_rows, block_cols] = _prep_unitaries(np.asarray(preparations, dtype=complex))
        meas[:, block_rows, block_cols] = [[_MEAS_ROT[c] for c in word] for word in settings]
        totals = meas @ gate.matrix @ prep
        return logical_distributions(totals, input_modes, rule, source)

    return run
