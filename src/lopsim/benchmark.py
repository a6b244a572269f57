"""Symmetry-based average-gate-fidelity benchmarking for few-qubit gates.

A gate benchmark reduces the average fidelity of a noisy n-qubit gate to a
weighted sum of Pauli correlations measured over separable preparations
drawn from {|0>, |1>, |+>, |+i>} per qubit.  ``build_plan`` derives the
weights from the 16^n correlation system, which is the n-fold Kronecker
product of one 16 x 16 one-qubit system and so is solved one qubit at a
time, ``estimate_favg`` executes a plan against a simulator backend in
one call that carries every configuration (:data:`Executor`; each
executor here simulates that batch as one stack of density matrices or
interferometers), and ``spam_floor`` bounds the preparation-and-measurement
error a plan inherits from its single-qubit layer.

Two estimator functionals are supported.  The ``tabulated`` route solves
the swap-paired estimator used by the bundled reference plans; it agrees
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

from .fock import _seeded_rng
from .qubits import (
    _MEAS_ROT,
    _PAULI,
    _SQRT2,
    GateCircuit,
    QubitEncoding,
    _pauli_signs,
    compile_gate_circuit,
    encoding_input_state,
    logical_distributions,
)
from .sources import SourceModel

__all__ = [
    "BenchmarkPlan",
    "FidelityEstimate",
    "PlanEntry",
    "build_plan",
    "channel_executor",
    "depolarizing_executor",
    "estimate_favg",
    "noiseless_executor",
    "photonic_executor",
    "spam_floor",
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
    if not np.allclose(mat @ mat.conj().T, np.eye(mat.shape[0]), atol=1e-10):
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


def _canonical_float(value: float) -> str:
    """Shortest text of ``value`` rounded to 12 significant digits."""
    return repr(float(format(value, ".12g")))


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

    @property
    def label(self) -> str:
        return f"{self.preparation}:{self.word}"


@dataclass(frozen=True)
class FidelityEstimate:
    """Average-gate-fidelity estimate with shot-noise propagation."""

    f_avg: float
    std_error: float
    shots: int | None = None


@dataclass(frozen=True)
class BenchmarkPlan:
    """Weighted-correlation expansion of a gate's average fidelity.

    ``entries`` hold the raw weights; dividing by ``normalization`` (the
    smallest weight magnitude) recovers the integer-like units used in
    plan tables.  For single-qubit plans the identity-word terms, whose
    correlations equal 1 on any trace-preserving channel, are folded into
    ``constant``; multi-qubit plans keep them as explicit entries.
    """

    n_qubits: int
    functional: str
    entries: tuple[PlanEntry, ...]
    constant: float
    normalization: float

    @property
    def k_terms(self) -> int:
        return len(self.entries)

    @property
    def m_settings(self) -> int:
        return len({(e.preparation, e.setting) for e in self.entries})

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

    def to_csv(self) -> str:
        """Plan table as CSV text, weights in normalization units.

        Units within 1e-9 of an integer print as that integer.  Every other
        float (``normalization``, ``constant`` and non-integer units) prints
        as ``repr`` of the value rounded to 12 significant digits, so the
        last-ulp noise of the correlation solve, which varies between BLAS
        builds, does not reach the text.
        """
        lines = [
            "# average-gate-fidelity benchmark plan",
            f"# n_qubits,{self.n_qubits}",
            f"# functional,{self.functional}",
            f"# normalization,{_canonical_float(self.normalization)}",
            f"# constant,{_canonical_float(self.constant)}",
            "label,weight",
        ]
        for entry in self.entries:
            unit = entry.weight / self.normalization
            rounded = round(unit)
            text = str(rounded) if abs(unit - rounded) < 1e-9 else _canonical_float(unit)
            lines.append(f"{entry.label},{text}")
        return "\n".join(lines) + "\n"


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
    normalization = min((abs(e.weight) for e in entries), default=1.0)
    return BenchmarkPlan(
        n_qubits=n_qubits,
        functional=functional,
        entries=tuple(entries),
        constant=float(constant),
        normalization=float(normalization),
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
    ``shots_per_config`` set, each row is multinomially sampled, in the
    same configuration order, and the standard error propagates each
    term's binomial variance; otherwise correlations are exact
    expectations.

    Estimates are reported unclamped, so sampling noise on a
    near-perfect gate can push the value slightly above 1.
    """
    if shots_per_config is not None and int(shots_per_config) < 1:
        raise ValueError(f"shots_per_config must be at least 1, got {shots_per_config}")
    rng = _seeded_rng(seed)
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
            counts = rng.multinomial(shots_per_config, probs / probs.sum())
            probs = counts / shots_per_config
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
    shots = None if shots_per_config is None else len(groups) * shots_per_config
    return FidelityEstimate(
        f_avg=float(total), std_error=float(np.sqrt(variance)), shots=shots
    )


# ---------------------------------------------------------------------------
# Executor backends


def channel_executor(
    channel: Callable[[np.ndarray], np.ndarray], n_qubits: int
) -> Executor:
    """Executor for any density-matrix map that includes the gate action.

    ``channel`` maps a ``(B, 2^n, 2^n)`` stack of density matrices to the
    stack of their outputs and is called once per executor call, on the
    product preparations of all B configurations.  Each configuration's
    measurement rotation is the Kronecker product of its 2x2 blocks (at
    most 16 x 16), and only the diagonal of the rotated output is formed.
    """

    def run(preparations: np.ndarray, settings: Sequence[str]) -> np.ndarray:
        preparations = np.asarray(preparations, dtype=complex)
        count = len(preparations)
        blocks = np.array(
            [[_MEAS_ROT[c] for c in word] for word in settings], dtype=complex
        ).reshape(count, n_qubits, 2, 2)
        psi = np.ones((count, 1), dtype=complex)
        rot = np.ones((count, 1, 1), dtype=complex)
        for q in range(n_qubits):
            psi = (psi[:, :, None] * preparations[:, q, None, :]).reshape(count, -1)
            rot = rot[:, :, None, :, None] * blocks[:, q, None, :, None, :]
            rot = rot.reshape(count, 2 << q, 2 << q)
        out = channel(psi[:, :, None] * psi[:, None, :].conj())
        # diag(R rho R^dagger)_i = sum_j (R rho)_ij conj(R_ij)
        probs = np.sum((rot @ out) * rot.conj(), axis=2).real
        return np.clip(probs, 0.0, None)

    return run


def noiseless_executor(gate: GateCircuit | np.ndarray) -> Executor:
    """Executor applying the gate unitary exactly (depolarizing with p = 0)."""
    return depolarizing_executor(gate, 0.0)


def depolarizing_executor(gate: GateCircuit | np.ndarray, probability: float) -> Executor:
    """Executor applying the gate followed by a depolarizing channel."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    mat = _as_unitary(gate)
    d = mat.shape[0]
    n_qubits = int(round(np.log2(d)))
    eye = np.eye(d, dtype=complex)

    def channel(rho: np.ndarray) -> np.ndarray:
        out = mat @ rho @ mat.conj().T
        trace = np.trace(out, axis1=-2, axis2=-1).real[..., None, None]
        return (1.0 - probability) * out + probability * trace / d * eye

    return channel_executor(channel, n_qubits)


def _prep_unitaries(vectors: np.ndarray) -> np.ndarray:
    """Two-mode rotations sending |0> to each requested qubit state.

    ``vectors`` is ``(..., 2)``; returns ``(..., 2, 2)``.
    """
    norm = np.sqrt(np.abs(vectors[..., 0]) ** 2 + np.abs(vectors[..., 1]) ** 2)
    a, b = vectors[..., 0] / norm, vectors[..., 1] / norm
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


def photonic_executor(circuit: GateCircuit, source: SourceModel | None = None) -> Executor:
    """Executor running plans on the dual-rail photonic simulator.

    The gate circuit compiles once to postselected mode optics in the
    default encoding, and its checked unitary is the gate matrix.  A call
    stacks ``meas @ gate @ prep`` for its B configurations into one
    ``(B, m, m)`` array (the rotations are exact 2x2 blocks on each
    qubit's rail pair) and simulates and reads out the stack in one
    :func:`~lopsim.qubits.logical_distributions` call, the dual-rail
    readout path shared with the GHZ factory.  ``source`` is the photon
    source (None for ideal photons).
    """
    enc = QubitEncoding.default(circuit.n_qubits)
    if circuit.measurement is not None:
        raise ValueError("benchmark circuits must not embed a measurement")
    _, rule, _, gate = compile_gate_circuit(circuit, enc)
    m = enc.n_modes
    input_modes = encoding_input_state(enc).modes()
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


# ---------------------------------------------------------------------------
# SPAM accounting


def spam_floor(f_t: float, n_qubits: int) -> float:
    """Preparation-and-measurement error floor inherited by an n-qubit plan.

    Each qubit's preparation and measurement together cost roughly the
    equivalent of two single-qubit gates out of three, so a single-qubit
    reference fidelity ``f_t`` bounds the plan's SPAM error from below by
    1 - f_t^(2n/3).
    """
    if not 0.0 < f_t <= 1.0:
        raise ValueError("reference fidelity must lie in (0, 1]")
    return 1.0 - f_t ** (2.0 * n_qubits / 3.0)
