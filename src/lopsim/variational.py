"""Ground-state search for a tabulated two-qubit molecular Hamiltonian.

The Hamiltonian family is H = alpha II + beta ZI + gamma IZ + delta ZZ
+ mu XX with coefficients in Hartree, tabulated against internuclear
radius.  The workflow mirrors a postselected dual-rail experiment: a
seven-angle ansatz circuit prepares a trial state, two measurement
settings (computational and Hadamard-rotated) supply every Pauli
expectation in the Hamiltonian, readout errors are corrected by
inverting per-basis confusion matrices built from eigenvector
preparations, and repeated exact coordinate sweeps drive the angles.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .fock import _seeded_rng, strong_simulate
from .qubits import (
    _ID2,
    _PAULI,
    Gate,
    GateCircuit,
    GateCompiler,
    QubitEncoding,
    encoding_input_state,
    logical_distribution,
)
from .sources import SourceModel, build_input, noisy_simulate

__all__ = [
    "BASES",
    "N_ANSATZ_ANGLES",
    "MitigationMatrix",
    "PhotonicVqeBackend",
    "QubitHamiltonian",
    "VqeConfig",
    "VqeResult",
    "ansatz_circuit",
    "apply_mitigation",
    "bond_table",
    "build_mitigation",
    "energy_from_distributions",
    "exact_ground_energy",
    "h2_hamiltonian",
    "measure_energy",
    "reference_mitigation",
    "vqe_run",
]

#: Measurement settings that cover every term of the Hamiltonian.
BASES = ("ZZ", "XX")

#: Number of trainable angles in the ansatz.
N_ANSATZ_ANGLES = 7

#: A full sweep lowering the predicted energy by less than this (Ha) ends the run.
SWEEP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QubitHamiltonian:
    """Two-qubit Hamiltonian alpha II + beta ZI + gamma IZ + delta ZZ + mu XX.

    Coefficients are in Hartree; qubit 0 is the left letter of each
    Pauli word (the most significant bit of the outcome index).
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    mu: float

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.mu)

    def matrix(self) -> np.ndarray:
        """Dense 4x4 matrix in the computational basis (00, 01, 10, 11)."""
        z, x = _PAULI["Z"], _PAULI["X"]
        return np.real(
            self.alpha * np.kron(_ID2, _ID2)
            + self.beta * np.kron(z, _ID2)
            + self.gamma * np.kron(_ID2, z)
            + self.delta * np.kron(z, z)
            + self.mu * np.kron(x, x)
        )


@cache
def bond_table() -> tuple[tuple[float, QubitHamiltonian], ...]:
    """Bundled (radius, Hamiltonian) rows in increasing radius order."""
    text = (
        resources.files("lopsim")
        .joinpath("data/h2_hamiltonian_coefficients.csv")
        .read_text(encoding="utf-8")
    )
    rows = []
    for line in text.strip().splitlines()[1:]:
        radius, *coeffs = (float(v) for v in line.split(","))
        rows.append((radius, QubitHamiltonian(*coeffs)))
    return tuple(rows)


def h2_hamiltonian(radius: float) -> QubitHamiltonian:
    """Hamiltonian at a tabulated internuclear radius.

    The lookup is exact (no interpolation); an untabulated radius raises
    ValueError listing the radii that are available.
    """
    for tabulated, hamiltonian in bond_table():
        if abs(tabulated - radius) < 1e-9:
            return hamiltonian
    valid = ", ".join(f"{r:g}" for r, _ in bond_table())
    raise ValueError(f"radius {radius} is not tabulated; available radii: {valid}")


def exact_ground_energy(h: QubitHamiltonian) -> float:
    """Smallest eigenvalue of the Hamiltonian (Hartree)."""
    return float(np.linalg.eigvalsh(h.matrix())[0])


@dataclass(frozen=True, eq=False)
class MitigationMatrix:
    """Left-stochastic readout confusion matrix for one measurement basis.

    Entry (i, j) is the probability of recording outcome i when the
    eigenvector of outcome j was prepared.  Columns must sum to one
    within 1e-6 and the diagonal must strictly dominate each column,
    which guarantees invertibility.
    """

    basis: str
    matrix: np.ndarray

    def __post_init__(self) -> None:
        basis = self.basis.upper()
        if basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        object.__setattr__(self, "basis", basis)
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise ValueError(f"confusion matrix must be 4x4, got shape {matrix.shape}")
        if np.any(matrix < -1e-12):
            raise ValueError("confusion matrix entries must be nonnegative")
        sums = matrix.sum(axis=0)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise ValueError(f"columns must sum to 1 within 1e-6, got {sums}")
        if not np.all(np.diag(matrix) > sums - np.diag(matrix)):
            raise ValueError("confusion matrix is not diagonally dominant")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


@cache
def _reference_matrices() -> dict[str, np.ndarray]:
    text = (
        resources.files("lopsim")
        .joinpath("data/mitigation_matrices.json")
        .read_text(encoding="utf-8")
    )
    payload = json.loads(text)
    return {basis: np.array(payload[basis], dtype=float) for basis in BASES}


def reference_mitigation(basis: str) -> MitigationMatrix:
    """Bundled reference confusion matrix for one measurement basis."""
    basis = basis.upper()
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    return MitigationMatrix(basis, _reference_matrices()[basis])


def apply_mitigation(gamma: MitigationMatrix, observed: np.ndarray) -> np.ndarray:
    """Invert the confusion matrix on an observed outcome distribution.

    Linear inversion can leave the probability simplex at finite
    statistics, so negative entries are clipped to zero and the result
    is renormalized; exact distributions of the form ``gamma.matrix @ p``
    round-trip unchanged.
    """
    q = np.asarray(observed, dtype=float)
    if q.shape != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {q.shape}")
    if not (np.all(q >= 0.0) and q.sum() > 0.0):
        raise ValueError("observed distribution must be nonnegative with positive mass")
    p = np.linalg.solve(gamma.matrix, q / q.sum())
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0.0:
        raise ValueError("mitigated distribution has no probability mass left")
    return p / total


class PhotonicVqeBackend:
    """Dual-rail simulator returning postselected two-qubit statistics.

    Circuits are compiled onto six modes (two rail pairs plus the
    ancilla modes the entangling gate draws) and simulated exactly.  An
    optional symmetric readout flip acts independently on each qubit
    after postselection, and an optional source model replaces the
    ideal two-photon input with its noisy labeled mixture.

    The backend holds one :class:`~lopsim.qubits.GateCompiler` for its
    lifetime.  The coordinate sweeps move one angle at a time, and the
    two measurement settings of one evaluation differ only in the
    trailing Hadamards, so a circuit recompiles only the gates from its
    first changed one on.  The
    compiler's results are bit-identical to a fresh compile, so the
    energies are those of compiling every circuit from scratch.
    """

    def __init__(
        self,
        readout_flip: float = 0.0,
        source: SourceModel | None = None,
    ):
        if not 0.0 <= readout_flip < 0.5:
            raise ValueError(f"readout_flip must lie in [0, 0.5), got {readout_flip}")
        self.readout_flip = float(readout_flip)
        self.source = source
        self._encoding = QubitEncoding.default(2)
        self._compiler = GateCompiler(self._encoding)
        self._input_state = encoding_input_state(self._encoding)
        self._labeled = None
        if source is not None:
            self._labeled = build_input(2, source, modes=self._input_state.modes())
        flip = np.array(
            [[1.0 - readout_flip, readout_flip], [readout_flip, 1.0 - readout_flip]]
        )
        self._confusion = np.kron(flip, flip)

    def distribution(self, circuit: GateCircuit) -> np.ndarray:
        """Probabilities of the four logical outcomes, qubit 0 first.

        The unitary that the compile check built is the one simulated.
        """
        if circuit.n_qubits != 2:
            raise ValueError("backend is wired for two-qubit circuits")
        _, rule, _, unitary = self._compiler.compile(circuit)
        if self._labeled is None:
            dist = strong_simulate(unitary, self._input_state)
        else:
            dist = noisy_simulate(unitary, self._labeled)
        return self._confusion @ logical_distribution(dist, rule)[0].ravel()


def ansatz_circuit(theta: Sequence[float], basis: str = "ZZ") -> GateCircuit:
    """Seven-angle two-qubit ansatz with the basis rotation appended.

    The gate list is RY on qubit 0, CNOT, then RX, RZ, RX layers on
    both qubits; any two-qubit pure state is reachable.  ``basis``
    selects the measurement setting: ZZ reads the rails directly and
    XX adds a Hadamard on each qubit first.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (N_ANSATZ_ANGLES,):
        raise ValueError(f"expected {N_ANSATZ_ANGLES} angles, got shape {theta.shape}")
    basis = basis.upper()
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    gates = [
        Gate("RY", (0,), theta[0]),
        Gate("CNOT", (0, 1)),
        Gate("RX", (0,), theta[1]),
        Gate("RX", (1,), theta[2]),
        Gate("RZ", (0,), theta[3]),
        Gate("RZ", (1,), theta[4]),
        Gate("RX", (0,), theta[5]),
        Gate("RX", (1,), theta[6]),
    ]
    if basis == "XX":
        gates.append(Gate("H", (0,)))
        gates.append(Gate("H", (1,)))
    return GateCircuit(2, tuple(gates))


def energy_from_distributions(
    h: QubitHamiltonian, p_zz: np.ndarray, p_xx: np.ndarray
) -> float:
    """Energy from the two setting distributions (outcomes 00, 01, 10, 11).

    The computational setting supplies ZI, IZ and ZZ as marginals of one
    distribution; the Hadamard-rotated setting supplies XX.
    """
    pz = np.asarray(p_zz, dtype=float)
    px = np.asarray(p_xx, dtype=float)
    zi = pz[0] + pz[1] - pz[2] - pz[3]
    iz = pz[0] - pz[1] + pz[2] - pz[3]
    zz = pz[0] - pz[1] - pz[2] + pz[3]
    xx = px[0] - px[1] - px[2] + px[3]
    return float(h.alpha + h.beta * zi + h.gamma * iz + h.delta * zz + h.mu * xx)


def measure_energy(
    h: QubitHamiltonian,
    theta: Sequence[float],
    backend: PhotonicVqeBackend,
    shots: int | None = None,
    mitigation: Mapping[str, MitigationMatrix] | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """One energy evaluation from the two measurement settings.

    ``shots`` counts postselected samples per setting, drawn from
    ``rng``, which is then required; None uses the exact distributions
    (infinite-shot limit).  ``mitigation`` maps a setting name to its
    confusion matrix; missing entries leave that setting unmitigated.
    """
    if shots is not None and int(shots) <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if shots is not None and rng is None:
        raise ValueError("sampled shots need a seeded rng; got rng=None")
    settings = {}
    for basis in BASES:
        p = backend.distribution(ansatz_circuit(theta, basis))
        if shots is not None:
            p = rng.multinomial(int(shots), p / p.sum()) / float(shots)
        if mitigation and basis in mitigation:
            p = apply_mitigation(mitigation[basis], p)
        settings[basis] = p
    return energy_from_distributions(h, settings["ZZ"], settings["XX"])


def _mitigation_circuit(basis: str, outcome: int) -> GateCircuit:
    """Preparation-plus-readout circuit for one confusion-matrix column.

    Prepares the ``basis`` eigenvector labeled by ``outcome`` and then
    applies the measurement rotation for the same basis.  For XX the
    two Hadamard layers (state preparation, then basis rotation) cancel
    logically but are both executed, exactly as a readout calibration
    run would execute them.
    """
    gates = []
    for q in range(2):
        if (outcome >> (1 - q)) & 1:
            gates.append(Gate("RY", (q,), np.pi))
    if basis == "XX":
        for _ in range(2):
            gates.append(Gate("H", (0,)))
            gates.append(Gate("H", (1,)))
    return GateCircuit(2, tuple(gates))


def build_mitigation(
    backend: PhotonicVqeBackend,
    basis: str,
    shots: int | None = None,
    seed: int = 0,
) -> MitigationMatrix:
    """Measure the readout confusion matrix of a backend in one basis.

    Column j is the outcome distribution observed after preparing the
    eigenvector of outcome j.  When the measured matrix fails validation
    (badly scrambled or singular columns) mitigation is disabled: a
    warning is emitted and the identity matrix is returned instead.
    """
    basis = basis.upper()
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    rng = _seeded_rng(seed)
    columns = []
    for outcome in range(4):
        p = backend.distribution(_mitigation_circuit(basis, outcome))
        if shots is not None:
            p = rng.multinomial(int(shots), p / p.sum()) / float(shots)
        columns.append(p)
    matrix = np.column_stack(columns)
    try:
        return MitigationMatrix(basis, matrix)
    except ValueError as exc:
        warnings.warn(
            f"readout mitigation disabled for {basis}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return MitigationMatrix(basis, np.eye(4))


@dataclass
class VqeConfig:
    """Settings for a variational run.

    ``shots`` counts postselected samples per measurement setting (None
    for the infinite-shot limit), ``max_iterations`` is a hard cap on
    objective evaluations, the closing re-measure included, and
    ``mitigation`` toggles confusion-matrix correction with matrices
    measured once before the optimization starts.  The seed drives
    sampling only; the sweeps start from all-zero angles unless
    ``initial_theta`` is given.
    """

    shots: int | None = 10000
    max_iterations: int = 100
    seed: int = 0
    mitigation: bool = True
    initial_theta: Sequence[float] | None = None


@dataclass
class VqeResult:
    """Outcome of a variational run.

    ``energies`` records every objective evaluation in order.  ``theta``
    holds the angles after the last sweep step, and ``energy`` is the
    last evaluation: a fresh estimate at ``theta``, not the lowest
    sample of the run, which finite shots bias below the ground energy.
    ``evaluations`` never exceeds ``VqeConfig.max_iterations``.
    ``converged`` is True when a full sweep lowered the predicted energy
    by less than ``SWEEP_TOLERANCE`` and False when the run stopped at
    the evaluation cap.
    """

    energies: np.ndarray
    theta: np.ndarray
    energy: float
    converged: bool
    evaluations: int
    mitigation: dict[str, MitigationMatrix] | None


def _sweep(
    objective, theta: np.ndarray, value: float, budget: int
) -> tuple[np.ndarray, float, bool]:
    """One coordinate sweep fitting the per-angle energy sinusoid.

    Every trainable angle enters through a rotation gate, so with the
    other angles held fixed the energy is an exact sinusoid of that
    angle.  ``value`` (the energy at ``theta``) and two evaluations a
    quarter period either side determine it; the angle jumps to the
    sinusoid minimum, and the predicted energy there is carried on as
    ``value`` for the next angle.  The sweep stops early when fewer
    than two of its ``budget`` evaluations are left.  Returns the swept
    angles, the predicted energy there and whether every angle was swept.
    """
    theta = theta.copy()
    for k in range(N_ANSATZ_ANGLES):
        if budget < 2:
            return theta, value, False
        budget -= 2
        up = theta.copy()
        up[k] += np.pi / 2.0
        down = theta.copy()
        down[k] -= np.pi / 2.0
        e_up = objective(up)
        e_down = objective(down)
        offset = 0.5 * (e_up + e_down)
        cos_part = value - offset
        sin_part = 0.5 * (e_up - e_down)
        theta[k] += np.arctan2(sin_part, cos_part) + np.pi
        value = offset - np.hypot(cos_part, sin_part)
    return theta, value, True


def vqe_run(
    h: QubitHamiltonian,
    backend: PhotonicVqeBackend,
    config: VqeConfig | None = None,
) -> VqeResult:
    """Minimize the measured energy over the ansatz angles.

    Starting from all-zero angles (the reference state), or from
    ``config.initial_theta``, each sweep pins every angle in turn to the
    minimum of its energy sinusoid: Rotosolve (Ostaszewski, Grant and
    Benedetti, Quantum 5, 391 (2021)), the sequential minimal
    optimization of Nakanishi, Fujii and Todo (Phys. Rev. Research 2,
    043158 (2020)).  Sweeps repeat until a full one lowers the predicted
    energy by less than ``SWEEP_TOLERANCE`` (``converged=True``) or the
    cap leaves fewer than two evaluations for the next angle.
    ``config.max_iterations`` is a hard cap on all evaluations, and the
    last one re-measures the energy at the returned angles.
    """
    if config is None:
        config = VqeConfig()
    if config.max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {config.max_iterations}")
    theta = np.zeros(N_ANSATZ_ANGLES)
    if config.initial_theta is not None:
        theta = np.array(config.initial_theta, dtype=float)
        if theta.shape != (N_ANSATZ_ANGLES,):
            raise ValueError(f"initial_theta must have {N_ANSATZ_ANGLES} entries")
    rng = _seeded_rng(config.seed)

    gammas = None
    if config.mitigation:
        gammas = {
            basis: build_mitigation(
                backend, basis, shots=config.shots, seed=int(rng.integers(2**31))
            )
            for basis in BASES
        }

    trajectory: list[float] = []

    def objective(angles: np.ndarray) -> float:
        value = measure_energy(h, angles, backend, config.shots, gammas, rng)
        trajectory.append(value)
        return value

    # One evaluation stays reserved for the closing re-measure.
    budget = config.max_iterations - 1
    converged = False
    if budget > 0:
        value = objective(theta)
        while True:
            theta, swept, complete = _sweep(objective, theta, value, budget - len(trajectory))
            if not complete:
                break
            if value - swept < SWEEP_TOLERANCE:
                converged = True
                break
            value = swept
    energy = objective(theta)

    return VqeResult(
        energies=np.asarray(trajectory),
        theta=theta,
        energy=energy,
        converged=converged,
        evaluations=len(trajectory),
        mitigation=gammas,
    )
