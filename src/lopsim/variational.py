"""Ground-state search for a tabulated two-qubit molecular Hamiltonian.

The Hamiltonian family is H = alpha II + beta ZI + gamma IZ + delta ZZ
+ mu XX with coefficients in Hartree, tabulated against internuclear
radius.  The workflow mirrors a postselected dual-rail experiment: a
seven-angle ansatz circuit prepares a trial state, two measurement
settings (computational and Hadamard-rotated) supply every Pauli
expectation in the Hamiltonian, readout errors are corrected by
inverting per-basis confusion matrices built from eigenvector
preparations, and repeated exact coordinate sweeps drive the angles.
The ansatz angles are bound into the checked compile without building
gates (:meth:`PhotonicVqeBackend.ansatz_distributions`): the angle rows
of a sweep step compile side by side on their shared, stored step
prefix, and each setting's confusion systems are solved in one call.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Sequence

import numpy as np

from .fock import _frequencies, _seeded_rng, _shot_count
from .qubits import (
    _ID2,
    _PAULI,
    Gate,
    GateCircuit,
    PostselectionRule,
    QubitEncoding,
    _compiled_rows,
    _rotations,
    compile_gate_circuit,
    encoding_input_modes,
    logical_distribution,
    logical_distributions,
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
    "apply_mitigation",
    "bond_table",
    "build_mitigation",
    "energy_from_distributions",
    "exact_ground_energy",
    "h2_hamiltonian",
    "measure_energy",
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

    matrix: np.ndarray

    def __post_init__(self) -> None:
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


def apply_mitigation(gamma: MitigationMatrix, observed: np.ndarray) -> np.ndarray:
    """Invert the confusion matrix on an observed outcome distribution.

    Linear inversion can leave the probability simplex at finite
    statistics, so negative entries are clipped to zero and the result
    is renormalized; exact distributions of the form ``gamma.matrix @ p``
    round-trip unchanged.  A ``(..., 4)`` stack of distributions goes
    through one broadcast ``np.linalg.solve`` (a LAPACK ``gesv`` per
    distribution, so each is bit for bit its own one-vector call).
    """
    q = np.asarray(observed, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {q.shape}")
    mass = q.sum(axis=-1, keepdims=True)
    if not (np.all(q >= 0.0) and np.all(mass > 0.0)):
        raise ValueError("observed distribution must be nonnegative with positive mass")
    p = np.linalg.solve(gamma.matrix, (q / mass)[..., None])[..., 0]
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if not np.all(total > 0.0):
        raise ValueError("mitigated distribution has no probability mass left")
    return p / total


class PhotonicVqeBackend:
    """Dual-rail simulator returning postselected two-qubit statistics.

    Circuits are compiled onto six modes (two rail pairs plus the
    ancilla modes the entangling gate draws) and simulated exactly.  An
    optional symmetric readout flip acts independently on each qubit
    after postselection, and the two photons come from ``source``, a
    perfect one by default.

    :meth:`ansatz_distributions` is the method energies are read from
    (:func:`measure_energy`, :func:`vqe_run`): a backend must provide it,
    and overriding :meth:`distribution` alone does not change them.
    :meth:`distribution` (the mitigation columns) simulates its circuit
    through ``noisy_simulate``.
    """

    def __init__(self, readout_flip: float = 0.0, source: SourceModel = SourceModel()):
        if not 0.0 <= readout_flip < 0.5:
            raise ValueError(f"readout_flip must lie in [0, 0.5), got {readout_flip}")
        self.readout_flip = float(readout_flip)
        self.source = source
        enc = self._encoding = QubitEncoding.default(2)
        self._rule = PostselectionRule(enc.qubit_pairs, vacuum_modes=enc.ancilla_modes)
        self._input_modes = encoding_input_modes(enc)
        self._labeled = build_input(2, source, modes=self._input_modes)
        flip = np.array(
            [[1.0 - readout_flip, readout_flip], [readout_flip, 1.0 - readout_flip]]
        )
        self._confusion = np.kron(flip, flip)

    def distribution(self, circuit: GateCircuit) -> np.ndarray:
        """Probabilities of the four logical outcomes, qubit 0 first.

        The circuit's cached compile (:func:`~lopsim.qubits.compile_gate_circuit`)
        is simulated and read through the backend's postselection rule.
        """
        if circuit.n_qubits != 2:
            raise ValueError("backend is wired for two-qubit circuits")
        unitary = compile_gate_circuit(circuit, self._encoding)
        dist = noisy_simulate(unitary, self._labeled)
        return self._confusion @ logical_distribution(dist, self._rule)[0].ravel()

    def ansatz_distributions(self, thetas: np.ndarray) -> np.ndarray:
        """Logical outcome probabilities of the ansatz in each setting of ``BASES``.

        Entry ``[k, j]`` is what :meth:`distribution` gives for the ansatz
        gate list at angles ``thetas[k]`` measured in setting ``BASES[j]``.
        ``thetas`` is a ``(K, 7)`` stack with K >= 1, refused by shape
        before anything compiles, and the result is ``(K, 2, 4)``.  The
        rows compile side by side with no ``Gate``, on their common step
        prefix from the compiled-prefix store (:func:`~lopsim.qubits._compiled_rows`),
        each setting's rotations go onto a copy of the whole array
        (:func:`~lopsim.qubits._rotations`), and the 2K setting unitaries run
        through one :func:`~lopsim.qubits.logical_distributions` call.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != N_ANSATZ_ANGLES or not len(thetas):
            raise ValueError(
                f"expected a (K, {N_ANSATZ_ANGLES}) stack of angle rows with K >= 1,"
                f" got shape {thetas.shape}"
            )
        rows = [_ansatz_steps(theta) for theta in thetas]
        wide, _ = _compiled_rows(rows, self._encoding)
        stack = _rotations(wide, BASES, self._encoding)
        logical = logical_distributions(stack, self._input_modes, self._rule, self.source)
        return np.array([self._confusion @ row for row in logical]).reshape(-1, len(BASES), 4)


def _ansatz_steps(theta: Sequence[float]) -> tuple[tuple, ...]:
    """The ansatz gate list as (name, qubits, angle) steps, refusing angles as ``Gate`` does.

    The gate list is RY on qubit 0, CNOT, then RX, RZ, RX layers on both
    qubits; any two-qubit pure state is reachable.
    """
    a = np.asarray(theta, dtype=float)
    if a.shape != (N_ANSATZ_ANGLES,):
        raise ValueError(f"expected {N_ANSATZ_ANGLES} angles, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"ansatz angle must be finite, got {a}")
    a = a.tolist()
    return (("RY", (0,), a[0]), ("CNOT", (0, 1), None), ("RX", (0,), a[1]), ("RX", (1,), a[2]),
            ("RZ", (0,), a[3]), ("RZ", (1,), a[4]), ("RX", (0,), a[5]), ("RX", (1,), a[6]))


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
    shots: None = None,
) -> float:
    """One exact, unmitigated energy evaluation from the two measurement settings.

    The settings' distributions come from the K = 1 stack
    ``backend.ansatz_distributions([theta])``, which every backend must
    provide.  ``shots`` must be None (the exact distributions): sampled
    energies are read by :func:`vqe_run` through ``VqeConfig.shots``.
    """
    if shots is not None:
        raise ValueError(f"measure_energy reads exact distributions; got shots={shots}")
    return _energies(h, [theta], backend, None, None, None)[0]


def _energies(h, thetas, backend, shots, mitigation, rng) -> list[float]:
    """Energies of an angle stack read in one call.

    Shots are drawn row by row, ZZ then XX; then each setting's K
    distributions are mitigated in one :func:`apply_mitigation` call.
    """
    if not hasattr(backend, "ansatz_distributions"):
        name = type(backend).__name__
        raise TypeError(f"{name} has no ansatz_distributions(thetas) to read energies from")
    shots = _shot_count(shots, rng)
    rows = backend.ansatz_distributions(thetas)
    if shots is not None:
        rows = np.array([[_frequencies(rng, shots, p) for p in row] for row in rows])
    if mitigation:
        rows = np.stack([apply_mitigation(mitigation[b], rows[:, j]) for j, b in enumerate(BASES)], 1)
    return [energy_from_distributions(h, *row) for row in rows]


def _mitigation_circuit(basis: str, outcome: int) -> GateCircuit:
    """Preparation-plus-readout circuit for one confusion-matrix column.

    Prepares the ``basis`` eigenvector labeled by ``outcome`` and reads
    it out through the measurement word ``basis``.  For XX the
    preparation Hadamards (gates) and the word's rotation cancel
    logically but are both executed, exactly as a readout calibration
    run would execute them.
    """
    gates = []
    for q in range(2):
        if (outcome >> (1 - q)) & 1:
            gates.append(Gate("RY", (q,), np.pi))
    if basis == "XX":
        gates.append(Gate("H", (0,)))
        gates.append(Gate("H", (1,)))
    return GateCircuit(2, tuple(gates), basis)


def build_mitigation(
    backend: PhotonicVqeBackend,
    basis: str,
    shots: int | None = None,
    seed: int = 0,
) -> MitigationMatrix:
    """Measure the readout confusion matrix of a backend in one basis.

    Column j is the outcome distribution observed after preparing the
    eigenvector of outcome j, exact for ``shots=None`` and otherwise from
    that many samples (a whole number, at least 1, checked before the
    backend runs).  When the measured matrix fails validation
    (badly scrambled or singular columns) mitigation is disabled: a
    warning is emitted and the identity matrix is returned instead.
    """
    basis = basis.upper()
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    rng = _seeded_rng(seed)
    shots = _shot_count(shots, rng)
    columns = []
    for outcome in range(4):
        p = backend.distribution(_mitigation_circuit(basis, outcome))
        if shots is not None:
            p = _frequencies(rng, shots, p)
        columns.append(p)
    matrix = np.column_stack(columns)
    try:
        return MitigationMatrix(matrix)
    except ValueError as exc:
        warnings.warn(
            f"readout mitigation disabled for {basis}: {exc}",
            RuntimeWarning,
            stacklevel=2,
        )
        return MitigationMatrix(np.eye(4))


@dataclass
class VqeConfig:
    """Settings for a variational run.

    ``shots`` counts postselected samples per measurement setting (None
    for the infinite-shot limit), ``max_iterations`` is a hard cap on
    objective evaluations, the closing re-measure included (a whole
    number, at least 1: a fraction raises ``TypeError``), and
    ``mitigation`` toggles confusion-matrix correction with matrices
    measured once before the optimization starts.  The seed drives
    sampling only; the sweeps start from all-zero angles.
    """

    shots: int | None = 10000
    max_iterations: int = 100
    seed: int = 0
    mitigation: bool = True


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
    the evaluation cap.  With finite shots it stays False: each angle's
    fit takes a minimum over noisy estimates, so every sweep lowers the
    prediction by about the shot noise, far more than the tolerance.
    """

    energies: np.ndarray
    theta: np.ndarray
    energy: float
    converged: bool
    evaluations: int


def _sweep(
    objective, theta: np.ndarray, value: float, budget: int
) -> tuple[np.ndarray, float, bool]:
    """One coordinate sweep fitting the per-angle energy sinusoid.

    Every trainable angle enters through a rotation gate, so with the
    other angles held fixed the energy is an exact sinusoid of that
    angle.  ``value`` (the energy at ``theta``) and two evaluations a
    quarter period either side, which ``objective`` gets as one stack,
    determine it; the angle jumps to the sinusoid minimum, and the
    predicted energy there is carried on as ``value`` for the next angle.
    The sweep stops early when fewer than two of its ``budget``
    evaluations are left.  Returns the swept angles, the predicted energy
    there and whether every angle was swept.
    """
    theta = theta.copy()
    for k in range(N_ANSATZ_ANGLES):
        if budget < 2:
            return theta, value, False
        budget -= 2
        shifted = np.stack([theta, theta])
        shifted[:, k] += (np.pi / 2.0, -np.pi / 2.0)
        e_up, e_down = objective(shifted)
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

    Starting from all-zero angles (the reference state), each sweep
    pins every angle in turn to the minimum of its energy sinusoid:
    Rotosolve (Ostaszewski, Grant and Benedetti, Quantum 5, 391 (2021)),
    the sequential minimal optimization of Nakanishi, Fujii and Todo
    (Phys. Rev. Research 2, 043158 (2020)).  Sweeps repeat until a full one lowers the predicted
    energy by less than ``SWEEP_TOLERANCE`` (``converged=True``) or the
    cap leaves fewer than two evaluations for the next angle.  Only
    exact (infinite-shot) energies meet that tolerance; with finite shots
    the sweeps run until the cap, which the run then spends in full.
    ``config.max_iterations`` is a hard cap on all evaluations, and the
    last one re-measures the energy at the returned angles.  Energies
    come from one ``backend.ansatz_distributions`` call per sweep step
    and one each for the first evaluation and the re-measure, shots drawn
    in evaluation order; mitigation columns from ``backend.distribution``.
    """
    if config is None:
        config = VqeConfig()
    max_iterations = operator.index(config.max_iterations)
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    theta = np.zeros(N_ANSATZ_ANGLES)
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

    def objective(stack: np.ndarray) -> list[float]:
        values = _energies(h, stack, backend, config.shots, gammas, rng)
        trajectory.extend(values)
        return values

    # One evaluation stays reserved for the closing re-measure.
    budget = max_iterations - 1
    converged = False
    if budget > 0:
        [value] = objective(theta[None])
        while True:
            theta, swept, complete = _sweep(objective, theta, value, budget - len(trajectory))
            if not complete:
                break
            if value - swept < SWEEP_TOLERANCE:
                converged = True
                break
            value = swept
    [energy] = objective(theta[None])

    return VqeResult(
        energies=np.asarray(trajectory),
        theta=theta,
        energy=energy,
        converged=converged,
        evaluations=len(trajectory),
    )
