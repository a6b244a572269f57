"""Tests for the two-qubit variational ground-state workflow."""

import re
import sys
from dataclasses import astuple

import numpy as np
import pytest
from _oracles import (
    PerEvaluationVqeBackend,
    ansatz_circuit,
    compiled_circuit,
    h2_ground_energy_closed_form,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lopsim import fock, qubits, sources, variational
from lopsim.benchmark import photonic_executor
from lopsim.qubits import _MEAS_ROT, Gate, GateCircuit, QubitEncoding, compile_gate_circuit
from lopsim.sources import SourceModel
from lopsim.variational import (
    BASES,
    MitigationMatrix,
    PhotonicVqeBackend,
    QubitHamiltonian,
    VqeConfig,
    _ansatz_steps,
    _mitigation_circuit,
    _sweep,
    apply_mitigation,
    bond_table,
    build_mitigation,
    energy_from_distributions,
    exact_ground_energy,
    h2_hamiltonian,
    measure_energy,
    vqe_run,
)

RNG = np.random.default_rng(911)

ROW_075 = (-0.3498334175179, 0.38874758809160, 0.38874758809160, 0.011177144762525, 0.18177153657730)
ROW_020 = (2.0115282039582, 0.9304885285175, 0.9304885285175, 0.013623865138623, 0.157972708628)


def flip_tensor(f):
    single = np.array([[1.0 - f, f], [f, 1.0 - f]])
    return np.kron(single, single)


def ground_angles(h):
    """Ansatz angles preparing the exact ground state.

    The tabulated Hamiltonians have their ground state inside the
    (|00>, |11>) block, which the first rotation plus the entangling
    gate span exactly.
    """
    _, vectors = np.linalg.eigh(h.matrix())
    g = vectors[:, 0]
    assert abs(g[1]) < 1e-12 and abs(g[2]) < 1e-12
    theta = np.zeros(7)
    theta[0] = 2.0 * np.arctan2(np.real(g[3]), np.real(g[0]))
    return theta


def test_bond_table_has_all_rows():
    table = bond_table()
    assert len(table) == 23
    radii = [r for r, _ in table]
    assert radii == sorted(radii)
    assert radii[0] == 0.2
    assert radii[-1] == 2.05


def test_hamiltonian_lookup_matches_bundled_rows():
    assert astuple(h2_hamiltonian(0.75)) == ROW_075
    assert astuple(h2_hamiltonian(0.2)) == ROW_020


def test_beta_equals_gamma_at_every_radius():
    for _, h in bond_table():
        assert abs(h.beta - h.gamma) <= 1e-12


def test_duplicated_neighbor_rows_are_preserved():
    assert astuple(h2_hamiltonian(0.3)) == astuple(h2_hamiltonian(0.35))


def test_unknown_radius_error_lists_available_radii():
    with pytest.raises(ValueError, match="0.2.*2.05"):
        h2_hamiltonian(0.33)


def test_hamiltonian_matrix_structure():
    a, b, g, d, m = RNG.normal(size=5)
    h = QubitHamiltonian(a, b, g, d, m)
    expected = np.array(
        [
            [a + b + g + d, 0.0, 0.0, m],
            [0.0, a + b - g - d, m, 0.0],
            [0.0, m, a - b + g - d, 0.0],
            [m, 0.0, 0.0, a - b - g + d],
        ]
    )
    assert np.allclose(h.matrix(), expected, atol=1e-12)


def test_exact_ground_energy_trivial_cases():
    assert exact_ground_energy(QubitHamiltonian(0.7, 0, 0, 0, 0)) == pytest.approx(0.7)
    assert exact_ground_energy(QubitHamiltonian(0, 0, 0, 0, 0.4)) == pytest.approx(-0.4)
    assert exact_ground_energy(QubitHamiltonian(0, 0, 0, 0, -0.4)) == pytest.approx(-0.4)


def test_exact_ground_energy_matches_closed_form_oracle():
    for _, h in bond_table():
        expected = h2_ground_energy_closed_form(*astuple(h))
        assert exact_ground_energy(h) == pytest.approx(expected, abs=1e-12)


def test_mitigation_round_trip_on_random_stochastic_matrix():
    for _ in range(20):
        columns = RNG.dirichlet(np.ones(4), size=4).T
        matrix = 0.7 * np.eye(4) + 0.3 * columns
        gamma = MitigationMatrix(matrix)
        p_true = RNG.dirichlet(np.ones(4))
        recovered = apply_mitigation(gamma, gamma.matrix @ p_true)
        assert np.allclose(recovered, p_true, atol=1e-9)


def test_reference_round_trip_on_simulated_distribution():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    p = backend.distribution(ansatz_circuit(theta, "XX"))
    gamma = build_mitigation(PhotonicVqeBackend(readout_flip=0.05), "XX")
    recovered = apply_mitigation(gamma, gamma.matrix @ p)
    assert np.allclose(recovered, p, atol=1e-9)


def test_mitigation_matrix_validation_errors():
    with pytest.raises(ValueError, match="basis"):
        build_mitigation(PhotonicVqeBackend(), "YY")
    with pytest.raises(ValueError, match="4x4"):
        MitigationMatrix(np.eye(3))
    bad_sums = np.eye(4) * 0.9
    with pytest.raises(ValueError, match="sum to 1"):
        MitigationMatrix(bad_sums)
    with pytest.raises(ValueError, match="dominant"):
        MitigationMatrix(np.full((4, 4), 0.25))


def test_apply_mitigation_clips_negatives_and_renormalizes():
    gamma = MitigationMatrix(flip_tensor(0.2))
    p = apply_mitigation(gamma, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0)
    assert np.allclose(p, [16.0 / 17.0, 0.0, 0.0, 1.0 / 17.0], atol=1e-12)


def test_identity_mitigation_is_noop():
    gamma = MitigationMatrix(np.eye(4))
    q = RNG.dirichlet(np.ones(4))
    assert np.allclose(apply_mitigation(gamma, q), q, atol=1e-15)


def test_apply_mitigation_rejects_bad_input():
    gamma = MitigationMatrix(np.eye(4))
    with pytest.raises(ValueError, match="4 outcome"):
        apply_mitigation(gamma, np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("4 outcome probabilities, got shape (2, 3)")):
        apply_mitigation(gamma, np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        apply_mitigation(gamma, np.array([0.5, -0.1, 0.4, 0.2]))
    with pytest.raises(ValueError, match="positive mass"):  # one empty row of a stack
        apply_mitigation(gamma, np.array([[0.5, 0.1, 0.4, 0.2], [0.0, 0.0, 0.0, 0.0]]))


def test_backend_matches_statevector():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    for basis in BASES:
        circuit = ansatz_circuit(theta, basis)
        rotation = np.kron(_MEAS_ROT[basis[0]], _MEAS_ROT[basis[1]])
        expected = np.abs(rotation @ circuit.logical_unitary()[:, 0]) ** 2
        assert np.allclose(backend.distribution(circuit), expected, atol=1e-12)


def test_xx_word_compiles_like_an_appended_hadamard_layer():
    # The reference gate lists read XX out by appending a Hadamard on each
    # qubit to the gates, with no measurement word.
    theta = np.random.default_rng(12).uniform(0.0, 2.0 * np.pi, 7)
    hadamards = [Gate("H", (0,)), Gate("H", (1,))]
    ansatz = [
        Gate("RY", (0,), theta[0]),
        Gate("CNOT", (0, 1)),
        Gate("RX", (0,), theta[1]),
        Gate("RX", (1,), theta[2]),
        Gate("RZ", (0,), theta[3]),
        Gate("RZ", (1,), theta[4]),
        Gate("RX", (0,), theta[5]),
        Gate("RX", (1,), theta[6]),
    ]
    pairs = [(ansatz_circuit(theta, "XX"), ansatz + hadamards)]
    for outcome in range(4):
        flips = [Gate("RY", (q,), np.pi) for q in range(2) if (outcome >> (1 - q)) & 1]
        pairs.append((_mitigation_circuit("XX", outcome), flips + 2 * hadamards))
    for circuit, gates in pairs:
        assert circuit.measurement == "XX"
        got = compile_gate_circuit(circuit).matrix
        want = compile_gate_circuit(GateCircuit(2, tuple(gates))).matrix
        assert got.tobytes() == want.tobytes()


def test_backend_readout_flip_applies_confusion_tensor():
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    circuit = ansatz_circuit(theta, "ZZ")
    clean = PhotonicVqeBackend().distribution(circuit)
    flipped = PhotonicVqeBackend(readout_flip=0.05).distribution(circuit)
    assert np.allclose(flipped, flip_tensor(0.05) @ clean, atol=1e-12)


def test_backend_input_validation():
    with pytest.raises(ValueError, match="readout_flip"):
        PhotonicVqeBackend(readout_flip=0.6)
    backend = PhotonicVqeBackend()
    single = GateCircuit(1, (Gate("H", (0,)),))
    with pytest.raises(ValueError, match="two-qubit"):
        backend.distribution(single)


def test_backend_with_source_noise_is_valid_and_shifted():
    source = SourceModel(indistinguishability=0.92, g2=0.012, efficiency=0.9)
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    circuit = ansatz_circuit(theta, "ZZ")
    clean = PhotonicVqeBackend().distribution(circuit)
    noisy = PhotonicVqeBackend(source=source).distribution(circuit)
    assert np.all(noisy >= 0.0)
    assert noisy.sum() == pytest.approx(1.0, abs=1e-6)
    assert np.max(np.abs(noisy - clean)) > 1e-3


def test_ansatz_validation():
    with pytest.raises(ValueError, match="7 angles"):
        ansatz_circuit(np.zeros(5))
    with pytest.raises(ValueError, match="basis"):
        ansatz_circuit(np.zeros(7), "YY")


def test_build_mitigation_noiseless_is_identity():
    backend = PhotonicVqeBackend()
    for basis in BASES:
        gamma = build_mitigation(backend, basis)
        assert np.allclose(gamma.matrix, np.eye(4), atol=1e-9)


def test_build_mitigation_matches_flip_tensor():
    backend = PhotonicVqeBackend(readout_flip=0.03)
    for basis in BASES:
        gamma = build_mitigation(backend, basis)
        assert np.allclose(gamma.matrix, flip_tensor(0.03), atol=1e-9)


def test_unseeded_sampled_mitigation_is_reproducible():
    backend = PhotonicVqeBackend(readout_flip=0.05)
    first = build_mitigation(backend, "ZZ", shots=200)
    second = build_mitigation(backend, "ZZ", shots=200)
    assert np.array_equal(first.matrix, second.matrix)


def test_build_mitigation_sampled_columns_are_stochastic():
    backend = PhotonicVqeBackend(readout_flip=0.03)
    gamma = build_mitigation(backend, "ZZ", shots=4000, seed=7)
    assert np.allclose(gamma.matrix.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(gamma.matrix, flip_tensor(0.03), atol=0.05)


@pytest.mark.parametrize("shots", [0, 2.5, float("inf"), float("nan")])
def test_build_mitigation_rejects_a_bad_shot_count_before_the_backend_runs(shots):
    calls = []

    class RecordingBackend:
        def distribution(self, circuit):
            calls.append(circuit)
            return np.eye(4)[0]

    with pytest.raises(ValueError, match="shots"):
        build_mitigation(RecordingBackend(), "ZZ", shots=shots)
    assert calls == []


def test_build_mitigation_disables_on_scrambled_backend():
    class UniformBackend:
        def distribution(self, circuit):
            return np.full(4, 0.25)

    with pytest.warns(RuntimeWarning, match="mitigation disabled"):
        gamma = build_mitigation(UniformBackend(), "ZZ")
    assert np.array_equal(gamma.matrix, np.eye(4))


def test_energy_linear_in_hamiltonian_coefficients():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    h1 = h2_hamiltonian(0.75)
    h2 = h2_hamiltonian(1.55)
    c1, c2 = 0.6, -1.3
    combined = QubitHamiltonian(
        *(c1 * x + c2 * y for x, y in zip(astuple(h1), astuple(h2)))
    )
    e1 = measure_energy(h1, theta, backend, shots=None)
    e2 = measure_energy(h2, theta, backend, shots=None)
    e12 = measure_energy(combined, theta, backend, shots=None)
    assert e12 == pytest.approx(c1 * e1 + c2 * e2, abs=1e-9)


def test_variational_bound_across_table():
    backend = PhotonicVqeBackend()
    table = bond_table()
    exact = {radius: exact_ground_energy(h) for radius, h in table}
    for _ in range(100):
        theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
        p_zz = backend.distribution(ansatz_circuit(theta, "ZZ"))
        p_xx = backend.distribution(ansatz_circuit(theta, "XX"))
        for radius, h in table:
            energy = energy_from_distributions(h, p_zz, p_xx)
            assert energy >= exact[radius] - 1e-9


def test_measure_energy_agrees_with_distribution_form():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    h = h2_hamiltonian(0.95)
    p_zz = backend.distribution(ansatz_circuit(theta, "ZZ"))
    p_xx = backend.distribution(ansatz_circuit(theta, "XX"))
    direct = measure_energy(h, theta, backend, shots=None)
    assert direct == pytest.approx(energy_from_distributions(h, p_zz, p_xx), abs=1e-12)


def test_energy_at_ground_angles_equals_eigenvalue():
    backend = PhotonicVqeBackend()
    for radius in (0.2, 0.75, 1.55):
        h = h2_hamiltonian(radius)
        energy = measure_energy(h, ground_angles(h), backend, shots=None)
        assert energy == pytest.approx(exact_ground_energy(h), abs=1e-9)


@pytest.mark.parametrize("shots", [100, 0, 2.5])
def test_measure_energy_refuses_a_shot_count(shots):
    # Sampled energies come from vqe_run; measure_energy reads exact ones.
    backend = PhotonicVqeBackend()
    with pytest.raises(ValueError, match=f"exact distributions; got shots={shots}"):
        measure_energy(h2_hamiltonian(0.75), np.zeros(7), backend, shots=shots)
    assert measure_energy(h2_hamiltonian(0.75), np.zeros(7), backend) == measure_energy(
        h2_hamiltonian(0.75), np.zeros(7), backend, shots=None
    )


def test_a_sampled_vqe_run_is_seeded():
    h, backend = h2_hamiltonian(0.75), PhotonicVqeBackend()
    runs = [
        vqe_run(h, backend, VqeConfig(shots=2000, seed=seed, max_iterations=3, mitigation=False))
        for seed in (3, 3, 4)
    ]
    assert np.array_equal(runs[0].energies, runs[1].energies)
    assert not np.array_equal(runs[0].energies, runs[2].energies)


def test_vqe_with_exact_energies_does_not_depend_on_the_seed():
    # The seed drives sampling only, so without shots every seed runs the
    # same sweeps.
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    first, second = (vqe_run(h, backend, VqeConfig(shots=None, seed=seed)) for seed in (0, 7))
    np.testing.assert_array_equal(first.energies, second.energies)
    np.testing.assert_array_equal(first.theta, second.theta)


def test_vqe_with_exact_energies_reaches_every_tabulated_ground_energy():
    backend = PhotonicVqeBackend()
    for radius, h in bond_table():
        result = vqe_run(h, backend, VqeConfig(shots=None))
        assert result.converged is True, radius
        assert result.energies[-1] == result.energy
        assert abs(result.energy - exact_ground_energy(h)) < 1e-9, radius


def test_vqe_energy_is_an_unbiased_estimate_at_the_returned_angles():
    # The reported energy is a fresh estimate at theta, so over seeds its
    # error against the exact energy there averages out; the lowest sample
    # of each run would sit several mHa below.
    h = h2_hamiltonian(0.75)
    errors = []
    for seed in range(20):
        result = vqe_run(h, PhotonicVqeBackend(), VqeConfig(seed=seed))
        assert result.evaluations == result.energies.size == 100
        assert result.energy == result.energies[-1]
        exact_at_theta = measure_energy(h, result.theta, PhotonicVqeBackend(), shots=None)
        errors.append(result.energy - exact_at_theta)
    standard_error = np.std(errors, ddof=1) / np.sqrt(len(errors))
    assert abs(np.mean(errors)) <= 3.0 * standard_error


def test_vqe_diagonal_hamiltonian_reaches_basis_optimum_quickly():
    h = QubitHamiltonian(0.5, 0.3, 0.4, 0.1, 0.0)
    exact = exact_ground_energy(h)
    assert exact == pytest.approx(np.min(np.diag(h.matrix())))
    backend = PhotonicVqeBackend()
    result = vqe_run(h, backend, VqeConfig(shots=None, mitigation=False, max_iterations=30))
    assert result.evaluations <= 30
    assert abs(result.energy - exact) < 1e-6


def test_an_infinite_shot_sweep_from_ground_angles_stays_exact():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)

    def objective(stack):
        return [measure_energy(h, theta, backend) for theta in stack]

    start = ground_angles(h)
    [value] = objective(start[None])
    theta, swept, complete = _sweep(objective, start, value, 2 * len(start))
    assert complete
    assert abs(swept - exact) < 1e-9
    assert abs(measure_energy(h, theta, backend) - exact) < 1e-9


def test_vqe_trajectory_and_cap_flag():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    result = vqe_run(h, backend, VqeConfig(shots=500, seed=2, max_iterations=12, mitigation=False))
    assert result.evaluations <= 12
    assert len(result.energies) == result.evaluations
    assert not result.converged


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("method", ["cobyla", "nelder-mead"])
@pytest.mark.parametrize("cap", [1, 12, 20])
def test_vqe_cap_is_hard_for_every_method(method, cap):
    # The sweeps and the closing re-measure share the cap.  The method axis
    # keeps the names of the removed SciPy optimizers: a config that still
    # asks for one is refused rather than run with the sweep in its place.
    with pytest.raises(TypeError, match="method"):
        VqeConfig(method=method)
    config = VqeConfig(shots=500, seed=2, max_iterations=cap, mitigation=False)
    result = vqe_run(h2_hamiltonian(0.75), PhotonicVqeBackend(), config)
    assert 1 <= result.evaluations <= cap
    assert len(result.energies) == result.evaluations
    assert not result.converged


def test_vqe_mitigated_beats_raw_on_readout_noise(monkeypatch):
    backend = PhotonicVqeBackend(readout_flip=0.03)
    columns = []
    distribution = backend.distribution
    monkeypatch.setattr(
        backend, "distribution", lambda circuit: columns.append(circuit) or distribution(circuit)
    )
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)
    wins = 0
    for seed in range(5):
        columns.clear()
        mitigated = vqe_run(h, backend, VqeConfig(seed=seed, mitigation=True))
        assert len(columns) == 8  # four columns in each of the two bases
        raw = vqe_run(h, backend, VqeConfig(seed=seed, mitigation=False))
        assert len(columns) == 8
        wins += abs(mitigated.energy - exact) <= abs(raw.energy - exact)
    assert wins >= 4


def test_vqe_config_validation():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    with pytest.raises(ValueError, match="max_iterations"):
        vqe_run(h, backend, VqeConfig(max_iterations=0))
    with pytest.raises(TypeError):
        vqe_run(h, backend, VqeConfig(max_iterations=2.5, shots=None, mitigation=False))
    with pytest.raises(ValueError, match="shots"):
        vqe_run(h, backend, VqeConfig(shots=0))


_BACKENDS = {
    "ideal": {},
    "readout_flip": {"readout_flip": 0.03},
    "noisy_source": {"source": SourceModel(indistinguishability=0.92, g2=0.012)},
}
_CASES = [
    (kind, method, mitigation)
    for kind in _BACKENDS
    for method in ("cobyla", "nelder-mead")
    for mitigation in (True, False)
]


@pytest.mark.parametrize(
    "case", range(len(_CASES)), ids=["-".join(map(str, case)) for case in _CASES]
)
def test_vqe_energies_match_a_backend_compiling_every_circuit(case):
    # 12 cases cycle through 3 radii and 2 seeds, so every (radius, seed)
    # pair is met twice; 40 evaluations run two full sweeps, five angles of
    # a third and the closing re-measure.  The middle slot keeps the names
    # of the removed SciPy optimizers and now only gives each backend kind
    # and mitigation setting a second (radius, seed) pair.
    kind, _, mitigation = _CASES[case]
    radius = (0.45, 0.75, 1.55)[case % 3]
    config = VqeConfig(shots=2000, max_iterations=40, seed=case % 2, mitigation=mitigation)
    h = h2_hamiltonian(radius)
    want = vqe_run(h, PerEvaluationVqeBackend(**_BACKENDS[kind]), config)
    got = vqe_run(h, PhotonicVqeBackend(**_BACKENDS[kind]), config)
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.theta, want.theta)


_COMPILE_CACHES = (
    qubits._gate_elements,
    qubits._gate_matrix,
    qubits._compiled_unitary,
    qubits._PREFIXES,
    qubits.pauli_measurement_setting,
)
_ANSATZ_ANGLE = st.sampled_from([0.0, -0.0, np.pi, -np.pi / 2, 2.0 * np.pi, 9.5, -31.0]) | st.floats(
    -40.0, 40.0, allow_nan=False
)


class _RecordingBackend(PhotonicVqeBackend):
    """Keeps every stack it reads out, and each unitary of it."""

    def ansatz_distributions(self, thetas):
        def read(unitaries, *args):
            self.stacks.append(unitaries)
            self.simulated.extend(unitaries)
            return qubits.logical_distributions(unitaries, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(variational, "logical_distributions", read)
            return super().ansatz_distributions(thetas)


def _evict_compile_caches():
    """Fill the compile cache and the prefix store with unrelated step lists."""
    enc = QubitEncoding.default(2)
    count = max(cached.cache_info().maxsize for cached in (qubits._compiled_unitary, qubits._PREFIXES))
    for i in range(count):
        qubits._compiled_unitary(_ansatz_steps(np.full(7, 100.0 + i)), None, enc)


def _compiled_settings(theta):
    """Mode matrices of ``ansatz_circuit(theta, basis)`` per basis, compiled with empty caches.

    Each must also be the oracle circuit's element-by-element ``unitary()``.
    """
    matrices = []
    for basis in BASES:
        for cached in _COMPILE_CACHES:
            cached.cache_clear()
        circuit = ansatz_circuit(theta, basis)
        unitary = compile_gate_circuit(circuit)
        assert unitary.matrix.tobytes() == compiled_circuit(circuit)[0].unitary().matrix.tobytes()
        matrices.append(unitary.matrix.tobytes())
    return matrices


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_ANSATZ_ANGLE, min_size=7, max_size=7),
    st.sampled_from(["warm", "after cache_clear", "after eviction"]),
)
def test_the_bound_ansatz_is_the_compiled_circuits_byte_for_byte(theta, state):
    backend = _RecordingBackend()
    backend.stacks, backend.simulated = [], []
    backend.ansatz_distributions([theta])
    if state == "after cache_clear":
        for cached in _COMPILE_CACHES:
            cached.cache_clear()
    elif state == "after eviction":
        _evict_compile_caches()
    backend.stacks, backend.simulated = [], []
    [got] = backend.ansatz_distributions([theta])
    bound = [unitary.tobytes() for unitary in backend.simulated]
    assert bound == _compiled_settings(theta)
    # each setting's circuit compiled warm, and built element by element
    circuits = [ansatz_circuit(theta, b) for b in BASES]
    assert bound == [compile_gate_circuit(circuit).matrix.tobytes() for circuit in circuits]
    assert bound == [compiled_circuit(c)[0].unitary().matrix.tobytes() for c in circuits]
    # a signed zero reads the same matrices as the other sign
    flipped = [-a if a == 0.0 else a for a in theta]
    assert bound == _compiled_settings(flipped)
    [stack] = backend.stacks
    for unitary in stack:
        with pytest.raises(ValueError, match="read-only"):
            unitary[0, 0] = 0.0
    want = [backend.distribution(ansatz_circuit(theta, basis)) for basis in BASES]
    assert np.array_equal(got, np.stack(want))


#: Ansatz step index of each angle: RY, then the CNOT, then six rotations.
_ANGLE_STEP = (0, 2, 3, 4, 5, 6, 7)


@st.composite
def _prefix_stacks(draw):
    """K in {1, 2, 3} angle rows sharing their first ``shared`` of the 8 ansatz steps."""
    k, shared = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    base = draw(st.lists(_ANSATZ_ANGLE, min_size=7, max_size=7))
    rows = [list(base)]
    for _ in range(k - 1):
        if draw(st.booleans()):  # an identical row
            rows.append(list(base))
            continue
        rows.append([a if step < shared else draw(_ANSATZ_ANGLE) for a, step in zip(base, _ANGLE_STEP)])
    return rows


@settings(max_examples=40, deadline=None)
@given(
    _prefix_stacks(),
    st.integers(0, 8),
    st.sampled_from(["cold", "warm", "after eviction"]),
)
def test_an_ansatz_stack_is_each_rows_compiled_circuits_byte_for_byte(thetas, warm_prefix, state):
    backend = _RecordingBackend()
    backend.stacks, backend.simulated = [], []
    for cached in _COMPILE_CACHES:
        cached.cache_clear()
    if state != "cold":
        # store the first row's steps up to its first angle at or after step warm_prefix
        other = [a + 1.0 if step >= warm_prefix else a for a, step in zip(thetas[0], _ANGLE_STEP)]
        backend.ansatz_distributions([thetas[0], other])
    if state == "after eviction":
        _evict_compile_caches()
    backend.stacks, backend.simulated = [], []
    got = backend.ansatz_distributions(thetas)
    bound = [unitary.tobytes() for unitary in backend.simulated]
    assert bound == [matrix for theta in thetas for matrix in _compiled_settings(theta)]
    for theta, row in zip(thetas, got):
        want = [backend.distribution(ansatz_circuit(theta, basis)) for basis in BASES]
        assert np.array_equal(row, np.stack(want))


def _sweep_step(theta, k):
    """The stack of a sweep step at angle k: theta with angle k shifted by +-pi/2."""
    shifted = np.stack([theta, theta])
    shifted[:, k] += (np.pi / 2.0, -np.pi / 2.0)
    return shifted


@pytest.mark.parametrize("k", range(1, 7))
def test_a_warm_sweep_step_applies_each_element_after_the_differing_step_once(monkeypatch, k):
    for cached in _COMPILE_CACHES:
        cached.cache_clear()
    backend, enc = PhotonicVqeBackend(), QubitEncoding.default(2)
    theta = np.linspace(0.3, 1.5, 7) + k
    backend.ansatz_distributions(_sweep_step(theta, k - 1))
    theta[k - 1] += 0.25  # the previous step's fitted angle
    applied, apply = [], qubits._apply_element

    def counted(u, element):
        applied.append(element)
        return apply(u, element)

    monkeypatch.setattr(qubits, "_apply_element", counted)
    backend.ansatz_distributions(_sweep_step(theta, k))
    zz, xx = (_ansatz_steps(row) for row in _sweep_step(theta, k))

    def elements(row, start, stop):
        """Elements of steps start..stop-1 of a row, on the ancillas the row draws."""
        pool, out = enc.ancilla_modes, []
        for j, step in enumerate(row[:stop]):
            step_elements, pool, _ = qubits._step(step, enc, pool)
            out += step_elements if j >= start else ()
        return out

    # the previous stack stored the steps before angle k - 1's; for k = 1,
    # the CNOT after angle 0 is new as well
    start, differing = 0 if k == 1 else _ANGLE_STEP[k - 1], _ANGLE_STEP[k]
    rotations = list(qubits.pauli_measurement_setting("XX", enc))
    assert applied == [
        *elements(zz, start, differing),
        *elements(zz, differing, differing + 1),
        *elements(xx, differing, differing + 1),
        *elements(zz, differing + 1, 8),  # once for the stack, as are the rotations
        *rotations,
    ]


@pytest.mark.parametrize("shape", [(7,), (0, 7), (2, 6), (1, 2, 7)])
def test_an_ansatz_stack_must_be_a_stack_of_rows(shape, monkeypatch):
    monkeypatch.setattr(variational, "_compiled_rows", None)  # refused before compiling
    message = re.escape(f"expected a (K, 7) stack of angle rows with K >= 1, got shape {shape}")
    with pytest.raises(ValueError, match=message):
        PhotonicVqeBackend().ansatz_distributions(np.zeros(shape))


def test_stacked_energies_match_one_vector_mitigation_row_by_row():
    # shots drawn row by row, ZZ then XX, then each setting's rows mitigated in one call
    backend = PhotonicVqeBackend(readout_flip=0.03)
    gammas = {basis: build_mitigation(backend, basis, shots=500, seed=3) for basis in BASES}
    h, thetas = h2_hamiltonian(0.75), RNG.uniform(-7.0, 7.0, (5, 7))
    got = variational._energies(h, thetas, backend, 2000, gammas, np.random.default_rng(8))
    rng, want = np.random.default_rng(8), []
    for row in backend.ansatz_distributions(thetas):
        p = [apply_mitigation(gammas[b], fock._frequencies(rng, 2000, q)) for b, q in zip(BASES, row)]
        want.append(energy_from_distributions(h, *p))
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_a_backend_without_ansatz_distributions_is_named_in_the_error():
    class DistributionOnly:
        def distribution(self, circuit):
            return PhotonicVqeBackend().distribution(circuit)

    h = h2_hamiltonian(0.75)
    with pytest.raises(TypeError, match="DistributionOnly has no ansatz_distributions"):
        measure_energy(h, np.zeros(7), DistributionOnly())
    config = VqeConfig(shots=100, max_iterations=3, mitigation=True)
    with pytest.raises(TypeError, match="DistributionOnly has no ansatz_distributions"):
        vqe_run(h, DistributionOnly(), config)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_ansatz_angle_is_refused(bad):
    theta = np.full(7, 0.3)
    theta[4] = bad
    h = h2_hamiltonian(0.75)
    with pytest.raises(ValueError, match="angle must be finite"):
        measure_energy(h, theta, PhotonicVqeBackend(), shots=None)


def test_a_warm_energy_at_a_new_angle_builds_no_gate_and_checks_once(monkeypatch):
    backend, h = PhotonicVqeBackend(readout_flip=0.02), h2_hamiltonian(0.75)
    theta = np.linspace(0.2, 1.4, 7)
    measure_energy(h, theta, backend, shots=None)
    gates, checks = [], []
    post_init, rail_amplitudes = Gate.__post_init__, qubits._rail_amplitudes

    def counted_gate(self):
        gates.append(self)
        post_init(self)

    def counted_check(unitary, enc):
        checks.append(enc)
        return rail_amplitudes(unitary, enc)

    monkeypatch.setattr(Gate, "__post_init__", counted_gate)
    monkeypatch.setattr(qubits, "_rail_amplitudes", counted_check)
    theta[3] += np.pi / 2.0
    energy = measure_energy(h, theta, backend, shots=None)
    assert (len(gates), len(checks)) == (0, 1)
    # the same angles again hit the checked compile's cache: no further check
    assert measure_energy(h, theta, backend, shots=None) == energy
    assert (len(gates), len(checks)) == (0, 1)
    zz, xx = (backend.distribution(ansatz_circuit(theta, basis)) for basis in BASES)
    assert np.array_equal(backend.ansatz_distributions([theta])[0], np.stack([zz, xx]))


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), noisy=st.booleans())
def test_each_row_of_an_ansatz_stack_is_its_own_one_row_call(k, seed, noisy):
    rng = np.random.default_rng(seed)
    source = SourceModel(indistinguishability=0.92, g2=0.012) if noisy else SourceModel()
    backend = PhotonicVqeBackend(readout_flip=0.03, source=source)
    thetas = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, (k, 7))
    stacked = backend.ansatz_distributions(thetas)
    assert stacked.shape == (k, 2, 4)
    for i in range(k):
        assert stacked[i].tobytes() == backend.ansatz_distributions(thetas[i : i + 1])[0].tobytes()


def _count_calls(monkeypatch, home, name):
    """Calls of ``home.name`` through every lopsim module that imported it by name."""
    original, calls = getattr(home, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("lopsim") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_a_qubit_apps_vqe_run_simulates_only_its_mitigation_columns(monkeypatch):
    # The benchmark's tracer self-test needs one traced span in the op: the
    # 8 mitigation columns are its only noisy_simulate calls (the perfect
    # source runs the trigger sum, never strong_simulate), and every sweep
    # step reads both shifted angles in one stacked readout.
    ideal = _count_calls(monkeypatch, fock, "strong_simulate")
    simulated = _count_calls(monkeypatch, sources, "noisy_simulate")
    single = _count_calls(monkeypatch, qubits, "logical_distribution")
    stacked = _count_calls(monkeypatch, qubits, "logical_distributions")
    config = VqeConfig(shots=2000, max_iterations=20, seed=5, mitigation=True)
    result = vqe_run(h2_hamiltonian(0.75), PhotonicVqeBackend(readout_flip=0.03), config)
    assert result.evaluations == 20 and not result.converged
    assert (len(ideal), len(simulated), len(single)) == (0, 8, 8)
    steps = (result.evaluations - 2) // 2
    assert [len(args[0]) for args in stacked] == [2] + [4] * steps + [2]


def test_a_second_qubit_apps_pass_compiles_no_known_circuit_again(monkeypatch):
    # A qubit_apps op builds two CNOT executors and runs a mitigated VQE. On
    # a second pass the CNOT and the eight mitigation circuits are hits of
    # the compile cache, and the check sees only the ansatz rows that the
    # prefix store does not hold as checked (a new radius: new rows).
    cnot = GateCircuit.from_text("CNOT 0 1", n_qubits=2)
    config = VqeConfig(shots=2000, max_iterations=20, seed=5, mitigation=True)

    def qubit_apps_pass(radius):
        photonic_executor(cnot)
        photonic_executor(cnot, source=SourceModel(indistinguishability=0.94, g2=0.01))
        vqe_run(h2_hamiltonian(radius), PhotonicVqeBackend(readout_flip=0.03), config)

    qubit_apps_pass(0.75)
    unchecked, checked = [], []
    compiled_rows, check = variational._compiled_rows, qubits._check

    def counted_rows(rows, enc):
        # the lookups _compiled_rows makes first, in its order, so the store's order is kept
        stored = [qubits._PREFIXES.get(row, enc) for row in rows]
        unchecked.append(len({row for row, e in zip(rows, stored) if e is None or not e.checked}))
        return compiled_rows(rows, enc)

    def counted_check(enc, modes, logical, successes):
        checked.append(len(modes))
        return check(enc, modes, logical, successes)

    monkeypatch.setattr(variational, "_compiled_rows", counted_rows)
    monkeypatch.setattr(qubits, "_check", counted_check)
    before = qubits._compiled_unitary.cache_info()
    qubit_apps_pass(1.55)
    after = qubits._compiled_unitary.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (10, 0)
    assert checked == [n for n in unchecked if n] and sum(checked) > 0
