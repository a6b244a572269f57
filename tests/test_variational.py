"""Tests for the two-qubit variational ground-state workflow."""

import numpy as np
import pytest
from _oracles import PerEvaluationVqeBackend, h2_ground_energy_closed_form

from lopsim.qubits import Gate, GateCircuit
from lopsim.sources import SourceModel
from lopsim.variational import (
    BASES,
    MitigationMatrix,
    PhotonicVqeBackend,
    QubitHamiltonian,
    VqeConfig,
    ansatz_circuit,
    apply_mitigation,
    bond_table,
    build_mitigation,
    energy_from_distributions,
    exact_ground_energy,
    h2_hamiltonian,
    measure_energy,
    reference_mitigation,
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
    assert h2_hamiltonian(0.75).coefficients == ROW_075
    assert h2_hamiltonian(0.2).coefficients == ROW_020


def test_beta_equals_gamma_at_every_radius():
    for _, h in bond_table():
        assert abs(h.beta - h.gamma) <= 1e-12


def test_duplicated_neighbor_rows_are_preserved():
    assert h2_hamiltonian(0.3).coefficients == h2_hamiltonian(0.35).coefficients


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
        expected = h2_ground_energy_closed_form(*h.coefficients)
        assert exact_ground_energy(h) == pytest.approx(expected, abs=1e-12)


def test_reference_mitigation_loads_and_validates():
    gamma_zz = reference_mitigation("ZZ")
    gamma_xx = reference_mitigation("XX")
    assert gamma_zz.matrix[0, 0] == pytest.approx(0.99999995, abs=1e-8)
    assert gamma_zz.matrix[1, 1] == pytest.approx(0.93809, abs=1e-5)
    for gamma in (gamma_zz, gamma_xx):
        assert np.all(np.abs(gamma.matrix.sum(axis=0) - 1.0) <= 1e-6)
        diag = np.diag(gamma.matrix)
        assert np.all(diag > gamma.matrix.sum(axis=0) - diag)


def test_mitigation_round_trip_on_random_stochastic_matrix():
    for _ in range(20):
        columns = RNG.dirichlet(np.ones(4), size=4).T
        matrix = 0.7 * np.eye(4) + 0.3 * columns
        gamma = MitigationMatrix("ZZ", matrix)
        p_true = RNG.dirichlet(np.ones(4))
        recovered = apply_mitigation(gamma, gamma.matrix @ p_true)
        assert np.allclose(recovered, p_true, atol=1e-9)


def test_reference_round_trip_on_simulated_distribution():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    p = backend.distribution(ansatz_circuit(theta, "XX"))
    gamma = reference_mitigation("XX")
    recovered = apply_mitigation(gamma, gamma.matrix @ p)
    assert np.allclose(recovered, p, atol=1e-9)


def test_mitigation_matrix_validation_errors():
    with pytest.raises(ValueError, match="basis"):
        MitigationMatrix("YY", np.eye(4))
    with pytest.raises(ValueError, match="4x4"):
        MitigationMatrix("ZZ", np.eye(3))
    bad_sums = np.eye(4) * 0.9
    with pytest.raises(ValueError, match="sum to 1"):
        MitigationMatrix("ZZ", bad_sums)
    with pytest.raises(ValueError, match="dominant"):
        MitigationMatrix("ZZ", np.full((4, 4), 0.25))


def test_apply_mitigation_clips_negatives_and_renormalizes():
    gamma = MitigationMatrix("ZZ", flip_tensor(0.2))
    p = apply_mitigation(gamma, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0)
    assert np.allclose(p, [16.0 / 17.0, 0.0, 0.0, 1.0 / 17.0], atol=1e-12)


def test_identity_mitigation_is_noop():
    gamma = MitigationMatrix("XX", np.eye(4))
    q = RNG.dirichlet(np.ones(4))
    assert np.allclose(apply_mitigation(gamma, q), q, atol=1e-15)


def test_apply_mitigation_rejects_bad_input():
    gamma = MitigationMatrix("ZZ", np.eye(4))
    with pytest.raises(ValueError, match="4 outcome"):
        apply_mitigation(gamma, np.zeros(3))
    with pytest.raises(ValueError, match="nonnegative"):
        apply_mitigation(gamma, np.array([0.5, -0.1, 0.4, 0.2]))


def test_backend_matches_statevector():
    backend = PhotonicVqeBackend()
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    for basis in BASES:
        circuit = ansatz_circuit(theta, basis)
        expected = np.abs(circuit.logical_unitary()[:, 0]) ** 2
        assert np.allclose(backend.distribution(circuit), expected, atol=1e-12)


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
        *(c1 * x + c2 * y for x, y in zip(h1.coefficients, h2.coefficients))
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


def test_measure_energy_sampling_is_seeded():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    theta = RNG.uniform(0.0, 2.0 * np.pi, 7)
    a = measure_energy(h, theta, backend, shots=2000, rng=np.random.default_rng(3))
    b = measure_energy(h, theta, backend, shots=2000, rng=np.random.default_rng(3))
    c = measure_energy(h, theta, backend, shots=2000, rng=np.random.default_rng(4))
    assert a == b
    assert a != c


def test_measure_energy_rejects_nonpositive_shots():
    backend = PhotonicVqeBackend()
    with pytest.raises(ValueError, match="shots"):
        measure_energy(h2_hamiltonian(0.75), np.zeros(7), backend, shots=0)


def test_measure_energy_rejects_shots_without_rng():
    backend = PhotonicVqeBackend()
    with pytest.raises(ValueError, match="rng"):
        measure_energy(h2_hamiltonian(0.75), np.zeros(7), backend, shots=100)
    assert measure_energy(h2_hamiltonian(0.75), np.zeros(7), backend) == measure_energy(
        h2_hamiltonian(0.75), np.zeros(7), backend, shots=None
    )


def test_vqe_noiseless_converges_for_every_seed():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)
    for seed in range(5):
        result = vqe_run(h, backend, VqeConfig(shots=None, seed=seed, mitigation=False))
        assert result.evaluations <= 100
        assert abs(result.energy - exact) < 0.01


def test_vqe_diagonal_hamiltonian_reaches_basis_optimum_quickly():
    h = QubitHamiltonian(0.5, 0.3, 0.4, 0.1, 0.0)
    exact = exact_ground_energy(h)
    assert exact == pytest.approx(np.min(np.diag(h.matrix())))
    backend = PhotonicVqeBackend()
    result = vqe_run(h, backend, VqeConfig(shots=None, mitigation=False, max_iterations=30))
    assert result.evaluations <= 30
    assert abs(result.energy - exact) < 1e-6


def test_vqe_infinite_shot_from_ground_angles_is_exact():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)
    config = VqeConfig(shots=None, mitigation=False, initial_theta=ground_angles(h))
    result = vqe_run(h, backend, config)
    assert abs(result.energy - exact) < 1e-9


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
@pytest.mark.parametrize("initial_theta", [None, np.full(7, 0.3)], ids=["presweep", "given"])
def test_vqe_cap_is_hard_for_every_method(method, cap, initial_theta):
    # Presweep and polish stage share the cap, and no budget the polish
    # stage is handed may trip SciPy's own minimum-budget warning.
    config = VqeConfig(
        shots=500, seed=2, max_iterations=cap, mitigation=False,
        method=method, initial_theta=initial_theta,
    )
    result = vqe_run(h2_hamiltonian(0.75), PhotonicVqeBackend(), config)
    assert 1 <= result.evaluations <= cap
    assert len(result.energies) == result.evaluations
    assert not result.converged


def test_vqe_mitigated_beats_raw_on_readout_noise():
    backend = PhotonicVqeBackend(readout_flip=0.03)
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)
    wins = 0
    for seed in range(5):
        mitigated = vqe_run(h, backend, VqeConfig(seed=seed, mitigation=True))
        raw = vqe_run(h, backend, VqeConfig(seed=seed, mitigation=False))
        assert mitigated.mitigation is not None
        assert raw.mitigation is None
        wins += abs(mitigated.energy - exact) <= abs(raw.energy - exact)
    assert wins >= 4


def test_vqe_config_validation():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    with pytest.raises(ValueError, match="method"):
        vqe_run(h, backend, VqeConfig(method="adam"))
    with pytest.raises(ValueError, match="max_iterations"):
        vqe_run(h, backend, VqeConfig(max_iterations=0))
    with pytest.raises(ValueError, match="initial_theta"):
        vqe_run(h, backend, VqeConfig(initial_theta=np.zeros(3)))


def test_vqe_nelder_mead_method_converges():
    backend = PhotonicVqeBackend()
    h = h2_hamiltonian(0.75)
    exact = exact_ground_energy(h)
    result = vqe_run(h, backend, VqeConfig(shots=None, mitigation=False, method="nelder-mead"))
    assert abs(result.energy - exact) < 0.01


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
    # pair is met twice; 40 evaluations run the presweep and a polish
    # stage that moves every angle.
    kind, method, mitigation = _CASES[case]
    radius = (0.45, 0.75, 1.55)[case % 3]
    config = VqeConfig(
        shots=2000, max_iterations=40, seed=case % 2, mitigation=mitigation, method=method
    )
    h = h2_hamiltonian(radius)
    want = vqe_run(h, PerEvaluationVqeBackend(**_BACKENDS[kind]), config)
    got = vqe_run(h, PhotonicVqeBackend(**_BACKENDS[kind]), config)
    assert np.array_equal(got.energies, want.energies)
    assert np.array_equal(got.theta, want.theta)
