"""Tests for the source noise model and its characterization experiments."""

import re

import numpy as np
import pytest

from lopsim.fock import (
    ModeUnitary,
    OutputDistribution,
    enumerate_basis,
    sample,
    strong_simulate,
)
from lopsim.mesh import DirectionalCoupler, PhaseShifter, PhotonicCircuit
from lopsim.sources import (
    SHARED_LABEL,
    TAIL_TOLERANCE,
    LabeledPhoton,
    SourceModel,
    build_input,
    coincidence_probability,
    cyclic_input_modes,
    cyclic_interferometer,
    fit_fringe,
    fit_product_model,
    genuine_indistinguishability,
    hom_experiment,
    load_indistinguishability_matrix,
    measure_genuine_indistinguishability,
    ms_correction,
    noisy_simulate,
    _fringe_table,
    _upper_triangular,
)

from _oracles import (
    branch_distribution,
    classical_routing_probability,
    constructive_patterns,
    cyclic_full_distribution,
    placed_distribution,
)


class TestSourceModel:
    def test_default_is_perfect(self):
        src = SourceModel()
        assert src.indistinguishability == 1.0
        assert src.g2 == 0.0
        assert src.efficiency == 1.0

    def test_scalar_m_values(self):
        src = SourceModel(indistinguishability=0.9)
        assert np.allclose(src.m_values(4), 0.9)

    def test_vector_m_values(self):
        src = SourceModel(indistinguishability=[0.9, 0.8, 0.7])
        assert src.indistinguishability == (0.9, 0.8, 0.7)
        assert np.allclose(src.m_values(3), [0.9, 0.8, 0.7])
        with pytest.raises(ValueError, match="defines 3 photons"):
            src.m_values(2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"g2": 1.0},
            {"g2": -0.1},
            {"efficiency": 0.0},
            {"efficiency": 1.2},
            {"indistinguishability": 1.3},
            {"indistinguishability": [0.9, -0.1]},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SourceModel(**kwargs)


class TestIndistinguishabilityMatrix:
    def test_bundled_matrix(self):
        matrix = load_indistinguishability_matrix()
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == pytest.approx(0.942)
        assert matrix[2, 4] == pytest.approx(0.911)
        assert matrix[4, 5] == pytest.approx(0.942)

    def test_csv_round_trip(self):
        matrix = _upper_triangular("0.9,0.8\n0.7\n")
        expected = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.7], [0.8, 0.7, 1.0]])
        assert np.allclose(matrix, expected)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row 0"):
            _upper_triangular("0.9\n0.7\n")

    def test_product_fit_recovers_exact_product(self):
        m_true = np.array([0.95, 0.9, 0.85, 0.99])
        matrix = np.outer(m_true, m_true)
        np.fill_diagonal(matrix, 1.0)
        m_fit, residual = fit_product_model(matrix)
        assert np.allclose(m_fit, m_true, atol=1e-12)
        assert residual < 1e-12

    def test_product_fit_of_bundled_matrix(self):
        matrix = load_indistinguishability_matrix()
        m_fit, residual = fit_product_model(matrix)
        expected = [0.95786, 0.96488, 0.95943, 0.97008, 0.96274, 0.96380]
        assert np.allclose(m_fit, expected, atol=1e-4)
        assert residual == pytest.approx(0.009273, abs=1e-4)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1.0, 0.9], [0.8, 1.0]]),
            np.array([[0.9, 0.9], [0.9, 1.0]]),
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        ],
    )
    def test_product_fit_validation(self, matrix):
        with pytest.raises(ValueError):
            fit_product_model(matrix)

    @pytest.mark.parametrize(
        "diagonal, upper, lower, match",
        [(1.0 + 5e-6, 0.9, 0.9, "diagonal"), (1.0, 0.9, 0.9 + 5e-6, "symmetric")],
        ids=["diagonal", "symmetry"],
    )
    def test_product_fit_checks_hold_their_stated_tolerance(self, diagonal, upper, lower, match):
        # both checks say atol=1e-9; a deviation of 5e-6 is refused
        matrix = np.array([[diagonal, upper], [lower, 1.0]])
        with pytest.raises(ValueError, match=match):
            fit_product_model(matrix)

    def test_the_product_fit_of_the_bundled_matrix_is_a_six_photon_source(self):
        m_fit, _ = fit_product_model(load_indistinguishability_matrix())
        src = SourceModel(indistinguishability=tuple(m_fit), g2=0.0075)
        assert len(src.indistinguishability) == 6
        assert np.array_equal(src.m_values(6), m_fit)


class TestBuildInput:
    def test_perfect_source_is_deterministic(self):
        labeled = build_input(3, SourceModel())
        assert len(labeled.branches) == 1
        branch = labeled.branches[0]
        assert branch.weight == pytest.approx(1.0)
        assert [p.mode for p in branch.photons] == [0, 1, 2]
        assert all(p.label == SHARED_LABEL for p in branch.photons)

    def test_custom_input_modes(self):
        labeled = build_input(2, SourceModel(), modes=(1, 3))
        assert [p.mode for p in labeled.branches[0].photons] == [1, 3]
        with pytest.raises(ValueError, match="input modes"):
            build_input(2, SourceModel(), modes=(1, 2, 3))

    def test_two_photon_label_weights(self):
        labeled = build_input(2, SourceModel(indistinguishability=0.94))
        by_shared = {}
        for branch in labeled.branches:
            shared = sum(p.label == SHARED_LABEL for p in branch.photons)
            by_shared[shared] = by_shared.get(shared, 0.0) + branch.weight
        assert by_shared[2] == pytest.approx(0.8836)
        assert by_shared[1] == pytest.approx(2 * 0.0564)
        assert by_shared[0] == pytest.approx(0.0036)

    def test_distinguishable_photons_get_unique_labels(self):
        labeled = build_input(3, SourceModel(indistinguishability=0.0))
        assert len(labeled.branches) == 1
        labels = [p.label for p in labeled.branches[0].photons]
        assert len(set(labels)) == 3
        assert SHARED_LABEL not in labels

    def test_extra_photons_share_mode_not_label(self):
        labeled = build_input(1, SourceModel(g2=0.01))
        heavy, light = sorted(labeled.branches, key=lambda b: -b.weight)
        assert heavy.weight == pytest.approx(0.99)
        assert light.weight == pytest.approx(0.01)
        assert light.n == 2
        modes = [p.mode for p in light.photons]
        labels = [p.label for p in light.photons]
        assert modes == [0, 0]
        assert len(set(labels)) == 2

    def test_weights_sum_to_one(self):
        src = SourceModel(indistinguishability=0.9, g2=0.02, efficiency=0.7)
        labeled = build_input(3, src)
        assert sum(b.weight for b in labeled.branches) == pytest.approx(1.0, abs=1e-12)

    def test_loss_branches(self):
        labeled = build_input(2, SourceModel(efficiency=0.75))
        by_n = {}
        for branch in labeled.branches:
            by_n[branch.n] = by_n.get(branch.n, 0.0) + branch.weight
        assert by_n[2] == pytest.approx(0.75**2)
        assert by_n[1] == pytest.approx(2 * 0.75 * 0.25)
        assert by_n[0] == pytest.approx(0.25**2)


class TestNoisySimulate:
    def test_perfect_source_equals_strong_simulate(self):
        rng = np.random.default_rng(11)
        unitary = ModeUnitary.haar_random(5, rng)
        labeled = build_input(3, SourceModel())
        noisy = noisy_simulate(unitary, labeled)
        ideal = strong_simulate(unitary, (0, 1, 2))
        for got, p in zip(noisy.sectors[3], ideal.probabilities):
            assert got == pytest.approx(p, abs=1e-12)
        assert noisy.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fully_distinguishable_matches_classical_routing(self):
        rng = np.random.default_rng(12)
        unitary = ModeUnitary.haar_random(4, rng)
        labeled = build_input(3, SourceModel(indistinguishability=0.0))
        noisy = noisy_simulate(unitary, labeled)
        rows, values = noisy.outcomes()
        for row, p in zip(rows[values > 0].tolist(), values[values > 0]):
            expected = classical_routing_probability(unitary.matrix, (0, 1, 2), row)
            assert p == pytest.approx(expected, abs=1e-12)

    def test_independent_label_classes_factorize(self):
        circuit = PhotonicCircuit(4)
        circuit.add(DirectionalCoupler(0, 1))
        circuit.add(PhaseShifter(2, 0.3))
        circuit.add(DirectionalCoupler(2, 3))
        unitary = circuit.unitary()
        # Two label classes in one branch: a case the per-trigger input
        # table cannot express, checked on the branch-wise oracle that
        # noisy_simulate is compared against.
        photons = (
            LabeledPhoton(0, 1),
            LabeledPhoton(1, 1),
            LabeledPhoton(2, 2),
            LabeledPhoton(3, 2),
        )
        noisy = branch_distribution(unitary.matrix, photons)
        two_mode = ModeUnitary(unitary.matrix[:2, :2])
        top = strong_simulate(two_mode, (0, 1))
        bottom_u = ModeUnitary(unitary.matrix[2:, 2:])
        bottom = strong_simulate(bottom_u, (0, 1))
        rows = enumerate_basis(2, 2).occupations.tolist()
        for s_top, p_top in zip(rows, top.probabilities):
            for s_bot, p_bot in zip(rows, bottom.probabilities):
                assert noisy.get(tuple(s_top + s_bot), 0.0) == pytest.approx(
                    p_top * p_bot, abs=1e-12
                )

    def test_photon_mode_out_of_range(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(2, SourceModel(), modes=(0, 3))
        with pytest.raises(ValueError, match="out of range"):
            noisy_simulate(unitary, labeled)

    def test_sector_masses_follow_the_efficiency(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(2, SourceModel(efficiency=0.75))
        dist = noisy_simulate(unitary, labeled)
        assert dist.sectors[2].sum() == pytest.approx(0.75**2)
        assert dist.sectors[1].sum() == pytest.approx(2 * 0.75 * 0.25)
        assert dist.sectors[0].sum() == pytest.approx(0.25**2)


class TestHomExperiment:
    def test_perfect_photons_full_visibility(self):
        assert hom_experiment(SourceModel()) == pytest.approx(1.0, abs=1e-12)

    def test_distinguishable_photons_no_visibility(self):
        src = SourceModel(indistinguishability=0.0)
        assert hom_experiment(src) == pytest.approx(0.0, abs=1e-12)

    def test_pairwise_visibility_is_product_of_m(self):
        src = SourceModel(indistinguishability=(0.9, 0.8))
        assert hom_experiment(src) == pytest.approx(0.72, abs=1e-12)

    def test_measured_triple_reproduced(self):
        m_s = 0.9438
        g2 = 0.00732
        src = SourceModel(indistinguishability=np.sqrt(m_s), g2=g2)
        visibility = hom_experiment(src)
        assert visibility == pytest.approx(0.9296, abs=1e-3)
        assert ms_correction(visibility, g2) == pytest.approx(m_s, abs=1e-3)

    def test_ms_correction_identity_without_g2(self):
        assert ms_correction(0.87, 0.0) == pytest.approx(0.87)

    def test_ms_correction_formula(self):
        assert ms_correction(0.5, 0.1) == pytest.approx(0.6 / 0.9)

    def test_ms_correction_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert ms_correction(0.99, 0.1) == 1.0

    @pytest.mark.parametrize("args", [(-0.1, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -0.1)])
    def test_ms_correction_domain(self, args):
        with pytest.raises(ValueError):
            ms_correction(*args)


class TestCyclicInterferometer:
    def test_unsupported_photon_number(self):
        for n in (2, 3, 5, 7):
            with pytest.raises(ValueError, match="unsupported"):
                cyclic_interferometer(n, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_phase_is_refused_by_name(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite phase"):
            cyclic_interferometer(4, alpha)

    def test_input_modes_are_odd(self):
        assert cyclic_input_modes(4) == (1, 3, 5, 7)
        assert cyclic_input_modes(6) == (1, 3, 5, 7, 9, 11)

    def test_perfect_photons_have_unit_visibility(self):
        p = measure_genuine_indistinguishability(4, SourceModel())
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_destructive_class_dark_at_zero_phase(self):
        unitary = cyclic_interferometer(4, 0.0)
        dist = strong_simulate(unitary, cyclic_input_modes(4))
        probs = dist.sectors[4]
        ranks, constructive, destructive = _fringe_table(8, 4, 4)
        assert probs[ranks[constructive]].sum() > 0.01
        assert probs[ranks[destructive]].sum() < 1e-12

    def test_pattern_classes_split_evenly(self):
        constructive = constructive_patterns(4)
        assert len(constructive) == 8
        assert all(sum(pattern) % 2 == 0 for pattern in constructive)

    @pytest.mark.parametrize("n_photons", range(2, 8))
    def test_parity_classes_are_the_simulated_bright_patterns(self, n_photons):
        # n photons on n output pairs with one click in each: one row per pattern
        rows = enumerate_basis(2 * n_photons, n_photons).occupations
        ranks, constructive, destructive = _fringe_table(2 * n_photons, n_photons, n_photons)
        assert len(constructive) + len(destructive) == len(ranks) == 2**n_photons
        bright = set(map(tuple, rows[ranks[constructive], 1::2].tolist()))
        assert bright == constructive_patterns(n_photons)

    def test_product_model_oracle(self):
        ms = (0.93, 0.88, 0.95, 0.90)
        src = SourceModel(indistinguishability=ms)
        p = measure_genuine_indistinguishability(4, src)
        assert p == pytest.approx(float(np.prod(ms)), abs=1e-9)

    def test_fringe_fit_matches_ideal_cosine(self):
        alphas = np.linspace(0.0, 2.0 * np.pi, 9)
        values = [measure_genuine_indistinguishability(4, SourceModel(), a) for a in alphas]
        fit = fit_fringe(alphas, values)
        assert fit.frequency == pytest.approx(1.0, abs=5e-3)
        assert fit.phase == pytest.approx(0.0, abs=1e-2)
        assert fit.amplitude == pytest.approx(1.0, abs=5e-3)

    def test_estimator_accepts_counts(self):
        unitary = cyclic_interferometer(4, 0.0)
        modes = cyclic_input_modes(4)
        dist = strong_simulate(unitary, modes)
        rounded = OutputDistribution(8, {4: np.round(dist.sectors[4] * 1e6)})
        assert genuine_indistinguishability(rounded, 4) == pytest.approx(1.0, abs=1e-4)
        counts = sample(unitary, modes, 2000, rng=5)
        assert genuine_indistinguishability(counts, 4) == pytest.approx(1.0, abs=1e-4)

    def test_estimator_requires_events(self):
        bunched = placed_distribution(8, {(4, 0, 0, 0, 0, 0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="undefined"):
            genuine_indistinguishability(bunched, 4)

    def test_estimator_names_the_modes_it_reads(self):
        # Six modes hold three output pairs; the four-photon fringe reads four pairs.
        dist = strong_simulate(ModeUnitary(np.eye(6)), (1, 3, 5))
        with pytest.raises(ValueError, match="needs 8 modes, got 6"):
            genuine_indistinguishability(dist, 4)
        with pytest.raises(ValueError, match="needs 8 modes, got 6"):
            genuine_indistinguishability(placed_distribution(6, {(1, 0, 1, 0, 1, 0): 5}), 4)
        with pytest.raises(ValueError, match="needs 8 modes, got 6"):
            genuine_indistinguishability(OutputDistribution(6, {}), 4)

    @pytest.mark.parametrize("n_photons", [0, -1])
    def test_estimator_refuses_fewer_than_one_photon(self, n_photons):
        # with no output pairs the class split is empty; it must not read as p_N = 1 or 0
        dist = strong_simulate(cyclic_interferometer(4, 0.0), (1, 3, 5, 7))
        with pytest.raises(ValueError, match="at least one photon"):
            genuine_indistinguishability(dist, n_photons)

    def test_four_photon_regime_with_measured_matrix(self):
        matrix = load_indistinguishability_matrix()
        m_fit, _ = fit_product_model(matrix)
        src = SourceModel(indistinguishability=tuple(m_fit[:4]), g2=0.0075)
        p4 = measure_genuine_indistinguishability(4, src)
        assert 0.82 <= p4 <= 0.88
        assert p4 == pytest.approx(0.8243, abs=5e-4)

    def test_six_photon_regime_with_measured_matrix(self):
        # The click-level g2 contamination pulls the estimate below the
        # bare product of the fitted m_i (0.798); the measured value for
        # this source was 0.76, between the two model extremes.
        matrix = load_indistinguishability_matrix()
        m_fit, _ = fit_product_model(matrix)
        src = SourceModel(indistinguishability=tuple(m_fit), g2=0.0075)
        p6 = measure_genuine_indistinguishability(6, src)
        assert p6 == pytest.approx(0.7194, abs=1e-3)
        assert p6 < measure_genuine_indistinguishability(4, SourceModel(indistinguishability=tuple(m_fit[:4]), g2=0.0075))

    def test_six_photon_value_is_exact_to_the_reported_tail(self):
        # 0.71937814036 is the sum over all 4096 labeled branches with
        # nothing pruned.  The g2 = 0.0075 tail above the 10-photon cap
        # is five or six extra photons: 6 g2^5 (1 - g2) + g2^6.
        m_fit, _ = fit_product_model(load_indistinguishability_matrix())
        g2 = 0.0075
        dist = cyclic_full_distribution(6, SourceModel(indistinguishability=tuple(m_fit), g2=g2))
        assert genuine_indistinguishability(dist, 6) == pytest.approx(0.71937814036, abs=1e-9)
        tail = 6 * g2**5 * (1 - g2) + g2**6
        assert tail <= TAIL_TOLERANCE
        assert max(dist.sectors) == 10
        assert dist.dropped_weight == pytest.approx(tail, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("lossy", [False, True])
    @pytest.mark.parametrize("n_photons", [4, 6])
    def test_the_measurement_reads_the_full_distribution_bit_for_bit(
        self, n_photons, lossy, alpha
    ):
        # The measurement simulates only outcomes with at most one click
        # per output pair; every outcome the fringe reads keeps its bits.
        m_fit, _ = fit_product_model(load_indistinguishability_matrix()[:n_photons, :n_photons])
        src = SourceModel(
            indistinguishability=tuple(m_fit),
            g2=0.02 if lossy else 0.0075,
            efficiency=0.6 if lossy else 1.0,
        )
        full_output = cyclic_full_distribution(n_photons, src, alpha)
        full = genuine_indistinguishability(full_output, n_photons)
        assert measure_genuine_indistinguishability(n_photons, src, alpha).hex() == full.hex()


class TestFringeFit:
    def test_recovers_synthetic_parameters(self):
        alphas = np.linspace(0.0, 2.0 * np.pi, 25)
        values = 0.7 * np.cos(1.02 * alphas - 0.3)
        fit = fit_fringe(alphas, values)
        assert fit.amplitude == pytest.approx(0.7, abs=1e-6)
        assert fit.frequency == pytest.approx(1.02, abs=1e-6)
        assert fit.phase == pytest.approx(-0.3, abs=1e-6)

    def test_normalizes_negative_amplitude(self):
        alphas = np.linspace(0.0, 2.0 * np.pi, 25)
        values = -0.5 * np.cos(alphas)
        fit = fit_fringe(alphas, values)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-6)
        assert abs(fit.phase) == pytest.approx(np.pi, abs=1e-6)

    def test_coincidence_probability_thresholds(self):
        dist = placed_distribution(2, {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25})
        assert coincidence_probability(dist, (0, 1)) == pytest.approx(0.5)
        assert coincidence_probability(dist, (0,)) == pytest.approx(0.75)

    @pytest.mark.parametrize("modes, bad", [((0, 9), "[9]"), ((8,), "[8]"), ((-1, 2), "[-1]")])
    def test_coincidence_modes_outside_the_distribution_raise(self, modes, bad):
        dist = strong_simulate(ModeUnitary(np.eye(8)), (1, 3))
        with pytest.raises(ValueError, match=re.escape(f"modes {bad} lie outside") + ".*8"):
            coincidence_probability(dist, modes)

    @pytest.mark.parametrize("modes", [(0.0, 1.0), (0.5, 1)])
    def test_coincidence_modes_that_are_not_integers_raise(self, modes):
        # (0.0, 1.0) lies inside the range and once failed as numpy indexing
        dist = strong_simulate(ModeUnitary(np.eye(8)), (1, 3))
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            coincidence_probability(dist, modes)

    def test_an_empty_distribution_keeps_its_mode_count(self):
        empty = OutputDistribution(8, {})
        assert empty.outcomes()[0].shape == (0, 8)
        assert coincidence_probability(empty, (0, 7)) == 0.0
        message = re.escape("modes [9] lie outside the distribution's modes [0, 8)")
        with pytest.raises(ValueError, match=message):
            coincidence_probability(empty, (9,))
