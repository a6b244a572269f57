"""Tests for the source noise model and its characterization experiments."""

import json
import re

import numpy as np
import pytest

from lopsim.fock import (
    FockState,
    ModeUnitary,
    distinguishable_probability,
    enumerate_basis,
    strong_simulate,
)
from lopsim.mesh import DirectionalCoupler, PhaseShifter, PhotonicCircuit
from lopsim.sources import (
    SHARED_LABEL,
    FringeFit,
    TAIL_TOLERANCE,
    LabeledPhoton,
    SourceModel,
    build_input,
    coincidence_probability,
    cyclic_distribution,
    cyclic_input_modes,
    cyclic_interferometer,
    fit_fringe,
    fit_product_model,
    genuine_indistinguishability,
    hom_experiment,
    indistinguishability_fringe,
    load_indistinguishability_matrix,
    measure_genuine_indistinguishability,
    ms_correction,
    noisy_simulate,
    _constructive_patterns,
)

from _oracles import branch_distribution


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

    def test_json_round_trip(self, tmp_path):
        src = SourceModel(indistinguishability=(0.95, 0.9), g2=0.0075, efficiency=0.08)
        path = tmp_path / "source.json"
        src.save(path)
        loaded = SourceModel.load(path)
        assert loaded == src

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="schema"):
            SourceModel.load(path)


class TestIndistinguishabilityMatrix:
    def test_bundled_matrix(self):
        matrix = load_indistinguishability_matrix()
        assert matrix.shape == (6, 6)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == pytest.approx(0.942)
        assert matrix[2, 4] == pytest.approx(0.911)
        assert matrix[4, 5] == pytest.approx(0.942)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("0.9,0.8\n0.7\n")
        matrix = load_indistinguishability_matrix(path)
        expected = np.array([[1.0, 0.9, 0.8], [0.9, 1.0, 0.7], [0.8, 0.7, 1.0]])
        assert np.allclose(matrix, expected)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("0.9\n0.7\n")
        with pytest.raises(ValueError, match="row 0"):
            load_indistinguishability_matrix(path)

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

    def test_source_from_pairwise_matrix(self):
        matrix = load_indistinguishability_matrix()
        src = SourceModel.from_pairwise_matrix(matrix, g2=0.0075)
        assert len(src.indistinguishability) == 6
        assert src.g2 == 0.0075


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
        ideal = strong_simulate(unitary, FockState.from_modes(5, (0, 1, 2)))
        for state, p in zip(enumerate_basis(5, 3), ideal.probabilities):
            assert noisy.prob(state) == pytest.approx(p, abs=1e-12)
        assert noisy.total() == pytest.approx(1.0, abs=1e-12)

    def test_fully_distinguishable_matches_classical_routing(self):
        rng = np.random.default_rng(12)
        unitary = ModeUnitary.haar_random(4, rng)
        labeled = build_input(3, SourceModel(indistinguishability=0.0))
        noisy = noisy_simulate(unitary, labeled)
        input_state = FockState.from_modes(4, (0, 1, 2))
        for state in noisy:
            expected = distinguishable_probability(unitary, input_state, state)
            assert noisy.prob(state) == pytest.approx(expected, abs=1e-12)

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
        top = strong_simulate(two_mode, FockState((1, 1)))
        bottom_u = ModeUnitary(unitary.matrix[2:, 2:])
        bottom = strong_simulate(bottom_u, FockState((1, 1)))
        for s_top, p_top in zip(enumerate_basis(2, 2), top.probabilities):
            for s_bot, p_bot in zip(enumerate_basis(2, 2), bottom.probabilities):
                state = FockState(s_top.occupations + s_bot.occupations)
                assert noisy.get(state.occupations, 0.0) == pytest.approx(
                    p_top * p_bot, abs=1e-12
                )

    def test_loss_commutes_between_input_and_output(self):
        rng = np.random.default_rng(13)
        unitary = ModeUnitary.haar_random(3, rng)
        lossy_src = SourceModel(indistinguishability=0.9, g2=0.01, efficiency=0.8)
        at_input = noisy_simulate(unitary, build_input(2, lossy_src))
        bright_src = SourceModel(indistinguishability=0.9, g2=0.01, efficiency=1.0)
        at_output = noisy_simulate(
            unitary, build_input(2, bright_src), output_losses=np.full(3, 0.8)
        )
        states = set(at_input) | set(at_output)
        for state in states:
            assert at_input.prob(state) == pytest.approx(
                at_output.prob(state), abs=1e-9
            )

    def test_per_mode_output_thinning(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(2, SourceModel())
        thinned = noisy_simulate(unitary, labeled, output_losses=np.array([0.5, 1.0]))
        assert thinned.prob(FockState((1, 1))) == pytest.approx(0.5)
        assert thinned.prob(FockState((0, 1))) == pytest.approx(0.5)
        assert thinned.total() == pytest.approx(1.0)

    def test_output_losses_validation(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(1, SourceModel())
        with pytest.raises(ValueError, match="shape"):
            noisy_simulate(unitary, labeled, output_losses=np.ones(3))
        with pytest.raises(ValueError, match="output losses"):
            noisy_simulate(unitary, labeled, output_losses=np.array([1.5, 0.5]))

    def test_photon_mode_out_of_range(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(2, SourceModel(), modes=(0, 3))
        with pytest.raises(ValueError, match="out of range"):
            noisy_simulate(unitary, labeled)

    def test_sector_weights_and_postselection(self):
        unitary = ModeUnitary(np.eye(2, dtype=complex))
        labeled = build_input(2, SourceModel(efficiency=0.75))
        dist = noisy_simulate(unitary, labeled)
        sectors = dist.sector_weights()
        assert sectors[2] == pytest.approx(0.75**2)
        assert sectors[0] == pytest.approx(0.25**2)
        conditioned, weight = dist.postselect_photon_number(2)
        assert weight == pytest.approx(0.75**2)
        assert conditioned.total() == pytest.approx(1.0)
        with pytest.raises(ValueError, match="sector"):
            dist.postselect_photon_number(5)


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

    def test_input_modes_are_odd(self):
        assert cyclic_input_modes(4) == (1, 3, 5, 7)
        assert cyclic_input_modes(6) == (1, 3, 5, 7, 9, 11)

    def test_perfect_photons_have_unit_visibility(self):
        p = measure_genuine_indistinguishability(4, SourceModel())
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_destructive_class_dark_at_zero_phase(self):
        unitary = cyclic_interferometer(4, 0.0)
        dist = strong_simulate(unitary, FockState.from_modes(8, cyclic_input_modes(4)))
        constructive = _constructive_patterns(4)
        dark = 0.0
        for state, prob in dist.items():
            occ = state.occupations
            if not all(occ[2 * k] + occ[2 * k + 1] >= 1 for k in range(4)):
                continue
            pattern = tuple(int(occ[2 * k + 1] > 0) for k in range(4))
            if all(occ[2 * k] + occ[2 * k + 1] == 1 for k in range(4)):
                if pattern not in constructive:
                    dark += prob
        assert dark < 1e-12

    def test_pattern_classes_split_evenly(self):
        constructive = _constructive_patterns(4)
        assert len(constructive) == 8
        assert all(sum(pattern) % 2 == 0 for pattern in constructive)

    def test_product_model_oracle(self):
        ms = (0.93, 0.88, 0.95, 0.90)
        src = SourceModel(indistinguishability=ms)
        p = measure_genuine_indistinguishability(4, src)
        assert p == pytest.approx(float(np.prod(ms)), abs=1e-9)

    def test_fringe_fit_matches_ideal_cosine(self):
        alphas = np.linspace(0.0, 2.0 * np.pi, 9)
        values = indistinguishability_fringe(4, SourceModel(), alphas)
        fit = fit_fringe(alphas, values)
        assert fit.frequency == pytest.approx(1.0, abs=5e-3)
        assert fit.phase == pytest.approx(0.0, abs=1e-2)
        assert fit.amplitude == pytest.approx(1.0, abs=5e-3)

    def test_estimator_accepts_counts(self):
        unitary = cyclic_interferometer(4, 0.0)
        dist = strong_simulate(unitary, FockState.from_modes(8, cyclic_input_modes(4)))
        counts = {}
        for state, prob in dist.items():
            if prob > 1e-12:
                counts[state] = int(round(prob * 1e6))
        assert genuine_indistinguishability(counts, 4) == pytest.approx(1.0, abs=1e-4)

    def test_estimator_requires_events(self):
        bunched = {FockState((4, 0, 0, 0, 0, 0, 0, 0)): 1.0}
        with pytest.raises(ValueError, match="undefined"):
            genuine_indistinguishability(bunched, 4)

    def test_estimator_names_the_modes_it_reads(self):
        # Six modes hold three output pairs; the four-photon fringe reads four pairs.
        dist = strong_simulate(ModeUnitary(np.eye(6)), FockState.from_modes(6, (1, 3, 5)))
        with pytest.raises(ValueError, match="needs 8 modes, got 6"):
            genuine_indistinguishability(dist, 4)
        with pytest.raises(ValueError, match="needs 8 modes, got 6"):
            genuine_indistinguishability({FockState((1, 0, 1, 0, 1, 0)): 5}, 4)

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
        dist = cyclic_distribution(6, SourceModel(indistinguishability=tuple(m_fit), g2=g2))
        assert genuine_indistinguishability(dist, 6) == pytest.approx(0.71937814036, abs=1e-9)
        tail = 6 * g2**5 * (1 - g2) + g2**6
        assert tail <= TAIL_TOLERANCE
        assert max(dist.sectors) == 10
        assert dist.dropped_weight == pytest.approx(tail, abs=1e-15)


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
        dist = {
            FockState((2, 0)): 0.25,
            FockState((1, 1)): 0.5,
            FockState((0, 2)): 0.25,
        }
        assert coincidence_probability(dist, (0, 1)) == pytest.approx(0.5)
        assert coincidence_probability(dist, (0,)) == pytest.approx(0.75)

    @pytest.mark.parametrize("modes, bad", [((0, 9), "[9]"), ((8,), "[8]"), ((-1, 2), "[-1]")])
    @pytest.mark.parametrize("as_dict", [False, True])
    def test_coincidence_modes_outside_the_distribution_raise(self, modes, bad, as_dict):
        dist = strong_simulate(ModeUnitary(np.eye(8)), FockState.from_modes(8, (1, 3)))
        if as_dict:
            dist = dict(dist.items())
        with pytest.raises(ValueError, match=re.escape(f"modes {bad} lie outside") + ".*8"):
            coincidence_probability(dist, modes)
