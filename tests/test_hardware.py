"""Tests for the voltage-phase model, transpilation and calibration."""

import re

import numpy as np
import pytest

from lopsim.hardware import (
    HardwareModel,
    IntensityMeasurement,
    TranspilationError,
    _Batch,
    _objective,
    _pack,
    _transpile,
    benchmark_tvd,
    calibrate,
    crosstalk_free_baseline,
    generate_measurements,
    held_out_tvd,
    phases_from_voltages,
    predicted_intensities,
    unitary_at_voltages,
    voltages_from_phases,
)
from lopsim.mesh import MeshLayout

from _oracles import (
    benchmark_tvds_per_row,
    measurements_per_row,
    voltages_from_phases_per_row,
)


@pytest.fixture(scope="module")
def m4_setup():
    layout = MeshLayout(4)
    hw = HardwareModel.synthetic(4, rng=11)
    train = generate_measurements(hw, layout, 1200, rng=12, noise=0.0)
    test = generate_measurements(hw, layout, 150, rng=13, noise=0.0)
    fit = calibrate(train, layout)
    return layout, hw, fit, test


class TestHardwareModel:
    def test_prior_values(self):
        prior = HardwareModel.prior(6)
        assert prior.a.shape == (30, 30)
        assert np.allclose(np.diag(prior.a), 0.034)
        assert np.allclose(prior.a - np.diag(np.diag(prior.a)), 0.0)
        assert np.allclose(prior.b, 0.0)
        assert np.allclose(prior.reflectivities, 0.5)
        assert np.allclose(prior.output_losses, 1.0)

    def test_synthetic_invariants(self):
        hw = HardwareModel.synthetic(6, rng=0)
        diag = np.diag(hw.a)
        assert np.all(diag > 0)
        off = np.abs(hw.a - np.diag(diag)).sum(axis=1)
        assert np.all(off < diag)
        assert hw.output_losses.max() == pytest.approx(1.0)
        assert np.all(hw.output_losses > 0)
        assert np.all((hw.reflectivities > 0) & (hw.reflectivities < 1))

    def test_json_round_trip(self, tmp_path):
        hw = HardwareModel.synthetic(4, rng=1)
        path = tmp_path / "chip.json"
        hw.save(str(path))
        loaded = HardwareModel.load(str(path))
        assert loaded.m == hw.m
        assert np.allclose(loaded.a, hw.a)
        assert np.allclose(loaded.b, hw.b)
        assert np.allclose(loaded.reflectivities, hw.reflectivities)
        assert np.allclose(loaded.output_losses, hw.output_losses)
        assert loaded.v_max == hw.v_max

    @pytest.mark.parametrize("m, pinned", [(12, True), (12, None), (4, False), (4, None)])
    def test_loads_files_with_the_retired_pinning_key(self, m, pinned):
        # files written before pinning became the fixed m = 12 rule carry
        # a "pin_input_phases" entry (null unless set); it is ignored
        hw = HardwareModel.synthetic(m, rng=3)
        payload = {**hw.to_dict(), "pin_input_phases": pinned}
        loaded = HardwareModel.from_dict(payload)
        assert loaded.a.shape == (MeshLayout(m).n_actuated,) * 2
        assert np.array_equal(loaded.a, hw.a) and np.array_equal(loaded.b, hw.b)
        assert "pin_input_phases" not in loaded.to_dict()

    def test_rejects_bad_schema(self):
        with pytest.raises(ValueError, match="schema"):
            HardwareModel.from_dict({"schema": "something-else"})

    def test_rejects_nonpositive_self_heating(self):
        prior = HardwareModel.prior(4)
        a = prior.a.copy()
        a[0, 0] = 0.0
        with pytest.raises(ValueError, match="self-heating"):
            HardwareModel(m=4, a=a, b=prior.b, reflectivities=prior.reflectivities,
                          output_losses=prior.output_losses)

    def test_rejects_overunity_losses(self):
        prior = HardwareModel.prior(4)
        with pytest.raises(ValueError, match="losses"):
            HardwareModel(m=4, a=prior.a, b=prior.b,
                          reflectivities=prior.reflectivities,
                          output_losses=np.full(4, 1.2))


class TestPhasesFromVoltages:
    def test_zero_voltage_returns_offsets(self):
        hw = HardwareModel.synthetic(4, rng=2)
        assert np.allclose(phases_from_voltages(np.zeros(12), hw), hw.b)

    def test_ten_volts_is_about_pi(self):
        prior = HardwareModel.prior(4)
        phases = phases_from_voltages(np.full(12, 10.0), prior)
        assert np.allclose(phases, 3.4)

    def test_matches_elementwise_oracle(self):
        hw = HardwareModel.synthetic(5, rng=3)
        rng = np.random.default_rng(4)
        v = rng.uniform(0, hw.v_max, size=hw.b.shape[0])
        phases = phases_from_voltages(v, hw)
        for i in range(len(phases)):
            expected = hw.b[i]
            for j in range(len(v)):
                expected += hw.a[i, j] * v[j] ** 2
            assert phases[i] == pytest.approx(expected, abs=1e-12)

    def test_rejects_out_of_range(self):
        hw = HardwareModel.prior(4)
        with pytest.raises(ValueError):
            phases_from_voltages(np.full(12, 15.0), hw)
        with pytest.raises(ValueError):
            phases_from_voltages(np.full(12, -1.0), hw)


class TestVoltagesFromPhases:
    def test_offsets_need_zero_volts(self):
        hw = HardwareModel.synthetic(4, rng=5)
        v = voltages_from_phases(hw.b.copy(), hw)
        assert np.allclose(v, 0.0, atol=1e-6)

    def test_diagonal_inversion(self):
        prior = HardwareModel.prior(4)
        v = voltages_from_phases(np.full(12, 3.4), prior)
        assert np.allclose(v, 10.0)

    def test_round_trip_on_reachable_targets(self):
        hw = HardwareModel.synthetic(6, rng=6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            target = phases_from_voltages(rng.uniform(0, hw.v_max, 30), hw)
            v = voltages_from_phases(target, hw)
            got = phases_from_voltages(v, hw)
            residual = np.abs((got - target + np.pi) % (2 * np.pi) - np.pi)
            assert residual.max() < 1e-6

    def test_infeasible_target_names_shifters(self):
        prior = HardwareModel.prior(3)
        a = prior.a.copy()
        a[0, 0] = 0.015  # full range covers only 2.94 rad
        hw = HardwareModel(m=3, a=a, b=prior.b, reflectivities=prior.reflectivities,
                           output_losses=prior.output_losses)
        target = np.zeros(6)
        target[0] = 4.0
        with pytest.raises(TranspilationError, match="0"):
            voltages_from_phases(target, hw)


class TestForwardModel:
    def test_unitary_at_voltages_matches_layout(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=8)
        rng = np.random.default_rng(9)
        v = rng.uniform(0, hw.v_max, 12)
        u = unitary_at_voltages(hw, layout, v).matrix
        expected = layout.unitary(
            layout.phases_from_actuated(phases_from_voltages(v, hw)),
            hw.reflectivities,
        ).matrix
        assert np.max(np.abs(u - expected)) < 1e-12

    def test_intensities_are_lossy_column_powers(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=10)
        v = np.random.default_rng(11).uniform(0, hw.v_max, 12)
        q = predicted_intensities(hw, layout, v, input_mode=2)
        u = unitary_at_voltages(hw, layout, v).matrix
        assert np.allclose(q, hw.output_losses * np.abs(u[:, 2]) ** 2)
        assert q.sum() <= 1.0 + 1e-9

    def test_measurements_cycle_inputs(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=12)
        meas = generate_measurements(hw, layout, 8, rng=13)
        assert [mm.input_mode for mm in meas] == [0, 1, 2, 3, 0, 1, 2, 3]
        for mm in meas:
            assert min(mm.intensities) >= 0.0


class TestCalibration:
    def test_gradient_matches_finite_differences(self):
        layout = MeshLayout(3)
        hw = HardwareModel.synthetic(3, rng=14)
        meas = generate_measurements(hw, layout, 25, rng=15, noise=0.0)
        volts = np.array([mm.voltages for mm in meas])
        batch = _Batch(
            w=volts * volts,
            inputs=np.array([mm.input_mode for mm in meas]),
            y=np.array([mm.intensities for mm in meas]),
        )
        rng = np.random.default_rng(16)
        p, nc, m = layout.n_actuated, layout.n_cells, layout.m
        x = _pack(
            np.eye(p) * 0.034 + rng.normal(0, 1e-3, (p, p)),
            rng.normal(0, 1.0, p),
            np.full((nc, 2), 0.52),
            np.full(m, 0.9),
            1.1,
        )
        value, grad = _objective(x, layout, batch)
        for idx in rng.choice(len(x), 20, replace=False):
            e = np.zeros_like(x)
            e[idx] = 1e-6
            up, _ = _objective(x + e, layout, batch)
            down, _ = _objective(x - e, layout, batch)
            assert (up - down) / 2e-6 == pytest.approx(grad[idx], abs=2e-6)

    def test_no_measurements_returns_prior(self):
        layout = MeshLayout(4)
        fit = calibrate([], layout)
        prior = HardwareModel.prior(4)
        assert np.allclose(fit.a, prior.a)
        assert np.allclose(fit.b, prior.b)
        assert np.allclose(fit.reflectivities, 0.5)
        assert np.allclose(fit.output_losses, 1.0)

    def test_underdetermined_fit_warns(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=17)
        meas = generate_measurements(hw, layout, 5, rng=18)
        with pytest.warns(UserWarning, match="underdetermined"):
            calibrate(meas, layout, maxiter=3)

    def test_noiseless_recovery_m4(self, m4_setup):
        layout, hw, fit, test = m4_setup
        assert held_out_tvd(fit, test, layout) < 0.005

    def test_scale_consistency(self):
        # Dimming the lamp must not change the recovered relative losses.
        layout = MeshLayout(3)
        hw = HardwareModel.synthetic(3, rng=19)
        bright = generate_measurements(hw, layout, 600, rng=20, noise=0.0, scale=1.0)
        dim = generate_measurements(hw, layout, 600, rng=20, noise=0.0, scale=0.6)
        fit_bright = calibrate(bright, layout)
        fit_dim = calibrate(dim, layout)
        assert np.allclose(
            fit_bright.output_losses, fit_dim.output_losses, atol=5e-3
        )


    def test_calibrate_twice_in_one_process(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=41)
        data = generate_measurements(hw, layout, 60, rng=42)
        fits = [calibrate(data, layout, maxiter=20) for _ in range(2)]
        for field in ("a", "b", "reflectivities", "output_losses"):
            assert np.array_equal(getattr(fits[0], field), getattr(fits[1], field)), field


class TestBenchmark:
    def test_matched_model_is_exact(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=21)
        stats = benchmark_tvd(hw, hw, layout, n_configs=40, seed=1)
        assert stats.mean < 1e-9

    def test_crosstalk_free_baseline_is_worse(self, m4_setup):
        layout, hw, fit, _ = m4_setup
        cal = benchmark_tvd(fit, hw, layout, n_configs=100, seed=2)
        uncal = benchmark_tvd(crosstalk_free_baseline(hw), hw, layout,
                              n_configs=100, seed=2)
        assert uncal.mean > cal.mean

    def test_repeatability_across_seeds(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=22)
        baseline = crosstalk_free_baseline(hw)
        first = benchmark_tvd(baseline, hw, layout, n_configs=3000, seed=3)
        second = benchmark_tvd(baseline, hw, layout, n_configs=3000, seed=4)
        assert abs(first.mean - second.mean) / first.mean < 0.03

    def test_statistics_fields(self):
        layout = MeshLayout(3)
        hw = HardwareModel.synthetic(3, rng=23)
        stats = benchmark_tvd(crosstalk_free_baseline(hw), hw, layout,
                              n_configs=20, seed=5)
        assert stats.tvds.shape == (20,)
        assert stats.mean == pytest.approx(stats.tvds.mean())
        assert 0.0 <= stats.mean <= 1.0


class TestBatchedIntensities:
    """The batched mesh sweeps against a per-configuration loop."""

    @pytest.fixture(scope="class")
    def chip(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=24)
        return layout, hw, crosstalk_free_baseline(hw)

    def test_noiseless_measurements(self, chip):
        layout, hw, _ = chip
        meas = generate_measurements(hw, layout, 30, rng=25, noise=0.0, scale=0.8)
        rng = np.random.default_rng(25)
        for i, mm in enumerate(meas):
            v = rng.uniform(0.0, hw.v_max, size=12)
            rng.standard_normal(4)
            assert mm.voltages == tuple(v)
            assert mm.input_mode == i % 4
            expected = predicted_intensities(hw, layout, v, i % 4, scale=0.8)
            assert np.max(np.abs(np.array(mm.intensities) - expected)) < 1e-12

    def test_held_out_tvd(self, chip):
        layout, hw, est = chip
        meas = generate_measurements(hw, layout, 30, rng=26)
        tvds = []
        for mm in meas:
            pred = predicted_intensities(est, layout, np.array(mm.voltages), mm.input_mode)
            obs = np.array(mm.intensities)
            tvds.append(0.5 * np.sum(np.abs(pred / pred.sum() - obs / obs.sum())))
        assert abs(held_out_tvd(est, meas, layout) - np.mean(tvds)) < 1e-12

    def test_benchmark_tvds(self, chip):
        layout, hw, est = chip
        stats = benchmark_tvd(est, hw, layout, n_configs=25, seed=6)
        rng = np.random.default_rng(6)
        expected = []
        for i in range(25):
            while True:
                target = rng.uniform(0.0, 2.0 * np.pi, size=layout.n_actuated)
                try:
                    v = voltages_from_phases(target, est)
                except TranspilationError:
                    continue
                break
            u = layout.unitary(layout.phases_from_actuated(target), est.reflectivities).matrix
            intended = est.output_losses * np.abs(u[:, i % 4]) ** 2
            realized = predicted_intensities(hw, layout, v, i % 4)
            expected.append(
                0.5 * np.sum(np.abs(intended / intended.sum() - realized / realized.sum()))
            )
        assert np.max(np.abs(stats.tvds - np.array(expected))) < 1e-12


class TestBatchedTranspiler:
    """The batched transpiler and its callers against the per-row code."""

    @staticmethod
    def _weakened(seed: int, shifter: int) -> HardwareModel:
        """A synthetic 6-mode chip with one self-heating coefficient at 0.03 rad/V^2.

        That shifter spans 5.9 rad over the voltage range, so some phase
        targets have no feasible branch.
        """
        chip = HardwareModel.synthetic(6, rng=seed)
        a = chip.a.copy()
        a[shifter, shifter] = 0.03
        return HardwareModel(m=6, a=a, b=chip.b, reflectivities=chip.reflectivities,
                             output_losses=chip.output_losses)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_voltages_and_feasibility_match_per_row_solves(self, seed):
        hw = self._weakened(seed, 3 * seed)
        phi = np.random.default_rng(90 + seed).uniform(0.0, 2 * np.pi, size=(300, 30))
        voltages, errors = _transpile(phi, hw)
        assert 0 < len(errors) < 300
        for i, row in enumerate(phi):
            try:
                expected = voltages_from_phases_per_row(row, hw)
            except TranspilationError as error:
                assert errors.get(i) == str(error)
                with pytest.raises(TranspilationError, match=re.escape(str(error))):
                    voltages_from_phases(row, hw)
                continue
            assert i not in errors
            assert np.array_equal(voltages[i], expected)
            assert np.array_equal(voltages_from_phases(row, hw), expected)

    @pytest.fixture(scope="class")
    def fits(self):
        layout = MeshLayout(6)
        out = []
        for seed in range(4):
            chip = self._weakened(100 + seed, 7 * seed)
            data = generate_measurements(chip, layout, 300, rng=110 + seed)
            out.append((chip, calibrate(data, layout, maxiter=40)))
        return layout, out

    @pytest.mark.parametrize("index", range(4))
    def test_benchmark_tvds_match_per_row_transpilation(self, fits, index):
        layout, chips = fits
        chip, fit = chips[index]
        for est in (fit, crosstalk_free_baseline(chip)):
            got = benchmark_tvd(est, chip, layout, n_configs=60, seed=120 + index)
            expected = benchmark_tvds_per_row(est, chip, layout, 60, 120 + index)
            assert np.array_equal(got.tvds, expected)

    def test_too_many_infeasible_targets_raise(self):
        prior = HardwareModel.prior(3)
        a = prior.a.copy()
        a[np.diag_indices(6)] = 0.005  # 0.98 rad range: almost no target fits
        hw = HardwareModel(m=3, a=a, b=prior.b, reflectivities=prior.reflectivities,
                           output_losses=prior.output_losses)
        with pytest.raises(TranspilationError, match="too many infeasible"):
            benchmark_tvd(hw, hw, MeshLayout(3), n_configs=5, seed=0)

    @pytest.mark.parametrize("noise, scale", [(0.0, 1.0), (0.01, 0.7)])
    def test_measurements_match_per_row_phases(self, noise, scale):
        layout = MeshLayout(6)
        chip = HardwareModel.synthetic(6, rng=130)
        got = generate_measurements(chip, layout, 200, rng=131, noise=noise, scale=scale)
        assert got == measurements_per_row(chip, layout, 200, 131, noise, scale)
