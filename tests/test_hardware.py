"""Tests for the voltage-phase model, transpilation and calibration."""

import dataclasses
import hashlib
import re
import resource

import numpy as np
import pytest

from lopsim import hardware
from lopsim.hardware import (
    MEASUREMENT_NOISE,
    HardwareModel,
    IntensityData,
    TranspilationError,
    _block_slices,
    _intensities,
    _logical_phases,
    _objective,
    _pack,
    _transpile,
    benchmark_tvd,
    calibrate,
    crosstalk_free_baseline,
    generate_measurements,
    held_out_tvd,
    phases_from_voltages,
    unitary_at_voltages,
    voltages_from_phases,
)
from lopsim.mesh import MeshLayout, _Workspace

from _oracles import (
    benchmark_tvds_per_row,
    measurements_per_row,
    voltages_from_phases_per_row,
)


def no_rows(m):
    """Intensity data with no measurement for an m-mode chip."""
    return IntensityData(np.empty((0, MeshLayout(m).n_actuated)), np.empty(0, int), np.empty((0, m)))


def column_powers(hw, layout, voltages, input_mode, scale=1.0):
    """Lossy output powers of one input mode, read from the chip's transfer matrix."""
    column = unitary_at_voltages(hw, layout, voltages).matrix[:, input_mode]
    return scale * hw.output_losses * np.abs(column) ** 2


@pytest.fixture(scope="module")
def m4_setup():
    layout = MeshLayout(4)
    hw = HardwareModel.synthetic(4, rng=11)
    train = measurements_per_row(hw, layout, 1200, 12, 0.0, 1.0)
    test = measurements_per_row(hw, layout, 150, 13, 0.0, 1.0)
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

    @pytest.mark.parametrize("v_max", [0.0, -3.0, np.nan, np.inf])
    def test_rejects_a_v_max_that_is_not_a_finite_positive_voltage(self, v_max):
        # 0 would divide calibrate's normalization by zero, a negative
        # value refuses every voltage, and NaN or inf overflows the
        # measurement draw
        prior = HardwareModel.prior(4)
        with pytest.raises(ValueError, match="v_max"):
            HardwareModel(4, prior.a, prior.b, prior.reflectivities, prior.output_losses, v_max)

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
        q = _intensities(hw, layout, _logical_phases(hw, layout, [v]), [2])[0]
        u = unitary_at_voltages(hw, layout, v).matrix
        assert np.allclose(q, hw.output_losses * np.abs(u[:, 2]) ** 2)
        assert q.sum() <= 1.0 + 1e-9

    def test_measurements_cycle_inputs(self):
        layout = MeshLayout(4)
        hw = HardwareModel.synthetic(4, rng=12)
        data = generate_measurements(hw, layout, 8, rng=13)
        assert data.input_modes.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]
        assert data.intensities.min() >= 0.0


class TestCalibration:
    def test_gradient_matches_finite_differences(self):
        layout = MeshLayout(3)
        hw = HardwareModel.synthetic(3, rng=14)
        data = measurements_per_row(hw, layout, 25, 15, 0.0, 1.0)
        w = data.voltages * data.voltages
        rng = np.random.default_rng(16)
        p, nc, m = layout.n_actuated, layout.n_cells, layout.m
        x = _pack(
            np.eye(p) * 0.034 + rng.normal(0, 1e-3, (p, p)),
            rng.normal(0, 1.0, p),
            np.full((nc, 2), 0.52),
            np.full(m, 0.9),
            1.1,
        )
        rows = np.eye(3, dtype=complex)[data.input_modes]
        args = (layout, w, data, rows, _Workspace(layout, 25, True), _block_slices(layout))
        value, grad = _objective(x, *args)
        for idx in rng.choice(len(x), 20, replace=False):
            e = np.zeros_like(x)
            e[idx] = 1e-6
            up, _ = _objective(x + e, *args)
            down, _ = _objective(x - e, *args)
            assert (up - down) / 2e-6 == pytest.approx(grad[idx], abs=2e-6)

    def test_no_measurements_returns_prior(self):
        layout = MeshLayout(4)
        fit = calibrate(no_rows(4), layout)
        prior = HardwareModel.prior(4)
        assert np.allclose(fit.a, prior.a)
        assert np.allclose(fit.b, prior.b)
        assert np.allclose(fit.reflectivities, 0.5)
        assert np.allclose(fit.output_losses, 1.0)

    def test_fit_keeps_the_prior_drive_range(self):
        layout = MeshLayout(3)
        chip = dataclasses.replace(HardwareModel.synthetic(3, rng=43), v_max=9.99)
        data = generate_measurements(chip, layout, 40, rng=44)
        prior = dataclasses.replace(HardwareModel.prior(3), v_max=10.0)
        assert calibrate(data, layout, initial=prior, maxiter=20).v_max == 10.0

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
        bright = measurements_per_row(hw, layout, 600, 20, 0.0, 1.0)
        dim = measurements_per_row(hw, layout, 600, 20, 0.0, 0.6)
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


def test_a_warm_fit_faults_in_no_fresh_sweep_buffers():
    # Every objective evaluation used to allocate about 20 tape-sized arrays
    # (up to 190 KB at 400 rows), which glibc mapped and faulted in afresh:
    # this warm fit read 35,000-47,000 minor faults before the sweeps wrote
    # into one workspace per fit.
    layout = MeshLayout(6)
    data = generate_measurements(HardwareModel.synthetic(6, rng=44), layout, 400, rng=45)
    calibrate(data, layout, maxiter=100)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    calibrate(data, layout, maxiter=100)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 2000


@pytest.mark.parametrize("n_rows", [1, 7, 400])
@pytest.mark.parametrize("m", range(2, 9))
def test_one_workspace_gives_the_objective_bits_of_fresh_ones(m, n_rows):
    # a buffer that some evaluation left partly written would show here
    layout = MeshLayout(m)
    chip = HardwareModel.synthetic(m, rng=50 + m)
    data = generate_measurements(chip, layout, n_rows, rng=60 + m)
    w = (data.voltages * data.voltages) / chip.v_max**2
    rows = np.eye(m, dtype=complex)[data.input_modes]
    work, blocks = _Workspace(layout, n_rows, True), _block_slices(layout)
    rng = np.random.default_rng(70 + m)
    p, nc = layout.n_actuated, layout.n_cells
    for _ in range(4):
        x = _pack(
            np.eye(p) * 6.7 + rng.normal(0, 0.1, (p, p)),
            rng.uniform(0, 2 * np.pi, p),
            rng.uniform(0.3, 0.7, (nc, 2)),
            rng.uniform(0.8, 1.0, m),
            rng.uniform(0.5, 1.5),
        )
        shared = _objective(x, layout, w, data, rows, work, blocks)
        fresh = _objective(x, layout, w, data, rows, _Workspace(layout, n_rows, True), blocks)
        assert shared[0] == fresh[0]
        assert shared[1].tobytes() == fresh[1].tobytes()


#: sha256 over the bytes of the fitted ``a``, ``b``, ``reflectivities`` and
#: ``output_losses`` of ``calibrate(maxiter=100)``, keyed by (m, chip seed,
#: data seed, rows); recorded when each measurement was still its own object.
PINNED_FITS = {
    (3, 140, 141, 120): "199369e10f837e4ba66849e91dc63fb17155da81bd0c7bce83a17949b700824f",
    (4, 142, 143, 200): "2434a76e4c625e2208d725e60d71e5e285856ee150b9b90adecf3bd7127fc50a",
    # the benchmark's fit shape: 15 cells, 400 rows with per-row phases
    (6, 144, 145, 400): "aa2c14c697935cd0d50a2f4c550e0c37fb38866d0c1a9b89abac5882d3cc03f6",
}


@pytest.mark.parametrize("m, chip_seed, data_seed, n", list(PINNED_FITS))
def test_seeded_calibration_fits_are_pinned(m, chip_seed, data_seed, n):
    layout = MeshLayout(m)
    chip = HardwareModel.synthetic(m, rng=chip_seed)
    fit = calibrate(generate_measurements(chip, layout, n, rng=data_seed), layout, maxiter=100)
    digest = hashlib.sha256()
    for name in ("a", "b", "reflectivities", "output_losses"):
        digest.update(getattr(fit, name).tobytes())
    assert digest.hexdigest() == PINNED_FITS[m, chip_seed, data_seed, n]


@pytest.fixture(scope="module")
def m3_data():
    layout = MeshLayout(3)
    hw = HardwareModel.synthetic(3, rng=27)
    return layout, hw, generate_measurements(hw, layout, 6, rng=28)


#: Arrays (voltages, input_modes, intensities) built from the 6-row 3-mode
#: record, the error each must raise and its message.
BAD_RECORDS = {
    "voltage_rows": (
        lambda d: (d.voltages[:5], d.input_modes, d.intensities), ValueError, "expected voltages"
    ),
    "input_rows": (
        lambda d: (d.voltages, d.input_modes[:5], d.intensities), ValueError, "expected voltages"
    ),
    "intensity_rows": (
        lambda d: (d.voltages, d.input_modes, d.intensities[:5]), ValueError, "expected voltages"
    ),
    "negative_mode": (
        lambda d: (d.voltages, np.full(6, -1), d.intensities),
        ValueError,
        "input mode -1 out of range for m=3",
    ),
    "mode_past_m": (
        lambda d: (d.voltages, np.full(6, 3), d.intensities),
        ValueError,
        "input mode 3 out of range for m=3",
    ),
    "float_mode": (lambda d: (d.voltages, np.full(6, 1.0), d.intensities), TypeError, "integers"),
}


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_intensity_data_refuses_inconsistent_arrays(m3_data, case):
    # mode -1 would index mode m - 1 and a float mode would fail inside numpy
    arrays, error, message = BAD_RECORDS[case]
    with pytest.raises(error, match=message):
        IntensityData(*arrays(m3_data[2]))


@pytest.mark.parametrize("reader", ["calibrate", "held_out_tvd"])
def test_data_of_another_mode_count_is_refused(m3_data, reader):
    # a single intensity column would broadcast over all three outputs
    layout, hw, data = m3_data
    one_column = IntensityData(data.voltages, np.zeros(6, int), data.intensities[:, :1])
    four_modes = generate_measurements(HardwareModel.synthetic(4, rng=29), MeshLayout(4), 6, rng=30)
    for bad in (one_column, four_modes):
        with pytest.raises(ValueError, match="intensity data do not match the layout"):
            if reader == "calibrate":
                calibrate(bad, layout, maxiter=1)
            else:
                held_out_tvd(hw, bad, layout)


@pytest.mark.parametrize("reader", ["calibrate", "held_out_tvd"])
@pytest.mark.parametrize("scale", [1.5, -1.0])
def test_voltages_outside_the_drive_range_are_refused(m3_data, reader, scale):
    # calibrate squares the voltages, so it used to fit a record that
    # held_out_tvd then refused; both refuse it before any sweep now
    layout, hw, data = m3_data
    bad = IntensityData(scale * data.voltages, data.input_modes, data.intensities)
    with pytest.raises(ValueError, match=re.escape("voltages outside [0, v_max]")):
        if reader == "calibrate":
            calibrate(bad, layout, maxiter=1)
        else:
            held_out_tvd(hw, bad, layout)


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

    @pytest.mark.parametrize("n_configs", [0, -1])
    def test_an_empty_benchmark_is_refused(self, n_configs):
        layout = MeshLayout(3)
        hw = HardwareModel.synthetic(3, rng=23)
        with pytest.raises(ValueError, match="n_configs must be at least 1"):
            benchmark_tvd(hw, hw, layout, n_configs=n_configs)

    def test_held_out_tvd_needs_a_measurement(self):
        hw = HardwareModel.synthetic(4, rng=21)
        with pytest.raises(ValueError, match="at least one measurement"):
            held_out_tvd(hw, no_rows(4), MeshLayout(4))

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
        data = measurements_per_row(hw, layout, 30, 25, 0.0, 0.8)
        rng = np.random.default_rng(25)
        for i in range(30):
            v = rng.uniform(0.0, hw.v_max, size=12)
            rng.standard_normal(4)
            assert np.array_equal(data.voltages[i], v)
            assert data.input_modes[i] == i % 4
            expected = column_powers(hw, layout, v, i % 4, scale=0.8)
            assert np.max(np.abs(data.intensities[i] - expected)) < 1e-12

    def test_held_out_tvd(self, chip):
        layout, hw, est = chip
        data = generate_measurements(hw, layout, 30, rng=26)
        tvds = []
        for volts, input_mode, obs in zip(data.voltages, data.input_modes, data.intensities):
            pred = column_powers(est, layout, volts, input_mode)
            tvds.append(0.5 * np.sum(np.abs(pred / pred.sum() - obs / obs.sum())))
        assert abs(held_out_tvd(est, data, layout) - np.mean(tvds)) < 1e-12

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
            realized = column_powers(hw, layout, v, i % 4)
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

    def test_a_search_cut_short_names_the_shifters_still_outside(self, monkeypatch):
        # One round solves each row at its starting branches; a row whose
        # squares are not all feasible then runs out of rounds.
        monkeypatch.setattr(hardware, "TRANSPILE_MAX_ROUNDS", 1)
        hw = HardwareModel.synthetic(6, rng=3)
        phi = np.random.default_rng(0).uniform(0.0, 2 * np.pi, size=(50, hw.b.shape[0]))
        _, errors = _transpile(phi, hw)
        expected = {}
        for i, row in enumerate(phi):
            k = np.ceil((hw.b - row) / (2.0 * np.pi))
            w = np.linalg.solve(hw.a, row + 2.0 * np.pi * k - hw.b)
            bad = np.flatnonzero((w < -1e-12) | (w > hw.v_max**2 + 1e-9)).tolist()
            if bad:
                expected[i] = f"branch search did not converge for shifters {bad}"
        assert len(expected) == 27
        assert errors == expected
        for i, message in expected.items():
            with pytest.raises(TranspilationError, match=re.escape(message)):
                voltages_from_phases(phi[i], hw)

    def test_too_many_infeasible_targets_raise(self):
        prior = HardwareModel.prior(3)
        a = prior.a.copy()
        a[np.diag_indices(6)] = 0.005  # 0.98 rad range: almost no target fits
        hw = HardwareModel(m=3, a=a, b=prior.b, reflectivities=prior.reflectivities,
                           output_losses=prior.output_losses)
        with pytest.raises(TranspilationError, match="too many infeasible"):
            benchmark_tvd(hw, hw, MeshLayout(3), n_configs=5, seed=0)

    def test_measurements_match_per_row_phases(self):
        layout = MeshLayout(6)
        chip = HardwareModel.synthetic(6, rng=130)
        got = generate_measurements(chip, layout, 200, rng=131)
        expected = measurements_per_row(chip, layout, 200, 131, MEASUREMENT_NOISE, 1.0)
        for name in ("voltages", "input_modes", "intensities"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
