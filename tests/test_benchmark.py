"""Tests for the average-gate-fidelity benchmarking layer."""

from collections import Counter

import numpy as np
import pytest

from _oracles import (
    channel_executor,
    dense_plan_weights,
    depolarizing_executor,
    haar_average_fidelity,
    per_configuration_favg,
    swap_paired_functional,
)
from lopsim.benchmark import (
    build_plan,
    estimate_favg,
    photonic_executor,
)
from lopsim.qubits import Gate, GateCircuit
from lopsim.sources import SourceModel

T_CIRCUIT = GateCircuit.from_text("T 0", n_qubits=1)
CNOT_CIRCUIT = GateCircuit.from_text("CNOT 0 1", n_qubits=2)
T_MATRIX = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

# Reference CNOT plan: (preparation, word, weight in units of 1/40), in the
# plan's canonical enumeration order.
CNOT_REFERENCE_UNITS = [
    ("00", "II", 1), ("00", "IX", -1), ("00", "IZ", 1), ("00", "XI", -1),
    ("00", "XX", 1), ("00", "XZ", 1), ("00", "YY", -1), ("00", "ZI", 1),
    ("00", "ZX", -1), ("00", "ZZ", 1),
    ("01", "II", 1), ("01", "IX", -1), ("01", "IZ", -1), ("01", "XI", -1),
    ("01", "XX", 1), ("01", "XZ", 1), ("01", "YY", 1), ("01", "ZI", 1),
    ("01", "ZX", -1), ("01", "ZZ", -1),
    ("0+", "IX", 2), ("0+", "XI", 2), ("0+", "ZX", 2), ("0i", "XZ", -2),
    ("10", "II", 1), ("10", "IX", -1), ("10", "IZ", -1), ("10", "XI", -1),
    ("10", "XX", 1), ("10", "XZ", 1), ("10", "YY", -1), ("10", "ZI", -1),
    ("10", "ZX", 1), ("10", "ZZ", 1),
    ("11", "II", 1), ("11", "IX", -1), ("11", "IZ", 1), ("11", "XI", -1),
    ("11", "XX", 1), ("11", "XZ", 1), ("11", "YY", 1), ("11", "ZI", -1),
    ("11", "ZX", 1), ("11", "ZZ", -1),
    ("1+", "IX", 2), ("1+", "XI", 2), ("1+", "ZX", -2), ("1i", "XZ", -2),
    ("+0", "XI", 2), ("+0", "XX", -2), ("+0", "YY", 2),
    ("+1", "XI", 2), ("+1", "XX", -2), ("+1", "YY", -2),
    ("++", "XI", -4),
    ("i0", "XZ", -2), ("i1", "XZ", -2), ("ii", "XZ", 4),
]


def haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(d, k, rng):
    ops = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    total = sum(op.conj().T @ op for op in ops)
    whitener = np.linalg.inv(np.linalg.cholesky(total).conj().T)
    return [op @ whitener for op in ops]


def kraus_gate_channel(gate, kraus):
    def channel(rho):
        out = gate @ rho @ gate.conj().T
        return sum(op @ out @ op.conj().T for op in kraus)

    return channel


# ---------------------------------------------------------------------------
# Plan construction


def test_t_plan_reduces_to_four_correlations():
    plan = build_plan(T_CIRCUIT, 1)
    assert len(plan.entries) == 4
    assert len(plan.configurations()) == 4
    assert plan.constant == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert min(abs(e.weight) for e in plan.entries) == pytest.approx(1.0 / 6.0, abs=1e-12)
    expected = [
        ("0", "Z", 1.0 / 6.0),
        ("1", "Z", -1.0 / 6.0),
        ("+", "X", np.sqrt(2.0) / 6.0),
        ("i", "X", -np.sqrt(2.0) / 6.0),
    ]
    got = [(e.preparation, e.word, e.weight) for e in plan.entries]
    for (prep, word, weight), (gp, gw, gweight) in zip(expected, got):
        assert (prep, word) == (gp, gw)
        assert gweight == pytest.approx(weight, abs=1e-12)


def test_cnot_plan_matches_reference_table():
    plan = build_plan(CNOT_CIRCUIT, 2)
    assert len(plan.configurations()) == 36
    assert plan.constant == pytest.approx(0.0, abs=1e-12)
    assert min(abs(e.weight) for e in plan.entries) * 40.0 == pytest.approx(1.0, abs=1e-9)
    got = [(e.preparation, e.word, e.weight * 40.0) for e in plan.entries]
    assert len(got) == len(CNOT_REFERENCE_UNITS)
    for (prep, word, unit), (gp, gw, gu) in zip(CNOT_REFERENCE_UNITS, got):
        assert (prep, word) == (gp, gw)
        assert gu == pytest.approx(unit, abs=1e-9)


def test_toffoli_plan_structure(toffoli_plan):
    assert len(toffoli_plan.entries) == 592
    assert len(toffoli_plan.configurations()) == 340
    unit = min(abs(e.weight) for e in toffoli_plan.entries)
    assert unit * 288.0 == pytest.approx(1.0, abs=1e-9)
    units = [e.weight / unit for e in toffoli_plan.entries]
    assert all(abs(u - round(u)) < 1e-6 for u in units)
    histogram = Counter(abs(int(round(u))) for u in units)
    assert histogram == {1: 256, 2: 296, 4: 40}
    assert sum(1 for e in toffoli_plan.entries if e.word == "III") == 8


def test_plan_settings_recycle_identity_letters():
    plan = build_plan(CNOT_CIRCUIT, 2)
    for entry in plan.entries:
        assert "I" not in entry.setting
        assert len(entry.setting) == 2
    groups = plan.configurations()
    assert sorted(i for group in groups.values() for i in group) == list(range(len(plan.entries)))
    assert all(plan.entries[i].setting == setting for (_, setting), g in groups.items() for i in g)


def test_build_plan_input_validation():
    with pytest.raises(ValueError):
        build_plan(T_MATRIX, 2)
    with pytest.raises(ValueError):
        build_plan(np.eye(32, dtype=complex), 5)
    with pytest.raises(ValueError):
        build_plan(T_MATRIX, 1, functional="bogus")
    with pytest.raises(ValueError):
        build_plan(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex), 1)


@pytest.mark.parametrize("functional", ["tabulated", "exact"])
def test_plan_matches_dense_correlation_solve(functional):
    rng = np.random.default_rng(5)
    for n in (1, 2):
        gate = haar_unitary(2**n, rng)
        plan = build_plan(gate, n, functional=functional)
        got = {(e.preparation, e.word): e.weight for e in plan.entries}
        constant = 0.0
        for (prep, word), weight in dense_plan_weights(gate, n, functional).items():
            assert abs(weight.imag) < 1e-12
            if n == 1 and word == "I":
                constant += weight.real
            else:
                assert got.get((prep, word), 0.0) == pytest.approx(weight.real, abs=1e-12)
        assert plan.constant == pytest.approx(constant, abs=1e-12)


def test_singular_correlation_system_is_reported(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(np.linalg, "solve", fail)
    with pytest.raises(ValueError, match="rank deficient"):
        build_plan(T_MATRIX, 1)


# ---------------------------------------------------------------------------
# Estimation


def test_noiseless_estimates_are_unity(toffoli_plan):
    for functional in ("tabulated", "exact"):
        for circuit, n in ((T_CIRCUIT, 1), (CNOT_CIRCUIT, 2)):
            plan = build_plan(circuit, n, functional=functional)
            est = estimate_favg(plan, depolarizing_executor(circuit, 0.0))
            assert est.f_avg == pytest.approx(1.0, abs=1e-9)
            assert est.std_error == 0.0
    toffoli = GateCircuit.from_text("TOFFOLI 0 1 2", n_qubits=3)
    est = estimate_favg(toffoli_plan, depolarizing_executor(toffoli, 0.0))
    assert est.f_avg == pytest.approx(1.0, abs=1e-9)


def test_depolarizing_closed_forms():
    p = 0.2
    exact_t = build_plan(T_CIRCUIT, 1, functional="exact")
    exact_cnot = build_plan(CNOT_CIRCUIT, 2, functional="exact")
    assert estimate_favg(exact_t, depolarizing_executor(T_CIRCUIT, p)).f_avg == (
        pytest.approx(1.0 - p / 2.0, abs=1e-9)
    )
    assert estimate_favg(exact_cnot, depolarizing_executor(CNOT_CIRCUIT, p)).f_avg == (
        pytest.approx(1.0 - 3.0 * p / 4.0, abs=1e-9)
    )
    toffoli = GateCircuit.from_text("TOFFOLI 0 1 2", n_qubits=3)
    exact_toffoli = build_plan(toffoli, 3, functional="exact")
    assert estimate_favg(exact_toffoli, depolarizing_executor(toffoli, p)).f_avg == (
        pytest.approx(1.0 - 7.0 * p / 8.0, abs=1e-9)
    )
    two_cnots = np.kron(CNOT_MATRIX, CNOT_MATRIX)
    exact_4q = build_plan(two_cnots, 4, functional="exact")
    assert estimate_favg(exact_4q, depolarizing_executor(two_cnots, p)).f_avg == (
        pytest.approx(1.0 - 15.0 * p / 16.0, abs=1e-9)
    )
    tab_t = build_plan(T_CIRCUIT, 1)
    tab_cnot = build_plan(CNOT_CIRCUIT, 2)
    assert estimate_favg(tab_t, depolarizing_executor(T_CIRCUIT, p)).f_avg == (
        pytest.approx(1.0 - 2.0 * p / 3.0, abs=1e-9)
    )
    assert estimate_favg(tab_cnot, depolarizing_executor(CNOT_CIRCUIT, p)).f_avg == (
        pytest.approx(1.0 - 9.0 * p / 10.0, abs=1e-9)
    )


def test_channel_executor_calls_its_channel_once_per_plan():
    calls = []

    def channel(rho):
        calls.append(rho.shape)
        return CNOT_MATRIX @ rho @ CNOT_MATRIX.conj().T

    plan = build_plan(CNOT_CIRCUIT, 2)
    est = estimate_favg(plan, channel_executor(channel, 2))
    assert calls == [(36, 4, 4)]
    assert est.f_avg == pytest.approx(1.0, abs=1e-9)


def test_exact_route_matches_state_average_oracle():
    p = 0.3
    plan = build_plan(T_CIRCUIT, 1, functional="exact")
    est = estimate_favg(plan, depolarizing_executor(T_CIRCUIT, p))
    mean, sem = haar_average_fidelity(
        T_MATRIX,
        lambda rho: (1 - p) * (T_MATRIX @ rho @ T_MATRIX.conj().T)
        + p * np.trace(rho).real / 2.0 * np.eye(2),
        samples=20000,
        seed=5,
    )
    assert abs(est.f_avg - mean) <= 3.0 * sem + 1e-9

    rng = np.random.default_rng(21)
    kraus = random_kraus(2, 3, rng)
    channel = kraus_gate_channel(T_MATRIX, kraus)
    est = estimate_favg(plan, channel_executor(channel, 1))
    mean, sem = haar_average_fidelity(T_MATRIX, channel, samples=20000, seed=6)
    assert sem > 0.0
    assert abs(est.f_avg - mean) <= 3.0 * sem


def test_plans_agree_with_direct_functional_on_random_channels():
    rng = np.random.default_rng(13)
    for n in (1, 2):
        d = 2**n
        gate = haar_unitary(d, rng)
        plan = build_plan(gate, n)
        for _ in range(3):
            channel = kraus_gate_channel(gate, random_kraus(d, 3, rng))
            est = estimate_favg(plan, channel_executor(channel, n))
            direct = swap_paired_functional(gate, channel)
            assert est.f_avg == pytest.approx(direct, abs=1e-8)


def test_exact_estimates_stay_within_unit_interval():
    rng = np.random.default_rng(31)
    for n, trials in ((1, 60), (2, 25)):
        d = 2**n
        gate = haar_unitary(d, rng)
        plan = build_plan(gate, n, functional="exact")
        for _ in range(trials):
            channel = kraus_gate_channel(gate, random_kraus(d, 3, rng))
            est = estimate_favg(plan, channel_executor(channel, n))
            assert -1e-10 <= est.f_avg <= 1.0 + 1e-10


def test_merging_settings_does_not_change_the_estimate():
    plan = build_plan(CNOT_CIRCUIT, 2)
    executor = depolarizing_executor(CNOT_CIRCUIT, 0.07)
    merged = estimate_favg(plan, executor)
    separate = per_configuration_favg(plan, executor, merge_settings=False)
    assert merged.f_avg == pytest.approx(separate.f_avg, abs=1e-12)


def test_sampled_estimates_are_reported_unclamped():
    plan = build_plan(T_CIRCUIT, 1)
    executor = depolarizing_executor(T_CIRCUIT, 0.0)
    est = estimate_favg(plan, executor, shots_per_config=500, seed=0)
    assert est.f_avg > 1.0
    assert est.std_error > 0.0
    other = estimate_favg(plan, executor, shots_per_config=500, seed=1)
    assert other.f_avg != est.f_avg


def test_standard_error_shrinks_with_shots():
    plan = build_plan(CNOT_CIRCUIT, 2)
    executor = depolarizing_executor(CNOT_CIRCUIT, 0.05)
    coarse = estimate_favg(plan, executor, shots_per_config=400, seed=3)
    fine = estimate_favg(plan, executor, shots_per_config=40000, seed=3)
    assert fine.std_error < coarse.std_error / 5.0


@pytest.mark.parametrize("shots", [0, -5])
def test_shots_per_config_below_one_is_rejected_before_the_executor_runs(shots):
    calls = []

    def executor(preparations, settings):
        calls.append(len(settings))
        return np.full((len(settings), 2), 0.5)

    with pytest.raises(ValueError, match="shots_per_config"):
        estimate_favg(build_plan(T_CIRCUIT, 1), executor, shots_per_config=shots, seed=0)
    assert calls == []


@pytest.mark.parametrize("shots", [2.5, float("inf"), float("nan")])
def test_a_fractional_shot_count_is_rejected(shots):
    plan = build_plan(T_CIRCUIT, 1)
    executor = depolarizing_executor(T_CIRCUIT, 0.0)
    with pytest.raises(ValueError, match="shots_per_config must be a whole number"):
        estimate_favg(plan, executor, shots_per_config=shots, seed=0)


@pytest.mark.parametrize(
    "entry", [lambda g: build_plan(g, 1), lambda g: depolarizing_executor(g, 0.0)],
    ids=["build_plan", "depolarizing_executor"],
)
def test_a_gate_matrix_off_unitary_by_more_than_the_tolerance_is_refused(entry):
    # 1.000004 I deviates from unitarity by 8e-6, far above the stated 1e-10
    with pytest.raises(ValueError, match="not unitary"):
        entry(1.000004 * np.eye(2))


def test_executor_output_is_validated():
    plan = build_plan(T_CIRCUIT, 1)
    with pytest.raises(ValueError, match="malformed"):
        estimate_favg(plan, lambda preparations, settings: np.zeros(3))


# ---------------------------------------------------------------------------
# Photonic execution


def test_photonic_noiseless_estimates_are_unity():
    for functional in ("tabulated", "exact"):
        plan = build_plan(T_CIRCUIT, 1, functional=functional)
        est = estimate_favg(plan, photonic_executor(T_CIRCUIT))
        assert est.f_avg == pytest.approx(1.0, abs=1e-9)
    plan = build_plan(CNOT_CIRCUIT, 2)
    est = estimate_favg(plan, photonic_executor(CNOT_CIRCUIT))
    assert est.f_avg == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("gate", ["T 0", "CNOT 0 1", "TOFFOLI 0 1 2"])
@pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
def test_one_batched_call_matches_one_call_per_configuration(gate, noisy, toffoli_plan):
    circuit = GateCircuit.from_text(gate)
    plan = toffoli_plan if circuit.n_qubits == 3 else build_plan(circuit, circuit.n_qubits)
    ms = (0.97, 0.94, 0.91)[: circuit.n_qubits]
    source = SourceModel(indistinguishability=ms, g2=0.01) if noisy else SourceModel()
    executor = photonic_executor(circuit, source=source)
    calls = []

    def counted(preparations, settings):
        calls.append(len(settings))
        return executor(preparations, settings)

    for shots in (None, 300):
        batched = estimate_favg(plan, counted, shots_per_config=shots, seed=11)
        reference = per_configuration_favg(plan, executor, shots_per_config=shots, seed=11)
        assert batched.f_avg == pytest.approx(reference.f_avg, abs=1e-12)
        assert batched.std_error == pytest.approx(reference.std_error, abs=1e-12)
    assert calls == [len(plan.configurations())] * 2


def test_noisy_cnot_keeps_its_reference_fidelity():
    # The source of perfbench's qubit_apps reference op (seed 0, op 0):
    # 36 interferometers of 6 modes, 2 photons, through one batched trigger sum.
    source = SourceModel(
        indistinguishability=(0.9509569349857163, 0.9215829371011096), g2=0.005614602859042921
    )
    est = estimate_favg(build_plan(CNOT_CIRCUIT, 2), photonic_executor(CNOT_CIRCUIT, source=source))
    assert abs(est.f_avg - 0.8458813598523911) <= 1e-12


def test_photonic_executor_rejects_measurement_circuits():
    circuit = GateCircuit(n_qubits=1, gates=(Gate("T", (0,)),), measurement="Z")
    with pytest.raises(ValueError, match="measurement"):
        photonic_executor(circuit)


@pytest.mark.parametrize(
    "keyword", ["encoding", "reflectivities", "calibration_noise", "compile_seed"]
)
def test_photonic_executor_takes_only_a_circuit_and_a_source(keyword):
    # The executor runs the default encoding on a perfect chip; chip
    # errors belong to the hardware model, not to executor options.
    with pytest.raises(TypeError):
        photonic_executor(T_CIRCUIT, **{keyword: None})
