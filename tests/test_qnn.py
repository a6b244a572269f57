"""Tests for the photonic classifier with pseudo photon-number readout."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from _oracles import (
    classifier_blocks,
    classifier_circuit,
    classifier_pattern_table,
    evolve_state_vector,
)

from lopsim.fock import batched_amplitudes, strong_simulate
from lopsim.qnn import (
    ENCODING_MODES,
    INPUT_MODES,
    N_FEATURES,
    N_MODES,
    N_THETA,
    ClassifierModel,
    QnnConfig,
    load_iris_dataset,
    pattern_distribution,
    pattern_distributions,
    pattern_space,
    qnn_predict,
    qnn_train,
    _candidate_distributions,
    _pattern_table,
    _stacked_blocks,
    stratified_split,
)

RNG = np.random.default_rng(424)

#: The lit modes, 0-8: every element of the chip acts on them only.
LIT = 9

TOY_FEATURES = np.array(
    [
        [0.0, 0.0, 0.1, 0.0],
        [0.1, 0.0, 0.0, 0.1],
        [0.0, 0.1, 0.1, 0.1],
        [0.1, 0.1, 0.0, 0.0],
        [1.0, 1.0, 0.9, 1.0],
        [0.9, 1.0, 1.0, 0.9],
        [1.0, 0.9, 0.9, 1.0],
        [0.9, 0.9, 1.0, 1.0],
    ]
)
TOY_LABELS = np.array([0, 0, 0, 0, 1, 1, 1, 1])


def unit_model(lambdas):
    """Model with identity feature scaling for direct phase control."""
    return ClassifierModel(
        theta=RNG.uniform(0.0, 2.0 * np.pi, N_THETA),
        lambdas=lambdas,
        feature_low=np.zeros(4),
        feature_span=np.ones(4),
    )


def merged_pattern_of(occ):
    left = sum(occ[m] > 0 for m in (0, 1, 2))
    right = sum(occ[m] > 0 for m in (6, 7, 8))
    return (left, int(occ[3] > 0), int(occ[4] > 0), int(occ[5] > 0), right)


def test_pattern_space_structure():
    patterns = pattern_space()
    assert len(patterns) == 37
    assert len(set(patterns)) == 37
    assert list(patterns) == sorted(patterns)
    for left, b3, b4, b5, right in patterns:
        assert 0 <= left <= 3 and 0 <= right <= 3
        assert b3 in (0, 1) and b4 in (0, 1) and b5 in (0, 1)
        assert 1 <= left + b3 + b4 + b5 + right <= 3


def test_merge_preserves_total_probability():
    for _ in range(5):
        theta = RNG.uniform(0.0, 2.0 * np.pi, N_THETA)
        phases = RNG.uniform(0.0, np.pi, N_FEATURES)
        merged = pattern_distribution(theta, phases)
        assert merged.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(merged >= 0.0)


def test_classifier_circuit_leaves_idle_modes_alone():
    theta = RNG.uniform(0.0, 2.0 * np.pi, N_THETA)
    phases = RNG.uniform(0.0, np.pi, N_FEATURES)
    circuit = classifier_circuit(theta, phases)
    assert circuit.m == N_MODES
    u = circuit.unitary().matrix
    assert np.allclose(u[9:, 9:], np.eye(3), atol=1e-12)
    assert np.allclose(u[9:, :9], 0.0, atol=1e-12)
    assert np.allclose(u[:9, 9:], 0.0, atol=1e-12)


def test_classifier_circuit_validation():
    with pytest.raises(ValueError, match="trainable"):
        classifier_circuit(np.zeros(16), np.zeros(4))
    with pytest.raises(ValueError, match="encoding"):
        classifier_circuit(np.zeros(N_THETA), np.zeros(3))


def test_forward_zero_weights_gives_zero():
    # Every class scores 0, so the argmax tie goes to class 0.
    model = unit_model(np.zeros((3, len(pattern_space()))))
    x = RNG.uniform(0.0, 1.0, 4)
    assert np.array_equal(qnn_predict(model, x), [0])


def test_forward_one_hot_weight_reads_pattern_probability():
    pattern_index = 11
    lambdas = np.zeros((2, len(pattern_space())))
    lambdas[1, pattern_index] = 1.0
    model = unit_model(lambdas)
    x = RNG.uniform(0.0, 1.0, 4)
    probs = pattern_distribution(model.theta, model.encode(x))
    # Class 1 scores the pattern's probability and class 0 scores 0.
    assert probs[pattern_index] > 0.0
    assert np.array_equal(qnn_predict(model, x), [1])


def test_forward_matches_state_vector_oracle():
    theta = RNG.uniform(0.0, 2.0 * np.pi, N_THETA)
    phases = RNG.uniform(0.0, np.pi, N_FEATURES)
    u = classifier_circuit(theta, phases).unitary().matrix
    amplitudes = evolve_state_vector(u, INPUT_MODES)
    expected = {}
    for occupations, amp in amplitudes.items():
        pattern = merged_pattern_of(occupations)
        expected[pattern] = expected.get(pattern, 0.0) + abs(amp) ** 2
    merged = pattern_distribution(theta, phases)
    for k, pattern in enumerate(pattern_space()):
        assert merged[k] == pytest.approx(expected.get(pattern, 0.0), abs=1e-10)
    lambdas = RNG.normal(size=(3, len(pattern_space())))
    model = ClassifierModel(theta, lambdas, np.zeros(4), np.ones(4))
    reference = lambdas @ merged
    forward = model.lambdas @ pattern_distribution(theta, model.encode(phases / np.pi))
    assert np.allclose(forward, reference, atol=1e-10)


def per_sample_patterns(theta, phases):
    """Merged patterns of each data point through its own circuit."""
    rows = []
    for phi in phases:
        u = classifier_circuit(theta, phi).unitary()
        dist = strong_simulate(u, INPUT_MODES)
        merged = dict.fromkeys(pattern_space(), 0.0)
        for row, p in zip(*dist.outcomes()):
            if p > 0.0:
                merged[merged_pattern_of(row)] += p
        rows.append(list(merged.values()))
    return np.array(rows)


def test_batched_patterns_match_per_sample_circuits():
    theta = RNG.uniform(0.0, 2.0 * np.pi, N_THETA)
    phases = RNG.uniform(0.0, np.pi, (6, N_FEATURES))
    batched = pattern_distributions(theta, phases)
    assert batched.shape == (6, len(pattern_space()))
    assert np.allclose(batched, per_sample_patterns(theta, phases), rtol=0, atol=1e-12)
    for row, phi in zip(batched, phases):
        assert np.allclose(row, pattern_distribution(theta, phi), rtol=0, atol=1e-15)
    assert np.allclose(batched.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    with pytest.raises(ValueError, match="encoding"):
        pattern_distributions(theta, phases[:, :3])


def test_predict_matches_per_sample_forward():
    model = unit_model(RNG.normal(size=(3, len(pattern_space()))))
    features = RNG.uniform(0.0, 1.0, (7, N_FEATURES))
    values = np.array(
        [model.lambdas @ pattern_distribution(model.theta, model.encode(x)) for x in features]
    )
    assert np.array_equal(qnn_predict(model, features), np.argmax(values, axis=1))
    assert np.array_equal(model.encode(features)[2], model.encode(features[2]))


def test_encode_scales_and_clips():
    model = ClassifierModel(
        theta=np.zeros(N_THETA),
        lambdas=np.zeros((2, len(pattern_space()))),
        feature_low=np.array([0.0, 0.0, 1.0, -1.0]),
        feature_span=np.array([2.0, 1.0, 1.0, 2.0]),
    )
    phases = model.encode([1.0, 2.0, 0.5, -1.0])
    assert phases[0] == pytest.approx(np.pi / 2.0)
    assert phases[1] == pytest.approx(np.pi)
    assert phases[2] == 0.0
    assert phases[3] == 0.0


def test_model_validation():
    n_patterns = len(pattern_space())
    good = dict(
        theta=np.zeros(N_THETA),
        lambdas=np.zeros((3, n_patterns)),
        feature_low=np.zeros(4),
        feature_span=np.ones(4),
    )
    with pytest.raises(ValueError, match="theta"):
        ClassifierModel(**{**good, "theta": np.zeros(8)})
    with pytest.raises(ValueError, match="lambdas"):
        ClassifierModel(**{**good, "lambdas": np.zeros((3, 5))})
    with pytest.raises(ValueError, match="finite"):
        ClassifierModel(**{**good, "lambdas": np.full((3, n_patterns), np.nan)})
    with pytest.raises(ValueError, match="span"):
        ClassifierModel(**{**good, "feature_span": np.zeros(4)})
    model = ClassifierModel(**good)
    with pytest.raises(ValueError, match="features"):
        model.encode([1.0, 2.0])


def test_load_iris_dataset():
    features, labels, names = load_iris_dataset()
    assert features.shape == (150, 4)
    assert np.array_equal(np.bincount(labels), [50, 50, 50])
    assert names == ("setosa", "versicolor", "virginica")
    assert features[:, 0].min() >= 4.0 and features[:, 0].max() <= 8.0


def test_stratified_split_is_proportional():
    labels = np.repeat([0, 1, 2], 50)
    train_idx, test_idx = stratified_split(labels, 38, np.random.default_rng(1))
    assert len(train_idx) == 112 and len(test_idx) == 38
    assert len(np.intersect1d(train_idx, test_idx)) == 0
    counts = np.bincount(labels[test_idx])
    assert sorted(counts) == [12, 13, 13]
    with pytest.raises(ValueError, match="n_test"):
        stratified_split(labels, 150, np.random.default_rng(1))


def test_toy_training_reaches_perfect_accuracy():
    config = QnnConfig(outer_iterations=8, seed=3, n_test=0)
    model, metrics = qnn_train(TOY_FEATURES, TOY_LABELS, config)
    assert metrics["train_accuracy"] == 1.0
    assert metrics["test_accuracy"] is None
    assert np.array_equal(qnn_predict(model, TOY_FEATURES), TOY_LABELS)


def test_the_training_record_holds_the_keys_its_readers_read():
    # `lopsim qnn` and the benchmark read these four; the result-field
    # guard of tests/test_packaging.py cannot see dict keys.
    _, metrics = qnn_train(TOY_FEATURES, TOY_LABELS, QnnConfig(outer_iterations=1, n_test=2))
    assert set(metrics) == {
        "train_accuracy", "test_accuracy", "objective_evaluations", "best_iteration"
    }


def test_training_is_deterministic_given_seed():
    config = QnnConfig(
        outer_iterations=2, evaluations_per_iteration=2, pool_size=10, seed=7, n_test=2
    )
    model_a, metrics_a = qnn_train(TOY_FEATURES, TOY_LABELS, config)
    model_b, metrics_b = qnn_train(TOY_FEATURES, TOY_LABELS, config)
    assert np.array_equal(model_a.theta, model_b.theta)
    assert np.array_equal(model_a.lambdas, model_b.lambdas)
    assert metrics_a == metrics_b


@pytest.mark.parametrize("field", ["outer_iterations", "evaluations_per_iteration", "pool_size"])
def test_an_empty_search_is_refused(field):
    config = QnnConfig(**{"outer_iterations": 1, "n_test": 0, field: 0})
    with pytest.raises(ValueError, match=f"{field} must be at least 1"):
        qnn_train(TOY_FEATURES, TOY_LABELS, config)


def test_training_input_validation():
    config = QnnConfig(outer_iterations=1, n_test=0)
    with pytest.raises(ValueError, match="two classes"):
        qnn_train(TOY_FEATURES, np.zeros(8, dtype=int), config)
    with pytest.raises(ValueError, match="labels must be"):
        qnn_train(TOY_FEATURES, np.array([0, 0, 0, 0, 2, 2, 2, 2]), config)
    with pytest.raises(ValueError, match="features"):
        qnn_train(TOY_FEATURES[:, :3], TOY_LABELS, config)
    with pytest.raises(ValueError, match="one label"):
        qnn_train(TOY_FEATURES, TOY_LABELS[:5], config)


def test_seeded_training_is_pinned():
    """A seeded iris run with exact pattern probabilities, pinned."""
    features, labels, _ = load_iris_dataset()
    config = QnnConfig(
        outer_iterations=2, evaluations_per_iteration=2, pool_size=6, seed=11, n_test=30
    )
    model, metrics = qnn_train(features, labels, config)
    assert np.allclose(
        model.theta[:4],
        [1.562304800322586, 4.538179962028249, 4.291844454436386, 2.5464901170108356],
        rtol=0,
        atol=1e-12,
    )
    assert np.allclose(
        model.lambdas.sum(axis=1),
        [12.660149552824475, 40.56530790137684, -18.232246602689937],
        rtol=1e-9,
        atol=0,
    )
    assert np.allclose(
        model.lambdas[:, :3],
        [
            [0.9495140867479336, 3.9879591641336622, 1.1394169040128133],
            [-32.042152056650544, -134.57703863627918, -38.45058246756499],
            [31.414814854569872, 131.9422223879297, 37.697777825208966],
        ],
        rtol=1e-9,
        atol=0,
    )
    assert metrics["train_accuracy"] == 1.0
    assert metrics["test_accuracy"] == 28 / 30
    # the ranked accuracy is the trained model's on the training rows
    train_idx, test_idx = stratified_split(labels, 30, np.random.default_rng(11))
    for rows, accuracy in ((train_idx, 1.0), (test_idx, 28 / 30)):
        assert np.mean(qnn_predict(model, features[rows]) == labels[rows]) == accuracy
    assert metrics["objective_evaluations"] == 4
    assert metrics["best_iteration"] == 1


def test_small_iris_subset_trains_above_chance():
    features, labels, _ = load_iris_dataset()
    subset = np.concatenate([np.arange(0, 10), np.arange(50, 60), np.arange(100, 110)])
    config = QnnConfig(
        outer_iterations=3, evaluations_per_iteration=3, pool_size=12, seed=2, n_test=6
    )
    model, metrics = qnn_train(features[subset], labels[subset], config)
    assert metrics["train_accuracy"] >= 0.8
    assert model.lambdas.shape[0] == 3


def chip_patterns(theta, phases):
    """``pattern_distributions`` on all twelve modes: one SLOS pass through the
    element-by-element blocks, merged by the twelve-mode pattern matrix."""
    first, second = classifier_blocks(theta)
    diag = np.ones((len(phases), N_MODES), dtype=complex)
    diag[:, list(ENCODING_MODES)] = np.exp(1j * phases)
    amps = batched_amplitudes(second @ (diag[:, :, None] * first), INPUT_MODES)
    return np.abs(amps) ** 2 @ classifier_pattern_table()[1]


@pytest.mark.parametrize("count", [1, 3, 8])
def test_stacked_blocks_are_the_element_by_element_circuits(count):
    rng = np.random.default_rng(count)
    thetas = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, (count, N_THETA))
    first, second = _stacked_blocks(thetas)
    assert first.shape == second.shape == (count, LIT, LIT)
    identity = np.eye(N_MODES)
    for t, theta in enumerate(thetas):
        for got, want in zip((first[t], second[t]), classifier_blocks(theta)):
            assert got.tobytes() == np.ascontiguousarray(want[:LIT, :LIT]).tobytes()
            # the dark modes: no element touches them
            assert np.array_equal(want[LIT:], identity[LIT:])
            assert np.array_equal(want[:, LIT:], identity[:, LIT:])
    phases = rng.uniform(0.0, np.pi, (4, N_FEATURES))
    stacked = _candidate_distributions(thetas, phases)
    for got, theta in zip(stacked, thetas):
        assert got.tobytes() == chip_patterns(theta, phases).tobytes()
        assert got.tobytes() == pattern_distributions(theta, phases).tobytes()


def test_the_classifier_runs_on_its_nine_lit_modes():
    patterns, matrix = _pattern_table()
    assert matrix.shape == (165, 37)
    assert np.array_equal(matrix.sum(axis=1), np.ones(165))  # every row merges once
    assert pattern_space() == patterns == classifier_pattern_table()[0]


def test_training_in_a_fresh_process_builds_only_lit_mode_bases():
    # Every basis goes through FockBasis.__init__; a fresh interpreter has
    # cached none, so the recorded (m, n) are the ones training builds.
    script = (
        "import json\n"
        "from lopsim import fock, qnn\n"
        "built, init = [], fock.FockBasis.__init__\n"
        "def record(self, m, n):\n"
        "    built.append((m, n))\n"
        "    init(self, m, n)\n"
        "fock.FockBasis.__init__ = record\n"
        "features, labels, _ = qnn.load_iris_dataset()\n"
        "config = qnn.QnnConfig(outer_iterations=1, evaluations_per_iteration=2, n_test=3)\n"
        "qnn.qnn_train(features[::5], labels[::5], config)\n"
        "print(json.dumps(sorted(set(built))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
        timeout=300,
    )
    # no twelve-mode basis, enumerate_basis(12, 3) included
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [[LIT, n] for n in range(4)]
