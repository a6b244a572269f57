"""Photonic neural-network classifier with pseudo photon-number readout.

Three photons interfere in a five-mode region of a twelve-mode chip:
a trainable mesh block, four feature-encoding phases, and a second
trainable block (32 trainable phases in total).  A fixed final layer
redirects the outer modes of the region into two unused neighbor modes
each, so threshold detectors resolve up to three photons there; the
detected click patterns are merged into pseudo photon-number outcomes
and contracted with per-class weights to form the classifier output.
No element touches the three modes above the redirect groups, so the
chip unitary is the identity there and the photons never reach them:
everything is simulated on the nine lit modes, where the three-photon
basis has 165 states instead of the chip's 364.

Only the four encoding phases change from sample to sample, so the chip
unitary factors as ``U_k = A diag(exp(i phi_k)) B`` with ``B`` the first
trainable block and ``A`` the second block followed by the redirect
layer.  An evaluation of T sets of chip phases (one training
iteration's picks, or T = 1) builds every ``A`` and ``B`` in one element
pass over column-stacked blocks, forms each ``U_k`` in one broadcast
product per candidate, runs all T x K through one batched SLOS pass
(:func:`lopsim.fock.batched_amplitudes`) and merges each candidate's
outcomes with one product against the ``(165, 37)`` pattern matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Sequence

import numpy as np

from .fock import _seeded_rng, batched_amplitudes, enumerate_basis
from .mesh import DirectionalCoupler, _apply_element

__all__ = [
    "ENCODING_MODES",
    "INPUT_MODES",
    "N_FEATURES",
    "N_MODES",
    "N_THETA",
    "ClassifierModel",
    "QnnConfig",
    "load_iris_dataset",
    "pattern_distribution",
    "pattern_distributions",
    "pattern_space",
    "qnn_predict",
    "qnn_train",
    "stratified_split",
]

#: Chip size and photon input positions.
N_MODES = 12
INPUT_MODES = (2, 4, 6)
N_PHOTONS = 3

#: Trainable phases (two blocks of eight two-phase cells).
N_THETA = 32
N_FEATURES = 4

#: Cell pairs of one trainable block, column by column.
_BLOCK_PAIRS = ((2, 3), (4, 5), (3, 4), (5, 6), (2, 3), (4, 5), (3, 4), (5, 6))

#: Couplers of the fixed redirect layer after the second block, in order.
_REDIRECT_PAIRS = ((1, 2), (0, 1), (6, 7), (7, 8))

#: Lit modes: every element acts below this mode, so the chip unitary is
#: the identity on the modes above and no photon reaches them.
_N_LIT = 1 + max(max(pair) for pair in _BLOCK_PAIRS + _REDIRECT_PAIRS)
if _N_LIT > N_MODES:
    raise ValueError(f"the classifier's {_N_LIT} lit modes exceed the {N_MODES}-mode chip")

#: Modes whose phase shifters carry the scaled features.
ENCODING_MODES = (3, 4, 5, 6)

#: Pseudo photon-number groups and the plain threshold modes between.
_LEFT_GROUP = (0, 1, 2)
_MIDDLE_MODES = (3, 4, 5)
_RIGHT_GROUP = (6, 7, 8)

#: Training search: ridge of the outcome-weight solve, and the starting
#: spread (rad) and per-iteration decay of the local perturbations.
RIDGE = 1e-6
PERTURBATION = 1.0
PERTURBATION_DECAY = 0.85


def pattern_space() -> tuple[tuple[int, int, int, int, int], ...]:
    """Detected outcome patterns in canonical (lexicographic) order.

    A pattern is (left count, click on mode 3, click on mode 4, click on
    mode 5, right count) where the counts are pseudo photon numbers from
    the redirect groups.  Three photons produce one to three clicks.
    """
    return _pattern_table()[0]


@cache
def _pattern_table() -> tuple[tuple[tuple[int, int, int, int, int], ...], np.ndarray]:
    """The 37 patterns and the ``(165, 37)`` aggregation matrix from the
    three-photon Fock basis of the lit modes, from one enumeration.

    Each basis row is threshold-detected and the redirect groups are
    merged into pseudo photon numbers; the sorted distinct merged rows
    are the patterns.
    """
    occ = enumerate_basis(_N_LIT, N_PHOTONS).occupations
    clicks = occ > 0
    merged = np.column_stack(
        [
            clicks[:, _LEFT_GROUP].sum(axis=1),
            clicks[:, _MIDDLE_MODES],
            clicks[:, _RIGHT_GROUP].sum(axis=1),
        ]
    )
    patterns, index = np.unique(merged, axis=0, return_inverse=True)
    matrix = np.zeros((len(occ), len(patterns)))
    matrix[np.arange(len(occ)), index.ravel()] = 1.0
    return tuple(map(tuple, patterns.tolist())), matrix


def _checked_theta(theta: Sequence[float]) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (N_THETA,):
        raise ValueError(f"theta must have {N_THETA} trainable phases, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("chip phases must be finite")
    return theta


def _stacked_blocks(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks ``B`` and ``A`` (redirect included) of T candidates on the lit modes,
    ``(T, 9, 9)`` each.

    One element pass over the 2T blocks side by side: a coupler is applied
    once, a phase shifter is one row product, so each entry is bit for bit
    the element-by-element circuit's (the chip's block is the identity on
    the dark modes above).
    """
    count = 2 * len(thetas)
    halves = np.concatenate([thetas[:, : N_THETA // 2], thetas[:, N_THETA // 2 :]])
    factors = np.repeat(np.exp(1j * halves.T), _N_LIT, axis=1)
    u = np.tile(np.eye(_N_LIT, dtype=complex), count)
    for cell, (a, b) in enumerate(_BLOCK_PAIRS):
        u[a] *= factors[2 * cell]
        _apply_element(u, DirectionalCoupler(a, b))
        u[a] *= factors[2 * cell + 1]
        _apply_element(u, DirectionalCoupler(a, b))
    for a, b in _REDIRECT_PAIRS:  # on the A blocks only
        _apply_element(u[:, _N_LIT * len(thetas) :], DirectionalCoupler(a, b))
    blocks = np.ascontiguousarray(u.reshape(_N_LIT, count, _N_LIT).transpose(1, 0, 2))
    return blocks[: len(thetas)], blocks[len(thetas) :]


def _candidate_distributions(thetas, phases) -> np.ndarray:
    """:func:`pattern_distributions` of T candidates, ``(T, K, 37)``, in one SLOS pass."""
    first, second = _stacked_blocks(thetas)
    diag = np.ones((len(phases), _N_LIT), dtype=complex)
    diag[:, ENCODING_MODES] = np.exp(1j * phases)
    unitaries = np.stack([a @ (diag[:, :, None] * b) for a, b in zip(second, first)])
    amps = batched_amplitudes(unitaries.reshape(-1, _N_LIT, _N_LIT), INPUT_MODES)
    amps = amps.reshape(len(thetas), len(phases), -1)
    return np.stack([np.abs(a) ** 2 @ _pattern_table()[1] for a in amps])


def pattern_distributions(theta: Sequence[float], phases: np.ndarray) -> np.ndarray:
    """Merged outcome-pattern probabilities of K data points, ``(K, 37)``.

    ``phases`` holds one row of encoding phases per data point.  The K
    chip unitaries ``A diag(exp(i phi_k)) B`` share the blocks ``A`` and
    ``B`` and go through one batched SLOS pass on the nine lit modes.
    """
    theta = _checked_theta(theta)
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 2 or phases.shape[1] != N_FEATURES:
        raise ValueError(f"expected (K, {N_FEATURES}) encoding phases, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("encoding phases must be finite")
    return _candidate_distributions(theta[None], phases)[0]


def pattern_distribution(theta: Sequence[float], phases: Sequence[float]) -> np.ndarray:
    """Probabilities of the merged outcome patterns for one data point.

    The K = 1 case of :func:`pattern_distributions`.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (N_FEATURES,):
        raise ValueError(f"expected {N_FEATURES} encoding phases, got shape {phases.shape}")
    return pattern_distributions(theta, phases[None])[0]


def _feature_phases(x: np.ndarray, low: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The feature map: encoding phases ``(x - low) / span * pi``, clipped to [0, pi]."""
    return np.clip((x - low) / span * np.pi, 0.0, np.pi)


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Trained classifier: chip phases, outcome weights and feature map.

    ``lambdas`` holds one weight row per class over the pattern space
    (disjoint per-class estimators, decision by argmax).  Features are
    scaled to encoding phases by ``(x - feature_low) / feature_span * pi``
    and clipped to [0, pi], the map training used (:func:`_feature_phases`).
    """

    theta: np.ndarray
    lambdas: np.ndarray
    feature_low: np.ndarray
    feature_span: np.ndarray

    def __post_init__(self) -> None:
        theta = _checked_theta(self.theta)
        lambdas = np.asarray(self.lambdas, dtype=float)
        n_patterns = len(pattern_space())
        if lambdas.ndim != 2 or lambdas.shape[1] != n_patterns:
            raise ValueError(
                f"lambdas must be (n_classes, {n_patterns}), got shape {lambdas.shape}"
            )
        if not np.all(np.isfinite(lambdas)):
            raise ValueError("lambdas must be finite")
        low = np.asarray(self.feature_low, dtype=float)
        span = np.asarray(self.feature_span, dtype=float)
        if low.shape != (N_FEATURES,) or span.shape != (N_FEATURES,):
            raise ValueError(f"feature map must have {N_FEATURES} entries per side")
        if np.any(span <= 0.0):
            raise ValueError("feature spans must be positive")
        for name, value in (
            ("theta", theta),
            ("lambdas", lambdas),
            ("feature_low", low),
            ("feature_span", span),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def encode(self, x: Sequence[float]) -> np.ndarray:
        """Scaled encoding phases in [0, pi], one row per feature row of ``x``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} features per row, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        return _feature_phases(x, self.feature_low, self.feature_span)


def qnn_predict(model: ClassifierModel, features: np.ndarray) -> np.ndarray:
    """Predicted class labels for a feature matrix."""
    phases = model.encode(np.atleast_2d(np.asarray(features, dtype=float)))
    values = pattern_distributions(model.theta, phases) @ model.lambdas.T
    return np.argmax(values, axis=1)


def load_iris_dataset() -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Bundled IRIS measurements: features, integer labels, class names."""
    text = (
        resources.files("lopsim").joinpath("data/iris.csv").read_text(encoding="utf-8")
    )
    lines = text.strip().splitlines()[1:]
    features = np.empty((len(lines), N_FEATURES))
    species = []
    for i, line in enumerate(lines):
        parts = line.split(",")
        features[i] = [float(v) for v in parts[:N_FEATURES]]
        species.append(parts[N_FEATURES])
    names = tuple(sorted(set(species)))
    label_of = {name: k for k, name in enumerate(names)}
    labels = np.array([label_of[s] for s in species], dtype=int)
    return features, labels, names


def stratified_split(
    labels: np.ndarray, n_test: int, rng: np.random.Generator | int
) -> tuple[np.ndarray, np.ndarray]:
    """Class-proportional train/test index split.

    Test counts per class follow the class proportions (largest
    remainder rounding), so every class appears in both halves.
    """
    labels = np.asarray(labels)
    if not 0 <= n_test < len(labels):
        raise ValueError(f"n_test must lie in [0, {len(labels)}), got {n_test}")
    rng = _seeded_rng(rng)
    classes, counts = np.unique(labels, return_counts=True)
    shares = counts * n_test / len(labels)
    base = np.floor(shares).astype(int)
    remainder = n_test - base.sum()
    order = np.argsort(shares - base)[::-1]
    base[order[:remainder]] += 1
    test_idx = []
    for cls, take in zip(classes, base):
        members = np.flatnonzero(labels == cls)
        test_idx.extend(rng.permutation(members)[:take])
    test_idx = np.sort(np.array(test_idx, dtype=int))
    train_idx = np.setdiff1d(np.arange(len(labels)), test_idx)
    return train_idx, test_idx


@dataclass
class QnnConfig:
    """Settings for classifier training.

    The outer loop proposes chip phases from a candidate pool (fresh
    uniform draws mixed with perturbations of the best phases), ranks
    the pool with a radial-basis surrogate fitted to all evaluated
    candidates, and fully evaluates only the top few per iteration.
    The inner step solves the outcome weights exactly per candidate by
    ridge regression onto one-hot targets (``RIDGE``).  Perturbations
    start at a spread of ``PERTURBATION`` rad and shrink by
    ``PERTURBATION_DECAY`` per outer iteration.
    """

    outer_iterations: int = 15
    evaluations_per_iteration: int = 8
    pool_size: int = 40
    seed: int = 0
    n_test: int = 38


def _solve_lambdas(
    probs: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[np.ndarray, float, float]:
    """Ridge regression of one-hot targets; returns weights, accuracy, loss."""
    targets = np.zeros((len(labels), n_classes))
    targets[np.arange(len(labels)), labels] = 1.0
    gram = probs.T @ probs + RIDGE * np.eye(probs.shape[1])
    weights = np.linalg.solve(gram, probs.T @ targets)
    scores = probs @ weights
    accuracy = float(np.mean(np.argmax(scores, axis=1) == labels))
    loss = float(np.mean((scores - targets) ** 2))
    return weights.T, accuracy, loss


def _surrogate_scores(
    history_thetas: list[np.ndarray], history_scores: list[float], pool: np.ndarray
) -> np.ndarray:
    """Radial-basis estimate of candidate quality from evaluated points."""
    thetas = np.stack(history_thetas)
    scores = np.asarray(history_scores)
    diffs = pool[:, None, :] - thetas[None, :, :]
    distances = np.linalg.norm(diffs, axis=2)
    positive = distances[distances > 0.0]
    bandwidth = float(np.median(positive)) if positive.size else 1.0
    weights = np.exp(-((distances / bandwidth) ** 2))
    return (weights @ scores) / (weights.sum(axis=1) + 1e-12)


def qnn_train(
    features: np.ndarray,
    labels: np.ndarray,
    config: QnnConfig | None = None,
) -> tuple[ClassifierModel, dict]:
    """Train the classifier on a labeled feature set.

    Runs the see-saw scheme: an outer surrogate-assisted random search
    over the 32 chip phases, with the outcome weights re-solved exactly
    for every candidate, scored by training accuracy (mean squared
    error as tie-break).  Returns the best model and a record of four
    keys: ``train_accuracy`` (the best candidate's, as ranked),
    ``test_accuracy`` (None when ``config.n_test`` is 0),
    ``objective_evaluations`` (candidates scored) and ``best_iteration``
    (the outer iteration, from 1, that found the best candidate).
    """
    if config is None:
        config = QnnConfig()
    for name in ("outer_iterations", "evaluations_per_iteration", "pool_size"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(config, name)}")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if features.ndim != 2 or features.shape[1] != N_FEATURES:
        raise ValueError(f"features must be (n, {N_FEATURES}), got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")
    if labels.shape != (features.shape[0],):
        raise ValueError("one label per feature row required")
    classes = np.unique(labels)
    n_classes = len(classes)
    if n_classes < 2:
        raise ValueError("training needs at least two classes")
    if not np.array_equal(classes, np.arange(n_classes)):
        raise ValueError(f"labels must be 0..{n_classes - 1}, got {classes}")

    rng = _seeded_rng(config.seed)
    train_idx, test_idx = stratified_split(labels, config.n_test, rng)
    x_train, y_train = features[train_idx], labels[train_idx]
    x_test, y_test = features[test_idx], labels[test_idx]

    low = x_train.min(axis=0)
    span = x_train.max(axis=0) - low
    span[span <= 0.0] = 1.0
    train_phases = _feature_phases(x_train, low, span)

    history_thetas: list[np.ndarray] = []
    history_scores: list[float] = []
    best = {"score": -np.inf, "theta": None, "lambdas": None, "accuracy": 0.0, "iteration": 0}
    step = PERTURBATION

    for iteration in range(config.outer_iterations):
        fresh = rng.uniform(0.0, 2.0 * np.pi, (config.pool_size // 2, N_THETA))
        if best["theta"] is not None:
            local = np.mod(
                best["theta"]
                + rng.normal(0.0, step, (config.pool_size - len(fresh), N_THETA)),
                2.0 * np.pi,
            )
            pool = np.vstack([fresh, local])
        else:
            pool = rng.uniform(0.0, 2.0 * np.pi, (config.pool_size, N_THETA))
        if history_thetas:
            ranking = np.argsort(
                _surrogate_scores(history_thetas, history_scores, pool)
            )[::-1]
        else:
            ranking = rng.permutation(len(pool))
        picks = pool[ranking[: config.evaluations_per_iteration]]
        for theta, probs in zip(picks, _candidate_distributions(picks, train_phases)):
            weights, accuracy, loss = _solve_lambdas(probs, y_train, n_classes)
            score = accuracy - 0.01 * loss
            history_thetas.append(theta)
            history_scores.append(score)
            if score > best["score"]:
                best.update(
                    score=score,
                    theta=theta,
                    lambdas=weights,
                    accuracy=accuracy,
                    iteration=iteration + 1,
                )
        step *= PERTURBATION_DECAY

    model = ClassifierModel(
        theta=best["theta"],
        lambdas=best["lambdas"],
        feature_low=low,
        feature_span=span,
    )
    test_accuracy = (
        float(np.mean(qnn_predict(model, x_test) == y_test)) if len(y_test) else None
    )
    metrics = {
        "train_accuracy": best["accuracy"],
        "test_accuracy": test_accuracy,
        "objective_evaluations": len(history_scores),
        "best_iteration": best["iteration"],
    }
    return model, metrics
