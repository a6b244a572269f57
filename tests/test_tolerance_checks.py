"""Tolerance and range checks reject NaN.

``deviation > tol`` is False for a NaN deviation, so each check is
written as ``not deviation <= tol`` (or ``not (low <= x <= high)``); a
NaN input raises the error the function documents instead of passing
through as a result.  The range cases next to the NaN ones pin each
bound of the same check.
"""

import dataclasses

import numpy as np
import pytest

from lopsim.fock import ModeUnitary, OutputDistribution
from lopsim.hardware import (
    HardwareModel,
    TranspilationError,
    phases_from_voltages,
    voltages_from_phases,
)
from lopsim.mesh import _push_diagonal_through, two_mode_gate_elements
from lopsim.qnn import ClassifierModel, QnnConfig, pattern_distributions, qnn_predict, qnn_train
from lopsim.qubits import Gate, GateCircuit, compile_gate_circuit
from lopsim.sources import genuine_indistinguishability
from lopsim.variational import MitigationMatrix, apply_mitigation

from _oracles import placed_distribution

NAN = float("nan")


def _voltages_with_nan(where: str) -> np.ndarray:
    """Transpile zero phases on a 4-mode model, one NaN in the target or the offsets."""
    hw = HardwareModel.prior(4)
    target = np.zeros_like(hw.b)
    (target if where == "target" else hw.b)[0] = NAN
    return voltages_from_phases(target, hw)


def _hardware_with(field: str, index: tuple, value: float) -> HardwareModel:
    """The 3-mode prior model with one entry of ``field`` replaced, validated anew."""
    prior = HardwareModel.prior(3)
    array = getattr(prior, field).copy()
    array[index] = value
    return dataclasses.replace(prior, **{field: array})


def _phases_with_nan_voltage() -> np.ndarray:
    """Phases of the 3-mode prior model with one NaN voltage."""
    hw = HardwareModel.prior(3)
    voltages = np.zeros_like(hw.b)
    voltages[0] = NAN
    return phases_from_voltages(voltages, hw)


def _qnn_phases(chip: float = 0.3, encoding: float = 0.3) -> np.ndarray:
    """Patterns of two samples with one chip phase and one encoding phase set."""
    theta, phases = np.full(32, 0.7), np.full((2, 4), 0.5)
    theta[5], phases[1, 2] = chip, encoding
    return pattern_distributions(theta, phases)


def _qnn_features(value: float, train: bool) -> np.ndarray:
    """Predict or train on four samples, one feature of one sample set to ``value``."""
    features = np.tile([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8]], (2, 1))
    features[3, 1] = value
    if train:
        return qnn_train(features, np.array([0, 1, 0, 1]), QnnConfig(outer_iterations=1, n_test=0))
    model = ClassifierModel(np.zeros(32), np.zeros((2, 37)), np.zeros(4), np.ones(4))
    return qnn_predict(model, features)


def _confusion_with_nan() -> np.ndarray:
    """Identity confusion matrix with one NaN off-diagonal entry."""
    matrix = np.eye(4)
    matrix[1, 0] = NAN
    return matrix


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ModeUnitary(np.full((2, 2), NAN)), ValueError, "not unitary"),
        (
            lambda: compile_gate_circuit(GateCircuit(2, (Gate("RY", (0,), NAN),))),
            ValueError,
            "RY angle must be finite",
        ),
        (lambda: two_mode_gate_elements(np.full((2, 2), NAN), 0, 1), ValueError, "not unitary"),
        (
            lambda: _push_diagonal_through(0, NAN, 0.0, np.ones(2, dtype=complex)),
            RuntimeError,
            "diagonal commutation failed",
        ),
        (lambda: _voltages_with_nan("target"), ValueError, "non-finite"),
        (lambda: _voltages_with_nan("offset"), TranspilationError, "non-finite voltage"),
        (lambda: MitigationMatrix(_confusion_with_nan()), ValueError, "sum to 1"),
        (lambda: _hardware_with("a", (0, 0), NAN), ValueError, "finite"),
        (lambda: _hardware_with("a", (0, 1), NAN), ValueError, "finite"),
        (lambda: _hardware_with("b", (0,), NAN), ValueError, "finite"),
        (lambda: _hardware_with("reflectivities", (0, 0), NAN), ValueError, "reflectivities"),
        (lambda: _hardware_with("reflectivities", (0, 0), 1.7), ValueError, "reflectivities"),
        (lambda: _hardware_with("reflectivities", (0, 1), -0.1), ValueError, "reflectivities"),
        (lambda: _hardware_with("output_losses", (0,), NAN), ValueError, "output losses"),
        (lambda: _hardware_with("output_losses", (0,), 0.0), ValueError, "output losses"),
        (
            lambda: apply_mitigation(
                MitigationMatrix(np.eye(4)), np.array([NAN, 0.5, 0.25, 0.25])
            ),
            ValueError,
            "nonnegative",
        ),
        (lambda: OutputDistribution(2, {1: [NAN, 0.5]}), ValueError, "NaN probability"),
        (lambda: _qnn_phases(chip=NAN), ValueError, "chip phases must be finite"),
        (lambda: _qnn_phases(chip=np.inf), ValueError, "chip phases must be finite"),
        (lambda: _qnn_phases(encoding=NAN), ValueError, "encoding phases must be finite"),
        (lambda: _qnn_phases(encoding=-np.inf), ValueError, "encoding phases must be finite"),
        (
            lambda: ClassifierModel(np.full(32, NAN), np.zeros((2, 37)), np.zeros(4), np.ones(4)),
            ValueError,
            "chip phases must be finite",
        ),
        (lambda: _qnn_features(NAN, train=False), ValueError, "features must be finite"),
        (lambda: _qnn_features(np.inf, train=False), ValueError, "features must be finite"),
        (lambda: _qnn_features(NAN, train=True), ValueError, "features must be finite"),
        (_phases_with_nan_voltage, ValueError, "voltages outside"),
        (
            lambda: genuine_indistinguishability(
                placed_distribution(
                    8, {(1, 0, 1, 0, 1, 0, 1, 0): NAN, (0, 1, 1, 0, 1, 0, 1, 0): 1.0}
                ),
                4,
            ),
            ValueError,
            "NaN probability",
        ),
    ],
    ids=[
        "ModeUnitary",
        "compile_gate_circuit",
        "two_mode_gate_elements",
        "_push_diagonal_through",
        "voltages_from_phases-target",
        "voltages_from_phases-offset",
        "MitigationMatrix",
        "HardwareModel-self_heating",
        "HardwareModel-crosstalk",
        "HardwareModel-offset",
        "HardwareModel-reflectivity",
        "HardwareModel-reflectivity_above_1",
        "HardwareModel-reflectivity_below_0",
        "HardwareModel-output_loss",
        "HardwareModel-zero_output_loss",
        "apply_mitigation",
        "OutputDistribution",
        "pattern_distributions-chip_nan",
        "pattern_distributions-chip_inf",
        "pattern_distributions-encoding_nan",
        "pattern_distributions-encoding_inf",
        "ClassifierModel-chip_nan",
        "qnn_predict-feature_nan",
        "qnn_predict-feature_inf",
        "qnn_train-feature_nan",
        "phases_from_voltages",
        "genuine_indistinguishability",
    ],
)
def test_nan_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
