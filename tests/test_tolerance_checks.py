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
from lopsim.qubits import Gate, GateCircuit, compile_gate_circuit
from lopsim.sources import genuine_indistinguishability
from lopsim.variational import MitigationMatrix, apply_mitigation

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
        (lambda: MitigationMatrix("ZZ", _confusion_with_nan()), ValueError, "sum to 1"),
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
                MitigationMatrix("ZZ", np.eye(4)), np.array([NAN, 0.5, 0.25, 0.25])
            ),
            ValueError,
            "nonnegative",
        ),
        (lambda: OutputDistribution(2, {1: [NAN, 0.5]}), ValueError, "NaN probability"),
        (_phases_with_nan_voltage, ValueError, "voltages outside"),
        (
            lambda: genuine_indistinguishability(
                {(1, 0, 1, 0, 1, 0, 1, 0): NAN, (0, 1, 1, 0, 1, 0, 1, 0): 1.0}, 4
            ),
            ValueError,
            "undefined",
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
        "phases_from_voltages",
        "genuine_indistinguishability",
    ],
)
def test_nan_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
