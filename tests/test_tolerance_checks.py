"""Tolerance checks reject NaN.

``deviation > tol`` is False for a NaN deviation, so each check is
written as ``not deviation <= tol``; a NaN input raises the error the
function documents instead of passing through as a result.
"""

import numpy as np
import pytest

from lopsim.fock import ModeUnitary
from lopsim.hardware import HardwareModel, TranspilationError, voltages_from_phases
from lopsim.mesh import two_mode_gate_elements
from lopsim.qubits import Gate, GateCircuit, compile_gate_circuit

NAN = float("nan")


def _voltages_with_nan(where: str) -> np.ndarray:
    """Transpile zero phases on a 4-mode model, one NaN in the target or the offsets."""
    hw = HardwareModel.prior(4)
    target = np.zeros_like(hw.b)
    (target if where == "target" else hw.b)[0] = NAN
    return voltages_from_phases(target, hw)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ModeUnitary(np.full((2, 2), NAN)), ValueError, "not unitary"),
        (
            lambda: compile_gate_circuit(GateCircuit(2, (Gate("RY", (0,), NAN),))),
            ValueError,
            "not unitary",
        ),
        (lambda: two_mode_gate_elements(np.full((2, 2), NAN), 0, 1), ValueError, "not unitary"),
        (lambda: _voltages_with_nan("target"), ValueError, "non-finite"),
        (lambda: _voltages_with_nan("offset"), TranspilationError, "residual"),
    ],
    ids=[
        "ModeUnitary",
        "compile_gate_circuit",
        "two_mode_gate_elements",
        "voltages_from_phases-target",
        "voltages_from_phases-offset",
    ],
)
def test_nan_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
