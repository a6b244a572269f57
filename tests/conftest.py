"""Shared fixtures for the test suite."""

import pytest

from lopsim.benchmark import build_plan
from lopsim.qubits import GateCircuit


@pytest.fixture(scope="session")
def toffoli_plan():
    """Benchmark plan for the three-qubit Toffoli gate (592 weighted correlations)."""
    circuit = GateCircuit.from_text("TOFFOLI 0 1 2", n_qubits=3)
    return build_plan(circuit, 3)
