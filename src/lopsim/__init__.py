"""Simulation and calibration toolkit for programmable photonic interferometers.

Importing the package compiles no submodule and loads no numpy.  The
eight submodules it exports names from are registered through
:class:`importlib.util.LazyLoader`, so each is compiled and run on its
first attribute read, and each exported name is read from its submodule
when first asked for (PEP 562): a fresh process pays only for the
modules it runs.  scipy is imported on first use by the functions that
need it: :func:`calibrate` and :func:`compile_with_imperfections`
(``minimize``), :func:`lopsim.sources.fit_fringe` (``curve_fit``) and
the Toffoli compile in :func:`compile_gate_circuit` (``null_space``), so
a fresh process that only simulates, or runs the VQE, starts without it.
"""

import importlib.util
import sys

#: The names each lazy submodule exports at the package level.
_EXPORTS = {
    "fock": (
        "FockBasis", "ModeUnitary", "OutputDistribution", "enumerate_basis",
        "output_amplitude", "permanent", "sample", "strong_simulate",
    ),
    "sources": (
        "LabeledInput", "SourceModel", "build_input", "hom_experiment", "ms_correction",
        "noisy_simulate",
    ),
    "mesh": (
        "CompilationResult", "MeshLayout", "MeshPhases", "PhotonicCircuit",
        "clements_decompose", "compile_with_imperfections", "fidelity", "gauge_fidelity",
    ),
    "hardware": (
        "HardwareModel", "TranspilationError", "benchmark_tvd", "calibrate",
        "phases_from_voltages", "voltages_from_phases",
    ),
    "qubits": (
        "GateCircuit", "PostselectionRule", "QubitEncoding", "compile_gate_circuit",
        "ghz_factory", "ghz_fidelity", "pauli_measurement_setting",
    ),
    "benchmark": (
        "BenchmarkPlan", "FidelityEstimate", "build_plan", "estimate_favg", "photonic_executor",
    ),
    "variational": (
        "MitigationMatrix", "PhotonicVqeBackend", "QubitHamiltonian", "VqeConfig", "VqeResult",
        "apply_mitigation", "bond_table", "build_mitigation", "exact_ground_energy",
        "h2_hamiltonian", "measure_energy", "vqe_run",
    ),
    "qnn": ("ClassifierModel", "QnnConfig", "load_iris_dataset", "qnn_predict", "qnn_train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_EXPORTS, *_HOME]


def _lazy(name: str):
    """``lopsim.<name>``, in ``sys.modules``, run on its first attribute read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"
