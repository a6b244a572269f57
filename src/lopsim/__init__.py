"""Simulation and calibration toolkit for programmable photonic interferometers.

Importing the package loads numpy only.  scipy is imported on first use
by the functions that need it: :func:`calibrate` and
:func:`compile_with_imperfections` (``minimize``),
:func:`lopsim.sources.fit_fringe` (``curve_fit``) and the Toffoli compile
in :func:`compile_gate_circuit` (``null_space``), so a fresh process
that only simulates, or runs the VQE, starts without it.
"""

from lopsim.fock import (
    FockBasis,
    ModeUnitary,
    OutputDistribution,
    enumerate_basis,
    output_amplitude,
    permanent,
    sample,
    strong_simulate,
)
from lopsim.sources import (
    LabeledInput,
    SourceModel,
    build_input,
    hom_experiment,
    ms_correction,
    noisy_simulate,
)
from lopsim.mesh import (
    CompilationResult,
    MeshLayout,
    MeshPhases,
    PhotonicCircuit,
    clements_decompose,
    compile_with_imperfections,
    fidelity,
    gauge_fidelity,
)
from lopsim.hardware import (
    HardwareModel,
    TranspilationError,
    benchmark_tvd,
    calibrate,
    phases_from_voltages,
    voltages_from_phases,
)
from lopsim.qubits import (
    GateCircuit,
    PostselectionRule,
    QubitEncoding,
    compile_gate_circuit,
    ghz_factory,
    ghz_fidelity,
    pauli_measurement_setting,
)
from lopsim.benchmark import (
    BenchmarkPlan,
    FidelityEstimate,
    build_plan,
    estimate_favg,
    photonic_executor,
)
from lopsim.variational import (
    MitigationMatrix,
    PhotonicVqeBackend,
    QubitHamiltonian,
    VqeConfig,
    VqeResult,
    apply_mitigation,
    bond_table,
    build_mitigation,
    exact_ground_energy,
    h2_hamiltonian,
    measure_energy,
    vqe_run,
)
from lopsim.qnn import (
    ClassifierModel,
    QnnConfig,
    load_iris_dataset,
    qnn_predict,
    qnn_train,
)

__version__ = "0.1.0"
