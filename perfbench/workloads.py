"""The benchmark's workloads: seeded op inputs, the op, and its checks.

Op ``index`` of a run with seed ``seed`` draws every input from
``numpy.random.default_rng([seed, index])``, so a seed fixes the inputs;
lopsim receives only the generated values.  Index 0 of seed 0 is the
reference op: the warm-up op of every set-up and the source of the
quality metrics, identical in every run.  Timed ops use indices 1, 2, ...

Each workload's ``op_seconds`` is its nominal op time in scaled seconds
(see ``hostspeed.py``), measured on the host the benchmark was written
on; ``run.py`` turns ``--seconds`` into an op count with it.

Every lopsim call goes through its module attribute (``sources.x``, not a
name imported from it), so the tracer's wrappers see the call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lopsim import benchmark, fock, hardware, mesh, qnn, qubits, sources, variational

REFERENCE_SEED = 0
REFERENCE_INDEX = 0

#: p6 of the fitted six-photon source, as tests/test_sources.py pins it.
P6 = 0.7194
FRINGE_TOL = 1e-3

# Fixed budgets keep an op's cost steady from chip to chip; calibration
# and compilation stop at these iteration counts, not at convergence.
N_MEASUREMENTS = 400
CALIB_MAXITER = 100
TVD_CONFIGS = 100
COMPILE_MAXITER = 60
#: Coupler reflectivities of the 12-mode mesh, as HardwareModel.synthetic draws them.
COUPLER_MEAN = 0.567
COUPLER_STD = 0.006

CNOT_TOL = 1e-9
READOUT_FLIP = 0.03
VQE_SHOTS = 2000
VQE_ITERATIONS = 20
IRIS_PER_CLASS = 10
QNN_CONFIG = dict(outer_iterations=3, evaluations_per_iteration=3, pool_size=12, n_test=0)


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


@dataclass(frozen=True)
class Check:
    """One verdict on an op's outputs.

    ``known_defect`` marks a check the seed commit already fails on some
    inputs: it counts as a failed op but does not make the run incorrect.
    """

    name: str
    passed: bool
    detail: str
    known_defect: bool = False


class CyclicFringe:
    """Six-photon cyclic fringe p6 cos(alpha) for the fitted measured source."""

    name = "cyclic_fringe"
    op_seconds = 3.0

    def prepare(self) -> None:
        m_fit, _ = sources.fit_product_model(sources.load_indistinguishability_matrix())
        self.source = sources.SourceModel(indistinguishability=tuple(m_fit), g2=0.0075)

    def inputs(self, seed: int, index: int) -> dict:
        return {"alpha": float(op_rng(seed, index).uniform(0.0, 2.0 * np.pi))}

    def run(self, inputs: dict) -> dict:
        p = sources.measure_genuine_indistinguishability(6, self.source, inputs["alpha"])
        return {"p6_cos_alpha": p}

    def checks(self, inputs: dict, values: dict) -> list[Check]:
        expected = P6 * np.cos(inputs["alpha"])
        error = abs(values["p6_cos_alpha"] - expected)
        return [Check("fringe", error <= FRINGE_TOL, f"|p - p6 cos a| = {error:.2e}")]


class ChipCalibration:
    """Calibrate a synthetic 6-mode chip, then compile a 12-mode target."""

    name = "chip_calibration"
    op_seconds = 2.05

    def prepare(self) -> None:
        self.chip_layout = mesh.MeshLayout(6)
        self.compile_layout = mesh.MeshLayout(12)

    def inputs(self, seed: int, index: int) -> dict:
        rng = op_rng(seed, index)
        return {
            "chip": hardware.HardwareModel.synthetic(6, rng=_seed(rng)),
            "measurement_seed": _seed(rng),
            "tvd_seed": _seed(rng),
            "target": fock.ModeUnitary.haar_random(12, rng),
            "couplers": np.clip(
                rng.normal(COUPLER_MEAN, COUPLER_STD, size=(self.compile_layout.n_cells, 2)),
                0.05,
                0.95,
            ),
            "compile_seed": _seed(rng),
        }

    def run(self, inputs: dict) -> dict:
        chip, layout = inputs["chip"], self.chip_layout
        data = hardware.generate_measurements(
            chip, layout, N_MEASUREMENTS, rng=inputs["measurement_seed"]
        )
        fit = hardware.calibrate(data, layout, maxiter=CALIB_MAXITER)
        tvd = hardware.benchmark_tvd(
            fit, chip, layout, n_configs=TVD_CONFIGS, seed=inputs["tvd_seed"]
        )
        baseline = hardware.benchmark_tvd(
            hardware.crosstalk_free_baseline(chip),
            chip,
            layout,
            n_configs=TVD_CONFIGS,
            seed=inputs["tvd_seed"],
        )
        target, couplers, big = inputs["target"], inputs["couplers"], self.compile_layout
        compiled = mesh.compile_with_imperfections(
            target,
            couplers,
            layout=big,
            max_restarts=1,
            maxiter=COMPILE_MAXITER,
            rng=inputs["compile_seed"],
        )
        ideal = mesh.clements_decompose(target, big)
        uncompensated = mesh.gauge_fidelity(target, big.unitary(ideal.phases, couplers))
        return {
            "calib_tvd": tvd.mean,
            "baseline_tvd": baseline.mean,
            "compile_fidelity": compiled.fidelity,
            "compile_infidelity": 1.0 - compiled.fidelity,
            "uncompensated_fidelity": uncompensated,
        }

    def checks(self, inputs: dict, values: dict) -> list[Check]:
        return [
            Check(
                "calibration_beats_baseline",
                values["calib_tvd"] < values["baseline_tvd"],
                f"TVD {values['calib_tvd']:.4f} vs baseline {values['baseline_tvd']:.4f}",
                known_defect=True,
            ),
            Check(
                "compile_beats_uncompensated",
                values["compile_fidelity"] > values["uncompensated_fidelity"],
                f"F {values['compile_fidelity']:.8f} vs {values['uncompensated_fidelity']:.8f}",
            ),
        ]


class QubitApps:
    """CNOT F_avg plan, H2 VQE and a short iris classifier training."""

    name = "qubit_apps"
    op_seconds = 1.95

    def prepare(self) -> None:
        self.cnot = qubits.GateCircuit.from_text("CNOT 0 1", n_qubits=2)
        self.plan = benchmark.build_plan(self.cnot, 2)
        self.features, self.labels, _ = qnn.load_iris_dataset()
        self.radii = [radius for radius, _ in variational.bond_table()]

    def inputs(self, seed: int, index: int) -> dict:
        rng = op_rng(seed, index)
        source = sources.SourceModel(
            indistinguishability=tuple(rng.uniform(0.90, 0.98, size=2)),
            g2=float(rng.uniform(0.005, 0.02)),
        )
        subset = np.sort(
            np.concatenate(
                [
                    rng.choice(np.flatnonzero(self.labels == k), IRIS_PER_CLASS, replace=False)
                    for k in np.unique(self.labels)
                ]
            )
        )
        return {
            "source": source,
            "radius": float(self.radii[int(rng.integers(len(self.radii)))]),
            "vqe_seed": _seed(rng),
            "iris_rows": subset,
            "qnn_seed": _seed(rng),
        }

    def run(self, inputs: dict) -> dict:
        ideal = benchmark.estimate_favg(self.plan, benchmark.photonic_executor(self.cnot))
        executor = benchmark.photonic_executor(self.cnot, source=inputs["source"])
        noisy = benchmark.estimate_favg(self.plan, executor)

        h = variational.h2_hamiltonian(inputs["radius"])
        config = variational.VqeConfig(
            shots=VQE_SHOTS, max_iterations=VQE_ITERATIONS, seed=inputs["vqe_seed"]
        )
        vqe = variational.vqe_run(h, variational.PhotonicVqeBackend(readout_flip=READOUT_FLIP), config)
        exact = variational.measure_energy(h, vqe.theta, variational.PhotonicVqeBackend(), shots=None)

        rows = inputs["iris_rows"]
        _, trained = qnn.qnn_train(
            self.features[rows],
            self.labels[rows],
            qnn.QnnConfig(seed=inputs["qnn_seed"], **QNN_CONFIG),
        )
        return {
            "cnot_favg_ideal": ideal.f_avg,
            "cnot_favg_noisy": noisy.f_avg,
            "vqe_energy": vqe.energy,
            "vqe_err_mha": 1e3 * (exact - variational.exact_ground_energy(h)),
            "qnn_train_acc": trained["train_accuracy"],
        }

    def checks(self, inputs: dict, values: dict) -> list[Check]:
        ideal, noisy = values["cnot_favg_ideal"], values["cnot_favg_noisy"]
        return [
            Check("cnot_ideal", abs(ideal - 1.0) <= CNOT_TOL, f"ideal F_avg - 1 = {ideal - 1.0:.1e}"),
            Check("cnot_noisy", 0.0 < noisy <= 1.0, f"noisy F_avg = {noisy:.6f}"),
        ]


WORKLOADS = {w.name: w for w in (CyclicFringe, ChipCalibration, QubitApps)}

#: Quality metrics: name -> (unit, workload whose reference op yields it).
#: The reference op's value of the same name is the metric.
QUALITY = {
    "calib_tvd": ("ratio", "chip_calibration"),
    "compile_infidelity": ("ratio", "chip_calibration"),
    "vqe_err_mha": ("mHa", "qubit_apps"),
    "qnn_train_acc": ("ratio", "qubit_apps"),
}
