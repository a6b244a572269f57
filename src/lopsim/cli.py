"""Command-line entry point of the ``lopsim`` console script.

Usage::

    lopsim fringe [--alpha A] [--json]
    lopsim qnn [--seed S] [--json]
    lopsim calibrate [--seed S] [--json]
    lopsim vqe [--radius R] [--seed S] [--json]

``python -m lopsim.cli`` takes the same arguments.

``fringe`` runs the six-photon cyclic interferometer with the bundled
measured source (per-photon ``m_i`` fitted to the pairwise
indistinguishability matrix, ``g2 = 0.0075``) and prints the
one-click-per-pair contrast ``p6 cos(alpha)`` and the wall time of
each stage (fit, simulate, readout).  It simulates only the outcomes
that can still reach one click per output pair, and keeps only those
that do: the outcomes the contrast reads.  ``--json`` also reports
``dropped_mass``, the probability above the simulated photon-number cap
that the contrast leaves out.  The first run in a process also builds
the live-row tables, which ``stage_s`` shows under ``simulate``, and the
readout tables, under ``readout``; it never builds a full 12-mode basis.

``qnn`` trains the three-photon classifier on the bundled iris set with
the default :class:`~lopsim.qnn.QnnConfig` (seeded by ``--seed``) and
prints the train and test accuracy, the number of objective evaluations
and the outer iteration that found the best chip phases.

``calibrate`` draws a synthetic 6-mode chip (seeded by ``--seed``),
takes 400 noisy intensity measurements, fits the full crosstalk model
with ``calibrate(maxiter=100)`` and runs the programming benchmark on
100 random phase configurations, for the fit and for the crosstalk-free
per-shifter baseline.  It prints both mean TVDs and the wall time of
each stage (measure, calibrate, benchmark), under ``stage_s`` in the
``--json`` record.

``vqe`` finds the H2 ground energy at one tabulated internuclear radius
(default 0.75) with :func:`~lopsim.variational.vqe_run` under the
default :class:`~lopsim.variational.VqeConfig` (seeded by ``--seed``) on
the ideal :class:`~lopsim.variational.PhotonicVqeBackend`.  It prints
the energy re-measured at the returned angles, the exact ground energy,
their difference in mHa, the number of energy evaluations, whether the
sweeps converged within the cap, and the wall time of the run.
``--json`` also reports ``exact_energy_at_theta``, the infinite-shot
energy at the returned angles.  An untabulated radius is a usage error,
and so is a negative ``--seed`` for any command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .fock import _seeded_rng
from .hardware import (
    HardwareModel,
    benchmark_tvd,
    calibrate,
    crosstalk_free_baseline,
    generate_measurements,
)
from .mesh import MeshLayout
from .qnn import QnnConfig, load_iris_dataset, qnn_train
from .sources import (
    SourceModel,
    _fringe_distribution,
    fit_product_model,
    genuine_indistinguishability,
    load_indistinguishability_matrix,
)
from .variational import (
    PhotonicVqeBackend,
    QubitHamiltonian,
    VqeConfig,
    exact_ground_energy,
    h2_hamiltonian,
    measure_energy,
    vqe_run,
)

#: Residual multiphoton emission of the measured source.
BUNDLED_G2 = 0.0075


def _stage_times(stages: Sequence[str], marks: Sequence[float]) -> dict[str, float]:
    """Wall time of each stage from the clock readings around them."""
    return {name: end - start for name, start, end in zip(stages, marks, marks[1:])}


def fringe(alpha: float) -> dict:
    """``p6 cos(alpha)`` of the bundled fitted source, the mass left out and stage times."""
    marks = [time.perf_counter()]
    m_fit, _ = fit_product_model(load_indistinguishability_matrix())
    marks.append(time.perf_counter())
    source = SourceModel(indistinguishability=tuple(m_fit), g2=BUNDLED_G2)
    dist = _fringe_distribution(6, source, alpha)
    marks.append(time.perf_counter())
    value = genuine_indistinguishability(dist, 6)
    marks.append(time.perf_counter())
    return {
        "p6_cos_alpha": value,
        "dropped_mass": dist.dropped_weight,
        "stage_s": _stage_times(("fit", "simulate", "readout"), marks),
    }


def train_iris(seed: int) -> dict:
    """Train the classifier on the bundled iris set; returns its metrics."""
    features, labels, _ = load_iris_dataset()
    return qnn_train(features, labels, QnnConfig(seed=seed))[1]


def calibrate_chip(seed: int) -> dict:
    """Calibrate a synthetic 6-mode chip; returns both TVDs and stage times."""
    draws = _seeded_rng(seed).integers(2**31, size=3)
    chip_seed, data_seed, tvd_seed = (int(x) for x in draws)
    layout = MeshLayout(6)
    chip = HardwareModel.synthetic(6, rng=chip_seed)
    marks = [time.perf_counter()]
    data = generate_measurements(chip, layout, 400, rng=data_seed)
    marks.append(time.perf_counter())
    fit = calibrate(data, layout, maxiter=100)
    marks.append(time.perf_counter())
    tvd = benchmark_tvd(fit, chip, layout, n_configs=100, seed=tvd_seed)
    baseline = crosstalk_free_baseline(chip)
    baseline_tvd = benchmark_tvd(baseline, chip, layout, n_configs=100, seed=tvd_seed)
    marks.append(time.perf_counter())
    stage_s = _stage_times(("measure", "calibrate", "benchmark"), marks)
    return {"calib_tvd": tvd.mean, "baseline_tvd": baseline_tvd.mean, "stage_s": stage_s}


def run_vqe(h: QubitHamiltonian, seed: int) -> dict:
    """Default-config VQE of ``h``; the energies, the error and the run's counts.

    ``energy`` is the run's re-measured estimate at its angles and
    ``exact_energy_at_theta`` the infinite-shot energy there.
    """
    start = time.perf_counter()
    result = vqe_run(h, PhotonicVqeBackend(), VqeConfig(seed=seed))
    wall = time.perf_counter() - start
    exact = exact_ground_energy(h)
    return {
        "energy": result.energy,
        "exact_energy": exact,
        "exact_energy_at_theta": measure_energy(h, result.theta, PhotonicVqeBackend()),
        "error_mha": 1e3 * (result.energy - exact),
        "evaluations": result.evaluations,
        "converged": result.converged,
        "wall_s": wall,
    }


def _seed(text: str) -> int:
    """A ``--seed`` value: an int that :func:`~lopsim.fock._seeded_rng` accepts."""
    try:
        seed = int(text)
        _seeded_rng(seed)
    except ValueError as exc:  # not an int, or a negative one
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: {exc}") from None
    return seed


#: Each subcommand's help and the help of its ``--seed`` (None: no seed).
_COMMANDS = {
    "fringe": ("six-photon cyclic fringe p6 cos(alpha) of the bundled source", None),
    "qnn": ("train the three-photon classifier on the bundled iris set", "training seed"),
    "calibrate": ("calibrate a synthetic 6-mode chip and benchmark the fit", "chip seed"),
    "vqe": ("H2 ground energy by VQE at one tabulated radius", "sampling seed"),
}


def _text_line(record: dict) -> str:
    """The one-line plain-text report of a command's record."""
    stages = ", ".join(f"{name} {sec:.3f} s" for name, sec in record.get("stage_s", {}).items())
    command = record["command"]
    if command == "vqe":
        return (
            f"VQE energy {record['energy']:.6f} Ha, exact {record['exact_energy']:.6f} Ha,"
            f" error {record['error_mha']:.3f} mHa after {record['evaluations']} evaluations"
            f" (converged: {record['converged']}) in {record['wall_s']:.2f} s"
        )
    if command == "calibrate":
        return (
            f"calibrated TVD {record['calib_tvd']:.4f}, crosstalk-free baseline TVD"
            f" {record['baseline_tvd']:.4f} ({stages})"
        )
    if command == "qnn":
        return (
            f"train accuracy {record['train_accuracy']:.4f}, test accuracy"
            f" {record['test_accuracy']:.4f} after {record['objective_evaluations']}"
            f" evaluations (best at iteration {record['best_iteration']})"
        )
    return (
        f"p6 cos(alpha) = {record['p6_cos_alpha']:.6f} at alpha = {record['alpha']:g} ({stages})"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lopsim", description="Simulate experiments of the single-photon processor."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parsers = {name: commands.add_parser(name, help=text) for name, (text, _) in _COMMANDS.items()}
    parsers["fringe"].add_argument(
        "--alpha", type=float, default=0.0, help="internal phase in radians (default 0)"
    )
    parsers["vqe"].add_argument(
        "--radius", type=float, default=0.75, help="tabulated internuclear radius (default 0.75)"
    )
    for name, (_, seed_help) in _COMMANDS.items():
        if seed_help is not None:
            parsers[name].add_argument(
                "--seed", type=_seed, default=0, help=f"{seed_help} (default 0)"
            )
        parsers[name].add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)

    if args.command == "vqe":
        try:
            h = h2_hamiltonian(args.radius)
        except ValueError as exc:
            parsers["vqe"].error(str(exc))
        record = {"command": "vqe", "radius": args.radius, "seed": args.seed}
        record.update(run_vqe(h, args.seed))
    elif args.command == "calibrate":
        record = {"command": "calibrate", "seed": args.seed, **calibrate_chip(args.seed)}
    elif args.command == "qnn":
        record = {"command": "qnn", "seed": args.seed, **train_iris(args.seed)}
    else:
        try:
            stats = fringe(args.alpha)
        except ValueError as exc:  # a non-finite alpha
            parsers["fringe"].error(str(exc))
        record = {"command": "fringe", "alpha": args.alpha, **stats}
    print(json.dumps(record) if args.json else _text_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
