"""Command-line entry point of the ``lopsim`` console script.

Usage::

    lopsim fringe [--alpha A] [--json]
    lopsim qnn [--seed S] [--json]
    lopsim calibrate [--seed S] [--json]

``fringe`` runs the six-photon cyclic interferometer with the bundled
measured source (per-photon ``m_i`` fitted to the pairwise
indistinguishability matrix, ``g2 = 0.0075``) and prints the
one-click-per-pair contrast ``p6 cos(alpha)`` and the wall time of
each stage (fit, simulate, readout).  ``--json`` also reports
``dropped_mass``, the probability above the simulated photon-number cap
that the contrast leaves out.  The first run in a process also builds
the Fock-basis tables, which ``stage_s`` shows under ``simulate``.

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
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Sequence

import numpy as np

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
    cyclic_distribution,
    fit_product_model,
    genuine_indistinguishability,
    load_indistinguishability_matrix,
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
    dist = cyclic_distribution(6, source, alpha)
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
    features, labels, names = load_iris_dataset()
    _, metrics = qnn_train(features, labels, QnnConfig(seed=seed), class_names=names)
    return metrics


def calibrate_chip(seed: int) -> dict:
    """Calibrate a synthetic 6-mode chip; returns both TVDs and stage times."""
    draws = np.random.default_rng(seed).integers(2**31, size=3)
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


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lopsim", description="Simulate experiments of the single-photon processor."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    fringe_parser = commands.add_parser(
        "fringe", help="six-photon cyclic fringe p6 cos(alpha) of the bundled source"
    )
    fringe_parser.add_argument(
        "--alpha", type=float, default=0.0, help="internal phase in radians (default 0)"
    )
    fringe_parser.add_argument("--json", action="store_true", help="print one JSON object")
    qnn_parser = commands.add_parser(
        "qnn", help="train the three-photon classifier on the bundled iris set"
    )
    qnn_parser.add_argument("--seed", type=int, default=0, help="training seed (default 0)")
    qnn_parser.add_argument("--json", action="store_true", help="print one JSON object")
    calibrate_parser = commands.add_parser(
        "calibrate", help="calibrate a synthetic 6-mode chip and benchmark the fit"
    )
    calibrate_parser.add_argument("--seed", type=int, default=0, help="chip seed (default 0)")
    calibrate_parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)

    if args.command == "calibrate":
        record = {"command": "calibrate", "seed": args.seed, **calibrate_chip(args.seed)}
        if args.json:
            print(json.dumps(record))
        else:
            stages = ", ".join(f"{name} {sec:.3f} s" for name, sec in record["stage_s"].items())
            print(
                f"calibrated TVD {record['calib_tvd']:.4f}, crosstalk-free baseline TVD"
                f" {record['baseline_tvd']:.4f} ({stages})"
            )
        return 0

    if args.command == "qnn":
        metrics = train_iris(args.seed)
        keys = ("train_accuracy", "test_accuracy", "objective_evaluations", "best_iteration")
        record = {"command": "qnn", "seed": args.seed, **{key: metrics[key] for key in keys}}
        if args.json:
            print(json.dumps(record))
        else:
            print(
                f"train accuracy {record['train_accuracy']:.4f}, test accuracy"
                f" {record['test_accuracy']:.4f} after {record['objective_evaluations']}"
                f" evaluations (best at iteration {record['best_iteration']})"
            )
        return 0

    record = {"command": "fringe", "alpha": args.alpha, **fringe(args.alpha)}
    if args.json:
        print(json.dumps(record))
    else:
        stages = ", ".join(f"{name} {sec:.3f} s" for name, sec in record["stage_s"].items())
        print(f"p6 cos(alpha) = {record['p6_cos_alpha']:.6f} at alpha = {args.alpha:g} ({stages})")
    return 0
