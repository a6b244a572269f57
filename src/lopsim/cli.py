"""Command-line entry point of the ``lopsim`` console script.

Usage::

    lopsim fringe [--alpha A] [--json]
    lopsim qnn [--seed S] [--json]

``fringe`` runs the six-photon cyclic interferometer with the bundled
measured source (per-photon ``m_i`` fitted to the pairwise
indistinguishability matrix, ``g2 = 0.0075``) and prints the
one-click-per-pair contrast ``p6 cos(alpha)``.  ``--json`` also
reports ``dropped_mass``, the probability above the simulated
photon-number cap that the contrast leaves out.

``qnn`` trains the three-photon classifier on the bundled iris set with
the default :class:`~lopsim.qnn.QnnConfig` (seeded by ``--seed``) and
prints the train and test accuracy, the number of objective evaluations
and the outer iteration that found the best chip phases.
"""

from __future__ import annotations

import argparse
import json
from typing import Sequence

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


def fringe(alpha: float) -> tuple[float, float]:
    """``p6 cos(alpha)`` of the bundled fitted source, and the mass left out."""
    m_fit, _ = fit_product_model(load_indistinguishability_matrix())
    source = SourceModel(indistinguishability=tuple(m_fit), g2=BUNDLED_G2)
    dist = cyclic_distribution(6, source, alpha)
    return genuine_indistinguishability(dist, 6), dist.dropped_weight


def train_iris(seed: int) -> dict:
    """Train the classifier on the bundled iris set; returns its metrics."""
    features, labels, names = load_iris_dataset()
    _, metrics = qnn_train(features, labels, QnnConfig(seed=seed), class_names=names)
    return metrics


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
    args = parser.parse_args(argv)

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

    value, dropped = fringe(args.alpha)
    if args.json:
        record = {"command": "fringe", "alpha": args.alpha, "p6_cos_alpha": value}
        print(json.dumps({**record, "dropped_mass": dropped}))
    else:
        print(f"p6 cos(alpha) = {value:.6f} at alpha = {args.alpha:g}")
    return 0
