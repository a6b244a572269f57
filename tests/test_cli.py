"""The ``lopsim`` command line."""

import json

import pytest

from lopsim.cli import main


def test_fringe_json_reports_p6(capsys):
    assert main(["fringe", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "fringe"
    assert record["alpha"] == 0.0
    assert record["p6_cos_alpha"] == pytest.approx(0.7194, abs=1e-3)
    assert 0.0 < record["dropped_mass"] <= 1e-9


def test_qnn_json_reports_accuracies(capsys):
    assert main(["qnn", "--seed", "1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "command",
        "seed",
        "train_accuracy",
        "test_accuracy",
        "objective_evaluations",
        "best_iteration",
    }
    assert record["command"] == "qnn" and record["seed"] == 1
    assert 0.0 <= record["train_accuracy"] <= 1.0
    assert 0.0 <= record["test_accuracy"] <= 1.0
    assert record["objective_evaluations"] == 120
    assert 1 <= record["best_iteration"] <= 15


def test_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])
