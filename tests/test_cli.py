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
    assert set(record["stage_s"]) == {"fit", "simulate", "readout"}
    assert all(sec >= 0.0 for sec in record["stage_s"].values())


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


def test_calibrate_json_reports_both_tvds(capsys):
    assert main(["calibrate", "--seed", "2", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"command", "seed", "calib_tvd", "baseline_tvd", "stage_s"}
    assert record["command"] == "calibrate" and record["seed"] == 2
    assert 0.0 <= record["calib_tvd"] <= 1.0
    assert 0.0 <= record["baseline_tvd"] <= 1.0
    assert set(record["stage_s"]) == {"measure", "calibrate", "benchmark"}
    assert all(sec >= 0.0 for sec in record["stage_s"].values())
