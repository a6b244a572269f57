"""The ``lopsim`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lopsim.cli import main
from lopsim.sources import _fringe_table
from lopsim.variational import VqeConfig, exact_ground_energy, h2_hamiltonian


def test_fringe_json_reports_p6(capsys):
    assert main(["fringe", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "fringe"
    assert record["alpha"] == 0.0
    assert record["p6_cos_alpha"] == pytest.approx(0.7194, abs=1e-3)
    assert 0.0 < record["dropped_mass"] <= 1e-9
    assert set(record["stage_s"]) == {"fit", "simulate", "readout"}
    assert all(sec >= 0.0 for sec in record["stage_s"].values())


def test_fringe_json_is_the_same_with_cold_and_warm_readout_tables(capsys):
    _fringe_table.cache_clear()
    runs = []
    for _ in range(2):
        assert main(["fringe", "--json"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    cold, warm = runs
    assert cold["p6_cos_alpha"].hex() == warm["p6_cos_alpha"].hex()
    assert list(cold["stage_s"]) == list(warm["stage_s"]) == ["fit", "simulate", "readout"]


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


def test_module_run_requires_a_subcommand():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-m", "lopsim.cli"], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode != 0
    assert "usage: lopsim" in run.stderr


def test_calibrate_json_reports_both_tvds(capsys):
    assert main(["calibrate", "--seed", "2", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"command", "seed", "calib_tvd", "baseline_tvd", "stage_s"}
    assert record["command"] == "calibrate" and record["seed"] == 2
    assert 0.0 <= record["calib_tvd"] <= 1.0
    assert 0.0 <= record["baseline_tvd"] <= 1.0
    assert set(record["stage_s"]) == {"measure", "calibrate", "benchmark"}
    assert all(sec >= 0.0 for sec in record["stage_s"].values())


def test_vqe_json_reports_the_energy_and_its_error(capsys):
    assert main(["vqe", "--radius", "0.75", "--seed", "1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {
        "command",
        "radius",
        "seed",
        "energy",
        "exact_energy",
        "exact_energy_at_theta",
        "error_mha",
        "evaluations",
        "converged",
        "wall_s",
    }
    assert record["command"] == "vqe" and record["radius"] == 0.75 and record["seed"] == 1
    assert record["exact_energy"] == exact_ground_energy(h2_hamiltonian(0.75))
    assert record["error_mha"] == 1e3 * (record["energy"] - record["exact_energy"])
    assert record["exact_energy_at_theta"] >= record["exact_energy"] - 1e-12
    assert abs(record["error_mha"]) < 20.0
    assert 1 <= record["evaluations"] <= VqeConfig().max_iterations
    assert isinstance(record["converged"], bool)
    assert record["wall_s"] > 0.0


def test_vqe_rejects_an_untabulated_radius(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["vqe", "--radius", "0.33"])
    assert exit_info.value.code != 0
    assert "not tabulated" in capsys.readouterr().err
