"""The ``lopsim`` command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lopsim import cli
from lopsim.cli import main
from lopsim.fock import _gains, _live_table, _one_click_rows, _successors
from lopsim.sources import (
    SourceModel,
    _fringe_table,
    fit_product_model,
    genuine_indistinguishability,
    load_indistinguishability_matrix,
)
from lopsim.variational import VqeConfig, exact_ground_energy, h2_hamiltonian

from _oracles import cyclic_full_distribution


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
    _live_table.cache_clear()
    _successors.cache_clear()
    _gains.cache_clear()
    _one_click_rows.cache_clear()
    runs = []
    for _ in range(2):
        assert main(["fringe", "--json"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    cold, warm = runs
    assert cold["p6_cos_alpha"].hex() == warm["p6_cos_alpha"].hex()
    # the simulated support holds every outcome the contrast reads
    m_fit, _ = fit_product_model(load_indistinguishability_matrix())
    full = cyclic_full_distribution(6, SourceModel(tuple(m_fit), g2=cli.BUNDLED_G2))
    assert cold["p6_cos_alpha"].hex() == genuine_indistinguishability(full, 6).hex()
    assert cold["dropped_mass"] == full.dropped_weight
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


@pytest.mark.parametrize("command", ["qnn", "calibrate", "vqe"])
def test_a_negative_seed_is_a_usage_error(command, monkeypatch, capsys):
    def unreached(*args, **kwargs):
        raise AssertionError("the command ran with a negative seed")

    for name in ("train_iris", "calibrate_chip", "run_vqe"):
        monkeypatch.setattr(cli, name, unreached)
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "seed must be a nonnegative int, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_fringe_rejects_a_non_finite_alpha(alpha, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fringe", f"--alpha={alpha}"])
    assert exit_info.value.code != 0
    assert "alpha must be a finite phase" in capsys.readouterr().err



# Each command with its runner replaced by a fixed record: the argv, the
# runner's name and the arguments it must receive, the options the JSON
# record echoes, the runner's record and the plain-text line.
_FIXED_RUNS = {
    "fringe": (
        ["fringe", "--alpha", "0.5"],
        ("fringe", (0.5,)),
        {"alpha": 0.5},
        {
            "p6_cos_alpha": 0.7194,
            "dropped_mass": 1e-10,
            "stage_s": {"fit": 0.001, "simulate": 0.25, "readout": 0.012},
        },
        "p6 cos(alpha) = 0.719400 at alpha = 0.5 (fit 0.001 s, simulate 0.250 s, readout 0.012 s)",
    ),
    "qnn": (
        ["qnn", "--seed", "3"],
        ("train_iris", (3,)),
        {"seed": 3},
        {
            "train_accuracy": 0.975,
            "test_accuracy": 0.9,
            "objective_evaluations": 120,
            "best_iteration": 7,
        },
        "train accuracy 0.9750, test accuracy 0.9000 after 120 evaluations"
        " (best at iteration 7)",
    ),
    "calibrate": (
        ["calibrate", "--seed", "4"],
        ("calibrate_chip", (4,)),
        {"seed": 4},
        {
            "calib_tvd": 0.3064,
            "baseline_tvd": 0.41,
            "stage_s": {"measure": 0.02, "calibrate": 1.5, "benchmark": 0.25},
        },
        "calibrated TVD 0.3064, crosstalk-free baseline TVD 0.4100"
        " (measure 0.020 s, calibrate 1.500 s, benchmark 0.250 s)",
    ),
    "vqe": (
        ["vqe", "--radius", "0.75", "--seed", "5"],
        ("run_vqe", (h2_hamiltonian(0.75), 5)),
        {"radius": 0.75, "seed": 5},
        {
            "energy": -1.1372,
            "exact_energy": -1.13727,
            "exact_energy_at_theta": -1.13721,
            "error_mha": 0.07,
            "evaluations": 42,
            "converged": True,
            "wall_s": 0.25,
        },
        "VQE energy -1.137200 Ha, exact -1.137270 Ha, error 0.070 mHa after 42 evaluations"
        " (converged: True) in 0.25 s",
    ),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", list(_FIXED_RUNS))
def test_each_command_prints_its_record(command, as_json, monkeypatch, capsys):
    argv, (runner, expected_args), options, record, text = _FIXED_RUNS[command]
    calls = []
    monkeypatch.setattr(cli, runner, lambda *args: calls.append(args) or dict(record))
    assert main([*argv, "--json"] if as_json else argv) == 0
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out) == {"command": command, **options, **record}
    else:
        assert out == text + "\n"
    assert calls == [expected_args]
