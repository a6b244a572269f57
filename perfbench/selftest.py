"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test collection; it
takes about a minute, most of it the first six-photon op.
"""

from __future__ import annotations

import importlib
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def canonical(value):
    """Comparable form of an op's inputs (arrays by dtype, shape and bytes)."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple((key, canonical(v)) for key, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if hasattr(value, "__dict__"):
        return (type(value).__name__, canonical(vars(value)))
    return value


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def workload(request):
    w = WORKLOADS[request.param]()
    w.prepare()
    return w


def test_inputs_repeat_for_a_seed(workload):
    first = canonical(workload.inputs(7, 3))
    assert canonical(workload.inputs(7, 3)) == first
    assert canonical(workload.inputs(8, 3)) != first
    assert canonical(workload.inputs(7, 4)) != first


def test_traced_op_matches_untraced_bit_for_bit(workload):
    inputs = workload.inputs(1, 1)
    plain = workload.run(inputs)
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in tracing.FUNCTIONS
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workload.run(inputs)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span.name for span in tracer.spans}
    assert names & {"fock.strong_simulate", "sources.noisy_simulate", "mesh.compile"}
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner.parent == 0
    assert own[0] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))
    assert own[1] == inner.end - inner.start


def failing(workload, inputs, values):
    return {c.name for c in workload.checks(inputs, values) if not c.passed}


def test_fringe_check_rejects_perturbed_value():
    w = WORKLOADS["cyclic_fringe"]()
    inputs = {"alpha": 0.3}
    exact = workloads.P6 * np.cos(0.3)
    assert failing(w, inputs, {"p6_cos_alpha": exact + 5e-4}) == set()
    assert failing(w, inputs, {"p6_cos_alpha": exact + 2e-3}) == {"fringe"}


def test_chip_checks_reject_perturbed_values():
    w = WORKLOADS["chip_calibration"]()
    good = {
        "calib_tvd": 0.02,
        "baseline_tvd": 0.2,
        "compile_fidelity": 0.9999,
        "uncompensated_fidelity": 0.95,
    }
    assert failing(w, {}, good) == set()
    assert failing(w, {}, {**good, "calib_tvd": 0.21}) == {"calibration_beats_baseline"}
    assert failing(w, {}, {**good, "compile_fidelity": 0.95}) == {"compile_beats_uncompensated"}
    known = {c.name: c.known_defect for c in w.checks({}, good)}
    assert known == {"calibration_beats_baseline": True, "compile_beats_uncompensated": False}


def test_qubit_checks_reject_perturbed_values():
    w = WORKLOADS["qubit_apps"]()
    good = {"cnot_favg_ideal": 1.0 + 1e-12, "cnot_favg_noisy": 0.86}
    assert failing(w, {}, good) == set()
    assert failing(w, {}, {**good, "cnot_favg_ideal": 1.0 - 1e-8}) == {"cnot_ideal"}
    assert failing(w, {}, {**good, "cnot_favg_noisy": 1.0 + 1e-6}) == {"cnot_noisy"}
    assert failing(w, {}, {**good, "cnot_favg_noisy": 0.0}) == {"cnot_noisy"}


def test_probe_samples_periodically_and_scales_by_its_readings():
    speed = hostspeed.HostSpeed(period_s=0.01)
    speed.start()
    try:
        mark = speed.begin()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        interval = speed.end(mark)
    finally:
        speed.stop()
    window = speed.samples[mark.sample:]
    assert interval.samples == len(window) >= 5
    expected = np.mean([hostspeed.REFERENCE_S / s for s in window])
    assert interval.factor == pytest.approx(expected)
    assert interval.scaled == pytest.approx(interval.wall * expected)
    assert signal.getsignal(signal.SIGALRM) is not speed._on_alarm


def test_op_count_depends_on_arguments_only():
    w = WORKLOADS["chip_calibration"]()
    assert run.op_count(w, 10) == run.op_count(w, 10) == round(10 / w.op_seconds)
    assert run.op_count(w, 0.1) == run.MIN_OPS
