"""Spans around calls into lopsim's public functions, recorded from outside.

The tracer replaces a function by a timing wrapper on its home module and
on every other ``lopsim`` module that imported it by name (for example
``lopsim.sources.strong_simulate``), plus the two ``unitary`` methods the
mesh layer exposes.  Nothing under ``src/`` changes; ``uninstall`` puts the
original objects back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import fmean

#: Op id of spans recorded while the process sets up (imports, fixed
#: inputs and the warm-up op).
SETUP_OP = -1
#: Op id of spans recorded while the reference ops fill the quality metrics.
QUALITY_OP = -2


@dataclass
class Span:
    name: str
    start: float
    op: int
    parent: int
    end: float = 0.0
    raised: bool = False
    info: dict = field(default_factory=dict)


def _states(args, kwargs, result) -> dict:
    return {"fock.strong_simulate.states": len(result.probabilities)}


def _noisy(args, kwargs, result) -> dict:
    labeled = args[1] if len(args) > 1 else kwargs["labeled"]
    cutoff = args[3] if len(args) > 3 else kwargs.get("min_branch_weight", 0.0)
    weights = [branch.weight for branch in labeled.branches]
    dropped = [w for w in weights if w < cutoff]
    return {
        "sources.output_states": len(result),
        "sources.branches_in": len(weights),
        "sources.branches_kept": len(weights) - len(dropped),
        "sources.dropped_mass": float(sum(dropped)),
    }


def _restarts(args, kwargs, result) -> dict:
    return {"mesh.compile.restarts": result.restarts_used}


def _accept(args, kwargs, result) -> dict:
    return {"qubits.accept_weight": float(result[1])}


#: (module, function, span name, observer of the call's inputs and result)
FUNCTIONS = (
    ("lopsim.fock", "strong_simulate", "fock.strong_simulate", _states),
    ("lopsim.fock", "output_amplitude", "fock.output_amplitude", None),
    ("lopsim.fock", "enumerate_basis", "fock.enumerate_basis", None),
    ("lopsim.sources", "noisy_simulate", "sources.noisy_simulate", _noisy),
    ("lopsim.sources", "genuine_indistinguishability", "sources.genuine_indistinguishability", None),
    ("lopsim.sources", "build_input", "sources.build_input", None),
    ("lopsim.mesh", "compile_with_imperfections", "mesh.compile", _restarts),
    ("lopsim.mesh", "clements_decompose", "mesh.clements_decompose", None),
    ("lopsim.hardware", "generate_measurements", "hardware.generate_measurements", None),
    ("lopsim.hardware", "calibrate", "hardware.calibrate", None),
    ("lopsim.hardware", "benchmark_tvd", "hardware.benchmark_tvd", None),
    ("lopsim.hardware", "voltages_from_phases", "hardware.voltages_from_phases", None),
    ("lopsim.qubits", "compile_gate_circuit", "qubits.compile_gate_circuit", None),
    ("lopsim.qubits", "logical_distribution", "qubits.logical_distribution", _accept),
    ("lopsim.benchmark", "build_plan", "benchmark.build_plan", None),
    ("lopsim.benchmark", "estimate_favg", "benchmark.estimate_favg", None),
    ("lopsim.benchmark", "photonic_executor", "benchmark.photonic_executor", None),
    ("lopsim.variational", "vqe_run", "variational.vqe_run", None),
    ("lopsim.variational", "measure_energy", "variational.measure_energy", None),
    ("lopsim.variational", "build_mitigation", "variational.build_mitigation", None),
    ("lopsim.qnn", "qnn_train", "qnn.qnn_train", None),
    ("lopsim.qnn", "pattern_distribution", "qnn.pattern_distribution", None),
)

#: Spans for the callables these functions return.
_WRAP_RESULT = {"benchmark.photonic_executor": "benchmark.executor"}

#: (module, class, method, span name)
METHODS = (
    ("lopsim.mesh", "PhotonicCircuit", "unitary", "mesh.circuit_unitary"),
    ("lopsim.mesh", "MeshLayout", "unitary", "mesh.layout_unitary"),
)


class Tracer:
    """Records nested spans; ``op`` labels the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, 0.0, self.op, self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        except Exception:
            record.raised = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if observe is not None:
                record.info = observe(args, kwargs, result)
            if name in _WRAP_RESULT:
                result = self._wrap(result, _WRAP_RESULT[name])
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name wherever a loaded lopsim module holds it."""
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "lopsim"]
        for module_name, attr, name, observe in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapped = self._wrap(original, name, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own


# Per-layer metrics: (name, unit, better).  ``calls`` and ``self_s`` are
# means over the timed ops; the two ``setup`` rows are totals over the
# set-up phase, where the work they time happens.
LAYER_METRICS = (
    ("fock.strong_simulate.calls", "calls/op", "lower"),
    ("fock.strong_simulate.self_s", "s/op", "lower"),
    ("fock.strong_simulate.states", "states/op", "lower"),
    ("fock.output_amplitude.calls", "calls/op", "lower"),
    ("fock.output_amplitude.self_s", "s/op", "lower"),
    ("fock.enumerate_basis.self_s", "s", "lower"),
    ("sources.noisy_simulate.calls", "calls/op", "lower"),
    ("sources.noisy_simulate.self_s", "s/op", "lower"),
    ("sources.output_states", "states/op", "lower"),
    ("sources.genuine_indistinguishability.self_s", "s/op", "lower"),
    ("sources.build_input.self_s", "s/op", "lower"),
    ("sources.branches_in", "branches/op", "lower"),
    ("sources.branches_kept", "branches/op", "lower"),
    ("sources.dropped_mass", "prob/op", "lower"),
    ("mesh.compile.calls", "calls/op", "lower"),
    ("mesh.compile.self_s", "s/op", "lower"),
    ("mesh.compile.restarts", "restarts/op", "lower"),
    ("mesh.clements_decompose.self_s", "s/op", "lower"),
    ("mesh.layout_unitary.calls", "calls/op", "lower"),
    ("mesh.layout_unitary.self_s", "s/op", "lower"),
    ("mesh.circuit_unitary.calls", "calls/op", "lower"),
    ("mesh.circuit_unitary.self_s", "s/op", "lower"),
    ("hardware.generate_measurements.self_s", "s/op", "lower"),
    ("hardware.calibrate.self_s", "s/op", "lower"),
    ("hardware.benchmark_tvd.self_s", "s/op", "lower"),
    ("hardware.voltages_from_phases.calls", "calls/op", "lower"),
    ("hardware.transpile_fail_frac", "ratio", "lower"),
    ("qubits.compile_gate_circuit.calls", "calls/op", "lower"),
    ("qubits.compile_gate_circuit.self_s", "s/op", "lower"),
    ("qubits.logical_distribution.calls", "calls/op", "lower"),
    ("qubits.logical_distribution.self_s", "s/op", "lower"),
    ("qubits.accept_weight", "prob", "higher"),
    ("benchmark.build_plan.self_s", "s", "lower"),
    ("benchmark.estimate_favg.self_s", "s/op", "lower"),
    ("benchmark.executor.calls", "calls/op", "lower"),
    ("variational.vqe_run.self_s", "s/op", "lower"),
    ("variational.measure_energy.self_s", "s/op", "lower"),
    ("variational.measure_energy.calls", "calls/op", "lower"),
    ("variational.build_mitigation.self_s", "s/op", "lower"),
    ("qnn.qnn_train.self_s", "s/op", "lower"),
    ("qnn.pattern_distribution.self_s", "s/op", "lower"),
    ("qnn.pattern_distribution.calls", "calls/op", "lower"),
)

#: Per-layer rows the run itself fills: the share of failed ops and the
#: traced median op time, which against the untraced one is the tracing
#: overhead.
RUN_METRICS = (
    ("failed_frac", "ratio", "lower"),
    ("trace.op_p50_s", "s", "lower"),
)

_SETUP_TOTALS = {"fock.enumerate_basis.self_s", "benchmark.build_plan.self_s"}


def layer_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    rows = [(name, unit) for name, unit, _ in LAYER_METRICS]
    return rows + [(name, unit) for name, unit, _ in RUN_METRICS]


def layer_metrics(tracer: Tracer, timed_ops: list[int]) -> dict[str, float]:
    """Per-layer values of one traced run, keyed as in ``LAYER_METRICS``."""
    timed = set(timed_ops)
    totals: defaultdict[str, float] = defaultdict(float)
    setup: defaultdict[str, float] = defaultdict(float)
    accept: list[float] = []
    transpile = [0, 0]
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.op == SETUP_OP:
            setup[f"{span.name}.self_s"] += self_s
        if span.op not in timed:
            continue
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.self_s"] += self_s
        for key, value in span.info.items():
            if key == "qubits.accept_weight":
                accept.append(value)
            else:
                totals[key] += value
        if span.name == "hardware.voltages_from_phases":
            transpile[0] += 1
            transpile[1] += span.raised
    n_ops = max(len(timed), 1)
    out = {
        name: setup[name] if name in _SETUP_TOTALS else totals[name] / n_ops
        for name, _, _ in LAYER_METRICS
    }
    out["hardware.transpile_fail_frac"] = transpile[1] / transpile[0] if transpile[0] else 0.0
    out["qubits.accept_weight"] = fmean(accept) if accept else 0.0
    return out
