"""Packaging metadata: an installed copy carries every bundled data file
and some module reads each one, every console script resolves to a
callable, every name a module exports or the package imports exists, no
module-level definition, method or property is dead, every public name
has a caller in the package or the benchmark (or an allowlist entry that
names its coming reader), no module draws from an unseeded generator, every
``np.allclose``/``np.isclose`` sets its ``rtol``, no parameter takes a
plain ``Mapping[FockState, ...]`` of outcomes, and importing the
package (or running ``lopsim fringe`` or ``lopsim vqe``) loads no scipy
module, so a fresh process starts without paying for it."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path, PurePosixPath

import numpy as np
import pytest

from lopsim import benchmark, cli, fock, hardware, mesh, qnn, qubits, sources, variational

ROOT = Path(__file__).resolve().parents[1]


def test_every_data_file_matches_a_package_data_glob():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["lopsim"]
    package = ROOT / "src" / "lopsim"
    files = [
        PurePosixPath(path.relative_to(package).as_posix())
        for path in (package / "data").rglob("*")
        if path.is_file()
    ]
    assert files
    missing = [str(f) for f in files if not any(f.match(g) for g in globs)]
    assert missing == []


def test_every_data_file_has_a_reader():
    # A bundled file that no module names ships to every install unread.
    package = ROOT / "src" / "lopsim"
    modules = _read(package.glob("*.py"))
    files = [path.name for path in (package / "data").rglob("*") if path.is_file()]
    assert files
    assert [name for name in files if name not in modules] == []


def test_every_console_script_target_is_callable():
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = config["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute)), name


def test_every_exported_name_resolves():
    package = importlib.import_module("lopsim")
    source = ROOT / "src" / "lopsim"
    modules = sorted(p.stem for p in source.glob("*.py") if p.stem != "__init__")
    for name in modules:
        module = importlib.import_module(f"lopsim.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
    imported = ast.parse((source / "__init__.py").read_text(encoding="utf-8"))
    names = [
        alias.asname or alias.name
        for node in ast.walk(imported)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(package, n)] == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_level(tree: ast.Module):
    return [node for node in tree.body if isinstance(node, _DEFINITIONS)]


def _class_members(tree: ast.Module):
    """Methods and properties of the module-level classes."""
    return [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and _name(node) == "__all__"


def _exported(tree: ast.Module):
    """The definitions and constants a module lists in ``__all__``."""
    names = {name for node in tree.body if _is_all(node) for name in ast.literal_eval(node.value)}
    found = [node for node in tree.body if _name(node) in names]
    assert {_name(node) for node in found} == names
    return found


def _public_members(tree: ast.Module):
    """Methods and properties of the public module-level classes, public names only."""
    return [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _name(node) -> str | None:
    """The name a definition or a one-name assignment binds."""
    if isinstance(node, _DEFINITIONS):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return getattr(node.targets[0], "id", None)
    return None


def _read(paths) -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in paths)


def _unused_definitions(
    select, readers: str | None = None, source: Path = ROOT / "src" / "lopsim"
) -> list[str]:
    # A name counts as used when it occurs in the package at ``source``
    # outside its own definition, the docstrings, the __all__ lists and
    # the package's __init__ imports, or anywhere in ``readers`` (by
    # default the tests).  Dunder names are used by the language.
    if readers is None:
        readers = _read((ROOT / "tests").glob("*.py"))
    modules = {
        path.name: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(source.glob("*.py"))
        if path.name != "__init__.py"
    }
    trees = {name: ast.parse("\n".join(lines)) for name, lines in modules.items()}

    def skipped(tree: ast.Module) -> list[tuple[int, int]]:
        exports = [(node.lineno, node.end_lineno) for node in tree.body if _is_all(node)]
        docstrings = [
            (node.body[0].lineno, node.body[0].end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFINITIONS))
            and ast.get_docstring(node, clean=False) is not None
        ]
        return exports + docstrings

    always = {name: skipped(tree) for name, tree in trees.items()}

    def text_without(name: str, spans: list[tuple[int, int]]) -> str:
        drop = {i for start, end in always[name] + spans for i in range(start - 1, end)}
        return "\n".join(line for i, line in enumerate(modules[name]) if i not in drop)

    unused = []
    for module, tree in trees.items():
        for node in select(tree):
            name = _name(node)
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            texts = [
                text_without(other, [(start, node.end_lineno)] if other == module else [])
                for other in modules
            ]
            dot = "" if node in tree.body else r"\."  # a member is read as an attribute
            pattern = re.compile(rf"{dot}\b{re.escape(name)}\b")
            if not any(pattern.search(text) for text in [*texts, readers]):
                unused.append(f"{module}:{name}")
    return unused


def test_every_module_level_definition_has_a_caller_or_a_test():
    assert _unused_definitions(_module_level) == []


def test_every_method_and_property_has_a_caller_or_a_test():
    assert _unused_definitions(_class_members) == []


#: Public names that no code in the package or the benchmark reads, each
#: with the user-facing entry or ROADMAP item that is to read it.  The
#: scan must equal this table: a new test-only name fails, and so does an
#: entry whose name found a caller or left.
TEST_ONLY_PUBLIC_NAMES = {
    "benchmark.py:depolarizing_executor": "closed-form reference executor of F_avg plans",
    "fock.py:from_string": "input pattern text of `lopsim sample` (ROADMAP items 7, 8)",
    "fock.py:sample": "counts of `lopsim sample` (ROADMAP items 7, 11)",
    "hardware.py:held_out_tvd": "restart selection of the calibration fit (ROADMAP item 2)",
    "hardware.py:unitary_at_voltages": "gates on a calibrated chip (ROADMAP item 4)",
    "qubits.py:ghz_noisy_fidelity": "`lopsim ghz` (ROADMAP items 8, 12)",
    "sources.py:fit_fringe": "`lopsim fringe` scan over alpha (ROADMAP item 8)",
    "sources.py:hom_experiment": "`lopsim hom` (ROADMAP item 8)",
    "sources.py:ms_correction": "`lopsim hom` (ROADMAP item 8)",
    "validation.py:collision_free_reference": "`lopsim sample` validation (ROADMAP item 7)",
    "validation.py:compare_distributions": "`lopsim sample` validation (ROADMAP item 7)",
    "validation.py:counter_trajectory_csv": "`lopsim sample` validation (ROADMAP item 7)",
    "validation.py:run_validation": "`lopsim sample` validation (ROADMAP items 7, 8)",
    "validation.py:sample_outcomes": "`lopsim sample` hypotheses (ROADMAP items 7, 11)",
    "variational.py:ansatz_circuit": "reference circuit of a stacked VQE compile (ROADMAP item 14)",
}


def _benchmark_reads(directory: Path = ROOT / "perfbench") -> tuple[str, str]:
    """What the benchmark's code reads of lopsim, as reader texts for the caller scan.

    The first text lists each name read as ``<lopsim module>.name`` (the
    module imported by ``from lopsim import ...``) and each name of a
    tracer entry ``("lopsim.<module>", name, ...)``; the second each
    attribute read, as ``.name``.  Both come from the syntax tree, so a
    docstring, a comment or an unrelated bare word counts for neither.
    """
    names, members = [], []
    for path in sorted(directory.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "lopsim"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                members.append(f".{node.attr}")
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    names.append(node.attr)
            elif isinstance(node, ast.Tuple) and node.elts:
                strings = [getattr(item, "value", None) for item in node.elts]
                if str(strings[0]).startswith("lopsim."):
                    entry = [v for v in strings[1:] if isinstance(v, str) and v.isidentifier()]
                    names += entry
                    members += [f".{name}" for name in entry]
    return "\n".join(names), "\n".join(members)


def _public_names_without_a_caller(source: Path = ROOT / "src" / "lopsim") -> list[str]:
    names, members = _benchmark_reads()
    found = _unused_definitions(_exported, names, source)
    return sorted(found + _unused_definitions(_public_members, members, source))


def test_every_public_name_has_a_caller_outside_the_tests():
    # Counts callers in src/lopsim and the code of perfbench/*.py only: a
    # public name that only tests call is surface with no user.
    assert _public_names_without_a_caller() == sorted(TEST_ONLY_PUBLIC_NAMES)


def test_the_benchmark_reads_only_module_attributes_and_tracer_entries(tmp_path):
    # ``mark.sample`` and a docstring naming ``fock.sample`` read no lopsim
    # name; ``fock.strong_simulate`` and a tracer entry do.
    bench = _write_package(
        tmp_path / "bench",
        {
            "run.py": '''"""Times fock.sample and sample() calls."""
from lopsim import fock

FUNCTIONS = (("lopsim.sources", "noisy_simulate", "sources.noisy_simulate", None),)


def op(mark, result):
    """Reads result.branches."""
    return fock.strong_simulate(mark.sample), result.probabilities
''',
        },
    )
    names, members = _benchmark_reads(bench)
    assert sorted(names.split()) == ["noisy_simulate", "strong_simulate"]
    assert sorted(members.split()) == [
        ".noisy_simulate", ".probabilities", ".sample", ".strong_simulate"
    ]


#: A two-module package for the caller scan: ``unused`` is named only in
#: docstrings and ``__all__``, ``helper`` only in docstrings and as a
#: bare local name, never read as an attribute.
_SCANNED_PACKAGE = {
    "alpha.py": '''"""Names `Model.helper`, `unused` and `called`."""

__all__ = ["Model", "unused", "called"]


class Model:
    """A model whose ``helper`` and ``used`` are named here."""

    def used(self):
        return 1

    def helper(self):
        return 2


def unused():
    """Calls nothing; mentions Model.helper() and unused()."""
    return 3


def called():
    return Model().used()
''',
    "beta.py": '''from alpha import called


def run():
    helper = called()
    return helper
''',
}


def _write_package(root: Path, modules: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in modules.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_the_caller_scan_counts_no_docstring_or_all_entry_as_a_use(tmp_path):
    source = _write_package(tmp_path / "pkg", _SCANNED_PACKAGE)
    assert _unused_definitions(_exported, "", source) == ["alpha.py:unused"]
    assert _unused_definitions(_exported, "unused()", source) == []


def test_the_caller_scan_reads_a_member_only_as_an_attribute(tmp_path):
    # beta's local variable ``helper`` is not a read of Model.helper
    source = _write_package(tmp_path / "pkg", _SCANNED_PACKAGE)
    assert _unused_definitions(_public_members, "", source) == ["alpha.py:helper"]
    assert _unused_definitions(_public_members, "model.helper()", source) == []


def test_a_new_test_only_method_fails_only_the_public_name_guard(tmp_path):
    # A public method that the package names only in docstrings and that
    # only a test calls has a caller for the dead-code guards, but no
    # caller outside the tests.
    source = ROOT / "src" / "lopsim"
    modules = {path.name: path.read_text(encoding="utf-8") for path in source.glob("*.py")}
    lines = modules["fock.py"].splitlines()
    tree = ast.parse(modules["fock.py"])
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "OutputDistribution"]
    method = [
        "",
        "    def sector_masses(self):",
        '        """The summed ``probabilities`` of each sector."""',
        "        return [float(v.sum()) for v in self.sectors]",
    ]
    lines[cls.end_lineno:cls.end_lineno] = method
    modules["fock.py"] = "\n".join(lines) + "\n"
    mutated = _write_package(tmp_path / "lopsim", modules)
    tests = _read((ROOT / "tests").glob("*.py")) + "\nassert dist.sector_masses()\n"
    assert _unused_definitions(_module_level, tests, mutated) == []
    assert _unused_definitions(_class_members, tests, mutated) == []
    found = _public_names_without_a_caller(mutated)
    assert found == sorted([*TEST_ONLY_PUBLIC_NAMES, "fock.py:sector_masses"])


@pytest.fixture
def tracing(monkeypatch):
    """The benchmark's tracer module, perfbench/tracing.py."""
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_wraps_and_restores_every_name_it_names(tracing):
    # The benchmark's tracer (perfbench/tracing.py) replaces lopsim functions
    # and methods by name, so a renamed or deleted name breaks every traced
    # run; uninstall must put back every object it replaced.
    names = ["lopsim"] + [
        f"lopsim.{p.stem}" for p in sorted((ROOT / "src" / "lopsim").glob("*.py"))
        if p.stem != "__init__"
    ]
    modules = [importlib.import_module(name) for name in names]
    before = [dict(vars(module)) for module in modules]
    methods = {}
    for module, owner, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module), owner)
        methods[cls, attr] = cls.__dict__[attr]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, _, _ in tracing.FUNCTIONS:
            home = importlib.import_module(module)
            assert getattr(home, attr) is not before[names.index(module)][attr], attr
        for (cls, attr), original in methods.items():
            assert cls.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for name, module, saved in zip(names, modules, before):
        now = vars(module)
        assert now.keys() == saved.keys(), name
        assert [key for key in saved if now[key] is not saved[key]] == [], name
    for (cls, attr), original in methods.items():
        assert cls.__dict__[attr] is original


def test_every_tracer_observer_reads_a_real_call(tracing):
    # The observers read lopsim results by attribute and ``len`` (for
    # example ``len(result)`` of an OutputDistribution and the weights of
    # ``labeled.branches``), so a change to those breaks every traced run.
    u = fock.ModeUnitary.haar_random(3, np.random.default_rng(0))
    labeled = sources.build_input(2, sources.SourceModel(indistinguishability=0.9, g2=0.01))
    rule = qubits.PostselectionRule(((0, 1),), vacuum_modes=(2,))
    reflectivities = np.full((mesh.MeshLayout(3).n_cells, 2), 0.5)
    one_photon = fock.strong_simulate(u, fock.FockState((1, 0, 0)))
    calls = {
        "fock.strong_simulate": ((u, fock.FockState((1, 1, 0))), {}),
        "sources.noisy_simulate": ((u, labeled), {}),
        "mesh.compile": ((u, reflectivities), {"max_restarts": 1, "maxiter": 5}),
        "qubits.logical_distribution": ((one_photon, rule), {}),
    }
    observers = {
        name: (module, attr, observe)
        for module, attr, name, observe in tracing.FUNCTIONS
        if observe is not None
    }
    assert sorted(observers) == sorted(calls)
    results, infos = {}, {}
    for name, (module, attr, observe) in observers.items():
        args, kwargs = calls[name]
        results[name] = getattr(importlib.import_module(module), attr)(*args, **kwargs)
        infos[name] = observe(args, kwargs, results[name])
    noisy = results["sources.noisy_simulate"]
    assert infos == {
        "fock.strong_simulate": {"fock.strong_simulate.states": 6},
        "sources.noisy_simulate": {
            "sources.output_states": int(np.count_nonzero(noisy.probabilities)),
            "sources.branches_in": len(labeled.branches),
            "sources.branches_kept": len(labeled.branches),
            "sources.dropped_mass": 0.0,
        },
        "mesh.compile": {"mesh.compile.restarts": 1},
        "qubits.logical_distribution": {
            "qubits.accept_weight": float(results["qubits.logical_distribution"][1])
        },
    }
    assert 0.0 < infos["qubits.logical_distribution"]["qubits.accept_weight"] <= 1.0


def test_no_module_imports_scipy_at_import_time():
    # Statements run on import: the module body and class bodies, not
    # function bodies, where scipy is imported by the one function using it.
    def import_time_nodes(body):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from import_time_nodes(getattr(node, field, []))

    offenders = []
    for path in sorted((ROOT / "src" / "lopsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in import_time_nodes(tree.body):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_draws_from_an_unseeded_generator():
    # default_rng() and default_rng(None) seed themselves from the OS, so
    # their draws differ from run to run.  Every generator comes from
    # fock._seeded_rng, which refuses None; no other code calls
    # default_rng.
    offenders = []
    for path in sorted((ROOT / "src" / "lopsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {
            id(node)
            for func in ast.walk(tree)
            if path.name == "fock.py"
            and isinstance(func, ast.FunctionDef)
            and func.name == "_seeded_rng"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng"
                and id(node) not in helper
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_allclose_sets_its_rtol():
    # np.allclose and np.isclose add rtol (1e-5 by default) times the
    # reference to the atol a check states, so a check that leaves rtol
    # unset accepts a deviation of 1e-5 where it says 1e-9.
    offenders = []
    for path in sorted((ROOT / "src" / "lopsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in ("allclose", "isclose")
                and len(node.args) < 3
                and all(keyword.arg != "rtol" for keyword in node.keywords)
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_parameter_takes_a_plain_mapping_of_states():
    # OutputDistribution is the one outcome type: probabilities and the
    # counts of fock.sample alike.  A parameter typed Mapping[FockState, ...]
    # would invite a second input path that converts plain mappings.
    plain = re.compile(r"(\w+\.)?Mapping\[\s*(\w+\.)?FockState\b")
    offenders = []
    for path in sorted((ROOT / "src" / "lopsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                offenders += [
                    f"{path.name}:{arg.lineno}:{node.name}.{arg.arg}"
                    for arg in args.posonlyargs + args.args + args.kwonlyargs
                    if arg.annotation is not None and plain.match(ast.unparse(arg.annotation))
                ]
    assert offenders == []


def _chip():
    return hardware.HardwareModel.synthetic(3, rng=0)


_T_GATE = qubits.GateCircuit.from_text("T 0", n_qubits=1)

#: Every public entry point that makes a generator, called with a None seed.
UNSEEDED_CALLS = {
    "fock.sample": lambda: fock.sample(
        fock.ModeUnitary(np.eye(2)), fock.FockState((1, 0)), 5, None
    ),
    "HardwareModel.synthetic": lambda: hardware.HardwareModel.synthetic(3, rng=None),
    "generate_measurements": lambda: hardware.generate_measurements(
        _chip(), mesh.MeshLayout(3), 3, rng=None
    ),
    "benchmark_tvd": lambda: hardware.benchmark_tvd(
        _chip(), _chip(), mesh.MeshLayout(3), seed=None
    ),
    "compile_with_imperfections": lambda: mesh.compile_with_imperfections(
        fock.ModeUnitary(np.eye(3)), np.full((mesh.MeshLayout(3).n_cells, 2), 0.5), rng=None
    ),
    "estimate_favg": lambda: benchmark.estimate_favg(
        benchmark.build_plan(_T_GATE, 1), benchmark.depolarizing_executor(_T_GATE, 0.0), seed=None
    ),
    "build_mitigation": lambda: variational.build_mitigation(
        variational.PhotonicVqeBackend(), "ZZ", shots=100, seed=None
    ),
    "vqe_run": lambda: variational.vqe_run(
        variational.h2_hamiltonian(0.75),
        variational.PhotonicVqeBackend(),
        variational.VqeConfig(seed=None),
    ),
    "qnn_train": lambda: qnn.qnn_train(
        *qnn.load_iris_dataset()[:2], qnn.QnnConfig(seed=None)
    ),
    "cli.calibrate_chip": lambda: cli.calibrate_chip(None),
}


@pytest.mark.parametrize("entry", list(UNSEEDED_CALLS))
def test_an_explicit_none_seed_is_refused(entry):
    with pytest.raises(ValueError, match="got None"):
        UNSEEDED_CALLS[entry]()


def test_no_seed_defaults_to_none():
    # A seed left at None seeds the generator from the OS, so a call that
    # does not pass one would not be reproducible.  Checks every function
    # parameter and dataclass field named ``seed`` or ``*_seed``, and
    # every parameter named ``rng`` whose annotation admits an int seed.
    def is_seed(name: str, annotation=None) -> bool:
        if name == "rng":
            return annotation is not None and "int" in re.findall(r"\w+", ast.unparse(annotation))
        return name == "seed" or name.endswith("_seed")

    def is_none(node) -> bool:
        return isinstance(node, ast.Constant) and node.value is None

    offenders = []
    for path in sorted((ROOT / "src" / "lopsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                offenders += [
                    f"{path.name}:{arg.lineno}:{arg.arg}"
                    for arg, default in pairs
                    if is_seed(arg.arg, arg.annotation) and is_none(default)
                ]
            elif isinstance(node, ast.ClassDef):
                offenders += [
                    f"{path.name}:{item.lineno}:{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and is_seed(item.target.id)
                    and is_none(item.value)
                ]
    assert offenders == []


@pytest.mark.parametrize("command", ["fringe", "vqe"])
def test_a_fresh_cli_process_loads_no_scipy(command):
    script = (
        "import json, sys\n"
        "import lopsim, lopsim.cli\n"
        f"lopsim.cli.main([{command!r}, '--json'])\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('scipy'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[0])["command"] == command
    assert json.loads(lines[-1]) == []
