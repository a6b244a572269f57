"""Packaging metadata: an installed copy carries every bundled data file,
every console script resolves to a callable, every name a module exports
or the package imports exists, no module-level definition, method or
property is dead, no module draws from an unseeded generator, every
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

from lopsim import benchmark, cli, fock, hardware, mesh, qnn, qubits, variational

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


def _unused_definitions(select) -> list[str]:
    # A name counts as used when it occurs in the package outside its own
    # definition and outside the __all__ lists and the package's
    # __init__ imports, or anywhere in the tests.  Dunder names are used
    # by the language.
    source = ROOT / "src" / "lopsim"
    tests = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("*.py"))
    modules = {
        path.name: path.read_text(encoding="utf-8").splitlines()
        for path in sorted(source.glob("*.py"))
        if path.name != "__init__.py"
    }
    trees = {name: ast.parse("\n".join(lines)) for name, lines in modules.items()}

    def text_without(name: str, spans: list[tuple[int, int]]) -> str:
        exports = [
            (node.lineno, node.end_lineno)
            for node in trees[name].body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        ]
        drop = {i for start, end in exports + spans for i in range(start - 1, end)}
        return "\n".join(line for i, line in enumerate(modules[name]) if i not in drop)

    unused = []
    for module, tree in trees.items():
        for node in select(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            texts = [
                text_without(other, [(start, node.end_lineno)] if other == module else [])
                for other in modules
            ]
            pattern = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(pattern.search(text) for text in [*texts, tests]):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_module_level_definition_has_a_caller_or_a_test():
    assert _unused_definitions(_module_level) == []


def test_every_method_and_property_has_a_caller_or_a_test():
    assert _unused_definitions(_class_members) == []


def test_the_benchmark_tracer_wraps_and_restores_every_name_it_names(monkeypatch):
    # The benchmark's tracer (perfbench/tracing.py) replaces lopsim functions
    # and methods by name, so a renamed or deleted name breaks every traced
    # run; uninstall must put back every object it replaced.
    spec = importlib.util.spec_from_file_location(
        "_benchmark_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
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
