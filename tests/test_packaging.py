"""Packaging metadata: an installed copy carries every bundled data file
and some module reads each one, every console script resolves to a
callable, every name a module exports or the package imports exists, no
module-level definition, method or property is dead, every public name
has a caller in the package or the benchmark (or an allowlist entry that
names its coming reader), so does every defaulted parameter and dataclass
field (a call that sets it) and every field of a public dataclass (code
that reads it), no module draws from an unseeded generator, every
``np.allclose``/``np.isclose`` sets its ``rtol``, no parameter takes a
plain ``Mapping[FockState, ...]`` of outcomes, and importing the
package (or running ``lopsim fringe`` or ``lopsim vqe``) loads no scipy
module and runs only the lopsim modules it reads, so a fresh process
starts without paying for the rest."""

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
from _oracles import depolarizing_executor

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
    # The package reads each exported name from the module its table names.
    homes = [(module, n) for module, names in package._EXPORTS.items() for n in names]
    assert homes
    names = [n for _, n in homes]
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(package, n)] == []
    for module, n in homes:
        assert getattr(package, n) is getattr(importlib.import_module(f"lopsim.{module}"), n), n


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
    # the package's __init__ export table, or anywhere in ``readers`` (by
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


#: Defaulted parameters and dataclass fields that no code in the package
#: or the benchmark sets, each with the entry point or ROADMAP item that
#: is to set it.  The scan must equal this table, as for the public names.
TEST_ONLY_OPTIONS = {
    "benchmark.py:build_plan.functional": "item 4's tabulated / exact F_avg table (ROADMAP item 4)",
    "benchmark.py:estimate_favg.seed": "`std_error` in `lopsim paper` (ROADMAP item 8)",
    "benchmark.py:estimate_favg.shots_per_config": "`std_error` in `lopsim paper` (ROADMAP item 8)",
    "cli.py:main.argv": "none: the `lopsim` console script reads `sys.argv`",
    "hardware.py:calibrate.initial": "restarts of the calibration fit (ROADMAP item 2)",
    "sources.py:SourceModel.efficiency": "the eta column of the heralded GHZ (ROADMAP item 12)",
    "variational.py:PhotonicVqeBackend.source": "a source beside `chip=` (ROADMAP item 4)",
    "variational.py:VqeConfig.mitigation": "raw against mitigated H2 curve (ROADMAP item 8)",
    "variational.py:measure_energy.shots": "none: must be None; the benchmark passes "
    "`shots=None`, so the keyword goes at its next change (ROADMAP item 9)",
}


def _callee(node) -> str | None:
    """The name a call or a decorator uses: ``f`` of ``f(...)`` and of ``mod.f(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _defaulted_options(source: Path) -> dict[str, tuple[str, int | None, str, bool, str]]:
    """``file:owner.name`` -> (callable name, positional index or None, name,
    whether a dataclass field, ``ast.dump`` of the default) of every option.

    An option is a defaulted parameter of a function or method (nested and
    private ones included) or a defaulted dataclass field.  The callable
    name is the one a call uses: the function or method name, or the
    class name for ``__init__`` and for dataclass fields.  The positional
    index counts the arguments a call passes, so ``self`` and ``cls`` are
    not counted; a keyword-only parameter has none.  Functions with a
    ``TEST_ONLY_PUBLIC_NAMES`` entry are skipped: their whole surface waits
    for its reader.
    """
    found = {}

    def visit(node, path: Path, scope: list[str], cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if any(_callee(d) == "dataclass" for d in child.decorator_list):
                    fields = [
                        item for item in child.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)
                    ]
                    for index, item in enumerate(fields):
                        if item.value is not None:
                            key = ".".join([*scope, child.name, item.target.id])
                            found[f"{path.name}:{key}"] = (
                                child.name, index, item.target.id, True, ast.dump(item.value)
                            )
                visit(child, path, [*scope, child.name], child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if f"{path.name}:{child.name}" in TEST_ONLY_PUBLIC_NAMES:
                    continue
                init = cls is not None and child.name == "__init__"
                called, owner = (cls.name, scope) if init else (child.name, [*scope, child.name])
                bound = cls is not None and "staticmethod" not in map(_callee, child.decorator_list)
                args = child.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                indexed = [
                    (arg, i - bound, args.defaults[i - first])
                    for i, arg in enumerate(positional) if i >= first
                ]
                keyword_only = zip(args.kwonlyargs, args.kw_defaults)
                indexed += [(arg, None, default) for arg, default in keyword_only if default]
                for arg, index, default in indexed:
                    key = ".".join([*owner, arg.arg])
                    found[f"{path.name}:{key}"] = (called, index, arg.arg, False, ast.dump(default))
                visit(child, path, [*scope, child.name], None)
            else:
                visit(child, path, scope, cls)

    for path in sorted(source.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [], None)
    return found


def _option_settings(paths) -> tuple[dict[tuple[str, str], set[str]], dict[str, int]]:
    """What the calls in ``paths`` set: (callable name, keyword) -> the
    ``ast.dump`` of each value passed, and the most positional arguments
    per callable name.

    ``**NAME`` passes the keys of ``NAME`` when it is a module-level dict
    display or ``dict(...)`` call of the same file; a starred ``*args``
    reaches no further than the positional arguments before it.
    """
    keywords, reach = {}, {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dicts = {}
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(node, ast.Assign) and isinstance(value, ast.Dict):
                dicts[_name(node)] = [
                    (k.value, v) for k, v in zip(value.keys, value.values)
                    if isinstance(k, ast.Constant)
                ]
            elif isinstance(node, ast.Assign) and isinstance(value, ast.Call):
                if _callee(value) == "dict":
                    dicts[_name(node)] = [(k.arg, k.value) for k in value.keywords if k.arg]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            given = [(k.arg, k.value) for k in node.keywords if k.arg is not None]
            for k in node.keywords:
                if k.arg is None:
                    given += dicts.get(getattr(k.value, "id", None), [])
            for key, value in given:
                keywords.setdefault((name, key), set()).add(ast.dump(value))
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            reach[name] = max(reach.get(name, 0), starred[0] if starred else len(node.args))
    return keywords, reach


def _options_without_a_setter(
    source: Path = ROOT / "src" / "lopsim", bench: Path = ROOT / "perfbench"
) -> list[str]:
    """Options of the package at ``source`` that no call in it or in ``bench/*.py`` sets.

    A call sets an option when it passes it by keyword, passes enough
    positional arguments to reach it, expands ``**NAME`` of a module-level
    dict holding it as a key, or (a dataclass field) calls
    ``replace(obj, name=...)``; a keyword whose value is the default's
    own expression (``shots=None`` for ``shots=None``) sets nothing.
    Calls are matched by callable name alone, so a name that several
    callables share counts as set for all of them
    (``unitary`` of ``MeshLayout``, ``PhotonicCircuit`` and ``MeshPhases``)
    and ``replace`` sets a field of that name in every dataclass; an
    option hidden that way needs a check by hand.
    """
    keywords, reach = _option_settings(
        sorted(source.glob("*.py")) + sorted(bench.glob("*.py"))
    )
    return sorted(
        key
        for key, (called, index, name, field, default) in _defaulted_options(source).items()
        if not keywords.get((called, name), set()) - {default}
        and not (index is not None and reach.get(called, 0) > index)
        and not (field and keywords.get(("replace", name), set()) - {default})
    )


def test_every_option_has_a_setter_outside_the_tests():
    # Counts setters in src/lopsim and the code of perfbench/*.py only: an
    # option that only tests set is a code path with no user.
    assert _options_without_a_setter() == sorted(TEST_ONLY_OPTIONS)


#: A package for the option scan: each option is set in one of the four
#: ways, except ``scale.offset`` and ``Config.depth``, which ``replace``
#: passes only its default.
_OPTIONED_PACKAGE = {
    "alpha.py": '''from dataclasses import dataclass, replace

GAINS = {"gain": 2.0}


@dataclass
class Config:
    size: int = 1
    depth: int = 2
    spare: int = 3


def scale(x, factor=1.0, offset=0.0, *, clip=None):
    return x * factor + offset if clip is None else min(x, clip)


def amplify(x, gain=1.0):
    return gain * x


def run():
    """Calls scale(1.0, offset=2.0) in a docstring only."""
    replace(Config(size=4), spare=5, depth=2)
    return scale(1.0, 2.0) + scale(1.0, clip=3.0) + amplify(1.0, **GAINS)
''',
}


def test_the_option_scan_counts_each_setting_form(tmp_path):
    source = _write_package(tmp_path / "pkg", _OPTIONED_PACKAGE)
    empty = _write_package(tmp_path / "bench", {})
    assert _options_without_a_setter(source, empty) == [
        "alpha.py:Config.depth", "alpha.py:scale.offset"
    ]
    bench = _write_package(
        tmp_path / "bench2",
        {"run.py": "from alpha import Config, scale\nConfig(depth=2)\nscale(0.0, offset=1.0)\n"},
    )
    assert _options_without_a_setter(source, bench) == ["alpha.py:Config.depth"]


def test_a_keyword_set_to_its_default_sets_nothing(tmp_path):
    # The benchmark passes ``shots=None`` to measure_energy, its default;
    # passing a count would set the option.
    paths = (ROOT / "perfbench").glob("*.py")
    bench = {path.name: path.read_text(encoding="utf-8") for path in paths}
    old = "variational.PhotonicVqeBackend(), shots=None)"
    assert bench["workloads.py"].count(old) == 1
    bench["workloads.py"] = bench["workloads.py"].replace(old, old.replace("None", "VQE_SHOTS"))
    found = _options_without_a_setter(bench=_write_package(tmp_path / "perfbench", bench))
    assert found == sorted(set(TEST_ONLY_OPTIONS) - {"variational.py:measure_energy.shots"})


def test_a_new_test_only_option_fails_the_option_guard(tmp_path):
    # A defaulted parameter that only a test would pass has no setter: the
    # guard reads the package and the benchmark, never the tests.
    source = ROOT / "src" / "lopsim"
    modules = {path.name: path.read_text(encoding="utf-8") for path in source.glob("*.py")}
    old = "def qnn_predict(model: ClassifierModel, features: np.ndarray)"
    assert modules["qnn.py"].count(old) == 1
    modules["qnn.py"] = modules["qnn.py"].replace(old, old[:-1] + ", batch: int = 1)")
    mutated = _write_package(tmp_path / "lopsim", modules)
    found = _options_without_a_setter(mutated)
    assert found == sorted([*TEST_ONLY_OPTIONS, "qnn.py:qnn_predict.batch"])


#: Fields of public dataclasses that no code in the package or the
#: benchmark reads, each with the ROADMAP item that is to read it or why
#: it stays.  The scan must equal this table, as for the public names.
TEST_ONLY_FIELDS = {
    "benchmark.py:FidelityEstimate.std_error": "`std_error` in `lopsim paper` "
    "(ROADMAP items 8, 19)",
    "hardware.py:TvdStatistics.tvds": "none: `mean` is their mean, and the tests compare the "
    "batched draw with the per-candidate oracle one configuration at a time",
    "sources.py:FringeFit.amplitude": "`lopsim fringe` scan over alpha (ROADMAP item 8)",
    "sources.py:FringeFit.frequency": "`lopsim fringe` scan over alpha (ROADMAP item 8)",
    "sources.py:LabeledPhoton.label": "moves into tests/_oracles.py after item 1b "
    "(ROADMAP item 9)",
    "validation.py:CollisionFreeReference.classical_mass": "`lopsim sample` validation "
    "(ROADMAP item 7)",
    "validation.py:CollisionFreeReference.ideal_mass": "`lopsim sample` validation "
    "(ROADMAP item 7)",
    "validation.py:DistributionComparison.residuals": "`lopsim sample` validation "
    "(ROADMAP item 7)",
    "validation.py:DistributionComparison.tvd": "`lopsim sample` validation (ROADMAP item 7)",
    "variational.py:VqeResult.energies": "the convergence trace of `lopsim paper` "
    "(ROADMAP item 8); the VQE oracle trajectories compare it",
}


def _attribute_loads(tree: ast.AST, owners: dict[int, str]) -> set[tuple[str, str | None]]:
    """(name, owner) of each ``.name`` that ``tree`` loads; the owner is
    ``owners[id(node)]``, or None for a node it does not list."""
    return {
        (node.attr, owners.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _fields_without_a_reader(
    source: Path = ROOT / "src" / "lopsim", bench: Path = ROOT / "perfbench"
) -> list[str]:
    """``file:Class.field`` of each field of a public module-level dataclass
    in ``source`` that no code reads.

    A field counts as read when ``.name`` is loaded in ``source`` outside
    its class's own ``__post_init__`` (a ``self.name`` in any other method
    counts) or in the code of ``bench/*.py``; a docstring loads nothing.
    Reads are matched by name alone, so a field that shares its name with
    an attribute read elsewhere counts as read.  The fields passed that
    way were checked by hand: ``CompilationResult.phases`` (which is to
    program a calibrated chip, ROADMAP item 4) shares its name with
    ``MeshPhases``; ``InputBranch.photons`` is read by ``InputBranch.n``;
    and these were read by nothing until they were deleted:
    ``CompilationResult.layout``, ``.output_phases`` and
    ``.reflectivities`` (names of ``MeshPhases`` and ``HardwareModel``),
    ``FidelityEstimate.shots`` and ``VqeResult.mitigation`` (names of
    ``VqeConfig``) and ``TvdStatistics.std`` (``ndarray.std``).
    """
    fields, reads = {}, set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            owner = f"{path.name}:{cls.name}"
            if not cls.name.startswith("_") and any(
                _callee(d) == "dataclass" for d in cls.decorator_list
            ):
                for item in cls.body:
                    if (
                        isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)
                    ):
                        fields[f"{owner}.{item.target.id}"] = (owner, item.target.id)
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                    owners.update({id(node): owner for node in ast.walk(item)})
        reads |= _attribute_loads(tree, owners)
    for path in sorted(bench.glob("*.py")):
        reads |= _attribute_loads(ast.parse(path.read_text(encoding="utf-8")), {})
    return sorted(
        key
        for key, (owner, name) in fields.items()
        if not any(attr == name and reader != owner for attr, reader in reads)
    )


def test_every_result_field_has_a_reader_outside_the_tests():
    # Counts readers in src/lopsim and the code of perfbench/*.py only: a
    # field that only tests read is a result that no user gets to see.
    assert _fields_without_a_reader() == sorted(TEST_ONLY_FIELDS)


#: A package for the field scan: ``Record.spare`` is named only in a
#: docstring and ``Record.checked`` read only in its own ``__post_init__``.
_FIELDED_PACKAGE = {
    "alpha.py": '''"""Names `Record.spare`."""

from dataclasses import dataclass


@dataclass
class Record:
    value: float
    scale: float
    spare: int = 0
    checked: int = 0

    def __post_init__(self):
        if self.checked < 0:
            raise ValueError("checked must be nonnegative")

    def scaled(self):
        return self.value * self.scale


@dataclass
class _Private:
    hidden: int


def run(record):
    """Reads record.spare in a docstring only."""
    return record.scaled()
''',
}


def test_the_field_scan_skips_docstrings_and_the_own_post_init(tmp_path):
    source = _write_package(tmp_path / "pkg", _FIELDED_PACKAGE)
    empty = _write_package(tmp_path / "bench", {})
    assert _fields_without_a_reader(source, empty) == [
        "alpha.py:Record.checked", "alpha.py:Record.spare"
    ]
    bench = _write_package(
        tmp_path / "bench2",
        {"run.py": '"""Reads record.checked."""\n\n\ndef op(record):\n    return record.spare\n'},
    )
    assert _fields_without_a_reader(source, bench) == ["alpha.py:Record.checked"]


def test_a_new_unread_field_fails_the_field_guard(tmp_path):
    # A field that the package fills but never reads back has no reader:
    # the guard reads the package and the benchmark, never the tests.
    source = ROOT / "src" / "lopsim"
    modules = {path.name: path.read_text(encoding="utf-8") for path in source.glob("*.py")}
    old = "    f_avg: float\n    std_error: float\n"
    assert modules["benchmark.py"].count(old) == 1
    modules["benchmark.py"] = modules["benchmark.py"].replace(
        old, old + "    n_configurations: int = 0\n"
    )
    mutated = _write_package(tmp_path / "lopsim", modules)
    found = _fields_without_a_reader(mutated)
    assert found == sorted([*TEST_ONLY_FIELDS, "benchmark.py:FidelityEstimate.n_configurations"])


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
    one_photon = fock.strong_simulate(u, (0,))
    calls = {
        "fock.strong_simulate": ((u, (0, 1)), {}),
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


def _unused_imports(*sources: Path) -> list[str]:
    """``file:name`` of each name a module imports (``__future__`` aside) and never reads.

    Scans the ``*.py`` files of ``sources``, by default ``src/lopsim``
    and ``tests``.  A read is an ``ast.Name`` anywhere in the module, so
    a docstring or comment mention does not count.  ``__init__.py`` is
    left out: its imports are the package's exports.
    """
    found = []
    defaults = (ROOT / "src" / "lopsim", ROOT / "tests")
    for path in sorted(path for source in sources or defaults for path in source.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{name}")
    return found


def test_every_imported_name_is_read():
    assert _unused_imports() == []


def test_the_import_scan_counts_no_docstring_mention_as_a_read(tmp_path):
    source = _write_package(
        tmp_path / "pkg",
        {
            "__init__.py": "from .alpha import root\n",
            "alpha.py": '''"""Names `isqrt` and `os.path` only here."""

from __future__ import annotations

import os.path
from math import isqrt, sqrt as root

import numpy as np


def norm(x) -> np.ndarray:
    return root(x)
''',
        },
    )
    assert _unused_imports(source) == ["alpha.py:os", "alpha.py:isqrt"]


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


#: The sweep kernels and the two fit objectives that reuse a sweep
#: workspace, by file: every product they, or a helper they call in the
#: same file, write into a buffer must stay the out-of-place ufunc call.
SWEEP_KERNELS = {
    "mesh.py": ("_forward_sweep", "_adjoint_sweep", "_gauge_objective_and_grad"),
    "hardware.py": ("_objective",),
}


def _root_name(node) -> str | None:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _with_helpers(tree: ast.Module, roots) -> set[str]:
    """``roots`` and every function of ``tree`` they call, directly or through
    one another, by name or as a method (``layout.phases_from_actuated``,
    not ``np.add``)."""
    defined = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    found, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in found or name not in defined:
            continue
        found.add(name)
        for call in ast.walk(defined[name]):
            if isinstance(call, ast.Call) and _root_name(call.func) != "np":
                todo.append(getattr(call.func, "id", getattr(call.func, "attr", None)))
    return found


def _in_place_products(path: Path, roots) -> list[str]:
    """``file:line:function`` of each augmented ``*=`` or ``/=``, and of each
    ``np.multiply`` whose ``out`` names one of its operands, in ``roots`` and
    the helpers they call in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = _with_helpers(tree, roots)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.FunctionDef) and node.name in functions):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.AugAssign) and isinstance(inner.op, (ast.Mult, ast.Div)):
                found.append(f"{path.name}:{inner.lineno}:{node.name}")
            elif isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "multiply":
                outs = inner.args[2:] + [k.value for k in inner.keywords if k.arg == "out"]
                operands = {_root_name(arg) for arg in inner.args[:2]} - {None}
                if any(_root_name(out) in operands for out in outs):
                    found.append(f"{path.name}:{inner.lineno}:{node.name}")
    return found


def test_no_sweep_kernel_multiplies_in_place():
    # numpy rounds an in-place complex product differently from the same
    # product written to a separate array, so a buffer reused that way
    # would move the calibrated fits and the pinned hashes.
    found, scanned = [], set()
    for name, roots in SWEEP_KERNELS.items():
        path = ROOT / "src" / "lopsim" / name
        found += _in_place_products(path, roots)
        scanned |= _with_helpers(ast.parse(path.read_text(encoding="utf-8")), roots)
    assert found == []
    assert {"_mix", "_unpack", "phases_from_actuated"} <= scanned


def test_the_in_place_scan_catches_each_form(tmp_path):
    module = tmp_path / "kernel.py"
    module.write_text(
        """import numpy as np


def kernel(a, b, c):
    a *= b
    c[0] /= 2.0
    np.multiply(a, b, out=a)
    np.multiply(b, c[1], c[0])
    np.multiply(a, b, out=c)
    np.add(a, b, out=a)
    a += b
    helper(a, b)


def helper(a, b):
    np.multiply(a, b, out=a)


def other(a, b):
    a *= b
""",
        encoding="utf-8",
    )
    assert _in_place_products(module, ("kernel",)) == [
        f"kernel.py:{line}:kernel" for line in (5, 6, 7, 8)
    ] + ["kernel.py:16:helper"]


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
    "fock.sample": lambda: fock.sample(fock.ModeUnitary(np.eye(2)), (0,), 5, None),
    "ModeUnitary.haar_random": lambda: fock.ModeUnitary.haar_random(3, None),
    "stratified_split": lambda: qnn.stratified_split(np.repeat([0, 1], 4), 2, None),
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
        benchmark.build_plan(_T_GATE, 1), depolarizing_executor(_T_GATE, 0.0), seed=None
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


def _fresh_process(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, ``src`` on its path; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True, timeout=300
    )


@pytest.mark.parametrize("command", ["fringe", "vqe"])
def test_a_fresh_cli_process_loads_no_scipy(command):
    script = (
        "import json, sys\n"
        "import lopsim, lopsim.cli\n"
        f"lopsim.cli.main([{command!r}, '--json'])\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('scipy'))))\n"
    )
    lines = _fresh_process("-c", script).stdout.strip().splitlines()
    assert json.loads(lines[0])["command"] == command
    assert json.loads(lines[-1]) == []


#: Prints the lopsim submodules whose body has run.  A lazy module is an
#: ``importlib.util._LazyModule`` until its first attribute read, and
#: ``type`` reads no attribute, so printing loads nothing.
_PRINT_LOADED = (
    "print(json.dumps(sorted(name for name, module in sys.modules.items()"
    " if name.startswith('lopsim.') and type(module) is types.ModuleType)))\n"
)


def _benchmark_import_line() -> str:
    """The line by which perfbench/workloads.py imports lopsim."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    [line] = [
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "lopsim"
    ]
    return line


@pytest.mark.parametrize(
    ("command", "runs"),
    [
        ("fringe", ["cli", "fock", "mesh", "sources"]),
        ("vqe", ["cli", "fock", "mesh", "qubits", "sources", "variational"]),
    ],
    ids=["fringe", "vqe"],
)
def test_a_fresh_cli_process_runs_only_the_modules_its_command_reads(command, runs):
    # Neither command runs hardware or qnn, whose names cli also reads.
    script = (
        "import json, sys, types\n"
        "import lopsim.cli\n"
        f"lopsim.cli.main([{command!r}, '--json'])\n" + _PRINT_LOADED
    )
    loaded = json.loads(_fresh_process("-c", script).stdout.strip().splitlines()[-1])
    assert loaded == [f"lopsim.{name}" for name in runs]


def test_running_the_cli_module_warns_nothing():
    # runpy warns when the package's import already put lopsim.cli in
    # sys.modules, as registering it lazily in lopsim/__init__.py would.
    done = _fresh_process("-W", "error", "-m", "lopsim.cli", "fringe", "--json")
    [line] = done.stdout.strip().splitlines()
    assert json.loads(line)["command"] == "fringe"
    assert done.stderr == ""


def test_the_benchmark_import_runs_no_module_before_its_first_read():
    script = (
        "import json, sys, types\n"
        f"{_benchmark_import_line()}\n"
        + _PRINT_LOADED
        + "print(json.dumps('numpy' in sys.modules))\n"
        "sources.measure_genuine_indistinguishability(4, sources.SourceModel(), 0.3)\n"
        + _PRINT_LOADED
    )
    lines = _fresh_process("-c", script).stdout.strip().splitlines()
    assert [json.loads(line) for line in lines] == [
        [],
        False,
        ["lopsim.fock", "lopsim.mesh", "lopsim.sources"],
    ]


def test_the_tracer_leaves_no_wrapper_in_a_module_it_loaded():
    # Tracer.install loads each lazy module by reading its vars, in
    # sys.modules order.  A module that loads after a wrapper is set on
    # its source binds the wrapper by name, and uninstall, which restores
    # only what it replaced, would leave that wrapper in place.
    script = (
        "import json, sys\n"
        f"{_benchmark_import_line()}\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracing\n"
        "def wrappers():\n"
        "    return sorted(\n"
        "        f'{name}.{key}'\n"
        "        for name, module in list(sys.modules.items())\n"
        "        if name.split('.')[0] == 'lopsim'\n"
        "        for key, value in vars(module).items()\n"
        "        if getattr(getattr(value, '__code__', None), 'co_filename', None)\n"
        "        == tracing.__file__\n"
        "    )\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "print(json.dumps(wrappers()))\n"
        "tracer.uninstall()\n"
        "print(json.dumps(wrappers()))\n"
    )
    lines = _fresh_process("-c", script).stdout.splitlines()
    installed, left = (json.loads(line) for line in lines)
    assert {"lopsim.fock.strong_simulate", "lopsim.sources.noisy_simulate"} <= set(installed)
    assert left == []
