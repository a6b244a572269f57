"""Packaging metadata: an installed copy carries every bundled data file,
every console script resolves to a callable, and every name a module
exports or the package imports exists."""

import ast
import importlib
import tomllib
from pathlib import Path, PurePosixPath

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
