"""Packaging metadata: an installed copy carries every bundled data file."""

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
