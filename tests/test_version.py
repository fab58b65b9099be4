"""The package version has one value: pyproject.toml's."""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def pyproject_version() -> str:
    # a regex, not tomllib: the package supports Python 3.10
    match = re.search(r'(?m)^version\s*=\s*"([^"]+)"', PYPROJECT.read_text())
    assert match, "no [project] version in pyproject.toml"
    return match.group(1)


def test_package_version_matches_pyproject():
    assert repro.__version__ == pyproject_version()
