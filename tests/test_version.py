"""The package version has one literal: ``repro.__version__``.

``pyproject.toml`` declares the version dynamic and reads it from that
attribute, so the two can never disagree.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_version_from_the_package():
    # a regex, not tomllib: the package supports Python 3.10
    text = PYPROJECT.read_text()
    assert re.search(r'(?m)^dynamic\s*=\s*\[\s*"version"\s*\]', text)
    assert re.search(
        r'(?m)^version\s*=\s*\{\s*attr\s*=\s*"repro\.__version__"\s*\}',
        text)
    assert not re.search(r'(?m)^version\s*=\s*"', text), \
        "pyproject.toml must not carry a second version literal"


def test_package_version_is_a_release_string():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
