"""The package version has one value: ``pyproject.toml`` and
``repro.__version__`` must agree."""

import re
from pathlib import Path

import repro


def test_pyproject_version_matches_package():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match, "no version in pyproject.toml [project]"
    assert match.group(1) == repro.__version__
