"""The package version is stated twice, in pyproject.toml and in
ppdfl.__version__ (which manifest.json records); they must agree."""

import pathlib

import pytest

import ppdfl

tomllib = pytest.importorskip("tomllib")  # Python 3.11+


def test_pyproject_version_matches_package_version():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == ppdfl.__version__
