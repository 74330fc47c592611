"""The examples in the module docstrings and in README.md run as doctests."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import demazure

MODULES = ["demazure"] + sorted(
    info.name for info in pkgutil.iter_modules(demazure.__path__, "demazure.")
)
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
