"""Run the examples in every module docstring of `cupone`, which pytest's
`testpaths = ["tests"]` does not collect."""

import doctest
import importlib
import pkgutil

import pytest

import cupone

MODULES = ["cupone", *sorted(info.name for info in pkgutil.iter_modules(cupone.__path__, "cupone."))]


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
