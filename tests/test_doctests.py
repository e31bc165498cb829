import doctest
import importlib
import pkgutil

import pytest

import assoform

MODULES = ["assoform"] + [f"assoform.{m.name}" for m in pkgutil.iter_modules(assoform.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
