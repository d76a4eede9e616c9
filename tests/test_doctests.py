import doctest
import importlib
import pkgutil

import pytest

import parkbases

MODULES = [importlib.import_module(f"parkbases.{info.name}") for info in pkgutil.iter_modules(parkbases.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
