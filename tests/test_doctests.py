import doctest
import importlib
import pathlib
import pkgutil

import pytest

import parkbases

MODULES = [importlib.import_module(f"parkbases.{info.name}") for info in pkgutil.iter_modules(parkbases.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_library_tour():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False)
    assert failures == 0 and tried > 0
