"""The package's public surface is `parkbases.__all__`, and nothing stale sits in it."""
import parkbases


def test_all_is_sorted_resolves_and_is_what_star_import_binds():
    names = parkbases.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(parkbases, name)] == []
    namespace = {}
    exec("from parkbases import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == names
