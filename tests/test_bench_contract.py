"""The benchmark's tracer (`bench/spans.py`) wraps library functions by module
attribute, so every name it lists must still exist where it looks for it."""
from pathlib import Path

from parkbases import verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    originals = {(module, attr): getattr(module, attr)
                 for module, attrs in spans.TARGETS.items() for attr in attrs}
    suites = {name: list(entries) for name, entries in verify.SUITES.items()}
    uninstall = spans.install(spans.Tracer())
    try:
        assert all(getattr(module, attr) is not fn for (module, attr), fn in originals.items())
    finally:
        uninstall()
    assert all(getattr(module, attr) is fn for (module, attr), fn in originals.items())
    assert {name: list(entries) for name, entries in verify.SUITES.items()} == suites
