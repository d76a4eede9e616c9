"""The benchmark's tracer (`bench/spans.py`) wraps library functions by module
attribute, so every name it lists must still exist where it looks for it."""
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from parkbases import bijection, braid, dbasis, noncrossing, quiver, roots, verify

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


# One check per verify source, and a library function its predicate reads.
READS = [
    ("cartan_symmetric", roots, "cartan"),
    ("gap_single_point", dbasis, "gap"),
    ("geometric_equals_algebraic", bijection, "reconstruct_geometric"),
    ("young_flips", braid, "flip_row"),
    ("permutation_shortcut", bijection, "reconstruct_permutation"),
    ("exceptional_equals_validate", quiver, "is_exceptional_sequence"),
    ("chain_identity", noncrossing, "partition_chain"),
]


@pytest.mark.parametrize("name, module, attr", READS, ids=[read[0] for read in READS])
def test_verify_checks_do_their_work_inside_the_call(monkeypatch, name, module, attr):
    # verify-exhaustive times each `fn(n)` of `verify.SUITES`; a generator or any other
    # lazy check would move its work out of that timed call.
    checks = dict(entry for entries in verify.SUITES.values() for entry in entries)
    assert not any(inspect.isgeneratorfunction(fn) for fn in checks.values())

    def refuse(*args):
        raise LookupError(attr)

    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(LookupError, match=f"^{attr}$"):
        checks[name](2)


@pytest.mark.parametrize("workload", ["verify-exhaustive", "sampled-large", "cli-mixed"])
def test_one_batch_of_each_workload_runs_clean(workload):
    # A child that dies outside its per-item guard (imports, pool set-up, the
    # answer checks) fails the whole benchmark run; one batch shows it.
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), workload, "1", "0", "0", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "READY"
    result = json.loads(lines[-1])
    assert result["attempted"] > 0 and result["failed"] == 0, result["failures"]
