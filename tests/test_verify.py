import threading

import pytest

from parkbases import braid, dbasis, noncrossing, quiver, roots, verify


# The check names in `SUITES` order, as `verify N all` reports them and as the
# verify-exhaustive benchmark workload lists them.
CHECK_NAMES = [
    "seifert_bilinear", "seifert_cases_exclusive", "cartan_symmetric", "counts",
    "round_trips", "geometric_equals_algebraic", "permutation_shortcut", "gap_single_point",
    "validate_accepts_enumeration", "braid_axioms", "diagram_mutation", "young_flips",
    "hom_oracle", "ext_formula", "exceptional_equals_validate", "hom_ext_table_reading",
    "nondecreasing_families", "chain_counts", "chain_identity",
]


def test_suites_list_the_checks_in_report_order():
    assert [name for entries in verify.SUITES.values() for name, _ in entries] == CHECK_NAMES
    report = verify.run_suite(2, "all")
    assert report["ok"] and [check["name"] for check in report["checks"]] == CHECK_NAMES


def test_braid_axioms_pin_the_orbit_length(monkeypatch):
    # alpha_k^6 is the identity on 2- and 3-orbits alike, so only the shorter powers expose it.
    monkeypatch.setattr(braid, "generator_order", lambda basis, k: 6)
    entry = next(c for c in verify.run_suite(3, "braid")["checks"] if c["name"] == "braid_axioms")
    assert entry["ok"] is False and entry["counterexample"]["order"] == 6


def test_nested_run_keeps_the_outer_fault(monkeypatch):
    def nested(n):
        inner = verify.run_suite(2, "noncrossing")
        assert inner["ok"] and not inner["fault_injected"]

    checks = [("nested_noncrossing", nested), *verify.SUITES["bijection"]]
    monkeypatch.setitem(verify.SUITES, "bijection", checks)
    report = verify.run_suite(3, "bijection", inject_fault=True)
    assert report["checks"][0] == {"name": "nested_noncrossing", "ok": True}
    assert report["ok"] is False
    failing = [check["name"] for check in report["checks"] if not check["ok"]]
    assert failing == ["seifert_bilinear"]
    assert verify.run_suite(3, "bijection")["ok"] is True  # the flag is clear again


@pytest.mark.parametrize("n", range(1, 4))
@pytest.mark.parametrize("suite", ["all", *verify.SUITES])
def test_injected_fault_fails_every_suite_it_reaches(n, suite):
    if suite in ("braid", "noncrossing"):  # no check of theirs reads a Seifert value through _seifert
        with pytest.raises(ValueError, match=f"^the injected fault reaches only the suites .*'{suite}'$"):
            verify.run_suite(n, suite, inject_fault=True)
    else:
        assert verify.run_suite(n, suite, inject_fault=True)["ok"] is False


def test_fault_flag_does_not_leak_across_threads(monkeypatch):
    # Both runs have set their flag before either reaches its first real check.
    barrier = threading.Barrier(2, timeout=30)
    checks = [("meet", lambda n: barrier.wait()), *verify.SUITES["bijection"]]
    monkeypatch.setitem(verify.SUITES, "bijection", checks)
    reports = {}

    def run(fault):
        reports[fault] = verify.run_suite(3, "bijection", inject_fault=fault)

    threads = [threading.Thread(target=run, args=(fault,)) for fault in (True, False)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert reports[True]["ok"] is False and reports[False]["ok"] is True


def test_chain_counts_reads_each_label_twice(monkeypatch):
    # Labels that read min B instead of the label rule, injected after enumeration.
    def min_b(chain):
        parts = chain.partitions
        return tuple(noncrossing.merge_of(lower, upper)[0][0] for lower, upper in zip(parts, parts[1:]))

    monkeypatch.setattr(noncrossing, "stanley_labels", min_b)
    report = verify.run_suite(3, "noncrossing")
    entry = next(c for c in report["checks"] if c["name"] == "chain_counts")
    assert entry["ok"] is False and "step" in entry["counterexample"]


def test_chain_counts_counts_the_joins(monkeypatch):
    # Refusing the join of 0 and 1 from the singletons loses the 3 chains above it.
    partition = noncrossing.partition

    def refuse_one(blocks):
        joined = partition(blocks)
        if joined.blocks == ((0, 1), (2,), (3,)):
            raise ValueError("refused")
        return joined

    monkeypatch.setattr(noncrossing, "partition", refuse_one)
    report = verify.run_suite(3, "noncrossing")
    entry = next(c for c in report["checks"] if c["name"] == "chain_counts")
    assert entry["ok"] is False
    assert entry["counterexample"] == {"count": 16, "distinct": 16, "joins": 13, "expected": 16}


def test_chain_identity_reads_the_enumeration_order(monkeypatch):
    # The same chains in reverse order still pass chain_counts; only chain_identity sees the order.
    maximal_chains = noncrossing.maximal_chains
    monkeypatch.setattr(noncrossing, "maximal_chains", lambda n: reversed(list(maximal_chains(n))))
    checks = {c["name"]: c for c in verify.run_suite(3, "noncrossing")["checks"]}
    assert checks["chain_counts"]["ok"] is True
    entry = checks["chain_identity"]
    assert entry["ok"] is False
    assert entry["counterexample"] == {
        "basis": [(1, 1), (2, 2), (3, 3)],
        "chain": [((0,), (1,), (2,), (3,)), ((0,), (1,), (2, 3)), ((0,), (1, 2, 3)), ((0, 1, 2, 3),)],
    }


def test_exceptional_equals_validate_reads_the_arc_rules(monkeypatch):
    # validate_basis never reads the arc rules, so only this check sees them break.
    monkeypatch.setattr(dbasis, "_check_arcs", lambda arcs: None)
    report = verify.run_suite(3, "quiver")
    entry = next(c for c in report["checks"] if c["name"] == "exceptional_equals_validate")
    assert entry["ok"] is False and "arc_rules" in entry["counterexample"]


def test_seifert_cases_exclusive_reads_hom_and_ext(monkeypatch):
    monkeypatch.setattr(quiver, "ext_dim", lambda v, w: 1)
    report = verify.run_suite(2, "bijection")
    entry = next(c for c in report["checks"] if c["name"] == "seifert_cases_exclusive")
    assert entry["ok"] is False and entry["counterexample"] == {"a": (1, 1), "b": (1, 1)}


def test_a_check_that_raises_is_reported_with_its_error(monkeypatch):
    def broken(n):
        raise KeyError(n)

    monkeypatch.setitem(verify.SUITES, "noncrossing", [("broken", broken)])
    report = verify.run_suite(2, "noncrossing")
    assert report["ok"] is False
    assert report["checks"] == [{"name": "broken", "ok": False, "error": "KeyError: 2"}]


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError, match="^unknown suite 'knots'$"):
        verify.run_suite(2, "knots")


def test_cartan_check_reads_the_cartan_matrix(monkeypatch):
    # cartan is a symmetrised Seifert form, so only an independent expansion exposes a wrong one.
    monkeypatch.setattr(roots, "cartan", lambda a, b: 2 if a == b else 0)
    report = verify.run_suite(3, "bijection")
    entry = next(c for c in report["checks"] if c["name"] == "cartan_symmetric")
    assert entry["ok"] is False and entry["counterexample"] == {"a": (1, 1), "b": (1, 2)}


def test_hom_oracle_checks_ext_and_euler_independently(monkeypatch):
    # A wrong Seifert form everywhere keeps Ext = Hom - Euler >= 0 consistent, so
    # only the cokernel of the intertwiner map exposes it.
    monkeypatch.setattr(roots, "seifert", lambda a, b: 0)
    monkeypatch.setattr(quiver, "seifert", lambda a, b: 0)
    entry = next(c for c in verify.run_suite(2, "quiver")["checks"] if c["name"] == "hom_oracle")
    assert entry["ok"] is False and entry["counterexample"] == {"a": (1, 1), "b": (1, 1)}


def _hom_ext_entry(n):
    report = verify.run_suite(n, "quiver")
    return next(c for c in report["checks"] if c["name"] == "hom_ext_table_reading")


def test_hom_ext_table_reading_checks_the_diagram(monkeypatch):
    # The table does not read the diagram, so only this check sees the reading break.
    reading = quiver.diagram_hom_ext

    def no_ext(f):
        hom, ext = reading(f)
        return hom, tuple(tuple(0 for _ in row) for row in ext)

    monkeypatch.setattr(quiver, "diagram_hom_ext", no_ext)
    entry = _hom_ext_entry(3)
    assert entry["ok"] is False and entry["counterexample"]["reading"] == "diagram"


def test_hom_ext_table_reading_checks_every_cell(monkeypatch):
    ext_dim = quiver.ext_dim
    monkeypatch.setattr(quiver, "ext_dim", lambda v, w: 1 - ext_dim(v, w))
    entry = _hom_ext_entry(2)
    assert entry["ok"] is False and entry["counterexample"]["reading"] == "cells"


@pytest.mark.parametrize("n", range(1, 7))
def test_label_readings_agree_on_every_merge(n):
    verify.check_chain_counts(n)  # every merge of all (n+1)^(n-1) maximal chains


@pytest.mark.parametrize("n", range(1, 6))
def test_arc_rules_select_the_bases(n):
    verify.check_exceptional_matches_validate(n)  # every root tuple of rank min(n, 4)
