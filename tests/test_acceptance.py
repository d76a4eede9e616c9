"""
Acceptance suite: one test per criterion, each printing a PASS line with its
scope.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every bound and tolerance is exact; there is no calibration anywhere.  The
exhaustive identities are the `parkbases.verify` checks, run here at the sizes
each PASS line names; a failing check raises `CheckFailure` with its
counterexample.
"""
import time

from parkbases import verify
from parkbases.bijection import reconstruct
from parkbases.braid import orbit_graph

from helpers import ALPHA1_RANK3, ALPHA2_RANK3, all_bases, basis_of_pairs


def report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS — {text}")


def criterion(number: int):
    """Print a FAIL line before letting the assertion propagate."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as exc:
                print(f"criterion {number:2d}: FAIL — {type(exc).__name__}: {exc}")
                raise

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1)
def test_criterion_01_count_identity():
    started = time.time()
    for n in range(1, 8):
        verify.check_counts(n)
    for n in range(1, 6):
        verify.check_validate_accepts(n)
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(1, f"(n+1)^(n-1) distinct bases and parking functions n<=7, every basis validated n<=5, {elapsed:.1f}s")


@criterion(2)
def test_criterion_02_golden_lists():
    a2 = {
        basis_of_pairs(p, 2)
        for p in ([(1, 1), (2, 2)], [(2, 2), (1, 2)], [(1, 2), (1, 1)])
    }
    assert set(all_bases(2)) == a2
    raw = [
        [(1, 1), (2, 2), (3, 3)], [(1, 1), (3, 3), (2, 3)], [(1, 1), (2, 3), (2, 2)],
        [(2, 2), (1, 2), (3, 3)], [(2, 2), (3, 3), (1, 3)], [(2, 2), (1, 3), (1, 2)],
        [(3, 3), (1, 1), (2, 3)], [(3, 3), (2, 3), (1, 3)], [(3, 3), (1, 3), (1, 1)],
        [(1, 2), (1, 1), (3, 3)], [(1, 2), (3, 3), (1, 1)],
        [(2, 3), (1, 3), (2, 2)], [(2, 3), (2, 2), (1, 3)],
        [(1, 3), (1, 1), (2, 2)], [(1, 3), (2, 2), (1, 2)], [(1, 3), (1, 2), (1, 1)],
    ]
    assert set(all_bases(3)) == {basis_of_pairs(pairs, 3) for pairs in raw}
    report(2, "A_2 (3 bases) and A_3 (16 bases) enumerations equal the printed lists")


@criterion(3)
def test_criterion_03_bijection_round_trips():
    for n in range(1, 8):
        verify.check_round_trips(n)
    report(3, "initial-vector round trips: parking functions and bases n<=7, zero failures")


@criterion(4)
def test_criterion_04_geometric_equivalence():
    for n in range(1, 8):
        verify.check_geometric(n)
    report(4, "ray-shooting reconstruction equals the algebraic one, PF_n n<=7")


@criterion(5)
def test_criterion_05_worked_examples():
    assert reconstruct((2, 2, 1)) == basis_of_pairs([(2, 3), (2, 2), (1, 3)], 3)
    assert reconstruct((1, 1, 2, 2, 2, 4, 6)) == basis_of_pairs(
        [(1, 7), (1, 1), (2, 5), (2, 3), (2, 2), (4, 4), (6, 6)], 7
    )
    n12 = (3, 11, 7, 5, 9, 8, 5, 2, 1, 10, 2, 12)
    expected = basis_of_pairs(
        [(3, 3), (11, 11), (7, 7), (5, 7), (9, 9), (8, 9),
         (5, 5), (2, 9), (1, 9), (10, 11), (2, 3), (12, 12)],
        12,
    )
    assert reconstruct(n12) == expected
    report(5, "the three worked reconstructions reproduce exactly")


@criterion(6)
def test_criterion_06_braid_axioms():
    for n in range(2, 6):
        verify.check_braid_axioms(n)
    report(6, "inverses, far commutation, braid relation, exact orbit lengths: all bases n<=5")


@criterion(7)
def test_criterion_07_figure_reproduction():
    graph = orbit_graph(3)
    assert len(graph.nodes) == 16
    assert {f: graph.alpha[(f, 1)] for f in graph.nodes} == ALPHA1_RANK3
    assert {f: graph.alpha[(f, 2)] for f in graph.nodes} == ALPHA2_RANK3
    two = orbit_graph(2)
    cycle = {f: two.alpha[(f, 1)] for f in two.nodes}
    assert cycle == {(1, 1): (1, 2), (1, 2): (2, 1), (2, 1): (1, 1)}
    report(7, "rank-3 action graph matches the reference picture; rank-2 is the 3-cycle")


@criterion(8)
def test_criterion_08_diagram_level_mutation():
    for n in range(2, 7):
        verify.check_diagram_mutation(n)
        verify.check_flips(n)
    report(8, "diagram surgery equals conjugated mutation and flips cover the moves, n<=6")


@criterion(9)
def test_criterion_09_quiver_consistency():
    for n in range(1, 13):
        verify.check_hom_oracle(n)
    for n in range(1, 11):
        verify.check_ext_formula(n)
    for n in range(1, 5):
        verify.check_exceptional_matches_validate(n)
    report(9, "hom oracle and euler identity n<=12, ext rule n<=10, sequence<=>basis n<=4")


@criterion(10)
def test_criterion_10_noncrossing():
    for n in range(1, 6):
        verify.check_chain_counts(n)
        verify.check_chain_identity(n)
    report(10, "chain identity, chain counts and mutual inverses hold for n<=5")


@criterion(11)
def test_criterion_11_catalan_counts():
    for n in range(1, 7):
        verify.check_nondecreasing_families(n)
    report(11, "non-decreasing functions, arc families and collections: Catalan, same sets, n<=6")
