import itertools
import re

import pytest

from parkbases.dbasis import distinguished_bases
from parkbases.noncrossing import maximal_chains
from parkbases.parking import (
    ParkingDiagram,
    _heads,
    catalan,
    from_diagram,
    is_parking,
    nondecreasing_parking_functions,
    parking_functions,
    to_diagram,
)

from helpers import all_pfs, long_families


def test_is_parking_examples():
    assert is_parking((1, 1, 1, 1))
    assert not is_parking((2, 2))
    assert is_parking((3, 11, 7, 5, 9, 8, 5, 2, 1, 10, 2, 12))


def test_is_parking_out_of_range():
    with pytest.raises(ValueError):
        is_parking((0, 1))
    with pytest.raises(ValueError):
        is_parking((1, 3))


def test_parking_lex_order():
    pfs = list(parking_functions(3))
    assert pfs == sorted(pfs)
    assert pfs[0] == (1, 1, 1)
    assert pfs[-1] == (3, 2, 1)
    assert len(pfs) == 16
    assert list(parking_functions(2)) == [(1, 1), (1, 2), (2, 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_parking_functions_are_the_sorted_parking_filter(n):
    product = itertools.product(range(1, n + 1), repeat=n)
    assert list(parking_functions(n)) == sorted(filter(is_parking, product))


@pytest.mark.parametrize("n", range(1, 8))
def test_heads_expand_to_the_parking_functions(n):
    # `cli` writes its pf lines from the heads; top is the largest valid last entry.
    expanded = [head + (v,) for head, top in _heads(n) for v in range(1, top + 1)]
    assert expanded == list(parking_functions(n))
    assert not any(top < n and is_parking(head + (top + 1,)) for head, top in _heads(n))


@pytest.mark.parametrize("enumerate_,first", [(parking_functions, 1), (nondecreasing_parking_functions, 1)])
def test_enumerators_reach_any_size_without_recursion(enumerate_, first):
    assert next(enumerate_(3000)) == (first,) * 3000


@pytest.mark.parametrize(
    "enumerate_,n,least",
    [(parking_functions, 0, 1), (nondecreasing_parking_functions, 0, 1), (distinguished_bases, -1, 0),
     (maximal_chains, 0, 1)],
)
def test_enumerators_reject_a_size_below_their_range(enumerate_, n, least):
    with pytest.raises(ValueError, match=f"^n must be >= {least}, got {n}$"):
        next(enumerate_(n))


@pytest.mark.parametrize("n", range(1, 11))
def test_nondecreasing_count_is_catalan(n):
    fns = list(nondecreasing_parking_functions(n))
    assert len(fns) == catalan(n)
    assert all(f == tuple(sorted(f)) for f in fns)
    assert all(is_parking(f) for f in fns)


def test_nondecreasing_membership():
    assert (1, 1, 2, 2, 2, 4, 6) in set(nondecreasing_parking_functions(7))
    assert list(nondecreasing_parking_functions(1)) == [(1,)]


def test_sorting_closure():
    for f in all_pfs(5):
        assert is_parking(tuple(sorted(f)))


def test_diagram_of_figure_example():
    d = to_diagram((1, 5, 3, 1, 4))
    assert d.labels == (1, 4, 3, 5, 2)
    assert d.lengths == (0, 0, 2, 3, 4)
    assert d.corner(3) == (2, -3)
    assert from_diagram(d) == (1, 5, 3, 1, 4)


def test_diagram_identity_staircase():
    d = to_diagram((1, 2, 3, 4))
    assert d.labels == (1, 2, 3, 4)
    assert d.lengths == (0, 1, 2, 3)


def test_diagram_nondecreasing_labels_bottom_up():
    d = to_diagram((1, 1, 2, 2, 2, 4, 6))
    assert d.labels == (1, 2, 3, 4, 5, 6, 7)


def test_to_diagram_skips_the_diagram_checks(monkeypatch):
    # Every check of ParkingDiagram.__post_init__ follows from f being parking.
    def refuse(self):
        raise AssertionError("to_diagram re-checks its diagram")

    monkeypatch.setattr(ParkingDiagram, "__post_init__", refuse)
    inputs = [f for n in range(1, 7) for f in all_pfs(n)] + list(long_families(3200))
    diagrams = [to_diagram(f) for f in inputs]
    monkeypatch.undo()
    for f, d in zip(inputs, diagrams):
        assert ParkingDiagram(d.labels, d.lengths) == d and from_diagram(d) == f


def test_diagram_validation():
    for labels, lengths, message in [
        ((1, 2), (1, 1), "row 0 has length 1 outside the staircase"),  # bottom row too long
        ((2, 1), (0, 0), "labels 2, 1 break the column order"),
        ((1, 1), (0, 0), "labels must be a permutation of 1..2"),
        ((1, 2), (0,), "labels and lengths must have equal length"),
        ((1, 2, 3), (0, 1, 0), "row lengths must increase weakly upwards"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ParkingDiagram(labels, lengths)
