import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbases.roots import Root, cartan, positive_roots, seifert, simple_roots, support_relation
from parkbases.verify import bilinear_seifert


def e(lo, hi=None, n=4):
    return Root(lo, hi if hi is not None else lo, n)


def test_root_validation():
    with pytest.raises(ValueError):
        Root(0, 1, 3)
    with pytest.raises(ValueError):
        Root(2, 1, 3)
    with pytest.raises(ValueError):
        Root(1, 4, 3)
    assert Root(1, 3, 3).support() == range(1, 4)


def test_seifert_simple_pairs():
    assert seifert(e(1), e(1)) == 1
    assert seifert(e(1), e(2)) == -1
    assert seifert(e(2), e(1)) == 0


def test_seifert_interval_pairs():
    # frozen from the bilinear expansion oracle
    a, b = Root(1, 3, 4), Root(2, 2, 4)
    assert bilinear_seifert(a, b) == 0 == seifert(a, b)
    assert bilinear_seifert(b, a) == 0 == seifert(b, a)


def test_seifert_rank_mismatch():
    with pytest.raises(ValueError):
        seifert(Root(1, 1, 2), Root(1, 1, 3))


def test_cartan_values():
    assert cartan(e(1), e(1)) == 2
    assert cartan(e(1), e(2)) == -1
    assert cartan(e(1), e(3)) == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_seifert_matches_bilinear_and_cartan(n):
    for a, b in itertools.product(positive_roots(n), repeat=2):
        assert seifert(a, b) == bilinear_seifert(a, b)
        assert cartan(a, b) == bilinear_seifert(a, b) + bilinear_seifert(b, a)


@pytest.mark.parametrize("n", range(1, 13))
def test_seifert_case_table_exclusive(n):
    # exactly one of the closed-form cases can apply to an ordered pair
    for a, b in itertools.product(positive_roots(n), repeat=2):
        case1 = b.lo <= a.lo <= b.hi <= a.hi
        case2 = a.lo <= b.lo - 1 <= a.hi < b.hi
        assert not (case1 and case2)


def test_seifert_self_is_one():
    for n in range(1, 9):
        for a in positive_roots(n):
            assert seifert(a, a) == 1


def test_support_relation():
    assert support_relation(Root(1, 3, 4), Root(2, 2, 4)) == "a_contains_b"
    assert support_relation(Root(2, 2, 4), Root(1, 3, 4)) == "b_contains_a"
    assert support_relation(e(1), e(3)) == "disjoint"
    assert support_relation(Root(1, 2, 4), Root(2, 3, 4)) == "crossing"
    assert support_relation(Root(1, 2, 4), Root(1, 2, 4)) == "equal"


def test_simple_roots():
    assert [r.as_pair() for r in simple_roots(3)] == [(1, 1), (2, 2), (3, 3)]


@st.composite
def root_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    lo1 = draw(st.integers(min_value=1, max_value=n))
    hi1 = draw(st.integers(min_value=lo1, max_value=n))
    lo2 = draw(st.integers(min_value=1, max_value=n))
    hi2 = draw(st.integers(min_value=lo2, max_value=n))
    return Root(lo1, hi1, n), Root(lo2, hi2, n)


@given(root_pairs())
def test_seifert_bilinear_property(pair):
    a, b = pair
    assert seifert(a, b) == bilinear_seifert(a, b)
    assert cartan(a, b) == cartan(b, a)
