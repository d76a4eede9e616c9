import copy
import dataclasses
import itertools
import pickle
import re

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


ROOT_FIELD_VALUES = (*range(-1, 5), True, 10**30)


@pytest.mark.parametrize("rank", ROOT_FIELD_VALUES)
def test_root_constructor_accepts_exactly_the_intervals(rank):
    for lo, hi in itertools.product(ROOT_FIELD_VALUES, repeat=2):
        if not 1 <= lo <= hi <= rank:
            message = f"invalid root interval [{lo}, {hi}] in rank {rank}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Root(lo, hi, rank)
            continue
        r = Root(lo, hi, rank)
        assert (r.lo, r.hi, r.rank) == (lo, hi, rank)
        assert repr(r) == f"Root(lo={lo!r}, hi={hi!r}, rank={rank!r})"


def test_root_behaves_like_its_field_tuple():
    triples = [(lo, hi, rank) for rank in (1, 2, 3, 10**30) for lo in range(1, 4) for hi in range(lo, 4) if hi <= rank]
    roots = [Root(*t) for t in triples]
    for t, r in zip(triples, roots):
        assert hash(r) == hash(t)
        for field, value in zip(("lo", "hi", "rank"), t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, field, value)
        for twin in (copy.copy(r), pickle.loads(pickle.dumps(r)), dataclasses.replace(r)):
            assert type(twin) is Root and twin == r and hash(twin) == hash(r)
        assert dataclasses.replace(r, lo=1) == Root(1, *t[1:])
        with pytest.raises(ValueError, match=r"^invalid root interval \[0, "):
            dataclasses.replace(r, lo=0)
    for (s, a), (t, b) in itertools.product(zip(triples, roots), repeat=2):
        assert (a == b) == (s == t)
        assert (a < b) == (s < t)
        assert (a <= b) == (s <= t)
    assert sorted(roots) == [Root(*t) for t in sorted(triples)]


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
