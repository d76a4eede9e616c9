import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbases import verify
from parkbases.bijection import (
    initial_vector,
    ray_stops,
    reconstruct,
    reconstruct_geometric,
    reconstruct_permutation,
)
from parkbases.parking import to_diagram
from parkbases.roots import Root, simple_roots

from helpers import all_pfs, basis_of_pairs, random_parking, ray_walk_stops

N12_F = (3, 11, 7, 5, 9, 8, 5, 2, 1, 10, 2, 12)
N12_PAIRS = [
    (3, 3), (11, 11), (7, 7), (5, 7), (9, 9), (8, 9),
    (5, 5), (2, 9), (1, 9), (10, 11), (2, 3), (12, 12),
]


def test_initial_vector_examples():
    basis = basis_of_pairs([(2, 3), (2, 2), (1, 3)], 3)
    assert initial_vector(basis) == (2, 2, 1)
    assert initial_vector(simple_roots(4)) == (1, 2, 3, 4)
    assert initial_vector(basis_of_pairs(N12_PAIRS, 12)) == N12_F


def test_reconstruct_worked_examples():
    assert reconstruct((2, 2, 1)) == basis_of_pairs([(2, 3), (2, 2), (1, 3)], 3)
    assert reconstruct((2, 1, 1)) == basis_of_pairs([(2, 2), (1, 3), (1, 2)], 3)
    assert reconstruct(N12_F) == basis_of_pairs(N12_PAIRS, 12)


def test_reconstruct_geometric_worked_examples():
    # `reconstruct_geometric` runs `reconstruct`'s stack pass; this one call shows the name
    # still answers, and every other golden is held to `reconstruct` alone.
    expected = basis_of_pairs([(1, 7), (1, 1), (2, 5), (2, 3), (2, 2), (4, 4), (6, 6)], 7)
    assert reconstruct_geometric((1, 1, 2, 2, 2, 4, 6)) == expected
    assert reconstruct((1, 1, 2, 2, 2, 4, 6)) == expected


def test_identity_permutation_gives_simple_roots():
    n = 5
    assert reconstruct(tuple(range(1, n + 1))) == simple_roots(n)


@pytest.mark.parametrize("n", [64, 400, 1600])
def test_geometric_equals_algebraic_on_long_rays(n):
    # Long rays cross many rows; extremes plus uniform draws.  `reconstruct` and
    # `ray_stops` read the same stack pass (as does `reconstruct_geometric`), held to
    # the algebraic construction of `verify` and to the literal ray walk.
    rng = random.Random(n)
    extremes = [(1,) * n, tuple(range(1, n + 1)), tuple(range(n, 0, -1))]
    for f in extremes + [random_parking(rng, n) for _ in range(10)]:
        diagram = to_diagram(f)
        walk = ray_walk_stops(diagram)
        assert ray_stops(diagram) == walk
        algebraic = verify._algebraic_basis(f)
        assert tuple(Root(v, stop, n) for v, stop in zip(f, walk)) == algebraic
        assert reconstruct(f) == algebraic


@pytest.mark.parametrize("n", range(1, 7))
def test_ray_stops_equal_the_ray_walk(n):
    for f in all_pfs(n):
        diagram = to_diagram(f)
        assert ray_stops(diagram) == ray_walk_stops(diagram), f


def test_reconstruct_rejects_non_parking():
    with pytest.raises(ValueError):
        reconstruct((2, 2))
    with pytest.raises(ValueError):
        reconstruct_geometric((3, 3, 3))


def test_permutation_examples():
    assert reconstruct_permutation((2, 1)) == basis_of_pairs([(2, 2), (1, 2)], 2)
    assert reconstruct_permutation((3, 1, 2)) == basis_of_pairs([(3, 3), (1, 1), (2, 3)], 3)
    assert initial_vector(reconstruct_permutation((3, 1, 2))) == (3, 1, 2)


def test_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        reconstruct_permutation((1, 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_shortcut_equals_reconstruct(n):
    verify.check_permutation_shortcut(n)


RANK3_NODE_PAIRS = [
    # (parking function, basis) pairs appearing at matching positions in the
    # two reference action pictures
    ((1, 2, 1), [(1, 3), (2, 2), (1, 2)]),
    ((1, 1, 1), [(1, 3), (1, 2), (1, 1)]),
    ((3, 1, 1), [(3, 3), (1, 3), (1, 1)]),
    ((3, 1, 2), [(3, 3), (1, 1), (2, 3)]),
    ((1, 1, 2), [(1, 3), (1, 1), (2, 2)]),
    ((1, 2, 2), [(1, 1), (2, 3), (2, 2)]),
    ((1, 3, 2), [(1, 1), (3, 3), (2, 3)]),
    ((1, 2, 3), [(1, 1), (2, 2), (3, 3)]),
    ((2, 1, 3), [(2, 2), (1, 2), (3, 3)]),
    ((2, 1, 1), [(2, 2), (1, 3), (1, 2)]),
    ((2, 3, 1), [(2, 2), (3, 3), (1, 3)]),
    ((3, 2, 1), [(3, 3), (2, 3), (1, 3)]),
    ((1, 3, 1), [(1, 2), (3, 3), (1, 1)]),
    ((1, 1, 3), [(1, 2), (1, 1), (3, 3)]),
    ((2, 1, 2), [(2, 3), (1, 3), (2, 2)]),
    ((2, 2, 1), [(2, 3), (2, 2), (1, 3)]),
]


def test_rank3_figure_nodes_pair_up():
    # the two pictures list the same sixteen objects; each basis node is the
    # reconstruction of the parking function drawn at the same position
    assert len(RANK3_NODE_PAIRS) == 16
    for f, pairs in RANK3_NODE_PAIRS:
        basis = basis_of_pairs(pairs, 3)
        assert initial_vector(basis) == f
        assert reconstruct(f) == basis


@given(st.integers(min_value=1, max_value=6), st.data())
def test_round_trip_property(n, data):
    f = data.draw(st.sampled_from(all_pfs(n)))
    basis = reconstruct(f)
    assert initial_vector(basis) == f
    assert all(isinstance(r, Root) for r in basis)
