import itertools

import pytest

from parkbases.bijection import initial_vector
from parkbases.noncrossing import (
    NCChain,
    NCPartition,
    _label,
    chain_to_basis,
    maximal_chains,
    merge_of,
    partition,
    partition_chain,
    singletons,
    stanley_labels,
)
from parkbases.parking import is_parking, parking_functions
from parkbases.roots import Root, positive_roots

from helpers import all_bases, basis_of_pairs


def test_partition_canonicalisation_and_validation():
    p = partition([[2], [0, 1]])
    assert p.blocks == ((0, 1), (2,))
    with pytest.raises(ValueError):
        partition([[0, 2], [1, 3]])  # crossing
    with pytest.raises(ValueError):
        partition([[0], [2]])  # not a range
    with pytest.raises(ValueError):
        partition([[0], []])  # an empty block
    with pytest.raises(ValueError):
        NCPartition(((0,), ()))
    with pytest.raises(ValueError):
        partition([])  # no block
    assert partition([[0, 1, 3], [2]]).n == 3  # nested is fine


def test_chain_validation():
    good = NCChain((singletons(2), partition([[0, 1], [2]]), partition([[0, 1, 2]])))
    assert good.n == 2
    with pytest.raises(ValueError):
        NCChain((singletons(2), partition([[0, 1, 2]])))  # skips a level
    with pytest.raises(ValueError):
        NCChain((partition([[0, 1], [2]]), partition([[0, 1, 2]])))  # wrong start


def test_rank2_worked_chain():
    basis = basis_of_pairs([(1, 1), (2, 2)], 2)
    chain = partition_chain(basis)
    assert [p.blocks for p in chain.partitions] == [
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((0, 1, 2),),
    ]
    assert stanley_labels(chain) == (0, 1)
    assert chain_to_basis(chain) == basis


def test_first_merge_of_long_root():
    chain = partition_chain((Root(1, 4, 4), Root(1, 1, 4), Root(2, 2, 4), Root(3, 3, 4)))
    assert chain.partitions[1].blocks == ((0, 4), (1,), (2,), (3,))


def test_merge_label_readings_agree():
    lower = partition([[0], [1, 2], [3]])
    upper = partition([[0, 3], [1, 2]])
    b, b_prime = merge_of(lower, upper)
    below_all = max(i for i in b if all(i < x for x in b_prime))
    assert _label(*merge_of(lower, upper)) == below_all == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_merges_are_the_merge_of_each_step(n):
    for chain in maximal_chains(n):
        steps = zip(chain.partitions, chain.partitions[1:])
        assert chain.merges == tuple(merge_of(lower, upper) for lower, upper in steps)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 16), (4, 125)])
def test_chain_counts(n, count):
    chains = list(maximal_chains(n))
    assert len(chains) == count
    assert len(set(chains)) == count


@pytest.mark.parametrize("n", range(1, 6))
def test_stanley_bijection(n):
    labels = set()
    for chain in maximal_chains(n):
        lab = stanley_labels(chain)
        labels.add(lab)
        shifted = tuple(v + 1 for v in lab)
        assert is_parking(shifted)
    assert len(labels) == (n + 1) ** (n - 1)
    assert {tuple(v + 1 for v in lab) for lab in labels} == set(parking_functions(n))


@pytest.mark.parametrize("n", range(1, 6))
def test_composite_identity_and_round_trip(n):
    for basis in all_bases(n):
        chain = partition_chain(basis)
        assert tuple(v + 1 for v in stanley_labels(chain)) == initial_vector(basis)
        assert chain_to_basis(chain) == basis


@pytest.mark.parametrize("n", range(1, 6))
def test_chain_partitions_are_noncrossing(n):
    for chain in maximal_chains(n):
        for part in chain.partitions:
            NCPartition(part.blocks)  # re-validates the non-crossing property


def _component_history(arcs, n):
    """Blocks of the components of the first k arcs, k = 0..len(arcs), by union-find.

    Raises ValueError when an arc closes a cycle or two components interleave.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    history = []
    for k in range(len(arcs) + 1):
        if k:
            left, right = find(arcs[k - 1][0]), find(arcs[k - 1][1])
            if left == right:
                raise ValueError("cycle")
            parent[left] = right
        groups = {}
        for x in range(n + 1):
            groups.setdefault(find(x), []).append(x)
        blocks = sorted(groups.values())
        if _interleaves(blocks):
            raise ValueError("crossing")
        history.append([tuple(b) for b in blocks])
    return history


@pytest.mark.parametrize("n", range(1, 5))
def test_partition_chain_matches_component_oracle(n):
    # Every n-tuple of positive roots, valid basis or not.
    for tup in itertools.product(list(positive_roots(n)), repeat=n):
        arcs = [(r.lo - 1, r.hi) for r in tup]
        try:
            expected = _component_history(arcs, n)
        except ValueError:
            expected = None
        try:
            got = [list(p.blocks) for p in partition_chain(tup).partitions]
        except ValueError:
            got = None
        assert got == expected, tup


def test_chain_round_trip_from_enumeration():
    for chain in maximal_chains(4):
        assert partition_chain(chain_to_basis(chain)) == chain


def test_shifted_labels_are_parking_rank6():
    from parkbases.bijection import reconstruct

    for f in parking_functions(6):
        labels = stanley_labels(partition_chain(reconstruct(f)))
        assert tuple(v + 1 for v in labels) == f


def _set_partitions(size):
    """Every set partition of {0, ..., size - 1}, blocks listed in reverse."""

    def rec(x, blocks):
        if x == size:
            yield [list(reversed(b)) for b in reversed(blocks)]
            return
        for block in blocks:
            block.append(x)
            yield from rec(x + 1, blocks)
            block.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _interleaves(blocks):
    owner = {x: k for k, block in enumerate(blocks) for x in block}
    return any(
        owner[a] == owner[c] != owner[b] == owner[d]
        for a, b, c, d in itertools.combinations(sorted(owner), 4)
    )


@pytest.mark.parametrize("n", range(0, 8))
def test_partition_acceptance_matches_interleaving_oracle(n):
    # Bell(n + 1) set partitions of {0..n}; partition() must accept exactly
    # those with no a < b < c < d splitting as {a, c}, {b, d}.
    for blocks in _set_partitions(n + 1):
        try:
            partition(blocks)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted != _interleaves(blocks), blocks
