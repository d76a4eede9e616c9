import collections
import itertools
import random
import re

import pytest

from parkbases import dbasis, noncrossing
from parkbases.bijection import reconstruct
from parkbases.noncrossing import (
    NCChain,
    NCPartition,
    _chain_of_blocks,
    _label,
    chain_of_partitions,
    chain_to_basis,
    maximal_chains,
    merge_of,
    partition,
    partition_chain,
    singletons,
    stanley_labels,
)
from parkbases.parking import parking_functions
from parkbases.roots import Root, positive_roots

from helpers import all_bases, basis_of_pairs, random_parking


def test_partition_canonicalisation_and_validation():
    p = partition([[2], [0, 1]])
    assert p.blocks == ((0, 1), (2,))
    assert partition([[0, 1, 3], [2]]).n == 3  # nested is fine
    # One fault each, and the exact message that names it.
    cases = [
        (lambda: partition([[0, 2], [1, 3]]), "blocks (1, 3) and (0, 2) cross"),
        (lambda: partition([[0], [2]]), "blocks must partition a range {0, ..., n}"),
        (lambda: partition([[0], []]), "blocks must be non-empty"),
        (lambda: NCPartition(((0,), ())), "blocks must be non-empty"),
        (lambda: partition([]), "a partition has at least one block"),
        (lambda: NCPartition(((1, 0), (2,))), "block (1, 0) is not sorted"),
        (lambda: NCPartition(((2,), (0, 1))), "blocks must be sorted by minimum"),
        (lambda: NCPartition(((0, 1, 1),)), "blocks must partition a range {0, ..., n}"),
        (lambda: NCPartition(((0, -1),)), "blocks must partition a range {0, ..., n}"),
        # Points are plain ints: no silent coercion of floats or bools.
        (lambda: NCPartition(((0,), (1.0,))), "blocks must partition a range {0, ..., n}"),
        (lambda: NCPartition(((0,), (True,))), "blocks must partition a range {0, ..., n}"),
        (lambda: partition([[False], [1]]), "blocks must partition a range {0, ..., n}"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_chain_validation():
    one, top = partition([[0, 1], [2]]), partition([[0, 1, 2]])
    assert chain_of_partitions([singletons(2), one, top]) == NCChain(((0, 1), (1, 2)))
    cases = [
        ([], "empty chain"),
        ([singletons(2), top], "a maximal chain on {0..2} has 3 partitions"),  # skips a level
        ([one, top, top], "chains must start at the all-singletons partition"),
        ([singletons(2), one, one], "chains must end at the one-block partition"),
        ([singletons(3), partition([[0, 1], [2, 3]]), top, partition([[0, 1, 2, 3]])],
         "not a single-merge cover"),
        ([singletons(1), top], "merged block does not match the removed pair"),
    ]
    for parts, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chain_of_partitions(parts)


def _basis_error(read, tup):
    """What read(tup) raises, as (type, code, detail, message); None if it returns."""
    try:
        read(tup)
    except dbasis.BasisError as exc:
        return type(exc), exc.code, exc.detail, str(exc)
    return None


def test_partition_chain_rejects_too_few_roots():
    tup = (Root(1, 1, 3), Root(2, 2, 3))
    error = _basis_error(partition_chain, tup)
    assert error == _basis_error(dbasis.validate_basis, tup) == (
        dbasis.BasisError, "length", (), "expected 3 roots, got 2")


def test_partition_chain_rejects_a_root_of_larger_rank():
    tup = (Root(1, 1, 2), Root(1, 3, 3))
    error = _basis_error(partition_chain, tup)
    assert error == _basis_error(dbasis.validate_basis, tup) == (
        dbasis.BasisError, "rank", (), "root e[1,3] has rank 3, expected 2")


@pytest.mark.parametrize("read, message", [
    (partition_chain, "root e[1,1] has rank 1, expected 2"),  # as validate_basis words it
    (dbasis.to_arcs, "rank mismatch: 2 != 1"),
], ids=["partition_chain", "to_arcs"])
def test_roots_of_mixed_ranks_are_rejected(read, message):
    # The right ends fit the first rank, so only the rank comparison can reject the tuple.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read((Root(1, 2, 2), Root(1, 1, 1)))


def test_chains_and_bases_need_no_trial_partition(monkeypatch):
    def refuse(*args):
        raise AssertionError("no partition is built on this path")

    monkeypatch.setattr(noncrossing, "partition", refuse)
    monkeypatch.setattr(noncrossing, "merge_of", refuse)
    assert sum(1 for _ in maximal_chains(4)) == 125
    for n in range(1, 5):
        for basis in all_bases(n):
            chain = partition_chain(basis)
            assert chain_to_basis(chain) == basis and len(stanley_labels(chain)) == n


def test_partition_chain_builds_no_arc_diagram(monkeypatch):
    def refuse(*args):
        raise AssertionError("partition_chain builds an ArcDiagram")

    monkeypatch.setattr(dbasis, "ArcDiagram", refuse)
    for n in range(1, 5):
        for basis in all_bases(n):
            assert chain_to_basis(partition_chain(basis)) == basis


def test_chain_to_basis_rejects_what_partitions_rejects():
    # Hand-built merges that no maximal chain has, and the message each reading raises.
    not_a_merge = "is not the merge of a maximal chain"
    cases = [
        (((0, 5),), f"step 1: (0, 5) {not_a_merge}"),  # 5 is outside {0, 1}
        (((1, 0),), f"step 1: (1, 0) {not_a_merge}"),  # label above top
        (((0, True),), f"step 1: (0, True) {not_a_merge}"),  # points are plain ints
        (((0, 2), (1, 2)), f"step 2: (1, 2) {not_a_merge}"),  # {0, 2} has the smaller minimum
        (((0, 1), (0, 2)), f"step 2: (0, 2) {not_a_merge}"),  # the label of {0, 1} is 1
        (((0, 1), (0, 1)), f"step 2: (0, 1) {not_a_merge}"),  # 0 and 1 share a block
        (((1, 3), (0, 1), (0, 3)), f"step 2: (0, 1) {not_a_merge}"),  # {1, 3} ends at 3
        (((0, 2), (1, 3), (0, 1)), "blocks (1, 3) and (0, 2) cross"),
    ]
    for read in (lambda chain: chain.partitions, chain_to_basis):
        for merges, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                read(NCChain(merges))


def test_chain_product_rejection_is_never_overruled(monkeypatch):
    monkeypatch.setattr(noncrossing, "_is_cycle_factorization", lambda *args: False)
    with pytest.raises(RuntimeError):
        chain_to_basis(NCChain(((0, 1), (1, 2))))  # the replay accepts it


def test_a_basis_is_its_own_chain(monkeypatch):
    def refuse(*args):
        raise AssertionError("partition_chain calls validate_basis or partitions a basis")

    monkeypatch.setattr(dbasis, "validate_basis", refuse)
    monkeypatch.setattr(noncrossing, "NCPartition", refuse)
    n = 3200  # long single blocks, where joining arc by arc is quadratic
    long_bases = [reconstruct(f) for f in ((1,) * n, tuple(range(1, n + 1)), tuple(range(n, 0, -1)))]
    for basis in itertools.chain(*map(all_bases, range(1, 6)), long_bases):
        assert partition_chain(basis).merges == tuple((r.lo - 1, r.hi) for r in basis)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_partition_chain_accepts_exactly_what_validate_basis_accepts(r):
    # Every tuple of 0..r+1 roots of rank r: the chain of the arcs when validate_basis
    # accepts, and otherwise the same BasisError (type, code, detail, text).
    roots = list(positive_roots(r))
    for size in range(r + 2):
        for tup in itertools.product(roots, repeat=size):
            error = _basis_error(dbasis.validate_basis, tup)
            if error is None:
                assert partition_chain(tup) == NCChain(tuple((x.lo - 1, x.hi) for x in tup)), tup
            else:
                assert _basis_error(partition_chain, tup) == error, tup


def _validated(raw):
    """The answer of the validated path on partitions given as lists of blocks: a chain or the error text."""
    try:
        return chain_of_partitions([partition(blocks) for blocks in raw])
    except ValueError as exc:
        return str(exc)


def _by_product(raw):
    try:
        return _chain_of_blocks(raw)
    except ValueError as exc:
        return str(exc)


def _merge_sequences(n):
    """Every sequence of single merges from the singletons of 0..n, crossing ones included."""
    def rec(blocks, parts):
        if len(blocks) == 1:
            yield parts
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)] + [sorted(blocks[i] + blocks[j])]
            yield from rec(merged, parts + [merged])

    start = [[x] for x in range(n + 1)]
    yield from rec(start, [start])


@pytest.mark.parametrize("n", range(0, 6))
def test_merge_product_decides_every_single_merge_sequence(n):
    # 1,442 of the 2,903 sequences with n <= 5 are maximal non-crossing chains.
    accepted = 0
    for raw in _merge_sequences(n):
        answer = _validated(raw)
        assert _by_product(raw) == answer, raw
        accepted += isinstance(answer, NCChain)
    assert accepted == dbasis.basis_count(n)


def _corruptions(parts):
    """Broken copies of a chain's partitions (lists of lists), each with what it breaks."""
    n = len(parts) - 1
    yield "swap two partitions", [parts[1], parts[0], *parts[2:]]
    if n >= 2:  # the partition before the last has two blocks
        moved = [[list(b) for b in p] for p in parts]
        source, target = sorted(moved[n - 1], key=len, reverse=True)
        target.append(source.pop())
        yield "move one point", moved
    if n >= 3:
        yield "a crossing partition", [*parts[:2], [[0, 2], [1, 3], *[[x] for x in range(4, n + 1)]], *parts[3:]]
    yield "repeat a block", [*parts[:-1], parts[-1] + parts[-1][:1]]
    yield "a bool point", [[[True if x == 1 else x for x in b] for b in p] for p in parts]
    yield "a float point", [[[float(x) if x == n else x for x in b] for b in p] for p in parts]
    yield "an empty block", [*parts[:-1], parts[-1] + [[]]]


@pytest.mark.parametrize("n", range(1, 5))
def test_chain_of_blocks_agrees_with_the_validated_path(n):
    rng = random.Random(n)
    rejected = collections.Counter()
    for chain in maximal_chains(n):
        parts = [[list(b) for b in p.blocks] for p in chain.partitions]
        shuffled = [rng.sample([rng.sample(b, len(b)) for b in p], len(p)) for p in parts]
        assert _chain_of_blocks(shuffled) == chain == _validated(shuffled)
        for what, raw in _corruptions(parts):
            answer = _validated(raw)
            if isinstance(answer, NCChain):  # a moved point can land on another maximal chain
                assert _chain_of_blocks(raw) == answer
                continue
            rejected[what] += 1
            with pytest.raises(ValueError, match=f"^{re.escape(answer)}$"):
                _chain_of_blocks(raw)
    kinds = {what for what, _ in _corruptions(parts)}
    if n == 2:  # on three points, moving one always gives another maximal chain
        kinds.remove("move one point")
    assert set(rejected) == kinds


def test_chain_of_blocks_product_rejection_is_never_overruled(monkeypatch):
    monkeypatch.setattr(noncrossing, "_is_cycle_factorization", lambda *args: False)
    with pytest.raises(RuntimeError):
        _chain_of_blocks([[[0], [1], [2]], [[0, 1], [2]], [[0, 1, 2]]])  # the validated path accepts it


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
        assert chain_of_partitions(chain.partitions) == chain


@pytest.mark.parametrize("n", range(1, 7))
def test_chains_come_in_bases_order(n):
    arcs = [tuple((r.lo - 1, r.hi) for r in basis) for basis in dbasis.distinguished_bases(n)]
    assert [chain.merges for chain in maximal_chains(n)] == arcs


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


def _near_bases(n, count=40):
    """Seeded near misses: a random basis with one root replaced, or two swapped."""
    rng, roots = random.Random(n), list(positive_roots(n))
    for _ in range(count):
        tup = list(reconstruct(random_parking(rng, n)))
        if rng.random() < 0.5:
            tup[rng.randrange(n)] = rng.choice(roots)
        else:
            i, j = rng.sample(range(n), 2)
            tup[i], tup[j] = tup[j], tup[i]
        yield tuple(tup)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 10, 11, 12])
def test_partition_chain_matches_component_oracle(n):
    # Every n-tuple of positive roots, valid basis or not, up to n = 4; near misses beyond.
    # Each tuple less its last root too.  A basis's chain is its component history; any
    # other tuple raises exactly what validate_basis raises.
    tuples = itertools.product(list(positive_roots(n)), repeat=n) if n <= 4 else _near_bases(n)
    for tup in itertools.chain.from_iterable((full, full[:-1]) for full in tuples):
        if not tup:  # no first root to read a rank from: the chain on {0}
            assert partition_chain(tup) == NCChain(())
            continue
        error = _basis_error(dbasis.validate_basis, tup)
        if error is None:
            expected = _component_history([(r.lo - 1, r.hi) for r in tup], n)
            assert [list(p.blocks) for p in partition_chain(tup).partitions] == expected, tup
        else:
            assert _basis_error(partition_chain, tup) == error, tup


def test_shifted_labels_are_parking_rank6():
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
