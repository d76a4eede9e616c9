"""
Non-crossing partitions of {0, ..., n} and their maximal chains.

A partition is non-crossing when no four points a < b < c < d have a, c in one
block and b, d in a different block.  Partitions are canonicalised as tuples of
blocks sorted by minimum, each block a sorted tuple.

A maximal chain refines from the all-singletons partition to the one-block
partition in n steps, each joining two blocks B, B' with min B < min B'.  An
`NCChain` is its n merges (label, max B'), the label being the largest point of
B below B'; its `partitions` are replayed on request, and `chain_of_partitions`
reads the merges off given partitions.  Merge k is arc k of a basis
(`partition_chain` / `chain_to_basis`), and the labels (`stanley_labels`) are a
parking function shifted down by one.

Read as transpositions, the merges of a maximal chain are the arcs of a basis, so
they multiply to (0 1 ... n) (`dbasis`), and single merges from the singletons that
multiply to it are a maximal chain.  So `chain_to_basis`, and `_chain_of_blocks`
behind `nc from-chain`, accept by that product and run no crossing scan; a
rejection takes the validated path, which names the fault.
"""
from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Iterator, Sequence

from .dbasis import _is_cycle_factorization
from .roots import Basis, Root, _check_ranks

Block = tuple[int, ...]


@dataclasses.dataclass(frozen=True, slots=True)
class NCPartition:
    """A non-crossing partition of {0, ..., n} in canonical block order."""

    blocks: tuple[Block, ...]

    def __post_init__(self):
        blocks = self.blocks
        if not blocks:
            raise ValueError("a partition has at least one block")
        if not all(blocks):
            raise ValueError("blocks must be non-empty")
        # owner[x] is the index of the block holding point x.  Points must be
        # plain ints (no bools, no floats) covering 0..size-1 exactly once.
        size = sum(map(len, blocks))
        owner = [-1] * size
        unsorted, misordered = None, False
        last_min = -1
        for k, block in enumerate(blocks):
            prev = -1
            for x in block:
                if type(x) is not int or not 0 <= x < size or owner[x] != -1:
                    raise ValueError("blocks must partition a range {0, ..., n}")
                owner[x] = k
                if x < prev and unsorted is None:
                    unsorted = block
                prev = x
            if block[0] < last_min:
                misordered = True
            last_min = block[0]
        if unsorted is not None:
            raise ValueError(f"block {unsorted} is not sorted")
        if misordered:
            raise ValueError("blocks must be sorted by minimum")
        # Scan left to right keeping a stack of the blocks that have started but
        # not finished; every later point of a block must continue the innermost.
        open_blocks: list[int] = []
        for x, k in enumerate(owner):
            block = blocks[k]
            if x != block[0] and (top := open_blocks.pop()) != k:
                raise ValueError(f"blocks {blocks[top]} and {block} cross")
            if x != block[-1]:
                open_blocks.append(k)

    @property
    def n(self) -> int:
        return sum(len(block) for block in self.blocks) - 1


def partition(blocks: Sequence[Sequence[int]]) -> NCPartition:
    """Canonicalise and validate a partition given as any iterable of blocks."""
    # Disjoint blocks sort by minimum; an empty one sorts first and NCPartition rejects it.
    return NCPartition(tuple(sorted(tuple(sorted(b)) for b in blocks)))


def singletons(n: int) -> NCPartition:
    return NCPartition(tuple((i,) for i in range(n + 1)))


@dataclasses.dataclass(frozen=True, slots=True)
class NCChain:
    """A maximal chain on {0, ..., n} as its merges (label, max B'); see the module docstring."""

    merges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.merges)

    @property
    def partitions(self) -> tuple[NCPartition, ...]:
        """The n + 1 partitions replayed from the merges; ValueError unless they form a chain."""
        owner = list(range(self.n + 1))  # point -> minimum of its block
        blocks = {x: (x,) for x in owner}  # keyed by minimum, in order of minimum
        parts = [NCPartition(tuple(blocks.values()))]
        for step, (label, top) in enumerate(self.merges, 1):
            if not (
                type(label) is type(top) is int and 0 <= label < top <= self.n
                and (m := owner[label]) < (m_prime := owner[top])
                and blocks[m_prime][-1] == top and _label(blocks[m], blocks[m_prime]) == label
            ):
                raise ValueError(f"step {step}: {(label, top)} is not the merge of a maximal chain")
            _join(owner, blocks, m, m_prime)
            parts.append(NCPartition(tuple(blocks.values())))  # raises if the join crosses
        return tuple(parts)


def chain_of_partitions(parts: Sequence[NCPartition]) -> NCChain:
    """The chain through the given partitions; ValueError unless it is a maximal chain."""
    if not parts:
        raise ValueError("empty chain")
    n = parts[0].n
    if len(parts) != n + 1:
        raise ValueError(f"a maximal chain on {{0..{n}}} has {n + 1} partitions")
    if parts[0] != singletons(n):
        raise ValueError("chains must start at the all-singletons partition")
    if len(parts[-1].blocks) != 1:
        raise ValueError("chains must end at the one-block partition")
    steps = (merge_of(lower, upper) for lower, upper in zip(parts, parts[1:]))
    return NCChain(tuple((_label(b, b_prime), b_prime[-1]) for b, b_prime in steps))


def _chain_of_blocks(raw: Sequence[Sequence[Sequence[int]]]) -> NCChain:
    """`chain_of_partitions([partition(p) for p in raw])`, accepted by the merges' cycle product.

    Each partition is read in canonical form.  From the singletons of 0..n, every step must
    drop two blocks B, B' and add their sorted union; each such step keeps a set partition,
    and the merges (label, max B') form a maximal non-crossing chain exactly when they
    multiply to (0 1 ... n), as in `chain_to_basis`.  So no partition needs its crossing
    scan.  Anything else, a point that is not an int included, takes the validated path,
    which raises the ValueError that names the fault.
    """
    merges = _block_merges(raw)
    if merges is not None and _is_cycle_factorization(merges, len(merges)):
        return NCChain(merges)
    chain = chain_of_partitions([partition(blocks) for blocks in raw])
    raise RuntimeError(f"the product rejects {chain.merges}, which the validated path accepts")


def _block_merges(raw: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, int], ...] | None:
    """The merges of partitions that go from the singletons by single merges, else None."""
    if not raw or not all(type(x) is int for blocks in raw for b in blocks for x in b):
        return None
    lower = {tuple(sorted(b)) for b in raw[0]}
    if len(raw[0]) != len(raw) or lower != {(x,) for x in range(len(raw))}:
        return None
    merges = []
    for blocks in raw[1:]:
        upper = {tuple(sorted(b)) for b in blocks}
        if len(blocks) != len(lower) - 1:  # so `upper` holds no block twice
            return None
        try:
            b, b_prime = _merged_pair(lower, upper)
        except ValueError:
            return None
        merges.append((_label(b, b_prime), b_prime[-1]))
        lower = upper
    return tuple(merges)


def merge_of(lower: NCPartition, upper: NCPartition) -> tuple[Block, Block]:
    """The pair of `lower` blocks merged to reach `upper`, minima in order.

    Raises ValueError unless `upper` is `lower` with exactly two blocks joined.
    """
    return _merged_pair(set(lower.blocks), set(upper.blocks))


def _merged_pair(lower: set[Block], upper: set[Block]) -> tuple[Block, Block]:
    """`merge_of` on the two partitions' sets of blocks."""
    gone = sorted(lower - upper)  # disjoint blocks sort by minimum
    new = upper - lower
    if len(gone) != 2 or len(new) != 1:
        raise ValueError("not a single-merge cover")
    merged = new.pop()
    if tuple(sorted(gone[0] + gone[1])) != merged:
        raise ValueError("merged block does not match the removed pair")
    return gone[0], gone[1]


def _label(b: Block, b_prime: Block) -> int:
    """The label of a merge: with min(B) < min(B'), the largest i in B below B'."""
    # Blocks sorted; below min(B') is below all of B'.  `verify` re-reads the rule literally.
    return b[bisect.bisect(b, b_prime[0]) - 1]


def _nested_label(owner: list[int], blocks: dict[int, Block], m: int, m_prime: int) -> int | None:
    """The label of joining the blocks with minima m < m_prime, or None if the join crosses.

    It does unless each point between the label and m_prime lies in a block inside that gap.
    """
    label = _label(blocks[m], blocks[m_prime])
    x = label + 1
    while x < m_prime:
        if owner[x] != x:  # x's block starts left of the gap
            return None
        x = blocks[x][-1] + 1
    return label if x == m_prime else None


def _join(owner: list[int], blocks: dict[int, Block], m: int, m_prime: int) -> Block:
    """Join the blocks with minima m < m_prime in place (the join keeps key m); return B'."""
    b_prime = blocks.pop(m_prime)
    blocks[m] = tuple(sorted(blocks[m] + b_prime))
    for x in b_prime:
        owner[x] = m
    return b_prime


def stanley_labels(chain: NCChain) -> tuple[int, ...]:
    """The merge labels of a chain; adding 1 to each is a bijection onto parking functions."""
    return tuple(label for label, _ in chain.merges)


def partition_chain(basis: Sequence[Root]) -> NCChain:
    """The chain of connected-component partitions of the first k arcs (lo - 1, hi) of a basis."""
    n = basis[0].rank if basis else 0
    owner = list(range(n + 1))  # point -> minimum of its block
    blocks = {x: (x,) for x in owner}  # keyed by minimum, in order of minimum
    merges = []
    for r in basis:
        if r.hi > n:  # a root of a larger rank than the first
            raise ValueError(f"arc ({r.lo - 1}, {r.hi}) out of range for rank {n}")
        _check_ranks(basis[0], r)
        m, m_prime = sorted((owner[r.lo - 1], owner[r.hi]))
        if m == m_prime:
            raise ValueError("arcs of a basis never close a cycle")
        label = _nested_label(owner, blocks, m, m_prime)
        b_prime = _join(owner, blocks, m, m_prime)
        if label is None:
            NCPartition(tuple(blocks.values()))  # raises "blocks X and Y cross"
            raise RuntimeError(f"the gap test rejects joining {b_prime}, which NCPartition accepts")
        merges.append((label, b_prime[-1]))
    if len(merges) != n:  # too few arcs
        raise ValueError(f"a maximal chain on {{0..{n}}} has {n + 1} partitions")
    return NCChain(tuple(merges))


def chain_to_basis(chain: NCChain) -> Basis:
    """The roots [label + 1, top] of the merges (inverse of partition_chain).

    The merges form a maximal chain exactly when, as arcs, they multiply to (0 1 ... n) (`dbasis`).
    """
    n, merges = chain.n, chain.merges
    in_range = all(type(a) is type(b) is int and 0 <= a < b <= n for a, b in merges)
    if in_range and _is_cycle_factorization(merges, n):
        return tuple(Root(label + 1, top, n) for label, top in merges)
    chain.partitions  # raises the ValueError that names the first bad step
    raise RuntimeError(f"the product rejects {merges}, which the chain replay accepts")


def maximal_chains(n: int) -> Iterator[NCChain]:
    """All maximal chains of non-crossing partitions of {0, ..., n}.

    There are (n+1)^(n-1) of them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(owner: list[int], blocks: dict[int, Block], merges: tuple) -> Iterator[NCChain]:
        if len(blocks) == 1:
            yield NCChain(merges)
        for m, m_prime in itertools.combinations(blocks, 2):  # in order of minimum
            label = _nested_label(owner, blocks, m, m_prime)
            if label is not None:  # else the join would cross a third block
                owner_next, blocks_next = owner.copy(), blocks.copy()
                top = _join(owner_next, blocks_next, m, m_prime)[-1]
                yield from rec(owner_next, blocks_next, merges + ((label, top),))

    owner = list(range(n + 1))  # point -> minimum of its block
    yield from rec(owner, {x: (x,) for x in owner}, ())  # blocks keyed by minimum
