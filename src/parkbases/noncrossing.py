"""
Non-crossing partitions of {0, ..., n} and their maximal chains.

A partition is non-crossing when no four points a < b < c < d have a, c in one
block and b, d in a different block.  Partitions are canonicalised as tuples of
blocks sorted by minimum, each block a sorted tuple.

A maximal chain refines from the all-singletons partition to the one-block
partition in n steps, each merging exactly two blocks; `NCChain.merges` records
step k as the merged pair (B, B') with min B < min B'.  Chains correspond to
bases (`partition_chain` / `chain_to_basis`) and, via the merge labels
(`stanley_labels`), to parking functions shifted down by one.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

from .dbasis import to_arcs
from .roots import Basis, Root

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
    """A maximal chain of non-crossing partitions of {0, ..., n}.

    `merges[k]` is the pair (B, B') of blocks joined at step k, with min B < min B'.
    """

    partitions: tuple[NCPartition, ...]
    merges: tuple[tuple[Block, Block], ...] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.partitions:
            raise ValueError("empty chain")
        n = self.partitions[0].n
        if len(self.partitions) != n + 1:
            raise ValueError(f"a maximal chain on {{0..{n}}} has {n + 1} partitions")
        if self.partitions[0] != singletons(n):
            raise ValueError("chains must start at the all-singletons partition")
        if len(self.partitions[-1].blocks) != 1:
            raise ValueError("chains must end at the one-block partition")
        steps = zip(self.partitions, self.partitions[1:])  # merge_of raises unless a single merge
        object.__setattr__(self, "merges", tuple(merge_of(lower, upper) for lower, upper in steps))

    @property
    def n(self) -> int:
        return self.partitions[0].n


def merge_of(lower: NCPartition, upper: NCPartition) -> tuple[Block, Block]:
    """The pair of `lower` blocks merged to reach `upper`, minima in order.

    Raises ValueError unless `upper` is `lower` with exactly two blocks joined.
    """
    lower_set = set(lower.blocks)
    upper_set = set(upper.blocks)
    gone = sorted(lower_set - upper_set, key=lambda b: b[0])
    new = upper_set - lower_set
    if len(gone) != 2 or len(new) != 1:
        raise ValueError("not a single-merge cover")
    merged = new.pop()
    if tuple(sorted(gone[0] + gone[1])) != merged:
        raise ValueError("merged block does not match the removed pair")
    return gone[0], gone[1]


def _label(b: Block, b_prime: Block) -> int:
    """The label of a merge: with min(B) < min(B'), the largest i in B below B'."""
    # "below B'" means below every element; blocks merge non-crossingly, so
    # comparing against the minimum is the same thing.  `verify` checks the
    # two readings against each other on every merge of every maximal chain.
    return max(i for i in b if i < min(b_prime))


def stanley_labels(chain: NCChain) -> tuple[int, ...]:
    """The sequence of merge labels of a maximal chain.

    Adding 1 to every entry gives a parking function, and the map is a
    bijection onto parking functions.
    """
    return tuple(_label(b, b_prime) for b, b_prime in chain.merges)


def partition_chain(basis: Sequence[Root]) -> NCChain:
    """The chain of connected-component partitions of the first k arcs of a basis."""
    arcs = to_arcs(basis)
    points = range(arcs.rank + 1)
    owner = list(points)  # point -> minimum of its block
    blocks = {x: (x,) for x in points}  # keyed by minimum, in order of minimum
    parts = [NCPartition(tuple(blocks.values()))]
    for left, right in arcs.arcs:
        m, m_prime = sorted((owner[left], owner[right]))
        if m == m_prime:
            raise ValueError("arcs of a basis never close a cycle")
        # The joined block keeps B's key, and so its place in the order by minimum.
        b_prime = blocks.pop(m_prime)
        blocks[m] = tuple(sorted(blocks[m] + b_prime))
        for x in b_prime:
            owner[x] = m
        parts.append(NCPartition(tuple(blocks.values())))
    return NCChain(tuple(parts))


def chain_to_basis(chain: NCChain) -> Basis:
    """The basis whose arc components realise the chain (inverse of partition_chain)."""
    n = chain.n
    return tuple(Root(_label(b, b_prime) + 1, max(b_prime), n) for b, b_prime in chain.merges)


def maximal_chains(n: int) -> Iterator[NCChain]:
    """All maximal chains of non-crossing partitions of {0, ..., n}.

    There are (n+1)^(n-1) of them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def rec(prefix: list[NCPartition]) -> Iterator[NCChain]:
        current = prefix[-1]
        if len(current.blocks) == 1:
            yield NCChain(tuple(prefix))
            return
        blocks = current.blocks
        for i, j in itertools.combinations(range(len(blocks)), 2):
            merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
            merged.append(tuple(sorted(blocks[i] + blocks[j])))
            try:
                nxt = partition(merged)
            except ValueError:
                continue  # the merge would cross a third block
            prefix.append(nxt)
            yield from rec(prefix)
            prefix.pop()

    yield from rec([singletons(n)])
