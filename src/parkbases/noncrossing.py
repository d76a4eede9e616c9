"""
Non-crossing partitions of {0, ..., n} and their maximal chains.

A partition is non-crossing when no four points a < b < c < d have a, c in one
block and b, d in a different block.  Partitions are canonicalised as tuples of
blocks sorted by minimum, each block a sorted tuple.

A maximal chain refines from the all-singletons partition to the one-block
partition in n steps, each joining two blocks B, B' with min B < min B'.  An
`NCChain` is its n merges (label, max B'), the label being the largest point of
B below B'; its `partitions` are replayed on request.  Given partitions are read by
one reader, `_merges`, which checks the steps' shape (n + 1 partitions, singletons
to one block, two blocks joined per step) and not their crossings; it serves both
`chain_of_partitions` and `nc from-chain` (`_chain_of_blocks`).  Merge k is arc k of a basis
(`partition_chain` / `chain_to_basis`), and the labels (`stanley_labels`) are a
parking function shifted down by one.

Read as transpositions, the merges of a maximal chain are the arcs of a basis, so
they multiply to (0 1 ... n) (`dbasis`), and single merges from the singletons that
multiply to it are a maximal chain.  So `maximal_chains` reads the chains off the
bases enumeration (`dbasis._point_bases`), in the order of `distinguished_bases`.  Each
chain's merges are checked once, by that product, where the chain is made: `NCChain`
checks given merges, while `partition_chain` and `maximal_chains` store the arcs that
`dbasis` has already accepted or enumerated (`_stored_chain`).  Nothing that reads a chain
checks it again, and its `partitions` are replayed without a crossing scan.
`verify` counts the chains from the definition, join by join, and runs the crossing
scan on every replayed partition.
"""
from __future__ import annotations

import bisect
import dataclasses
from typing import Iterator, Sequence

from .dbasis import _accepted, _is_cycle_factorization, _point_bases
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
    """A maximal chain on {0, ..., n} as its merges (label, max B'); see the module docstring.

    ValueError unless the merges form a maximal chain.  Merges in range whose arcs multiply
    to (0 1 ... n) (`dbasis`) are one; any others take the checked replay, which raises the
    ValueError that names the first bad step.
    """

    merges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merges, n = self.merges, len(self.merges)
        in_range = all(type(a) is type(b) is int and 0 <= a < b <= n for a, b in merges)
        if in_range and _is_cycle_factorization(merges, n):
            return
        _replay(merges, checked=True)
        raise RuntimeError(f"the product rejects {merges}, which the chain replay accepts")

    @property
    def n(self) -> int:
        return len(self.merges)

    @property
    def partitions(self) -> tuple[NCPartition, ...]:
        """The n + 1 partitions replayed from the merges, stored without `NCPartition`'s checks."""
        return _replay(self.merges, checked=False)


_set_blocks, _set_merges = NCPartition.blocks.__set__, NCChain.merges.__set__


def _stored(blocks: tuple[Block, ...]) -> NCPartition:
    """The NCPartition of blocks already known to be canonical and non-crossing, unchecked."""
    part = object.__new__(NCPartition)
    _set_blocks(part, blocks)
    return part


def _stored_chain(merges: tuple[tuple[int, int], ...]) -> NCChain:
    """The NCChain of merges already known to be the arcs of a basis, unchecked."""
    chain = object.__new__(NCChain)
    _set_merges(chain, merges)
    return chain


def _replay(merges: tuple[tuple[int, int], ...], checked: bool) -> tuple[NCPartition, ...]:
    """The n + 1 partitions of the merges, joined step by step from the singletons.

    With `checked`, each merge is checked against the partition before it, and each partition
    is built by `NCPartition`, which raises if the join crosses; the first bad step raises its
    ValueError.  Without it, the merges must already be known to form a maximal chain.
    """
    n = len(merges)
    owner = list(range(n + 1))  # point -> minimum of its block
    blocks = {x: (x,) for x in owner}  # keyed by minimum, in order of minimum
    make = NCPartition if checked else _stored
    parts = [make(tuple(blocks.values()))]
    for step, (label, top) in enumerate(merges, 1):
        if checked and not (
            type(label) is type(top) is int and 0 <= label < top <= n
            and (m := owner[label]) < (m_prime := owner[top])
            and blocks[m_prime][-1] == top and _label(blocks[m], blocks[m_prime]) == label
        ):
            raise ValueError(f"step {step}: {(label, top)} is not the merge of a maximal chain")
        m, m_prime = owner[label], owner[top]
        b_prime = blocks.pop(m_prime)  # the join keeps the key m, so the order of minima holds
        blocks[m] = tuple(sorted(blocks[m] + b_prime))
        for x in b_prime:
            owner[x] = m
        parts.append(make(tuple(blocks.values())))
    return tuple(parts)


def chain_of_partitions(parts: Sequence[NCPartition]) -> NCChain:
    """The chain through the given partitions; ValueError unless it is a maximal chain."""
    return NCChain(_merges([p.blocks for p in parts]))


def _merges(block_lists: Sequence[Sequence[Sequence[int]]]) -> tuple[tuple[int, int], ...]:
    """The merges (label, max B') of partitions given as lists of blocks, each block read sorted.

    ValueError unless, with n + 1 points in the first partition, there are n + 1 partitions
    from exactly n + 1 singletons to one block, each joining two blocks of the one before.
    Crossings and the points' types are not checked.
    """
    if not block_lists:
        raise ValueError("empty chain")
    first = block_lists[0]
    n = sum(map(len, first)) - 1
    if len(block_lists) != n + 1:
        raise ValueError(f"a maximal chain on {{0..{n}}} has {n + 1} partitions")
    lower = {tuple(sorted(b)) for b in first}
    if len(first) != n + 1 or lower != {(x,) for x in range(n + 1)}:
        raise ValueError("chains must start at the all-singletons partition")
    if len(block_lists[-1]) != 1:
        raise ValueError("chains must end at the one-block partition")
    merges = []
    for blocks in block_lists[1:]:
        upper = {tuple(sorted(b)) for b in blocks}
        if len(blocks) != len(lower) - 1:  # so `upper` holds no block twice
            raise ValueError("not a single-merge cover")
        b, b_prime = _merged_pair(lower, upper)
        merges.append((_label(b, b_prime), b_prime[-1]))
        lower = upper
    return tuple(merges)


def _chain_of_blocks(raw: Sequence[Sequence[Sequence[int]]]) -> NCChain:
    """`chain_of_partitions([partition(p) for p in raw])`, with no partition's crossing scan.

    Every point must be a plain int; `cli._payload_chain`, the only caller, rejects any
    other point before the call.  Each partition is read in canonical form by `_merges`,
    and `NCChain` accepts the merges of a maximal chain by their cycle product.  Anything
    else takes the validated path, which raises the ValueError that names the fault.
    """
    try:
        return NCChain(_merges(raw))
    except ValueError:
        return chain_of_partitions([partition(blocks) for blocks in raw])


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


def stanley_labels(chain: NCChain) -> tuple[int, ...]:
    """The merge labels of a chain; adding 1 to each is a bijection onto parking functions."""
    return tuple(label for label, _ in chain.merges)


def partition_chain(basis: Sequence[Root]) -> NCChain:
    """The chain of connected-component partitions of the first k arcs (lo - 1, hi) of a basis.

    A basis is its own chain: merge k is arc k.  The arcs come from `dbasis._accepted`, the
    one acceptance behind `validate_basis`, so any other tuple raises the BasisError (a
    ValueError) that `validate_basis` raises on it; accepted arcs are stored unchecked.
    """
    return _stored_chain(_accepted(basis, None)[1])


def chain_to_basis(chain: NCChain) -> Basis:
    """The roots [label + 1, top] of the merges (inverse of partition_chain)."""
    n = chain.n
    return tuple(Root(label + 1, top, n) for label, top in chain.merges)


def maximal_chains(n: int) -> Iterator[NCChain]:
    """All maximal chains of non-crossing partitions of {0, ..., n}.

    There are (n+1)^(n-1) of them.  They come in the order of `distinguished_bases(n)`:
    the merges of chain k are the arcs (lo - 1, hi) of basis k.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    yield from map(_stored_chain, _point_bases(tuple(range(n + 1)), lambda a, b: (a, b)))
