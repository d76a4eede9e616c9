"""
Ordered root bases with upper-triangular Seifert matrix, and their arc diagrams.

A basis here is an ordered tuple (a_1, ..., a_n) of n positive roots of rank n
such that seifert(a_j, a_i) == 0 whenever j > i.  Basis positions are 1-based
throughout, matching the subscripts a_1..a_n.

The arc diagram of a basis draws each root [lo, hi] as an arc with ends
(lo - 1, hi) on the axis {0, ..., n}.  Valid diagrams are exactly the ordered
families of pairwise non-crossing arcs satisfying:

  (1) arcs sharing a left end are nested with the inner arc labelled later;
  (2) arcs sharing a right end are nested with the inner arc labelled earlier;
  (3) when the right end of one arc is the left end of another, the left arc
      is labelled earlier.

The endpoint graph is then acyclic, so (1)-(3) need no fourth rule.  Pairwise
non-crossing arcs that close a cycle visit its points v_1 < ... < v_m in order:
the cycle is the arcs (v_i, v_{i+1}) and (v_1, v_m).  Rule (3) labels
(v_1, v_2) before (v_2, v_3) and so on up to (v_{m-1}, v_m), rule (2) labels that
one before (v_1, v_m), and rule (1) labels (v_1, v_m) before (v_1, v_2): no
labelling meets all three.  A repeated arc already breaks (1).

Linear independence is a forest test: [lo, hi] is x_hi - x_{lo-1} in
partial-sum coordinates, so roots are independent exactly when their arcs form
a forest.  Read as transpositions (lo - 1, hi), roots form a basis exactly when
they multiply to the cycle (0 1 ... n): Denes (1959) counts these minimal
factorizations as (n+1)^(n-1) (Goulden-Yong, JCTA 98, 2002).  That product accepts
in `validate_basis` and `from_arcs`, and such factors always form a tree; the forest
test, the Seifert scan and the arc rules only name rejections.

Enumeration splits the axis: the roots that may follow the arc (p_i, p_j) are
the arcs among the points outside it, points[:i] + points[j:], and among the
points inside it, points[i:j] (`_split`).
The ways to interleave the two sub-bases depend only on the number of points t
and of outside roots m, so `_gathers` caches them per (t, m): a pure table, shared
by every call and thread.
The bases of t + 1 points likewise depend on t alone, so for t <= 5 `_point_bases`
reads them from `_table(t)`: 1,440 gathers over t = 2..5, built once by the walk itself.
Below that bound lie most generator frames and the inside enumerations rebuilt for every
outside basis, about three quarters of the time of an n = 6 listing.
One walk descends the product: `_heads` yields its blocks in basis order, each a head
with roots on both sides or a side read from the table, led by the heads above it that
leave one side without roots (j = i + 1, or the arc (p_0, p_t)).  It walks those on an
explicit stack, so every n starts at once (the first basis at n = 3,000 in under a
second).  A two-sided head still enumerates its sides through `_point_bases`, one
generator frame per level of such nesting (measured).  Nesting d levels deep needs
a side of at least 2d + 7 points, and the first two-sided head of t + 1 points comes
only after the t^(t - 2) bases under (p_0, p_1): depth d comes after at least
(2d + 6)^(2d + 4) bases, so no listing nears the recursion limit.
`_point_bases` is the library's one enumerator, and what an arc becomes is the
caller's choice: it yields tuples of leaf(a, b), so `distinguished_bases` shares one
`Root` per arc and call, `noncrossing.maximal_chains` takes the arcs as a chain's
merges, and the CLI lists the arcs' JSON texts without building a root.
`_headed_bases` (tuples) and `_point_lines` (the CLI's lines) only consume the blocks.
`_point_lines` joins a block's heads into the start of its lines once; a side's lines
come `size` to a join, and a two-sided head writes each (outside basis, inside basis)
as one join of a text gather (`_text_gathers`, derived from `_gathers`).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .roots import Basis, Root, _check_ranks, seifert


class BasisError(ValueError):
    """A basis-validation failure, with a machine-readable code and detail.

    `validate_basis` checks, in order: "length", "rank", "dependent",
    "seifert" (detail: the 1-based ordered pair (j, i) with j > i at fault).
    `from_arcs` checks "length", then the arc rules "crossing" / "arc1" /
    "arc2" / "arc3" (detail: the arc labels).  The cycle product accepts; these
    codes only name a rejection.  No code names a cycle of arcs: rules (1)-(3)
    exclude one (see the module docstring).
    """

    def __init__(self, code: str, message: str, detail: tuple = ()):
        super().__init__(message)
        self.code = code
        self.detail = detail


def validate_basis(roots: Sequence[Root], rank: int | None = None) -> Basis:
    """Check that the ordered roots form a valid basis and return them as a tuple.

    Violations raise BasisError, reporting the first failed condition in the
    fixed order: length, rank, dependent, seifert.  After length and rank, the O(n)
    cycle product accepts (Denes; Goulden-Yong): n transpositions multiply to an
    (n+1)-cycle only when their arcs form a tree, so an accepted basis is never
    dependent.  Only on a rejection do the forest test and then the pairwise Seifert
    scan run, to name it.
    """
    return _accepted(roots, rank)[0]


def _accepted(roots: Sequence[Root], rank: int | None) -> tuple[Basis, tuple[tuple[int, int], ...]]:
    """`validate_basis`, also returning the arcs (lo - 1, hi) that its cycle product read.

    The library's one acceptance of a root tuple: `noncrossing.partition_chain` takes the
    arcs as the chain's merges, so it accepts and rejects exactly as `validate_basis` does.
    """
    basis = tuple(roots)
    if rank is None:
        rank = basis[0].rank if basis else 0
    if len(basis) != rank:
        raise BasisError("length", f"expected {rank} roots, got {len(basis)}")
    for r in basis:
        if r.rank != rank:
            raise BasisError("rank", f"root {r} has rank {r.rank}, expected {rank}")
    arcs = tuple((r.lo - 1, r.hi) for r in basis)
    if _is_cycle_factorization(arcs, rank):
        return basis, arcs
    if _first_cycle(arcs) is not None:
        raise BasisError("dependent", "roots are linearly dependent")
    for j in range(1, rank):
        for i in range(j):
            if value := seifert(basis[j], basis[i]):
                raise BasisError("seifert", f"seifert(a_{j + 1}, a_{i + 1}) = {value} != 0", (j + 1, i + 1))
    raise RuntimeError(f"the product rejects {arcs}, which the Seifert scan accepts")


def is_basis(roots: Sequence[Root], rank: int | None = None) -> bool:
    try:
        validate_basis(roots, rank)
        return True
    except BasisError:
        return False


@dataclasses.dataclass(frozen=True, slots=True)
class ArcDiagram:
    """An ordered family of arcs (left, right) on the axis {0, ..., rank}."""

    arcs: tuple[tuple[int, int], ...]
    rank: int

    def __post_init__(self):
        for left, right in self.arcs:
            if not 0 <= left < right <= self.rank:
                raise ValueError(f"arc ({left}, {right}) out of range for rank {self.rank}")


def _first_cycle(arcs: tuple[tuple[int, int], ...]) -> int | None:
    """The 0-based index of the first arc that closes a cycle, or None for a forest."""
    parent = list(range(len(arcs) + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, (left, right) in enumerate(arcs):
        a, b = find(left), find(right)
        if a == b:
            return idx
        parent[a] = b
    return None


def _is_cycle_factorization(arcs: tuple[tuple[int, int], ...], n: int) -> bool:
    """Whether the transpositions (a b) of the arcs multiply, left to right, to (0 1 ... n).

    >>> _is_cycle_factorization(((0, 1), (1, 2)), 2), _is_cycle_factorization(((1, 2), (0, 1)), 2)
    (True, False)
    """
    perm = list(range(n + 1))
    for a, b in arcs:
        perm[a], perm[b] = perm[b], perm[a]
    return perm == [*range(1, n + 1), 0]


def _check_arcs(arcs: tuple[tuple[int, int], ...]) -> None:
    """Raise BasisError on the first violated arc condition (labels are 1-based).

    A cycle of arcs needs no test of its own: rules (1)-(3) exclude it (module
    docstring), and `tests/test_dbasis.py` checks that exhaustively for n <= 6.
    """
    n = len(arcs)
    for i, j in itertools.combinations(range(n), 2):
        l1, r1 = arcs[i]
        l2, r2 = arcs[j]
        if l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1:
            raise BasisError("crossing", f"arcs {i + 1} and {j + 1} cross", (i + 1, j + 1))
        if l1 == l2 and not r2 < r1:
            raise BasisError(
                "arc1", f"arcs {i + 1}, {j + 1} share a left end out of order", (i + 1, j + 1)
            )
        if r1 == r2 and not l1 > l2:
            raise BasisError(
                "arc2", f"arcs {i + 1}, {j + 1} share a right end out of order", (i + 1, j + 1)
            )
    for i in range(n):
        for j in range(i):
            if arcs[i][1] == arcs[j][0]:
                raise BasisError(
                    "arc3", f"arc {i + 1} ends where arc {j + 1} begins", (i + 1, j + 1)
                )


_set_arcs, _set_rank = ArcDiagram.arcs.__set__, ArcDiagram.rank.__set__


def to_arcs(basis: Sequence[Root]) -> ArcDiagram:
    """The arc diagram of a basis: root [lo, hi] becomes the arc (lo - 1, hi).

    When every root has the first root's rank, the diagram is stored through the
    slot setters, skipping `ArcDiagram.__post_init__`: each `Root` already holds
    1 <= lo <= hi <= rank, so 0 <= lo - 1 < hi <= rank.  Mixed ranks raise, the
    range check first.
    """
    basis = tuple(basis)
    rank = basis[0].rank if basis else 0
    arcs = tuple((r.lo - 1, r.hi) for r in basis)
    for r in basis:
        if r.rank != rank:
            ArcDiagram(arcs, rank)  # names an arc out of range first
            _check_ranks(basis[0], r)  # raises: the ranks differ
    diagram = object.__new__(ArcDiagram)
    _set_arcs(diagram, arcs)
    _set_rank(diagram, rank)
    return diagram


def from_arcs(diagram: ArcDiagram) -> Basis:
    """The basis of an arc diagram: the cycle product accepts, conditions (1)-(3) name a rejection."""
    if len(diagram.arcs) != diagram.rank:
        raise BasisError("length", f"expected {diagram.rank} arcs, got {len(diagram.arcs)}")
    if not _is_cycle_factorization(diagram.arcs, diagram.rank):
        _check_arcs(diagram.arcs)
        raise RuntimeError(f"the product rejects {diagram.arcs}, which the arc rules accept")
    return tuple(Root(left + 1, right, diagram.rank) for left, right in diagram.arcs)


def gap(basis: Sequence[Root], i: int) -> int:
    """The unique support point of a_i not covered by the supports of strictly smaller roots.

    i is 1-based.  On a valid basis the uncovered set is a single point; anything else
    means the input was not a valid basis (or an internal bug) and raises.
    """
    if not 1 <= i <= len(basis):
        raise ValueError(f"position {i} outside 1..{len(basis)}")
    a = basis[i - 1]
    holes = set(a.support())
    for other in basis:
        if other != a and a.lo <= other.lo and other.hi <= a.hi:
            holes.difference_update(other.support())
    if len(holes) != 1:
        raise RuntimeError(f"gap of a_{i} is {sorted(holes)}, expected a single point")
    return holes.pop()


def _split(points: tuple[int, ...], i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis points outside and inside the arc (points[i], points[j]).

    On the axis 0..n, the roots v with seifert(v, r) == 0 for the arc's root r, those that
    may follow r in a basis, are exactly the arcs among either part (tested for n <= 8).
    """
    return points[:i] + points[j:], points[i:j]


def _point_bases(points: tuple[int, ...], leaf: Callable[[int, int], object]) -> Iterable[tuple]:
    """All bases whose roots are the arcs between the axis points p_0 < ... < p_t.

    Each basis is a tuple of leaf(a, b), one for each of its arcs (a, b).  With t <= 1
    the one basis comes back inside a tuple, not from a new generator; with t <= 5 the
    bases come back as a list gathered through `_table(t)`.
    """
    t = len(points) - 1
    if t <= 1:  # no roots, or the one arc (p_0, p_1): a gather of one index gives no tuple
        return ((leaf(points[0], points[1]),) if t else (),)
    if t <= _TABLED:
        arcs = [leaf(a, b) for a, b in itertools.combinations(points, 2)]
        return [gather(arcs) for gather in _table(t)]
    return _headed_bases(points, leaf)


_TABLED = 5  # the largest t that `_point_bases` reads from `_table`


@functools.cache
def _table(t: int) -> tuple[Callable[[Sequence], tuple], ...]:
    """The bases of t + 1 points as gathers from their t(t+1)/2 arcs (p_x, p_y), x < y, in that order.

    The bases depend on t alone, up to relabelling the points, so `_headed_bases` on the points
    0..t with each arc's index as its leaf lists them once; this table is its memo.

    >>> len(_table(4)), _table(2)[0](["(p0, p1)", "(p0, p2)", "(p1, p2)"])
    (125, ('(p0, p1)', '(p1, p2)'))
    """
    points = tuple(range(t + 1))
    index = {arc: k for k, arc in enumerate(itertools.combinations(points, 2))}
    return tuple(operator.itemgetter(*basis) for basis in _headed_bases(points, lambda a, b: index[a, b]))


def _heads(points: tuple[int, ...], leaf: Callable[[int, int], object]) -> Iterator[tuple]:
    """The product blocks of the bases of t + 1 >= 3 points, in basis order: the one descent.

    A head arc (p_i, p_j) with roots on both sides of it (`_split`) is the block
    (pre, leaf(p_i, p_j), outside, inside); a side of at most `_TABLED` + 1 points, read from
    `_table` by `_point_bases`, is the block (pre, None, side, None).  `pre` holds the leaves of
    the heads with a side of one point (no roots: j = i + 1, or the arc (p_0, p_t)) that lead to
    the block.  Such a head joins `pre`, and its other side is walked on an explicit stack, so
    the walk never recurses: a frame (pre, points, the pairs (i, j) left to walk) is popped to
    be walked, and pushed back under the side's frame when one of its heads descends.
    """
    stack = [((), points, itertools.combinations(range(len(points)), 2))]
    while stack:
        pre, points, pairs = frame = stack.pop()
        for i, j in pairs:
            head, (outside, inside) = leaf(points[i], points[j]), _split(points, i, j)
            if len(outside) > 1 < len(inside):
                yield pre, head, outside, inside
                continue
            side = outside if len(outside) > 1 else inside
            if len(side) <= _TABLED + 1:
                yield pre + (head,), None, side, None
                continue
            stack += frame, (pre + (head,), side, itertools.combinations(range(len(side)), 2))
            break


def _headed_bases(points: tuple[int, ...], leaf: Callable[[int, int], object]) -> Iterator[tuple]:
    """The bases of `_point_bases` for t >= 2, one product block of `_heads` at a time.

    A side alone gives pre + each of its bases.  Else enumerate the points outside and inside
    the head and interleave the two bases order-preservingly: each interleaving is one gather
    from (head, *sub1, *sub2), read from `_gathers`, a pure table cached per (t, m).
    """
    for pre, head, outside, inside in _heads(points, leaf):
        if head is None:
            yield from map(pre.__add__, _point_bases(outside, leaf))
            continue
        gathers = _gathers(len(outside) + len(inside) - 1, len(outside) - 1)
        for sub1 in _point_bases(outside, leaf):
            for sub2 in _point_bases(inside, leaf):
                roots = (head, *sub1, *sub2)
                for gather in gathers:
                    yield pre + gather(roots)


@functools.cache
def _gathers(t: int, m: int) -> tuple[Callable[[tuple], tuple], ...]:
    """The interleavings of m outside roots with t - 1 - m >= 1 inside roots, in basis order.

    A pure function of (t, m), so one table of at most 2^(t-1) getters serves every call,
    head and thread.  The interleaving that takes the basis positions `taken` (1-based,
    increasing) for the outside roots at indices 1..m of (head, *sub1, *sub2) puts the root
    at index k + 1 at position taken[k], and the root at index m + p - k at each position p
    between taken[k - 1] and taken[k].
    """
    gathers = []
    for taken in itertools.combinations(range(1, t), m):
        index = [0]
        p = 1  # the first position not yet filled
        for k, pos in enumerate(taken):
            index += range(m + p - k, m + pos - k)
            index.append(k + 1)
            p = pos + 1
        index += range(p, t)
        gathers.append(operator.itemgetter(*index))
    return tuple(gathers)


@functools.cache
def _text_gathers(t: int, m: int, size: int) -> tuple[Callable[[tuple], tuple], ...]:
    """`_gathers(t, m)` as text: gathers from (pre, ", ", post, head, *sub1, *sub2) of texts.

    The join of one gather's texts is the lines pre + ", ".join(basis) + post of at most
    `size` consecutive interleavings, so the C(t - 1, m) lines of one (head, sub1, sub2)
    are one gather and one join while they number at most `size`.  A pure table, like
    `_gathers`, keyed also by `size`.
    """
    lines = []
    for gather in _gathers(t, m):
        line = [1] * (2 * t + 1)  # pre, root, ", ", root, ..., ", ", root, post
        line[0], line[-1] = 0, 2
        line[1::2] = gather(range(3, t + 3))  # the roots' indices, past pre, ", " and post
        lines.append(line)
    return tuple(
        operator.itemgetter(*itertools.chain.from_iterable(lines[k : k + size]))
        for k in range(0, len(lines), size)
    )


def _point_lines(points: tuple[int, ...], leaf: Callable[[int, int], str], pre: str, post: str,
                 size: int) -> Iterator[str]:
    """The bases of `_point_bases(points, leaf)`, with leaf giving texts, as the lines
    pre + ", ".join(basis) + post, in blocks of at most `size` lines.

    One product block of `_heads` at a time (at most `_TABLED` + 1 points are one side block
    themselves), with its heads joined into the line start once: a side block is that side's
    lines; else each (head, sub1, sub2) is one join of each gather of `_text_gathers`, one
    gather per `size` lines.
    """
    blocks = _heads(points, leaf) if len(points) > _TABLED + 1 else [((), None, points, None)]
    for heads, head, outside, inside in blocks:
        start = pre + "".join(f"{text}, " for text in heads)
        if head is None:
            yield from _line_blocks(_point_bases(outside, leaf), start, post, size)
            continue
        gathers = _text_gathers(len(outside) + len(inside) - 1, len(outside) - 1, size)
        for sub1 in _point_bases(outside, leaf):
            for sub2 in _point_bases(inside, leaf):
                texts = (start, ", ", post, head, *sub1, *sub2)
                for gather in gathers:
                    yield "".join(gather(texts))


def _line_blocks(items: Iterable[Sequence[str]], pre: str, post: str, size: int) -> Iterator[str]:
    """The lines pre + ", ".join(item) + post of the items, `size` lines to a block.

    A block is one join: pre + (post + pre).join(the items' joins) + post.
    """
    items, sep = iter(items), post + pre
    while block := list(itertools.islice(items, size)):
        yield pre + sep.join(map(", ".join, block)) + post


def distinguished_bases(n: int) -> Iterator[Basis]:
    """All bases of positive roots with upper-triangular Seifert matrix, rank n.

    Every basis is produced exactly once; there are (n+1)^(n-1) of them.  The
    first root is an arc (i, j) of the axis {0, ..., n}; the rest enumerate the
    points outside it and the points inside it the same way.  The bases of one
    call share their roots: at most n(n+1)/2 `Root` objects, each made on first use.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    yield from _point_bases(tuple(range(n + 1)), functools.cache(lambda a, b: Root(a + 1, b, n)))


def basis_count(n: int) -> int:
    """The closed-form count (n+1)^(n-1) of bases of rank n."""
    return (n + 1) ** (n - 1) if n >= 1 else 1
