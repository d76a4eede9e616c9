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
      is labelled earlier;
  (4) the endpoint graph is acyclic (this follows from (1)-(3), but is still
      checked).

Linear independence is the forest test of (4): [lo, hi] is x_hi - x_{lo-1} in
partial-sum coordinates, so roots are independent exactly when their arcs form
a forest.  `validate_basis` checks length, rank, "dependent" (this test) and
"seifert" (by one sweep of the arc rules); arc codes come only from `from_arcs`.

Enumeration splits the axis: the roots that may follow the arc (p_i, p_j) are
the arcs among the points outside it, points[:i] + points[j:], and among the
points inside it, points[i:j] (`_split`, also read by `right_orthogonal_basis`).
What an arc becomes is the caller's choice: `_point_bases` yields tuples of
leaf(a, b), so `distinguished_bases` shares one `Root` per arc and call, and the
CLI lists the arcs' JSON texts without building a root.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from typing import Callable, Iterable, Iterator, Sequence

from .roots import Basis, Root, seifert


class BasisError(ValueError):
    """A basis-validation failure, with a machine-readable code and detail.

    `validate_basis` checks, in order: "length", "rank", "dependent",
    "seifert" (detail: the 1-based ordered pair (j, i) with j > i at fault).
    `from_arcs` checks "length", then the arc rules "crossing" / "arc1" /
    "arc2" / "arc3" / "arc4" (detail: the arc labels); arc codes come only
    from `from_arcs`.  "dependent" and "arc4" are the same arc-forest test.
    """

    def __init__(self, code: str, message: str, detail: tuple = ()):
        super().__init__(message)
        self.code = code
        self.detail = detail


def validate_basis(roots: Sequence[Root], rank: int | None = None) -> Basis:
    """Check that the ordered roots form a valid basis and return them as a tuple.

    Violations raise BasisError, reporting the first failed condition in the
    fixed order: length, rank, dependent, seifert.  One O(n) sweep of the arc rules,
    which hold on exactly these bases (`verify` checks it), accepts; else a pairwise scan names the pair.
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
    if _first_cycle(arcs) is not None:
        raise BasisError("dependent", "roots are linearly dependent")
    if _arcs_nest(arcs, rank):
        return basis
    for j in range(1, rank):
        for i in range(j):
            if value := seifert(basis[j], basis[i]):
                raise BasisError("seifert", f"seifert(a_{j + 1}, a_{i + 1}) = {value} != 0", (j + 1, i + 1))
    raise RuntimeError(f"the arc sweep rejects {arcs}, which the Seifert scan accepts")


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


def _arcs_nest(arcs: tuple[tuple[int, int], ...], n: int) -> bool:
    """Whether a forest of arcs on {0, ..., n} keeps rules (1)-(3) and never crosses.

    In label order, an earlier arc must be outer at a shared left end (1), inner at
    a shared right end (2), and not start at this arc's right end (3).  Rule (1)
    leaves each point's right ends decreasing: a stack over the points finds crossings.
    """
    starts: list[list[int]] = [[] for _ in range(n + 1)]  # right ends leaving each point, in order
    inner = [n + 1] * (n + 1)  # the last (so the least) left end arriving at each point
    for left, right in arcs:
        if (starts[left] and starts[left][-1] <= right) or inner[right] <= left or starts[right]:
            return False
        starts[left].append(right)
        inner[right] = left
    open_ends = [n + 1]  # right ends of the arcs open over the sweep, falling towards the top
    for x, out in enumerate(starts):
        while open_ends[-1] == x:
            open_ends.pop()
        if out and open_ends[-1] < out[0]:  # out falls, so its first arc is the one to check
            return False
        open_ends += out
    return True


def _check_arcs(arcs: tuple[tuple[int, int], ...]) -> None:
    """Raise BasisError on the first violated arc condition (labels are 1-based)."""
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
        for j in range(n):
            if i != j and arcs[i][1] == arcs[j][0] and not i < j:
                raise BasisError(
                    "arc3", f"arc {i + 1} ends where arc {j + 1} begins", (i + 1, j + 1)
                )
    idx = _first_cycle(arcs)
    if idx is not None:
        raise BasisError("arc4", f"arc {idx + 1} closes a cycle", (idx + 1,))


def to_arcs(basis: Sequence[Root]) -> ArcDiagram:
    """The arc diagram of a basis: root [lo, hi] becomes the arc (lo - 1, hi)."""
    basis = tuple(basis)
    rank = basis[0].rank if basis else 0
    return ArcDiagram(tuple((r.lo - 1, r.hi) for r in basis), rank)


def from_arcs(diagram: ArcDiagram) -> Basis:
    """The basis of an arc diagram, after checking conditions (1)-(4)."""
    if len(diagram.arcs) != diagram.rank:
        raise BasisError("length", f"expected {diagram.rank} arcs, got {len(diagram.arcs)}")
    _check_arcs(diagram.arcs)
    return tuple(Root(left + 1, right, diagram.rank) for left, right in diagram.arcs)


def span(basis: Sequence[Root], i: int) -> set[int]:
    """The union of supports of basis roots strictly inside a_i (i is 1-based)."""
    if not 1 <= i <= len(basis):
        raise ValueError(f"position {i} outside 1..{len(basis)}")
    a = basis[i - 1]
    covered: set[int] = set()
    for other in basis:
        if other != a and a.lo <= other.lo and other.hi <= a.hi:
            covered.update(other.support())
    return covered


def gap(basis: Sequence[Root], i: int) -> int:
    """The unique support point of a_i not covered by strictly smaller roots.

    On a valid basis the uncovered set is a single point; anything else means
    the input was not a valid basis (or an internal bug) and raises.
    """
    covered = span(basis, i)  # checks i first
    holes = set(basis[i - 1].support()) - covered
    if len(holes) != 1:
        raise RuntimeError(f"gap of a_{i} is {sorted(holes)}, expected a single point")
    return holes.pop()


def _split(points: tuple[int, ...], i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axis points outside and inside the arc (points[i], points[j])."""
    return points[:i] + points[j:], points[i:j]


def right_orthogonal_basis(root: Root, n: int) -> tuple[tuple[Root, ...], tuple[Root, ...]]:
    """Generator chains for the roots that may follow `root` in a basis.

    The roots v admissible after r = [k, m] are exactly those with
    seifert(v, r) == 0.  They form two mutually orthogonal sublattices with
    the chains returned here as simple generators:

      first:   e_1, ..., e_{k-2}, [k-1, m], e_{m+1}, ..., e_n   (rank n-m+k-1)
      second:  e_k, ..., e_{m-1}                                 (rank m-k)

    Each returned chain lists pairwise adjacent generators whose consecutive
    sums are again roots; consecutive sums of either chain exhaust the
    admissible roots.
    """
    if root.rank != n:
        raise ValueError(f"root rank {root.rank} != {n}")
    split = _split(tuple(range(n + 1)), root.lo - 1, root.hi)
    first, second = (tuple(Root(a + 1, b, n) for a, b in zip(p, p[1:])) for p in split)
    return first, second


def _point_bases(points: tuple[int, ...], leaf: Callable[[int, int], object]) -> Iterable[tuple]:
    """All bases whose roots are the arcs between the axis points p_0 < ... < p_t.

    Each basis is a tuple of leaf(a, b), one for each of its arcs (a, b).  With t <= 1
    the one basis comes back inside a tuple, not from a new generator.
    """
    t = len(points) - 1
    if t <= 1:  # no roots, or the one arc (p_0, p_1): a gather of one index gives no tuple
        return ((leaf(points[0], points[1]),) if t else (),)
    return _headed_bases(points, t, leaf)


def _headed_bases(points: tuple[int, ...], t: int, leaf: Callable[[int, int], object]) -> Iterator[tuple]:
    """The bases of `_point_bases` for t >= 2.

    Pick the head arc (p_i, p_j), enumerate the points outside and inside it
    (`_split`), and interleave the two bases order-preservingly: each interleaving
    is one gather from (head, *sub1, *sub2).
    """
    for i in range(t):
        for j in range(i + 1, t + 1):
            head = leaf(points[i], points[j])
            outside, inside = _split(points, i, j)
            m = len(outside) - 1  # the outside roots sit at indices 1..m of (head, *sub1, *sub2)
            # An interleaving puts the root at index k + 1 at basis position taken[k], and the
            # root at index m + p - k at each position p between taken[k - 1] and taken[k].  With
            # nothing inside, taking no position gives the one (identity) gather in O(1) steps.
            gathers = []
            for taken in itertools.combinations(range(1, t), m if len(inside) > 1 else 0):
                index = [0]
                p = 1  # the first position not yet filled
                for k, pos in enumerate(taken):
                    index += range(m + p - k, m + pos - k)
                    index.append(k + 1)
                    p = pos + 1
                index += range(p, t)
                gathers.append(operator.itemgetter(*index))
            for sub1 in _point_bases(outside, leaf):
                for sub2 in _point_bases(inside, leaf):
                    roots = (head, *sub1, *sub2)
                    for gather in gathers:
                        yield gather(roots)


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


def nondecreasing_representative(roots: Sequence[Root]) -> Basis:
    """Reorder a family of roots with pairwise distinct right ends.

    Sorting by (lo ascending, hi descending) yields the unique valid ordering
    whose sequence of left endpoints is non-decreasing.
    """
    rep = tuple(sorted(roots, key=lambda r: (r.lo, -r.hi)))
    if len({r.hi for r in rep}) != len(rep):
        raise ValueError("roots must have pairwise distinct right ends")
    return rep
