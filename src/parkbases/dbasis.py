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
"seifert"; arc codes come only from `from_arcs`.
"""
from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

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
    fixed order: length, rank, dependent, seifert.  The arc rules hold on exactly
    these bases (`verify` checks it), so they are not read again here.
    """
    basis = tuple(roots)
    if rank is None:
        rank = basis[0].rank if basis else 0
    if len(basis) != rank:
        raise BasisError("length", f"expected {rank} roots, got {len(basis)}")
    for r in basis:
        if r.rank != rank:
            raise BasisError("rank", f"root {r} has rank {r.rank}, expected {rank}")
    if _first_cycle(tuple((r.lo - 1, r.hi) for r in basis)) is not None:
        raise BasisError("dependent", "roots are linearly dependent")
    for j in range(1, rank):
        for i in range(j):
            value = seifert(basis[j], basis[i])
            if value != 0:
                raise BasisError(
                    "seifert",
                    f"seifert(a_{j + 1}, a_{i + 1}) = {value} != 0",
                    (j + 1, i + 1),
                )
    return basis


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
    a = basis[i - 1]
    holes = set(a.support()) - span(basis, i)
    if len(holes) != 1:
        raise RuntimeError(f"gap of a_{i} is {sorted(holes)}, expected a single point")
    return holes.pop()


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
    k, m = root.lo, root.hi
    first: list[Root] = [Root(i, i, n) for i in range(1, k - 1)]
    if k >= 2:
        first.append(Root(k - 1, m, n))
    first.extend(Root(i, i, n) for i in range(m + 1, n + 1))
    second = tuple(Root(i, i, n) for i in range(k, m))
    return tuple(first), second


def _chain_bases(chain: tuple[Root, ...]) -> Iterator[Basis]:
    """All bases of the sublattice generated by a chain of adjacent generators.

    The chain plays the role of the simple roots of a smaller system of the
    same kind; its roots are the consecutive sums chain[i] + ... + chain[j],
    which are genuine ambient roots because the chain generators tile a single
    interval.  Recursion: pick the first root, split the rest into the two
    orthogonal chains, enumerate each and interleave order-preservingly.
    """
    t = len(chain)
    if t == 0:
        yield ()
        return
    n = chain[0].rank
    for i in range(t):
        for j in range(i, t):
            head = Root(chain[i].lo, chain[j].hi, n)
            first: tuple[Root, ...] = chain[: max(i - 1, 0)]
            if i >= 1:
                first += (Root(chain[i - 1].lo, chain[j].hi, n),)
            first += chain[j + 1 :]
            second = chain[i:j]
            for sub1 in _chain_bases(first):
                for sub2 in _chain_bases(second):
                    for spots in itertools.combinations(range(t - 1), len(sub1)):
                        merged: list[Root] = []
                        it1, it2 = iter(sub1), iter(sub2)
                        taken = set(spots)
                        for pos in range(t - 1):
                            merged.append(next(it1) if pos in taken else next(it2))
                        yield (head, *merged)


def distinguished_bases(n: int) -> Iterator[Basis]:
    """All bases of positive roots with upper-triangular Seifert matrix, rank n.

    Every basis is produced exactly once; there are (n+1)^(n-1) of them.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    yield from _chain_bases(tuple(Root(i, i, n) for i in range(1, n + 1)))


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
