"""Shared test utilities: cached enumerations and small constructors."""
from __future__ import annotations

import functools
import inspect
import itertools
import sys

from parkbases.dbasis import _split, distinguished_bases
from parkbases.parking import is_parking, parking_functions
from parkbases.roots import Root


@functools.lru_cache(maxsize=None)
def all_bases(n: int) -> tuple:
    return tuple(distinguished_bases(n))


@functools.lru_cache(maxsize=None)
def all_pfs(n: int) -> tuple:
    return tuple(parking_functions(n))


def pattern_point_bases(points: tuple[int, ...], n: int):
    """All bases on the axis points, by explicit interleaving patterns.

    The same recursion as `dbasis._point_bases`, but each later root is drawn
    one at a time from sub1 or sub2 as a boolean pattern says; the reference for
    the order in which `distinguished_bases` yields its bases.
    """
    t = len(points) - 1
    if t == 0:
        yield ()
        return
    for i, j in itertools.combinations(range(t + 1), 2):
        head = Root(points[i] + 1, points[j], n)
        outside, inside = _split(points, i, j)
        patterns = [  # which of the t - 1 later roots come from outside
            [pos in taken for pos in range(t - 1)] for taken in itertools.combinations(range(t - 1), len(outside) - 1)
        ]
        for sub1 in pattern_point_bases(outside, n):
            for sub2 in pattern_point_bases(inside, n):
                for pattern in patterns:
                    it1, it2 = iter(sub1), iter(sub2)
                    yield (head, *[next(it1) if take else next(it2) for take in pattern])


def shallow(fn, *args, room: int = 50):
    """fn(*args) under a recursion limit of the caller's depth + `room` frames."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + room)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


def refusing(what: str):
    """A stand-in for a function that must not be called: it raises AssertionError(what)."""
    def refuse(*args):
        raise AssertionError(what)
    return refuse


def long_families(n: int) -> tuple[tuple[int, ...], ...]:
    """The all-ones, identity and reversed parking functions on n cars."""
    return (1,) * n, tuple(range(1, n + 1)), tuple(range(n, 0, -1))


def root(lo: int, hi: int, n: int) -> Root:
    return Root(lo, hi, n)


def basis_of_pairs(pairs, n: int) -> tuple[Root, ...]:
    return tuple(Root(lo, hi, n) for lo, hi in pairs)


def random_parking(rng, n: int) -> tuple[int, ...]:
    """A uniform random parking function of length n, drawn from `rng`."""
    # Pollak: exactly one rotation mod n + 1 of a vector in [1..n+1]^n parks,
    # the one that moves the spot left empty on a circular street to n + 1.
    # That spot is where the running sum of (cars preferring it - 1) first
    # reaches its minimum.
    v = [rng.randint(1, n + 1) for _ in range(n)]
    counts = [0] * (n + 2)
    for x in v:
        counts[x] += 1
    level = lowest = 0
    empty = n + 1
    for spot in range(1, n + 2):
        level += counts[spot] - 1
        if level < lowest:
            lowest, empty = level, spot
    f = tuple((x - empty - 1) % (n + 1) + 1 for x in v)
    assert is_parking(f)
    return f


def ray_walk_stops(diagram) -> tuple[int, ...]:
    """The ray stops of a diagram, walked one row and one column at a time.

    The ray from the corner of row p passes the corner of row q when
    x == lengths[q] and labels[q] is smaller, and any row it is right of
    (x > lengths[q]); it stops at the first other row or at the x-axis (q == n).
    Quadratic on long rays; the reference for `bijection.ray_stops`.
    """
    n = diagram.n
    labels, lengths = diagram.labels, diagram.lengths
    stops = [0] * n
    for p, k in enumerate(labels):
        x, q = lengths[p] + 1, p + 1
        while q < n and (x > lengths[q] or (x == lengths[q] and labels[q] < k)):
            x += 1
            q += 1
        stops[k - 1] = x
    return tuple(stops)


# The full generator action on the 16 parking functions of three cars,
# transcribed arrow by arrow from the reference picture: two 2-cycles and four
# 3-cycles per generator.
ALPHA1_RANK3 = {
    (1, 2, 1): (2, 1, 1), (2, 1, 1): (1, 2, 1),
    (1, 3, 2): (3, 1, 2), (3, 1, 2): (1, 3, 2),
    (1, 1, 1): (1, 3, 1), (1, 3, 1): (3, 1, 1), (3, 1, 1): (1, 1, 1),
    (1, 2, 3): (2, 1, 3), (2, 1, 3): (1, 1, 3), (1, 1, 3): (1, 2, 3),
    (1, 1, 2): (1, 2, 2), (1, 2, 2): (2, 1, 2), (2, 1, 2): (1, 1, 2),
    (3, 2, 1): (2, 2, 1), (2, 2, 1): (2, 3, 1), (2, 3, 1): (3, 2, 1),
}
ALPHA2_RANK3 = {
    (1, 3, 1): (1, 1, 3), (1, 1, 3): (1, 3, 1),
    (2, 1, 2): (2, 2, 1), (2, 2, 1): (2, 1, 2),
    (1, 2, 1): (1, 1, 1), (1, 1, 1): (1, 1, 2), (1, 1, 2): (1, 2, 1),
    (1, 2, 2): (1, 2, 3), (1, 2, 3): (1, 3, 2), (1, 3, 2): (1, 2, 2),
    (3, 1, 1): (3, 1, 2), (3, 1, 2): (3, 2, 1), (3, 2, 1): (3, 1, 1),
    (2, 1, 1): (2, 1, 3), (2, 1, 3): (2, 3, 1), (2, 3, 1): (2, 1, 1),
}
