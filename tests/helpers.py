"""Shared test utilities: cached enumerations and small constructors."""
from __future__ import annotations

import functools

from parkbases.dbasis import distinguished_bases
from parkbases.parking import is_parking, parking_functions
from parkbases.roots import Root


@functools.lru_cache(maxsize=None)
def all_bases(n: int) -> tuple:
    return tuple(distinguished_bases(n))


@functools.lru_cache(maxsize=None)
def all_pfs(n: int) -> tuple:
    return tuple(parking_functions(n))


def root(lo: int, hi: int, n: int) -> Root:
    return Root(lo, hi, n)


def basis_of_pairs(pairs, n: int) -> tuple[Root, ...]:
    return tuple(Root(lo, hi, n) for lo, hi in pairs)


def random_parking(rng, n: int) -> tuple[int, ...]:
    """A uniform random parking function of length n, drawn from `rng`."""
    # Pollak: exactly one rotation mod n + 1 of a vector in [1..n+1]^n parks.
    v = [rng.randint(1, n + 1) for _ in range(n)]
    for s in range(n + 1):
        f = tuple((x - 1 + s) % (n + 1) + 1 for x in v)
        if max(f) <= n and is_parking(f):
            return f
    raise AssertionError("no rotation parks")


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
