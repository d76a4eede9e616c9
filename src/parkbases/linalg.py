"""Small exact linear algebra over the rationals, kept as a test oracle.

Only the Hom and Ext^1 oracles (`quiver.hom_dim_oracle`, `verify`) and the
tests use it, to re-derive by elimination what the library computes in closed
form or on the arc forest.  Matrices are tiny, so Gaussian elimination over
Fractions is adequate and exact.
"""
from __future__ import annotations

from fractions import Fraction


def rank(rows: list[list[int]]) -> int:
    """Rank of the matrix given as a list of rows, computed exactly.

    >>> rank([[1, 0], [0, 1]])
    2
    >>> rank([[1, 1, 0], [0, 1, 1], [1, 2, 1]])
    2
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def nullity(rows: list[list[int]], nvars: int) -> int:
    """Dimension of the solution space of the homogeneous system rows * x = 0.

    >>> nullity([], 0) == nullity([[]], 0) == 0
    True
    """
    return nvars - rank(rows)
