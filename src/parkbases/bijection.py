"""
The initial-vector bijection between bases and parking functions.

`initial_vector` reads off the sequence of left endpoints of a basis; it is a
bijection onto the parking functions.  Its inverse shoots a slope-1 ray
north-east from each SE corner P_k of the staircase diagram, through corners of
smaller labels, to the first corner with a larger label, the boundary path or the
x-axis: the stopping x is the right endpoint.  Two ways to invert it:

- `reconstruct` (and `reconstruct_geometric`, which calls it) reads the stops
  off the rows of the diagram of f in one O(n) stack pass; `ray_stops` runs
  the same pass on a diagram it is given;
- `reconstruct_permutation` is the shortcut available when the input is a
  permutation: the right endpoint is the largest j with [f(k), j] contained in
  the first k values.

The stack pass is checked by two independent readings: `verify` keeps the
algebraic construction and the tests the literal ray walk.
"""
from __future__ import annotations

from typing import Sequence

from .parking import ParkingDiagram, _checked, _diagram
from .roots import Basis, Root


def initial_vector(basis: Sequence[Root]) -> tuple[int, ...]:
    """The sequence of left endpoints (a valid parking function on valid bases)."""
    return tuple(r.lo for r in basis)


def _stops(labels: Sequence[int], lengths: Sequence[int]) -> list[int]:
    """The ray stops of the diagram with these bottom-up rows, entry k-1 for label k.

    Along the ray from row p, x - q stays c = lengths[p] - p, and the ray passes row q
    exactly when (lengths[q] - q, labels[q]) < (c, labels[p]).  So it stops at x = q + c
    for the next row q with a greater key (or q = n), which one stack pass finds for all p.
    """
    n = len(labels)
    m = n + 1
    keys = [m] * m  # (lengths[q] - q, labels[q]) packed in one int; keys[n] tops them all
    above = [n] * m  # the stop row of q: after row q, the stack is q, above[q], above[above[q]], ...
    stops = [0] * n
    p = n - 1
    while p >= 0:  # a while loop: at small n, setting up a range costs more than the pass
        label, c = labels[p], lengths[p] - p
        key = keys[p] = c * m + label
        q = p + 1
        while keys[q] < key:
            q = above[q]
        above[p] = q
        stops[label - 1] = q + c
        p -= 1
    return stops


def _checked_stops(f: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """f as a checked parking function, with the ray stop of each label (entry k-1 for label k).

    The stops are read off the rows of the diagram of f, built once by `parking._diagram`.
    """
    f = _checked(f)
    diagram = _diagram(f)
    return f, _stops(diagram.labels, diagram.lengths)


def reconstruct(f: Sequence[int]) -> Basis:
    """The unique basis whose initial vector is the parking function f.

    Root k runs from f(k) to the ray stop of label k (`_checked_stops`).

    >>> [str(r) for r in reconstruct((2, 2, 1))]
    ['e[2,3]', 'e[2,2]', 'e[1,3]']
    """
    f, stops = _checked_stops(f)
    n = len(f)
    return tuple(Root(v, stop, n) for v, stop in zip(f, stops))


def reconstruct_geometric(f: Sequence[int]) -> Basis:
    """`reconstruct` under its ray-shooting name: the same stack pass and the same errors.

    A function of its own rather than a second name for `reconstruct`: `bench/spans.py`
    wraps each function once and names its spans after it, so a shared object would
    leave no `reconstruct_geometric` figures.
    """
    return reconstruct(f)


def ray_stops(diagram: ParkingDiagram) -> tuple[int, ...]:
    """The stopping x-coordinate of the NE ray from each corner P_k.

    Entry k-1 belongs to label k.  The ray from P_k climbs one row q and one
    column x per step and reads the boundary off the row lengths: it passes
    the corner of row q (x == lengths[q]) when labels[q] < k, and otherwise
    stops at the first x <= lengths[q] (a corner with a larger label, or the
    boundary path) or at the x-axis (q == n).  Every corner lies on that path,
    which passes (lengths[p], p - n) in each row.  One stack pass answers all rays.
    """
    return tuple(_stops(diagram.labels, diagram.lengths))


def reconstruct_permutation(sigma: Sequence[int]) -> Basis:
    """Reconstruct the basis of a permutation without drawing the diagram.

    The k-th root runs from sigma(k) to the largest j with [sigma(k), j]
    contained in {sigma(1), ..., sigma(k)}.

    >>> [str(r) for r in reconstruct_permutation((3, 1, 2))]
    ['e[3,3]', 'e[1,1]', 'e[2,3]']
    """
    values = tuple(sigma)
    n = len(values)
    if sorted(values) != list(range(1, n + 1)):
        raise ValueError(f"{values} is not a permutation of 1..{n}")
    seen = [False] * (n + 2)
    out: list[Root] = []
    for v in values:
        seen[v] = True
        hi = v
        while hi + 1 <= n and seen[hi + 1]:
            hi += 1
        out.append(Root(v, hi, n))
    return tuple(out)
