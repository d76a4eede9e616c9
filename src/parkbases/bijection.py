"""
The initial-vector bijection between bases and parking functions.

`initial_vector` reads off the sequence of left endpoints of a basis; it is a
bijection onto the parking functions, inverted here three ways:

- `reconstruct` builds the roots algebraically, processing labels in order of
  decreasing value (ties by decreasing label) and extending each root as far as
  the supports built so far force it to go.
- `reconstruct_geometric` shoots a slope-1 ray north-east from each SE corner
  P_k of the staircase diagram; the ray passes through corners of smaller
  labels and stops at the first corner with a larger label, at the boundary
  path (read off the row lengths: x <= lengths[q] in row q), or at the x-axis.
  The stopping x-coordinate is the right endpoint.
- `reconstruct_permutation` is the shortcut available when the input is a
  permutation: the right endpoint is the largest j with [f(k), j] contained in
  the first k values.

All three agree everywhere; the test suite checks this exhaustively.
"""
from __future__ import annotations

from typing import Sequence

from .parking import ParkingDiagram, is_parking, to_diagram
from .roots import Basis, Root


def initial_vector(basis: Sequence[Root]) -> tuple[int, ...]:
    """The sequence of left endpoints (a valid parking function on valid bases)."""
    return tuple(r.lo for r in basis)


def reconstruct(f: Sequence[int]) -> Basis:
    """The unique basis whose initial vector is the parking function f.

    Coverage sets are kept as bitmasks over support points 1..n; bit i is set
    when some already-built root covers i.

    >>> [str(r) for r in reconstruct((2, 2, 1))]
    ['e[2,3]', 'e[2,2]', 'e[1,3]']
    """
    f = tuple(f)
    if not is_parking(f):
        raise ValueError(f"{f} is not a parking function")
    n = len(f)
    order = sorted(range(n), key=lambda k: (-f[k], -k))
    roots: list[Root | None] = [None] * n
    masks: list[int] = [0] * n
    built: list[int] = []
    for k in order:
        v = f[k]
        c_mask = 0
        b_mask = 0
        for idx in built:
            if idx > k:
                c_mask |= masks[idx]
            else:
                b_mask |= masks[idx]
        c = v - 1
        j = v
        while j <= n and c_mask & (1 << j):
            c = j
            j += 1
        b = c + 1
        j = c + 2
        while j <= n and b_mask & (1 << j):
            b = j
            j += 1
        assert b <= n, "parking condition guarantees the root stays in range"
        roots[k] = Root(v, b, n)
        masks[k] = ((1 << (b + 1)) - 1) ^ ((1 << v) - 1)
        built.append(k)
    return tuple(roots)  # type: ignore[arg-type]


def ray_stops(diagram: ParkingDiagram) -> tuple[int, ...]:
    """The stopping x-coordinate of the NE ray from each corner P_k.

    Entry k-1 belongs to label k.  The ray from P_k climbs one row q and one
    column x per step and reads the boundary off the row lengths: it passes
    the corner of row q (x == lengths[q]) when labels[q] < k, and otherwise
    stops at the first x <= lengths[q] (a corner with a larger label, or the
    boundary path) or at the x-axis (q == n).  Every corner lies on that path,
    which passes (lengths[p], p - n) in each row.
    """
    n = diagram.n
    labels, lengths = diagram.labels, diagram.lengths
    stops = [0] * n
    for p, k in enumerate(labels):
        x, q = lengths[p] + 1, p + 1
        while q < n and (x > lengths[q] or (x == lengths[q] and labels[q] < k)):
            x += 1
            q += 1
        assert x <= n
        stops[k - 1] = x
    return tuple(stops)


def reconstruct_geometric(f: Sequence[int]) -> Basis:
    """Reconstruct a basis by ray-shooting on the staircase diagram of f.

    Raises ValueError, through `to_diagram`, unless f is a parking function.
    """
    values = tuple(f)
    n = len(values)
    stops = ray_stops(to_diagram(values))
    return tuple(Root(values[k], stops[k], n) for k in range(n))


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
