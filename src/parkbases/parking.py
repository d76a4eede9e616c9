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
- `parking_functions` lists each head f[:n-2] once, with its two-entry tails.  Park
  the head's cars in order, each in the lowest empty spot at or above its value:
  the head extends to a parking function exactly when every car parks.  Two
  spots b < a stay empty, and the last two cars must take them, so the valid
  tails (v, w) are exactly those with v, w <= a and min(v, w) <= b.  In counts,
  b is the least k with #{i : f(i) <= k} <= k - 1, and a the least k with
  #{i : f(i) <= k} <= k - 2.  `tests/test_parking.py` checks the rule against
  brute force for n <= 7.
"""
from __future__ import annotations

import dataclasses
import itertools
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

    There are (n+1)^(n-1) of them: each head f[:n-2] of `_head_walk` followed by each
    of its two-entry `_tails`.

    >>> list(parking_functions(2))
    [(1, 1), (1, 2), (2, 1)]
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:  # no two-entry tail
        yield (1,)
        return
    for head, b, a in _head_walk(n, (), [(v,) for v in range(n + 1)]):
        yield from map(head.__add__, _tails(b, a))


def _head_walk(n: int, start, pieces):
    """Each head f[:n-2] of a parking function on n >= 2 cars, lexicographically, as (text, b, a).

    The text is `start` + pieces[f[0]] + ... + pieces[f[n-3]] (tuples or strings), and b < a
    are the two spots the head's cars leave empty, the rule of `_tails`.  The walk is an
    odometer: each step raises the rightmost entry that can still grow and resets the ones
    after it to 1.  An entry can grow while it is below the highest spot left empty by the
    cars before it.  Those spots are kept per level as a bit mask, and a car takes the lowest
    empty spot at or above its value.  Each level's text is made once, from the one before
    it; a run of 1s is added in one repetition of pieces[1] when a level after it is needed,
    so the first head costs O(n), not O(n^2).

    >>> [(head, b, a) for head, b, a in _head_walk(3, "", "0123")]
    [('1', 2, 3), ('2', 1, 3), ('3', 1, 2)]
    """
    m = n - 2
    f = [1] * m
    # free[j] has bit k set when the cars of f[:j] leave spot k (1 <= k <= n) empty.
    free = [(1 << (n + 1)) - 2] * (m + 1)
    for j in range(m):
        free[j + 1] = free[j] & (free[j] - 1)  # a 1 takes the lowest empty spot
    text = [start] * (m + 1)  # text[j] is the text of f[:j] at each level j in `known`
    known = [0]  # increasing; between two of its levels, f holds 1s
    while True:
        if (i := known[-1]) < m:
            text[m] = text[i] + pieces[1] * (m - i)
            known.append(m)
        spots = free[m]
        yield text[m], (spots & -spots).bit_length() - 1, spots.bit_length() - 1
        j = m - 1
        while j >= 0 and f[j] >= free[j].bit_length() - 1:
            f[j] = 1
            j -= 1
        if j < 0:
            return
        while known[-1] > j:
            known.pop()
        if (i := known[-1]) < j:
            text[j] = text[i] + pieces[1] * (j - i)
            known.append(j)
        v = f[j] = f[j] + 1
        above = free[j] >> v << v  # the empty spots >= v; the car takes the lowest
        free[j + 1] = spots = free[j] ^ (above & -above)
        text[j + 1] = text[j] + pieces[v]
        known.append(j + 1)
        for i in range(j + 1, m):
            free[i + 1] = spots = spots & (spots - 1)


def _tails(b: int, a: int) -> Iterator[tuple[int, int]]:
    """The valid last two entries (v, w) after a head leaving the spots b < a empty, lexicographically.

    They are the pairs with v, w <= a and min(v, w) <= b (module docstring).

    >>> list(_tails(1, 3))
    [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
    """
    low, high = range(1, b + 1), range(b + 1, a + 1)
    return itertools.chain(itertools.product(low, range(1, a + 1)), itertools.product(high, low))


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
