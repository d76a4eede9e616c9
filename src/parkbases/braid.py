"""
Braid mutations on bases, the induced action on parking functions and
diagrams, orbit machinery, and staircase Young-diagram flips.

Generators are 1-based: for k in 1..n-1 the left mutation alpha_k replaces the
pair (a_k, a_{k+1}) by (a_{k+1}, a_k - s * a_{k+1}) and the right mutation
beta_k replaces it by (a_{k+1} - s * a_k, a_k), where s is the Seifert pairing
of (a_k, a_{k+1}).  A mutation result that comes out negative is immediately
replaced by its positive version, so bases always consist of positive roots.
beta_k is the inverse of alpha_k; the generators satisfy the braid relations.

A braid word is a sequence of nonzero letters, +k for alpha_k and -k for
beta_k, applied left to right.  `apply_word` is the one place the rule is
written, once for both letters: the positive versions of a_k - s * a_{k+1}
and a_{k+1} - s * a_k are the same root c, so alpha_k writes (a_{k+1}, c) and
beta_k writes (c, a_k).  `mutate` applies the one-letter word (k,) or (-k,),
and the orbit and parking helpers read a mutated pair off a two-root word.
`orbit_graph` runs that word once per ordered pair of arcs, not once per edge:
the new left ends of an alpha edge depend only on the pair it moves, so one
table per call, keyed by the pair's two arc indices, serves every edge.
"""
from __future__ import annotations

import dataclasses
import itertools
import sys
from typing import Iterable, Iterator, Literal, Sequence

from .bijection import _checked_stops, initial_vector, ray_stops, reconstruct
from .dbasis import _point_bases
from .parking import ParkingDiagram, _diagram, from_diagram
from .roots import Basis, Root, _check_ranks, seifert

Direction = Literal["left", "right"]

# A rank is the length of a sequence, below sys.maxsize, so a letter of more digits
# (leading zeros aside) is out of range for every rank.
_LETTER_DIGITS = len(str(sys.maxsize))


def parse_word(text: str) -> tuple[int, ...]:
    """Parse a braid word from whitespace-separated letters, each an optional sign and ASCII digits.

    Any other letter raises ValueError naming its 1-based position and its text, and so
    does a zero letter once every letter has been read.  A letter of more digits than
    any rank has raises ValueError naming its position and its number of digits.

    >>> parse_word("1 -2 +1")
    (1, -2, 1)
    """
    letters = []
    for position, token in enumerate(text.split(), 1):
        sign, digits = (token[0], token[1:]) if token[0] in "+-" else ("", token)
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"letter {position} ({token!r}) is not an integer")
        digits = digits.lstrip("0") or "0"
        if len(digits) > _LETTER_DIGITS:  # int() refuses a long enough text with its own message
            raise ValueError(f"letter {position} ({len(digits)} digits) is out of range for every rank")
        letters.append(int(sign + digits))
    if 0 in letters:
        raise ValueError("braid letters must be nonzero")
    return tuple(letters)


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range 1..{n - 1}")


def _sign(direction: Direction) -> int:
    """The sign of a direction's letter: +1 for alpha_k ("left"), -1 for beta_k ("right")."""
    if direction == "left":
        return 1
    if direction == "right":
        return -1
    raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")


def mutate(basis: Sequence[Root], k: int, direction: Direction) -> Basis:
    """Apply alpha_k (direction "left") or beta_k ("right") to a basis.

    >>> from .roots import simple_roots
    >>> [str(r) for r in mutate(simple_roots(2), 1, "left")]
    ['e[2,2]', 'e[1,2]']
    """
    basis = tuple(basis)
    _check_k(len(basis), k)
    return apply_word(basis, (_sign(direction) * k,))


def mutate_parking(f: Sequence[int], k: int, direction: Direction) -> tuple[int, ...]:
    """The braid action on parking functions, conjugated through the bijection.

    The generator moves only roots k and k+1, so only those two are built, from f and
    its ray stops, and the one-letter word runs on that pair, as in `orbit_graph`.
    Errors come in the order of `initial_vector(mutate(reconstruct(f), k, direction))`.

    Read on f, the move is `mutate_diagram`'s local rule.  With (a, b) = (f_k, f_{k+1})
    and t_k, t_{k+1} their ray stops, alpha_k gives (a, t_{k+1} + 1) when a == b, else
    (b, b) when t_k == t_{k+1}, else (b, a); beta_k gives (t_{k+1} + 1, a) when a == b,
    else (a, a) when t_k == b - 1, else (b, a).  Per k and direction, (n-1)(n+1)^(n-2)
    parking functions swap and (n+1)^(n-2) take each other form (tested for n <= 6).
    """
    f, stops = _checked_stops(f)
    n = len(f)
    _check_k(n, k)
    a, b = apply_word((Root(f[k - 1], stops[k - 1], n), Root(f[k], stops[k], n)), (_sign(direction),))
    return f[: k - 1] + (a.lo, b.lo) + f[k + 1 :]


def generator_order(basis: Sequence[Root], k: int) -> int:
    """Orbit length (2 or 3) of alpha_k on the given basis.

    The orbit has length 2 exactly when the adjacent pair is Seifert-orthogonal
    both ways, and length 3 otherwise.  For every k, the length is 3 on exactly
    3(n+1)^(n-2) bases of rank n >= 2 and 2 on the other (n-2)(n+1)^(n-2), so alpha_k
    has (n+1)^(n-2) orbits of length 3 and (n-2)(n+1)^(n-2)/2 of length 2.  Read the
    roots as transpositions (lo - 1, hi), whose product is (0 1 ... n): the length is 3
    exactly when roots k and k+1 share a point, so that their product is a 3-cycle.
    Goulden and Jackson (Europ. J. Combin. 13, 1992) count the minimal factorizations
    of an N-cycle into m cycles of given lengths as N^(m-1); N = n+1 and m = n-1 give
    (n+1)^(n-2), and a 3-cycle splits into an ordered pair of transpositions in 3 ways.
    `verify.check_braid_axioms` tallies the counts exhaustively.
    """
    basis = tuple(basis)
    _check_k(len(basis), k)
    a, b = basis[k - 1], basis[k]
    return 2 if seifert(a, b) == 0 and seifert(b, a) == 0 else 3


def apply_word(basis: Sequence[Root], word: Iterable[int]) -> Basis:
    """Apply a braid word left to right (+k: alpha_k, -k: beta_k), in O(n + L) for L letters.

    Every letter is range-checked before any is applied, in C by min, max and
    a search for 0; only a word that fails that test is checked letter by
    letter, to report its first bad letter.  Then one loop rewrites the pair
    (a, b) = (a_k, a_{k+1}) in place.  With s = seifert(a, b), alpha_k gives
    (b, c) and beta_k gives (c, a), where c is the positive version of a - s*b;
    it is also the positive version of b - s*a, since the two differ by the
    factor -s when s = ±1.  When s = 0 both letters swap the pair.  One case
    table on the four endpoints, read once per letter, gives s and c together:

    - s = 1 (b.lo <= a.lo <= b.hi <= a.hi): c = [b.lo, a.lo - 1] when the right
      ends agree, [b.hi + 1, a.hi] when the left ends agree, and no root when
      a == b or the two cross;
    - s = -1 (a.lo < b.lo <= a.hi + 1 <= b.hi): c = [a.lo, b.hi] when
      a.hi + 1 == b.lo, and no root when they overlap.

    Read as arcs (lo - 1, hi), c is the arc between the other ends of two arcs
    that share exactly one end.  No root raises RuntimeError, "a - s*b is not a
    signed root" for alpha_k and "b - s*a ..." for beta_k.  The pair's ranks are
    compared inline, `_check_ranks` wording only a mismatch.  Over ten random
    bases and 2n-letter words, a word takes 37-54 µs at n = 64 and 217-247 µs
    at n = 400 (in-process best of 15, Python 3.11 on a 2-CPU Xeon).
    """
    word = tuple(word)
    current = list(basis)
    n = len(current)
    if word and not (min(word) > -n and max(word) < n and 0 not in word):
        for letter in word:
            _check_k(n, abs(letter))
    for letter in word:
        k = letter if letter > 0 else -letter
        a, b = current[k - 1], current[k]
        if a.rank != b.rank:
            _check_ranks(a, b)
        a_lo, a_hi, b_lo, b_hi = a.lo, a.hi, b.lo, b.hi
        if b_lo <= a_lo <= b_hi <= a_hi:
            if a_hi == b_hi and a_lo != b_lo:
                c = Root(b_lo, a_lo - 1, a.rank)
            elif a_lo == b_lo and a_hi != b_hi:
                c = Root(b_hi + 1, a_hi, a.rank)
            else:
                raise _no_root(letter, a, 1, b)
        elif a_lo < b_lo <= a_hi + 1 <= b_hi:
            if a_hi + 1 == b_lo:
                c = Root(a_lo, b_hi, a.rank)
            else:
                raise _no_root(letter, a, -1, b)
        else:
            current[k - 1], current[k] = b, a
            continue
        if letter > 0:
            current[k - 1], current[k] = b, c
        else:
            current[k - 1], current[k] = c, a
    return tuple(current)


def _no_root(letter: int, a: Root, s: int, b: Root) -> RuntimeError:
    """The error for a pair whose mutated root a - s*b (alpha) or b - s*a (beta) is not a root."""
    if letter < 0:
        a, b = b, a
    return RuntimeError(f"{a} - {s}*{b} is not a signed root")


def apply_word_parking(f: Sequence[int], word: Sequence[int]) -> tuple[int, ...]:
    """`apply_word`, conjugated to parking functions."""
    return initial_vector(apply_word(reconstruct(f), word))


def mutate_diagram(diagram: ParkingDiagram, k: int, direction: Direction) -> ParkingDiagram:
    """The braid action computed directly on the staircase diagram.

    This is an independent implementation: the adjacent pair (k, k+1) is
    classified purely geometrically via the ray stops, and the new values for
    the labels follow from the drawn surgery rules.  The four configurations:

    - corners P_k, P_{k+1} in the same column (arcs share left ends): alpha
      moves label k+1 to the column where its ray stops; beta moves label k
      there instead, label k+1 taking the old shared value.
    - rays of k and k+1 stop in the same column (arcs share right ends): alpha
      pulls label k back to the column of P_{k+1}; beta swaps the two labels.
    - the ray of k stops in the column of P_{k+1} (arcs touch): alpha swaps;
      beta moves label k+1 onto the column of P_k.
    - otherwise both directions just swap the labels.

    Alpha swaps in the last two, beta in the second and the last.  Beta's test for
    the third never holds in the second: the ray of k+1 stops right of the column
    of P_{k+1}, so the ray of k cannot stop in both.

    Agreement with the algebraic path (`mutate_parking`) is checked
    exhaustively by the test suite.  The new values are the initial vector of the
    mutated basis, so parking, and `parking._diagram` lays out their rows without
    re-checking them; `tests/test_braid.py` holds every output to the full
    `ParkingDiagram` validator, exhaustively for n <= 5 and on random inputs at
    n = 64 and 400.
    """
    f = from_diagram(diagram)
    _check_k(len(f), k)
    left = _sign(direction) == 1
    stops = ray_stops(diagram)
    a, b = f[k - 1], f[k]
    g = list(f)
    if a == b:  # P_k and P_{k+1} share a column
        c = stops[k] + 1
        g[k - 1], g[k] = (a, c) if left else (c, a)
    elif left and stops[k - 1] == stops[k]:  # the two rays stop in one column
        g[k - 1] = b
    elif not left and stops[k - 1] == b - 1:  # the ray of k stops in the column of P_{k+1}
        g[k] = a
    else:
        g[k - 1], g[k] = b, a
    return _diagram(tuple(g))


@dataclasses.dataclass(frozen=True)
class OrbitGraph:
    """The full action graph of the alpha generators on parking functions."""

    n: int
    nodes: tuple[tuple[int, ...], ...]
    alpha: dict[tuple[tuple[int, ...], int], tuple[int, ...]]

    def edges(self) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
        """All (source, k, target) alpha edges, in deterministic order."""
        for f in self.nodes:
            for k in range(1, self.n):
                yield f, k, self.alpha[(f, k)]


def orbit_graph(n: int) -> OrbitGraph:
    """The action graph of all generators on the parking functions of n cars.

    One enumeration of the bases as tuples of arc indices (`dbasis._point_bases`) yields
    each node f, the left ends of its arcs; the nodes come back sorted, the order of
    `parking_functions(n)`.  alpha_k changes only roots k and k+1, and their new left
    ends depend on that ordered pair of arcs alone, so the call keeps an alpha table per
    arc pair: each of its at most (n(n+1)/2)^2 entries is one two-root `apply_word`.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    points = tuple(range(n + 1))
    index = {arc: k for k, arc in enumerate(itertools.combinations(points, 2))}
    roots = [Root(a + 1, b, n) for a, b in index]
    lo = [r.lo for r in roots]
    moved: dict[tuple[int, int], tuple[int, int]] = {}  # arc pair -> the pair's left ends after alpha
    nodes = []
    alpha: dict[tuple[tuple[int, ...], int], tuple[int, ...]] = {}
    for basis in _point_bases(points, lambda a, b: index[a, b]):
        f = tuple(map(lo.__getitem__, basis))
        nodes.append(f)
        for k in range(1, n):
            pair = basis[k - 1], basis[k]
            ends = moved.get(pair)
            if ends is None:
                b, c = apply_word((roots[pair[0]], roots[pair[1]]), (1,))
                ends = moved[pair] = (b.lo, c.lo)
            alpha[(f, k)] = f[: k - 1] + ends + f[k + 1 :]
    return OrbitGraph(n, tuple(sorted(nodes)), alpha)


Young = tuple[int, ...]


def validate_young(lengths: Sequence[int], n: int) -> Young:
    """Check that `lengths` is a staircase Young diagram (top-down rows).

    The canonical form has exactly n weakly decreasing entries with row d of
    length at most n - d.
    """
    mu = tuple(lengths)
    if len(mu) != n:
        raise ValueError(f"expected {n} rows, got {len(mu)}")
    for d in range(1, n + 1):
        if not 0 <= mu[d - 1] <= n - d:
            raise ValueError(f"row {d} of length {mu[d - 1]} leaves the staircase")
        if d > 1 and mu[d - 1] > mu[d - 2]:
            raise ValueError("row lengths must decrease weakly downwards")
    return mu


def young_of_diagram(diagram: ParkingDiagram) -> Young:
    """The unlabelled staircase Young diagram underlying a parking diagram."""
    return tuple(reversed(diagram.lengths))


def flip_row(young: Sequence[int], k: int) -> Young:
    """Resize row k of a staircase Young diagram by a diagonal walk.

    Starting at the SE corner (mu_k, -k), walk along the line x - y = mu_k + k:
    south-west when row k is strictly longer than row k+1, north-east when
    their lengths are equal.  The walk stops at the first lattice point on the
    diagram boundary or on a coordinate axis; its x-coordinate is the new row
    length, and the resized row is re-inserted in sorted position.  At height
    -d the boundary runs from x = mu_{d+1} to x = mu_d, with mu_{n+1} = 0.

    Row n is degenerate (its walk runs along the staircase hypotenuse) and
    flips to the diagram itself.  The re-sorted rows are returned without a
    second `validate_young`; `tests/test_braid.py` runs it on every flip for
    n <= 6 and on random diagrams at n = 64 and 400.
    """
    n = len(young)
    mu = validate_young(young, n)
    if not 1 <= k <= n:
        raise ValueError(f"row index {k} out of range 1..{n}")
    if k == n:
        return mu
    row = mu + (0,)  # row[d] is mu_{d+1}
    step = -1 if mu[k - 1] > mu[k] else 1
    x, d = mu[k - 1], k
    while True:
        x += step
        d -= step
        if x == 0 or d == 0 or row[d] <= x <= row[d - 1]:
            break
    return tuple(sorted(mu[: k - 1] + mu[k:] + (x,), reverse=True))
