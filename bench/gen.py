"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a `random.Random`, so one seed always
yields the same inputs.  Nothing in this module imports `parkbases`.
"""
from __future__ import annotations

import hashlib
import json
import random


def random_parking(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random parking function of length n, in O(n) time.

    Pollak's cycle lemma (Foata-Riordan 1974): park n cars with preferences v
    in [1..n+1]^n on a circular street of n+1 spots.  Exactly one spot stays
    empty, and exactly one rotation of v mod n+1, the one that moves the empty
    spot to n+1, is a parking function.  Each parking function therefore has
    n+1 preimages among the (n+1)^n vectors, so the draw is uniform.

    The empty spot is the first spot where the running sum of
    (cars preferring the spot - 1) reaches its minimum, which is negative
    because the sum over all n+1 spots is -1.
    """
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
    return tuple((x - empty - 1) % (n + 1) + 1 for x in v)


def is_parking(f) -> bool:
    """The parking condition, written out independently of the library."""
    n = len(f)
    ranked = sorted(f)
    return all(1 <= ranked[i] <= i + 1 for i in range(n))


def random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """A braid word of `length` nonzero letters in +-[1..n-1]."""
    return tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))


def inverse_word(word) -> tuple[int, ...]:
    return tuple(-letter for letter in reversed(word))


def digest(obj) -> str:
    """Short content digest of JSON-serialisable inputs."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
