"""
Cross-checking harness: every identity the library promises, re-verified at a
requested size with independent computations where they exist, reported as
machine-readable pass/fail entries.

`run_suite(n, suite)` returns a dict report; `suite` is one of "all",
"bijection", "braid", "quiver" or "noncrossing".  Failures carry a
counterexample payload.  The harness can also be run with `inject_fault=True`,
which flips seifert(e_1, e_1) on the library side of `seifert_bilinear` and
`hom_oracle`: "all", "bijection" and "quiver" then fail at every n, and the
other suites, which read no flipped value, are rejected with ValueError.  This
self-tests that the harness checks something.  The flag lives in a context
variable set for the duration of one `run_suite` call, so runs nest and run in
parallel threads without mixing.

Each per-object identity is a predicate `(obj, n)` over a source, which pairs
the objects of size n with the counterexample fields naming one.  The source
makes the predicate a check `(n) -> None`: a false return means the identity
holds on obj, and a true one raises CheckFailure with the object's fields,
followed by the returned ones when it is a dict.  Both read library functions
through their modules at call time.
"""
from __future__ import annotations

import collections
import contextvars
import functools
import itertools
from typing import Callable, Iterable

from . import bijection, braid, dbasis, linalg, noncrossing, parking, quiver, roots

Check = Callable[[int], None]


class CheckFailure(Exception):
    def __init__(self, counterexample):
        super().__init__(str(counterexample))
        self.counterexample = counterexample


def _source(objects: Callable[[int], Iterable], fields: Callable) -> Callable[[Callable], Check]:
    """The source `objects(n)`, named by `fields`: decorates a predicate `(obj, n)` into its check."""
    def check_of(predicate: Callable) -> Check:
        @functools.wraps(predicate)
        def check(n: int) -> None:
            for obj in objects(n):
                if failure := predicate(obj, n):
                    extra = failure if isinstance(failure, dict) else {}
                    raise CheckFailure({**fields(obj), **extra})
        return check
    return check_of


_PAIRS = _source(lambda n: itertools.product(roots.positive_roots(n), repeat=2),
                 lambda pair: {"a": pair[0].as_pair(), "b": pair[1].as_pair()})
_BASES = _source(lambda n: dbasis.distinguished_bases(n),
                 lambda basis: {"basis": [r.as_pair() for r in basis]})
_PARKING = _source(lambda n: parking.parking_functions(n), lambda f: {"f": list(f)})
_NONDECREASING = _source(lambda n: parking.nondecreasing_parking_functions(n), lambda f: {"f": list(f)})
_PERMUTATIONS = _source(lambda n: itertools.permutations(range(1, n + 1)), lambda s: {"sigma": list(s)})
# Every root tuple of rank min(n, 4); larger ranks are covered through the bases.
_TUPLES = _source(lambda n: itertools.product(roots.positive_roots(min(n, 4)), repeat=min(n, 4)),
                  lambda tup: {"roots": [r.as_pair() for r in tup]})
_LISTED_CHAINS = _source(  # basis k beside chain k of the listing
    lambda n: zip(dbasis.distinguished_bases(n), noncrossing.maximal_chains(n), strict=True),
    lambda listed: {"basis": [r.as_pair() for r in listed[0]]})


def bilinear_seifert(a: roots.Root, b: roots.Root) -> int:
    """Independent Seifert values: expand bilinearly over simple-root pairs."""
    total = 0
    for i in a.support():
        for j in b.support():
            if i == j:
                total += 1
            elif j == i + 1:
                total -= 1
    return total


_FAULTY: contextvars.ContextVar[bool] = contextvars.ContextVar("faulty", default=False)
_FAULT_SUITES = ("all", "bijection", "quiver")  # the suites that read `_seifert`


def _seifert(a: roots.Root, b: roots.Root) -> int:
    value = roots.seifert(a, b)
    if _FAULTY.get() and (a.lo, a.hi, b.lo, b.hi) == (1, 1, 1, 1):
        return -value
    return value


@_PAIRS
def check_seifert_bilinear(pair, n):
    return _seifert(*pair) != bilinear_seifert(*pair)


@_PAIRS
def check_seifert_cases_exclusive(pair, n):
    # The two cases of the Seifert table: Hom and Ext^1 are never both nonzero.
    v, w = quiver.IntervalModule(pair[0]), quiver.IntervalModule(pair[1])
    return quiver.hom_dim(v, w) and quiver.ext_dim(v, w)


def _bilinear_cartan(a: roots.Root, b: roots.Root) -> int:
    """Independent Cartan values: 2 per shared simple root, -1 per adjacent pair."""
    return sum({0: 2, 1: -1}.get(abs(i - j), 0) for i in a.support() for j in b.support())


@_PAIRS
def check_cartan(pair, n):
    return roots.cartan(*pair) != _bilinear_cartan(*pair)


def check_counts(n: int) -> None:
    pf = sum(1 for _ in parking.parking_functions(n))
    bases = len(set(dbasis.distinguished_bases(n)))  # distinct bases
    if not pf == bases == dbasis.basis_count(n):
        raise CheckFailure({"parking": pf, "bases": bases, "expected": dbasis.basis_count(n)})


@_BASES
def _returns_from_its_vector(basis, n):
    return bijection.reconstruct(bijection.initial_vector(basis)) != basis


def check_round_trips(n: int) -> None:
    # Each basis returns from its initial vector, and the vectors are all of PF_n.
    _returns_from_its_vector(n)
    vectors = {bijection.initial_vector(basis) for basis in dbasis.distinguished_bases(n)}
    for f in parking.parking_functions(n):
        if f not in vectors:
            raise CheckFailure({"f": list(f)})


def _algebraic_basis(f: tuple[int, ...]) -> tuple[roots.Root, ...]:
    """Independent inverse of the initial vector: by decreasing (value, label), root k
    extends from f(k) over the points that roots of larger labels cover, then of smaller."""
    n = len(f)
    masks = [0] * n  # the points of each root built so far, as bitmasks
    for k in sorted(range(n), key=lambda k: (-f[k], -k)):
        later = functools.reduce(int.__or__, masks[k + 1 :], 0)
        earlier = functools.reduce(int.__or__, masks[:k], 0)
        c = f[k] - 1
        while later >> (c + 1) & 1:
            c += 1
        b = c + 1
        while earlier >> (b + 1) & 1:
            b += 1
        masks[k] = (1 << (b + 1)) - (1 << f[k])
    return tuple(roots.Root(f[k], masks[k].bit_length() - 1, n) for k in range(n))


@_PARKING
def check_geometric(f, n):
    return bijection.reconstruct_geometric(f) != _algebraic_basis(f)


@_PERMUTATIONS
def check_permutation_shortcut(sigma, n):
    return bijection.reconstruct_permutation(sigma) != bijection.reconstruct(sigma)


@_BASES
def check_gap_single(basis, n):
    for i in range(1, n + 1):
        dbasis.gap(basis, i)  # raises unless a single point


@_BASES
def check_validate_accepts(basis, n):
    dbasis.validate_basis(basis, n)


@_BASES
def _braid_axioms_hold(basis, n):
    lefts = {}
    for k in range(1, n):
        left = lefts[k] = braid.mutate(basis, k, "left")
        dbasis.validate_basis(left, n)
        if braid.mutate(left, k, "right") != basis or braid.apply_word(basis, (-k, k)) != basis:
            return {"k": k}
        order = braid.generator_order(basis, k)
        current, length = left, 1
        while current != basis and length <= order:
            current = braid.mutate(current, k, "left")
            length += 1
        if order not in (2, 3) or length != order:
            return {"k": k, "order": order}
    for k in range(1, n - 1):
        if braid.apply_word(lefts[k], (k + 1, k)) != braid.apply_word(lefts[k + 1], (k, k + 1)):
            return {"k": k}
    for k, m in itertools.combinations(range(1, n), 2):
        if m - k > 1 and braid.mutate(lefts[k], m, "left") != braid.mutate(lefts[m], k, "left"):
            return {"k": k, "m": m}


def check_braid_axioms(n: int) -> None:
    # The axioms on every basis, then the orbit lengths tallied: for every k, alpha_k has
    # order 3 on exactly 3(n+1)^(n-2) bases and 2 on the rest (`braid.generator_order`).
    _braid_axioms_hold(n)
    order_3 = collections.Counter(
        k for basis in dbasis.distinguished_bases(n) for k in range(1, n)
        if braid.generator_order(basis, k) == 3
    )
    for k in range(1, n):
        if order_3[k] != (expected := 3 * (n + 1) ** (n - 2)):
            raise CheckFailure({"k": k, "order_3": order_3[k], "expected": expected})


@_PARKING
def check_diagram_mutation(f, n):
    diagram, basis = parking.to_diagram(f), bijection.reconstruct(f)
    for k, direction in itertools.product(range(1, n), ("left", "right")):
        via_diagram = parking.from_diagram(braid.mutate_diagram(diagram, k, direction))
        if via_diagram != bijection.initial_vector(braid.mutate(basis, k, direction)):
            return {"k": k, "direction": direction}


@_NONDECREASING
def check_flips(f, n):
    young = braid.young_of_diagram(parking.to_diagram(f))
    neighbours = {braid.flip_row(young, k) for k in range(1, n + 1)} | {young}
    basis = bijection.reconstruct(f)
    for k, direction in itertools.product(range(1, n), ("left", "right")):
        moved = bijection.initial_vector(braid.mutate(basis, k, direction))
        if braid.young_of_diagram(parking.to_diagram(moved)) not in neighbours:
            return {"k": k, "direction": direction}


def _ext_dim_oracle(v: quiver.IntervalModule, w: quiver.IntervalModule) -> int:
    """Independent dim Ext^1(v, w): intertwiner target coordinates minus the map's rank."""
    rows, _ = quiver._intertwiner(v, w)
    return len(rows) - linalg.rank(rows)


@_PAIRS
def check_hom_oracle(pair, n):
    # Hom, Ext^1 and the Euler identity Seifert = Hom - Ext^1 against the intertwiner map.
    a, b = pair
    v, w = quiver.IntervalModule(a), quiver.IntervalModule(b)
    hom, ext = quiver.hom_dim_oracle(v, w), _ext_dim_oracle(v, w)
    return quiver.hom_dim(v, w) != hom or quiver.ext_dim(v, w) != ext or _seifert(a, b) != hom - ext


@_PAIRS
def check_ext_formula(pair, n):
    a, b = pair
    if roots.seifert(b, a) == 0:
        expected = 1 if a.hi + 1 == b.lo else 0
        return quiver.ext_dim(quiver.IntervalModule(a), quiver.IntervalModule(b)) != expected


def _accepts(check: Callable, arg) -> bool:
    try:
        check(arg)
        return True
    except dbasis.BasisError:
        return False


def _selected_alike(tup, n):
    # Exceptional sequences, triangular Seifert bases (`validate_basis`), the pairwise arc
    # rules (1)-(3) read directly and `from_arcs` (the cycle product) select the same tuples.
    valid = dbasis.is_basis(tup, len(tup))
    if quiver.is_exceptional_sequence(quiver.modules_of(tup)) != valid:
        return True
    diagram = dbasis.to_arcs(tup)
    if _accepts(dbasis._check_arcs, diagram.arcs) != valid:
        return {"arc_rules": not valid}
    if _accepts(dbasis.from_arcs, diagram) != valid:
        return {"from_arcs": not valid}


def check_exceptional_matches_validate(n: int) -> None:
    _TUPLES(_selected_alike)(n)
    _BASES(_selected_alike)(n)


@_BASES
def check_hom_ext_table(basis, n):
    # The one-pass table against per-cell hom_dim/ext_dim and the diagram reading.
    mods = quiver.modules_of(basis)
    table = quiver.hom_ext_table(mods)
    cells = (
        tuple(tuple(quiver.hom_dim(a, b) for b in mods) for a in mods),
        tuple(tuple(quiver.ext_dim(a, b) for b in mods) for a in mods),
    )
    if table != cells:
        return {"reading": "cells"}
    if quiver.diagram_hom_ext(bijection.initial_vector(basis)) != table:
        return {"reading": "diagram"}


def check_nondecreasing_families(n: int) -> None:
    nd_sets = set()
    nomono_sets = set()
    for basis in dbasis.distinguished_bases(n):
        arcs = frozenset(dbasis.to_arcs(basis).arcs)
        levels = bijection.initial_vector(basis)
        nomono = quiver.is_nondecreasing_collection(quiver.modules_of(basis))
        distinct_right = len({r for _, r in arcs}) == n
        if nomono != distinct_right:
            raise CheckFailure({"basis": [r.as_pair() for r in basis]})
        if all(levels[i] <= levels[i + 1] for i in range(n - 1)):
            if not nomono:
                raise CheckFailure({"basis": [r.as_pair() for r in basis]})
            nd_sets.add(arcs)
        if nomono:
            nomono_sets.add(arcs)
    image = {frozenset(dbasis.to_arcs(bijection.reconstruct(f)).arcs)
             for f in parking.nondecreasing_parking_functions(n)}
    if not (len(nd_sets) == parking.catalan(n) and nd_sets == nomono_sets == image):
        raise CheckFailure({"nd": len(nd_sets), "nomono": len(nomono_sets), "image": len(image)})


def _chain_count(n: int) -> int:
    """The number of maximal chains of non-crossing partitions of {0, ..., n}, from the definition.

    From the singletons, every join of two blocks that `noncrossing.partition` accepts is a
    step up; the chains above each partition are counted once and reused.
    """
    @functools.cache
    def above(blocks: tuple) -> int:
        if len(blocks) == 1:
            return 1
        count = 0
        for b, b_prime in itertools.combinations(blocks, 2):
            rest = [c for c in blocks if c is not b and c is not b_prime]
            try:
                joined = noncrossing.partition(rest + [b + b_prime])
            except ValueError:  # the join crosses a third block
                continue
            count += above(joined.blocks)
        return count

    return above(noncrossing.singletons(n).blocks)


def check_chain_counts(n: int) -> None:
    # The enumeration reads the chains off the bases; the count comes from the joins themselves.
    chains = list(noncrossing.maximal_chains(n))
    counts = {"count": len(chains), "distinct": len(set(chains)), "joins": _chain_count(n)}
    if set(counts.values()) != {dbasis.basis_count(n)}:
        raise CheckFailure({**counts, "expected": dbasis.basis_count(n)})
    shifted = set()
    for chain in chains:
        labels = noncrossing.stanley_labels(chain)
        # Replayed from the merges, which the library accepts by their cycle product; rebuilding
        # each partition runs the crossing scan that the replay skips.
        parts = [noncrossing.NCPartition(p.blocks) for p in chain.partitions]
        for step, (lower, upper) in enumerate(zip(parts, parts[1:])):
            # The label rule read literally: the largest i in B below every element of B'.
            b, b_prime = noncrossing.merge_of(lower, upper)
            if labels[step] != max((i for i in b if all(i < x for x in b_prime)), default=None):
                raise CheckFailure({"chain": [p.blocks for p in parts], "step": step + 1})
        shifted.add(tuple(v + 1 for v in labels))
    if shifted != set(parking.parking_functions(n)):
        raise CheckFailure({"labels": len(shifted)})


def _arc_components(basis: roots.Basis) -> list[tuple[tuple[int, ...], ...]]:
    """For j = 0..n, the connected components of the first j arcs (lo - 1, hi), sorted by minimum."""
    component = {x: (x,) for x in range(len(basis) + 1)}
    parts = [tuple(component.values())]
    for r in basis:
        joined = tuple(sorted({*component[r.lo - 1], *component[r.hi]}))
        component.update(dict.fromkeys(joined, joined))
        parts.append(tuple(sorted(set(component.values()))))
    return parts


@_LISTED_CHAINS
def check_chain_identity(listed, n):
    # Chain k of the enumeration is the chain of basis k, so its content and its order are both
    # checked; and, as the paper states it, its partition j is the components of the first j arcs.
    basis, chain_k = listed
    chain = noncrossing.partition_chain(basis)
    blocks = [p.blocks for p in chain_k.partitions]
    if chain_k != chain or blocks != _arc_components(basis):
        return {"chain": blocks}
    labels = noncrossing.stanley_labels(chain)
    if tuple(v + 1 for v in labels) != bijection.initial_vector(basis):
        return True
    return noncrossing.chain_to_basis(chain) != basis


SUITES: dict[str, list[tuple[str, Check]]] = {
    "bijection": [
        ("seifert_bilinear", check_seifert_bilinear),
        ("seifert_cases_exclusive", check_seifert_cases_exclusive),
        ("cartan_symmetric", check_cartan),
        ("counts", check_counts),
        ("round_trips", check_round_trips),
        ("geometric_equals_algebraic", check_geometric),
        ("permutation_shortcut", check_permutation_shortcut),
        ("gap_single_point", check_gap_single),
        ("validate_accepts_enumeration", check_validate_accepts),
    ],
    "braid": [
        ("braid_axioms", check_braid_axioms),
        ("diagram_mutation", check_diagram_mutation),
        ("young_flips", check_flips),
    ],
    "quiver": [
        ("hom_oracle", check_hom_oracle),
        ("ext_formula", check_ext_formula),
        ("exceptional_equals_validate", check_exceptional_matches_validate),
        ("hom_ext_table_reading", check_hom_ext_table),
        ("nondecreasing_families", check_nondecreasing_families),
    ],
    "noncrossing": [
        ("chain_counts", check_chain_counts),
        ("chain_identity", check_chain_identity),
    ],
}


def run_suite(n: int, suite: str = "all", inject_fault: bool = False) -> dict:
    """Run one suite (or all) at size n and return the report dict.

    The report has "ok" (bool) and a "checks" list of {name, ok, [error]}.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if inject_fault and suite not in _FAULT_SUITES:
        raise ValueError(f"the injected fault reaches only the suites {_FAULT_SUITES}, not {suite!r}")
    names = list(SUITES) if suite == "all" else [suite]
    checks = [item for name in names for item in SUITES[name]]
    results = []
    token = _FAULTY.set(inject_fault)
    try:
        for name, fn in checks:
            entry: dict = {"name": name}
            try:
                fn(n)
                entry["ok"] = True
            except CheckFailure as failure:
                entry["ok"] = False
                entry["counterexample"] = failure.counterexample
            except Exception as exc:  # noqa: BLE001 - report, never crash the harness
                entry["ok"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            results.append(entry)
    finally:
        _FAULTY.reset(token)
    return {
        "n": n,
        "suite": suite,
        "fault_injected": inject_fault,
        "checks": results,
        "ok": all(entry["ok"] for entry in results),
    }
