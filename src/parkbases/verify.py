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
"""
from __future__ import annotations

import contextvars
import itertools
from typing import Callable

from . import bijection, braid, dbasis, linalg, noncrossing, parking, quiver, roots

Check = Callable[[int], None]


class CheckFailure(Exception):
    def __init__(self, counterexample):
        super().__init__(str(counterexample))
        self.counterexample = counterexample


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


def check_seifert_bilinear(n: int) -> None:
    for a in roots.positive_roots(n):
        for b in roots.positive_roots(n):
            if _seifert(a, b) != bilinear_seifert(a, b):
                raise CheckFailure({"a": a.as_pair(), "b": b.as_pair()})


def check_seifert_cases_exclusive(n: int) -> None:
    # The two cases of the Seifert table: Hom and Ext^1 are never both nonzero.
    for a in roots.positive_roots(n):
        for b in roots.positive_roots(n):
            v, w = quiver.IntervalModule(a), quiver.IntervalModule(b)
            if quiver.hom_dim(v, w) and quiver.ext_dim(v, w):
                raise CheckFailure({"a": a.as_pair(), "b": b.as_pair()})


def _bilinear_cartan(a: roots.Root, b: roots.Root) -> int:
    """Independent Cartan values: 2 per shared simple root, -1 per adjacent pair."""
    return sum({0: 2, 1: -1}.get(abs(i - j), 0) for i in a.support() for j in b.support())


def check_cartan(n: int) -> None:
    for a in roots.positive_roots(n):
        for b in roots.positive_roots(n):
            if roots.cartan(a, b) != _bilinear_cartan(a, b):
                raise CheckFailure({"a": a.as_pair(), "b": b.as_pair()})


def check_counts(n: int) -> None:
    pf = sum(1 for _ in parking.parking_functions(n))
    bases = len(set(dbasis.distinguished_bases(n)))  # distinct bases
    if not pf == bases == dbasis.basis_count(n):
        raise CheckFailure({"parking": pf, "bases": bases, "expected": dbasis.basis_count(n)})


def check_round_trips(n: int) -> None:
    # Each basis returns from its initial vector, and the vectors are all of PF_n.
    vectors = set()
    for basis in dbasis.distinguished_bases(n):
        vectors.add(f := bijection.initial_vector(basis))
        if bijection.reconstruct(f) != basis:
            raise CheckFailure({"basis": [r.as_pair() for r in basis]})
    for f in parking.parking_functions(n):
        if f not in vectors:
            raise CheckFailure({"f": list(f)})


def check_geometric(n: int) -> None:
    for f in parking.parking_functions(n):
        if bijection.reconstruct_geometric(f) != bijection.reconstruct(f):
            raise CheckFailure({"f": list(f)})


def check_permutation_shortcut(n: int) -> None:
    for sigma in itertools.permutations(range(1, n + 1)):
        if bijection.reconstruct_permutation(sigma) != bijection.reconstruct(sigma):
            raise CheckFailure({"sigma": list(sigma)})


def check_gap_single(n: int) -> None:
    for basis in dbasis.distinguished_bases(n):
        for i in range(1, n + 1):
            dbasis.gap(basis, i)  # raises unless a single point


def check_validate_accepts(n: int) -> None:
    for basis in dbasis.distinguished_bases(n):
        dbasis.validate_basis(basis, n)


def check_braid_axioms(n: int) -> None:
    for basis in dbasis.distinguished_bases(n):
        lefts = {}
        for k in range(1, n):
            left = lefts[k] = braid.mutate(basis, k, "left")
            dbasis.validate_basis(left, n)
            if braid.mutate(left, k, "right") != basis or braid.apply_word(basis, (-k, k)) != basis:
                raise CheckFailure({"basis": [r.as_pair() for r in basis], "k": k})
            order = braid.generator_order(basis, k)
            current, length = left, 1
            while current != basis and length <= order:
                current = braid.mutate(current, k, "left")
                length += 1
            if order not in (2, 3) or length != order:
                raise CheckFailure({"basis": [r.as_pair() for r in basis], "k": k, "order": order})
        for k in range(1, n - 1):
            if braid.apply_word(lefts[k], (k + 1, k)) != braid.apply_word(lefts[k + 1], (k, k + 1)):
                raise CheckFailure({"basis": [r.as_pair() for r in basis], "k": k})
        for k, m in itertools.combinations(range(1, n), 2):
            if m - k > 1 and braid.mutate(lefts[k], m, "left") != braid.mutate(lefts[m], k, "left"):
                raise CheckFailure({"basis": [r.as_pair() for r in basis], "k": k, "m": m})


def check_diagram_mutation(n: int) -> None:
    for f in parking.parking_functions(n):
        diagram = parking.to_diagram(f)
        basis = bijection.reconstruct(f)
        for k in range(1, n):
            for direction in ("left", "right"):
                via_diagram = parking.from_diagram(braid.mutate_diagram(diagram, k, direction))
                if via_diagram != bijection.initial_vector(braid.mutate(basis, k, direction)):
                    raise CheckFailure({"f": list(f), "k": k, "direction": direction})


def check_flips(n: int) -> None:
    for f in parking.nondecreasing_parking_functions(n):
        young = braid.young_of_diagram(parking.to_diagram(f))
        neighbours = {braid.flip_row(young, k) for k in range(1, n + 1)} | {young}
        basis = bijection.reconstruct(f)
        for k in range(1, n):
            for direction in ("left", "right"):
                moved = bijection.initial_vector(braid.mutate(basis, k, direction))
                if braid.young_of_diagram(parking.to_diagram(moved)) not in neighbours:
                    raise CheckFailure({"f": list(f), "k": k, "direction": direction})


def _ext_dim_oracle(v: quiver.IntervalModule, w: quiver.IntervalModule) -> int:
    """Independent dim Ext^1(v, w): intertwiner target coordinates minus the map's rank."""
    rows, _ = quiver._intertwiner(v, w)
    return len(rows) - linalg.rank(rows)


def check_hom_oracle(n: int) -> None:
    # Hom, Ext^1 and the Euler identity Seifert = Hom - Ext^1 against the intertwiner map.
    for a in roots.positive_roots(n):
        for b in roots.positive_roots(n):
            v, w = quiver.IntervalModule(a), quiver.IntervalModule(b)
            hom, ext = quiver.hom_dim_oracle(v, w), _ext_dim_oracle(v, w)
            if quiver.hom_dim(v, w) != hom or quiver.ext_dim(v, w) != ext or _seifert(a, b) != hom - ext:
                raise CheckFailure({"a": a.as_pair(), "b": b.as_pair()})


def check_ext_formula(n: int) -> None:
    for a in roots.positive_roots(n):
        for b in roots.positive_roots(n):
            if roots.seifert(b, a) == 0:
                v, w = quiver.IntervalModule(a), quiver.IntervalModule(b)
                expected = 1 if a.hi + 1 == b.lo else 0
                if quiver.ext_dim(v, w) != expected:
                    raise CheckFailure({"a": a.as_pair(), "b": b.as_pair()})


def _arc_rules_hold(tup: tuple[roots.Root, ...]) -> bool:
    try:
        dbasis.from_arcs(dbasis.to_arcs(tup))
        return True
    except dbasis.BasisError:
        return False


def check_exceptional_matches_validate(n: int) -> None:
    # Exceptional sequences, triangular Seifert bases (`validate_basis`) and the
    # arc rules (1)-(4) of `from_arcs` select the same ordered tuples.
    size = min(n, 4)  # exhaustive tuple space; larger ranks are covered via bases
    all_roots = list(roots.positive_roots(size))
    for tup in itertools.product(all_roots, repeat=size):
        valid = dbasis.is_basis(tup, size)
        if quiver.is_exceptional_sequence(quiver.modules_of(tup)) != valid:
            raise CheckFailure({"roots": [r.as_pair() for r in tup]})
        if _arc_rules_hold(tup) != valid:
            raise CheckFailure({"roots": [r.as_pair() for r in tup], "arc_rules": not valid})
    for basis in dbasis.distinguished_bases(n):
        if not quiver.is_exceptional_sequence(quiver.modules_of(basis)):
            raise CheckFailure({"basis": [r.as_pair() for r in basis]})
        if not _arc_rules_hold(basis):
            raise CheckFailure({"basis": [r.as_pair() for r in basis], "arc_rules": False})


def check_hom_ext_table(n: int) -> None:
    # The one-pass table against per-cell hom_dim/ext_dim and the diagram reading.
    for basis in dbasis.distinguished_bases(n):
        mods = quiver.modules_of(basis)
        table = quiver.hom_ext_table(mods)
        cells = (
            tuple(tuple(quiver.hom_dim(a, b) for b in mods) for a in mods),
            tuple(tuple(quiver.ext_dim(a, b) for b in mods) for a in mods),
        )
        if table != cells:
            raise CheckFailure({"basis": [r.as_pair() for r in basis], "reading": "cells"})
        if quiver.diagram_hom_ext(bijection.initial_vector(basis)) != table:
            raise CheckFailure({"basis": [r.as_pair() for r in basis], "reading": "diagram"})


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


def check_chain_counts(n: int) -> None:
    chains = list(noncrossing.maximal_chains(n))
    if len(chains) != dbasis.basis_count(n) or len(set(chains)) != len(chains):
        raise CheckFailure({"count": len(chains), "expected": dbasis.basis_count(n)})
    shifted = set()
    for chain in chains:
        labels = noncrossing.stanley_labels(chain)
        parts = chain.partitions  # replayed from the merges, each partition validated
        for step, (lower, upper) in enumerate(zip(parts, parts[1:])):
            # The label rule read literally: the largest i in B below every element of B'.
            b, b_prime = noncrossing.merge_of(lower, upper)
            if labels[step] != max((i for i in b if all(i < x for x in b_prime)), default=None):
                raise CheckFailure({"chain": [p.blocks for p in parts], "step": step + 1})
        shifted.add(tuple(v + 1 for v in labels))
    if shifted != set(parking.parking_functions(n)):
        raise CheckFailure({"labels": len(shifted)})


def check_chain_identity(n: int) -> None:
    for basis in dbasis.distinguished_bases(n):
        chain = noncrossing.partition_chain(basis)
        labels = noncrossing.stanley_labels(chain)
        if tuple(v + 1 for v in labels) != bijection.initial_vector(basis):
            raise CheckFailure({"basis": [r.as_pair() for r in basis]})
        if noncrossing.chain_to_basis(chain) != basis:
            raise CheckFailure({"basis": [r.as_pair() for r in basis]})
    for chain in noncrossing.maximal_chains(n):
        if noncrossing.partition_chain(noncrossing.chain_to_basis(chain)) != chain:
            raise CheckFailure({"chain": [p.blocks for p in chain.partitions]})


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
