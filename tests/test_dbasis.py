import hashlib
import itertools
import json
import random
import re
import sys
import threading

import pytest

from parkbases import dbasis, linalg, verify
from parkbases.bijection import initial_vector, reconstruct
from parkbases.dbasis import (
    ArcDiagram,
    BasisError,
    distinguished_bases,
    from_arcs,
    gap,
    is_basis,
    nondecreasing_representative,
    right_orthogonal_basis,
    span,
    to_arcs,
    validate_basis,
)
from parkbases.roots import Root, positive_roots, seifert, simple_roots

from helpers import all_bases, basis_of_pairs, long_families, pattern_point_bases, random_parking

N12_PAIRS = [
    (3, 3), (11, 11), (7, 7), (5, 7), (9, 9), (8, 9),
    (5, 5), (2, 9), (1, 9), (10, 11), (2, 3), (12, 12),
]


def test_validate_accepts_simple_roots():
    assert validate_basis(simple_roots(3)) == simple_roots(3)


def test_validate_reports_seifert_pair():
    with pytest.raises(BasisError) as err:
        validate_basis((Root(1, 1, 2), Root(1, 2, 2)))
    assert err.value.code == "seifert"
    assert err.value.detail == (2, 1)


def test_validate_rejects_crossing_supports():
    with pytest.raises(BasisError):
        validate_basis((Root(1, 2, 3), Root(2, 3, 3)), rank=3)
    with pytest.raises(BasisError) as err:
        validate_basis((Root(1, 2, 3), Root(2, 3, 3), Root(1, 1, 3)))
    assert err.value.code == "seifert"
    assert err.value.detail == (2, 1)


def test_validate_never_accepts_what_the_sweep_rejects(monkeypatch):
    # A cycle product that rejects a valid basis leaves the Seifert scan and the arc rules
    # nothing to name.
    basis = reconstruct((2, 2, 1))
    monkeypatch.setattr(dbasis, "_is_cycle_factorization", lambda arcs, n: False)
    with pytest.raises(RuntimeError, match=r"^the product rejects .*, which the Seifert scan accepts$"):
        validate_basis(basis)
    with pytest.raises(RuntimeError, match=r"^the product rejects .*, which the arc rules accept$"):
        from_arcs(to_arcs(basis))


def _rejection(fn, *args):
    """(code, detail, message) of the BasisError that fn(*args) raises, or None."""
    try:
        fn(*args)
    except BasisError as err:
        return err.code, err.detail, str(err)
    return None


@pytest.mark.parametrize("n", [8, 64])
def test_validate_agrees_with_the_pairwise_scan_on_near_misses(n):
    # The cycle product decides acceptance; every pair's Seifert value, and the pairwise
    # arc rules for `from_arcs`, are the reference.
    rng = random.Random(n)
    for _ in range(100):
        basis = list(reconstruct(random_parking(rng, n)))
        k = rng.randrange(n - 1)
        if rng.random() < 0.5:
            basis[k], basis[k + 1] = basis[k + 1], basis[k]
        else:
            lo = rng.randint(1, n)
            basis[k] = Root(lo, rng.randint(lo, n), n)
        code = _code(basis, n)
        if code != "dependent":
            triangular = all(seifert(basis[j], basis[i]) == 0 for j in range(n) for i in range(j))
            assert (code is None) == triangular, basis
        diagram = to_arcs(basis)
        rules = _rejection(dbasis._check_arcs, diagram.arcs)
        assert _rejection(from_arcs, diagram) == rules, basis
        assert (rules is None) == (code is None), basis


def test_validate_priority_length_first():
    with pytest.raises(BasisError) as err:
        validate_basis((Root(1, 1, 3),))
    assert err.value.code == "length"


def test_validate_rejects_a_root_of_another_rank():
    with pytest.raises(BasisError, match=r"^root e\[1,1\] has rank 3, expected 2$") as err:
        validate_basis((Root(1, 1, 2), Root(1, 1, 3)), 2)
    assert err.value.code == "rank"


def test_from_arcs_rejects_a_wrong_number_of_arcs():
    with pytest.raises(BasisError, match="^expected 3 arcs, got 2$") as err:
        from_arcs(ArcDiagram(((0, 1), (1, 2)), 3))
    assert err.value.code == "length"


def test_validate_accepts_without_the_forest_test(monkeypatch):
    # n transpositions that multiply to (0 1 ... n) form a tree, so the product alone accepts.
    forest = dbasis._first_cycle

    def refuse(arcs):
        raise AssertionError("validate_basis runs the forest test on a basis")

    monkeypatch.setattr(dbasis, "_first_cycle", refuse)
    bases = [basis for n in range(6) for basis in all_bases(n)]
    bases += [reconstruct(f) for f in long_families(3200)]
    for basis in bases:
        assert validate_basis(basis) == basis
        assert forest(tuple((r.lo - 1, r.hi) for r in basis)) is None


def test_to_arcs_skips_the_range_check_on_one_rank(monkeypatch):
    # Each Root already holds 1 <= lo <= hi <= rank, so its arc lies in range.
    def refuse(self):
        raise AssertionError("to_arcs re-checks its arcs")

    monkeypatch.setattr(ArcDiagram, "__post_init__", refuse)
    bases = [basis for n in range(6) for basis in all_bases(n)]
    bases += [reconstruct(f) for f in long_families(3200)]
    diagrams = [to_arcs(basis) for basis in bases]
    monkeypatch.undo()
    for basis, diagram in zip(bases, diagrams):
        assert ArcDiagram(diagram.arcs, diagram.rank) == diagram and from_arcs(diagram) == basis


@pytest.mark.parametrize(
    "roots, message",
    [
        ((Root(1, 1, 1), Root(1, 3, 3)), "arc (0, 3) out of range for rank 1"),
        ((Root(1, 1, 3), Root(1, 2, 3), Root(1, 1, 2)), "rank mismatch: 3 != 2"),
        ((Root(1, 1, 1), Root(1, 1, 2), Root(1, 3, 3)), "arc (0, 3) out of range for rank 1"),
    ],
)
def test_to_arcs_on_mixed_ranks_checks_the_range_first(roots, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        to_arcs(roots)


def test_validate_dependent():
    with pytest.raises(BasisError) as err:
        validate_basis((Root(1, 1, 2), Root(1, 1, 2)))
    assert err.value.code == "dependent"


def test_arcs_of_n12_example():
    basis = basis_of_pairs(N12_PAIRS, 12)
    validate_basis(basis, 12)
    arcs = to_arcs(basis)
    assert arcs.arcs == tuple((lo - 1, hi) for lo, hi in N12_PAIRS)
    assert from_arcs(arcs) == basis


def test_arcs_unit_for_simple_roots():
    arcs = to_arcs(simple_roots(4))
    assert arcs.arcs == ((0, 1), (1, 2), (2, 3), (3, 4))


@pytest.mark.parametrize("n", range(6))
def test_arcs_round_trip_exhaustive(n):
    for basis in all_bases(n):
        assert from_arcs(to_arcs(basis)) == basis


def test_from_arcs_rejects_bad_orderings():
    with pytest.raises(BasisError) as err:
        from_arcs(ArcDiagram(((0, 1), (0, 2)), 2))  # inner arc must come later
    assert err.value.code == "arc1"
    with pytest.raises(BasisError) as err:
        from_arcs(ArcDiagram(((0, 2), (1, 2)), 2))  # inner arc must come earlier
    assert err.value.code == "arc2"
    with pytest.raises(BasisError) as err:
        from_arcs(ArcDiagram(((1, 2), (0, 1)), 2))  # touching arcs out of order
    assert err.value.code == "arc3"
    with pytest.raises(BasisError) as err:
        from_arcs(ArcDiagram(((0, 1), (1, 2), (0, 2)), 3))  # a cycle always breaks a rule of (1)-(3)
    assert err.value.code == "arc1"


def test_from_arcs_names_the_first_touching_arc_out_of_order():
    # Arc 3 ends where arc 2 begins and arc 4 where arc 1 begins: the later arc with the
    # smaller label is named first.
    with pytest.raises(BasisError) as err:
        from_arcs(ArcDiagram(((3, 4), (1, 2), (0, 1), (2, 3)), 4))
    assert (err.value.code, err.value.detail, str(err.value)) == (
        "arc3", (3, 2), "arc 3 ends where arc 2 begins"
    )


def test_gap_identity_basis():
    basis = simple_roots(5)
    for i in range(1, 6):
        assert gap(basis, i) == i


def test_gap_of_reconstructed_basis():
    basis = reconstruct((2, 1, 1))
    assert basis == basis_of_pairs([(2, 2), (1, 3), (1, 2)], 3)
    assert span(basis, 2) == {1, 2}
    assert gap(basis, 2) == 3


@pytest.mark.parametrize("i", [0, -1, 4])
def test_span_and_gap_reject_positions_outside_the_basis(i):
    basis = reconstruct((2, 2, 1))
    for fn in (span, gap):
        with pytest.raises(ValueError, match="outside 1..3"):
            fn(basis, i)


@pytest.mark.parametrize("n", range(1, 7))
def test_gap_is_single_point_exhaustive(n):
    verify.check_gap_single(n)


def test_right_orthogonal_examples():
    first, second = right_orthogonal_basis(Root(2, 2, 3), 3)
    assert [r.as_pair() for r in first] == [(1, 2), (3, 3)]
    assert second == ()
    first, second = right_orthogonal_basis(Root(1, 4, 4), 4)
    assert first == ()
    assert [r.as_pair() for r in second] == [(1, 1), (2, 2), (3, 3)]
    with pytest.raises(ValueError, match=r"^root rank 2 != 3$"):
        right_orthogonal_basis(Root(1, 1, 2), 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_right_orthogonal_is_the_follower_lattice(n):
    # The chains generate exactly the roots that may appear after r in a
    # basis, i.e. those v with seifert(v, r) == 0.
    for r in positive_roots(n):
        first, second = right_orthogonal_basis(r, n)
        for v in first + second:
            assert seifert(v, r) == 0
        produced = set()
        for chain in (first, second):
            for i in range(len(chain)):
                for j in range(i, len(chain)):
                    produced.add(Root(chain[i].lo, chain[j].hi, n))
        admissible = {v for v in positive_roots(n) if seifert(v, r) == 0}
        assert produced == admissible


def test_right_orthogonal_component_ranks():
    for n in range(1, 7):
        for r in positive_roots(n):
            first, second = right_orthogonal_basis(r, n)
            k, m = r.lo, r.hi
            assert len(first) == n - m + k - 1
            assert len(second) == m - k


@pytest.mark.parametrize("n", range(7))
def test_enumeration_order_matches_the_pattern_oracle(n):
    assert all_bases(n) == tuple(pattern_point_bases(tuple(range(n + 1)), n))


def test_library_bases_at_n6_are_the_cli_golden_and_share_21_roots():
    # The CLI lists arc texts without `distinguished_bases`, so this pins the library path alone
    # to the `enumerate 6 bases` golden bytes of tests/test_cli.py.
    digest, size, roots = hashlib.sha256(), 0, {}
    for basis in distinguished_bases(6):
        line = json.dumps({"basis": [[r.lo, r.hi] for r in basis], "n": 6}, sort_keys=True) + "\n"
        digest.update(line.encode())
        size += len(line)
        roots.update((id(r), r) for r in basis)  # keeps each root alive, so no id is reused
    assert (size, digest.hexdigest()) == (
        1142876, "fd90d9d947d6944e7d919d1ada6edaab0906835484aad877b37c4939efbedcb6"
    )
    assert len(roots) <= 21


def test_enumeration_is_thread_safe_from_an_empty_interleaving_cache():
    # More threads than cores, switching often, all filling the interleaving cache at once.
    serial = list(distinguished_bases(5))
    dbasis._gathers.cache_clear()
    dbasis._table.cache_clear()
    barrier = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def run(slot):
        barrier.wait()
        results[slot] = list(distinguished_bases(5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_basis_table_is_the_memo_of_the_recursion(t):
    points = (1, 2, 4, 7, 8, 11)[: t + 1]
    arcs = list(itertools.combinations(points, 2))
    index = {arc: k for k, arc in enumerate(arcs)}
    assert [gather(range(len(arcs))) for gather in dbasis._table(t)] == list(
        dbasis._headed_bases(points, t, lambda a, b: index[a, b])
    )
    assert list(dbasis._point_bases(points, lambda a, b: (a, b))) == list(
        dbasis._headed_bases(points, t, lambda a, b: (a, b))
    )


def test_warm_tables_list_n5_without_the_recursion(monkeypatch):
    serial = list(distinguished_bases(5))
    for t in range(2, 6):
        dbasis._table(t)

    def refuse(*args):
        raise AssertionError("t <= 5 reads the table")

    monkeypatch.setattr(dbasis, "_headed_bases", refuse)
    assert list(distinguished_bases(5)) == serial and len(serial) == 1296


def test_first_basis_at_depth_600(monkeypatch):
    # The first head at every depth is the arc (p_0, p_1), so the simple roots come first,
    # and neither cache grows past the table bound t <= 5 on the way down.
    dbasis._table.cache_clear()
    keys, gathers = [], dbasis._gathers

    def record(t, m):
        keys.append((t, m))
        return gathers(t, m)

    monkeypatch.setattr(dbasis, "_gathers", record)
    assert next(distinguished_bases(600)) == simple_roots(600)
    assert dbasis._table.cache_info().currsize <= 4
    assert keys and all(t <= 5 for t, _ in keys)


def test_golden_list_a2():
    expected = {
        basis_of_pairs([(1, 1), (2, 2)], 2),
        basis_of_pairs([(2, 2), (1, 2)], 2),
        basis_of_pairs([(1, 2), (1, 1)], 2),
    }
    assert set(all_bases(2)) == expected


def test_golden_list_a3():
    raw = [
        [(1, 1), (2, 2), (3, 3)], [(1, 1), (3, 3), (2, 3)], [(1, 1), (2, 3), (2, 2)],
        [(2, 2), (1, 2), (3, 3)], [(2, 2), (3, 3), (1, 3)], [(2, 2), (1, 3), (1, 2)],
        [(3, 3), (1, 1), (2, 3)], [(3, 3), (2, 3), (1, 3)], [(3, 3), (1, 3), (1, 1)],
        [(1, 2), (1, 1), (3, 3)], [(1, 2), (3, 3), (1, 1)],
        [(2, 3), (1, 3), (2, 2)], [(2, 3), (2, 2), (1, 3)],
        [(1, 3), (1, 1), (2, 2)], [(1, 3), (2, 2), (1, 2)], [(1, 3), (1, 2), (1, 1)],
    ]
    expected = {basis_of_pairs(pairs, 3) for pairs in raw}
    assert set(all_bases(3)) == expected


@pytest.mark.parametrize("n", range(1, 5))
def test_validate_accepts_exactly_the_enumerated(n):
    valid = set(all_bases(n))
    for tup in itertools.product(positive_roots(n), repeat=n):
        assert is_basis(tup, n) == (tup in valid)


def _noncrossing_arc_sets(n):
    """All sets of n distinct pairwise non-crossing arcs on {0..n}."""
    arcs = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    compatible = {
        (x, y)
        for x, y in itertools.combinations(arcs, 2)
        if not (x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1])
    }

    def ok(chosen, arc):
        return all((c, arc) in compatible or (arc, c) in compatible for c in chosen)

    def rec(start, chosen):
        if len(chosen) == n:
            yield tuple(chosen)
            return
        for i in range(start, len(arcs)):
            if ok(chosen, arcs[i]):
                chosen.append(arcs[i])
                yield from rec(i + 1, chosen)
                chosen.pop()

    yield from rec(0, [])


def _has_cycle(arcs, n):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arcs:
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def _orderable(arcs):
    """Whether some labelling satisfies the three ordering rules.

    Rules (1)-(3) are precedence constraints between arcs sharing endpoints;
    a valid labelling exists iff the precedence digraph is acyclic.
    """
    k = len(arcs)
    succ = [set() for _ in range(k)]
    for i, j in itertools.permutations(range(k), 2):
        l1, r1 = arcs[i]
        l2, r2 = arcs[j]
        before = False
        if l1 == l2 and r1 > r2:
            before = True  # same left ends: outer first
        if r1 == r2 and l1 > l2:
            before = True  # same right ends: inner first
        if r1 == l2:
            before = True  # touching: left arc first
        if before:
            succ[i].add(j)
    colour = [0] * k

    def acyclic_from(v):
        colour[v] = 1
        for w in succ[v]:
            if colour[w] == 1 or (colour[w] == 0 and not acyclic_from(w)):
                return False
        colour[v] = 2
        return True

    return all(colour[v] == 2 or acyclic_from(v) for v in range(k))


@pytest.mark.parametrize("n", range(1, 7))
def test_ordering_rules_imply_forest(n):
    # any arc set admitting a labelling that satisfies rules (1)-(3) is acyclic
    for arcs in _noncrossing_arc_sets(n):
        if _orderable(arcs):
            assert not _has_cycle(arcs, n), arcs


def test_nondecreasing_representative():
    basis = basis_of_pairs([(1, 2), (3, 3), (1, 1)], 3)
    rep = nondecreasing_representative(basis)
    assert rep == basis_of_pairs([(1, 2), (1, 1), (3, 3)], 3)
    values = initial_vector(rep)
    assert list(values) == sorted(values)
    with pytest.raises(ValueError):
        nondecreasing_representative(basis_of_pairs([(1, 2), (2, 2)], 2))


def _code(roots, n):
    try:
        validate_basis(roots, n)
    except BasisError as err:
        return err.code
    return None


def _rank_deficient(roots, n):
    rows = [[1 if r.lo <= i <= r.hi else 0 for i in range(1, n + 1)] for r in roots]
    return linalg.rank(rows) < n


@pytest.mark.parametrize("n", range(1, 5))
def test_dependent_code_matches_rank_exhaustive(n):
    # The arc-forest test decides independence; exact elimination is the reference.
    for tup in itertools.product(positive_roots(n), repeat=n):
        assert (_code(tup, n) == "dependent") == _rank_deficient(tup, n), tup


@pytest.mark.parametrize("n", range(5, 13))
def test_dependent_code_matches_rank_sampled(n):
    rng = random.Random(n)
    roots = list(positive_roots(n))
    for _ in range(60):
        basis = list(reconstruct(random_parking(rng, n)))
        assert _code(basis, n) is None
        k = rng.randrange(n)
        for tup in (
            [rng.choice(roots) for _ in range(n)],  # uniform: mostly dependent
            basis[:k] + [rng.choice(roots)] + basis[k + 1 :],  # one root replaced
            rng.sample(basis, n),  # independent, reordered
        ):
            assert (_code(tup, n) == "dependent") == _rank_deficient(tup, n), tup
