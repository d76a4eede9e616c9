import collections
import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbases import bijection, braid, parking
from parkbases.bijection import initial_vector, reconstruct
from parkbases.braid import (
    apply_word,
    apply_word_parking,
    flip_row,
    generator_order,
    mutate,
    mutate_diagram,
    mutate_parking,
    orbit_graph,
    parse_word,
    validate_young,
    young_of_diagram,
)
from parkbases.parking import (
    ParkingDiagram,
    catalan,
    from_diagram,
    nondecreasing_parking_functions,
    parking_functions,
    to_diagram,
)
from parkbases.roots import Root, positive_roots, seifert, simple_roots

from helpers import all_bases, all_pfs, basis_of_pairs, long_families, random_parking

from helpers import ALPHA1_RANK3, ALPHA2_RANK3


def test_mutate_rank2_cycle():
    basis = simple_roots(2)
    step1 = mutate(basis, 1, "left")
    assert step1 == basis_of_pairs([(2, 2), (1, 2)], 2)
    step2 = mutate(step1, 1, "left")
    assert step2 == basis_of_pairs([(1, 2), (1, 1)], 2)
    assert mutate(step2, 1, "left") == basis


def test_mutate_normalises_sign():
    basis = basis_of_pairs([(1, 3), (2, 2), (1, 2)], 3)
    assert mutate(basis, 2, "left") == basis_of_pairs([(1, 3), (1, 2), (1, 1)], 3)


def test_mutate_orthogonal_pair_swaps():
    basis = basis_of_pairs([(1, 1), (3, 3), (2, 3)], 3)
    assert mutate(basis, 1, "left") == basis_of_pairs([(3, 3), (1, 1), (2, 3)], 3)
    assert mutate(basis, 1, "right") == basis_of_pairs([(3, 3), (1, 1), (2, 3)], 3)


def test_mutate_k_out_of_range():
    with pytest.raises(ValueError):
        mutate(simple_roots(3), 3, "left")
    with pytest.raises(ValueError):
        mutate(simple_roots(3), 0, "right")


def test_mutate_rejects_an_unknown_direction():
    with pytest.raises(ValueError, match="^direction must be 'left' or 'right', got 'up'$"):
        mutate(simple_roots(3), 1, "up")


@pytest.mark.parametrize("direction", ["left", "right", "up"])
def test_mutate_checks_k_before_the_direction(direction):
    # -1 is the letter beta_1 of a word, but never a valid k for mutate
    for k in (-1, 0, 3):
        with pytest.raises(ValueError, match=f"^generator index {k} out of range 1..2$"):
            mutate(simple_roots(3), k, direction)


def test_mutate_parking_examples():
    assert mutate_parking((1, 2, 1), 1, "left") == (2, 1, 1)
    assert mutate_parking((1, 2, 1), 2, "left") == (1, 1, 1)


def _composite_mutate_parking(f, k, direction):
    return initial_vector(mutate(reconstruct(f), k, direction))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as err:  # noqa: BLE001 - the type and text are what is compared
        return type(err), str(err)


@pytest.mark.parametrize("n", range(2, 7))
def test_mutate_parking_builds_two_roots_not_a_basis(monkeypatch, n):
    # Against the whole mutated basis, and on (a, b) = (f_k, f_{k+1}), with stops t_k, t_{k+1}:
    # a swap, a copy, or a new value c = t_{k+1} + 1 beside a exactly when a == b (the rule
    # in `mutate_parking`'s docstring).
    def refuse(f):
        raise AssertionError("mutate_parking reconstructs the whole basis")

    monkeypatch.setattr(bijection, "reconstruct", refuse)
    monkeypatch.setattr(braid, "reconstruct", refuse)
    # This module's own `reconstruct` binding stays the reference.
    tally = collections.Counter()
    for f in all_pfs(n):
        basis, stops = reconstruct(f), bijection.ray_stops(to_diagram(f))
        for k in range(1, n):
            a, b = f[k - 1], f[k]
            for direction in ("left", "right"):
                g = mutate_parking(f, k, direction)
                assert g == initial_vector(mutate(basis, k, direction))
                left = direction == "left"
                if a == b:
                    c = stops[k] + 1
                    form, expected = "new", ((a, c) if left else (c, a))
                elif left and stops[k - 1] == stops[k] or not left and stops[k - 1] == b - 1:
                    form, expected = "copy", ((b, b) if left else (a, a))
                else:
                    form, expected = "swap", (b, a)
                assert g[k - 1 : k + 1] == expected, (f, k, direction)
                assert len({a, b, *expected}) == 2  # a != b, or c != a
                tally[form, k, direction] += 1
    unit = (n + 1) ** (n - 2)
    counts = {"swap": (n - 1) * unit, "copy": unit, "new": unit}
    assert tally == {(form, k, d): counts[form] for form in counts for k in range(1, n) for d in ("left", "right")}
    for f in long_families(3200) if n == 6 else ():
        basis = reconstruct(f)
        for k, direction in itertools.product((1, 1600, 3199), ("left", "right")):
            assert mutate_parking(f, k, direction) == initial_vector(mutate(basis, k, direction))


@pytest.mark.parametrize(
    "f",
    [(), (1,), (1, 2, 1), (0, 1, 1), (1, 4, 1), (2, 2, 2), (3, 3, 1), (1, 1, -1)],
)
def test_mutate_parking_raises_as_the_composite_reading(f):
    # Range, then parking, then k, then the direction, each with the composite's text.
    for k in (-1, 0, 1, len(f)):
        for direction in ("left", "right", "up"):
            got = _outcome(mutate_parking, f, k, direction)
            assert got == _outcome(_composite_mutate_parking, f, k, direction), (f, k, direction)
            if (f, k) != ((1, 2, 1), 1) or direction == "up":
                assert got[0] is ValueError, (f, k, direction)


def test_apply_word_inverse():
    basis = reconstruct((2, 2, 1, 4))
    word = (1, -2, 3, 1)
    inverse = tuple(-letter for letter in reversed(word))
    assert apply_word(apply_word(basis, word), inverse) == basis
    assert apply_word_parking((1, 2, 1), (1, -1)) == (1, 2, 1)


def test_apply_word_reads_a_one_shot_word_once():
    basis = reconstruct((2, 2, 1, 4))
    assert apply_word(basis, iter((1, -1))) == basis
    assert apply_word(basis, (letter for letter in (2, 3, -3, -2))) == basis
    assert apply_word(iter(basis), iter((1,))) == apply_word(basis, (1,)) != basis


def test_apply_word_reports_the_first_bad_letter():
    basis = simple_roots(3)
    for word, k in [((1, 3), 3), ((-2, -3, 0), 3), ((1, 0, 5), 0)]:
        with pytest.raises(ValueError, match=f"^generator index {k} out of range 1..2$"):
            apply_word(basis, word)


def test_apply_word_names_a_rank_mismatch_at_the_first_letter_that_touches_it():
    mixed = (Root(1, 1, 3), Root(2, 2, 3), Root(1, 1, 2))
    assert apply_word(mixed, (1, 1, 1)) == mixed
    assert apply_word(mixed, (-1,)) == (Root(1, 2, 3), Root(1, 1, 3), Root(1, 1, 2))
    for word in [(2,), (-2,), (1, -2), (1, 1, 2, 1)]:
        with pytest.raises(ValueError, match="^rank mismatch: 3 != 2$"):
            apply_word(mixed, word)
    with pytest.raises(ValueError, match="^rank mismatch: 2 != 3$"):
        apply_word(mixed[::-1], (2, 1))


def test_parse_word():
    assert parse_word(" 1\t-2\n+1 ") == (1, -2, 1)
    assert parse_word("") == ()
    with pytest.raises(ValueError, match=r"^braid letters must be nonzero$"):
        parse_word("1 0 -0")
    # An optional sign and ASCII digits, nothing else: no Unicode digits, no underscores.
    for text, position, token in [
        ("1 two", 2, "two"), ("٣ +2 1_0", 1, "٣"), ("+2 1_0", 2, "1_0"), ("1.5", 1, "1.5"),
        ("+-1", 1, "+-1"), ("0 -", 2, "-"), ("2 ²", 2, "²"),
    ]:
        message = f"letter {position} ({token!r}) is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_word(text)
    # Leading zeros aside, a letter of more digits than sys.maxsize has is out of range for every
    # rank; int() itself would refuse the 5,000-digit one with a message about its own limit.
    assert parse_word("0" * 5000 + "1 -" + "9" * 19) == (1, 1 - 10**19)
    for text, position, digits in [("1 " + "1" * 5000, 2, 5000), ("-1" + "0" * 19, 1, 20)]:
        message = f"letter {position} ({digits} digits) is out of range for every rank"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_word(text)


@pytest.mark.parametrize("n", range(2, 7))
def test_arc_mutation_endpoint_rules(n):
    # Classify every pair (a, b) with seifert(b, a) == 0 by picture: alpha_1 writes b first
    # and, at the moved position, the positive version c of a - seifert(a, b) * b.
    for a in positive_roots(n):
        for b in positive_roots(n):
            if a == b or seifert(b, a) != 0:
                continue
            s = seifert(a, b)
            first, c = apply_word((a, b), (1,))
            assert first == b
            if s == 0:
                assert c == a
            elif a.lo == b.lo:  # shared left ends
                assert c == Root(b.hi + 1, a.hi, n)
            elif a.hi == b.hi:  # shared right ends
                assert c == Root(b.lo, a.lo - 1, n)
            else:  # touching
                assert a.hi + 1 == b.lo and c == Root(a.lo, b.hi, n)


def _combine_by_coefficients(a, s, b):
    """a - s*b on the simple-root coefficient vector: a signed root is ±1 on one interval."""
    n = a.rank
    coeffs = [0] * (n + 2)
    for i in a.support():
        coeffs[i] += 1
    for i in b.support():
        coeffs[i] -= s
    points = [i for i in range(1, n + 1) if coeffs[i]]
    if {coeffs[i] for i in points} not in ({1}, {-1}) or points[-1] - points[0] + 1 != len(points):
        return None
    return Root(points[0], points[-1], n)


@pytest.mark.parametrize("n", range(1, 7))
def test_one_letter_words_match_coefficient_vector(n):
    # Every ordered pair under alpha_1 and beta_1: the value, and the exact text when it raises.
    for a in positive_roots(n):
        for b in positive_roots(n):
            s = seifert(a, b)
            for letter, x, y in ((1, a, b), (-1, b, a)):
                c = _combine_by_coefficients(x, s, y)
                if c is None:
                    with pytest.raises(RuntimeError, match=f"^{re.escape(f'{x} - {s}*{y}')} is not a signed root$"):
                        apply_word((a, b), (letter,))
                else:
                    assert apply_word((a, b), (letter,)) == ((b, c) if letter > 0 else (c, a))


def _apply_word_by_coefficients(basis, word):
    """`apply_word` letter by letter, each mutated root read off its coefficient vector."""
    current = list(basis)
    for letter in word:
        k = abs(letter)
        a, b = current[k - 1], current[k]
        s = seifert(a, b)
        if letter > 0:
            current[k - 1], current[k] = b, _combine_by_coefficients(a, s, b)
        else:
            current[k - 1], current[k] = _combine_by_coefficients(b, s, a), a
    return tuple(current)


@pytest.mark.parametrize("n", [64, 400])
def test_long_words_match_coefficient_vector(n):
    rng = random.Random(n)
    for _ in range(3):
        basis = reconstruct(random_parking(rng, n))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(2 * n))
        assert apply_word(basis, word) == _apply_word_by_coefficients(basis, word)


def _apply(t, x):
    """The transposition t = (a, b) applied to the point x."""
    a, b = t
    return b if x == a else a if x == b else x


@pytest.mark.parametrize("n", range(1, 6))
def test_left_mutation_is_the_hurwitz_move(n):
    # Read [lo, hi] as the transposition t = (lo - 1, hi).  Every basis multiplies to the cycle
    # (0 1 ... n), and alpha_k maps (t_k, t_{k+1}) to (t_{k+1}, t_{k+1} t_k t_{k+1}): an oracle
    # for the mutation that reads no Seifert value.
    for basis in all_bases(n):
        factors = [(r.lo - 1, r.hi) for r in basis]
        product = []
        for x in range(n + 1):
            for t in reversed(factors):  # t_1 t_2 ... t_n, the rightmost factor acting first
                x = _apply(t, x)
            product.append(x)
        assert product == [*range(1, n + 1), 0], basis
        for k in range(1, n):
            earlier, later = factors[k - 1], factors[k]
            conjugate = tuple(sorted(_apply(later, x) for x in earlier))
            moved = [(r.lo - 1, r.hi) for r in mutate(basis, k, "left")]
            assert moved == factors[: k - 1] + [later, conjugate] + factors[k + 1 :], (basis, k)


def test_generator_order_values():
    assert generator_order(simple_roots(2), 1) == 3
    assert generator_order(basis_of_pairs([(1, 1), (3, 3), (2, 3)], 3), 1) == 2


def test_diagram_mutation_plain_swap_case():
    # adjacent roots [1,1] and [3,3] interact trivially: both directions swap labels
    f = (1, 1, 1, 3)
    diagram = to_diagram(f)
    for direction in ("left", "right"):
        assert from_diagram(mutate_diagram(diagram, 3, direction)) == (1, 1, 3, 1)


def test_mutate_diagram_raises_as_mutate_parking():
    # k first, then the direction: "up" was once read as "right".
    f = (1, 2, 1)

    def on_diagram(k, direction):
        return from_diagram(mutate_diagram(to_diagram(f), k, direction))

    for k in (0, 1, 2, 3):
        for direction in ("left", "right", "up"):
            assert _outcome(on_diagram, k, direction) == _outcome(mutate_parking, f, k, direction), (k, direction)
    with pytest.raises(ValueError, match="^direction must be 'left' or 'right', got 'up'$"):
        mutate_diagram(to_diagram(f), 1, "up")


def _mutation_inputs(n):
    """(f, k) pairs: every parking function and generator for n <= 5, else ten seeded f with eight k each."""
    if n <= 5:
        return [(f, k) for f in all_pfs(n) for k in range(1, n)]
    rng = random.Random(n)
    return [(random_parking(rng, n), rng.randrange(1, n)) for _ in range(10) for _ in range(8)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 400])
def test_mutate_diagram_output_is_a_valid_diagram(monkeypatch, n):
    # mutate_diagram lays out its rows without re-checking them; the full validator does it here.
    inputs = [(to_diagram(f), k) for f, k in _mutation_inputs(n)]

    def refuse(values):
        raise AssertionError("mutate_diagram re-checks the parking condition")

    with monkeypatch.context() as patched:
        patched.setattr(parking, "is_parking", refuse)
        outputs = [mutate_diagram(diagram, k, direction) for diagram, k in inputs for direction in ("left", "right")]
    moves = [(f, k, direction) for f, k in _mutation_inputs(n) for direction in ("left", "right")]
    for out, (f, k, direction) in zip(outputs, moves, strict=True):
        assert ParkingDiagram(out.labels, out.lengths) == out
        assert to_diagram(from_diagram(out)) == out
        assert from_diagram(out) == mutate_parking(f, k, direction)  # the surgery on long rays too


def test_diagram_mutation_rank8_triple():
    # three diagrams linked by the sixth generator
    f_x = (2, 8, 6, 4, 5, 1, 7, 1)
    f_y = (2, 8, 6, 4, 5, 7, 1, 1)
    f_z = (2, 8, 6, 4, 5, 1, 1, 1)
    d_x, d_y, d_z = map(to_diagram, (f_x, f_y, f_z))
    assert mutate_diagram(d_x, 6, "left") == d_y
    assert mutate_diagram(d_y, 6, "left") == d_z
    assert mutate_diagram(d_z, 6, "left") == d_x
    assert mutate_diagram(d_x, 6, "right") == d_z
    assert mutate_diagram(d_y, 6, "right") == d_x
    assert mutate_diagram(d_z, 6, "right") == d_y


def test_orbit_graph_rank2():
    graph = orbit_graph(2)
    assert graph.nodes == ((1, 1), (1, 2), (2, 1))
    assert graph.alpha[((1, 1), 1)] == (1, 2)
    assert graph.alpha[((1, 2), 1)] == (2, 1)
    assert graph.alpha[((2, 1), 1)] == (1, 1)
    with pytest.raises(ValueError, match=r"^n must be >= 2, got 1$"):
        orbit_graph(1)


def test_orbit_graph_rank3_matches_reference_picture():
    graph = orbit_graph(3)
    assert len(graph.nodes) == 16
    assert {f: graph.alpha[(f, 1)] for f in graph.nodes} == ALPHA1_RANK3
    assert {f: graph.alpha[(f, 2)] for f in graph.nodes} == ALPHA2_RANK3


@pytest.mark.parametrize("n", range(2, 7))
def test_orbit_edges_are_the_two_root_word_on_each_basis_pair(n):
    # One edge per basis and k, in enumeration order, each read off its own pair's word.
    expected = {}
    for basis in all_bases(n):
        f = tuple(r.lo for r in basis)
        for k in range(1, n):
            b, c = apply_word((basis[k - 1], basis[k]), (1,))
            expected[(f, k)] = f[: k - 1] + (b.lo, c.lo) + f[k + 1 :]
    assert list(orbit_graph(n).alpha.items()) == list(expected.items())


def test_orbit_graph_runs_one_word_per_arc_pair(monkeypatch):
    words = []

    def counted(basis, word):
        words.append(word)
        return apply_word(basis, word)

    monkeypatch.setattr(braid, "apply_word", counted)
    orbit_graph(5)
    assert 0 < len(words) <= 15 * 15  # ordered pairs of the 15 arcs, against 4 * 1,296 edges


def test_orbit_graph_reads_bases_off_the_enumeration(monkeypatch):
    def refuse(f):
        raise AssertionError("orbit_graph rebuilds a basis from its parking function")

    monkeypatch.setattr(braid, "reconstruct", refuse)
    for n in range(2, 7):
        assert orbit_graph(n).nodes == tuple(parking_functions(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_graph_counts_and_transitivity(n):
    graph = orbit_graph(n)
    assert len(graph.nodes) == (n + 1) ** (n - 1)
    # observed on the reference pictures: the action is transitive at desk scale
    seen = {graph.nodes[0]}
    frontier = [graph.nodes[0]]
    while frontier:
        f = frontier.pop()
        for k in range(1, n):
            for g in (graph.alpha[(f, k)],):
                if g not in seen:
                    seen.add(g)
                    frontier.append(g)
        # walking alpha edges backwards uses the 2/3-cycle structure
    assert len(seen) == len(graph.nodes)


def test_flip_row_examples():
    assert flip_row((0, 0, 0), 1) == (1, 0, 0)
    assert flip_row((1, 0, 0), 1) == (0, 0, 0)
    assert flip_row((0, 0, 0), 2) == (2, 0, 0)
    assert flip_row((2, 1, 0), 3) == (2, 1, 0)  # bottom row is degenerate


def test_flip_row_validation():
    with pytest.raises(ValueError, match=r"^row 2 of length 2 leaves the staircase$"):
        flip_row((2, 2, 0), 1)
    with pytest.raises(ValueError, match=r"^row index 4 out of range 1\.\.3$"):
        flip_row((0, 0, 0), 4)
    with pytest.raises(ValueError, match=r"^expected 3 rows, got 2$"):
        validate_young((1, 0), 3)
    with pytest.raises(ValueError, match=r"^row lengths must decrease weakly downwards$"):
        validate_young((0, 1, 0), 3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 64, 400])
def test_flips_stay_in_staircase_and_reverse(n):
    # Every diagram and row up to n = 6; beyond, three seeded diagrams and twelve rows each.
    # flip_row returns its rows without validate_young, so the check runs here.
    if n <= 6:
        youngs = [young_of_diagram(to_diagram(f)) for f in nondecreasing_parking_functions(n)]
        assert len(set(youngs)) == catalan(n)
        rows = [range(1, n + 1)] * len(youngs)
    else:
        rng = random.Random(n)
        youngs = [young_of_diagram(to_diagram(sorted(random_parking(rng, n)))) for _ in range(3)]
        rows = [rng.sample(range(1, n + 1), 12) for _ in youngs]
    for young, ks in zip(youngs, rows):
        for k in ks:
            flipped = flip_row(young, k)
            validate_young(flipped, n)
            if flipped != young:
                assert any(flip_row(flipped, j) == young for j in range(1, n + 1))


@given(st.integers(min_value=2, max_value=5), st.data())
def test_word_then_inverse_word_is_identity(n, data):
    f = data.draw(st.sampled_from(all_pfs(n)))
    word = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n - 1).flatmap(
                lambda k: st.sampled_from([k, -k])
            ),
            max_size=6,
        )
    )
    inverse = tuple(-letter for letter in reversed(word))
    assert apply_word_parking(apply_word_parking(f, word), inverse) == f
