import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbases import braid
from parkbases.bijection import reconstruct
from parkbases.braid import (
    _combine,
    apply_word,
    apply_word_parking,
    arc_mutation_target,
    flip_row,
    generator_order,
    mutate,
    mutate_diagram,
    mutate_parking,
    orbit_graph,
    parse_word,
    validate_young,
    young_diagrams,
)
from parkbases.dbasis import validate_basis
from parkbases.parking import catalan, from_diagram, parking_functions, to_diagram
from parkbases.roots import Root, positive_roots, seifert, simple_roots

from helpers import all_bases, all_pfs, basis_of_pairs

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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_beta_inverts_alpha_on_pf4(k):
    for f in all_pfs(4):
        assert mutate_parking(mutate_parking(f, k, "left"), k, "right") == f


@pytest.mark.parametrize("n", range(2, 5))
def test_beta_is_alpha_inverse_via_orbit(n):
    for basis in all_bases(n):
        for k in range(1, n):
            order = generator_order(basis, k)
            via_formula = mutate(basis, k, "right")
            via_orbit = basis
            for _ in range(order - 1):
                via_orbit = mutate(via_orbit, k, "left")
            assert via_formula == via_orbit


@pytest.mark.parametrize("n", range(2, 5))
def test_mutations_preserve_validity(n):
    for basis in all_bases(n):
        for k in range(1, n):
            validate_basis(mutate(basis, k, "left"), n)
            validate_basis(mutate(basis, k, "right"), n)


def test_braid_relation_on_pf4():
    for f in all_pfs(4):
        assert apply_word_parking(f, (1, 2, 1)) == apply_word_parking(f, (2, 1, 2))
        assert apply_word_parking(f, (2, 3, 2)) == apply_word_parking(f, (3, 2, 3))
        assert apply_word_parking(f, (1, 3)) == apply_word_parking(f, (3, 1))


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


def test_parse_word():
    assert parse_word("1 -2 1") == (1, -2, 1)
    with pytest.raises(ValueError):
        parse_word("1 0 2")


def test_arc_mutation_target_cases():
    n = 3
    a, b = Root(1, 3, n), Root(1, 1, n)
    assert arc_mutation_target(a, b) == Root(2, 3, n)  # shared left ends
    a, b = Root(2, 3, n), Root(1, 3, n)
    assert arc_mutation_target(a, b) == Root(1, 1, n)  # shared right ends
    a, b = Root(1, 1, n), Root(2, 3, n)
    assert arc_mutation_target(a, b) == Root(1, 3, n)  # touching
    a, b = Root(1, 1, n), Root(3, 3, n)
    assert arc_mutation_target(a, b) == a  # orthogonal


def test_arc_mutation_target_requires_orthogonality():
    with pytest.raises(ValueError):
        arc_mutation_target(Root(1, 1, 2), Root(1, 2, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_arc_mutation_endpoint_rules(n):
    # classify every admissible pair by picture and check the left endpoint
    for a in positive_roots(n):
        for b in positive_roots(n):
            if a == b or seifert(b, a) != 0:
                continue
            s = seifert(a, b)
            c = arc_mutation_target(a, b)
            if s == 0:
                assert c == a
            elif a.lo == b.lo:
                assert c.lo == b.hi + 1
            elif a.hi == b.hi:
                assert c.lo == b.lo
            else:
                assert a.hi + 1 == b.lo and c.lo == a.lo


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
def test_combine_matches_coefficient_vector(n):
    # Every (a, s, b): the endpoint reading agrees on the value and on when it raises.
    for a in positive_roots(n):
        for b in positive_roots(n):
            for s in (-1, 0, 1):
                expected = _combine_by_coefficients(a, s, b)
                if expected is None:
                    with pytest.raises(RuntimeError, match=f"^{re.escape(f'{a} - {s}*{b}')} is not a signed root$"):
                        _combine(a, s, b)
                else:
                    assert _combine(a, s, b) == expected


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


def test_orbit_graph_rank3_matches_reference_picture():
    graph = orbit_graph(3)
    assert len(graph.nodes) == 16
    assert {f: graph.alpha[(f, 1)] for f in graph.nodes} == ALPHA1_RANK3
    assert {f: graph.alpha[(f, 2)] for f in graph.nodes} == ALPHA2_RANK3


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_edges_are_the_full_mutation(n):
    # The graph reads two entries of each image; the whole mutated basis is the oracle.
    graph = orbit_graph(n)
    for f in graph.nodes:
        for k in range(1, n):
            assert graph.alpha[(f, k)] == mutate_parking(f, k, "left")


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
    with pytest.raises(ValueError):
        flip_row((2, 2, 0), 1)  # row 2 exceeds the staircase
    with pytest.raises(ValueError):
        flip_row((0, 0, 0), 4)


@pytest.mark.parametrize("n", range(1, 7))
def test_flips_stay_in_staircase_and_reverse(n):
    youngs = list(young_diagrams(n))
    assert len(youngs) == catalan(n)
    for young in youngs:
        for k in range(1, n + 1):
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
