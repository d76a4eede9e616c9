import dataclasses
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parkbases import quiver, verify
from parkbases.bijection import initial_vector, reconstruct
from parkbases.parking import is_parking
from parkbases.quiver import (
    IntervalModule,
    ext_dim,
    euler,
    filtration_level,
    has_mono,
    hom_dim,
    hom_dim_oracle,
    hom_ext_table,
    is_exceptional_sequence,
    is_nondecreasing_collection,
    modules_of,
)
from parkbases.roots import Root, positive_roots

from helpers import all_bases, basis_of_pairs, random_parking


def mod(lo, hi, n):
    return IntervalModule(Root(lo, hi, n))


def test_interval_module_materialisation():
    v = mod(2, 3, 4)
    assert v.space_dims() == (0, 1, 1, 0)
    assert [v.arrow(i) for i in range(1, 4)] == [0, 1, 0]


def test_interval_module_is_a_frozen_value():
    v = mod(2, 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.root = Root(1, 1, 4)
    assert v == mod(2, 3, 4) and hash(v) == hash(mod(2, 3, 4))
    assert v != mod(2, 2, 4) and v != Root(2, 3, 4)
    assert dataclasses.replace(v) == v
    assert dataclasses.replace(v, root=Root(1, 1, 4)) == mod(1, 1, 4)
    assert repr(v) == "IntervalModule(root=Root(lo=2, hi=3, rank=4))"


def test_hom_examples():
    assert hom_dim(mod(2, 2, 2), mod(1, 2, 2)) == 1  # submodule, shared right end
    assert hom_dim(mod(1, 2, 2), mod(2, 2, 2)) == 0
    assert hom_dim(mod(1, 2, 2), mod(1, 2, 2)) == 1
    assert hom_dim_oracle(mod(2, 2, 2), mod(1, 2, 2)) == 1
    assert hom_dim_oracle(mod(1, 2, 2), mod(2, 2, 2)) == 0


def test_ext_examples():
    assert ext_dim(mod(1, 1, 2), mod(2, 2, 2)) == 1
    assert ext_dim(mod(2, 2, 2), mod(1, 1, 2)) == 0
    assert ext_dim(mod(1, 2, 2), mod(1, 2, 2)) == 0


def test_rank_mismatch():
    with pytest.raises(ValueError):
        hom_dim(mod(1, 1, 2), mod(1, 1, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_hom_matches_oracle(n):
    verify.check_hom_oracle(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_conditional_ext_formula(n):
    verify.check_ext_formula(n)


def test_exceptional_examples():
    n = 3
    assert is_exceptional_sequence(modules_of(basis_of_pairs([(1, 1), (2, 2), (3, 3)], n)))
    assert not is_exceptional_sequence(
        modules_of((Root(2, 2, 2), Root(1, 1, 2)))
    )  # ext from later to earlier... hom/ext pair fails via seifert
    assert not is_exceptional_sequence(modules_of(basis_of_pairs([(1, 1), (1, 2)], 2)))


def test_hom_ext_table_reconstructed_sequence():
    basis = reconstruct((2, 1, 1))
    hom, ext = hom_ext_table(modules_of(basis))
    mods = modules_of(basis)
    for i in range(3):
        for j in range(3):
            assert hom[i][j] == hom_dim_oracle(mods[i], mods[j])
            assert ext[i][j] == hom[i][j] - euler(mods[i], mods[j])
    # later-to-earlier entries vanish in an exceptional sequence
    for j in range(3):
        for i in range(j):
            assert hom[j][i] == 0 and ext[j][i] == 0


def test_hom_ext_table_simple_roots():
    n = 5
    hom, ext = hom_ext_table(modules_of(reconstruct(tuple(range(1, n + 1)))))
    for i in range(n):
        for j in range(n):
            assert ext[i][j] == (1 if j == i + 1 else 0)
            assert hom[i][j] == (1 if i == j else 0)


def _cells(mods):
    return (
        tuple(tuple(hom_dim(a, b) for b in mods) for a in mods),
        tuple(tuple(ext_dim(a, b) for b in mods) for a in mods),
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_hom_ext_table_matches_cells_exhaustive(n):
    for basis in all_bases(n):
        mods = modules_of(basis)
        assert hom_ext_table(mods) == _cells(mods), basis
    if n <= 3:  # the closed form holds for any same-rank sequence, not only bases
        for tup in itertools.product(positive_roots(n), repeat=n):
            mods = modules_of(tup)
            assert hom_ext_table(mods) == _cells(mods), tup


@pytest.mark.parametrize("n", [16, 64, 200])
def test_hom_ext_table_matches_cells_sampled(n):
    rng = random.Random(n)
    for _ in range(50):
        f = random_parking(rng, n)
        mods = modules_of(reconstruct(f))
        assert hom_ext_table(mods) == _cells(mods), f


@pytest.mark.parametrize("n", [64, 400])
@pytest.mark.parametrize("f", ["identity", "reversed", "all-ones"])
def test_hom_ext_table_matches_cells_extreme_bases(n, f):
    f = {"identity": range(1, n + 1), "reversed": range(n, 0, -1), "all-ones": [1] * n}[f]
    mods = modules_of(reconstruct(tuple(f)))
    assert hom_ext_table(mods) == _cells(mods)


@pytest.mark.parametrize("length", [0, 1, 64, 128])
def test_hom_ext_table_matches_cells_on_root_tuples(length):
    # Any same-rank sequence, not only bases: random roots drawn from a pool
    # half the length, so every tuple of two or more roots repeats one.
    n, rng = 64, random.Random(length)
    pool = []
    for _ in range(max(1, length // 2)):
        lo = rng.randint(1, n)
        pool.append(Root(lo, rng.randint(lo, n), n))
    tup = [rng.choice(pool) for _ in range(length)]
    assert length < 2 or len(set(tup)) < length
    mods = modules_of(tup)
    assert hom_ext_table(mods) == _cells(mods)


@st.composite
def _root_tuples(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    lo_hi = st.integers(min_value=1, max_value=n).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(min_value=lo, max_value=n))
    )
    return [Root(lo, hi, n) for lo, hi in draw(st.lists(lo_hi, max_size=12))]


@given(_root_tuples())
def test_hom_ext_table_matches_cells_property(tup):
    # Any same-rank tuple, repeats allowed: the endpoint masks agree with the per-cell closed forms.
    mods = modules_of(tup)
    assert hom_ext_table(mods) == _cells(mods)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_hom_ext_table_on_copies_of_the_longest_root(n):
    mods = modules_of([Root(1, n, n)] * n)
    hom, ext = hom_ext_table(mods)
    assert (hom, ext) == _cells(mods)
    assert hom == ((1,) * n,) * n and ext == ((0,) * n,) * n


def test_hom_ext_table_rank_mismatch():
    mods = (mod(1, 1, 2), mod(2, 2, 2), mod(1, 3, 3))
    with pytest.raises(ValueError, match=r"^rank mismatch: 2 != 3$"):
        hom_ext_table(mods)
    assert hom_ext_table(()) == ((), ())
    # the first module against the first one that differs, here the last of 65
    mods = modules_of(reconstruct(tuple(range(1, 65)))) + (mod(1, 70, 70),)
    with pytest.raises(ValueError, match=r"^rank mismatch: 64 != 70$"):
        hom_ext_table(mods)


def test_ext_dim_reads_the_seifert_form(monkeypatch):
    # ext_dim is Hom minus the Euler (Seifert) form, not the table's direct Ext
    # rule: flipping the form on one pair moves ext_dim and leaves the table.
    v, w = mod(1, 1, 2), mod(2, 2, 2)
    assert ext_dim(v, w) == 1 and hom_ext_table((v, w))[1][0][1] == 1
    true_seifert = quiver.seifert

    def flipped(a, b):
        return 0 if (a, b) == (v.root, w.root) else true_seifert(a, b)

    monkeypatch.setattr(quiver, "seifert", flipped)
    assert ext_dim(v, w) == 0
    assert ext_dim(w, v) == 0 and ext_dim(v, v) == 0
    assert hom_ext_table((v, w))[1][0][1] == 1


def test_hom_ext_table_needs_no_per_cell_helpers(monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the table's path")

    for name in ("hom_dim", "ext_dim", "euler", "seifert", "ray_stops"):
        monkeypatch.setattr(quiver, name, refuse)
    hom, ext = hom_ext_table(modules_of(reconstruct((2, 1, 3))))
    assert hom == ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    assert ext == ((0, 0, 1), (0, 0, 1), (0, 0, 0))


@pytest.mark.parametrize("n", range(2, 6))
def test_hom_ext_table_diagram_reading(n):
    verify.check_hom_ext_table(n)


def test_diagram_reading_has_indirect_ext_witness():
    # some Ext entry must point at a column whose stopping corner has a label
    # different from the target: the reading is genuinely about columns
    found = False
    for n in range(2, 6):
        for basis in all_bases(n):
            f = initial_vector(basis)
            mods = modules_of(basis)
            for i in range(n):
                for j in range(i + 1, n):
                    if ext_dim(mods[i], mods[j]) == 1:
                        others = [
                            k for k in range(n) if k != j and f[k] == f[j]
                        ]
                        if others:
                            found = True
    assert found


def test_filtration_level():
    assert filtration_level(mod(3, 7, 8)) == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_levels_form_parking_function_and_determine_sequence(n):
    seen = set()
    for basis in all_bases(n):
        levels = tuple(filtration_level(m) for m in modules_of(basis))
        assert levels == initial_vector(basis)
        assert is_parking(levels)
        assert levels not in seen
        seen.add(levels)
        assert reconstruct(levels) == basis


def test_nondecreasing_collection_examples():
    assert is_nondecreasing_collection(modules_of(reconstruct((1, 1, 2, 2, 2, 4, 6))))
    mods = modules_of(reconstruct((2, 1, 1)))
    assert not is_nondecreasing_collection(mods)
    assert has_mono(mods[0], mods[2])  # [2,2] embeds into [1,2]


@pytest.mark.parametrize("n", range(2, 7))
def test_nondecreasing_families_coincide(n):
    verify.check_nondecreasing_families(n)


@given(st.integers(min_value=1, max_value=10), st.data())
def test_hom_oracle_property(n, data):
    lo1 = data.draw(st.integers(min_value=1, max_value=n))
    hi1 = data.draw(st.integers(min_value=lo1, max_value=n))
    lo2 = data.draw(st.integers(min_value=1, max_value=n))
    hi2 = data.draw(st.integers(min_value=lo2, max_value=n))
    v, w = mod(lo1, hi1, n), mod(lo2, hi2, n)
    assert hom_dim(v, w) == hom_dim_oracle(v, w)
    assert ext_dim(v, w) in (0, 1)
