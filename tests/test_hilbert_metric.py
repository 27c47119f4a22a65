"""Supports, parts, and the projective distance."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus.errors import DimensionError
from helpers import NEG, POS, finite, v

scalars = st.one_of(
    st.just(NEG), st.just(POS),
    st.integers(min_value=-9, max_value=9))


def vectors(n):
    return st.lists(scalars, min_size=n, max_size=n).map(mp.vector)


def supports(x):
    """(supp, lsupp, usupp) read off part_of: the finite, below-+inf and
    above--inf index sets."""
    part = mp.part_of(x)
    return (part.supp, part.supp | part.sigma_neg, part.supp | part.sigma_pos)


def test_supports():
    supp, lsupp, usupp = supports(v(2, NEG, 0))
    assert (supp, lsupp, usupp) == ({0, 2}, {0, 1, 2}, {0, 2})
    supp, lsupp, usupp = supports(v(NEG, NEG))
    assert (supp, lsupp, usupp) == (set(), {0, 1}, set())
    supp, lsupp, usupp = supports(v(POS, 0))
    assert (supp, lsupp, usupp) == ({1}, {1}, {0, 1})


@given(vectors(4))
def test_supp_is_lsupp_meet_usupp(x):
    part = mp.part_of(x)
    supp, lsupp, usupp = supports(x)
    assert supp == lsupp & usupp
    assert part.supp | part.sigma_neg | part.sigma_pos == set(range(4))
    assert len(part.supp) + len(part.sigma_neg) + len(part.sigma_pos) == 4


def test_anti_distance():
    assert mp.anti_distance(v(1, 2, 3), v(1, 2, 3)) == 0
    for x in (v(NEG, NEG), v(NEG, POS), v(POS, POS)):
        assert mp.anti_distance(x, x) == POS
    assert mp.anti_distance(v(0, 1, 0), v(0, 0, 0)) == -1


def test_hilbert_distance_values():
    assert mp.hilbert_distance(v(0, 1, 0), v(0, 0, 0)) == 1
    assert mp.hilbert_distance(v(1, 2, 0), v(0, 0, 0)) == 2
    assert mp.hilbert_distance(v(3, 0), v(NEG, NEG)) == POS
    assert mp.hilbert_distance(v(NEG, NEG), v(NEG, NEG)) == NEG


def test_part_of():
    assert mp.part_of(v(2, 1, 0)) == mp.part_of(v(5, 5, 5))
    assert mp.part_of(v(2, NEG)) != mp.part_of(v(0, 0))
    # vectors with no finite entry: the descriptor pins the vector
    assert mp.part_of(v(NEG, POS)) != mp.part_of(v(POS, NEG))
    assert mp.part_of(v(NEG, POS)).is_singleton
    assert not mp.part_of(v(0, POS)).is_singleton


def test_restrict():
    assert mp.restrict(v(2, NEG, 0), {0, 2}) == v(2, 0)
    x = v(4, -1, 3)
    assert mp.restrict(x, {0, 1, 2}) == x
    a, b = v(2, NEG, 0), v(1, NEG, 0)
    assert mp.hilbert_distance(a, b) == \
        mp.hilbert_distance(mp.restrict(a, {0, 2}), mp.restrict(b, {0, 2})) \
        == 1


def test_restrict_checks_range_in_sorted_order():
    x = v(1, NEG, 3)
    assert mp.restrict(x, []) == v()
    assert mp.restrict(x, [2, 0, 1]).entries == (1, NEG, 3)
    # the error names the first bad index of the sorted indices, which is
    # not always one of the two ends
    for indices, bad in (([5, -1, 4, 0], -1), ([0, 7, 4], 4), ([3], 3),
                         ({-2, -5}, -5)):
        with pytest.raises(DimensionError,
                           match=rf"^index {bad} out of range for length 3$"):
            mp.restrict(x, indices)


@given(vectors(4), vectors(4))
def test_symmetry(x, y):
    assert mp.hilbert_distance(x, y) == mp.hilbert_distance(y, x)


@given(vectors(4), vectors(4))
def test_nonnegative_off_the_infinite_corner(x, y):
    if any(finite(e) for e in x) or any(finite(e) for e in y):
        assert mp.hilbert_distance(x, y) >= 0


@given(vectors(4), vectors(4), vectors(4))
def test_triangle_with_upper_addition(x, y, z):
    assert mp.hilbert_distance(x, z) <= mp.upper_add(
        mp.hilbert_distance(x, y), mp.hilbert_distance(y, z))


@given(vectors(5), st.integers(min_value=-9, max_value=9))
def test_projectivity(x, lam):
    if any(finite(e) for e in x):
        assert mp.hilbert_distance(x, mp.vec_scale(x, lam)) == 0


@given(vectors(4), vectors(4))
def test_finite_distance_iff_same_part(x, y):
    finite = mp.hilbert_distance(x, y) < POS
    assert finite == (mp.part_of(x) == mp.part_of(y))


@given(vectors(4), vectors(4))
def test_same_support_closed_form(x, y):
    if not (all(finite(e) for e in x) and all(finite(e) for e in y)):
        return
    diffs = [a - b for a, b in zip(x, y)]
    assert mp.hilbert_distance(x, y) == max(diffs) - min(diffs)


@given(vectors(3), st.sets(st.integers(min_value=0, max_value=2), min_size=1))
def test_restrict_preserves_distance_on_common_support(x, idx):
    # force the support of both vectors inside idx, then restriction
    # must not change the distance
    masked = mp.vector([e if i in idx else NEG for i, e in enumerate(x)])
    other = mp.vec_scale(masked, 3)
    assert mp.hilbert_distance(masked, other) == mp.hilbert_distance(
        mp.restrict(masked, idx), mp.restrict(other, idx))
