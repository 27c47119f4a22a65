"""Finitely generated semimodules: projection, distance, separation,
orthogonality, and reduction to the support of the target point."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus import semimodule
from maxplus.errors import (DimensionError, InfiniteDistanceError,
                            MaxplusError, PointInSetError,
                            UnsupportedCaseError)
from oracle import GridSpec, grid_projection
from helpers import (EVAX_GENS, EVAX_P, EVAX_X, NEG, POS, finite,
                     rand_payload, rand_semimodule, rand_vector,
                     reference_is_orthogonal, reference_project,
                     reference_reduce, reference_universal_halfspace,
                     semimodule_grid_members, typed, v)

def test_project_known_values():
    V = mp.GeneratedSemimodule([v(0, 0, 0)])
    assert mp.project_semimodule(V, v(2, 1, 0)) == v(0, 0, 0)
    assert mp.project_semimodule(V, v(3, 3, 3)) == v(3, 3, 3)

    plane = mp.GeneratedSemimodule([v(0, NEG), v(NEG, 0)])
    assert mp.project_semimodule(plane, v(5, 7)) == v(5, 7)

    assert mp.project_semimodule(EVAX_GENS, EVAX_X) == EVAX_P

    empty = mp.GeneratedSemimodule([], n=2)
    assert mp.project_semimodule(empty, v(1, 2)) == v(NEG, NEG)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionError):
        mp.project_semimodule(EVAX_GENS, v(0, 0))


def test_distance_to_known_values():
    V = mp.GeneratedSemimodule([v(0, 0, 0)])
    assert mp.distance_to(V, v(4, 4, 4)) == 0
    assert mp.distance_to(V, v(2, 1, 0)) == 2
    assert mp.distance_to(EVAX_GENS, EVAX_X) == 1
    # no combination can reach the support of x
    W = mp.GeneratedSemimodule([v(0, NEG)])
    assert mp.distance_to(W, v(0, 0)) == POS


def test_membership():
    assert mp.membership(EVAX_GENS, v(NEG, 0, NEG))
    assert mp.membership(EVAX_GENS, v(NEG, NEG, NEG))
    assert mp.membership(EVAX_GENS, EVAX_P)
    assert not mp.membership(EVAX_GENS, EVAX_X)
    V = mp.GeneratedSemimodule([v(0, 0, 0), v(NEG, 0, NEG), v(NEG, NEG, 0)])
    assert mp.project_semimodule(V, v(2, 1, 0)) == v(0, 1, 0)
    assert not mp.membership(V, v(2, 1, 0))


def test_universal_halfspace_evax():
    H = mp.universal_halfspace(EVAX_GENS, EVAX_X)
    assert H.a == v(NEG, -1, 0)
    assert H.b == v(-1, NEG, NEG)
    assert mp.contains(H, EVAX_P)
    assert not mp.contains(H, EVAX_X)
    for g in EVAX_GENS.generators:
        assert mp.contains(H, g)
    assert mp.project(H, EVAX_X) == EVAX_P
    assert mp.distance(H, EVAX_X) == mp.distance_to(EVAX_GENS, EVAX_X)
    apex, _ = mp.apex_and_sectors(mp.canonicalize(H))
    assert apex == EVAX_P


def test_universal_halfspace_errors():
    with pytest.raises(PointInSetError):
        mp.universal_halfspace(EVAX_GENS, EVAX_P)
    W = mp.GeneratedSemimodule([v(0, NEG)])
    with pytest.raises(UnsupportedCaseError, match="reduce"):
        mp.universal_halfspace(W, v(1, 0))


def test_is_orthogonal():
    V = mp.GeneratedSemimodule([v(0, 0, 0)])
    x = v(2, 1, 0)
    assert mp.is_orthogonal(V, x, v(0, 0, 0))
    assert not mp.is_orthogonal(V, x, v(1, 1, 1))
    assert mp.is_orthogonal(EVAX_GENS, EVAX_X, EVAX_P)


def test_orthogonality_of_projection_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        V = rand_semimodule(rng, n, rng.randint(1, 3))
        x = rand_vector(rng, n, -3, 3)
        assert mp.is_orthogonal(V, x, mp.project_semimodule(V, x))


def test_orthogonality_uniqueness_on_grid():
    rng = random.Random(18)
    G = GridSpec(-4, 4)
    checked = 0
    while checked < 30:
        V = rand_semimodule(rng, 2, rng.randint(1, 2))
        x = rand_vector(rng, 2, -2, 2)
        P = mp.project_semimodule(V, x)
        if mp.membership(V, x) or not all(finite(e) for e in P):
            continue
        checked += 1
        for m in semimodule_grid_members(V, G):
            assert mp.is_orthogonal(V, x, m) == (m == P)


def test_projection_properties_random():
    rng = random.Random(19)
    for _ in range(200):
        n = rng.choice((2, 3))
        V = rand_semimodule(rng, n, rng.randint(1, 3))
        x = rand_vector(rng, n, -3, 3)
        y = rand_vector(rng, n, -3, 3)
        Px = mp.project_semimodule(V, x)
        assert mp.leq(Px, x)
        assert mp.project_semimodule(V, Px) == Px
        assert mp.membership(V, Px)
        if mp.leq(x, y):
            assert mp.leq(Px, mp.project_semimodule(V, y))


def test_projection_is_best_approximation_on_grid():
    rng = random.Random(20)
    G = GridSpec(-4, 4)
    for _ in range(30):
        V = rand_semimodule(rng, 2, rng.randint(1, 2))
        x = rand_vector(rng, 2, -2, 2)
        d = mp.distance_to(V, x)
        for m in semimodule_grid_members(V, G):
            assert d <= mp.hilbert_distance(x, m)


def test_projection_matches_grid_oracle():
    rng = random.Random(21)
    G = GridSpec(-5, 5)
    for _ in range(40):
        V = rand_semimodule(rng, 2, rng.randint(1, 3))
        x = rand_vector(rng, 2, -2, 2)
        assert mp.project_semimodule(V, x) == grid_projection(V, x, G)


def test_separation_random():
    rng = random.Random(22)
    checked = 0
    while checked < 60:
        n = rng.choice((2, 3))
        V = rand_semimodule(rng, n, rng.randint(1, 3))
        x = rand_vector(rng, n, -3, 3)
        P = mp.project_semimodule(V, x)
        if P == x or not all(finite(e) for e in P):
            continue
        checked += 1
        H = mp.universal_halfspace(V, x)
        assert not mp.contains(H, x)
        for _ in range(10):
            lam = [rng.randint(-3, 3) for _ in V.generators]
            m = v(*([NEG] * n))
            for g, s in zip(V.generators, lam):
                m = mp.vec_oplus(m, mp.vec_scale(g, s))
            assert mp.contains(H, m)
        assert mp.project(H, x) == P
        assert mp.distance(H, x) == mp.distance_to(V, x)


def test_part_containment():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.choice((2, 3))
        V = rand_semimodule(rng, n, rng.randint(1, 3), p_neg_inf=0.4)
        x = rand_vector(rng, n, -3, 3, p_neg_inf=0.3)
        P = mp.project_semimodule(V, x)
        if finite(mp.hilbert_distance(x, P)):
            assert mp.part_of(P).supp == mp.part_of(x).supp


def test_reduce_problem_identity_on_finite():
    x = v(2, 1, 0)
    x2, V2, I = mp.reduce_problem(EVAX_GENS, x)
    assert x2 == x and I == (0, 1, 2)
    assert V2.generators == EVAX_GENS.generators


def test_reduce_problem_drops_coordinates_and_generators():
    V = mp.GeneratedSemimodule([v(0, NEG)])
    x2, V2, I = mp.reduce_problem(V, v(2, NEG))
    assert x2 == v(2) and I == (0,)
    assert V2.generators == (v(0),)
    assert mp.distance_to(V2, x2) == 0

    V = mp.GeneratedSemimodule([v(0, 0, 0), v(0, NEG, -1)])
    x2, V2, I = mp.reduce_problem(V, v(3, NEG, 1))
    assert x2 == v(3, 1) and I == (0, 2)
    # the full-support generator can never land in the part of x
    assert V2.generators == (v(0, -1),)
    assert mp.distance_to(V2, x2) == 1
    assert mp.distance_to(V, v(3, NEG, 1)) == 1


def test_reduce_problem_errors():
    V = mp.GeneratedSemimodule([v(0, 0, 0)])
    with pytest.raises(InfiniteDistanceError):
        mp.reduce_problem(V, v(2, 1, NEG))
    with pytest.raises(UnsupportedCaseError):
        mp.reduce_problem(V, v(0, 0, POS))
    with pytest.raises(UnsupportedCaseError):
        mp.reduce_problem(V, v(NEG, NEG, NEG))


def test_reduce_problem_preserves_distance_and_projection():
    rng = random.Random(24)
    checked = 0
    while checked < 100:
        n = rng.choice((3, 4))
        V = rand_semimodule(rng, n, rng.randint(1, 3), p_neg_inf=0.4)
        x = rand_vector(rng, n, -3, 3, p_neg_inf=0.35)
        if not any(finite(e) for e in x):
            continue
        d = mp.distance_to(V, x)
        if not finite(d):
            continue
        checked += 1
        x2, V2, I = mp.reduce_problem(V, x)
        assert mp.distance_to(V2, x2) == d
        lifted = mp.lift_point(mp.project_semimodule(V2, x2), I, n)
        assert lifted == mp.project_semimodule(V, x)


def test_lift_point():
    assert mp.lift_point(v(3, 1), (0, 2), 3) == v(3, NEG, 1)
    assert mp.lift_point(v(5), (1,), 2) == v(NEG, 5)
    assert mp.lift_point(v(), (), 2) == v(NEG, NEG)


def test_lift_point_rejects_mismatched_indices():
    for entries, I, n in (((1, 2, 3), (0, 2), 3), ((1,), (0, 2), 3),
                          ((1, 2), (0, 5), 3), ((1,), (-1,), 3)):
        with pytest.raises(DimensionError):
            mp.lift_point(v(*entries), I, n)


def test_generator_text_round_trip():
    text = mp.format_generators(EVAX_GENS)
    W = mp.parse_generators(text)
    assert W.generators == EVAX_GENS.generators
    assert W.n == 3
    for V in (mp.GeneratedSemimodule([], n=0), mp.GeneratedSemimodule([], n=2),
              mp.GeneratedSemimodule([[], [], []])):
        W = mp.parse_generators(mp.format_generators(V))
        assert (W.generators, W.n) == (V.generators, V.n)


def test_parsed_generators_build_one_matrix(monkeypatch):
    # the parsed matrix is the family: its rows and supports are taken
    # as they are, not checked and computed a second time
    built = [0]
    inner = mp.TropicalMatrix.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        inner(self, *args, **kwargs)
    monkeypatch.setattr(mp.TropicalMatrix, "__init__", counted)
    W = mp.parse_generators(mp.format_generators(EVAX_GENS))
    assert built[0] == 1
    assert (W.generators, W.n, W._support) == (
        EVAX_GENS.generators, 3, EVAX_GENS._support)
    M = mp.matrix([[0, NEG], [NEG, 1]])
    V = mp.GeneratedSemimodule(M, n=2)
    assert V.generators is M.rows and V._support is M._support
    assert mp.GeneratedSemimodule(mp.matrix([], ncols=3)).n == 3
    with pytest.raises(DimensionError):
        mp.GeneratedSemimodule(M, n=3)


scalars = st.one_of(st.just(NEG), st.just(POS),
                    st.integers(min_value=-9, max_value=9))


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n),
                       min_size=0, max_size=4).map(lambda gens: (gens, n))))
def test_generators_round_trip(family):
    gens, n = family
    V = mp.GeneratedSemimodule(gens, n=n)
    W = mp.parse_generators(mp.format_generators(V))
    assert (W.generators, W.n) == (V.generators, V.n)


# --- the support-sparse kernels against the per-generator composition -------

def _check_fused_kernels(V, u, y):
    P = mp.project_semimodule(V, u)
    assert typed(P) == typed(reference_project(V, u))
    for w in (y, P, u):
        assert mp.is_orthogonal(V, u, w) == reference_is_orthogonal(V, u, w)
    try:
        want = reference_reduce(V, u)
    except MaxplusError as e:
        with pytest.raises(type(e)):
            mp.reduce_problem(V, u)
        return False
    x2, V2, I = mp.reduce_problem(V, u)
    assert typed((x2, V2.generators, I)) == typed(want)
    assert V2.n == len(I)
    return True


def _mixed_family(rng, n):
    gens = []
    for _ in range(rng.randint(0, 4)):
        shape = rng.random()
        if shape < 0.1:
            gens.append([NEG] * n)  # empty support
        elif shape < 0.2:
            gens.append([rand_payload(rng, 0.3, 0.4) for _ in range(n)])
        else:
            gens.append([rand_payload(rng, 0.25, 0.05) for _ in range(n)])
    return mp.GeneratedSemimodule(gens, n=n)


def test_fused_kernels_match_composition_seeded():
    rng = random.Random(25)
    reduced = 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        V = _mixed_family(rng, n)
        u = mp.vector([rand_payload(rng, 0.15, 0.1) for _ in range(n)])
        y = mp.vector([rand_payload(rng, 0.15, 0.1) for _ in range(n)])
        reduced += _check_fused_kernels(V, u, y)
    assert reduced > 300


payloads = st.one_of(st.just(NEG), st.just(POS),
                     st.integers(min_value=-6, max_value=6),
                     st.fractions(min_value=-3, max_value=3, max_denominator=3),
                     st.integers(min_value=-12, max_value=12).map(lambda k: k / 2))


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.tuples(st.lists(st.lists(payloads, min_size=n, max_size=n),
                                 max_size=4),
                        st.lists(payloads, min_size=n, max_size=n),
                        st.lists(payloads, min_size=n, max_size=n),
                        st.just(n))))
def test_fused_kernels_match_composition(case):
    gens, u, y, n = case
    _check_fused_kernels(mp.GeneratedSemimodule(gens, n=n), mp.vector(u),
                         mp.vector(y))


def test_projection_normalises_like_the_scalar_action():
    half, five_halves = mp.parse_scalar("1/2"), mp.parse_scalar("5/2")
    V = mp.GeneratedSemimodule([[half, 3]])
    # the residual is 5/2 - 1/2, a Fraction equal to 2: it acts as the
    # int 2, so 3 + 2 stays an int
    P = mp.project_semimodule(V, v(five_halves, 9))
    assert typed(P) == typed(v(five_halves, 5))
    assert typed(P) == typed(reference_project(V, v(five_halves, 9)))
    W = mp.GeneratedSemimodule([[7, POS], [NEG, NEG]])
    assert mp.project_semimodule(W, v(POS, POS)) == v(POS, POS)
    assert mp.project_semimodule(W, v(POS, 3)) == v(NEG, NEG)
    huge = 10 ** 308
    with pytest.raises(ValueError):
        mp.project_semimodule(mp.GeneratedSemimodule([[huge, -huge]]),
                              v(-huge, -huge))


def test_separating_halfspace_keeps_payload_types():
    # the projection here is Fraction(1) on both coordinates; its
    # negation enters the half-space as the int -1, as user input would
    half = mp.parse_scalar("1/2")
    V = mp.GeneratedSemimodule([[half, half]])
    H = mp.universal_halfspace(V, v(1, 3))
    assert typed(H.a) == typed(v(-1, NEG)) and typed(H.b) == typed(v(NEG, -1))
    # exact payloads only: with floats mixed in, a rounded projection can
    # miss x on every coordinate, which universal_halfspace refuses (see
    # test_separation_refuses_a_rounded_miss)
    def exact(p_neg, p_pos):
        e = rand_payload(rng, p_neg, p_pos)
        return mp.scalar(Fraction(e)) if type(e) is float and finite(e) else e

    rng = random.Random(26)
    built = 0
    for _ in range(2000):
        n = rng.randint(1, 5)
        V = mp.GeneratedSemimodule([[exact(0.25, 0.05) for _ in range(n)]
                                    for _ in range(rng.randint(0, 4))], n=n)
        x = mp.vector([exact(0, 0) for _ in range(n)])
        P = mp.project_semimodule(V, x)
        if P == x or not all(finite(e) for e in P):
            with pytest.raises(MaxplusError):
                mp.universal_halfspace(V, x)
            continue
        H, want = mp.universal_halfspace(V, x), reference_universal_halfspace(V, x)
        assert (typed(H.a), typed(H.b)) == (typed(want.a), typed(want.b))
        built += 1
    assert built > 500


def test_separation_refuses_a_rounded_miss():
    # exactly, the projection of -2/3 onto the span of (0.0) is -2/3; the
    # float sum 0.0 + (-2/3 - 0.0) rounds above it and touches x nowhere
    with pytest.raises(UnsupportedCaseError, match="payloads mixed"):
        mp.universal_halfspace(mp.GeneratedSemimodule([[0.0]]),
                               v(Fraction(-2, 3)))
    rng = random.Random(26)
    built = missed = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        V = _mixed_family(rng, n)
        x = mp.vector([rand_payload(rng, 0.05, 0.05) for _ in range(n)])
        try:
            mp.universal_halfspace(V, x)
        except MaxplusError as e:
            missed += "payloads mixed" in str(e)
        else:
            built += 1
    assert built > 300 and missed > 0


# --- the last-point memo ----------------------------------------------------

def test_one_projection_per_point(monkeypatch):
    residuals = [0]
    inner = semimodule._residual

    def counted(*args):
        residuals[0] += 1
        return inner(*args)
    monkeypatch.setattr(semimodule, "_residual", counted)
    V = mp.GeneratedSemimodule(EVAX_GENS.generators + (v(0, NEG, 2),))
    x = v(*EVAX_X)
    P = mp.project_semimodule(V, x)
    assert mp.distance_to(V, x) == mp.hilbert_distance(x, P)
    mp.universal_halfspace(V, x)
    assert mp.project_semimodule(V, x) is P
    assert residuals[0] == 4  # one pass over the four generators
    residuals[0] = 0
    y = v(3, NEG, 1)
    mp.project_semimodule(V, y)
    mp.distance_to(V, y)
    y2, V2, _ = mp.reduce_problem(V, y)
    mp.universal_halfspace(V2, y2)
    # one pass over V: reduce_problem restricts the projection of y that
    # V holds, and universal_halfspace reads it off V2
    assert len(V2.generators) == 2
    assert residuals[0] == 4
    z = v(2, NEG, 0)
    mp.reduce_problem(V, z)
    # a point V has not projected: one pass over the reduced family
    assert residuals[0] == 4 + 2


def test_reduction_reuses_the_projection_exactly():
    # the projection reduce_problem leaves on V' is a fresh projection of
    # x' onto V', payload types included, whether it was restricted from
    # the projection of x that V held or computed over V'
    rng = random.Random(26)
    reused = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        V = _mixed_family(rng, n)
        x = mp.vector([rand_payload(rng, 0.3, 0.0) for _ in range(n)])
        try:
            want = reference_reduce(V, x)
        except MaxplusError as e:
            for prior in (False, True):
                W = mp.GeneratedSemimodule(V.generators, n=n)
                if prior:
                    mp.project_semimodule(W, x)
                with pytest.raises(type(e)):
                    mp.reduce_problem(W, x)
            continue
        got = []
        for prior in (False, True):
            W = mp.GeneratedSemimodule(V.generators, n=n)
            if prior:
                mp.project_semimodule(W, x)
            x2, V2, I = mp.reduce_problem(W, x)
            assert typed((x2, V2.generators, I)) == typed(want)
            stored = V2._last
            assert stored[0] is x2.entries
            got.append(typed(stored[1]))
        assert got[0] == got[1] == typed(reference_project(
            mp.GeneratedSemimodule(want[1], n=len(want[2])), want[0]))
        reused += 1
    assert reused > 700


def test_memo_keys_on_the_entries_tuple():
    half = mp.parse_scalar("1/2")
    V = mp.GeneratedSemimodule([[half, 0, NEG], [0, NEG, 1.5]])
    points = [v(1, 2, 3), v(1.0, 2.0, 3.0), v(mp.parse_scalar("3/2"), 2, 3),
              v(1.5, 2, 3), v(1, 2, 3)]
    for _ in range(2):
        for x in points:
            P = mp.project_semimodule(V, x)
            assert typed(P) == typed(reference_project(V, x))
            assert mp.project_semimodule(V, x) is P
    # equal values in another tuple: a fresh projection, of equal value
    P0 = mp.project_semimodule(V, points[0])
    assert mp.project_semimodule(V, points[-1]) is not P0
    assert typed(mp.project_semimodule(V, points[-1])) == typed(P0)
