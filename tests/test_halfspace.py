"""Half-space geometry: membership, canonical form, apex/sectors,
projection, distance, and the best-approximation set."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus import halfspace
from maxplus.errors import (ClassificationError, DimensionError,
                            InfiniteDistanceError, MaxplusError,
                            PointInSetError, UnsupportedCaseError)
from maxplus.halfspace import Kind
from oracle import GridSpec, grid_min_distance, grid_projection, grid_vectors
from helpers import (DISJ_H, DISJ_X, NEG, PAYLOAD_KINDS, POS, RULTER_H,
                     SUBFACE_H, SUBFACE_X, finite, rand_halfspace,
                     rand_payload, rand_vector, reference_best_approx_set,
                     reference_canonical, reference_classify,
                     tied_best_approx_case, typed, v)

def test_contains():
    assert mp.contains(RULTER_H, v(1, 1, 0))
    assert not mp.contains(RULTER_H, v(2, 1, 0))
    assert mp.contains(RULTER_H, v(NEG, NEG, NEG))


def test_classify_entrywise_rules():
    assert mp.classify(mp.HalfSpace([0, 0], [-1, NEG])) is Kind.EVERYTHING
    assert mp.classify(mp.HalfSpace([-1], [0])) is Kind.BOTTOM_ONLY
    assert mp.classify(mp.HalfSpace([NEG, NEG], [0, 0])) is Kind.BOTTOM_ONLY
    assert mp.classify(RULTER_H) is Kind.PROPER


def test_strict_drop_needs_every_coordinate():
    # a_1 < b_1 but a_2 = b_2 = -inf: the set is {h | h_1 = -inf},
    # which holds more than the bottom vector, so this is proper
    H = mp.HalfSpace([NEG, NEG], [0, NEG])
    assert mp.classify(H) is Kind.PROPER
    assert mp.contains(H, v(NEG, 5))
    assert not mp.contains(H, v(0, 0))
    assert mp.project(H, v(0, 3)) == v(NEG, 3)


def test_bottom_only_means_bottom_only():
    # half-spaces live in the -inf-extended space; +inf points are outside it
    H = mp.HalfSpace([NEG, -5], [0, -1])
    assert mp.classify(H) is Kind.BOTTOM_ONLY
    for h in grid_vectors(2, GridSpec(-3, 3, infinity_patterns=True)):
        if any(e == POS for e in h):
            continue
        assert mp.contains(H, h) == all(e == NEG for e in h)


def test_canonicalize_known_values():
    C = mp.canonicalize(mp.HalfSpace([-2, -1, 0], [-1, -1, 0]))
    assert C.a_prime == v(NEG, -1, 0)
    assert C.b_prime == v(-1, NEG, NEG)
    assert C.I == {1, 2} and C.J == {0}

    C = mp.canonicalize(RULTER_H)
    assert C.a_prime == RULTER_H.a and C.b_prime == RULTER_H.b

    C = mp.canonicalize(mp.HalfSpace([0, 0], [1, NEG]))
    assert C.a_prime == v(NEG, 0) and C.b_prime == v(1, NEG)


def test_canonical_form_is_a_value():
    # == and hash compare (n, a_pairs, b_pairs), as tuples compare: equal
    # payloads of two types are equal; the repr names every field
    C = mp.canonicalize(mp.HalfSpace([NEG, -1, 0.5], [Fraction(-1, 2), NEG, 1]))
    assert repr(C) == ("CanonicalHalfSpace(n=3, a_pairs=((1, -1),), "
                       "b_pairs=((0, Fraction(-1, 2)), (2, 1)))")
    same = mp.CanonicalHalfSpace(3, ((1, -1.0),), ((0, -0.5), (2, 1)))
    assert C == same and not C != same and C is not same
    assert hash(C) == hash(same) == hash((3, ((1, -1),), ((0, Fraction(-1, 2)), (2, 1))))
    assert {C: 1}[same] == 1
    for other in (mp.CanonicalHalfSpace(4, C.a_pairs, C.b_pairs),
                  mp.CanonicalHalfSpace(3, C.b_pairs, C.a_pairs),
                  mp.CanonicalHalfSpace(3, C.a_pairs, C.b_pairs[:1])):
        assert C != other and not C == other
    assert C != (3, C.a_pairs, C.b_pairs) and C.__eq__((3,)) is NotImplemented
    assert mp.CanonicalHalfSpace(n=3, a_pairs=C.a_pairs, b_pairs=C.b_pairs) == C
    # slotted: no per-object dict
    assert not hasattr(C, "__dict__")


def _check_form(H):
    kind = mp.classify(H)
    assert kind is reference_classify(H)
    # every half-space keeps its form, whatever its kind
    C = halfspace._form(H)
    if kind is Kind.PROPER:
        assert mp.canonicalize(H) is C
    else:
        with pytest.raises(ClassificationError):
            mp.canonicalize(H)
    a_prime, b_prime, I, J = reference_canonical(H)
    assert typed(C.a_prime) == typed(a_prime)
    assert typed(C.b_prime) == typed(b_prime)
    assert C.I == I and C.J == J and C.n == H.n
    assert typed(C.a_pairs) == typed([(i, a_prime[i]) for i in sorted(I)])
    assert typed(C.b_pairs) == typed([(j, b_prime[j]) for j in sorted(J)])
    return kind


def test_one_pass_form_matches_two_scan_reference_seeded():
    rng = random.Random(1010)
    kinds = {k: 0 for k in Kind}
    for t in range(3600):
        n = rng.randint(0, 6)
        shape = t % 4
        if shape == 0:  # all -inf: Everything
            a, b = [NEG] * n, [NEG] * n
        elif shape == 1:  # a above b everywhere: Everything
            b = [rand_payload(rng, 0.3, 0) for _ in range(n)]
            a = [e if e == NEG else e + rng.randint(0, 2) for e in b]
        elif shape == 2:  # a below a finite b everywhere: BottomOnly
            a = [rand_payload(rng, 0.3, 0) for _ in range(n)]
            b = [rng.randint(-6, 6) if e == NEG else e + rng.choice((1, 0.5))
                 for e in a]
        else:
            a = [rand_payload(rng, 0.3, 0) for _ in range(n)]
            b = [rand_payload(rng, 0.3, 0) for _ in range(n)]
        kinds[_check_form(mp.HalfSpace(a, b))] += 1
    assert min(kinds.values()) > 300


def test_canonicalize_preserves_the_set_on_a_grid():
    H = mp.HalfSpace([0, 0], [1, NEG])
    C = mp.canonicalize(H)
    for h in grid_vectors(2, GridSpec(-3, 3)):
        assert mp.contains(H, h) == mp.contains(C.halfspace(), h)


def test_canonicalize_rejects_degenerate():
    with pytest.raises(ClassificationError, match="Everything"):
        mp.canonicalize(mp.HalfSpace([0], [0]))
    with pytest.raises(ClassificationError, match="BottomOnly"):
        mp.canonicalize(mp.HalfSpace([-1], [0]))


def test_canonical_equivalence_random():
    rng = random.Random(202)
    done = 0
    while done < 1000:
        n = rng.choice((2, 2, 3, 3, 4))
        H = rand_halfspace(rng, n, lo=-5, hi=5, p_neg_inf=0.3)
        if mp.classify(H) is not Kind.PROPER:
            continue
        done += 1
        C = mp.canonicalize(H).halfspace()
        assert len(C.a) == n
        if n == 2:
            points = grid_vectors(2, GridSpec(-6, 6, infinity_patterns=True))
        else:
            points = (rand_vector(rng, n, -6, 6, 0.15) for _ in range(300))
        for h in points:
            # the equivalence is a statement about the -inf-extended space
            if any(e == POS for e in h):
                continue
            assert mp.contains(H, h) == mp.contains(C, h)


def test_apex_and_sectors_values():
    C = mp.canonicalize(mp.HalfSpace([-2, -1, 0], [-1, -1, 0]))
    apex, sectors = mp.apex_and_sectors(C)
    assert apex == v(1, 1, 0)
    assert [s.pivot for s in sectors] == [1, 2]

    C = mp.canonicalize(mp.HalfSpace([0, NEG], [NEG, 0]))
    apex, _ = mp.apex_and_sectors(C)
    assert apex == v(0, 0)

    C = mp.canonicalize(RULTER_H)
    apex, sectors = mp.apex_and_sectors(C)
    assert apex == v(0, 0, POS)  # coordinate 3 carries no coefficient
    assert [s.pivot for s in sectors] == [1]


def test_sectors_cover_the_halfspace():
    rng = random.Random(11)
    for _ in range(50):
        H = rand_halfspace(rng, 3, lo=-3, hi=3, p_neg_inf=0.3)
        if mp.classify(H) is not Kind.PROPER:
            continue
        C = mp.canonicalize(H)
        _, sectors = mp.apex_and_sectors(C)
        for h in grid_vectors(3, GridSpec(-2, 2)):
            in_union = any(mp.contains(s.halfspace, h) for s in sectors)
            assert in_union == mp.contains(H, h)


def test_project_known_values():
    assert mp.project(RULTER_H, v(2, 1, 0)) == v(1, 1, 0)
    assert mp.project(DISJ_H, DISJ_X) == v(0, 0, 0)
    assert mp.project(SUBFACE_H, SUBFACE_X) == v(0, 0, 0)
    member = v(0, 1, 1)
    assert mp.project(RULTER_H, member) == member


def test_project_degenerate_kinds():
    x = v(3, -1)
    assert mp.project(mp.HalfSpace([0, 0], [NEG, -1]), x) == x
    assert mp.project(mp.HalfSpace([NEG, -5], [0, -1]), x) == v(NEG, NEG)


def test_project_properties_random():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.choice((2, 3))
        H = rand_halfspace(rng, n, lo=-3, hi=3)
        x = rand_vector(rng, n, -3, 3)
        P = mp.project(H, x)
        assert mp.contains(H, P)
        assert mp.leq(P, x)
        assert mp.project(H, P) == P
        assert mp.distance(H, x) == mp.hilbert_distance(x, P)


def test_project_is_maximal_on_grid():
    rng = random.Random(44)
    G = GridSpec(-4, 4)
    for _ in range(40):
        H = rand_halfspace(rng, 2, lo=-2, hi=2)
        x = rand_vector(rng, 2, -2, 2)
        P = mp.project(H, x)
        for h in grid_vectors(2, G):
            if mp.contains(H, h) and mp.leq(h, x):
                assert mp.leq(h, P)


def test_distance_known_values():
    assert mp.distance(DISJ_H, DISJ_X) == 1
    assert mp.distance(SUBFACE_H, SUBFACE_X) == 2
    assert mp.distance(RULTER_H, v(0, 1, 1)) == 0
    assert mp.distance(RULTER_H, v(NEG, NEG, NEG)) == NEG
    # a' wiped out against x: nothing of the a side survives, distance +inf
    H = mp.HalfSpace([NEG, 0], [0, NEG])
    assert mp.distance(H, v(0, NEG)) == POS
    assert mp.distance(mp.HalfSpace([NEG, -5], [0, -1]), v(0, 0)) == POS


def test_best_approx_single_face_segment():
    got = mp.best_approx_set(RULTER_H, v(2, 1, 0))
    assert got.base_distance == 1
    assert len(got.faces) == 1
    f = got.faces[0]
    assert f.pivot == 1
    assert f.fixed == {1: 0, 0: 0}
    assert f.box == {2: (-2, -1)}


def test_best_approx_two_faces():
    got = mp.best_approx_set(DISJ_H, DISJ_X)
    assert got.base_distance == 1
    assert [f.pivot for f in got.faces] == [0, 2]
    f1, f3 = got.faces
    assert f1.fixed == {0: 0, 1: 0}
    assert f1.box == {2: (-1, 0)}
    assert f3.fixed == {2: 0, 1: 0}
    assert f3.box == {0: (-1, 0)}


def test_best_approx_subface():
    got = mp.best_approx_set(SUBFACE_H, SUBFACE_X)
    assert got.base_distance == 2
    assert len(got.faces) == 1
    f = got.faces[0]
    assert f.pivot == 2
    assert f.fixed == {2: 0, 1: 0}
    assert f.box == {0: (-1, 0)}


def test_best_approx_contains_projection_and_translates():
    for H, x in ((RULTER_H, v(2, 1, 0)), (DISJ_H, DISJ_X),
                 (SUBFACE_H, SUBFACE_X)):
        got = mp.best_approx_set(H, x)
        P = mp.project(H, x)
        assert got.contains(P)
        assert got.contains(mp.vec_scale(P, 7))
        assert got.contains(mp.vec_scale(P, -3))


def test_best_approx_errors():
    with pytest.raises(PointInSetError):
        mp.best_approx_set(RULTER_H, v(0, 1, 1))
    with pytest.raises(InfiniteDistanceError):
        mp.best_approx_set(mp.HalfSpace([-1], [0]), v(0))
    with pytest.raises(InfiniteDistanceError):
        mp.best_approx_set(mp.HalfSpace([NEG, 0], [0, NEG]), v(0, NEG))
    with pytest.raises(UnsupportedCaseError):
        mp.best_approx_set(RULTER_H, v(POS, 0, 0))


def test_face_membership_checks_the_dimension():
    H = mp.HalfSpace([0, NEG, 0], [NEG, 0, NEG])
    best = mp.best_approx_set(H, v(0, 1, 0))
    P = mp.project(H, v(0, 1, 0))
    assert best.contains(P)
    for h in (v(*P, 0), v(*P.entries[:2])):
        with pytest.raises(DimensionError):
            best.contains(h)
        for face in best.faces:
            with pytest.raises(DimensionError):
                face.contains(h)


def test_is_best_approx_examples():
    assert mp.is_best_approx(DISJ_H, DISJ_X, v(0, 0, 0))
    assert mp.is_best_approx(DISJ_H, DISJ_X, v(0.0, 0.0, -0.5))
    assert not mp.is_best_approx(DISJ_H, DISJ_X, v(0, 0, -2))


def test_is_best_approx_matches_faces_and_distance_on_grid():
    rng = random.Random(55)
    G = GridSpec(-5, 2, infinity_patterns=True)
    checked = 0
    while checked < 60:
        n = rng.choice((2, 3))
        H = rand_halfspace(rng, n, lo=-2, hi=2)
        x = rand_vector(rng, n, -2, 2)
        if mp.classify(H) is not Kind.PROPER or mp.contains(H, x):
            continue
        d = mp.distance(H, x)
        if not finite(d):
            continue
        checked += 1
        approx = mp.best_approx_set(H, x)
        for h in grid_vectors(n, G):
            direct = mp.contains(H, h) and mp.hilbert_distance(x, h) == d
            assert mp.is_best_approx(H, x, h) == direct
            assert approx.contains(h) == direct


def test_best_approx_lies_in_two_balls():
    rng = random.Random(66)
    G = GridSpec(-5, 2)
    checked = 0
    while checked < 40:
        H = rand_halfspace(rng, 3, lo=-2, hi=2)
        x = rand_vector(rng, 3, -2, 2)
        if mp.classify(H) is not Kind.PROPER or mp.contains(H, x):
            continue
        d = mp.distance(H, x)
        if not finite(d):
            continue
        checked += 1
        P = mp.project(H, x)
        for h in grid_vectors(3, G):
            if mp.is_best_approx(H, x, h):
                assert mp.hilbert_distance(h, P) <= d


def test_project_and_distance_match_grid_oracles():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice((2, 3))
        H = rand_halfspace(rng, n, lo=-2, hi=2)
        x = rand_vector(rng, n, -2, 2)
        G = GridSpec(-8, 4, infinity_patterns=True)
        assert mp.project(H, x) == grid_projection(H, x, G)
        if all(finite(e) for e in x):
            d_grid, _ = grid_min_distance(H, x, G)
            assert mp.distance(H, x) == d_grid


def test_halfspace_rejects_pos_inf_coefficients():
    with pytest.raises(UnsupportedCaseError):
        mp.HalfSpace([POS, 0], [0, 0])
    with pytest.raises(UnsupportedCaseError):
        mp.HalfSpace([0, 0], [0, POS])


def test_halfspace_text_round_trip():
    text = mp.format_halfspace(DISJ_H)
    H = mp.parse_halfspace(text)
    assert H == DISJ_H
    with pytest.raises(mp.ParseError) as e:
        mp.parse_halfspace("2\n0 -inf\noops -inf\n")
    assert e.value.line == 3 and e.value.column == 1
    H = mp.HalfSpace([], [])
    assert mp.format_halfspace(H) == "0\n\n\n"
    assert mp.parse_halfspace(mp.format_halfspace(H)) == H


coefficients = st.one_of(st.just(NEG), st.integers(min_value=-9, max_value=9))


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(*[st.lists(coefficients, min_size=n, max_size=n)] * 2)))
def test_halfspace_round_trip(ab):
    H = mp.HalfSpace(*ab)
    assert mp.parse_halfspace(mp.format_halfspace(H)) == H


# --- faces read off the canonical pairs, against a scan of every index ------

def _check_faces(H, x):
    try:
        want = reference_best_approx_set(H, x)
    except MaxplusError as e:
        with pytest.raises(type(e)):
            mp.best_approx_set(H, x)
        return False
    got = mp.best_approx_set(H, x)
    assert typed(got.base_distance) == typed(want.base_distance)
    # typed() lists dict items in order, so the key order of fixed and box
    # is compared too
    assert ([typed((f.pivot, f.fixed, f.box)) for f in got.faces]
            == [typed((f.pivot, f.fixed, f.box)) for f in want.faces])
    # each face owns its dicts; only the bound tuples may be shared
    dicts = [id(d) for f in got.faces for d in (f.fixed, f.box)]
    assert len(set(dicts)) == len(dicts)
    return True


def test_best_approx_faces_match_full_scan_seeded():
    rng = random.Random(26)
    checked = 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        H = mp.HalfSpace([rand_payload(rng, 0.3, 0) for _ in range(n)],
                         [rand_payload(rng, 0.3, 0) for _ in range(n)])
        x = mp.vector([rand_payload(rng, 0.15, 0.03) for _ in range(n)])
        checked += _check_faces(H, x)
    assert checked > 300


def test_best_approx_faces_match_per_face_construction_on_ties():
    # planted ties in a'x give several faces per call, each of which must
    # equal the face built on its own, payload types and key order included
    rng = random.Random(13)
    faces = {kind: [] for kind in PAYLOAD_KINDS}
    for kind in PAYLOAD_KINDS:
        for _ in range(150):
            H, x = tied_best_approx_case(rng, rng.randint(2, 8), kind)
            assert _check_faces(H, x)
            faces[kind].append(len(mp.best_approx_set(H, x).faces))
    for kind, counts in faces.items():
        assert sum(c >= 3 for c in counts) >= 30, kind


coefficients = st.one_of(st.just(NEG), st.integers(min_value=-4, max_value=4),
                         st.fractions(min_value=-2, max_value=2, max_denominator=3),
                         st.integers(min_value=-8, max_value=8).map(lambda k: k / 2))


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.tuples(*[st.lists(c, min_size=n, max_size=n)
                          for c in (coefficients, coefficients,
                                    st.one_of(coefficients, st.just(POS)))])))
def test_best_approx_faces_match_full_scan(case):
    a, b, x = case
    _check_faces(mp.HalfSpace(a, b), mp.vector(x))


def test_canonical_form_computed_once(monkeypatch):
    calls = [0]
    inner = halfspace.CanonicalHalfSpace

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    monkeypatch.setattr(halfspace, "CanonicalHalfSpace", counted)
    H = mp.HalfSpace(DISJ_H.a, DISJ_H.b)
    x = v(*DISJ_X)
    P = mp.project(H, x)
    d = mp.distance(H, x)
    best = mp.best_approx_set(H, x)
    assert all(mp.is_best_approx(H, x, mp.vector(
        [f.fixed[k] if k in f.fixed else f.box[k][0] for k in range(len(x))]))
        for f in best.faces)
    assert mp.classify(H) is Kind.PROPER
    assert mp.canonicalize(H) is mp.canonicalize(H)
    assert calls[0] == 1
    assert mp.project(H, x) == P and mp.distance(H, x) == d
    assert best.base_distance == d
    # another object with the same coefficients has its own form
    mp.project(mp.HalfSpace(DISJ_H.a, DISJ_H.b), x)
    assert calls[0] == 2
    # improper half-spaces refuse canonicalize every time, and each
    # computes its form once, an Everything one and a BottomOnly one alike
    improper = (mp.HalfSpace([0, 0], [-1, NEG]), mp.HalfSpace([-1], [0]))
    for _ in range(2):
        for E in improper:
            with pytest.raises(ClassificationError):
                mp.canonicalize(E)
    assert calls[0] == 4
