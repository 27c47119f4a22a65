"""The brute-force oracles themselves, checked on known answers and a
mutation test, before anything else leans on them."""

import random

import pytest

import maxplus as mp
from oracle import (GridSpec, grid_galois, grid_min_distance,
                    grid_projection, grid_vectors)
from helpers import DISJ_H, DISJ_X, NEG, POS, v

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(3, 1)
    with pytest.raises(ValueError):
        GridSpec(0, 1, step=0)
    assert GridSpec(-1, 1).scalars() == [-1, 0, 1]
    withinf = GridSpec(0, 0, infinity_patterns=True).scalars()
    assert withinf == [NEG, 0, POS]


def test_grid_vectors_count():
    G = GridSpec(0, 1)
    assert len(list(grid_vectors(3, G))) == 8


def test_grid_min_distance_two_face_example():
    G = GridSpec(-3, 3)
    d, argmins = grid_min_distance(DISJ_H, DISJ_X, G)
    assert d == 1
    assert v(0, 0, 0) in argmins
    assert v(0, 0, -1) in argmins
    assert argmins == sorted(argmins, key=lambda h: h.entries)


def test_grid_min_distance_member_point():
    H = mp.HalfSpace([0, NEG], [NEG, 0])  # h_1 >= h_2
    x = v(1, 0)
    d, argmins = grid_min_distance(H, x, GridSpec(-2, 2))
    assert d == 0
    assert x in argmins


def test_grid_min_distance_bottom_only():
    H = mp.HalfSpace([NEG, NEG], [0, 0])
    d, argmins = grid_min_distance(H, v(0, 0), GridSpec(-2, 2, infinity_patterns=True))
    assert d == POS and argmins == []


def test_grid_projection_halfspace():
    H = mp.HalfSpace([-2, -1, 0], [-1, -1, 0])
    got = grid_projection(H, v(2, 1, 0), GridSpec(-3, 3))
    assert got == v(1, 1, 0)
    inside = v(0, 1, 1)
    assert grid_projection(H, inside, GridSpec(-3, 3)) == inside


def test_grid_projection_semimodule():
    V = mp.GeneratedSemimodule([[0, 0, NEG], [NEG, 0, NEG], [NEG, NEG, 0]])
    assert grid_projection(V, v(2, 1, 0), GridSpec(-3, 3)) == v(1, 1, 0)
    empty = mp.GeneratedSemimodule([], n=2)
    assert grid_projection(empty, v(1, 1), GridSpec(-1, 1)) == v(NEG, NEG)


def test_grid_galois_identity_and_random():
    eye = mp.matrix([[0, NEG], [NEG, 0]])
    assert grid_galois(eye, GridSpec(-2, 2, infinity_patterns=True))
    rng = random.Random(7)
    B = mp.matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
    assert grid_galois(B, GridSpec(-4, 4))


def test_corrupted_residual_is_caught():
    # an off-by-one "residual" must violate the adjunction somewhere
    rng = random.Random(8)
    B = mp.matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    G = GridSpec(-2, 2)

    def corrupted(y):
        return mp.vec_scale(mp.residuated_apply(B, y), 1)

    broken = False
    for x in grid_vectors(2, G):
        Bx = mp.mat_apply(B, x)
        for y in grid_vectors(2, G):
            if mp.leq(Bx, y) != mp.leq(x, corrupted(y)):
                broken = True
                break
        if broken:
            break
    assert broken
