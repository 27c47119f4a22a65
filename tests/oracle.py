"""Brute-force reference implementations over finite integer grids.

Everything here evaluates definitions by exhaustive enumeration, with
none of the closed forms used by the main modules, so agreement between
the two is meaningful.  Integer inputs keep every optimum on the grid:
the formulas under test are max/min/plus combinations, hence
integer-valued on integer data, so step-1 grids of sufficient range
are exact, not approximate.

Test support only: the library never imports it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from maxplus.extreal import NEG_INF, POS_INF
from maxplus.halfspace import HalfSpace, contains
from maxplus.hilbert_metric import hilbert_distance
from maxplus.semimodule import GeneratedSemimodule
from maxplus.tropical_linalg import (TropicalVector, leq, mat_apply,
                                     residuated_apply, vec_oplus, vec_scale)


@dataclass(frozen=True)
class GridSpec:
    """Integer values low, low+step, ..., high, optionally with the two
    infinities substituted in as well."""

    low: int
    high: int
    step: int = 1
    infinity_patterns: bool = False

    def __post_init__(self):
        if self.low > self.high:
            raise ValueError(f"low {self.low} > high {self.high}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")

    def scalars(self):
        vals = list(range(self.low, self.high + 1, self.step))
        if self.infinity_patterns:
            vals = [NEG_INF] + vals + [POS_INF]
        return vals


def grid_vectors(n, G):
    """Every vector with all entries drawn from the grid."""
    for combo in itertools.product(G.scalars(), repeat=n):
        yield TropicalVector(combo)


def grid_min_distance(H, x, G):
    """Minimum of hilbert_distance(x, h) over grid members h of H, with
    every attaining point, sorted lexicographically.  When no grid
    member is at finite distance the result is (+inf, [])."""
    best = POS_INF
    argmins = []
    for h in grid_vectors(H.n, G):
        if not contains(H, h):
            continue
        d = hilbert_distance(x, h)
        if d < best:
            best = d
            argmins = [h]
        elif d == best:
            argmins.append(h)
    if best == POS_INF:
        return POS_INF, []
    return best, sorted(argmins, key=lambda h: h.entries)


def _grid_members_leq(S_or_H, x, G):
    if isinstance(S_or_H, HalfSpace):
        for h in grid_vectors(S_or_H.n, G):
            if leq(h, x) and contains(S_or_H, h):
                yield h
        return
    if isinstance(S_or_H, GeneratedSemimodule):
        V = S_or_H
        lambdas = [NEG_INF] + G.scalars()
        for combo in itertools.product(lambdas, repeat=len(V.generators)):
            v = TropicalVector([NEG_INF] * V.n)
            for g, lam in zip(V.generators, combo):
                v = vec_oplus(v, vec_scale(g, lam))
            if leq(v, x):
                yield v
        return
    raise TypeError(f"no grid enumeration for {type(S_or_H).__name__}")


def grid_projection(S_or_H, x, G):
    """Entrywise maximum of the set's grid members below x: the
    definition of the canonical projection, evaluated by enumeration.

    For a generating family, members are enumerated as suprema of
    generators scaled by grid values (and -inf); the grid must be wide
    enough to reach the optimal scalings.
    """
    best = TropicalVector([NEG_INF] * len(x))
    for v in _grid_members_leq(S_or_H, x, G):
        best = vec_oplus(best, v)
    return best


def grid_galois(B, G):
    """Check B x <= y  <=>  x <= B#(y) for every pair on the grid."""
    xs = [(x, mat_apply(B, x)) for x in grid_vectors(B.ncols, G)]
    ys = [(y, residuated_apply(B, y)) for y in grid_vectors(B.nrows, G)]
    for x, Bx in xs:
        for y, sharp in ys:
            if leq(Bx, y) != leq(x, sharp):
                return False
    return True
