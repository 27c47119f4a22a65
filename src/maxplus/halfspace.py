"""Closed max-plus half-spaces of (R u {-inf})^n and best approximation.

A half-space is the solution set of one tropical linear inequality

    H = {h | max_i (a_i + h_i) >= max_i (b_i + h_i)},

with coefficients a, b in R u {-inf} (no +inf).  Every H has a
canonical form with disjoint coefficient supports: drop a_i where
a_i < b_i and drop b_j where a_j >= b_j; the set does not change.  Its
kind is read off J = Supp b': Everything iff J is empty; otherwise
BottomOnly (H = {bottom}) when J is all of range(n), Proper when not.

With canonical coefficients (a', b'), writing I = Supp a', J = Supp b':

  * projection: the greatest element of H below x is
        P_H(x)_k = min( x_k, (a'x) - b'_k )
    (the second term read as a scalar residual, so +inf off J).  This
    holds for every kind: an Everything H moves nothing (J is empty),
    and a BottomOnly H has I empty, so a'x = -inf and every coordinate
    drops to -inf;

  * distance: for x outside H, the projective distance from x to H is
        d(x, H) = (bx) - (a'x)
    as a scalar residual a'x \\ bx, hence +inf exactly when a'x = -inf,
    as it is for every x outside a BottomOnly H;

  * apex: the vector -(a' oplus b') entrywise, +inf off I u J.  H is
    the union over i in I of the sectors
        {h | h_i - apex_i >= h_j - apex_j for all j /= i},
    each of which is again a half-space;

  * best approximations: for x in (R u {-inf})^n outside H at finite
    distance, the set of points of H nearest to x is a finite union of
    boxes lying on faces of the distance ball, one per index i
    attaining a'x.  Normalizing the free additive parameter to 0, the
    face with pivot i is

        h_i = -a'_i,
        h_j = -b'_j                    for every j attaining b'x,
        x_k - bx  <=  h_k  <=  P_H(x)_k - a'x   for all other k,

    the whole face then being translated by any finite amount.
    best_approx_set computes these bounds once per call; each face owns
    its fixed and box dicts, and the faces share only the bound tuples.

A canonical form is stored once, as the ascending (index, coefficient)
pairs on I and on J; a', b', I and J are read off them, and a'x, a'h
and b'h are evaluated over the pairs alone.  One pass over (a_i, b_i)
builds both lists.  A half-space computes its canonical form on first
use and keeps it: classify, canonicalize, project, distance and the
best-approximation operations read that one object, so it is computed
once per half-space object.  The cost is one canonical form per
half-space, kept by a single attribute store, so a concurrent reader
sees none or the whole form.  Nothing invalidates it:
half-spaces, their canonical forms and vectors are immutable, and no
code assigns their attributes after construction (tropical_linalg._vec
only fills a new object).  CanonicalHalfSpace is a slotted value
dataclass: == and hash compare (n, a_pairs, b_pairs), and it is built
through its class name.

HalfSpace(a, b) checks its coefficients.  The rows of an
InequalitySystem are checked once, when the system is built, and the
solvers read each row pair's canonical form off its entry
tuples with _row_form, the one pass behind _form, without building a
HalfSpace or checking anything again.

Indices are 0-based everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import (ClassificationError, DimensionError,
                     InfiniteDistanceError, PointInSetError,
                     UnsupportedCaseError)
from .extreal import NEG_INF, POS_INF, scalar_residual
from .hilbert_metric import hilbert_distance
from .tropical_linalg import (TropicalVector, _vec, format_rows, parse_rows,
                              row_apply)


class Kind(enum.Enum):
    EVERYTHING = "Everything"
    BOTTOM_ONLY = "BottomOnly"
    PROPER = "Proper"


def _check_coefficients(v, what):
    if POS_INF in v.entries:
        raise UnsupportedCaseError(f"{what} coefficients must lie in "
                                   "R u {-inf}, found +inf")
    return v


class HalfSpace:
    """The inequality a.h >= b.h, of any kind; a and b have equal
    length and no +inf entries.  _form caches the canonical form."""

    __slots__ = ("a", "b", "_form")

    def __init__(self, a, b):
        a = a if isinstance(a, TropicalVector) else TropicalVector(a)
        b = b if isinstance(b, TropicalVector) else TropicalVector(b)
        if len(a) != len(b):
            raise DimensionError(f"coefficient lengths {len(a)} vs {len(b)}")
        self.a = _check_coefficients(a, "left")
        self.b = _check_coefficients(b, "right")
        self._form = None

    @property
    def n(self):
        return len(self.a)

    def __eq__(self, other):
        if not isinstance(other, HalfSpace):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"HalfSpace({self.a!r}, {self.b!r})"


@dataclass(slots=True, unsafe_hash=True)
class CanonicalHalfSpace:
    """Coefficients with disjoint supports defining the same set, in
    dimension n, for a half-space of any kind.  a_pairs / b_pairs are
    the ascending (index, coefficient) pairs on I = Supp a' and
    J = Supp b', every coefficient finite; J is empty for Everything,
    all of range(n) (and I empty) for BottomOnly.  A value: == and
    hash compare (n, a_pairs, b_pairs)."""

    n: int
    a_pairs: tuple
    b_pairs: tuple

    @property
    def I(self):
        return frozenset([i for i, _ in self.a_pairs])

    @property
    def J(self):
        return frozenset([j for j, _ in self.b_pairs])

    @property
    def a_prime(self):
        return _dense(self.n, self.a_pairs)

    @property
    def b_prime(self):
        return _dense(self.n, self.b_pairs)

    def halfspace(self):
        return HalfSpace(self.a_prime, self.b_prime)


@dataclass(frozen=True)
class Sector:
    """One of the half-spaces whose union over pivots in I rebuilds a
    proper half-space around its apex."""

    pivot: int
    halfspace: HalfSpace


@dataclass(frozen=True)
class FaceBox:
    """One face of the best-approximation set, at parameter zero.

    fixed maps indices to pinned values (the pivot and every index
    attaining b'x); box maps each remaining index to (low, high).
    Members are the vectors obtained by adding one finite constant to
    every pinned value and bound.
    """

    pivot: int
    fixed: dict
    box: dict

    def contains(self, h):
        n = len(self.fixed) + len(self.box)
        if len(h) != n:
            raise DimensionError(f"face in dimension {n}, point has {len(h)}")
        lam = h[self.pivot]
        if not NEG_INF < lam < POS_INF:
            return False
        # lam is finite, so plain + is the lower addition below
        lam = lam - self.fixed[self.pivot]
        for j, v in self.fixed.items():
            if h[j] != v + lam:
                return False
        for k, (lo, hi) in self.box.items():
            if not lo + lam <= h[k] <= hi + lam:
                return False
        return True


@dataclass(frozen=True)
class BestApproxSet:
    """The distance from x to the half-space and the faces whose union
    is the set of nearest points."""

    base_distance: object
    faces: tuple

    def contains(self, h):
        return any(f.contains(h) for f in self.faces)


def _check_dim(H, x):
    if H.n != len(x):
        raise DimensionError(f"half-space in dimension {H.n}, point has {len(x)}")


def contains(H, h):
    _check_dim(H, h)
    return row_apply(H.a, h) >= row_apply(H.b, h)


def _form(H):
    """The canonical form of H, of any kind, computed once and kept.

    With float and exact payloads mixed, a rounded sum can put a point
    outside an Everything half-space (a' = a, b' bottom), and distance
    and best approximation then read a'.
    """
    form = H._form
    if form is None:
        form = H._form = _row_form(H.a.entries, H.b.entries)
    return form


def _row_form(a, b):
    """The canonical form of the half-space with the entry tuples a and
    b as coefficients; nothing is checked or kept.  One pass sorts each
    index to J (a_i < b_i) or, when a_i > -inf, to I."""
    a_pairs = []
    b_pairs = []
    for i, bi in enumerate(b):
        ai = a[i]
        if ai < bi:
            b_pairs.append((i, bi))
        elif ai != NEG_INF:
            a_pairs.append((i, ai))
    return CanonicalHalfSpace(len(a), tuple(a_pairs), tuple(b_pairs))


def classify(H):
    """Everything iff J is empty, else BottomOnly iff J is all of range(n)."""
    C = _form(H)
    return (Kind.EVERYTHING if not C.b_pairs else
            Kind.BOTTOM_ONLY if len(C.b_pairs) == C.n else Kind.PROPER)


def canonicalize(H):
    kind = classify(H)
    if kind is not Kind.PROPER:
        raise ClassificationError(f"cannot canonicalize a {kind.value} half-space")
    return _form(H)


def _dense(n, pairs):
    """The length-n vector with the pairs' coefficients, -inf elsewhere."""
    out = [NEG_INF] * n
    for i, c in pairs:
        out[i] = c
    return _vec(tuple(out))


def _apply(pairs, xs):
    """row_apply of the dense row, over its pairs alone: each c is
    finite, so native + is the lower addition."""
    t = NEG_INF
    for i, c in pairs:
        v = c + xs[i]
        if v > t:
            t = v
    return t


def apex_and_sectors(C):
    """The apex of the canonical half-space and its sector cover.

    apex = -(a' oplus b') entrywise; it is finite iff I u J covers all
    coordinates.  The sector with pivot i in I is the half-space
    h_i - apex_i >= max over j /= i of (h_j - apex_j).
    """
    merged = _dense(C.n, C.a_pairs + C.b_pairs)  # I and J are disjoint
    apex = _vec(tuple([-e for e in merged]))
    sectors = []
    for i, _ in C.a_pairs:
        a_row = [NEG_INF] * C.n
        a_row[i] = merged[i]
        b_row = list(merged)
        b_row[i] = NEG_INF
        sectors.append(Sector(i, HalfSpace(a_row, b_row)))
    return apex, sectors


def project_canonical(C, x):
    """x wedge the greatest preimage of a'x under b', for a form of any
    kind; correct whether or not x is already in the set.  O(|I| + |J|):
    t = a'x over I, then x_j lowered to t - b'_j on J (finite
    coefficients, so native + and - are exact); x itself comes back
    when nothing moves, so an Everything form returns x and a
    BottomOnly one (I empty, t = -inf) the bottom vector.
    """
    xs = x.entries
    t = _apply(C.a_pairs, xs)
    out = None
    for j, b in C.b_pairs:
        v = t - b
        if v < xs[j]:
            if out is None:
                out = list(xs)
            out[j] = v
    return x if out is None else _vec(tuple(out))


def project(H, x):
    """The greatest element of H below x."""
    _check_dim(H, x)
    return project_canonical(_form(H), x)


def distance(H, x):
    """Projective distance from x to H: 0 for members with a finite
    entry, -inf for all-infinite members, (a'x)\\(bx) otherwise."""
    _check_dim(H, x)
    bx = row_apply(H.b, x)
    if row_apply(H.a, x) >= bx:  # contains(H, x), true when H is Everything
        return hilbert_distance(x, x)
    return scalar_residual(_apply(_form(H).a_pairs, x.entries), bx)


def _prepared(H, x):
    """Shared validation for the best-approximation operations: returns
    (canonical, a'x, b'x, distance) for x outside H at finite distance."""
    _check_dim(H, x)
    if POS_INF in x.entries:
        raise UnsupportedCaseError(
            "best approximation handles points of (R u {-inf})^n only")
    bx = row_apply(H.b, x)
    if row_apply(H.a, x) >= bx:  # contains(H, x), true when H is Everything
        raise PointInSetError("the point already lies in the half-space")
    C = _form(H)
    # x is outside, so no index dropped from b attains bx: bx = b'x
    ax = _apply(C.a_pairs, x.entries)
    d = scalar_residual(ax, bx)
    if d == POS_INF:  # BottomOnly H included: its I is empty
        raise InfiniteDistanceError(
            "a'x = -inf: every point of the half-space is at distance +inf")
    return C, ax, bx, d


def best_approx_set(H, x):
    """All nearest points of H to x, as a union of translated boxes.

    One face per index attaining a'x; see the module docstring for the
    shape of each face.
    """
    C, ax, bx, d = _prepared(H, x)
    xs = x.entries
    P = project_canonical(C, x).entries
    # the coefficients, ax and bx are finite and x has no +inf entry, so
    # plain + and - are the lower addition and the pairs give the argmaxes
    fixed_b = {j: -b for j, b in C.b_pairs if b + xs[j] == bx}
    # one interval table; each face copies it less its pivot (in I, off J)
    table = {k: (xs[k] - bx, P[k] - ax) for k in range(len(xs))
             if k not in fixed_b}
    faces = []
    for i, a in C.a_pairs:
        if a + xs[i] != ax:
            continue
        fixed = dict(fixed_b)
        fixed[i] = -a
        box = table.copy()
        del box[i]
        faces.append(FaceBox(i, fixed, box))
    return BestApproxSet(d, tuple(faces))


def is_best_approx(H, x, h):
    """Whether h minimizes the distance from x to H, by the direct
    two-sided envelope test

        a'h >= b'h > -inf   and   x + (a'h - bx) <= h <= x + (b'h - a'x).
    """
    C, ax, bx, _ = _prepared(H, x)
    if len(h) != len(x):
        raise DimensionError(f"points of lengths {len(x)} vs {len(h)}")
    hs = h.entries
    if POS_INF in hs:
        return False
    ah = _apply(C.a_pairs, hs)
    bh = _apply(C.b_pairs, hs)
    if bh == NEG_INF or ah < bh:
        return False
    # ax, bx, bh finite, ah >= bh, no +inf: plain + is the lower addition
    lo_shift = ah - bx
    hi_shift = bh - ax
    for xk, hk in zip(x.entries, hs):
        if not xk + lo_shift <= hk <= xk + hi_shift:
            return False
    return True


# --- text format -----------------------------------------------------------

def parse_halfspace(text, mode=None):
    """Parse "n" then the a row then the b row (tropical_linalg.parse_rows)."""
    (a, b), _ = parse_rows(text, mode, nrows=2)
    return HalfSpace(a, b)


def format_halfspace(H):
    return format_rows((H.n,), (H.a, H.b))
