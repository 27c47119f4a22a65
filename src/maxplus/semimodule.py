"""Finitely generated max-plus subsemimodules.

A generating family g_1, ..., g_q spans the set V of all suprema of
scaled generators (scaling = adding one constant to every entry),
together with the bottom vector.  The canonical projection onto V,

    project(V, u) = sup_i  g_i + (g_i \\ u),

is the greatest element of V below u; u belongs to V iff the projection
fixes it, and project(V, .) attains the distance from any point to V.

A family is built as a TropicalMatrix whose rows are the generators,
so it shares the matrix's validation, and each generator keeps its
row support, the indices where it is above -inf.  A projection reads
only those: it costs O(sum over g of |supp g|) and builds one output
list and one tuple.  The residual g \\ u is the minimum over supp g
of u_i - g_i in upper addition (the NaN of +inf - +inf is skipped).
Two values of it are not finite:

  * -inf, when u is -inf somewhere on supp g or g is +inf where u is
    finite: the scaled generator is the bottom vector, which adds
    nothing, so the generator is skipped;
  * +inf, when u is +inf all over supp g (or supp g is empty): the
    scaled generator is +inf on supp g and -inf elsewhere.

For x outside V whose projection P = project(V, x) is finite, one
half-space contains all of V and excludes x, built from the touching
set J = {j | x_j = P_j} (nonempty by maximality):

    a_j = -x_j on J,   b_j = -P_j off J,   all other entries -inf.

These coefficients already have disjoint supports, and the apex of the
resulting half-space is P itself, so projecting onto the half-space or
onto V is the same thing.

When x has -inf entries the finiteness hypothesis fails; then the
problem restricts to the support of x.  reduce_problem drops the
coordinates where x = -inf and the generators that cannot contribute
there; a generator with a +inf entry, or finite somewhere x is -inf,
is scaled to bottom inside any element at finite distance from x, so
dropping it leaves the projection unchanged and the restriction is
exact, not an approximation.

A semimodule keeps the last point it projected, keyed by the identity
of the point's entries tuple, with its projection.  distance_to,
membership and universal_halfspace on one point therefore run the
generator loop once between them, and reduce_problem leaves the
projection of x' on the V' it returns, so distance_to and
universal_halfspace on (V', x') run no loop of their own.  The key is
held by a strong reference, and a tuple of numbers is immutable, so
the same object means the same values and payload types; an equal
point in another tuple ((1,) against (1.0,) or another (1,)) is
projected afresh.  The cost is one point and one projection per
semimodule, replaced by a single attribute store, so a concurrent
reader sees the old pair or the new one.  Nothing invalidates the
pair: vectors and semimodules are immutable, and no code assigns their
attributes after construction (tropical_linalg._vec only fills a new
vector).
"""

from __future__ import annotations

from .errors import (DimensionError, InfiniteDistanceError, PointInSetError,
                     UnsupportedCaseError)
from .extreal import _FLOAT_MAX, NEG_INF, POS_INF, _finite
from .halfspace import HalfSpace
from .hilbert_metric import hilbert_distance, part_of, restrict
from .tropical_linalg import (TropicalMatrix, TropicalVector, _vec,
                              format_rows, parse_matrix)


class GeneratedSemimodule:
    """An immutable generating family; possibly empty (spanning just
    the bottom vector), in which case the dimension must be given.
    generators may be a TropicalMatrix, whose rows and supports are
    then taken as they are.

    _last holds the last point projected onto it, keyed by its entries
    tuple, and that projection (see project)."""

    __slots__ = ("generators", "n", "_support", "_last")

    def __init__(self, generators, n=None):
        if isinstance(generators, TropicalMatrix):
            M = generators
            if n is not None and n != M.ncols:
                raise DimensionError(f"n {n} but the matrix has {M.ncols} columns")
        else:
            M = TropicalMatrix(generators, ncols=n)
        self.generators, self.n, self._support = M.rows, M.ncols, M._support
        self._last = (None, None)

    def __eq__(self, other):
        if not isinstance(other, GeneratedSemimodule):
            return NotImplemented
        return self.generators == other.generators and self.n == other.n

    def __repr__(self):
        return f"GeneratedSemimodule({list(self.generators)!r}, n={self.n})"


def _check_dim(V, x):
    if V.n != len(x):
        raise DimensionError(f"semimodule in dimension {V.n}, vector has {len(x)}")


def _residual(g, support, us):
    """g \\ u, vec_residual over the support of g alone: the entries off
    it give +inf or NaN, which never lower the minimum."""
    lam = POS_INF
    for i in support:
        t = us[i] - g[i]  # NaN on (+inf, +inf), skipped: upper addition
        if t < lam:
            lam = t
    return lam


def project(V, u):
    """The greatest element of V below u; see the module docstring.

    A repeated query on the same entries tuple returns the stored
    projection without the loop."""
    us = u.entries
    last = V._last
    if last[0] is us:
        return last[1]
    _check_dim(V, u)
    best = [NEG_INF] * len(us)
    for g, support in zip(V.generators, V._support):
        ge = g.entries
        lam = _residual(ge, support, us)
        if lam == NEG_INF:
            continue
        if lam == POS_INF:
            for i in support:
                best[i] = POS_INF
            continue
        if not (lam.__class__ is int and -_FLOAT_MAX <= lam <= _FLOAT_MAX):
            # what vec_scale's scalar() does: Fraction(4, 2) acts as the
            # int 2, and an int beyond the float range raises
            lam = _finite(lam)
        for i in support:
            t = ge[i] + lam
            if t > best[i]:
                best[i] = t
    P = _vec(tuple(best))
    V._last = (us, P)
    return P


def distance_to(V, x):
    """Projective distance from x to V, attained by the projection."""
    return hilbert_distance(x, project(V, x))


def membership(V, x):
    return project(V, x) == x


def is_orthogonal(V, x, y):
    """Whether every generator has equal residuals against x and y.

    Residuation turns suprema into minima and scaling into translation,
    so equality on the generators extends to every element of V; among
    the elements of V below x, the projection is the unique one with
    this property.
    """
    _check_dim(V, x)
    if len(x) != len(y):
        raise DimensionError(f"vector lengths {len(x)} vs {len(y)}")
    xs, ys = x.entries, y.entries
    return all(_residual(g.entries, s, xs) == _residual(g.entries, s, ys)
               for g, s in zip(V.generators, V._support))


def universal_halfspace(V, x):
    """A half-space containing V and excluding x; see module docstring.

    Requires project(V, x) to be finite in every coordinate; apply
    reduce_problem first when x itself has -inf entries.
    """
    _check_dim(V, x)
    P = project(V, x)
    if P == x:
        raise PointInSetError("the point belongs to the semimodule")
    bad = [i for i, e in enumerate(P) if not NEG_INF < e < POS_INF]
    if bad:
        raise UnsupportedCaseError(
            "the projection has non-finite coordinates "
            f"{bad}; reduce to the support of x first")
    a = [NEG_INF] * len(x)
    b = [NEG_INF] * len(x)
    touched = False
    for j, (xj, pj) in enumerate(zip(x.entries, P.entries)):
        if xj == pj:
            a[j] = -xj
            touched = True
        else:
            # a projection entry may be a ratio p/1, which enters as an int
            b[j] = _finite(-pj)
    if not touched:
        # exactly, the projection is maximal below x and touches it; a
        # float payload rounded against an exact one can miss x instead
        raise UnsupportedCaseError(
            "the projection misses x on every coordinate: float and exact "
            "(int or Fraction) payloads mixed, and a rounded sum fell off x")
    # -x_j is as valid as x_j: the coefficients need no second check
    return HalfSpace(_vec(tuple(a)), _vec(tuple(b)))


def reduce_problem(V, x):
    """Restrict an approximation problem to the support of x.

    Returns (x', V', I) with I the ascending tuple of indices where x
    is finite, x' = x on I, and V' spanned by the restrictions of the
    generators that are -inf outside I and nowhere +inf (the others
    are scaled to bottom in any element at finite distance from x).
    Distances and best approximations correspond exactly; a solution
    v' lifts back via lift_point(v', I, n).  V' keeps the projection
    of x' that the infinite-distance check computes, so distance_to
    and universal_halfspace on (V', x') reuse it.

    Raises an infinite-distance error when no element of V has the
    support of x, and an unsupported-case error when x has a +inf
    entry or no finite one.
    """
    _check_dim(V, x)
    part = part_of(x)
    if part.sigma_pos:
        raise UnsupportedCaseError("cannot reduce a point with +inf entries")
    if not part.supp:
        raise UnsupportedCaseError("cannot reduce a point with no finite entry")
    I = tuple(sorted(part.supp))
    kept = [restrict(g, I) for g, support in zip(V.generators, V._support)
            if part.supp.issuperset(support) and POS_INF not in g.entries]
    x_prime = restrict(x, I)
    V_prime = GeneratedSemimodule(kept, n=len(I))
    if NEG_INF in project(V_prime, x_prime).entries:
        raise InfiniteDistanceError(
            "no element of the semimodule has the support of x")
    return x_prime, V_prime, I


def lift_point(v, I, n):
    """Undo a restriction: place the entries of v at the indices I
    (ascending) and -inf elsewhere."""
    if len(v) != len(I):
        raise DimensionError(f"{len(v)} entries for {len(I)} indices")
    out = [NEG_INF] * n
    for e, i in zip(v, I):
        if not 0 <= i < n:
            raise DimensionError(f"index {i} out of range for length {n}")
        out[i] = e
    return TropicalVector(out)


# --- text format -----------------------------------------------------------

def parse_generators(text, mode=None):
    """Parse the "q n" + rows format into a generating family."""
    return GeneratedSemimodule(parse_matrix(text, mode))


def format_generators(V):
    return format_rows((len(V.generators), V.n), V.generators)
