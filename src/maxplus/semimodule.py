"""Finitely generated max-plus subsemimodules.

A generating family g_1, ..., g_q spans the set V of all suprema of
scaled generators (scaling = adding one constant to every entry),
together with the bottom vector.  The canonical projection onto V,

    project(V, u) = sup_i  g_i + (g_i \\ u),

is the greatest element of V below u; u belongs to V iff the projection
fixes it, and project(V, .) attains the distance from any point to V.

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
"""

from __future__ import annotations

from .errors import (DimensionError, InfiniteDistanceError, PointInSetError,
                     UnsupportedCaseError)
from .extreal import NEG_INF, POS_INF
from .halfspace import HalfSpace
from .hilbert_metric import hilbert_distance, part_of, restrict
from .tropical_linalg import (TropicalMatrix, TropicalVector, _vec,
                              format_matrix, parse_matrix, vec_oplus,
                              vec_residual, vec_scale)


class GeneratedSemimodule:
    """An immutable generating family; possibly empty (spanning just
    the bottom vector), in which case the dimension must be given."""

    __slots__ = ("generators", "n")

    def __init__(self, generators, n=None):
        self.generators = tuple(g if isinstance(g, TropicalVector)
                                else TropicalVector(g) for g in generators)
        if self.generators:
            widths = {len(g) for g in self.generators}
            if len(widths) != 1:
                raise DimensionError(f"ragged generators: lengths {sorted(widths)}")
            inferred = widths.pop()
            if n is not None and n != inferred:
                raise DimensionError(f"n {n} but generators have length {inferred}")
            self.n = inferred
        else:
            if n is None:
                raise DimensionError("empty family needs an explicit dimension")
            self.n = n

    def __eq__(self, other):
        if not isinstance(other, GeneratedSemimodule):
            return NotImplemented
        return self.generators == other.generators and self.n == other.n

    def __repr__(self):
        return f"GeneratedSemimodule({list(self.generators)!r}, n={self.n})"


def _check_dim(V, x):
    if V.n != len(x):
        raise DimensionError(f"semimodule in dimension {V.n}, vector has {len(x)}")


def project(V, u):
    """The greatest element of V below u."""
    _check_dim(V, u)
    best = _vec((NEG_INF,) * len(u))
    for g in V.generators:
        best = vec_oplus(best, vec_scale(g, vec_residual(g, u)))
    return best


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
    return all(vec_residual(g, x) == vec_residual(g, y) for g in V.generators)


def universal_halfspace(V, x):
    """A half-space containing V and excluding x; see module docstring.

    Requires project(V, x) to be finite in every coordinate; apply
    reduce_problem first when x itself has -inf entries.
    """
    _check_dim(V, x)
    return _separating_halfspace(x, project(V, x))


def _separating_halfspace(x, P):
    """universal_halfspace built from x and its projection P."""
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
    for j, (xj, pj) in enumerate(zip(x, P)):
        if xj == pj:
            a[j] = -xj
            touched = True
        else:
            b[j] = -pj
    # the projection is maximal below x, so it touches x somewhere
    assert touched
    return HalfSpace(a, b)


def reduce_problem(V, x):
    """Restrict an approximation problem to the support of x.

    Returns (x', V', I) with I the ascending tuple of indices where x
    is finite, x' = x on I, and V' spanned by the restrictions of the
    generators that are -inf outside I and nowhere +inf (the others
    are scaled to bottom in any element at finite distance from x).
    Distances and best approximations correspond exactly; a solution
    v' lifts back via lift_point(v', I, n).

    Raises an infinite-distance error when no element of V has the
    support of x, and an unsupported-case error when x has a +inf
    entry or no finite one.
    """
    return _reduce(V, x)[:3]


def _reduce(V, x):
    """reduce_problem, plus the projection of x' onto V' it computes."""
    _check_dim(V, x)
    part = part_of(x)
    if part.sigma_pos:
        raise UnsupportedCaseError("cannot reduce a point with +inf entries")
    if not part.supp:
        raise UnsupportedCaseError("cannot reduce a point with no finite entry")
    I = tuple(sorted(part.supp))
    kept = []
    for g in V.generators:
        g_part = part_of(g)
        if not g_part.sigma_pos and g_part.supp <= part.supp:
            kept.append(restrict(g, I))
    x_prime = restrict(x, I)
    V_prime = GeneratedSemimodule(kept, n=len(I))
    P_prime = project(V_prime, x_prime)
    if NEG_INF in P_prime.entries:
        raise InfiniteDistanceError(
            "no element of the semimodule has the support of x")
    return x_prime, V_prime, I, P_prime


def lift_point(v, I, n):
    """Undo a restriction: place the entries of v at the indices I
    (ascending) and -inf elsewhere."""
    out = [NEG_INF] * n
    for e, i in zip(v, I):
        out[i] = e
    return TropicalVector(out)


# --- text format -----------------------------------------------------------

def parse_generators(text, mode=None):
    """Parse the "q n" + rows format into a generating family."""
    M = parse_matrix(text, mode)
    return GeneratedSemimodule(M.rows, n=M.ncols)


def format_generators(V):
    return format_matrix(TropicalMatrix(V.generators, ncols=V.n))
