"""Parts, supports, and the projective distance between vectors.

For x, y in (R u {-inf, +inf})^n put

    anti_distance(x, y) = (x\\y) + (y\\x)        (lower addition)
    hilbert_distance(x, y) = -anti_distance(x, y)

where x\\y = vec_residual(x, y).  On finite vectors this is the usual
Hilbert projective distance

    d(x, y) = max_i (x_i - y_i) - min_j (x_j - y_j),

a hemi-metric modulo translation: d(x, x + c) = 0 for finite c.  It is
finite exactly when x and y lie in the same part, the equivalence class
of "finite mutual residuals": same support, same -inf pattern, same
+inf pattern, except that the vectors with no finite entry form
singleton parts each (for those, the two infinity patterns already pin
the vector down, so descriptor equality is plain equality).  From such
a vector to itself the distance is -inf: every residual term is skipped
or cancels at an infinity, so both residuals are +inf.  The vector of
width 0 is one of them, so hilbert_distance(vector([]), vector([])) is
-inf, and distances between width-0 points (maxplus distance and
best-approx on width-0 files) read -inf too.

Indices in this module are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .extreal import NEG_INF, POS_INF, lower_add
from .tropical_linalg import _vec, vec_residual


@dataclass(frozen=True)
class PartDescriptor:
    """Which part of (R u {-inf, +inf})^n a vector lies in.

    supp / sigma_neg / sigma_pos partition range(n).  Two vectors are
    at finite distance iff their descriptors are equal; when supp is
    empty the descriptor determines the vector outright, so equality
    degenerates to identity and each such vector sits in its own part.
    """

    n: int
    supp: frozenset
    sigma_neg: frozenset
    sigma_pos: frozenset

    @property
    def is_singleton(self):
        return not self.supp


def part_of(x):
    """The finite / -inf / +inf partition of x's indices.  supp is the
    support; supp | sigma_pos (the indices above -inf) and supp |
    sigma_neg (those below +inf) are the other two supports."""
    supp = set()
    sigma_neg = set()
    sigma_pos = set()
    for i, e in enumerate(x):
        if e == NEG_INF:
            sigma_neg.add(i)
        elif e == POS_INF:
            sigma_pos.add(i)
        else:
            supp.add(i)
    return PartDescriptor(len(x), frozenset(supp), frozenset(sigma_neg),
                          frozenset(sigma_pos))


def anti_distance(x, y):
    """(x\\y) + (y\\x) with lower addition; -inf iff the distance is
    infinite, +inf iff x = y is a vector without finite entries."""
    return lower_add(vec_residual(x, y), vec_residual(y, x))


def hilbert_distance(x, y):
    """Projective distance; see the module docstring."""
    return -anti_distance(x, y)


def restrict(x, indices):
    """The subvector on the given indices, ascending.

    On {y | Supp y within indices} this map is injective and preserves
    hilbert_distance, which is what makes support reduction work.
    """
    idx = sorted(indices)
    n = len(x)
    if idx and not (0 <= idx[0] and idx[-1] < n):
        bad = next(i for i in idx if not 0 <= i < n)
        raise DimensionError(f"index {bad} out of range for length {n}")
    return _vec(tuple(map(x.entries.__getitem__, idx)))
