"""A plain-Python max-plus evaluator that the benchmark checks answers with.

Vectors are lists of ints with float("-inf") as bottom (and float("inf")
where a result can be +inf).  Nothing here calls the library, so a bug
in a library kernel cannot certify its own output.
"""

from __future__ import annotations

NEG = float("-inf")
POS = float("inf")


class WrongAnswer(Exception):
    """A certified library answer that the reference contradicts."""


def row_max(a, x):
    """max_i (a_i + x_i) with lower addition, -inf on empty support."""
    best = NEG
    for ai, xi in zip(a, x):
        if ai != NEG:
            t = ai + xi
            if t > best:
                best = t
    return best


def contains(a, b, h):
    """Whether h satisfies max(a + h) >= max(b + h)."""
    return row_max(a, h) >= row_max(b, h)


def satisfies(A, B, x):
    """Whether A x >= B x row by row."""
    return all(contains(a, b, x) for a, b in zip(A, B))


def leq(x, y):
    return all(xi <= yi for xi, yi in zip(x, y))


def divergence_floor(A, B, u):
    """min(u) - n * (n + p + 2) * (M + 1), M the largest finite entry
    magnitude: a coordinate of the iterate below it is -inf in the limit
    (the certified cutoff of maxplus.solvers.feasibility)."""
    n, p = len(u), len(A)
    m = max([1] + [abs(e) for row in A + B for e in row if e != NEG]
            + [abs(e) for e in u])
    return min(u) - n * (n + p + 2) * (m + 1)


def greatest_solution(A, B, u):
    """The greatest x <= u with A x >= B x, for a finite start u.

    Cyclic projection onto the canonical row half-spaces, pinning to -inf
    every coordinate that sinks below divergence_floor.  Returns
    (x, pinned, sweeps): pinned is the set of pinned coordinates and
    sweeps the number of sweeps that changed the iterate.
    """
    n = len(u)
    rows = []
    for a, b in zip(A, B):
        if all(ai >= bi for ai, bi in zip(a, b)):
            continue
        if all(ai < bi for ai, bi in zip(a, b)):
            return [NEG] * n, set(), 0
        a_prime = [ai if ai >= bi else NEG for ai, bi in zip(a, b)]
        lowered = [(k, bk) for k, (ak, bk) in enumerate(zip(a, b)) if ak < bk]
        rows.append((a_prime, lowered))
    floor = divergence_floor(A, B, u)
    x = list(u)
    pinned = set()
    sweeps = 0
    while True:
        before = list(x)
        for a_prime, lowered in rows:
            t = row_max(a_prime, x)
            for k, bk in lowered:
                if t - bk < x[k]:
                    x[k] = t - bk
        for i, e in enumerate(x):
            if e != NEG and e < floor:
                x[i] = NEG
                pinned.add(i)
        if x == before or all(e == NEG for e in x):
            return x, pinned, sweeps
        sweeps += 1


def residual(g, x):
    """The greatest lambda with g + lambda <= x entrywise."""
    best = POS
    for gi, xi in zip(g, x):
        if gi != NEG and xi - gi < best:
            best = xi - gi
    return best


def project_generators(gens, x):
    """The greatest element of the span of gens below x."""
    out = [NEG] * len(x)
    for g in gens:
        lam = residual(g, x)
        if lam == NEG:
            continue
        for i, gi in enumerate(g):
            if gi != NEG and gi + lam > out[i]:
                out[i] = gi + lam
    return out


def hilbert(x, y):
    """Projective distance between points of (R u {-inf})^n: +inf across
    -inf patterns, -inf between two all -inf points."""
    if [e == NEG for e in x] != [e == NEG for e in y]:
        return POS
    diffs = [xi - yi for xi, yi in zip(x, y) if xi != NEG]
    if not diffs:
        return NEG
    return max(diffs) - min(diffs)


def universal_halfspace(x, P):
    """The half-space of maxplus.semimodule.universal_halfspace, built
    from a finite point x and its finite projection P."""
    a = [-xj if xj == pj else NEG for xj, pj in zip(x, P)]
    b = [NEG if xj == pj else -pj for xj, pj in zip(x, P)]
    return a, b


def expect(cond, message):
    if not cond:
        raise WrongAnswer(message)
