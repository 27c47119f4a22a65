"""Seeded instance generators for the benchmark.

Everything here is plain Python data: integers for finite entries and
float("-inf") for the bottom element.  The library only ever sees
objects built from this data (bench/workloads.py), so the same seed
gives the same inputs whatever the library does with them.
"""

from __future__ import annotations

from fractions import Fraction

NEG = float("-inf")


def planted_system(rng, n, p, lo, hi, p_neg, max_offset):
    """A p x n system A x >= B x with a planted finite solution sol and
    a finite start u >= sol, following the test-suite recipe
    (tests/helpers.planted_system) at a fixed size: each row of B is
    capped so that sol satisfies it, and u lies up to max_offset above
    sol coordinate by coordinate."""
    sol = [rng.randint(lo, hi) for _ in range(n)]
    A, B = [], []
    for _ in range(p):
        a = [NEG if rng.random() < p_neg else rng.randint(lo, hi)
             for _ in range(n)]
        av = max((ai + si for ai, si in zip(a, sol) if ai != NEG), default=None)
        b = []
        for i in range(n):
            cap = hi if av is None else min(hi, av - sol[i])
            if av is None or cap < lo or rng.random() < 0.5:
                b.append(NEG)
            else:
                b.append(rng.randint(lo, cap))
        A.append(a)
        B.append(b)
    u = [s + rng.randint(0, max_offset) for s in sol]
    return A, B, u, sol


def dense_system(rng, n, p, lo, hi):
    """A p x n system with every entry finite, uniform in [lo, hi], and a
    finite start u uniform in the same range."""
    A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(p)]
    B = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(p)]
    u = [rng.randint(lo, hi) for _ in range(n)]
    return A, B, u


def generators(rng, n, q, lo, hi, p_neg):
    """q generators of length n, entries -inf with probability p_neg and
    otherwise uniform in [lo, hi]; no generator is all -inf."""
    gens = []
    for _ in range(q):
        g = [NEG if rng.random() < p_neg else rng.randint(lo, hi)
             for _ in range(n)]
        if all(e == NEG for e in g):
            g[rng.randrange(n)] = rng.randint(lo, hi)
        gens.append(g)
    return gens


def point(rng, n, lo, hi, n_neg):
    """A point uniform in [lo, hi]^n with n_neg coordinates set to -inf."""
    x = [rng.randint(lo, hi) for _ in range(n)]
    for i in rng.sample(range(n), n_neg):
        x[i] = NEG
    return x


def token(e):
    """The text token of a plain entry, as the library's formats write it."""
    if e == NEG:
        return "-inf"
    if e == float("inf"):
        return "+inf"
    return repr(e)


def vector_text(x):
    return f"{len(x)}\n" + " ".join(token(e) for e in x) + "\n"


def matrix_text(rows, ncols):
    lines = [f"{len(rows)} {ncols}"]
    lines.extend(" ".join(token(e) for e in r) for r in rows)
    return "\n".join(lines) + "\n"


def halfspace_text(a, b):
    return "\n".join([str(len(a)), " ".join(token(e) for e in a),
                      " ".join(token(e) for e in b)]) + "\n"


def parse_token(tok):
    """Inverse of token: -inf, +inf, an integer, a ratio p/q or a decimal."""
    if tok == "-inf":
        return NEG
    if tok == "+inf":
        return float("inf")
    if "/" in tok:
        return Fraction(tok)
    try:
        return int(tok)
    except ValueError:
        return float(tok)
