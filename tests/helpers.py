"""Shared fixtures and instance generators for the test suite.

Random instances use seeded random.Random so every run sees the same
instances; hypothesis covers the open-ended corners separately.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import maxplus as mp
from maxplus import solvers
from maxplus.errors import (InfiniteDistanceError, MaxplusError, ParseError,
                            PointInSetError, UnsupportedCaseError)
from maxplus.extreal import parse_scalar
from maxplus.halfspace import _prepared, project_canonical
from maxplus.tropical_linalg import _vec

NEG = mp.NEG_INF
POS = mp.POS_INF


def finite(e):
    return NEG < e < POS


def v(*entries):
    return mp.vector(entries)


def ring_ineq_system():
    """The 5x6 cycle-of-delays system whose two solver traces are known
    in closed form: row j says x_j <= -1 + x_{j-1} (row 1 closing the
    ring through x_6, which no inequality constrains from above)."""
    n = 6
    rows_a = []
    rows_b = []
    for j in range(5):
        a = [NEG] * n
        a[(j - 1) % n] = mp.scalar(-1)
        b = [NEG] * n
        b[j] = mp.ZERO
        rows_a.append(a)
        rows_b.append(b)
    return mp.InequalitySystem(mp.matrix(rows_a), mp.matrix(rows_b))


RING_LIMIT = v(-1, -2, -3, -4, -5, 0)

RING_CYCLIC_STEPS = [
    v(-1, 0, 0, 0, 0, 0),
    v(-1, -2, 0, 0, 0, 0),
    v(-1, -2, -3, 0, 0, 0),
    v(-1, -2, -3, -4, 0, 0),
    v(-1, -2, -3, -4, -5, 0),
]

RING_POWER_STEPS = [
    v(-1, -1, -1, -1, -1, 0),
    v(-1, -2, -2, -2, -2, 0),
    v(-1, -2, -3, -3, -3, 0),
    v(-1, -2, -3, -4, -4, 0),
    v(-1, -2, -3, -4, -5, 0),
]


def chain_system():
    """x_1 <= max(0, -1 + x_2), x_2 <= x_1, homogenized with the anchor
    x_3 = 0; from (k, k, 0) the distance to the solution set is k."""
    A = mp.matrix([[NEG, -1, 0], [0, NEG, NEG]])
    B = mp.matrix([[0, NEG, NEG], [NEG, 0, NEG]])
    return mp.InequalitySystem(A, B)


def chase_system():
    """x_1 <= x_2 - 1 and x_2 <= x_1 - 1, with x_3 free: the first two
    coordinates chase each other down forever, so only the divergence
    guard ends a solve from a finite start."""
    return mp.InequalitySystem(mp.matrix([[NEG, -1, NEG], [-1, NEG, NEG]]),
                               mp.matrix([[0, NEG, NEG], [NEG, 0, NEG]]))


# --- figure examples -------------------------------------------------------

# the span of {(0,0,-inf), (-inf,0,-inf), (-inf,-inf,0)}: all v with
# v_2 >= v_1, the running projection example
EVAX_GENS = mp.GeneratedSemimodule([[0, 0, NEG], [NEG, 0, NEG], [NEG, NEG, 0]])
EVAX_X = v(2, 1, 0)
EVAX_P = v(1, 1, 0)

# h_2 >= h_1 as a single inequality
RULTER_H = mp.HalfSpace([NEG, 0, NEG], [0, NEG, NEG])

# max(h_1, h_3) >= h_2: two best-approximation faces
DISJ_H = mp.HalfSpace([0, NEG, 0], [NEG, 0, NEG])
DISJ_X = v(0, 1, 0)

# h_3 >= max(h_1, h_2): a single face strictly inside a ball face
SUBFACE_H = mp.HalfSpace([NEG, NEG, 0], [0, 0, NEG])
SUBFACE_X = v(1, 2, 0)


# --- random instance generators --------------------------------------------

def rand_entry(rng, lo, hi, p_neg_inf):
    if rng.random() < p_neg_inf:
        return NEG
    return mp.scalar(rng.randint(lo, hi))


def rand_vector(rng, n, lo=-8, hi=8, p_neg_inf=0.0, p_pos_inf=0.0):
    out = []
    for _ in range(n):
        r = rng.random()
        if r < p_neg_inf:
            out.append(NEG)
        elif r < p_neg_inf + p_pos_inf:
            out.append(POS)
        else:
            out.append(mp.scalar(rng.randint(lo, hi)))
    return mp.vector(out)


def planted_system(rng, n_max=6, p_max=6, lo=-8, hi=8):
    """A random system together with a planted finite solution sol and
    a finite start u >= sol, so the greatest solution below u is
    nonbottom with finite distance from u."""
    return planted_system_sized(rng, rng.randint(1, n_max),
                                rng.randint(1, p_max), lo, hi)


def planted_system_sized(rng, n, p, lo=-8, hi=8):
    """planted_system with p rows in dimension n."""
    sol = [rng.randint(lo, hi) for _ in range(n)]
    rows_a, rows_b = [], []
    for _ in range(p):
        a = [rand_entry(rng, lo, hi, 0.4) for _ in range(n)]
        av = max((e + sol_i for e, sol_i in zip(a, sol) if finite(e)),
                 default=None)
        b = []
        for i in range(n):
            cap = hi if av is None else min(hi, av - sol[i])
            if av is None or cap < lo or rng.random() < 0.5:
                b.append(NEG)
            else:
                b.append(mp.scalar(rng.randint(lo, cap)))
        rows_a.append(a)
        rows_b.append(b)
    S = mp.InequalitySystem(mp.matrix(rows_a, ncols=n), mp.matrix(rows_b, ncols=n))
    u = mp.vector([s + rng.randint(0, 6) for s in sol])
    return S, u, mp.vector(sol)


def rand_halfspace(rng, n, lo=-2, hi=2, p_neg_inf=0.35):
    a = [rand_entry(rng, lo, hi, p_neg_inf) for _ in range(n)]
    b = [rand_entry(rng, lo, hi, p_neg_inf) for _ in range(n)]
    return mp.HalfSpace(a, b)


def rand_semimodule(rng, n, q, lo=-3, hi=3, p_neg_inf=0.2):
    gens = []
    for _ in range(q):
        g = [rand_entry(rng, lo, hi, p_neg_inf) for _ in range(n)]
        if all(e == NEG for e in g):
            g[rng.randrange(n)] = mp.scalar(rng.randint(lo, hi))
        gens.append(g)
    return mp.GeneratedSemimodule(gens, n=n)


def semimodule_grid_members(V, G):
    """Every supremum of generators scaled by grid values or -inf:
    the finite sample of V the oracle-style checks quantify over."""
    import itertools
    lambdas = [NEG] + G.scalars()
    seen = set()
    out = []
    for combo in itertools.product(lambdas, repeat=len(V.generators)):
        w = mp.vector([NEG] * V.n)
        for g, lam in zip(V.generators, combo):
            w = mp.vec_oplus(w, mp.vec_scale(g, lam))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def dense_system(rng, n, p, lo, hi):
    """Plain lists A, B (p x n) and a start u, every entry finite and
    uniform in [lo, hi]: about a quarter of these systems sink."""
    A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(p)]
    B = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(p)]
    u = [rng.randint(lo, hi) for _ in range(n)]
    return A, B, u


def reference_blocks(A, B):
    """The coordinate blocks of the plain-list rows A and B as sets: each
    coordinate's closure under "a row of A or B is finite on both".
    Coordinates that no row touches are in none."""
    rows = [{i for i, (a, b) in enumerate(zip(ra, rb)) if finite(a) or finite(b)}
            for ra, rb in zip(A, B)]
    blocks = []
    for i in sorted(set().union(*rows)):
        if any(i in block for block in blocks):
            continue
        block, grown = set(), {i}
        while grown != block:
            block = grown
            grown = block.union(*[r for r in rows if r & block])
        blocks.append(block)
    return blocks


def reference_cuts(x, u, floor, blocks):
    """The coordinates one step sets to -inf: every finite entry of x
    below floor and, where the block rule applies (blocks), every
    finite entry of a block on which x lies strictly below u."""
    low = {i for i, e in enumerate(x) if finite(e) and e < floor}
    for block in blocks:
        if all(x[i] < u[i] for i in block):
            low |= {i for i in block if finite(x[i])}
    return low


def reference_greatest_solution(A, B, u):
    """The greatest x <= u with A x >= B x for plain integer lists and a
    finite start u, without the library: cyclic projection onto the
    rows, pinning to -inf every coordinate below the divergence floor
    min(u) - n (n + p + 2) (M + 1), M the largest entry magnitude, and,
    from the first sweep with an entry below min(u) - 2n (n + p + 2), every
    block on which the sweep ends strictly below u.  Returns (x, pinned
    indices, sweeps that changed x)."""
    n, p = len(u), len(A)
    m = max([1] + [abs(e) for r in A + B for e in r if finite(e)]
            + [abs(e) for e in u])
    floor = min(u) - n * (n + p + 2) * (m + 1)
    watch = min(u) - 2 * n * (n + p + 2)

    def row_max(a, x):
        return max([ai + xi for ai, xi in zip(a, x) if finite(ai)], default=NEG)

    rows = []
    for a, b in zip(A, B):
        if all(ai >= bi for ai, bi in zip(a, b)):
            continue  # every point satisfies this row
        if all(ai < bi for ai, bi in zip(a, b)):
            return [NEG] * n, set(), 1  # only bottom does: one step to it
        # canonical form: drop a_i where b_i wins, then x_j <= a'x - b_j
        a_prime = [ai if ai >= bi else NEG for ai, bi in zip(a, b)]
        rows.append((a_prime, [(j, bj) for j, (aj, bj) in enumerate(zip(a, b))
                               if aj < bj]))
    x = list(u)
    pinned = set()
    sweeps = 0
    blocks = []
    while True:
        before = list(x)
        for a_prime, lowered in rows:
            t = row_max(a_prime, x)
            for j, bj in lowered:
                x[j] = min(x[j], t - bj)
        if not blocks and any(finite(e) and e < watch for e in x):
            blocks = reference_blocks(A, B)
        for i in reference_cuts(x, u, floor, blocks):
            x[i] = NEG
            pinned.add(i)
        if x == before:
            return x, pinned, sweeps
        sweeps += 1
        if all(e == NEG for e in x):
            return x, pinned, sweeps


# --- references for the support-sparse geometry kernels --------------------
#
# The compositions the library computed before its geometry read the
# generator supports and the canonical pairs; the differential tests hold
# the kernels to them, payload types included.

def rand_payload(rng, p_neg_inf=0.2, p_pos_inf=0.1):
    """-inf, +inf, or a small int, Fraction (halves and thirds, so that
    sums can land on whole numbers) or float."""
    r = rng.random()
    if r < p_neg_inf:
        return NEG
    if r < p_neg_inf + p_pos_inf:
        return POS
    k = rng.randint(-6, 6)
    kind = rng.randrange(3)
    if kind == 0:
        return k
    if kind == 1:
        return mp.scalar(Fraction(k, rng.choice((2, 3))))
    return k / 2


def typed(obj):
    """obj with every number paired with its type, so that == also
    compares payload types; dicts become their item lists, in order."""
    if isinstance(obj, mp.TropicalVector):
        obj = obj.entries
    if isinstance(obj, dict):
        return [(typed(k), typed(e)) for k, e in obj.items()]
    if isinstance(obj, (tuple, list)):
        return [typed(e) for e in obj]
    return (type(obj).__name__, obj)


def reference_project(V, u):
    """sup_g g + (g \\ u), one scaled generator at a time."""
    best = mp.vector([NEG] * len(u))
    for g in V.generators:
        best = mp.vec_oplus(best, mp.vec_scale(g, mp.vec_residual(g, u)))
    return best


def reference_is_orthogonal(V, x, y):
    return all(mp.vec_residual(g, x) == mp.vec_residual(g, y)
               for g in V.generators)


def reference_reduce(V, x):
    """(x', kept generators, I) of reduce_problem, from the support
    partitions of x and of every generator."""
    part = mp.part_of(x)
    if part.sigma_pos or not part.supp:
        raise UnsupportedCaseError("cannot reduce")
    I = tuple(sorted(part.supp))
    kept = tuple(mp.restrict(g, I) for g in V.generators
                 if not mp.part_of(g).sigma_pos
                 and mp.part_of(g).supp <= part.supp)
    x_prime = mp.restrict(x, I)
    P = reference_project(mp.GeneratedSemimodule(kept, n=len(I)), x_prime)
    if NEG in P.entries:
        raise InfiniteDistanceError("no element has the support of x")
    return x_prime, kept, I


def reference_classify(H):
    """The kind by two entrywise scans, Everything tested first."""
    if all(ai >= bi for ai, bi in zip(H.a, H.b)):
        return mp.Kind.EVERYTHING
    if all(ai < bi for ai, bi in zip(H.a, H.b)):
        return mp.Kind.BOTTOM_ONLY
    return mp.Kind.PROPER


def reference_canonical(H):
    """(a', b', I, J) of an H of any kind, built densely: a_i kept
    where a_i >= b_i, b_j kept where a_j < b_j."""
    a_prime, b_prime, I, J = [], [], set(), set()
    for i, (ai, bi) in enumerate(zip(H.a, H.b)):
        if ai >= bi:
            a_prime.append(ai)
            b_prime.append(NEG)
            if ai != NEG:
                I.add(i)
        else:
            a_prime.append(NEG)
            b_prime.append(bi)
            J.add(i)
    return mp.vector(a_prime), mp.vector(b_prime), frozenset(I), frozenset(J)


def reference_best_approx_set(H, x):
    """best_approx_set with both argmax sets found by a lower-addition
    scan over all n indices, and each face's box bounds computed afresh
    for that face (the library computes them once per call)."""
    C, ax, bx, d = _prepared(H, x)
    P = mp.project(H, x)

    def argmax(row, value):
        return [i for i in range(len(x)) if mp.lower_add(row[i], x[i]) == value]

    fixed_b = {j: -C.b_prime[j] for j in argmax(C.b_prime, bx)}
    faces = []
    for i in argmax(C.a_prime, ax):
        fixed = dict(fixed_b)
        fixed[i] = -C.a_prime[i]
        box = {k: (x[k] - bx, P[k] - ax) for k in range(len(x)) if k not in fixed}
        faces.append(mp.FaceBox(i, fixed, box))
    return mp.BestApproxSet(d, tuple(faces))


PAYLOAD_KINDS = ("int", "fraction", "float", "mixed")


def rand_number(rng, kind, lo=-6, hi=6):
    """A finite scalar of one payload kind: an int, a Fraction with
    denominator 2 or 3, a float on the half-integers, or ("mixed") any
    of the three."""
    if kind == "mixed":
        kind = rng.choice(PAYLOAD_KINDS[:3])
    k = rng.randint(lo, hi)
    if kind == "int":
        return k
    if kind == "fraction":
        return mp.scalar(Fraction(k, rng.choice((2, 3))))
    return k / 2


def tied_best_approx_case(rng, n, kind):
    """(H, x) in dimension n >= 2, x outside H at a finite distance,
    with a'x attained at up to n - 1 indices, so that the best
    approximation has that many faces (ties are exact unless mixed
    payloads round).  x is -inf at some indices that attain neither
    a'x nor b'x."""
    def below(e):  # a value under e, or -inf
        return NEG if e == NEG or rng.random() < 0.4 else \
            e - rand_number(rng, kind, 1, 4)

    def finite_x(k):
        if x[k] == NEG:
            x[k] = rand_number(rng, kind)
        return x[k]

    idx = list(range(n))
    rng.shuffle(idx)
    n_tied = rng.randint(1, n - 1)
    tied, j0, rest = idx[:n_tied], idx[n_tied], idx[n_tied + 1:]
    x = [NEG if rng.random() < 0.3 else rand_number(rng, kind) for _ in range(n)]
    ax = rand_number(rng, kind)
    bx = ax + rand_number(rng, kind, 1, 4)
    a, b = [NEG] * n, [NEG] * n
    for i in tied:  # on I, attaining a'x
        a[i] = ax - finite_x(i)
        b[i] = below(a[i])
    b[j0] = bx - finite_x(j0)  # on J, attaining b'x
    a[j0] = below(b[j0])
    for k in rest:
        if rng.random() < 0.5:  # on J at or below b'x (or on neither)
            b[k] = rand_number(rng, kind) if x[k] == NEG else \
                bx - x[k] if rng.random() < 0.5 else below(bx - x[k])
            a[k] = below(b[k])
        else:  # on I below a'x (or on neither)
            a[k] = rand_number(rng, kind) if x[k] == NEG else below(ax - x[k])
            b[k] = below(a[k])
    return mp.HalfSpace(a, b), mp.vector(x)


def reference_face_json(face):
    """The command line's JSON for one face, every bound formatted for
    every face."""
    return {
        "pivot": face.pivot,
        "fixed": {str(j): mp.format_scalar(v) for j, v in sorted(face.fixed.items())},
        "box": {str(k): [mp.format_scalar(lo), mp.format_scalar(hi)]
                for k, (lo, hi) in sorted(face.box.items())},
    }


def reference_best_approx_output(h_text, x_text, output):
    """(exit status, stdout, stderr) of `maxplus best-approx` on a
    half-space and a point file holding these texts, built from
    reference_best_approx_set and reference_face_json."""
    try:
        H = mp.parse_halfspace(h_text)
        x = mp.parse_vector(x_text)
        best = reference_best_approx_set(H, x)
    except PointInSetError:
        d = mp.format_scalar(mp.distance(H, x))
        payload = {"in_set": True, "distance": d}
        lines = [f"the point already lies in the half-space; distance {d}"]
    except InfiniteDistanceError:
        payload = {"distance": "+inf", "all_of_halfspace": True}
        lines = ["distance is +inf; every point of the half-space is a "
                 "nearest point"]
    except (MaxplusError, ValueError) as e:
        return 2, "", f"error: {e}\n"
    else:
        payload = {"distance": mp.format_scalar(best.base_distance),
                   "faces": [reference_face_json(f) for f in best.faces]}
        lines = [f"distance: {payload['distance']}"]
        for f in payload["faces"]:
            line = f"face pivot {f['pivot']}: " + ", ".join(
                f"h{j} = {v}" for j, v in f["fixed"].items())
            if f["box"]:
                line += "; " + ", ".join(f"{lo} <= h{k} <= {hi}"
                                         for k, (lo, hi) in f["box"].items())
            lines.append(line + "  (translate by any finite constant)")
    if output == "json":
        return 0, json.dumps(payload, sort_keys=True) + "\n", ""
    return 0, "".join(line + "\n" for line in lines), ""


# --- reference for the text reader -----------------------------------------
#
# The reader as it was before it tokenized with str.split: a regex scan
# that records every token's column, and parse_scalar on every entry.

_TOKEN = re.compile(r"\S+")


def _reference_token_lines(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(line)]
        if toks:
            yield lineno, toks


def _reference_entry(token, col, lineno, mode):
    try:
        return parse_scalar(token, mode)
    except ValueError as e:
        raise ParseError(str(e), line=lineno, column=col) from None


def reference_parse_rows(text, mode=None, nrows=None):
    lines = _reference_token_lines(text)
    lineno, toks = next(lines, (None, ()))
    if lineno is None:
        raise ParseError("empty input, expected a count line")
    shape = "n" if nrows is not None else "p n"
    want = len(shape.split())
    if len(toks) != want:
        raise ParseError(f"count line must be {shape!r}, got {len(toks)} tokens",
                         line=lineno, column=toks[min(want, len(toks) - 1)][1])
    for t, c in toks:
        if not (t.isascii() and t.isdecimal()):
            raise ParseError(f"expected a nonnegative integer count, got {t!r}",
                             line=lineno, column=c)
    n = int(toks[-1][0])
    p = int(toks[0][0]) if nrows is None else nrows
    if not n and nrows is None and p > len(text):
        raise ParseError(f"{p} rows of width 0 exceed the {len(text)} characters "
                         "of the input", line=lineno, column=toks[0][1])
    rows = []
    for _ in range(p):
        lineno, toks = next(lines, (None, ())) if n else (0, ())
        if lineno is None:
            raise ParseError(f"expected {p} row(s) of {n} entries, got {len(rows)}")
        if len(toks) != n:
            raise ParseError(f"expected {n} entries in row {len(rows) + 1}, "
                             f"got {len(toks)}",
                             line=lineno, column=toks[0][1])
        rows.append(mp.vector([_reference_entry(t, c, lineno, mode) for t, c in toks]))
    for lineno, toks in lines:
        raise ParseError(f"trailing tokens after {p} row(s)", line=lineno,
                         column=toks[0][1])
    return tuple(rows), n


def read_outcome(read, text, mode, nrows):
    """What read(text, mode, nrows) gives: its rows with payload types,
    the sign of every float (typed alone has -0.0 == 0.0) and n, or the
    message, line and column of its ParseError."""
    try:
        rows, n = read(text, mode, nrows)
    except ParseError as e:
        return ("error", str(e), e.line, e.column)
    signs = [[math.copysign(1, e) for e in r if isinstance(e, float)] for r in rows]
    return ("rows", typed(rows), signs, n)


def reference_all_integral(A, B, u):
    """cli._all_integral as one generator over every entry: whether each
    finite entry of A, B and u is an int."""
    entries = [e for M in (A, B) for r in M.rows for e in r]
    entries.extend(u)
    return all(isinstance(e, int) or e == NEG or e == POS for e in entries)


def reference_universal_halfspace(V, x):
    """universal_halfspace with its coefficients validated as user
    input: a_j = -x_j where the projection touches x, b_j = -P_j off it."""
    P = mp.project_semimodule(V, x)
    a = [-xj if xj == pj else NEG for xj, pj in zip(x, P)]
    b = [NEG if xj == pj else -pj for xj, pj in zip(x, P)]
    return mp.HalfSpace(a, b)


# --- the power step through the three public kernels ----------------------

def reference_power_step(S):
    """The power step through the three public kernels,
    vec_meet(residuated_apply(B, mat_apply(A, x)), x)."""
    def step(x, points, counting):
        y = mp.mat_apply(S.A, x)
        nxt = mp.vec_meet(mp.residuated_apply(S.B, y), x)
        if not counting:
            return nxt, None
        count = 0
        for a, b, yj in zip(S.A.rows, S.B.rows, y):
            count += sum(finite(ai) and finite(xi) for ai, xi in zip(a, x))
            if finite(yj):
                count += sum(finite(bi) for bi in b)
        return nxt, count
    return step


def reference_sweep(S):
    """The cyclic step from rows built through the public, checking
    constructor: canonicalize(HalfSpace(a, b)) for every proper row,
    Everything rows dropped.  A BottomOnly row is a row step of its own,
    with no engine call: every entry goes to -inf, with 0 additions, and
    x itself comes back when it is bottom already.  Finite additions are
    counted entry by entry over the dense a' and b': one per finite a'_i
    at a finite x_i, then one per finite b'_j when t = a'x is finite."""
    def to_bottom(x):
        return x if all(e == NEG for e in x) else mp.vector([NEG] * S.n)

    rows = []
    for a, b in zip(S.A.rows, S.B.rows):
        H = mp.HalfSpace(list(a), list(b))
        kind = mp.classify(H)
        if kind is not mp.Kind.EVERYTHING:
            rows.append(None if kind is mp.Kind.BOTTOM_ONLY else mp.canonicalize(H))

    def sweep(x, points, counting):
        count = 0
        for C in rows:
            if C is None:
                nxt = to_bottom(x)
            else:
                if counting:
                    a, b = C.a_prime, C.b_prime
                    count += sum(finite(ai) and finite(xi) for ai, xi in zip(a, x))
                    if finite(mp.row_apply(a, x)):
                        count += sum(finite(bj) for bj in b)
                nxt = project_canonical(C, x)
            if points is not None and nxt is not x:
                points.append(nxt)
            x = nxt
        return x, count
    return sweep


def counting_steps(monkeypatch, *names):
    """Count the steps _cyclic_run takes: the calls of each step function
    that the named makers in solvers (_sweep, _power_step) build."""
    calls = [0]

    def wrap(make):
        def wrapper(S):
            step = make(S)

            def counted(*args):
                calls[0] += 1
                return step(*args)
            return counted
        return wrapper
    for name in names:
        monkeypatch.setattr(solvers, name, wrap(getattr(solvers, name)))
    return calls


def reference_run(S, u, step, keep_last, kind, max_iters, tol, keep_trace):
    """The report of the guarded run x <- step(x) from u, restated without
    the engine: additions counted on every step (no pattern cache), the
    floor applied after every step (no watch), unchanged steps told by
    comparing every entry, and a trace point added for every new value.

    The run stops at the first unchanged step (every finite entry within
    tol of the one before, every other entry equal; exact equality when
    tol is None), keeping that step's iterate if keep_last and the one
    before it otherwise; after max_iters changing steps; or at bottom.
    The floor is min(u) - n (n + p + 2) (M + 1), M >= 1 the largest
    finite entry magnitude of A, B and u, for a finite nonempty u and
    p > 0; every finite entry below it is set to -inf and pinned.  With
    tol None and no float among those finite entries, from the first
    step with a finite entry below min(u) - 2n (n + p + 2), every block
    (reference_blocks) on which the step's iterate lies strictly below u
    is set to -inf too, and its finite entries are pinned."""
    floor = None
    exact = False
    if u and S.p and all(finite(e) for e in u):
        entries = [e for r in S.A.rows + S.B.rows for e in r if finite(e)] + list(u)
        m = max([1] + [abs(e) for e in entries])
        floor = min(u) - S.n * (S.n + S.p + 2) * (m + 1)
        watch = min(u) - 2 * S.n * (S.n + S.p + 2)
        exact = tol is None and not any(isinstance(e, float) for e in entries)

    def unchanged(x, y):
        if tol is None:
            return list(x) == list(y)
        return all(abs(a - b) <= tol if finite(a) and finite(b) else a == b
                   for a, b in zip(x, y))

    points, ends, pinned, blocks = [u], [], set(), []
    x, sweeps, additions = u, 0, 0
    status = mp.Status.ITERATION_CAP_HIT
    while sweeps < max_iters:
        nxt, count = step(x, points, True)
        additions += count
        if floor is not None:
            if exact and not blocks and any(finite(e) and e < watch for e in nxt):
                blocks = reference_blocks(list(S.A.rows), list(S.B.rows))
            low = reference_cuts(nxt, u, floor, blocks)
            pinned |= low
            if low:
                # _vec, not vector: the other entries keep the step's
                # payload types (vector reads Fraction(-3, 1) as -3)
                nxt = _vec(tuple(NEG if i in low else e for i, e in enumerate(nxt)))
        stop = unchanged(x, nxt)
        if stop and not keep_last:
            status = mp.Status.SOLVED
            break
        if list(nxt) != list(points[-1]):
            points.append(nxt)
        ends.append(len(points) - 1)
        x = nxt
        if stop:
            status = mp.Status.SOLVED
            break
        sweeps += 1
        if all(e == NEG for e in x):
            status = mp.Status.BOTTOM_REACHED
            break
    bound, extra = reference_bound(u, x) if status is mp.Status.SOLVED else (POS, 0)
    trace = mp.IterationTrace(tuple(points), kind, tuple(ends)) if keep_trace else None
    return mp.SolveReport(status, x, sweeps, bound, additions + extra, trace,
                          tuple(sorted(pinned)))


def reference_bound(u, x):
    """The report's bound and its finite additions through the public
    kernels: n * hilbert_distance(u, x), infinite when the distance is
    +inf and 0 when it is -inf, with two subtractions per index finite
    in both vectors and one more addition when the distance is finite."""
    d = mp.hilbert_distance(u, x)
    both = sum(finite(a) and finite(b) for a, b in zip(u, x))
    if d == NEG:
        return 0, 0
    if not finite(d):
        return d, 2 * both
    return len(u) * d, 2 * both + 1


def typed_report(r):
    """Every field of a SolveReport, payload types included."""
    t = r.trace
    return (r.status, typed(r.solution), r.iterations,
            typed([r.distance_bound_used]), r.finite_additions, r.pinned,
            None if t is None else (t.step_kind, typed(t.points), t.ends))
