"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them all).

Criterion 3 is known red: the fixed-point method updates all
coordinates simultaneously, so on the two-variable staircase instance
the coordinates take turns moving and it needs exactly 2k steps, not
the k the criterion asks of both methods.  The round-robin method does
meet the k bound.  See the "Testing" section of README.md.
"""

import random
import time

import maxplus as mp
from maxplus.extreal import lower_add, negate, scalar_residual, upper_add
from maxplus.halfspace import Kind
from oracle import (GridSpec, grid_min_distance, grid_projection,
                    grid_vectors)
from maxplus.solvers import Status
from helpers import (DISJ_H, DISJ_X, EVAX_GENS, EVAX_P, EVAX_X, NEG, POS,
                     finite,
                     RING_CYCLIC_STEPS, RING_LIMIT, RING_POWER_STEPS,
                     RULTER_H, SUBFACE_H, SUBFACE_X, chain_system,
                     planted_system, rand_halfspace, rand_semimodule,
                     rand_vector, ring_ineq_system, semimodule_grid_members,
                     v)

def _criterion(num, text, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_worked_example_traces():
    S = ring_ineq_system()
    u = v(0, 0, 0, 0, 0, 0)
    cyc = mp.cyclic_solve(S, u, keep_trace=True)
    pow_ = mp.power_solve(S, u, keep_trace=True)
    ok = (list(cyc.trace.points) == [u] + RING_CYCLIC_STEPS
          and list(pow_.trace.points) == [u] + RING_POWER_STEPS
          and cyc.solution == pow_.solution == RING_LIMIT
          and cyc.status is Status.SOLVED and pow_.status is Status.SOLVED)
    best = min(_timed_solve(S, u) for _ in range(5))
    ok = ok and best < 1e-3
    _criterion(1, "5x6 worked example, exact traces, < 1 ms", ok,
               f"best of 5: {best * 1e6:.0f} us")


def _timed_solve(S, u):
    t0 = time.perf_counter()
    mp.cyclic_solve(S, u, keep_trace=True)
    mp.power_solve(S, u, keep_trace=True)
    return time.perf_counter() - t0


def test_criterion_2_figure_examples_exact():
    ok = mp.project_semimodule(EVAX_GENS, EVAX_X) == EVAX_P
    H = mp.universal_halfspace(EVAX_GENS, EVAX_X)
    apex, _ = mp.apex_and_sectors(mp.canonicalize(H))
    ok = ok and apex == EVAX_P

    ok = ok and mp.project(DISJ_H, DISJ_X) == v(0, 0, 0)
    ok = ok and mp.distance(DISJ_H, DISJ_X) == 1
    faces = mp.best_approx_set(DISJ_H, DISJ_X).faces
    ok = ok and [f.pivot for f in faces] == [0, 2]
    ok = (ok and faces[0].fixed == {0: 0, 1: 0}
          and faces[0].box == {2: (-1, 0)}
          and faces[1].fixed == {2: 0, 1: 0}
          and faces[1].box == {0: (-1, 0)})

    ok = ok and mp.project(SUBFACE_H, SUBFACE_X) == v(0, 0, 0)
    ok = ok and mp.distance(SUBFACE_H, SUBFACE_X) == 2

    seg = mp.best_approx_set(RULTER_H, v(2, 1, 0))
    ok = (ok and len(seg.faces) == 1
          and seg.faces[0].fixed == {0: 0, 1: 0}
          and seg.faces[0].box == {2: (-2, -1)})
    _criterion(2, "figure examples reproduced exactly", ok)


def test_criterion_3_pseudo_polynomial_counts():
    S = chain_system()
    detail = []
    ok = True
    for k in (5, 10, 50):
        u = v(k, k, 0)
        cyc = mp.cyclic_solve(S, u)
        pow_ = mp.power_solve(S, u)
        good = (cyc.solution == pow_.solution == v(0, 0, 0)
                and cyc.iterations == k and pow_.iterations == k)
        ok = ok and good
        detail.append(f"k={k}: cyclic {cyc.iterations}, power {pow_.iterations}")
    _criterion(3, "staircase instance converges in exactly k for both "
                  "methods", ok, "; ".join(detail))


def _planted_instances(count):
    rng = random.Random(512)
    return [planted_system(rng) for _ in range(count)]


def test_criterion_4_power_iterations_within_bound():
    bad = 0
    for S, u, _ in _planted_instances(500):
        r = mp.power_solve(S, u)
        d = mp.hilbert_distance(u, r.solution)
        if r.status is not Status.SOLVED or not finite(d):
            bad += 1
        elif r.iterations > S.n * d:
            bad += 1
    _criterion(4, "power iterations <= n * d(u, limit) on 500 planted "
                  "instances", bad == 0, f"{bad} violations")


def test_criterion_5_sandwich_on_planted_instances():
    bad = sum(0 if mp.sandwich_check(mp.cyclic_solve(S, u, keep_trace=True),
                                     mp.power_solve(S, u, keep_trace=True)) else 1
              for S, u, _ in _planted_instances(500))
    _criterion(5, "limit <= cyclic sweep ends <= power steps on 500 "
                  "planted instances", bad == 0, f"{bad} violations")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(640)
    t0 = time.perf_counter()
    done = 0
    bad = 0
    while done < 300:
        n = rng.choice((1, 2, 2, 3, 3, 4))
        H = rand_halfspace(rng, n, lo=-2, hi=2, p_neg_inf=0.35)
        x = rand_vector(rng, n, -2, 2)
        done += 1
        d = mp.distance(H, x)
        P = mp.project(H, x)
        if finite(d):
            lo = min(x) - d
            hi = max(x)
        else:
            lo, hi = -2, 2
        # at infinite distance the projection may still keep some
        # coordinates, which only a grid with -inf entries can reach
        G = GridSpec(int(lo), int(hi), infinity_patterns=not finite(d))
        d_grid, argmins = grid_min_distance(H, x, G)
        if d != d_grid or P != grid_projection(H, x, G):
            bad += 1
            continue
        if mp.classify(H) is not Kind.PROPER or mp.contains(H, x):
            continue
        if not finite(d):
            continue
        agree = all(mp.is_best_approx(H, x, h) == (h in argmins)
                    for h in grid_vectors(n, G))
        if not agree or not argmins:
            bad += 1
    took = time.perf_counter() - t0
    ok = bad == 0 and took < 60
    _criterion(6, "distance/projection/best-approx predicate match the "
                  "grid oracles on 300 half-spaces", ok,
               f"{bad} mismatches, {took:.1f}s")


def test_criterion_7_scalar_residual_table_and_identities():
    reps = [NEG, -1, 0, 1, POS]
    table = [
        (NEG, NEG, POS), (NEG, 0, POS), (NEG, POS, POS),
        (1, NEG, NEG), (1, 0, -1), (1, POS, POS),
        (POS, NEG, NEG), (POS, 0, NEG), (POS, POS, POS),
    ]
    ok = all(scalar_residual(m, n_) == want for m, n_, want in table)
    for a in reps:
        for b in reps:
            ok = ok and negate(upper_add(a, b)) == lower_add(negate(a), negate(b))
            ok = ok and negate(lower_add(a, b)) == upper_add(negate(a), negate(b))
            for c in reps:
                ok = ok and lower_add(lower_add(a, b), c) == lower_add(a, lower_add(b, c))
                ok = ok and upper_add(upper_add(a, b), c) == upper_add(a, upper_add(b, c))
                # lambda <= mu\nu exactly when mu*lambda <= nu
                ok = ok and ((lower_add(a, c) <= b) == (c <= scalar_residual(a, b)))
    _criterion(7, "residual table and Galois/De Morgan/associativity "
                  "identities", ok)


def test_criterion_8_metric_axioms():
    rng = random.Random(888)
    bad = 0
    for _ in range(10_000):
        n = rng.randint(1, 5)
        x = rand_vector(rng, n, -6, 6, 0.2, 0.1)
        y = rand_vector(rng, n, -6, 6, 0.2, 0.1)
        z = rand_vector(rng, n, -6, 6, 0.2, 0.1)
        dxz = mp.hilbert_distance(x, z)
        if not dxz <= upper_add(mp.hilbert_distance(x, y),
                                mp.hilbert_distance(y, z)):
            bad += 1
        dxy = mp.hilbert_distance(x, y)
        if any(finite(e) for e in x) and any(finite(e) for e in y):
            if dxy < 0:
                bad += 1
        if any(finite(e) for e in x):
            lam = rng.randint(-5, 5)
            if mp.hilbert_distance(x, mp.vec_scale(x, lam)) != 0:
                bad += 1
        if any(finite(e) for e in x) or any(finite(e) for e in y):
            if finite(dxy) != (mp.part_of(x) == mp.part_of(y)):
                bad += 1
        else:
            # vectors of infinities sit in singleton parts: the distance
            # is -inf to themselves and +inf to everything else
            if (dxy == NEG) != (x == y) or (dxy == POS) != (x != y):
                bad += 1
            if (mp.part_of(x) == mp.part_of(y)) != (x == y):
                bad += 1
    _criterion(8, "triangle/nonnegativity/projectivity/finiteness-parts "
                  "on 10^4 triples", bad == 0, f"{bad} violations")


def test_criterion_9_separation_and_orthogonality():
    rng = random.Random(99)
    done = 0
    bad = 0
    while done < 200:
        n = rng.choice((2, 3, 4))
        V = rand_semimodule(rng, n, rng.randint(1, 3))
        x = rand_vector(rng, n, -3, 3)
        P = mp.project_semimodule(V, x)
        if P == x or not all(finite(e) for e in P):
            continue
        done += 1
        H = mp.universal_halfspace(V, x)
        good = not mp.contains(H, x)
        for _ in range(8):
            m = v(*([NEG] * n))
            for g in V.generators:
                m = mp.vec_oplus(m, mp.vec_scale(g, rng.randint(-4, 4)))
            good = good and mp.contains(H, m)
        good = good and mp.project(H, x) == P
        good = good and mp.distance(H, x) == mp.distance_to(V, x)
        members = semimodule_grid_members(V, GridSpec(-7, 7))
        good = good and P in members
        good = good and all(mp.is_orthogonal(V, x, m) == (m == P)
                            for m in members)
        if not good:
            bad += 1
    _criterion(9, "universal half-space separates, factorizes, and the "
                  "projection is the unique orthogonal member", bad == 0,
               f"{bad} bad instances")
