"""The two iterative solvers for A x >= B x: round-robin half-space
projection and the whole-system fixed-point iteration, plus the
sandwich comparison and the divergence-guarded feasibility wrapper."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import maxplus as mp
from maxplus import solvers
from maxplus.errors import DimensionError, MaxplusError, UnsupportedCaseError
from maxplus.solvers import Status, default_divergence_cap
from helpers import (NEG, POS, RING_CYCLIC_STEPS, RING_LIMIT,
                     RING_POWER_STEPS, chain_system, chase_system,
                     dense_system, finite, planted_system,
                     planted_system_sized, reference_bound,
                     reference_greatest_solution, reference_power_step,
                     reference_run, reference_sweep, ring_ineq_system, typed,
                     typed_report, v)

U6 = v(0, 0, 0, 0, 0, 0)


def ring(n):
    """The n-coordinate version of the cycle-of-delays system."""
    rows_a, rows_b = [], []
    for j in range(n - 1):
        a = [NEG] * n
        a[(j - 1) % n] = mp.scalar(-1)
        b = [NEG] * n
        b[j] = mp.ZERO
        rows_a.append(a)
        rows_b.append(b)
    return mp.InequalitySystem(mp.matrix(rows_a), mp.matrix(rows_b))


def test_system_shape_checks():
    A = mp.matrix([[0, 0]])
    with pytest.raises(DimensionError):
        mp.InequalitySystem(A, mp.matrix([[0, 0], [0, 0]]))
    with pytest.raises(TypeError):
        mp.InequalitySystem(A, [[0, 0]])


def test_ring_cyclic_trace_exact():
    r = mp.cyclic_solve(ring_ineq_system(), U6, keep_trace=True)
    assert r.status is Status.SOLVED
    assert r.solution == RING_LIMIT
    assert r.iterations == 1  # every row step lands inside one sweep
    assert list(r.trace.points) == [U6] + RING_CYCLIC_STEPS
    assert r.trace.step_kind == "cyclic"
    # the changing sweep ends at the last row step, the still one too
    assert r.trace.ends == (5, 5)


def test_ring_power_trace_exact():
    r = mp.power_solve(ring_ineq_system(), U6, keep_trace=True)
    assert r.status is Status.SOLVED
    assert r.solution == RING_LIMIT
    assert r.iterations == 5
    assert list(r.trace.points) == [U6] + RING_POWER_STEPS
    assert r.trace.step_kind == "power"
    assert r.trace.ends == (1, 2, 3, 4, 5)


def sandwich(S, u, **kw):
    return mp.sandwich_check(mp.cyclic_solve(S, u, keep_trace=True, **kw),
                             mp.power_solve(S, u, keep_trace=True, **kw))


def test_ring_sandwich():
    assert sandwich(ring_ineq_system(), U6)


def test_sandwich_reads_the_reports():
    S = chain_system()
    # a capped run fails the check, and so do limits that disagree
    assert sandwich(S, v(5, 5, 0))
    assert not sandwich(S, v(5, 5, 0), max_iters=2)
    assert not mp.sandwich_check(mp.cyclic_solve(S, v(5, 5, 0), keep_trace=True),
                                 mp.power_solve(S, v(5, 5, -1), keep_trace=True))
    # same limit (0, 0, 0), but the sweep ends from (5, 5, 0) lie above
    # the power steps from (4, 4, 0)
    assert not mp.sandwich_check(mp.cyclic_solve(S, v(5, 5, 0), keep_trace=True),
                                 mp.power_solve(S, v(4, 4, 0), keep_trace=True))
    with pytest.raises(ValueError, match="keep_trace"):
        mp.sandwich_check(mp.cyclic_solve(S, v(5, 5, 0)),
                          mp.power_solve(S, v(5, 5, 0), keep_trace=True))


def test_feasible_start_is_returned_unchanged():
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(ring_ineq_system(), RING_LIMIT, keep_trace=True)
        assert r.status is Status.SOLVED
        assert r.solution == RING_LIMIT
        assert r.iterations == 0
        assert r.trace.points == (RING_LIMIT,)


def test_chain_iteration_counts():
    S = chain_system()
    for k in (3, 5, 10):
        u = v(k, k, 0)
        rc = mp.cyclic_solve(S, u)
        rp = mp.power_solve(S, u)
        assert rc.solution == rp.solution == v(0, 0, 0)
        assert rc.iterations == k
        assert rp.iterations == 2 * k


def test_distance_bound_is_ordinary_product():
    r = mp.cyclic_solve(ring_ineq_system(), U6)
    assert r.distance_bound_used == 30  # 6 coordinates, distance 5
    r = mp.power_solve(chain_system(), v(5, 5, 0))
    assert r.distance_bound_used == 15
    assert r.iterations <= r.distance_bound_used


def test_iteration_cap():
    S = chain_system()
    r = mp.cyclic_solve(S, v(50, 50, 0), max_iters=3)
    assert r.status is Status.ITERATION_CAP_HIT
    assert r.iterations == 3
    assert r.distance_bound_used == POS


def test_bottom_reached():
    S = mp.InequalitySystem(mp.matrix([[NEG, NEG]]), mp.matrix([[0, 1]]))
    rc = mp.cyclic_solve(S, v(4, 4), keep_trace=True)
    assert rc.status is Status.BOTTOM_REACHED
    assert rc.solution == v(NEG, NEG)
    assert rc.trace.points == (v(4, 4), v(NEG, NEG))
    assert rc.distance_bound_used == POS
    rp = mp.power_solve(S, v(4, 4))
    assert rp.status is Status.BOTTOM_REACHED
    assert rp.solution == v(NEG, NEG)


def test_bottom_only_rows_end_runs_as_other_systems_do():
    # x0 >= x1 + 1, then a BottomOnly row: -inf >= max(x0, x1 + 1).  The
    # sweep reaches bottom at that row, so under a cap of 0 no step is
    # made and a bottom start is the limit already, for both methods
    S = mp.InequalitySystem(mp.matrix([[0, NEG], [NEG, NEG]]),
                            mp.matrix([[NEG, 1], [0, 1]]))
    u, bottom = v(4, 4), v(NEG, NEG)
    ends = {}
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(S, u, max_iters=0, keep_trace=True)
        assert (r.status, r.solution, r.iterations, r.finite_additions, r.pinned) == (
            Status.ITERATION_CAP_HIT, u, 0, 0, ()), solve.__name__
        assert (r.trace.points, r.trace.ends) == ((u,), ())
        r = solve(S, bottom, keep_trace=True)
        assert (r.status, r.solution, r.iterations, r.pinned) == (
            Status.SOLVED, bottom, 0, ()), solve.__name__
        assert r.trace.points == (bottom,)
        ends[solve.__name__] = r.trace.ends
    # the kept sweep ends at the start, the dropped step is not recorded
    assert ends == {"cyclic_solve": (0,), "power_solve": ()}
    assert mp.cyclic_solve(S, bottom) == mp.power_solve(S, bottom)
    with pytest.raises(MaxplusError, match="no fixed point within 0 sweeps"):
        mp.feasibility(S, u, max_iters=0)
    # uncapped, the sweep projects x0 >= x1 + 1 first, (4, 4) -> (4, 3)
    # with 2 additions (4 + 0, then 4 - 1), and then the BottomOnly row,
    # whose canonical form has I empty: a'x = -inf, so every entry
    # drops, with no addition.  The power step makes the same 2 at once
    rc, rp = (solve(S, u, keep_trace=True) for solve in (mp.cyclic_solve, mp.power_solve))
    for r in (rc, rp):
        assert (r.status, r.solution, r.iterations, r.finite_additions) == (
            Status.BOTTOM_REACHED, bottom, 1, 2)
    assert (rc.trace.points, rc.trace.ends) == ((u, v(4, 3), bottom), (2,))
    assert (rp.trace.points, rp.trace.ends) == ((u, bottom), (1,))


@pytest.mark.parametrize("solve", [mp.cyclic_solve, mp.power_solve])
def test_bound_is_0_from_a_start_with_no_finite_entry(solve):
    # x0 >= x1 + 1 and x2 >= x0 move no entry of these starts, so each
    # run is Solved at u with 0 iterations; d(u, u) is -inf for a vector
    # with no finite entry, and the bound is 0 (not n * -inf), computed
    # with no addition
    S = mp.InequalitySystem(mp.matrix([[0, NEG, NEG], [NEG, NEG, 0]]),
                            mp.matrix([[NEG, 1, NEG], [0, NEG, NEG]]))
    for u in (v(NEG, NEG, NEG), v(POS, NEG, POS), v(POS, POS, POS)):
        for keep_trace in (False, True):
            r = solve(S, u, keep_trace=keep_trace)
            assert (r.status, r.solution, r.iterations, r.finite_additions) == (
                Status.SOLVED, u, 0, 0), u
            assert typed([r.distance_bound_used]) == typed([0])
            assert r.iterations <= r.distance_bound_used


@pytest.mark.parametrize("p", [0, 2])
def test_width_0_systems_are_solved_at_once(p):
    S = mp.InequalitySystem(mp.matrix([[]] * p, ncols=0), mp.matrix([[]] * p, ncols=0))
    u = mp.vector([])
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(S, u, keep_trace=True)
        assert (r.status, r.solution, r.iterations, r.distance_bound_used,
                r.finite_additions, r.pinned) == (Status.SOLVED, u, 0, 0, 0, ())
        assert r.trace.points == (u,)
    assert mp.feasibility(S, u).status == "FiniteSolution"


def test_everything_rows_are_skipped():
    # a tautological row must not contribute steps or block convergence
    S = mp.InequalitySystem(mp.matrix([[0, 0], [NEG, -1]]),
                            mp.matrix([[NEG, -1], [NEG, 0]]))
    r = mp.cyclic_solve(S, v(0, 0), keep_trace=True)
    assert r.status is Status.SOLVED
    assert r.solution == v(0, NEG)


def test_float_tolerance_mode():
    S = chain_system()
    u = v(3.0, 3.0, 0.0)
    exact = mp.cyclic_solve(S, u)
    toler = mp.cyclic_solve(S, u, tol=1e-9)
    assert exact.solution == toler.solution == v(0.0, 0.0, 0.0)
    # a loose tolerance accepts a sweep that still moved a little
    loose = mp.cyclic_solve(S, u, tol=2.0)
    assert loose.iterations < exact.iterations


def float_system(rng, n=3, p=3):
    """A seeded float system and start, entries quarters in [-3, 3] (30%
    of the matrix entries -inf), so every change is exact in binary."""
    def entry():
        return rng.randint(-12, 12) / 4 if rng.random() > 0.3 else NEG
    A = mp.matrix([[entry() for _ in range(n)] for _ in range(p)], ncols=n)
    B = mp.matrix([[entry() for _ in range(n)] for _ in range(p)], ncols=n)
    u = mp.vector([rng.randint(-12, 12) / 4 for _ in range(n)])
    return mp.InequalitySystem(A, B), u


# (case, solver, tol): status, solution, iterations, finite_additions, trace
TOLERANCE_RUNS = {
    (15, "cyclic_solve", 0.5): (
        Status.SOLVED, (-6.0, -2.0, -5.0), 2, 34,
        [(0.5, -2.0, 1.75), (0.5, -2.0, 1.5), (-6.0, -2.0, -2.5), (-6.0, -2.0, -5.0)]),
    (15, "cyclic_solve", 2.0): (
        Status.SOLVED, (-6.0, -2.0, -5.0), 2, 34,
        [(0.5, -2.0, 1.75), (0.5, -2.0, 1.5), (-6.0, -2.0, -2.5), (-6.0, -2.0, -5.0)]),
    # the next step would still lower x_2 to -5.0, but by no more than tol
    (15, "power_solve", 0.5): (
        Status.SOLVED, (-6.0, -2.0, -4.5), 4, 92,
        [(0.5, -2.0, 1.75), (-2.0, -2.0, 0.5), (-4.5, -2.0, -1.0),
         (-6.0, -2.0, -2.75), (-6.0, -2.0, -4.5)]),
    (15, "power_solve", 2.0): (
        Status.SOLVED, (-4.5, -2.0, -1.0), 2, 58,
        [(0.5, -2.0, 1.75), (-2.0, -2.0, 0.5), (-4.5, -2.0, -1.0)]),
    # the last sweep moved by at most tol, and its iterate is kept
    (28, "cyclic_solve", 2.0): (
        Status.SOLVED, (-5.75, -3.75, -3.25), 1, 23,
        [(-1.25, 1.5, -2.0), (-1.25, -2.25, -2.0), (-4.25, -2.25, -2.0),
         (-4.25, -3.75, -2.0), (-5.75, -3.75, -3.25)]),
    (28, "power_solve", 2.0): (
        Status.SOLVED, (-3.5, -2.25, -2.0), 2, 49,
        [(-1.25, 1.5, -2.0), (-1.25, -2.25, -2.0), (-3.5, -2.25, -2.0)]),
}

# the same system sinks at tol 0.5 until the guard pins it: the trace
# length, the sum of its finite entries, the pinned indices and its end
SINKING_TOLERANCE_RUNS = {
    "cyclic_solve": (74, 585, 150, -20927.75, (0, 1),
                     [(NEG, -92.5, -90.75), (NEG, -92.5, -92.0),
                      (NEG, NEG, -92.0), (NEG, NEG, NEG)]),
    "power_solve": (146, 2037, 147, -20282.75, (0, 1, 2),
                    [(-92.0, -91.25, -89.5), (NEG, -91.25, -90.75),
                     (NEG, NEG, -90.75), (NEG, NEG, NEG)]),
}


def test_tolerance_runs_are_pinned():
    # under a tolerance the cyclic method keeps the sweep that passed
    # the stop test, the power method returns the iterate before it
    rng = random.Random(1)
    cases = [float_system(rng) for _ in range(29)]
    for (c, name, tol), want in TOLERANCE_RUNS.items():
        S, u = cases[c]
        r = getattr(mp, name)(S, u, tol=tol, keep_trace=True)
        got = (r.status, tuple(r.solution), r.iterations, r.finite_additions,
               [tuple(x) for x in r.trace.points])
        assert got == want, (c, name, tol)
    S, u = cases[28]
    for name, (its, adds, length, total, pinned, tail) in SINKING_TOLERANCE_RUNS.items():
        r = getattr(mp, name)(S, u, tol=0.5, keep_trace=True)
        pts = r.trace.points
        assert r.status is Status.BOTTOM_REACHED and r.solution == v(NEG, NEG, NEG)
        assert (r.iterations, r.finite_additions, r.pinned) == (its, adds, pinned)
        assert len(pts) == length and pts[0] == u
        assert sum(e for x in pts for e in x if finite(e)) == total
        assert [tuple(x) for x in pts[-4:]] == tail, name
    # the step after power's tol-0.5 answer still moves the iterate
    S, u = cases[15]
    x = mp.power_solve(S, u, tol=0.5).solution
    assert mp.vec_meet(mp.residuated_apply(S.B, mp.mat_apply(S.A, x)), x) != x


def test_monotone_descent_traces():
    rng = random.Random(91)
    for _ in range(100):
        S, u, _ = planted_system(rng)
        for solve in (mp.cyclic_solve, mp.power_solve):
            r = solve(S, u, keep_trace=True)
            pts = r.trace.points
            for a, b in zip(pts, pts[1:]):
                assert mp.leq(b, a) and a != b


def test_solved_means_greatest_fixed_point():
    rng = random.Random(92)
    for _ in range(150):
        S, u, sol = planted_system(rng)
        rc = mp.cyclic_solve(S, u)
        rp = mp.power_solve(S, u)
        assert rc.status is Status.SOLVED and rp.status is Status.SOLVED
        assert rc.solution == rp.solution
        x = rc.solution
        assert mp.leq(mp.mat_apply(S.B, x), mp.mat_apply(S.A, x))
        assert mp.leq(x, u)
        assert mp.leq(mp.vector(sol), x)
        again = mp.vec_meet(mp.residuated_apply(S.B, mp.mat_apply(S.A, x)), x)
        assert again == x


def test_iterations_within_reported_bound():
    rng = random.Random(93)
    for _ in range(150):
        S, u, _ = planted_system(rng)
        for solve in (mp.cyclic_solve, mp.power_solve):
            r = solve(S, u)
            if finite(r.distance_bound_used):
                assert r.iterations <= r.distance_bound_used


def test_sandwich_random():
    rng = random.Random(94)
    for _ in range(60):
        S, u, _ = planted_system(rng)
        assert sandwich(S, u)


def test_feasibility_ring():
    r = mp.feasibility(ring_ineq_system(), U6)
    assert r.status == "FiniteSolution"
    assert r.witness == RING_LIMIT
    assert r.pinned == ()


def test_feasibility_only_bottom_row():
    S = mp.InequalitySystem(mp.matrix([[NEG]]), mp.matrix([[0]]))
    r = mp.feasibility(S, v(0))
    assert r.status == "OnlyBottom" and r.witness is None


def test_feasibility_empty_system():
    S = mp.InequalitySystem(mp.matrix([], ncols=2), mp.matrix([], ncols=2))
    r = mp.feasibility(S, v(1, 2))
    assert r.status == "FiniteSolution" and r.witness == v(1, 2)


def test_single_row_infeasibility_needs_no_guard():
    # x_1 <= x_1 - 1: the exact projection pins x_1 in one step
    S = mp.InequalitySystem(mp.matrix([[-1, NEG]]), mp.matrix([[0, NEG]]))
    r = mp.feasibility(S, v(0, 0))
    assert r.status == "FiniteSolution"
    assert r.witness == v(NEG, 0)
    assert r.pinned == ()


def test_feasibility_partial_divergence():
    # the guard cuts the descent of the chase and x_3 survives
    r = mp.feasibility(chase_system(), v(0, 0, 0))
    assert r.status == "FiniteSolution"
    assert r.witness == v(NEG, NEG, 0)
    assert r.pinned == (0, 1)


def full_divergence_system():
    return mp.InequalitySystem(mp.matrix([[NEG, -1], [-1, NEG]]),
                               mp.matrix([[0, NEG], [NEG, 0]]))


def test_feasibility_full_divergence():
    r = mp.feasibility(full_divergence_system(), v(0, 0))
    assert r.status == "OnlyBottom"
    assert r.pinned == (0, 1)


def test_solvers_pin_the_chase():
    # the guard of feasibility ends both solvers on a partly sinking system
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(chase_system(), v(0, 0, 0), max_iters=100)
        assert r.status is Status.SOLVED, solve.__name__
        assert r.solution == v(NEG, NEG, 0)
        assert r.pinned == (0, 1)
        assert r.distance_bound_used == POS


def test_solvers_reach_bottom_on_full_divergence():
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(full_divergence_system(), v(0, 0))
        assert r.status is Status.BOTTOM_REACHED, solve.__name__
        assert r.solution == v(NEG, NEG)
        assert r.pinned == (0, 1)


def test_guard_needs_a_finite_start():
    # from a start with a -inf entry the solvers run as before: the
    # chase is cut by the cap, nothing is pinned
    for solve in (mp.cyclic_solve, mp.power_solve):
        r = solve(chase_system(), v(0, 0, NEG), max_iters=100)
        assert r.status is Status.ITERATION_CAP_HIT and r.pinned == ()


def test_guarded_solvers_match_reference_on_dense_systems():
    # dense systems sink about a quarter of the time; every run must end
    # certified, and cyclic, power, feasibility and a plain-Python
    # reference with the same floor must agree on the limit
    rng = random.Random(96)
    sinking = 0
    for _ in range(2000):
        A, B, u = dense_system(rng, 5, 5, -3, 3)
        S = mp.InequalitySystem(mp.matrix(A), mp.matrix(B))
        uv = mp.vector(u)
        want, pinned, sweeps = reference_greatest_solution(A, B, u)
        rc = mp.cyclic_solve(S, uv)
        rp = mp.power_solve(S, uv)
        f = mp.feasibility(S, uv)
        sinking += bool(pinned)
        bottom = all(e == NEG for e in want)
        for r in (rc, rp):
            assert r.status is (Status.BOTTOM_REACHED if bottom else Status.SOLVED)
            assert r.solution == mp.vector(want)
        assert (rc.pinned, rc.iterations) == (tuple(sorted(pinned)), sweeps)
        assert f.status == ("OnlyBottom" if bottom else "FiniteSolution")
        if not bottom:
            assert f.witness == rc.solution
        x = rc.solution
        assert mp.leq(mp.mat_apply(S.B, x), mp.mat_apply(S.A, x))
        assert mp.leq(x, uv)
    assert sinking > 300


def test_feasibility_requires_finite_start():
    with pytest.raises(UnsupportedCaseError):
        mp.feasibility(ring_ineq_system(), v(0, 0, 0, 0, 0, NEG))


def test_feasibility_sweep_cap_is_a_maxplus_error():
    # the chase needs many sweeps before the guard pins it
    with pytest.raises(MaxplusError, match="no fixed point within 5 sweeps"):
        mp.feasibility(chase_system(), v(0, 0, 0), max_iters=5)


def test_untraced_capped_solve_keeps_no_iterates():
    # a long descent cut by the cap: without keep_trace the memory peak
    # must not grow with the number of iterations.  The large x_3 puts
    # the divergence floor ~2 * 10**7 below the start, so the chase
    # still runs into the cap rather than being pinned
    for solve in (mp.cyclic_solve, mp.power_solve):
        peaks = []
        for cap in (200, 2000):
            tracemalloc.start()
            try:
                r = solve(chase_system(), v(0, 0, 10**6), max_iters=cap)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert r.status is Status.ITERATION_CAP_HIT and r.iterations == cap
            assert r.trace is None
        assert peaks[1] < peaks[0] + 20_000, (solve.__name__, peaks)


def test_default_divergence_cap_value():
    S = ring_ineq_system()
    assert default_divergence_cap(S, U6) == 26  # (6 + 5 + 2) * (1 + 1)


def test_operation_count_scaling():
    counts = {}
    for n in (6, 12, 24, 48):
        S = ring(n)
        u = mp.vector([0] * n)
        counts[n] = (mp.cyclic_solve(S, u).finite_additions,
                     mp.power_solve(S, u).finite_additions)
    # per-sweep work is O(total row support) for the cyclic method but
    # O(n * total row support) for the fixed-point step, so doubling n
    # doubles one count and quadruples the other
    c6, p6 = counts[6]
    c48, p48 = counts[48]
    assert c48 / c6 < 12
    assert p48 / p6 > 40


def solver_entry(rng, kind, p_neg_inf):
    """-inf, or a small payload of the kind: int, Fraction, float, or
    any of the three (mixed), so that equal values of two types tie."""
    if rng.random() < p_neg_inf:
        return NEG
    k = rng.randint(-6, 6)
    if kind == "mixed":
        kind = rng.choice(("int", "Fraction", "float"))
    if kind == "int":
        return k
    if kind == "Fraction":
        return mp.scalar(Fraction(k, rng.choice((1, 2, 3))))
    return k / 2


def test_power_step_matches_the_three_kernels():
    # whole reports against vec_meet(residuated_apply(B, mat_apply(A, x)), x)
    # run by the engine-free reference loop: statuses, limits, counts,
    # pinned coordinates and every traced iterate, payload types included
    rng = random.Random(12)
    seen = set()
    for case in range(400):
        n, p = rng.randint(1, 6), rng.randint(0, 6)
        kind = rng.choice(("int", "Fraction", "float", "mixed"))
        p_neg = rng.choice((0.1, 0.3, 0.5))
        A, B = ([[solver_entry(rng, kind, p_neg) for _ in range(n)] for _ in range(p)]
                for _ in "AB")
        S = mp.InequalitySystem(mp.matrix(A, ncols=n), mp.matrix(B, ncols=n))
        start_inf = rng.choice((0.0, 0.0, 0.3))
        u = mp.vector([rng.choice((NEG, POS)) if rng.random() < start_inf
                       else solver_entry(rng, kind, 0.0) for _ in range(n)])
        tol = rng.choice((None, None, 0.5, 2.0))
        max_iters = rng.choice((3, 40, 400))
        for keep_trace in (False, True):
            got = mp.power_solve(S, u, max_iters=max_iters, tol=tol,
                                 keep_trace=keep_trace)
            want = reference_run(S, u, reference_power_step(S), False, "power",
                                 max_iters, tol, keep_trace)
            assert typed_report(got) == typed_report(want), (case, keep_trace)
            seen.add((got.status, bool(got.pinned)))
    assert len(seen) >= 4


def planted_rows_case(rng):
    """(S, u, tol, max_iters): payloads of one kind (or mixed) with -inf
    entries, some rows planted Everything (b below a) or BottomOnly (a
    all -inf, b finite), and a start that may hold +-inf entries."""
    n, p = rng.randint(1, 6), rng.randint(0, 6)
    kind = rng.choice(("int", "Fraction", "float", "mixed"))
    p_neg = rng.choice((0.1, 0.3, 0.5))
    A, B = ([[solver_entry(rng, kind, p_neg) for _ in range(n)] for _ in range(p)]
            for _ in "AB")
    for j in range(p):
        r = rng.random()
        if r < 0.15:
            B[j] = [e - 1 if finite(e) else NEG for e in A[j]]
        elif r < 0.2:
            A[j] = [NEG] * n
            B[j] = [solver_entry(rng, kind, 0.0) for _ in range(n)]
    S = mp.InequalitySystem(mp.matrix(A, ncols=n), mp.matrix(B, ncols=n))
    start_inf = rng.choice((0.0, 0.0, 0.3))
    u = mp.vector([rng.choice((NEG, POS)) if rng.random() < start_inf
                   else solver_entry(rng, kind, 0.0) for _ in range(n)])
    return S, u, rng.choice((None, None, 0.5, 2.0)), rng.choice((3, 40, 400))


def test_solvers_match_the_checked_references():
    # cyclic_solve against sweeps over rows built by HalfSpace(a, b),
    # power_solve against the three kernels, both run by the engine-free
    # reference loop with additions counted entry by entry on every
    # step, traced and untraced, payload types included; feasibility
    # against the reference cyclic run
    rng = random.Random(15)
    seen = set()
    for case in range(600):
        S, u, tol, max_iters = planted_rows_case(rng)
        for solve, step, keep_last, kind in (
                (mp.cyclic_solve, reference_sweep, True, "cyclic"),
                (mp.power_solve, reference_power_step, False, "power")):
            for keep_trace in (False, True):
                got = solve(S, u, max_iters=max_iters, tol=tol, keep_trace=keep_trace)
                want = reference_run(S, u, step(S), keep_last, kind, max_iters, tol,
                                     keep_trace)
                assert typed_report(got) == typed_report(want), (case, kind, keep_trace)
                seen.add((kind, got.status, bool(got.pinned)))
        want = reference_run(S, u, reference_sweep(S), True, "cyclic", max_iters, None,
                             False)
        if not all(finite(e) for e in u):
            with pytest.raises(UnsupportedCaseError, match="finite starting point"):
                mp.feasibility(S, u, max_iters=max_iters)
            continue
        if want.status is Status.ITERATION_CAP_HIT:
            with pytest.raises(MaxplusError, match="no fixed point within"):
                mp.feasibility(S, u, max_iters=max_iters)
            continue
        f = mp.feasibility(S, u, max_iters=max_iters)
        witness = want.solution if want.status is Status.SOLVED else None
        assert (f.status, typed([witness]), f.pinned) == (
            "FiniteSolution" if witness is not None else "OnlyBottom",
            typed([witness]), want.pinned), case
        seen.add(("feasibility", f.status, bool(f.pinned)))
    assert len(seen) >= 12, sorted(map(str, seen))


def test_solvers_refuse_a_bad_tol_or_max_iters():
    # x0 >= x1 + 1, x1 >= x0: only bottom.  A NaN or infinite tol passed
    # every stop test (a point that is no solution came back Solved), a
    # negative one none, and a negative cap gave IterationCapHit after
    # no sweep
    S = mp.InequalitySystem(mp.matrix([[0, NEG], [NEG, 0]]),
                            mp.matrix([[NEG, 1], [0, NEG]]))
    u = v(5.0, 5.0)
    for solve in (mp.cyclic_solve, mp.power_solve):
        for tol in (float("nan"), POS, NEG, -1, -1e-300, Fraction(-1, 2)):
            with pytest.raises(UnsupportedCaseError, match="tol must be finite and >= 0"):
                solve(S, u, tol=tol)
        for max_iters in (-1, -3):
            with pytest.raises(UnsupportedCaseError, match="max_iters must be >= 0"):
                solve(S, u, max_iters=max_iters)
        assert solve(S, u, tol=0.0).status is Status.BOTTOM_REACHED
        assert solve(S, u, tol=-0.0).status is Status.BOTTOM_REACHED
        r = solve(S, u, max_iters=0)
        assert (r.status, r.iterations, r.solution) == (Status.ITERATION_CAP_HIT, 0, u)
    # feasibility refuses the cap before any sweep, instead of blaming the
    # system for a fixed point it never looked for
    for max_iters in (-1, -3):
        with pytest.raises(UnsupportedCaseError, match="max_iters must be >= 0"):
            mp.feasibility(S, u, max_iters=max_iters)
    with pytest.raises(MaxplusError, match="no fixed point within 0 sweeps"):
        mp.feasibility(S, u, max_iters=0)
    assert mp.feasibility(S, u).status == "OnlyBottom"


def spectator_chase(m):
    """The chase pair on x0 and x1 plus the row x2 + m >= x3 (n = 4)."""
    return mp.InequalitySystem(
        mp.matrix([[NEG, -1, NEG, NEG], [-1, NEG, NEG, NEG], [NEG, NEG, m, NEG]]),
        mp.matrix([[0, NEG, NEG, NEG], [NEG, 0, NEG, NEG], [NEG, NEG, NEG, 0]]))


def test_the_floor_is_computed_only_for_runs_that_sink_far(monkeypatch):
    # the guard watches min(u) - 2n(n + p + 2), the highest the floor can
    # be, so that default_divergence_cap's scan of every entry is made
    # only when an iterate falls below it, and then once per run
    calls = [0]
    inner = solvers.default_divergence_cap

    def counted(S, u):
        calls[0] += 1
        return inner(S, u)
    monkeypatch.setattr(solvers, "default_divergence_cap", counted)
    rng = random.Random(35)
    for _ in range(200):
        S, u, _ = planted_system(rng)
        watch = min(u) - 2 * S.n * (S.n + S.p + 2)
        for run in (mp.cyclic_solve, mp.power_solve):
            r = run(S, u, keep_trace=True)
            assert all(e >= watch for x in r.trace.points for e in x if finite(e))
        mp.feasibility(S, u)
        assert calls[0] == 0, (S.A, S.B, u)
    for S, u in ((chase_system(), v(0, 0, 0)), (spectator_chase(10), v(0, 0, 0, 0)),
                 (spectator_chase(100), v(3, -2, -100, 500))):
        for run in (mp.cyclic_solve, mp.power_solve, mp.feasibility):
            calls[0] = 0
            assert run(S, u).pinned and calls[0] == 1, (run.__name__, u)


def test_finite_limit_coordinates_lie_above_the_sound_floor():
    # every finite coordinate of the limit from a finite u is at least
    # min(u) - 2 (n - 1) M, M the largest finite entry magnitude of A and
    # B: a lower coordinate leaves a gap wider than 2M among the finite
    # coordinates below min(u), and raising all those under the gap
    # would give a greater solution below u.  The guard's own floor,
    # min(u) - n (n + p + 2) (M + 1), lies far lower.
    def check(S, u):
        A, B = S.A.rows, S.B.rows
        m = max([0] + [abs(e) for r in A + B for e in r if finite(e)])
        floor = min(u) - 2 * (len(u) - 1) * m
        rc, rp = mp.cyclic_solve(S, u), mp.power_solve(S, u)
        assert rc.solution == rp.solution
        low = [e for e in rc.solution if finite(e)]
        assert all(e >= floor for e in low), (S, u, rc.solution)
        return bool(low) and min(low) == floor

    rng = random.Random(97)
    for _ in range(2000):
        A, B, u = dense_system(rng, 5, 5, -3, 3)
        check(mp.InequalitySystem(mp.matrix(A), mp.matrix(B)), mp.vector(u))
    for m in (10, 100):
        for u in (v(0, 0, 0, 0), v(3, -2, -m, 5 * m), v(0, 0, m, -m)):
            check(spectator_chase(m), u)
    # the floor is attained: the chain x_k - m >= x_{k+1} + m from 0
    # ends at x_{n-1} = -2 (n - 1) m
    for n in (2, 4, 6):
        for m in (1, 5):
            A = [[-m if i == k else NEG for i in range(n)] for k in range(n - 1)]
            B = [[m if i == k + 1 else NEG for i in range(n)] for k in range(n - 1)]
            S = mp.InequalitySystem(mp.matrix(A, ncols=n), mp.matrix(B, ncols=n))
            assert check(S, mp.vector([0] * n)), (n, m)


def test_the_sweep_calls_project_canonical_as_it_stands(monkeypatch):
    # the sweep looks project_canonical up in the solvers module at call
    # time, once per proper row and sweep: tracers wrap it there
    S, u, _ = planted_system_sized(random.Random(34), 8, 7)
    first = mp.cyclic_solve(S, u)
    assert first.status is Status.SOLVED and first.iterations > 0
    rows = sum(mp.classify(mp.HalfSpace(a, b)) is mp.Kind.PROPER
               for a, b in zip(S.A.rows, S.B.rows))
    calls = [0]
    inner = solvers.project_canonical

    def counted(C, x):
        calls[0] += 1
        return inner(C, x)
    monkeypatch.setattr(solvers, "project_canonical", counted)
    assert mp.cyclic_solve(S, u) == first
    assert calls[0] == (first.iterations + 1) * rows > 0
    calls[0] = 0
    assert mp.feasibility(S, u).witness == first.solution
    assert calls[0] == (first.iterations + 1) * rows


def test_one_pass_bound_matches_the_distance_kernels():
    # the report's bound, read in one pass, against n * hilbert_distance
    # and the both-finite count: value, payload type and the sign of a
    # float zero, on entries with infinities, -0.0, Fractions and floats
    # whose difference overflows to an infinity
    rng = random.Random(2024)
    pool = (NEG, POS, 0, 1, -2, 0.0, -0.0, 1.0, -2.5, Fraction(1, 3),
            Fraction(-7, 2), 3, 1e308, -1e308)
    for _ in range(10000):
        n = rng.randint(0, 5)
        u, x = (mp.vector([rng.choice(pool) for _ in range(n)]) for _ in "ux")
        got, want = solvers._bound_from(u, x), reference_bound(u, x)
        assert typed(got) == typed(want), (u, x)
        signs = [math.copysign(1, b) for b, _ in (got, want) if isinstance(b, float)]
        assert len(set(signs)) <= 1, (u, x, got, want)
