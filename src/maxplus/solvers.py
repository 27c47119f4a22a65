"""Iterative solvers for systems of tropical inequalities A x >= B x.

The solution set V is the intersection of the row half-spaces
H_j = {x | A_j x >= B_j x}, a closed subsemimodule, and both solvers
compute the greatest solution below the starting point u, which is the
canonical projection P_V(u).

One guarded loop runs both solvers, and they differ only in its step.
The cyclic step is one sweep: the p row projections onto H_1, ..., H_p
in a fixed round-robin through the canonical projection formula, each
O(|I| + |J|) for the row's support plus an O(n) copy of the iterate
when it moves a coordinate.  A BottomOnly row, which only bottom
satisfies, is one more row: its canonical form has I empty, so its
projection is bottom, after the rows before it in the sweep have
projected as usual.  The run then ends as the power method's does:
BottomReached after one sweep, IterationCapHit at u under a cap of 0,
and Solved with 0 iterations from a bottom start.  The power step
moves the whole system at once:

    eta_next = B#(A eta) /\\ eta,

where B# is the residuated action of B (greatest preimage); its fixed
points are exactly the solutions of B x <= A x.  A column of B with no
finite entry contributes +inf to B# and is absorbed by the meet, so it
simply never constrains the iterate; no column condition is imposed.
The step is one pass over the row supports the matrices hold, with the
tie rules of mat_apply, residuated_apply and vec_meet, so payload
types (int, Fraction, float) come out as theirs would: A_j eta is the
first maximum in support order, each B# entry the first minimum in row
order, and the meet keeps the B# entry where it ties with eta_i.

Both produce entrywise non-increasing iterates converging to P_V(u),
and for every k the sandwich P_V(u) <= xi^{pk} <= eta^k holds, sweeps
of the cyclic method tracking below single power steps; a trace keeps
every iterate and, as ends, where each sweep or step ended in it, so
sandwich_check reads the sandwich off two traced reports.  On integer
data the power method reaches its fixed point within n * d(u, V)
steps, d the projective distance; a report computes this bound from
its start and limit when it is first read, so a caller that never
reads it never pays for it.

Termination is an exactly unchanged sweep / step, or, given a
tolerance, one whose largest entry change is below it (entries at an
infinity must match exactly).  The cyclic method keeps the sweep that
passed this test; the power method drops that step and returns the
iterate before it.  The two rules agree when the test is exact.

Where the limit has -inf coordinates that u lacks, those coordinates
sink forever, so the loop (and with it feasibility, a reading of the
cyclic run) carries one divergence guard for a finite u and p > 0:
after each sweep or step, every coordinate below the floor
min(u) - n * default_divergence_cap(S, u) is pinned to -inf.  A
finite limit coordinate never lies that low: the limit touches u
somewhere (else a translate of it would be a greater solution below
u), and the cap (n + p + 2) * (M + 1), M the largest finite entry
magnitude, exceeds the coordinate spread a solution can have.  The
iterates stay at or above the limit, so a pinned coordinate is -inf
in the limit, and the greatest solution below the pinned point is
that same limit.  On integer data each sweep or step that moves
lowers a coordinate by at least 1, so a sinking run ends in finite
time, Solved with -inf entries or BottomReached.  Until an entry falls
below the watch line min(u) - 2n(n + p + 2), the highest the floor can
be, the guard costs one comparison per sweep or step; only then does
the loop compute the floor, once per run.  Pinned indices are
reported, sorted.

A sinking run of exact data ends sooner, by the block rule.  Two
coordinates share a block when one row of A or B is finite on both, so
V is the product of one solution set per block, each closed under
adding a constant to its finite entries.  The limit on a block is
therefore -inf, or it touches u at a finite coordinate: otherwise a
finite translate of it would be a greater solution below u.  The
iterates stay at or above the limit, so an iterate that lies strictly
below u on a whole block shows that the block's limit is -inf, and
setting that block to -inf leaves the greatest solution below the
iterate unchanged.  Once a run with tol None and no float among the
finite entries of A, B and u has crossed the watch line, every block
on which an iterate lies strictly below u is set to -inf after its
step, and its finite entries are pinned.  Rounding can put a float
iterate below the limit, and a tolerance ends a run near a fixed point
rather than at the limit, so float and tol runs keep the floor alone,
as does a block that touches u.  The watch line keeps the block
partition and its check off the runs that never sink far.

System rows are checked once, by InequalitySystem: equal shapes and no
+inf entry.  Each call builds what it needs from them and keeps nothing
on the system: the cyclic step reads every row pair's canonical form
off its entry tuples once, with halfspace._row_form, which checks
nothing again and builds no HalfSpace.  It then projects each row
through the module's project_canonical as it stands at call time, so a
wrapper put there sees every row projection.  The rest of a call's
fixed cost is read off its start in passes the loop makes anyway: the
guard takes min(u) from the loop's first scan of u, and the report's
bound, on its first read, takes both residuals of d(u, limit) in one
pass.

Reports count the additions of two finite scalars, by one rule for
both steps (_additions): a row adds c_i + x_i for each finite x_i with
i in I, the indices of its finite left coefficients, and then one per
index in J, those of its finite right coefficients, when that maximum
is finite.  A sweep row takes I and J from its canonical form, row j
of a power step takes supp A_j and supp B_j.  Which additions a sweep
or step performs depends only on where its start is infinite, so each
such pattern (mostly just "all finite") is counted once, and every
counted step ran.  The rule reads a maximum as finite from the finite
x_i alone: a float row whose maximum overflows to +inf still counts
its |J| subtractions.  While the iterate has no infinite entry, the
rule gives |I| + |J| for a row with I nonempty and 0 for one with I
empty, so a row's count is read off the lengths of its form (or of
supp A_j and supp B_j); only from an infinite entry on, which the power
step finds in its start and the sweep in its start or after a row that
moved (a BottomOnly row, a row with I empty, or a float difference
that overflows to -inf), is each row counted entry by entry.
feasibility, whose result carries no count, counts nothing.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass
from functools import cached_property

from .errors import DimensionError, MaxplusError, UnsupportedCaseError
from .extreal import NEG_INF, POS_INF
from .halfspace import _check_coefficients, _row_form, project_canonical
from .tropical_linalg import TropicalMatrix, TropicalVector, _vec, leq

DEFAULT_MAX_ITERS = 100_000


class Status(enum.Enum):
    SOLVED = "Solved"
    BOTTOM_REACHED = "BottomReached"
    ITERATION_CAP_HIT = "IterationCapHit"


class InequalitySystem:
    """The p inequalities A_j x >= B_j x, shapes equal, p = 0 allowed;
    like the row half-spaces, A and B have no +inf entries."""

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        if not isinstance(A, TropicalMatrix) or not isinstance(B, TropicalMatrix):
            raise TypeError("InequalitySystem expects two TropicalMatrix operands")
        if A.nrows != B.nrows or A.ncols != B.ncols:
            raise DimensionError(
                f"shape {A.nrows}x{A.ncols} vs {B.nrows}x{B.ncols}")
        for a, b in zip(A.rows, B.rows):
            _check_coefficients(a, "left")
            _check_coefficients(b, "right")
        self.A = A
        self.B = B

    @property
    def p(self):
        return self.A.nrows

    @property
    def n(self):
        return self.A.ncols


@dataclass(frozen=True)
class IterationTrace:
    """The distinct iterate values in order, starting at the initial
    point; step_kind "cyclic" records row-step values, "power" whole
    steps.  ends holds, per sweep or step, the index in points of the
    iterate it ended at."""

    points: tuple
    step_kind: str
    ends: tuple


_PUBLIC = ("status", "solution", "iterations", "distance_bound_used",
           "finite_additions", "trace", "pinned")


@dataclass(frozen=True, eq=False, repr=False)
class SolveReport:
    """iterations counts steps that ran and changed the iterate;
    finite_additions includes those computing distance_bound_used;
    pinned lists the coordinates that the floor or the block rule set
    to -inf (module docstring).

    The report keeps its start and the run's own additions, and computes
    distance_bound_used, with the additions it takes, on the first read
    of either: a caller that reads neither never pays for the bound.
    ==, hash and repr read the seven public values, and
    dataclasses.replace builds a report whose bound follows the fields
    it was given."""

    status: Status
    solution: TropicalVector
    iterations: int
    trace: IterationTrace | None = None
    pinned: tuple = ()
    _: KW_ONLY
    start: TropicalVector
    run_additions: int

    @cached_property
    def _bound(self):
        if self.status is Status.SOLVED:
            return _bound_from(self.start, self.solution)
        return POS_INF, 0

    @property
    def distance_bound_used(self):
        return self._bound[0]

    @property
    def finite_additions(self):
        return self.run_additions + self._bound[1]

    def _public(self):
        return tuple([getattr(self, name) for name in _PUBLIC])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._public() == other._public()

    def __hash__(self):
        return hash(self._public())

    def __repr__(self):
        return "SolveReport(" + ", ".join(
            [f"{name}={value!r}" for name, value in zip(_PUBLIC, self._public())]) + ")"


@dataclass(frozen=True)
class FeasibilityResult:
    """status "FiniteSolution" carries the nonbottom limit as witness;
    "OnlyBottom" means every solution below the start is bottom.
    pinned lists the coordinates that the floor or the block rule set
    to -inf.  It reads the run of cyclic_solve, in which every sweep
    that max_iters counts ran."""

    status: str
    witness: TropicalVector | None
    pinned: tuple = ()


@dataclass(slots=True)
class _Run:
    """What one guarded run ended with: its status and iterate, the steps
    that changed the iterate, the finite additions of every step (0 when
    the run did not count), the pinned coordinates, sorted, and, for a
    traced run, the index in its points where each step ended."""

    status: Status
    iterate: TropicalVector
    steps: int
    additions: int
    pinned: tuple
    ends: list


def _scan(x):
    """(pattern, lo, hi) for the iterate x: pattern is the (index, value)
    pairs of its infinite entries, lo its lowest finite entry (+inf if
    none), hi its highest entry (-inf exactly when x is bottom)."""
    xs = x.entries
    if not xs:
        return (), POS_INF, NEG_INF
    lo, hi = min(xs), max(xs)
    if NEG_INF < lo and hi < POS_INF:
        return (), lo, hi
    finite = [e for e in xs if NEG_INF < e < POS_INF]
    return (tuple([(i, e) for i, e in enumerate(xs) if not NEG_INF < e < POS_INF]),
            min(finite) if finite else POS_INF, hi)


def _max_change_ok(prev, cur, tol):
    """Whether the step prev -> cur counts as unchanged under tol
    (None means exact equality)."""
    if tol is None:
        return prev == cur
    for a, b in zip(prev.entries, cur.entries):
        if NEG_INF < a < POS_INF and NEG_INF < b < POS_INF:
            if abs(a - b) > tol:
                return False
        elif a != b:
            return False
    return True


def _bound_from(u, solution):
    """(n * d(u, limit), its finite additions): the iteration bound for
    integer data that a report computes on first read, infinite whenever
    the distance is.  It is 0, with no addition, when d is -inf: no index
    is then finite in both vectors, so no entry moved, since entries only
    fall and one that falls from +inf or from a finite value makes d
    +inf.  One pass takes the two residuals of hilbert_distance(u,
    limit), limit\\u and u\\limit, with vec_residual's first-minimum
    rule, and counts the indices finite in both vectors: each residual
    subtracts once there, and adding the two counts only when both, hence
    d, are finite."""
    r = s = POS_INF
    both = 0
    for a, b in zip(u.entries, solution.entries):
        t = b - a  # NaN where upper addition gives +inf: skipped
        if t < r:
            r = t
        t = a - b
        if t < s:
            s = t
        if NEG_INF < a < POS_INF and NEG_INF < b < POS_INF:
            both += 1
    if r == s == POS_INF:  # d = -inf: no index is finite in both
        return 0, 0
    # d = -(r + s) with lower addition: +inf when a residual is -inf
    d = POS_INF if r == NEG_INF or s == NEG_INF else -(r + s)
    if not NEG_INF < d < POS_INF:
        return d, 2 * both
    return len(u.entries) * d, 2 * both + 1


def _additions(I, nJ, xs):
    """Finite additions of one row from xs: c_i + x_i for each finite
    x_i with i in I (the row's coefficients there are finite), then nJ
    more when that maximum is finite, i.e. some x_i on I is finite and
    none is +inf.  The count is a function of where xs is infinite
    alone, so a float maximum that overflows to +inf from finite terms
    still counts its nJ subtractions."""
    k = 0
    top = False
    for i in I:
        e = xs[i]
        if e == POS_INF:
            top = True
        elif e != NEG_INF:
            k += 1
    return k + nJ if k and not top else k


def _check_tol(tol):
    """Refuse a tolerance that is NaN, infinite or negative; None means
    exact termination.  The solvers and the CLI's --tol share it."""
    if tol is not None and not 0 <= tol < POS_INF:
        raise UnsupportedCaseError(f"tol must be finite and >= 0, got {tol!r}")


def _check_start(S, u, max_iters, tol=None):
    """The checks of every solver entry point, made before any sweep."""
    n = S.A.ncols
    if n != len(u.entries):
        raise DimensionError(f"system in dimension {n}, start has {len(u)}")
    _check_tol(tol)
    if max_iters < 0:
        raise UnsupportedCaseError(f"max_iters must be >= 0, got {max_iters!r}")


def _sweep(S):
    """The cyclic step: one sweep of the rows, each canonicalized once
    here and projected by the module's project_canonical as it stands
    at call time.  Rows with J empty (Everything) project to the
    identity and are dropped; a BottomOnly row projects to bottom."""
    rows = []
    for a, b in zip(S.A.rows, S.B.rows):
        C = _row_form(a.entries, b.entries)
        if C.b_pairs:
            rows.append(C)

    def sweep(x, points, counting):
        count = 0
        # while x has no infinite entry, a row adds |I| + |J|, or nothing
        # when I is empty; a row that moves x may put -inf in it
        finite = counting and NEG_INF not in x.entries and POS_INF not in x.entries
        for C in rows:
            if finite:
                if C.a_pairs:
                    count += len(C.a_pairs) + len(C.b_pairs)
            elif counting:
                I = [i for i, _ in C.a_pairs]
                count += _additions(I, len(C.b_pairs), x.entries)
            nxt = project_canonical(C, x)
            if nxt is not x:
                if points is not None:
                    points.append(nxt)
                if finite and NEG_INF in nxt.entries:
                    finite = False
            x = nxt
        return x, count
    return sweep


def _power_step(S):
    """The power step eta <- B#(A eta) /\\ eta in one pass: y_j = A_j x
    over supp A_j, folded at once into the residual min over supp B_j,
    then the meet with x."""
    n = S.n
    rows = tuple(zip([r.entries for r in S.A.rows], S.A._support,
                     [r.entries for r in S.B.rows], S.B._support))

    def step(x, points, counting):
        xs = x.entries
        out = [POS_INF] * n
        # supports hold finite coefficients only, so native + and - are
        # the lower and upper additions
        for a, sa, b, sb in rows:
            y = NEG_INF
            for i in sa:
                t = a[i] + xs[i]
                if t > y:
                    y = t
            for i in sb:
                t = y - b[i]
                if t < out[i]:
                    out[i] = t
        nxt = _vec(tuple([r if r <= e else e for r, e in zip(out, xs)]))
        if not counting:
            return nxt, None
        if NEG_INF not in xs and POS_INF not in xs:
            return nxt, sum([len(sa) + len(sb) for _, sa, _, sb in rows if sa])
        return nxt, sum([_additions(sa, len(sb), xs) for _, sa, _, sb in rows])
    return step


def _cyclic_run(S, u, step, keep_last, max_iters, tol, points=None, counting=True):
    """The one guarded loop, x <- step(x), of both solvers and
    feasibility, as a _Run.

    step(x, points, counting) gives the next iterate and, when counting,
    its finite additions; it may append intermediate iterates to points.
    A run that is not counting never asks for them.
    A step that passes the stop test ends the run with its iterate if
    keep_last, else with the one before it, which it then leaves out of
    points.  points, if given (holding u), receives every new iterate
    value, and ends the index in it where each step ended.
    """
    x = u
    pattern, lo, hi = _scan(x)
    # the guard: a finite entry below watch calls for the floor.  watch
    # is -inf (never) without a guard, min(u) - 2n(n + p + 2), the
    # highest the floor can be, until the floor is computed, and the
    # floor after
    top = POS_INF if pattern else lo  # min(u) for a finite u
    n = S.n
    watch = top - 2 * n * (n + S.p + 2) if S.p and top < POS_INF else NEG_INF
    floor = None
    # the blocks the block rule has not pinned yet: set with the floor
    # when no finite entry is a float and tol is None, else none
    blocks = ()
    pinned = set()
    ends = []
    status = Status.ITERATION_CAP_HIT
    sweeps = additions = 0
    pattern_additions = {}
    while sweeps < max_iters:
        known = pattern_additions.get(pattern) if counting else 0
        nxt, count = step(x, points, known is None)
        if known is None:
            pattern_additions[pattern] = known = count
        additions += known
        pattern, lo, hi = _scan(nxt)
        if lo < watch and floor is None:
            cap, exact = _guard_scan(S, u)
            floor = watch = top - n * cap
            if exact and tol is None:
                blocks = _blocks(S)
        if blocks or lo < watch:
            xs, us = nxt.entries, u.entries
            cut = [i for i, e in enumerate(xs) if NEG_INF < e < floor] if lo < watch else []
            live = []
            for block in blocks:
                # a block lives while it touches u, and the iterate
                # never exceeds u, so the scan stops at the first xs[i]
                # equal to us[i]
                for i in block:
                    if xs[i] == us[i]:
                        live.append(block)
                        break
                else:
                    cut += [i for i in block if xs[i] != NEG_INF]
            blocks = live
            if cut:
                pinned.update(cut)
                cut = set(cut)
                nxt = _vec(tuple([NEG_INF if i in cut else e for i, e in enumerate(xs)]))
                pattern, lo, hi = _scan(nxt)
        stop = _max_change_ok(x, nxt, tol)
        if keep_last or not stop:
            if points is not None:
                if nxt is not points[-1]:  # unless the step appended it
                    points.append(nxt)
                ends.append(len(points) - 1)
            x = nxt
        if stop:
            status = Status.SOLVED
            break
        sweeps += 1
        if hi == NEG_INF:
            status = Status.BOTTOM_REACHED
            break
    return _Run(status, x, sweeps, additions, tuple(sorted(pinned)), ends)


def _blocks(S):
    """The coordinate blocks of S as index tuples: two coordinates share
    a block when a row of A or B is finite on both.  Coordinates that no
    row touches are left out, since no step moves them."""
    blocks = []
    for sa, sb in zip(S.A._support, S.B._support):
        block = set(sa).union(sb)
        if block:
            rest = []
            for other in blocks:
                if other & block:
                    block |= other
                else:
                    rest.append(other)
            blocks = rest + [block]
    return [tuple(sorted(b)) for b in blocks]


def _solve(S, u, make_step, keep_last, kind, max_iters, tol, keep_trace):
    _check_start(S, u, max_iters, tol)
    points = [u] if keep_trace else None
    run = _cyclic_run(S, u, make_step(S), keep_last, max_iters, tol, points)
    trace = IterationTrace(tuple(points), kind, tuple(run.ends)) if keep_trace else None
    return SolveReport(run.status, run.iterate, run.steps, trace, run.pinned,
                       start=u, run_additions=run.additions)


def cyclic_solve(S, u, max_iters=DEFAULT_MAX_ITERS, tol=None, keep_trace=False):
    """Round-robin projection onto the row half-spaces, guarded against
    endless descent (module docstring).

    max_iters caps the number of sweeps; iterations reports the number
    of sweeps that changed the iterate.  The sweep that passes the stop
    test is kept.  Both solvers raise UnsupportedCaseError for a tol
    that is NaN, infinite or negative and for a negative max_iters.
    """
    return _solve(S, u, _sweep, True, "cyclic", max_iters, tol, keep_trace)


def power_solve(S, u, max_iters=DEFAULT_MAX_ITERS, tol=None, keep_trace=False):
    """Whole-system fixed-point iteration eta <- B#(A eta) /\\ eta, with
    the divergence guard of cyclic_solve.  The step that passes the stop
    test is dropped."""
    return _solve(S, u, _power_step, False, "power", max_iters, tol, keep_trace)


def sandwich_check(cyclic, power):
    """Verify limit <= xi^{pk} <= eta^k for every k, given the traced
    reports of cyclic_solve and power_solve from the same start.
    Returns False when an inequality fails, a method hit its cap, or
    the two limits disagree."""
    if cyclic.trace is None or power.trace is None:
        raise ValueError("sandwich_check needs reports made with keep_trace=True")
    if (Status.ITERATION_CAP_HIT in (cyclic.status, power.status)
            or cyclic.solution != power.solution):
        return False
    limit = cyclic.solution
    xi, eta = ([t.points[0]] + [t.points[i] for i in t.ends]
               for t in (cyclic.trace, power.trace))
    k = max(len(xi), len(eta))
    xi += xi[-1:] * (k - len(xi))
    eta += eta[-1:] * (k - len(eta))
    return all(leq(limit, a) and leq(a, b) for a, b in zip(xi, eta))


def default_divergence_cap(S, u):
    """(n + p + 2) * (M + 1) for M the largest finite entry magnitude
    in the system and the start; ample for the coordinate spread of any
    nonbottom solution on integer data."""
    return _guard_scan(S, u)[0]


def _guard_scan(S, u):
    """(default_divergence_cap(S, u), whether no finite entry of A, B and
    u is a float), in one pass over the rows and u.  M is the first entry
    of largest magnitude, in reading order, as max() keeps it."""
    m = 1
    exact = True
    for es in S.A.rows + S.B.rows + (u,):
        for e in es:
            if type(e) is float:
                if not NEG_INF < e < POS_INF:
                    continue
                exact = False
            e = abs(e)
            if e > m:
                m = e
    return (S.n + S.p + 2) * (m + 1), exact


def feasibility(S, u, max_iters=DEFAULT_MAX_ITERS):
    """Whether some nonbottom solution lies below the finite start u.

    The guarded cyclic run of cyclic_solve, read as a certificate:
    Solved gives "FiniteSolution" with the limit as witness,
    BottomReached gives "OnlyBottom", and pinned carries the
    coordinates the floor or the block rule set to -inf.  Raises
    UnsupportedCaseError for a non-finite start or a negative max_iters,
    before any sweep, and MaxplusError after max_iters sweeps.
    """
    _check_start(S, u, max_iters)
    for e in u.entries:
        if not NEG_INF < e < POS_INF:
            raise UnsupportedCaseError("feasibility needs a finite starting point")
    run = _cyclic_run(S, u, _sweep(S), True, max_iters, None, counting=False)
    if run.status is Status.SOLVED:
        return FeasibilityResult("FiniteSolution", run.iterate, run.pinned)
    if run.status is Status.BOTTOM_REACHED:
        return FeasibilityResult("OnlyBottom", None, run.pinned)
    raise MaxplusError(f"no fixed point within {max_iters} sweeps; raise max_iters")
