"""The four benchmark workloads: seeded inputs, operations and checks.

generate(name, seed) makes a workload's inputs as plain Python data
(bench/gen.py), together with their reference answers (bench/ref.py)
and a stream of plain scalars drawn from them for the scalar-layer
timings.  setup(name, seed, workdir) builds the library objects (and,
for cli-roundtrip, the input files) and returns a Setup:

  ops     the operation list, which holds the workload's whole fixed
          mix; the timed loop cycles through it;
  warmup  ops run once, checked, before timing.

Each Op has a kind, a call that does the library work (the only part
that is timed), a check that raises ref.WrongAnswer on a wrong answer
and returns False for an uncertified one (IterationCapHit after the
whole cap, on solve-dense only), and solves(out): (method, iterations,
capped) for each solver report.

Calls look library functions up through the module at call time, so the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import random

import maxplus as mp
from maxplus import cli as mp_cli

import gen
import ref
from ref import NEG, POS, expect

PARAMS = {
    # 16 strata of (nearly) equal size by the reference cyclic sweep
    # count; the edges are the 16-quantiles of that count on 2500
    # instances of the family
    "solve-planted": {"n": 40, "p": 40, "lo": -8, "hi": 8, "p_neg_a": 0.7,
                      "max_offset": 100,
                      "sweep_edges": [7, 8, 10, 11, 12, 13, 14, 16, 17, 19, 21,
                                      23, 27, 32, 41],
                      "per_stratum": 3},
    # blocks of 11 systems whose make-up repeats every 3 blocks: per 33,
    # 9 sinking, 2 with a bottom-only row and 22 finite (16 reached in at
    # most 1 sweep, 4 in 2, 2 in more): 27.3%, 6.1%, 48.5%, 12.1%, 6.1%
    # against 25.8%, 6.8%, 47.2%, 14.5%, 5.7% in 5000 draws of the family.
    # feasibility needed at most 721 sweeps on those 5000; the solver cap
    # is 5x that, rounded up to a hundred.  Each system gives three
    # operations: cyclic_solve, power_solve and feasibility
    "solve-dense": {"n": 5, "p": 5, "lo": -3, "hi": 3, "max_iters": 3700,
                    "blocks": 3, "block_makeup": [
                        {"sinking": 3, "bottom_row": 1, "finite_le1": 5,
                         "finite_2": 1, "finite_ge3": 1},
                        {"sinking": 3, "bottom_row": 1, "finite_le1": 5,
                         "finite_2": 1, "finite_ge3": 1},
                        {"sinking": 3, "finite_le1": 6, "finite_2": 2}]},
    # one semimodule per generator count q (mean 80 = n), and blocks of one
    # point per semimodule, exactly one of them with a -inf coordinate
    # (reduced to its support before separation).  The spread of q spreads
    # the operation times, so that p50 and p90 fall inside groups of
    # operations rather than on the noise around one common time
    "approx-semimodule": {"n": 80, "q": [48, 64, 80, 96, 112], "lo": -3,
                          "hi": 3, "p_neg": 0.2, "blocks": 20},
    "cli-roundtrip": {"system_n": 20, "system_p": 20, "system_lo": -8,
                      "system_hi": 8, "system_p_neg_a": 0.7,
                      "system_max_offset": 10, "semimodule_n": 60,
                      "semimodule_q": 60, "semimodule_lo": -3,
                      "semimodule_hi": 3, "semimodule_p_neg": 0.2, "sets": 20},
}


class Op:
    __slots__ = ("kind", "call", "check", "solves")

    def __init__(self, kind, call, check, solves=None):
        self.kind = kind
        self.call = call
        self.check = check
        self.solves = solves or (lambda out: [])


class Setup:
    def __init__(self, ops, warmup, stream):
        self.ops = ops
        self.warmup = warmup
        self.stream = stream


def plain(e):
    """A library scalar as a plain number, through its text token."""
    return gen.parse_token(mp.format_scalar(e))


def plain_vec(v):
    return [plain(e) for e in v]


def tokens(x):
    return [gen.token(e) for e in x]


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _stream(rng, rows, size=20000):
    flat = [e for r in rows for e in r]
    return [rng.choice(flat) for _ in range(size)]


def _system(A, B):
    return mp.InequalitySystem(mp.matrix(A, ncols=len(A[0])),
                               mp.matrix(B, ncols=len(B[0])))


def _report(method, rep):
    return method, rep.iterations, rep.status is mp.Status.ITERATION_CAP_HIT


def _approx_points(rng, gens, count, n_neg, lo, hi):
    """Points outside the span at finite distance from it (after support
    reduction for points with -inf entries), with their projections."""
    out = []
    while len(out) < count:
        x = gen.point(rng, len(gens[0]), lo, hi, n_neg)
        P = ref.project_generators(gens, x)
        if P != x and ref.hilbert(x, P) != POS:
            out.append((x, P))
    return out


# --- solve-planted ---------------------------------------------------------

def generate_solve_planted(seed):
    P = PARAMS["solve-planted"]
    rng = _rng("solve-planted", seed)
    strata = [[] for _ in range(len(P["sweep_edges"]) + 1)]
    while any(len(s) < P["per_stratum"] for s in strata):
        A, B, u, sol = gen.planted_system(rng, P["n"], P["p"], P["lo"], P["hi"],
                                          P["p_neg_a"], P["max_offset"])
        limit, _, sweeps = ref.greatest_solution(A, B, u)
        s = strata[bisect.bisect_left(P["sweep_edges"], sweeps)]
        if len(s) < P["per_stratum"]:
            s.append({"A": A, "B": B, "u": u, "sol": sol, "limit": limit})
    instances = []
    for k in range(P["per_stratum"]):
        block = [s[k] for s in strata]
        rng.shuffle(block)
        instances.extend(block)
    rows = [r for inst in instances for r in inst["A"] + inst["B"]]
    return {"instances": instances, "stream": _stream(rng, rows)}


def setup_solve_planted(data, workdir):
    ops = [op for inst in data["instances"] for op in _planted_ops(**inst)]
    return Setup(ops, ops[:2], data["stream"])


def _planted_ops(A, B, u, sol, limit):
    S, uv = _system(A, B), mp.vector(u)
    seen = {}

    def check(kind):
        def run(rep):
            # the default cap is far above the sweeps any of these systems
            # needs, so a cap hit here is a wrong answer, not an uncertified one
            expect(rep.status is mp.Status.SOLVED,
                   f"{kind}: {rep.status.value} on a planted system")
            x = plain_vec(rep.solution)
            expect(ref.satisfies(A, B, x), f"{kind}: limit violates A x >= B x")
            expect(ref.leq(x, u), f"{kind}: limit is not below u")
            expect(ref.leq(sol, x), f"{kind}: limit is below the planted solution")
            expect(x == limit, f"{kind}: limit is not the greatest solution")
            seen[kind] = x
            if len(seen) == 2:
                expect(seen["cyclic_solve"] == seen["power_solve"],
                       "cyclic and power limits disagree")
            return True
        return run

    return [Op("cyclic_solve", lambda: mp.cyclic_solve(S, uv), check("cyclic_solve"),
               lambda rep: [_report("cyclic_solve", rep)]),
            Op("power_solve", lambda: mp.power_solve(S, uv), check("power_solve"),
               lambda rep: [_report("power_solve", rep)])]


# --- solve-dense -----------------------------------------------------------

def _dense_class(limit, pinned, sweeps):
    if pinned:
        return "sinking"
    if all(e == NEG for e in limit):
        return "bottom_row"
    return "finite_le1" if sweeps <= 1 else "finite_2" if sweeps == 2 else "finite_ge3"


def generate_solve_dense(seed):
    """Dense systems in blocks of fixed make-up (PARAMS), drawn in order
    from the seeded stream, so that every block holds the family's
    natural shares rather than a binomial sample of them.  The classes:
    "sinking" (some coordinate sinks below the divergence floor: only
    bottom, or a greatest solution with -inf entries, lies below u),
    "bottom_row" (a row that no nonbottom point satisfies, so only bottom
    lies below u at once) and "finite_*" (a finite greatest solution,
    split by the number of sweeps that reach it)."""
    P = PARAMS["solve-dense"]
    rng = _rng("solve-dense", seed)
    makeup = [P["block_makeup"][k % len(P["block_makeup"])] for k in range(P["blocks"])]
    need = {}
    for m in makeup:
        for c, count in m.items():
            need[c] = need.get(c, 0) + count
    pools = {c: [] for c in need}
    while any(len(pools[c]) < need[c] for c in need):
        A, B, u = gen.dense_system(rng, P["n"], P["p"], P["lo"], P["hi"])
        limit, pinned, sweeps = ref.greatest_solution(A, B, u)
        c = _dense_class(limit, pinned, sweeps)
        if len(pools[c]) < need[c]:
            pools[c].append({"A": A, "B": B, "u": u, "limit": limit})
    instances = []
    for m in makeup:
        block = [pools[c].pop() for c in m for _ in range(m[c])]
        rng.shuffle(block)
        instances.extend(block)
    rows = [r for inst in instances for r in inst["A"] + inst["B"]]
    return {"instances": instances, "stream": _stream(rng, rows)}


def setup_solve_dense(data, workdir):
    P = PARAMS["solve-dense"]
    ops = [op for inst in data["instances"]
           for op in _dense_ops(**inst, cap=P["max_iters"])]
    warmup = next(_dense_ops(**inst, cap=P["max_iters"])
                  for inst in data["instances"]
                  if any(e != NEG for e in inst["limit"]))
    return Setup(ops, warmup, data["stream"])


def _dense_ops(A, B, u, limit, cap):
    """Three operations on one system: cyclic_solve and power_solve under
    the fixed cap, and feasibility."""
    S, uv = _system(A, B), mp.vector(u)
    only_bottom = all(e == NEG for e in limit)

    def check_solve(kind, rep):
        x = plain_vec(rep.solution)
        if rep.status is mp.Status.ITERATION_CAP_HIT:
            # uncertified, not wrong, only after the whole cap; any iterate of
            # a correct method lies between the limit and u
            expect(rep.iterations == cap,
                   f"{kind}: IterationCapHit after {rep.iterations} of {cap} "
                   "iterations")
            expect(ref.leq(limit, x) and ref.leq(x, u),
                   f"{kind}: capped iterate outside [limit, u]")
            return False
        if rep.status is mp.Status.BOTTOM_REACHED:
            expect(only_bottom, f"{kind}: BottomReached but a nonbottom "
                                "solution lies below u")
            expect(all(e == NEG for e in x),
                   f"{kind}: BottomReached with a non-bottom vector")
            return True
        expect(rep.status is mp.Status.SOLVED, f"{kind}: unknown status")
        expect(ref.satisfies(A, B, x), f"{kind}: limit violates A x >= B x")
        expect(ref.leq(x, u), f"{kind}: limit is not below u")
        expect(x == limit, f"{kind}: limit is not the greatest solution")
        return True

    def check_feasibility(res):
        if only_bottom:
            expect(res.status == "OnlyBottom",
                   f"feasibility: {res.status} where only bottom lies below u")
            return True
        expect(res.status == "FiniteSolution",
               f"feasibility: {res.status} where a nonbottom solution exists")
        w = plain_vec(res.witness)
        expect(any(e != NEG for e in w), "feasibility: bottom witness")
        expect(ref.satisfies(A, B, w), "feasibility: witness violates A x >= B x")
        expect(ref.leq(w, u), "feasibility: witness is not below u")
        expect(w == limit, "feasibility: witness is not the greatest solution")
        return True

    def solver(kind):
        return Op(kind, lambda: getattr(mp, kind)(S, uv, max_iters=cap),
                  lambda rep: check_solve(kind, rep),
                  lambda rep: [_report(kind, rep)])

    return [solver("cyclic_solve"), solver("power_solve"),
            Op("feasibility", lambda: mp.feasibility(S, uv), check_feasibility)]


# --- approx-semimodule -----------------------------------------------------

def generate_approx_semimodule(seed):
    P = PARAMS["approx-semimodule"]
    rng = _rng("approx-semimodule", seed)
    k, m = len(P["q"]), P["blocks"]
    families = [gen.generators(rng, P["n"], q, P["lo"], P["hi"], P["p_neg"])
                for q in P["q"]]
    # semimodule s gets its -inf points in the blocks b with b % k == s
    points = [_approx_points(rng, g, m - m // k, 0, P["lo"], P["hi"])
              + _approx_points(rng, g, m // k, 1, P["lo"], P["hi"])
              for g in families]
    finite_left = [iter(pts[:m - m // k]) for pts in points]
    neg_left = [iter(pts[m - m // k:]) for pts in points]
    problems = []
    for b in range(m):
        for s in range(k):
            x, proj = next(neg_left[s] if b % k == s else finite_left[s])
            problems.append({"semimodule": s, "x": x, "proj": proj})
    return {"semimodules": families, "problems": problems,
            "stream": _stream(rng, [r for g in families for r in g])}


def setup_approx_semimodule(data, workdir):
    spans = [mp.GeneratedSemimodule(g, n=len(g[0])) for g in data["semimodules"]]
    ops = [_approx_op(data["semimodules"][p["semimodule"]], spans[p["semimodule"]],
                      p["x"], p["proj"]) for p in data["problems"]]
    return Setup(ops, ops[:1], data["stream"])


def _approx_op(gens, V, x, P_ref):
    xv = mp.vector(x)
    reduce = any(e == NEG for e in x)
    I = [i for i, e in enumerate(x) if e != NEG]
    x_r = [x[i] for i in I]
    gens_r = [[g[i] for i in I] for g in gens
              if all(g[j] == NEG for j in range(len(x)) if x[j] == NEG)]
    d_ref = ref.hilbert(x, P_ref)

    def call():
        P = mp.project_semimodule(V, xv)
        d = mp.distance_to(V, xv)
        if reduce:
            xr, Vr, index = mp.reduce_problem(V, xv)
        else:
            xr, Vr, index = xv, V, None
        H = mp.universal_halfspace(Vr, xr)
        return (P, d, index, H, mp.project(H, xr), mp.distance(H, xr),
                mp.best_approx_set(H, xr))

    def check(out):
        P, d, index, H, PH, dH, best = out
        Pp = plain_vec(P)
        expect(Pp == P_ref, "project: not the greatest element below x")
        expect(ref.leq(Pp, x), "project: not below x")
        expect(ref.project_generators(gens, Pp) == Pp, "project: not a member")
        expect(plain(d) == d_ref, "distance_to: not d(x, P)")
        if reduce:
            expect(list(index) == I, "reduce_problem: wrong support")
        a, b = plain_vec(H.a), plain_vec(H.b)
        expect(all(ref.contains(a, b, g) for g in gens_r),
               "universal_halfspace: misses a generator")
        expect(not ref.contains(a, b, x_r), "universal_halfspace: contains x")
        expect(plain_vec(PH) == [P_ref[i] for i in I],
               "half-space project: differs from the semimodule projection")
        expect(plain(dH) == d_ref, "half-space distance: differs from d(x, V)")
        expect(plain(best.base_distance) == d_ref, "best_approx_set: distance")
        expect(len(best.faces) > 0, "best_approx_set: no face")
        for face in best.faces:
            h = [None] * len(x_r)
            for j, v in face.fixed.items():
                h[j] = plain(v)
            for k, (lo, _) in face.box.items():
                h[k] = plain(lo)
            expect(ref.contains(a, b, h) and ref.hilbert(x_r, h) == d_ref,
                   f"best_approx_set: face {face.pivot} holds a point that is "
                   "not nearest")
        return True

    return Op("approx", call, check)


# --- cli-roundtrip ---------------------------------------------------------

def generate_cli_roundtrip(seed):
    P = PARAMS["cli-roundtrip"]
    rng = _rng("cli-roundtrip", seed)
    sets, rows = [], []
    for _ in range(P["sets"]):
        A, B, u, sol = gen.planted_system(
            rng, P["system_n"], P["system_p"], P["system_lo"], P["system_hi"],
            P["system_p_neg_a"], P["system_max_offset"])
        gens = gen.generators(rng, P["semimodule_n"], P["semimodule_q"],
                              P["semimodule_lo"], P["semimodule_hi"],
                              P["semimodule_p_neg"])
        ((x, proj),) = _approx_points(rng, gens, 1, 0, P["semimodule_lo"],
                                      P["semimodule_hi"])
        ha, hb = ref.universal_halfspace(x, proj)
        sets.append({"A": A, "B": B, "u": u, "limit": ref.greatest_solution(A, B, u)[0],
                     "gens": gens, "x": x, "proj": proj, "ha": ha, "hb": hb})
        rows.extend(A + B + gens)
    return {"sets": sets, "stream": _stream(rng, rows)}


def setup_cli_roundtrip(data, workdir):
    d = workdir / "cli"
    d.mkdir(parents=True)
    ops = []
    for k, s in enumerate(data["sets"]):
        n, m = len(s["u"]), len(s["x"])
        files = {"A": gen.matrix_text(s["A"], n), "B": gen.matrix_text(s["B"], n),
                 "u": gen.vector_text(s["u"]), "V": gen.matrix_text(s["gens"], m),
                 "x": gen.vector_text(s["x"]),
                 "H": gen.halfspace_text(s["ha"], s["hb"])}
        paths = {}
        for key, text in files.items():
            paths[key] = str(d / f"{k}-{key}.txt")
            with open(paths[key], "w", encoding="utf-8") as f:
                f.write(text)
        ops.extend(_cli_ops(paths, **s))
    return Setup(ops, ops[:5], data["stream"])


class CliError(Exception):
    """The CLI refused the input (exit status 2): a failed operation."""


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mp_cli.main(argv)
        except SystemExit as e:
            code = e.code
    if code == 2:
        raise CliError(err.getvalue().strip())
    return code, out.getvalue()


def _once(fn):
    """fn() computed on first use: the library answers the CLI output is
    compared with are computed by the checks, outside the timed calls."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def _cli_ops(paths, A, B, u, limit, gens, x, proj, ha, hb):
    sys_args = ["--a", paths["A"], "--b", paths["B"], "--init", paths["u"]]
    sm_args = ["--generators", paths["V"], "--point", paths["x"]]
    d = ref.hilbert(x, proj)

    @_once
    def solves():
        S, uv = _system(A, B), mp.vector(u)
        out = {}
        for m, solve in (("cyclic", mp.cyclic_solve), ("power", mp.power_solve)):
            r = solve(S, uv)
            expect(plain_vec(r.solution) == limit,
                   f"library {m} limit is not the greatest solution")
            out[m] = {"status": r.status.value, "solution": tokens(limit),
                      "iterations": r.iterations}
        return out

    @_once
    def separator():
        H = mp.universal_halfspace(mp.GeneratedSemimodule(gens, n=len(x)),
                                   mp.vector(x))
        return tokens(plain_vec(H.a)), tokens(plain_vec(H.b))

    @_once
    def faces():
        best = mp.best_approx_set(mp.HalfSpace(mp.vector(ha), mp.vector(hb)),
                                  mp.vector(x))
        return [{"pivot": f.pivot,
                 "fixed": {str(j): mp.format_scalar(v)
                           for j, v in sorted(f.fixed.items())},
                 "box": {str(k): [mp.format_scalar(lo), mp.format_scalar(hi)]
                         for k, (lo, hi) in sorted(f.box.items())}}
                for f in best.faces]

    def parsed(kind, res):
        code, out = res
        expect(code == 0, f"cli {kind}: exit status {code}")
        try:
            return json.loads(out)
        except ValueError:
            raise ref.WrongAnswer(f"cli {kind}: output is not JSON") from None

    def check_solve(res):
        expect(parsed("solve", res) == solves(), "cli solve: differs from the library")
        return True

    def check_compare(res):
        got = parsed("compare", res)
        for m, want in solves().items():
            side = got.get(m, {})
            expect({k: side.get(k) for k in want} == want,
                   f"cli compare: {m} differs from the library")
            expect(side["trace"][0] == tokens(u)
                   and side["trace"][-1] == want["solution"],
                   f"cli compare: {m} trace does not run from u to the limit")
        expect(got["solutions_agree"] is True and got["sandwich"] is True,
               "cli compare: sandwich or agreement fails")
        return True

    def check_separate(res):
        got = parsed("separate", res)
        a = [gen.parse_token(t) for t in got["a"]]
        b = [gen.parse_token(t) for t in got["b"]]
        expect(all(ref.contains(a, b, g) for g in gens) and not ref.contains(a, b, x),
               "cli separate: the half-space does not separate")
        want = {"a": separator()[0], "b": separator()[1], "reduced": False,
                "index_map": list(range(len(x))), "distance": gen.token(d),
                "projection": tokens(proj)}
        expect(got == want, "cli separate: differs from the library")
        return True

    def check_best_approx(res):
        got = parsed("best-approx", res)
        expect(got == {"distance": gen.token(d), "faces": faces()},
               "cli best-approx: differs from the library")
        for f in got["faces"]:
            h = [None] * len(x)
            for j, v in f["fixed"].items():
                h[int(j)] = gen.parse_token(v)
            for k, (lo, _) in f["box"].items():
                h[int(k)] = gen.parse_token(lo)
            expect(ref.contains(ha, hb, h) and ref.hilbert(x, h) == d,
                   f"cli best-approx: face {f['pivot']} holds a point that is "
                   "not nearest")
        return True

    def check_project(res):
        expect(parsed("project-semimodule", res) == {"projection": tokens(proj)},
               "cli project-semimodule: not the greatest element below x")
        return True

    def op(kind, argv, check):
        argv = argv + ["--output", "json"]
        return Op(kind, lambda: _run_cli(argv), check)

    return [op("solve", ["solve"] + sys_args + ["--method", "both"], check_solve),
            op("compare", ["compare"] + sys_args, check_compare),
            op("separate", ["separate"] + sm_args, check_separate),
            op("best_approx", ["best-approx", "--halfspace", paths["H"],
                               "--point", paths["x"]], check_best_approx),
            op("project_semimodule", ["project-semimodule"] + sm_args, check_project)]


GENERATE = {
    "solve-planted": generate_solve_planted,
    "solve-dense": generate_solve_dense,
    "approx-semimodule": generate_approx_semimodule,
    "cli-roundtrip": generate_cli_roundtrip,
}
SETUP = {
    "solve-planted": setup_solve_planted,
    "solve-dense": setup_solve_dense,
    "approx-semimodule": setup_approx_semimodule,
    "cli-roundtrip": setup_cli_roundtrip,
}


def setup(name, seed, workdir):
    return SETUP[name](GENERATE[name](seed), workdir)
