"""Command-line front end.

    maxplus solve --a A.txt --b B.txt --init u.txt [--method cyclic]
    maxplus project-halfspace --halfspace H.txt --point x.txt
    maxplus distance (--halfspace H.txt | --generators V.txt) --point x.txt
    maxplus canonicalize --halfspace H.txt
    maxplus best-approx --halfspace H.txt --point x.txt
    maxplus project-semimodule --generators V.txt --point x.txt
    maxplus separate --generators V.txt --point x.txt
    maxplus compare --a A.txt --b B.txt --init u.txt

File format (tropical_linalg.parse_rows): a count line, then rows of
whitespace-separated tokens (-inf, +inf, inf, -infinity, ... in any
case; integers, decimals, p/q), one row a line; blank lines are
ignored.  A vector is "n" then its row; a half-space is "n" then the
a row then the b row; a matrix or generator family is "p n" then p
rows.  Nothing else (no comments) may appear.

Mode: --mode int parses integers only and terminates on exact fixed
points; --mode float parses floats and terminates at --tol (default
1e-9).  Without --mode, files with only integer finite tokens run in
int mode, anything else in float mode.

Exit status: 0 success (including informative outcomes like "the point
already lies in the set"); 1 when a solve ends in BottomReached or
IterationCapHit; 2 for unusable input (parse errors with line/column,
dimension mismatches, wrong option combinations).

Each command reads its files, in the order it declares them, before it
runs (distance reads --point first), and the first file that cannot be
read or parsed ends the call with exit status 2.

Indices in all output are 0-based.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import halfspace as hs
from . import semimodule as sm
from . import solvers
from .errors import InfiniteDistanceError, MaxplusError, PointInSetError
from .extreal import NEG_INF, POS_INF, format_scalar
from .halfspace import parse_halfspace
from .semimodule import parse_generators
from .tropical_linalg import format_vector, parse_matrix, parse_vector

DEFAULT_TOL = 1e-9

# the reader of each input option's file, by name: _load looks it up at
# call time, so a wrapped or replaced reader is seen
READERS = {"a": "parse_matrix", "b": "parse_matrix", "init": "parse_vector",
           "halfspace": "parse_halfspace", "generators": "parse_generators",
           "point": "parse_vector"}


def _load(args, option):
    """Read the file of one input option and parse it under args.mode."""
    path = getattr(args, option)
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise MaxplusError(f"cannot read {path}: {e.strerror}") from None
    return globals()[READERS[option]](text, args.mode)


def _all_integral(A, B, u):
    """Whether every finite entry of the system and the start is an int."""
    for rows in (A.rows, B.rows, (u,)):
        for r in rows:
            for e in r.entries:
                if not isinstance(e, int) and NEG_INF < e < POS_INF:
                    return False
    return True


def _solve(args, A, B, u, methods, keep_trace):
    """{method: report} for each method run on A x >= B x from u, the
    step solve and compare share.  --tol is checked first, by the
    solvers' own check, so it means the same in both modes; then
    args.mode/args.tol are filled in: int mode means exact termination
    (tol None), float mode uses --tol."""
    solvers._check_tol(args.tol)
    if args.mode is None:
        args.mode = "int" if _all_integral(A, B, u) else "float"
    args.tol = None if args.mode == "int" else (
        args.tol if args.tol is not None else DEFAULT_TOL)
    S = solvers.InequalitySystem(A, B)
    run = {"cyclic": solvers.cyclic_solve, "power": solvers.power_solve}
    return {m: run[m](S, u, max_iters=args.max_iters, tol=args.tol,
                      keep_trace=keep_trace) for m in methods}


def _tokens(x):
    return [format_scalar(e) for e in x]


def _emit(args, payload, text):
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        text()


def _report_json(report):
    out = {
        "status": report.status.value,
        "solution": _tokens(report.solution),
        "iterations": report.iterations,
    }
    if report.trace is not None:
        out["trace"] = [_tokens(p) for p in report.trace.points]
    if report.pinned:
        out["pinned"] = list(report.pinned)
    return out


def _print_report(label, report):
    print(f"method: {label}")
    print(f"status: {report.status.value}")
    print(f"iterations: {report.iterations}")
    print(f"solution: {' '.join(_tokens(report.solution))}")
    print(f"iteration bound n*d(u,limit): {format_scalar(report.distance_bound_used)}")
    if report.pinned:
        print(f"pinned: {list(report.pinned)}")
    if report.trace is not None:
        print("trace:")
        for p in report.trace.points:
            print("  " + " ".join(_tokens(p)))


def _solver_exit(*reports):
    return 0 if all(r.status is solvers.Status.SOLVED for r in reports) else 1


def cmd_solve(args, A, B, u):
    methods = ["cyclic", "power"] if args.method == "both" else [args.method]
    reports = _solve(args, A, B, u, methods, args.trace)
    payload = {m: _report_json(r) for m, r in reports.items()}

    def text():
        for m, r in reports.items():
            _print_report(m, r)

    _emit(args, payload if len(payload) > 1 else payload[args.method], text)
    return _solver_exit(*reports.values())


def cmd_compare(args, A, B, u):
    reports = _solve(args, A, B, u, ("cyclic", "power"), True)
    cyc, pow_ = reports.values()
    agree = cyc.solution == pow_.solution
    sandwich = solvers.sandwich_check(cyc, pow_) if args.tol is None else None
    payload = {m: {**_report_json(r), "finite_additions": r.finite_additions}
               for m, r in reports.items()}
    payload.update(solutions_agree=agree, sandwich=sandwich)

    def text():
        for m, r in reports.items():
            _print_report(m, r)
            print(f"finite additions: {r.finite_additions}")
        print(f"solutions agree: {agree}")
        if sandwich is not None:
            print(f"sandwich holds: {sandwich}")

    _emit(args, payload, text)
    return _solver_exit(cyc, pow_) if agree else 1


def _emit_projection(args, P):
    _emit(args, {"projection": _tokens(P)}, lambda: sys.stdout.write(format_vector(P)))
    return 0


def cmd_project_halfspace(args, H, x):
    return _emit_projection(args, hs.project(H, x))


def cmd_project_semimodule(args, V, x):
    return _emit_projection(args, sm.project(V, x))


def cmd_distance(args, x, target):
    if isinstance(target, hs.HalfSpace):
        d = hs.distance(target, x)
    else:
        d = sm.distance_to(target, x)
    _emit(args, {"distance": format_scalar(d)},
          lambda: print(format_scalar(d)))
    return 0


def cmd_canonicalize(args, H):
    C = hs.canonicalize(H)
    apex, sectors = hs.apex_and_sectors(C)
    payload = {
        "a_prime": _tokens(C.a_prime),
        "b_prime": _tokens(C.b_prime),
        "I": sorted(C.I),
        "J": sorted(C.J),
        "apex": _tokens(apex),
        "sectors": [{"pivot": s.pivot, "a": _tokens(s.halfspace.a),
                     "b": _tokens(s.halfspace.b)} for s in sectors],
    }

    def text():
        print(f"a': {' '.join(payload['a_prime'])}")
        print(f"b': {' '.join(payload['b_prime'])}")
        print(f"I: {payload['I']}")
        print(f"J: {payload['J']}")
        print(f"apex: {' '.join(payload['apex'])}")
        for s in payload["sectors"]:
            print(f"sector {s['pivot']}: a = {' '.join(s['a'])}; "
                  f"b = {' '.join(s['b'])}")

    _emit(args, payload, text)
    return 0


def _face_json(face, memo):
    """memo maps k to the (bounds, key, tokens) last formatted in this
    call, reused only for the very tuple best_approx_set shares."""
    box = {}
    for k, b in sorted(face.box.items()):
        m = memo.get(k)
        if m is None or m[0] is not b:
            m = memo[k] = (b, str(k), [format_scalar(b[0]), format_scalar(b[1])])
        box[m[1]] = m[2]
    return {"pivot": face.pivot,
            "fixed": {str(j): format_scalar(v) for j, v in sorted(face.fixed.items())},
            "box": box}


def cmd_best_approx(args, H, x):
    try:
        result = hs.best_approx_set(H, x)
    except PointInSetError:
        d = hs.distance(H, x)
        _emit(args, {"in_set": True, "distance": format_scalar(d)},
              lambda: print("the point already lies in the half-space; "
                            f"distance {format_scalar(d)}"))
        return 0
    except InfiniteDistanceError:
        _emit(args, {"distance": "+inf", "all_of_halfspace": True},
              lambda: print("distance is +inf; every point of the "
                            "half-space is a nearest point"))
        return 0
    memo = {}
    payload = {
        "distance": format_scalar(result.base_distance),
        "faces": [_face_json(f, memo) for f in result.faces],
    }

    def text():
        print(f"distance: {payload['distance']}")
        for f in payload["faces"]:
            fixed = ", ".join(f"h{j} = {v}" for j, v in f["fixed"].items())
            box = ", ".join(f"{lo} <= h{k} <= {hi}"
                            for k, (lo, hi) in f["box"].items())
            line = f"face pivot {f['pivot']}: {fixed}"
            if box:
                line += "; " + box
            print(line + "  (translate by any finite constant)")

    _emit(args, payload, text)
    return 0


def cmd_separate(args, V, x):
    P = sm.project(V, x)
    if P == x:
        _emit(args, {"in_set": True},
              lambda: print("the point belongs to the semimodule; "
                            "nothing separates it"))
        return 0
    reduced = NEG_INF in P.entries or NEG_INF in x.entries or POS_INF in x.entries
    if reduced:
        try:
            x_r, V_r, index_map = sm.reduce_problem(V, x)
        except InfiniteDistanceError:
            _emit(args, {"distance": "+inf", "separable": False},
                  lambda: print("distance is +inf: no element of the "
                                "semimodule has the support of the point"))
            return 0
        index_map = list(index_map)
    else:
        x_r, V_r = x, V
        index_map = list(range(len(x)))
    # V_r keeps the projection of x_r, so neither call projects again
    H = sm.universal_halfspace(V_r, x_r)
    d = sm.distance_to(V_r, x_r)
    payload = {
        "a": _tokens(H.a),
        "b": _tokens(H.b),
        "reduced": reduced,
        "index_map": index_map,
        "distance": format_scalar(d),
        "projection": _tokens(P),
    }

    def text():
        if reduced:
            print(f"reduced to support coordinates {index_map}")
        print(f"a: {' '.join(payload['a'])}")
        print(f"b: {' '.join(payload['b'])}")
        print(f"distance: {payload['distance']}")
        print(f"projection: {' '.join(payload['projection'])}")

    _emit(args, payload, text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxplus",
        description="Best approximation and feasibility in max-plus "
                    "semimodules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, files, *options, solver=False):
        """Declare a subcommand: its file options in the order main reads
        them (a tuple is a required choice of one, added first), then
        options, --mode and --output, and for a solver --tol and
        --max-iters."""
        p = sub.add_parser(name, help=help)
        for f in sorted(files, key=lambda f: not isinstance(f, tuple)):
            if isinstance(f, tuple):
                g = p.add_mutually_exclusive_group(required=True)
                for option in f:
                    g.add_argument(f"--{option}", metavar="FILE")
            else:
                p.add_argument(f"--{f}", required=True, metavar="FILE")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--mode", choices=["int", "float"], default=None,
                       help="token domain and termination style "
                            "(default: inferred from the inputs)")
        p.add_argument("--output", choices=["text", "json"], default="text")
        if solver:
            p.add_argument("--tol", type=float, default=None,
                           help=f"float-mode termination tolerance, finite "
                                f"and >= 0 (default {DEFAULT_TOL})")
            cap = solvers.DEFAULT_MAX_ITERS
            p.add_argument("--max-iters", type=int, default=cap,
                           help=f"sweep/step cap, >= 0 (default {cap})")
        p.set_defaults(inputs=[o for f in files
                               for o in (f if isinstance(f, tuple) else (f,))])

    system = ("a", "b", "init")
    command("solve", "greatest solution of Ax >= Bx below u", system,
            ("--method", {"choices": ["cyclic", "power", "both"],
                          "default": "cyclic"}),
            ("--trace", {"action": "store_true"}), solver=True)
    command("compare", "run both methods, check the sandwich property, "
                       "count finite additions", system, solver=True)
    command("project-halfspace", "greatest element of a half-space below "
                                 "a point", ("halfspace", "point"))
    command("project-semimodule", "greatest element of a generated "
                                  "semimodule below a point",
            ("generators", "point"))
    command("distance", "projective distance from a point to a half-space "
                        "or semimodule", ("point", ("halfspace", "generators")))
    command("canonicalize", "disjoint-support form, apex, and sectors",
            ("halfspace",))
    command("best-approx", "all nearest points of a half-space",
            ("halfspace", "point"))
    command("separate", "universal half-space containing the semimodule "
                        "and excluding the point", ("generators", "point"))
    return parser


_parser = None


def main(argv=None):
    # one parser per process, built on the first call (not at import):
    # parse_args makes a new Namespace each time
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at call time, so a wrapped or replaced cmd_* is seen
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # every declared file that was given (distance gets one of
        # --halfspace and --generators), read before the command runs
        inputs = [_load(args, o) for o in args.inputs
                  if getattr(args, o) is not None]
        return command(args, *inputs)
    except (MaxplusError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
