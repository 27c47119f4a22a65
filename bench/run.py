"""Benchmark for the maxplus library: seeded workloads, checked outputs.

    python3 bench/run.py                      # every workload, one process each
    python3 bench/run.py --workload solve-planted --seed 3
    python3 bench/run.py --workload cli-roundtrip --trace 1

Run from the root of a checkout; the library is imported from ./src.
BENCHMARK.json defines the workloads, the metrics with their units and
bounds, and the run length (run_seconds); a --seconds argument is
accepted only when it equals run_seconds.
Each workload is a closed loop with one client: one thread calls the
library, and the next operation starts when the previous one returns.
A run cycles through the workload's fixed operation list, so every
operation is timed many times spread over the run, and the timing
metrics are taken from each operation's best (least) time, as timeit
does: the host's interference only ever adds time, and one quiet
moment per operation in a run is enough for its best time.
Every result is checked against a plain-Python reference (bench/ref.py)
outside the timed call; a wrong certified answer aborts the run with
exit status 1.  An operation that raises counts as failed (the JSON
field "failed"); one that ends in IterationCapHit counts as uncertified.
Both make up failed_frac, printed on every run and reported as a
per-layer metric.

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of a traced run (see bench/tracer.py), whose spans
are written to .bench_work/spans-<workload>.csv.gz.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  bench/design.json explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# passes over the operation list that a timed run makes at least
MIN_PASSES = 3
# before and again after the timed loop, so that the best times come from
# two moments half a minute apart: the import is timed IMPORT_REPS times,
# and set-up at least SETUP_REPS times and again while it has used less
# than SETUP_SECONDS, up to SETUP_MAX_REPS times
IMPORT_REPS = 10
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 15
CLI_KINDS = ("solve", "compare", "separate", "best_approx", "project_semimodule")
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


class Pass:
    """What the timed passes over the operation list saw."""

    def __init__(self, ops):
        self.passes = 0.0
        self.attempted = 0
        self.failed = 0
        self.uncertified = 0
        self.errors = []
        self.op_kinds = [op.kind for op in ops]
        # per operation of the list, its time in every pass that completed it
        self.op_latency = [[] for _ in ops]
        self.iterations = {"cyclic_solve": [], "power_solve": []}
        self.solver_calls = 0
        self.cap_hits = 0
        self.output_bytes = []
        self.peak_rss_mb = 0.0

    def record(self, k, op, seconds, certified, out):
        self.op_latency[k].append(seconds)
        if not certified:
            self.uncertified += 1
        for method, iterations, capped in op.solves(out):
            self.iterations[method].append(iterations)
            self.solver_calls += 1
            self.cap_hits += capped
        if op.kind in CLI_KINDS:
            self.output_bytes.append(len(out[1].encode()))


def rss_mb(statm):
    """Resident memory of this process now, from an open /proc/self/statm."""
    statm.seek(0)
    return int(statm.read().split()[1]) * PAGE_MB


def run_pass(setup, seconds=None, passes=None, tracer=None):
    """Cycle through setup.ops: `passes` whole passes, or until `seconds`
    have passed and at least MIN_PASSES whole passes ran (the last pass
    may stop part-way).  Only op.call() is timed; op.check() runs after
    it.  Resident memory is sampled after every call, while its result is
    still alive, so p.peak_rss_mb is the run's own peak whatever set-up
    used before it."""
    ops, p = setup.ops, Pass(setup.ops)
    n = len(ops)
    clock = time.perf_counter
    with open("/proc/self/statm", "rb", buffering=0) as statm:
        p.peak_rss_mb = rss_mb(statm)
        deadline = clock() + (seconds or 0)
        i = 0
        while (i < passes * n if passes is not None
               else i < MIN_PASSES * n or clock() < deadline):
            k = i % n
            op = ops[k]
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                out = op.call()
            except Exception as e:  # a failed operation is counted, not fatal
                out = e
            dt = clock() - t0
            if tracer is not None:
                tracer.op = -1
            i += 1
            p.peak_rss_mb = max(p.peak_rss_mb, rss_mb(statm))
            if isinstance(out, Exception):
                p.failed += 1
                if len(p.errors) < 5:
                    p.errors.append(f"{op.kind}: {out!r}")
                continue
            p.record(k, op, dt, op.check(out), out)
    p.attempted = i
    p.passes = i / n
    return p


def setup_workload(workloads, name, seed, workdir):
    """Generate the inputs, build the library objects (and files, under
    workdir) and run the warm-up operations; returns the Setup and the
    seconds it took."""
    t0 = time.perf_counter()
    setup = workloads.setup(name, seed, workdir)
    for op in setup.warmup:
        op.check(op.call())
    return setup, time.perf_counter() - t0


def time_setups(workloads, name, seed, workdir, times):
    """Set the workload up SETUP_REPS times, then again while the set-ups
    have taken less than SETUP_SECONDS (at most SETUP_MAX_REPS times),
    each in a fresh directory under workdir; appends each set-up's seconds
    to times and returns the last Setup."""
    deadline = time.perf_counter() + SETUP_SECONDS
    for rep in range(SETUP_MAX_REPS):
        if rep >= SETUP_REPS and time.perf_counter() >= deadline:
            break
        setup = None
        setup, dt = setup_workload(workloads, name, seed,
                                   workdir / f"setup{len(times)}")
        times.append(dt)
    return setup


def freeze_inputs():
    """Move everything alive after set-up out of the collector's reach, so
    that full collections during the timed loop do not walk the benchmark's
    own inputs (they grow with the instance count, which is a property of
    the benchmark, not of the library)."""
    gc.collect()
    gc.freeze()


def process_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_times(p, kind=None):
    """Each operation's best time over the passes (of one kind, if given);
    an operation that never completed is left out."""
    return [min(ts) for ts, k in zip(p.op_latency, p.op_kinds)
            if ts and kind in (None, k)]


def end_to_end(p, setup_s):
    t = op_times(p)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(t) / sum(t),
        "latency_p50_ms": statistics.median(t) * 1e3,
        "latency_p90_ms": statistics.quantiles(t, n=10)[8] * 1e3,
        "peak_rss_mb": p.peak_rss_mb,
    }


# --- traced run ------------------------------------------------------------

def _per_call_ns(loop, reps=5):
    """Median over reps of loop()'s ns per call (loop returns its own
    elapsed ns and call count)."""
    out = []
    for _ in range(reps):
        ns, calls = loop()
        out.append(ns / calls)
    return statistics.median(out)


def scalar_timings(mp, gen, stream):
    """ns per call of the scalar functions on a fixed operand stream drawn
    from the workload's own instances, loop overhead included."""
    ents = [mp.scalar(v) for v in stream]
    pairs = list(zip(ents, ents[1:] + ents[:1]))
    toks = [gen.token(v) for v in stream]
    clock = time.perf_counter_ns

    def pairs_loop(f):
        def loop():
            t0 = clock()
            for a, b in pairs:
                f(a, b)
            return clock() - t0, len(pairs)
        return loop

    def singles_loop(f, xs):
        def loop():
            t0 = clock()
            for a in xs:
                f(a)
            return clock() - t0, len(xs)
        return loop

    return {
        "extreal.lower_add.ns": _per_call_ns(pairs_loop(mp.lower_add)),
        "extreal.upper_add.ns": _per_call_ns(pairs_loop(mp.upper_add)),
        "extreal.scalar_residual.ns": _per_call_ns(pairs_loop(mp.scalar_residual)),
        "extreal.scalar.ns": _per_call_ns(singles_loop(mp.scalar, stream)),
        "extreal.parse_scalar.ns": _per_call_ns(singles_loop(mp.parse_scalar, toks)),
    }


def kernel_timings(mp, gen, workloads, seed):
    """One mat_apply and one residuated_apply on a dense 100 x 100 system
    (the two halves of a power step), and semimodule projection per
    generator entry at n = q = 100; medians of several calls."""
    rng = random.Random(f"kernels:{seed}")
    A, B, u = gen.dense_system(rng, 100, 100, -8, 8)
    Am, Bm, uv = mp.matrix(A), mp.matrix(B), mp.vector(u)
    y = mp.mat_apply(Am, uv)
    P = workloads.PARAMS["approx-semimodule"]
    n = q = 100
    gens = gen.generators(rng, n, q, P["lo"], P["hi"], P["p_neg"])
    V = mp.GeneratedSemimodule(gens, n=n)
    x = mp.vector(gen.point(rng, n, P["lo"], P["hi"], 0))
    clock = time.perf_counter_ns

    def once(f, *args):
        def loop():
            t0 = clock()
            f(*args)
            return clock() - t0, 1
        return loop

    return {
        "tropical_linalg.mat_apply.n100_us": _per_call_ns(once(mp.mat_apply, Am, uv), 7) / 1e3,
        "tropical_linalg.residuated_apply.n100_us":
            _per_call_ns(once(mp.residuated_apply, Bm, y), 7) / 1e3,
        "semimodule.project.per_entry_ns":
            _per_call_ns(once(mp.project_semimodule, V, x), 5) / (n * q),
    }


def import_ms(reps=5):
    """Fresh interpreter importing maxplus.cli minus a bare interpreter,
    medians of sequential runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def once(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    bare, full = [], []
    for _ in range(reps):
        bare.append(once("pass"))
        full.append(once("import maxplus.cli"))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def per_layer(names, mp, gen, workloads, tracer, setup, plain, traced, seed):
    by_name, feas_sweeps = tracer.summarize()
    n = traced.attempted

    def calls(name):
        return by_name.get(name, (0, 0, 0))[0] / n

    def self_ms(*spans):
        return sum(by_name.get(k, (0, 0, 0))[2] for k in spans) / n / 1e6

    out = {}
    for name in names:
        head, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(head)
        elif stat == "self_ms":
            out[name] = self_ms(head)
    out["tropical_linalg.parse.self_ms"] = self_ms(
        "tropical_linalg.parse_vector", "tropical_linalg.parse_matrix")
    pc_calls = by_name.get("halfspace.project_canonical", (0,))[0]
    out["halfspace.project_canonical.moved_frac"] = (
        tracer.moved / pc_calls if pc_calls else 0.0)
    its = traced.iterations
    out["solvers.sweeps_per_solve"] = (statistics.fmean(its["cyclic_solve"])
                                       if its["cyclic_solve"] else 0.0)
    out["solvers.steps_per_solve"] = (statistics.fmean(its["power_solve"])
                                      if its["power_solve"] else 0.0)
    out["solvers.feasibility.sweeps"] = (statistics.fmean(feas_sweeps)
                                         if feas_sweeps else 0.0)
    out["solvers.cap_hit_frac"] = (traced.cap_hits / traced.solver_calls
                                   if traced.solver_calls else 0.0)
    out["failed_frac"] = failed_frac(traced)
    for kind in CLI_KINDS:
        lat = op_times(plain, kind)
        out[f"cli.{kind}.ms"] = statistics.median(lat) * 1e3 if lat else 0.0
    out["cli.output_bytes"] = (statistics.fmean(plain.output_bytes)
                               if plain.output_bytes else 0.0)
    out["trace_overhead_frac"] = sum(op_times(traced)) / sum(op_times(plain)) - 1
    out.update(scalar_timings(mp, gen, setup.stream))
    out.update(kernel_timings(mp, gen, workloads, seed))
    out["cli.import_ms"] = import_ms()
    return out


# --- entry points ----------------------------------------------------------

def load_spec():
    """BENCHMARK.json, the one definition of the workload names, the
    metrics with their units and bounds, and run_seconds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def failed_frac(p):
    """Operations that raised or ended uncertified (IterationCapHit), as a
    share of those attempted."""
    return (p.failed + p.uncertified) / p.attempted


def report(metrics, specs):
    for m in specs:
        line = f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}"
        if "bound" in m:
            line += f"   (bound {m['bound']:.0%} worse than the parent's median)"
        print(line)


def result_line(attempted, failed, metrics, specs):
    return json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                       "metrics": {m["name"]: {"value": metrics[m["name"]],
                                               "unit": m["unit"]}
                                   for m in specs}})


def import_library(reps):
    """Seconds of each of `reps` fresh imports of maxplus and maxplus.cli;
    every import but the last is dropped from sys.modules again.  Before
    the workload runs, call it before anything else imports the library;
    objects made from an earlier import keep working."""
    times = []
    for rep in range(reps):
        for m in [m for m in sys.modules if m == "maxplus" or m.startswith("maxplus.")]:
            del sys.modules[m]
        t0 = time.perf_counter()
        importlib.import_module("maxplus.cli")
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name, seed, seconds, trace, spec):
    sys.path.insert(0, str(SRC))
    import_times = import_library(IMPORT_REPS)
    import maxplus as mp
    import gen
    import ref
    import tracer as tracing
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    # fresh files for every set-up: overwriting files can cost far more
    # than writing them on some file systems
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}  "
          "closed loop, 1 client")
    try:
        if not trace:
            times = []
            setup = time_setups(workloads, name, seed, tmp, times)
            freeze_inputs()
            p = run_pass(setup, seconds)
            time_setups(workloads, name, seed, tmp, times)
            import_times += import_library(IMPORT_REPS)
            print(f"  set-up timed {len(times)} times, import "
                  f"{len(import_times)} times, before and after the loop")
            metrics = end_to_end(p, min(import_times) + min(times))
            specs = spec["end_to_end"]
        else:
            setup, _ = setup_workload(workloads, name, seed, tmp)
            freeze_inputs()
            plain = run_pass(setup, seconds / 2)
            tr = tracing.Tracer()
            tr.install()
            try:
                p = run_pass(setup, passes=1, tracer=tr)
            finally:
                tr.uninstall()
            tr.write(WORKDIR / f"spans-{name}.csv.gz")
            specs = spec["per_layer"]
            metrics = per_layer([m["name"] for m in specs], mp, gen, workloads,
                                tr, setup, plain, p, seed)
    except ref.WrongAnswer as e:
        print(f"WRONG ANSWER: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    n_ok = len(op_times(p))
    print(f"  passes: {p.passes:.2f} over {len(setup.ops)} operations; "
          f"{p.attempted} calls attempted, {p.failed} raised, "
          f"{p.uncertified} uncertified (IterationCapHit)")
    print(f"  operation times (best over the passes): {n_ok} "
          f"({n_ok - int(n_ok * 0.9)} beyond p90)")
    print(f"  failed_frac (raised or uncertified / attempted): "
          f"{failed_frac(p):.6g} ratio")
    print(f"  whole-process peak memory (ru_maxrss, set-up included): "
          f"{process_peak_rss_mb():.6g} MB")
    for err in p.errors:
        print(f"  error: {err}")
    report(metrics, specs)
    print(result_line(p.attempted, p.failed, metrics, specs))
    return 0


def run_all(seed, trace, spec):
    """Every workload in its own process, one after another; the last line
    holds every workload's metrics as <workload>.<metric>."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status, summary = 0, {}
    for w in spec["workloads"]:
        name = w["name"]
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result.get("correct"):
            status = 1
        summary[name] = result
    print("\nsummary (value unit, bound as the share a metric may worsen):")
    for name, result in summary.items():
        if result is None:
            print(f"  {name}: no result")
            continue
        cells = [f"{m} {v['value']:.4g} {v['unit']}" + (
            f" [{bounds[m]:.0%}]" if m in bounds else "")
            for m, v in result["metrics"].items()]
        print(f"  {name}: " + "; ".join(cells))
    done = [r for r in summary.values() if r is not None]
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{name}.{m}": v for name, r in summary.items() if r is not None
                    for m, v in r["metrics"].items()}}))
    return status


def main(argv=None):
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        print(f"error: cannot read {ROOT / 'BENCHMARK.json'}: {e}", file=sys.stderr)
        return 2
    names = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="accepted for runners that pass it; must equal "
                         "run_seconds in BENCHMARK.json, which sets the run length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds "
              f"{seconds} in BENCHMARK.json", file=sys.stderr)
        return 2
    if not (SRC / "maxplus" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'maxplus'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.trace, spec)
    return run_workload(args.workload, args.seed, seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
