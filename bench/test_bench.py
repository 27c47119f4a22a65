"""Tests of the benchmark itself: its inputs, its checks and its output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import maxplus as mp  # noqa: E402

import ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ref import NEG  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def raised(v, k=None):
    """v with one finite coordinate (the first, or k) raised by 1."""
    x = workloads.plain_vec(v)
    if k is None:
        k = next(i for i, e in enumerate(x) if e != NEG)
    x[k] += 1
    return mp.vector(x)


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    base = tmp_path_factory.mktemp("setups")
    return {name: workloads.setup(name, 1, base / name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = json.dumps(workloads.GENERATE[name](1)).encode()
    again = json.dumps(workloads.GENERATE[name](1)).encode()
    other = json.dumps(workloads.GENERATE[name](2)).encode()
    assert first == again
    assert first != other


def test_cli_files_are_byte_identical_for_a_seed(tmp_path):
    for d in ("a", "b"):
        workloads.setup("cli-roundtrip", 3, tmp_path / d)
    files = sorted(p.name for p in (tmp_path / "a" / "cli").iterdir())
    assert files
    for f in files:
        assert ((tmp_path / "a" / "cli" / f).read_bytes()
                == (tmp_path / "b" / "cli" / f).read_bytes())


@pytest.mark.parametrize("seed", [1, 2])
def test_every_block_has_the_fixed_makeup(seed):
    P = workloads.PARAMS["solve-planted"]
    edges = P["sweep_edges"]
    data = workloads.GENERATE["solve-planted"](seed)
    for k in range(P["per_stratum"]):
        block = data["instances"][k * (len(edges) + 1):(k + 1) * (len(edges) + 1)]
        strata = sorted(bisect.bisect_left(
            edges, ref.greatest_solution(i["A"], i["B"], i["u"])[2]) for i in block)
        assert strata == list(range(len(edges) + 1))
    P = workloads.PARAMS["solve-dense"]
    data = workloads.GENERATE["solve-dense"](seed)
    start = 0
    for k in range(P["blocks"]):
        makeup = P["block_makeup"][k % len(P["block_makeup"])]
        block = data["instances"][start:start + sum(makeup.values())]
        start += len(block)
        classes = Counter(workloads._dense_class(*ref.greatest_solution(
            i["A"], i["B"], i["u"])) for i in block)
        assert classes == Counter(makeup)
    assert start == len(data["instances"])


def test_checker_rejects_a_raised_solver_limit(setups):
    cyclic = setups["solve-planted"].ops[0]
    rep = cyclic.call()
    assert cyclic.check(rep) is True
    with pytest.raises(ref.WrongAnswer):
        cyclic.check(dataclasses.replace(rep, solution=raised(rep.solution)))


def test_a_cap_hit_on_a_planted_system_is_a_wrong_answer(setups):
    cyclic = setups["solve-planted"].ops[0]
    rep = cyclic.call()
    with pytest.raises(ref.WrongAnswer):
        cyclic.check(dataclasses.replace(rep, status=mp.Status.ITERATION_CAP_HIT))


def test_checker_rejects_a_raised_dense_limit(setups):
    cyclic, power, feasibility = setups["solve-dense"].warmup
    for op, field in ((cyclic, "solution"), (power, "solution"),
                      (feasibility, "witness")):
        out = op.call()
        assert op.check(out) is True
        bad = dataclasses.replace(out, **{field: raised(getattr(out, field))})
        with pytest.raises(ref.WrongAnswer):
            op.check(bad)


def test_checker_rejects_a_raised_projection(setups):
    op = setups["approx-semimodule"].ops[0]
    out = op.call()
    assert op.check(out) is True
    P = out[0]
    for k, e in enumerate(workloads.plain_vec(P)):
        if e != NEG:
            with pytest.raises(ref.WrongAnswer):
                op.check((raised(P, k),) + out[1:])
            break
    with pytest.raises(ref.WrongAnswer):
        op.check(out[:4] + (raised(out[4]),) + out[5:])


def test_checker_rejects_a_wrong_cli_answer(setups):
    ops = {op.kind: op for op in setups["cli-roundtrip"].ops[:5]}
    code, text = ops["project_semimodule"].call()
    assert ops["project_semimodule"].check((code, text)) is True
    got = json.loads(text)
    got["projection"][0] = str(int(got["projection"][0]) + 1)
    with pytest.raises(ref.WrongAnswer):
        ops["project_semimodule"].check((code, json.dumps(got)))
    with pytest.raises(ref.WrongAnswer):
        ops["project_semimodule"].check((1, text))
    code, text = ops["solve"].call()
    got = json.loads(text)
    got["cyclic"]["iterations"] += 1
    with pytest.raises(ref.WrongAnswer):
        ops["solve"].check((code, json.dumps(got)))


def test_cap_hits_count_as_failures_and_do_not_abort():
    data = workloads.GENERATE["solve-dense"](1)
    inst = next(i for i in data["instances"]
                if ref.greatest_solution(i["A"], i["B"], i["u"])[1])
    ops = workloads._dense_ops(**inst, cap=50)
    p = run.run_pass(workloads.Setup(ops, [], []), passes=3)
    assert (p.passes, p.attempted, p.failed, p.uncertified) == (3, 9, 0, 6)
    assert run.failed_frac(p) == 6 / 9
    assert (p.solver_calls, p.cap_hits) == (6, 6)
    assert p.iterations["cyclic_solve"] == [50, 50, 50]
    # giving up before the cap is a wrong answer, not an uncertified one
    cyclic = ops[0]
    with pytest.raises(ref.WrongAnswer):
        cyclic.check(dataclasses.replace(cyclic.call(), iterations=49))


def test_operation_times_are_the_best_over_the_passes():
    ops = [workloads.Op(kind, lambda: None, lambda out: True)
           for kind in ("a", "b")]
    p = run.run_pass(workloads.Setup(ops, [], []), passes=3)
    assert (p.passes, p.attempted) == (3, 6)
    assert [len(ts) for ts in p.op_latency] == [3, 3]
    # slow passes do not move an operation's time
    p.op_latency = [[2.0, 9.0, 3.0], [5.0, 4.0, 6.0]]
    assert run.op_times(p) == [2.0, 4.0]
    assert run.op_times(p, "b") == [4.0]
    assert run.end_to_end(p, 1.0)["ops_per_s"] == 2 / 6


def test_peak_rss_is_the_pass_peak_with_results_alive():
    held = 20 * 2**20
    op = workloads.Op("hold", lambda: b"x" * held, lambda out: True)
    with open("/proc/self/statm", "rb", buffering=0) as statm:
        before = run.rss_mb(statm)
    p = run.run_pass(workloads.Setup([op], [], []), passes=1)
    assert p.peak_rss_mb >= before + 0.75 * held / 2**20


def test_raising_operation_counts_as_failed(tmp_path):
    def boom():
        raise mp.MaxplusError("no")
    op = workloads.Op("boom", boom, lambda out: True)
    p = run.run_pass(workloads.Setup([op], [], []), passes=2)
    assert (p.attempted, p.failed, run.op_times(p)) == (2, 2, [])
    # a CLI call that exits with status 2 (unusable input) fails the same way
    with pytest.raises(workloads.CliError, match="cannot read"):
        workloads._run_cli(["project-semimodule", "--generators",
                            str(tmp_path / "missing.txt"), "--point",
                            str(tmp_path / "missing.txt")])


def test_tracer_self_times_add_up_and_originals_come_back():
    original = mp.cyclic_solve
    S = mp.InequalitySystem(mp.matrix([[0, NEG], [NEG, 0]]),
                            mp.matrix([[NEG, 1], [0, NEG]]))
    u = mp.vector([5, 5])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert mp.cyclic_solve is not original
        mp.vector([1])  # outside an operation: recorded, not summarized
        tr.op = 0
        mp.cyclic_solve(S, u)
    finally:
        tr.uninstall()
    assert mp.cyclic_solve is original
    assert mp.solvers.project_canonical is mp.halfspace.project_canonical
    by_name, _ = tr.summarize()
    top = [r for r in tr.records() if r[4] == -1]
    assert [tr.names[r[1]] for r in top] == ["tropical_linalg.vector",
                                             "solvers.cyclic_solve"]
    assert "tropical_linalg.vector" not in by_name
    top = top[1:]
    assert sum(s for _, _, s in by_name.values()) == top[0][3] - top[0][2]
    assert by_name["halfspace.project_canonical"][0] > 0


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(name, trace):
    # a short run (one pass, one set-up) in a process of its own, as the
    # benchmark runs every workload
    code = ("import sys, run; run.MIN_PASSES = 1; run.SETUP_REPS = 1; "
            "run.SETUP_SECONDS = 0; run.IMPORT_REPS = 1; "
            f"sys.exit(run.run_workload({name!r}, 1, 0.01, {trace}, run.load_spec()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines[:-1]), metric
    assert any(line.strip().startswith("failed_frac") for line in lines)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if name == "approx-semimodule":
            assert m["solvers.cyclic_solve.self_ms"] == 0
            assert m["semimodule.project.calls"] > 0
        if name == "solve-planted":
            assert m["solvers.cap_hit_frac"] == 0
            assert m["semimodule.project.calls"] == 0
            assert m["tropical_linalg.vec_scale.self_ms"] == 0
        if name == "solve-dense":
            assert m["solvers.cap_hit_frac"] > 0
            assert m["failed_frac"] > 0
            assert m["solvers.feasibility.sweeps"] > 0
        else:
            assert m["failed_frac"] == 0
        if name == "cli-roundtrip":
            assert m["cli.output_bytes"] > 0
            assert m["solvers.sandwich_check.self_ms"] > 0
        else:
            assert m["cli.solve.ms"] == 0


def _bench_copy(tmp_path, with_spec):
    if with_spec:
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("where, seconds", [
    ("no library", SPEC["run_seconds"]),
    ("no BENCHMARK.json", SPEC["run_seconds"]),
    ("repository", SPEC["run_seconds"] + 1),
])
def test_refuses_to_run(tmp_path, where, seconds):
    cwd = ROOT if where == "repository" else _bench_copy(
        tmp_path, with_spec=where == "no library")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "solve-planted", "--seed", "1", "--seconds", str(seconds),
                           "--trace", "0"], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
