"""End-to-end checks of the command line front end: file parsing, JSON
and text output, exit codes, mode inference, and the environment cap."""

import argparse
import json
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import maxplus as mp
from maxplus import cli, semimodule, solvers
from maxplus.cli import main
from maxplus.errors import UnsupportedCaseError
from helpers import (DISJ_H, DISJ_X, EVAX_GENS, NEG, PAYLOAD_KINDS, POS,
                     chain_system, chase_system, counting_steps,
                     planted_system_sized, rand_payload, reference_all_integral,
                     reference_best_approx_output, reference_face_json,
                     ring_ineq_system, tied_best_approx_case, v)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def system_files(files, S, u):
    return (files("A.txt", mp.format_matrix(S.A)),
            files("B.txt", mp.format_matrix(S.B)),
            files("u.txt", mp.format_vector(u)))


def ring_files(files):
    return system_files(files, ring_ineq_system(), v(0, 0, 0, 0, 0, 0))


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_solve_both_json_trace(files, capsys):
    a, b, u = ring_files(files)
    rc, out, _ = run(capsys, ["solve", "--a", a, "--b", b, "--init", u,
                              "--method", "both", "--trace",
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert set(got) == {"cyclic", "power"}
    assert got["cyclic"]["status"] == "Solved"
    assert got["cyclic"]["iterations"] == 1
    assert got["power"]["iterations"] == 5
    limit = ["-1", "-2", "-3", "-4", "-5", "0"]
    assert got["cyclic"]["solution"] == limit
    assert got["power"]["solution"] == limit
    assert got["cyclic"]["trace"][0] == ["0"] * 6
    assert got["cyclic"]["trace"][1] == ["-1", "0", "0", "0", "0", "0"]
    assert got["power"]["trace"][1] == ["-1", "-1", "-1", "-1", "-1", "0"]
    assert len(got["cyclic"]["trace"]) == 6
    assert len(got["power"]["trace"]) == 6


def test_solve_text(files, capsys):
    a, b, u = ring_files(files)
    rc, out, _ = run(capsys, ["solve", "--a", a, "--b", b, "--init", u])
    assert rc == 0
    assert "status: Solved" in out
    assert "solution: -1 -2 -3 -4 -5 0" in out
    assert "iteration bound" in out


def test_solve_prints_a_bound_of_0_when_nothing_moves(files, capsys):
    # the start has no finite entry and no row moves it: d(u, limit) is
    # -inf there, and the bound n * d reads 0
    S = mp.InequalitySystem(mp.matrix([[0, NEG]]), mp.matrix([[NEG, 1]]))
    a, b, u = system_files(files, S, v(POS, NEG))
    for method in ("cyclic", "power"):
        rc, out, _ = run(capsys, ["solve", "--a", a, "--b", b, "--init", u,
                                  "--method", method])
        assert rc == 0
        assert "iteration bound n*d(u,limit): 0\n" in out


def test_compare_json(files, capsys):
    a, b, u = ring_files(files)
    rc, out, _ = run(capsys, ["compare", "--a", a, "--b", b, "--init", u,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["solutions_agree"] is True
    assert got["sandwich"] is True
    assert got["cyclic"]["finite_additions"] > 0
    assert got["power"]["finite_additions"] > got["cyclic"]["finite_additions"]
    # cyclic: 2 sweeps of 5 rows, each |I| + |J| = 2; power: 6 steps of
    # 5 + 5; both add 2 * 6 + 1 for the bound n * d(u, limit)
    assert (got["cyclic"]["finite_additions"], got["cyclic"]["iterations"]) == (33, 1)
    assert (got["power"]["finite_additions"], got["power"]["iterations"]) == (73, 5)


def test_compare_counts_when_the_iterate_reaches_minus_inf(files, capsys):
    # the last row pins x_2 to -inf, after which x_1 and then x_0 follow
    # the rows that still reach a finite entry
    a = files("A.txt", "3 4\n-inf -1 -inf 0\n-inf -inf -1 -inf\n"
                       "-inf -inf -inf -inf\n")
    b = files("B.txt", "3 4\n0 -inf -inf -inf\n-inf 0 -inf -inf\n"
                       "-inf -inf 0 -inf\n")
    u = files("u.txt", "4\n5 5 5 0\n")
    rc, out, _ = run(capsys, ["compare", "--a", a, "--b", b, "--init", u,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    for method in ("cyclic", "power"):
        side = got[method]
        assert side["solution"] == ["0", "-inf", "-inf", "0"]
        assert (side["finite_additions"], side["iterations"]) == (16, 3)
    assert got["cyclic"]["trace"][3] == ["4", "4", "-inf", "0"]
    assert got["sandwich"] is True


def test_solve_reports_pinned_coordinates(files, capsys):
    # the chase sinks forever; the divergence guard pins x_1 and x_2
    a, b, u = system_files(files, chase_system(), v(0, 0, 0))
    argv = ["solve", "--a", a, "--b", b, "--init", u]
    rc, out, _ = run(capsys, argv + ["--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["status"] == "Solved"
    assert got["solution"] == ["-inf", "-inf", "0"]
    assert got["pinned"] == [0, 1]
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and "pinned: [0, 1]" in out
    rc, out, _ = run(capsys, ["compare", "--a", a, "--b", b, "--init", u,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["cyclic"]["pinned"] == got["power"]["pinned"] == [0, 1]
    assert got["solutions_agree"] is True and got["sandwich"] is True


def test_pinned_key_only_when_something_is_pinned(files, capsys):
    a, b, u = ring_files(files)
    for cmd in ("solve", "compare"):
        rc, out, _ = run(capsys, [cmd, "--a", a, "--b", b, "--init", u,
                                  "--output", "json"])
        assert rc == 0 and "pinned" not in out
        rc, out, _ = run(capsys, [cmd, "--a", a, "--b", b, "--init", u])
        assert rc == 0 and "pinned" not in out


def counting(monkeypatch, module, name):
    """Count the calls made through module.name."""
    calls = [0]
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_compare_sweeps_at_most_twice_solve(files, capsys, monkeypatch):
    S, u, _ = planted_system_sized(random.Random(97), 20, 20)
    a, b, u = system_files(files, S, u)
    calls = counting(monkeypatch, solvers, "project_canonical")
    steps = counting_steps(monkeypatch, "_power_step")
    argv = ["--a", a, "--b", b, "--init", u, "--output", "json"]
    assert run(capsys, ["solve", "--method", "both"] + argv)[0] == 0
    solve_calls, calls[0] = calls[0], 0
    assert steps[0] == 4
    steps[0] = 0
    # the sandwich check reads the two runs compare reports, and solves
    # nothing again
    assert run(capsys, ["compare"] + argv)[0] == 0
    assert solve_calls > 0
    assert calls[0] == solve_calls
    assert steps[0] == 4
    # --max-iters bounds the sandwich check too; a capped run fails it
    a, b, u = system_files(files, chase_system(), v(500, 500, 0))
    argv = ["--a", a, "--b", b, "--init", u, "--max-iters", "2", "--output", "json"]
    calls[0] = steps[0] = 0
    assert run(capsys, ["solve", "--method", "both"] + argv)[0] == 1
    solve_calls, calls[0] = calls[0], 0
    solve_steps, steps[0] = steps[0], 0
    rc, out, _ = run(capsys, ["compare"] + argv)
    got = json.loads(out)
    assert rc == 1 and got["cyclic"]["status"] == got["power"]["status"] == "IterationCapHit"
    assert got["sandwich"] is False
    assert 0 < calls[0] == solve_calls
    assert 0 < steps[0] == solve_steps


def test_separate_projects_once(files, capsys, monkeypatch):
    # one generator loop calls _residual once per generator
    calls = counting(monkeypatch, semimodule, "_residual")
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    x = files("x.txt", "3\n2 1 0\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0 and json.loads(out)["reduced"] is False
    assert calls[0] == len(EVAX_GENS.generators)
    calls[0] = 0
    # one loop over both generators of V, one over the one kept in V'
    g = files("V2.txt", "2 3\n0 0 0\n0 -inf -1\n")
    x = files("x2.txt", "3\n3 -inf 1\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0 and json.loads(out)["reduced"] is True
    assert calls[0] == 2 + 1


def test_canonicalize_json(files, capsys):
    h = files("H.txt", "3\n-2 -1 0\n-1 -1 0\n")
    rc, out, _ = run(capsys, ["canonicalize", "--halfspace", h,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["a_prime"] == ["-inf", "-1", "0"]
    assert got["b_prime"] == ["-1", "-inf", "-inf"]
    assert got["I"] == [1, 2] and got["J"] == [0]
    assert got["apex"] == ["1", "1", "0"]
    assert [s["pivot"] for s in got["sectors"]] == [1, 2]


def test_distance_halfspace(files, capsys):
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", mp.format_vector(DISJ_X))
    rc, out, _ = run(capsys, ["distance", "--halfspace", h, "--point", x])
    assert rc == 0 and out.strip() == "1"


def test_distance_generators_fraction_mode(files, capsys):
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", "3\n0 1/2 0\n")
    rc, out, _ = run(capsys, ["distance", "--halfspace", h, "--point", x])
    assert rc == 0 and out.strip() == "1/2"
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    x2 = files("x2.txt", "3\n2 1 0\n")
    rc, out, _ = run(capsys, ["distance", "--generators", g, "--point", x2,
                              "--output", "json"])
    assert rc == 0 and json.loads(out) == {"distance": "1"}


@pytest.mark.parametrize("argv, text, payload", [
    (["distance", "--halfspace", "H.txt"], "-inf\n", {"distance": "-inf"}),
    (["distance", "--generators", "V.txt"], "-inf\n", {"distance": "-inf"}),
    (["best-approx", "--halfspace", "H.txt"],
     "the point already lies in the half-space; distance -inf\n",
     {"distance": "-inf", "in_set": True}),
])
def test_width_0_distances_are_minus_inf(files, capsys, argv, text, payload):
    # the empty vector has no finite entry, so its distance to itself is
    # -inf, as for every such vector (hilbert_metric module docstring)
    paths = {"H.txt": files("H.txt", "0\n"), "V.txt": files("V.txt", "2 0\n")}
    argv = [paths.get(a, a) for a in argv] + ["--point", files("x.txt", "0\n")]
    assert run(capsys, argv) == (0, text, "")
    rc, out, err = run(capsys, argv + ["--output", "json"])
    assert (rc, json.loads(out), err) == (0, payload, "")


def test_project_halfspace_text(files, capsys):
    h = files("H.txt", "3\n-inf 0 -inf\n0 -inf -inf\n")
    x = files("x.txt", "3\n2 1 0\n")
    rc, out, _ = run(capsys, ["project-halfspace", "--halfspace", h,
                              "--point", x])
    assert rc == 0
    assert out == "3\n1 1 0\n"


def test_project_semimodule_json(files, capsys):
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    x = files("x.txt", "3\n2 1 0\n")
    rc, out, _ = run(capsys, ["project-semimodule", "--generators", g,
                              "--point", x, "--output", "json"])
    assert rc == 0
    assert json.loads(out) == {"projection": ["1", "1", "0"]}


def test_best_approx_json(files, capsys):
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", mp.format_vector(DISJ_X))
    rc, out, _ = run(capsys, ["best-approx", "--halfspace", h, "--point", x,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["distance"] == "1"
    assert got["faces"] == [
        {"pivot": 0, "fixed": {"0": "0", "1": "0"}, "box": {"2": ["-1", "0"]}},
        {"pivot": 2, "fixed": {"1": "0", "2": "0"}, "box": {"0": ["-1", "0"]}},
    ]


def test_best_approx_member_point(files, capsys):
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", "3\n0 0 0\n")
    rc, out, _ = run(capsys, ["best-approx", "--halfspace", h, "--point", x,
                              "--output", "json"])
    assert rc == 0
    assert json.loads(out) == {"in_set": True, "distance": "0"}


def test_best_approx_infinite_distance(files, capsys):
    h = files("H.txt", "1\n-1\n0\n")
    x = files("x.txt", "1\n0\n")
    rc, out, _ = run(capsys, ["best-approx", "--halfspace", h, "--point", x,
                              "--output", "json"])
    assert rc == 0
    assert json.loads(out) == {"distance": "+inf", "all_of_halfspace": True}


def test_best_approx_output_matches_per_face_formatter(files, capsys):
    # faces that share their bound tuples print exactly as faces
    # formatted one by one: JSON and text, exit codes, and the error paths
    # (+inf in a coefficient or the point, a member point, distance +inf)
    rng = random.Random(31)
    faces, outcomes = 0, set()
    for t in range(300):
        if t % 3:
            H, x = tied_best_approx_case(rng, rng.randint(2, 7),
                                         PAYLOAD_KINDS[t % 4])
            h_text, x_text = mp.format_halfspace(H), mp.format_vector(x)
        else:
            n = rng.randint(1, 5)
            a, b, x = ([rand_payload(rng, 0.3, 0.03) for _ in range(n)]
                       for _ in range(3))
            h_text = f"{n}\n{' '.join(map(mp.format_scalar, a))}\n" \
                     f"{' '.join(map(mp.format_scalar, b))}\n"
            x_text = f"{n}\n{' '.join(map(mp.format_scalar, x))}\n"
        h, xp = files("H.txt", h_text), files("x.txt", x_text)
        for output in ("json", "text"):
            got = run(capsys, ["best-approx", "--halfspace", h, "--point", xp,
                               "--output", output])
            assert got == reference_best_approx_output(h_text, x_text, output)
            if output == "json":
                rc, out, _ = got
                payload = json.loads(out) if rc == 0 else {"error": True}
                outcomes |= payload.keys() & {"faces", "in_set",
                                              "all_of_halfspace", "error"}
                faces += len(payload.get("faces", ()))
    assert faces > 400
    assert outcomes == {"faces", "in_set", "all_of_halfspace", "error"}


def test_face_json_reuses_tokens_only_for_the_same_bounds():
    # equal bounds of another type, or other bounds at the same
    # coordinate, are formatted afresh
    shared = (0, Fraction(1, 2))
    faces = [mp.FaceBox(0, {0: 0}, {1: shared, 2: (NEG, 1.5)}),
             mp.FaceBox(1, {1: 0}, {0: (1, 2), 2: (NEG, 2.5)}),
             mp.FaceBox(2, {2: 0}, {0: (1.0, 2), 1: shared})]
    memo = {}
    assert ([cli._face_json(f, memo) for f in faces]
            == [reference_face_json(f) for f in faces])


def test_separate_json(files, capsys):
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    x = files("x.txt", "3\n2 1 0\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["a"] == ["-inf", "-1", "0"]
    assert got["b"] == ["-1", "-inf", "-inf"]
    assert got["reduced"] is False
    assert got["index_map"] == [0, 1, 2]
    assert got["distance"] == "1"
    assert got["projection"] == ["1", "1", "0"]


def test_separate_reduces_automatically(files, capsys):
    g = files("V.txt", "2 3\n0 0 0\n0 -inf -1\n")
    x = files("x.txt", "3\n3 -inf 1\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0
    got = json.loads(out)
    assert got["reduced"] is True
    assert got["index_map"] == [0, 2]
    assert got["a"] == ["-inf", "-1"]
    assert got["b"] == ["-2", "-inf"]
    assert got["distance"] == "1"
    assert got["projection"] == ["2", "-inf", "1"]


def test_separate_member_point(files, capsys):
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    x = files("x.txt", "3\n1 1 0\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0
    assert json.loads(out) == {"in_set": True}


def test_separate_infinite_distance(files, capsys):
    g = files("V.txt", "1 3\n0 0 0\n")
    x = files("x.txt", "3\n2 1 -inf\n")
    rc, out, _ = run(capsys, ["separate", "--generators", g, "--point", x,
                              "--output", "json"])
    assert rc == 0
    assert json.loads(out) == {"distance": "+inf", "separable": False}


def test_readme_file_formats_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.S | re.M)
    blocks = [body for lang, body in fenced if not lang]  # the file examples
    assert len(blocks) == 3
    vector_text, halfspace_text, matrix_text = blocks
    assert mp.parse_vector(vector_text) == v(2, 1, 0)
    assert mp.parse_halfspace(halfspace_text) == mp.HalfSpace([-2, -1, 0], [-1, -1, 0])
    assert mp.parse_matrix(matrix_text).rows == (v(0, 0, 0), v(0, NEG, -1))
    assert mp.parse_generators(matrix_text).generators == (v(0, 0, 0), v(0, NEG, -1))


def test_parse_error_exit_2(files, capsys):
    h = files("H.txt", "3\n-inf 0 -inf\n0 -inf -inf\n")
    x = files("x.txt", "3\n2 bogus 0\n")
    rc, _, err = run(capsys, ["distance", "--halfspace", h, "--point", x])
    assert rc == 2
    assert err.startswith("error:")
    assert "line 2, column 3" in err


def test_pos_inf_coefficients_refused_by_every_solver(files, capsys):
    u = v(1, 2)
    for A, B, side in (([[POS, 0]], [[0, 0]], "left"),
                       ([[0, 0]], [[0, POS]], "right")):
        A, B = mp.matrix(A), mp.matrix(B)
        message = f"{side} coefficients must lie in R u {{-inf}}, found \\+inf"
        for solve in (mp.cyclic_solve, mp.power_solve, mp.feasibility):
            with pytest.raises(UnsupportedCaseError, match=message):
                solve(mp.InequalitySystem(A, B), u)
        a, b = files("A.txt", mp.format_matrix(A)), files("B.txt", mp.format_matrix(B))
        init = files("u.txt", mp.format_vector(u))
        for method in ("cyclic", "power", "both"):
            rc, out, err = run(capsys, ["solve", "--a", a, "--b", b,
                                        "--init", init, "--method", method])
            assert (rc, out) == (2, "") and re.search(message, err)


def test_solve_and_compare_refuse_a_bad_tol_or_max_iters(files, capsys):
    # only bottom lies below u: a NaN or infinite tol let solve print a
    # point that is no solution as Solved, exit 0, and a negative cap
    # gave IterationCapHit after no sweep
    a = files("A.txt", "2 2\n0 -inf\n-inf 0\n")
    b = files("B.txt", "2 2\n-inf 1\n0 -inf\n")
    u = files("u.txt", "2\n5 5\n")
    for command in (["solve"], ["solve", "--method", "power"], ["compare"]):
        argv = command + ["--a", a, "--b", b, "--init", u, "--output", "json"]
        # the files hold integers only, so without --mode the run is in
        # int mode, where --tol is not used but still checked
        for mode in (["--mode", "float"], ["--mode", "int"], []):
            for extra, message in ((["--tol", "nan"], "tol must be finite and >= 0"),
                                   (["--tol", "inf"], "tol must be finite and >= 0"),
                                   (["--tol", "-1"], "tol must be finite and >= 0"),
                                   (["--max-iters", "-3"], "max_iters must be >= 0")):
                rc, out, err = run(capsys, argv + mode + extra)
                assert (rc, out) == (2, "") and message in err, (command, mode, extra)
        rc, out, _ = run(capsys, argv + ["--mode", "float", "--tol", "0"])
        assert rc == 1 and "BottomReached" in out


def test_int_mode_runs_exactly_under_a_valid_tol(files, capsys):
    # x0 >= x1 + 1, x1 >= x0 from (5, 5): each sweep lowers both entries
    # by 1.  In float mode --tol 2 stops after the first sweep; in int
    # mode, chosen or inferred, a valid --tol is accepted and the run is
    # exact, byte for byte the run without it
    a = files("A.txt", "2 2\n0 -inf\n-inf 0\n")
    b = files("B.txt", "2 2\n-inf 1\n0 -inf\n")
    u = files("u.txt", "2\n5 5\n")
    for command in (["solve", "--method", "both"], ["compare"]):
        argv = command + ["--a", a, "--b", b, "--init", u, "--output", "json"]
        exact = run(capsys, argv)
        assert exact[0] == 1 and "BottomReached" in exact[1]
        for mode in (["--mode", "int"], []):
            for tol in ("0", "2", "1e300"):
                assert run(capsys, argv + mode + ["--tol", tol]) == exact, (mode, tol)
        _, out, _ = run(capsys, argv + ["--mode", "float", "--tol", "2"])
        assert '"Solved"' in out and "BottomReached" not in out


def test_mode_inference_matches_one_generator():
    # cli._all_integral stops at the first finite non-int entry; the
    # reference looks at every entry
    rng = random.Random(14)
    odd = {"fraction": lambda k: Fraction(2 * k + 1, 2), "float": lambda k: k / 4,
           "float-int": float}
    seen = set()
    for _ in range(1500):
        n, p = rng.randint(0, 5), rng.randint(0, 4)
        share = rng.choice((0, 0.02, 0.1, 0.5))

        def entry():
            r = rng.random()
            if r < share:
                return odd[rng.choice(tuple(odd))](rng.randint(-4, 4))
            return rng.choice((NEG, POS, rng.randint(-9, 9)))

        A, B = (mp.matrix([[entry() for _ in range(n)] for _ in range(p)], ncols=n)
                for _ in range(2))
        u = [entry() for _ in range(n)]
        if n and rng.random() < 0.25:  # a single finite float, in u only
            A, B = (mp.matrix([[e if e in (NEG, POS) else int(e) for e in r]
                               for r in M.rows], ncols=n) for M in (A, B))
            u = [e if e in (NEG, POS) else int(e) for e in u]
            u[rng.randrange(n)] = rng.randint(-4, 4) / 2
        u = mp.vector(u)
        want = reference_all_integral(A, B, u)
        assert cli._all_integral(A, B, u) is want, (A, B, u)
        seen.add(want)
    assert seen == {True, False}
    one_float = (mp.matrix([[0, NEG], [POS, 3]]), mp.matrix([[1, 2], [NEG, NEG]]),
                 v(4, 2.5))
    assert cli._all_integral(*one_float) is reference_all_integral(*one_float) is False


def test_missing_file_exit_2(files, capsys):
    h = files("H.txt", "1\n0\n-1\n")
    rc, _, err = run(capsys, ["distance", "--halfspace", h,
                              "--point", "/nonexistent/x.txt"])
    assert rc == 2 and err.startswith("error:")


def test_int_mode_rejects_floats(files, capsys):
    h = files("H.txt", "1\n0\n-1\n")
    x = files("x.txt", "1\n0.5\n")
    rc, _, err = run(capsys, ["distance", "--halfspace", h, "--point", x,
                              "--mode", "int"])
    assert rc == 2 and "not an integer token" in err


def test_bottom_reached_exit_1(files, capsys):
    a = files("A.txt", "1 2\n-inf -inf\n")
    b = files("B.txt", "1 2\n0 1\n")
    u = files("u.txt", "2\n4 4\n")
    rc, out, _ = run(capsys, ["solve", "--a", a, "--b", b, "--init", u,
                              "--output", "json"])
    assert rc == 1
    assert json.loads(out)["status"] == "BottomReached"


def test_max_iters_caps_the_solve(files, capsys):
    S = chain_system()
    a = files("A.txt", mp.format_matrix(S.A))
    b = files("B.txt", mp.format_matrix(S.B))
    u = files("u.txt", "3\n10 10 0\n")
    argv = ["solve", "--a", a, "--b", b, "--init", u, "--output", "json"]
    rc, out, _ = run(capsys, argv + ["--max-iters", "2"])
    assert rc == 1
    got = json.loads(out)
    assert got["status"] == "IterationCapHit" and got["iterations"] == 2
    rc, out, _ = run(capsys, argv + ["--max-iters", "50"])
    assert rc == 0 and json.loads(out)["status"] == "Solved"


def test_json_output_is_deterministic(files, capsys):
    a, b, u = ring_files(files)
    argv = ["compare", "--a", a, "--b", b, "--init", u, "--output", "json"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_console_script_smoke(files):
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", mp.format_vector(DISJ_X))
    exe = shutil.which("maxplus")
    cmd = [exe] if exe else [sys.executable, "-m", "maxplus.cli"]
    proc = subprocess.run(cmd + ["distance", "--halfspace", h, "--point", x],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_reused_parser_answers_like_a_fresh_one(files, capsys, monkeypatch):
    # main builds its parser once; each call must still answer as a call
    # on a newly built parser would, whatever the calls before it passed
    a, b, u = ring_files(files)
    S = chain_system()
    ca = files("cA.txt", mp.format_matrix(S.A))
    cb = files("cB.txt", mp.format_matrix(S.B))
    cu = files("cu.txt", "3\n10 10 0\n")
    h = files("H.txt", mp.format_halfspace(DISJ_H))
    x = files("x.txt", mp.format_vector(DISJ_X))
    g = files("V.txt", mp.format_generators(EVAX_GENS))
    solve = ["solve", "--a", a, "--b", b, "--init", u, "--output", "json"]
    chain = ["solve", "--a", ca, "--b", cb, "--init", cu, "--output", "json"]

    def call(argv):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse refusing the command line
            rc = e.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    def fresh(argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", None)
            return call(argv)

    call(solve)
    parser = cli._parser
    steps = [
        solve + ["--no-such-option"],
        solve,
        solve + ["--trace", "--max-iters", "1", "--method", "both"],
        solve,
        chain + ["--max-iters", "2"],
        chain,
        chain + ["--max-iters", "50"],
        ["distance", "--halfspace", h, "--point", x],
        ["distance", "--generators", g, "--point", x],
        ["distance", "--halfspace", h, "--generators", g, "--point", x],
        ["distance", "--halfspace", h, "--point", x],
        ["distance", "--point", x],
        ["distance", "--generators", g, "--point", x, "--output", "json"],
        ["compare", "--a", a, "--b", b, "--init", u, "--mode", "float"],
        solve,
    ]
    seen = []
    for step in steps:
        got = call(step)
        assert got == fresh(step), step
        assert cli._parser is parser
        seen.append(got)
    codes = [rc for rc, _, _ in seen]
    assert codes == [2, 0, 1, 0, 1, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0]
    # nothing of the --trace / --max-iters calls stays behind
    assert seen[1] == seen[3] == seen[-1] and "trace" not in seen[3][1]
    assert json.loads(seen[4][1])["iterations"] == 2
    assert seen[5] == seen[6] and json.loads(seen[5][1])["status"] == "Solved"


# --- the CLI out of process -----------------------------------------------

SYSTEM = {"A.txt": "2 3\n0 -inf -inf\n-inf 0 -inf\n",
          "B.txt": "2 3\n-inf 1 -inf\n-inf -inf 0\n",
          "u.txt": "3\n4 6 9\n"}
SYSTEM_ARGV = ["--a", "A.txt", "--b", "B.txt", "--init", "u.txt"]

# (files, argv, exit status, stdout): each case runs `python -m
# maxplus.cli` in a new process, where nothing of an earlier call (a kept
# projection, compiled rows, the parser) is reused
FRESH_PROCESS_CASES = {
    # x0 >= x1 + 1 and x1 >= x2 solved from u = (4, 6, 9) by both methods
    "solve": (
        SYSTEM, ["solve"] + SYSTEM_ARGV + ["--method", "both", "--output", "json"], 0,
        '{"cyclic": {"iterations": 1, "solution": ["4", "3", "3"], "status": "Solved"}, '
        '"power": {"iterations": 2, "solution": ["4", "3", "3"], "status": "Solved"}}\n'),
    # the chase x0 <= x1 - 1, x1 <= x0 - 1 from u = 0: both methods sink
    # until the divergence guard pins x0 and x1
    "solve (guarded chase)": (
        {"A.txt": "2 3\n-inf -1 -inf\n-1 -inf -inf\n",
         "B.txt": "2 3\n0 -inf -inf\n-inf 0 -inf\n", "u.txt": "3\n0 0 0\n"},
        ["solve"] + SYSTEM_ARGV + ["--method", "both", "--output", "json"], 0,
        '{"cyclic": {"iterations": 22, "pinned": [0, 1], "solution": ["-inf", "-inf", "0"], '
        '"status": "Solved"}, "power": {"iterations": 43, "pinned": [0, 1], '
        '"solution": ["-inf", "-inf", "0"], "status": "Solved"}}\n'),
    # the chase beside the row x2 + 10^4 >= x3 from u = 0: the floor lies
    # far below, but once the chase pair crosses the watch line its block
    # lies below u, so the block rule pins it and both methods end Solved
    "solve (spectator chase pinned by its block)": (
        {"A.txt": "3 4\n-inf -1 -inf -inf\n-1 -inf -inf -inf\n-inf -inf 10000 -inf\n",
         "B.txt": "3 4\n0 -inf -inf -inf\n-inf 0 -inf -inf\n-inf -inf -inf 0\n",
         "u.txt": "4\n0 0 0 0\n"},
        ["solve"] + SYSTEM_ARGV + ["--method", "both", "--output", "json"], 0,
        '{"cyclic": {"iterations": 37, "pinned": [0, 1], "solution": ["-inf", "-inf", "0", "0"], '
        '"status": "Solved"}, "power": {"iterations": 73, "pinned": [0, 1], '
        '"solution": ["-inf", "-inf", "0", "0"], "status": "Solved"}}\n'),
    # the chase with the row x2 + 10^4 >= x0 from u = 0: x2 holds the one
    # block at u, so the block rule never pins it, and the floor lies so
    # deep that both methods stop at the cap
    "solve (same-component chase at the cap)": (
        {"A.txt": "3 3\n-inf -1 -inf\n-1 -inf -inf\n-inf -inf 10000\n",
         "B.txt": "3 3\n0 -inf -inf\n-inf 0 -inf\n0 -inf -inf\n", "u.txt": "3\n0 0 0\n"},
        ["solve"] + SYSTEM_ARGV + ["--method", "both", "--output", "json"], 1,
        '{"cyclic": {"iterations": 100000, "solution": ["-199999", "-200000", "0"], '
        '"status": "IterationCapHit"}, "power": {"iterations": 100000, '
        '"solution": ["-100000", "-100000", "0"], "status": "IterationCapHit"}}\n'),
    # the first system through compare: both traced runs, their finite
    # additions and the sandwich verdict
    "compare": (
        SYSTEM, ["compare"] + SYSTEM_ARGV + ["--output", "json"], 0,
        '{"cyclic": {"finite_additions": 15, "iterations": 1, "solution": ["4", "3", "3"], '
        '"status": "Solved", "trace": [["4", "6", "9"], ["4", "3", "9"], ["4", "3", "3"]]}, '
        '"power": {"finite_additions": 19, "iterations": 2, "solution": ["4", "3", "3"], '
        '"status": "Solved", "trace": [["4", "6", "9"], ["4", "3", "6"], ["4", "3", "3"]]}, '
        '"sandwich": true, "solutions_agree": true}\n'),
    # the README separation example
    "separate": (
        {"V.txt": "3 3\n0 0 -inf\n-inf 0 -inf\n-inf -inf 0\n", "x.txt": "3\n2 1 0\n"},
        ["separate", "--generators", "V.txt", "--point", "x.txt", "--output", "json"], 0,
        '{"a": ["-inf", "-1", "0"], "b": ["-1", "-inf", "-inf"], "distance": "1", '
        '"index_map": [0, 1, 2], "projection": ["1", "1", "0"], "reduced": false}\n'),
    # a point with a -inf entry: separation after reduction to its support
    "separate (reduced)": (
        {"V.txt": "2 3\n0 0 0\n0 -inf -1\n", "x.txt": "3\n3 -inf 1\n"},
        ["separate", "--generators", "V.txt", "--point", "x.txt", "--output", "json"], 0,
        '{"a": ["-inf", "-1"], "b": ["-2", "-inf"], "distance": "1", "index_map": [0, 2], '
        '"projection": ["2", "-inf", "1"], "reduced": true}\n'),
    # the canonical form read off its pairs: a', b', I, J, apex, sectors
    "canonicalize": (
        {"H.txt": "3\n-2 -1 0\n-1 -1 0\n"},
        ["canonicalize", "--halfspace", "H.txt", "--output", "json"], 0,
        '{"I": [1, 2], "J": [0], "a_prime": ["-inf", "-1", "0"], "apex": ["1", "1", "0"], '
        '"b_prime": ["-1", "-inf", "-inf"], "sectors": [{"a": ["-inf", "-1", "-inf"], '
        '"b": ["-1", "-inf", "0"], "pivot": 1}, {"a": ["-inf", "-inf", "0"], '
        '"b": ["-1", "-1", "-inf"], "pivot": 2}]}\n'),
    # three faces (pivots 1, 2, 3) whose boxes share their bounds: a'x = 0
    # is attained three times and b'x = 1 at index 0
    "best-approx": (
        {"H.txt": "4\n-inf -1 0 1/2\n-1 -inf -inf -inf\n", "x.txt": "4\n2 1 0 -1/2\n"},
        ["best-approx", "--halfspace", "H.txt", "--point", "x.txt", "--output", "json"], 0,
        '{"distance": "1", "faces": [{"box": {"2": ["-1", "0"], "3": ["-3/2", "-1/2"]}, '
        '"fixed": {"0": "1", "1": "1"}, "pivot": 1}, {"box": {"1": ["0", "1"], '
        '"3": ["-3/2", "-1/2"]}, "fixed": {"0": "1", "2": "0"}, "pivot": 2}, '
        '{"box": {"1": ["0", "1"], "2": ["-1", "0"]}, "fixed": {"0": "1", "3": "-1/2"}, '
        '"pivot": 3}]}\n'),
    # a point with a -inf entry: only the third generator fits under it
    "project-semimodule": (
        {"V.txt": "3 4\n0 0 -inf 1\n-inf 0 -inf -2\n2 -inf 0 -inf\n",
         "x.txt": "4\n3 1 2 -inf\n"},
        ["project-semimodule", "--generators", "V.txt", "--point", "x.txt",
         "--output", "json"], 0,
        '{"projection": ["3", "-inf", "1", "-inf"]}\n'),
    # float mode on files that mix 2.5, -INF and +inf tokens:
    # x0 >= x1 + 2.5 and x1 >= x2 from u = (4, +inf, 9.5)
    "solve (float tokens)": (
        {"A.txt": "2 3\n0 -INF -inf\n-inf 0 -INF\n",
         "B.txt": "2 3\n-inf 2.5 -inf\n-INF -inf 0\n", "u.txt": "3\n4 +inf 9.5\n"},
        ["solve", "--mode", "float"] + SYSTEM_ARGV + ["--method", "both", "--output", "json"],
        0,
        '{"cyclic": {"iterations": 1, "solution": ["4.0", "1.5", "1.5"], "status": "Solved"}, '
        '"power": {"iterations": 2, "solution": ["4.0", "1.5", "1.5"], "status": "Solved"}}\n'),
    # a BottomOnly row, -inf >= max(x0, x1 + 1), under a cap of 0: no
    # sweep is made, as on every other system
    "solve (BottomOnly row, no sweep allowed)": (
        {"A.txt": "1 2\n-inf -inf\n", "B.txt": "1 2\n0 1\n", "u.txt": "2\n4 4\n"},
        ["solve"] + SYSTEM_ARGV + ["--max-iters", "0", "--output", "json"], 1,
        '{"iterations": 0, "solution": ["4", "4"], "status": "IterationCapHit"}\n'),
    # --tol is checked before the mode is inferred: on integer files,
    # where the run would be exact, a NaN tolerance still exits 2
    "solve (bad tolerance in int mode)": (
        SYSTEM, ["solve"] + SYSTEM_ARGV + ["--tol", "nan", "--output", "json"], 2, ""),
}


@pytest.mark.parametrize("case", FRESH_PROCESS_CASES)
def test_cli_in_a_fresh_process(case, tmp_path, monkeypatch):
    files, argv, status, stdout = FRESH_PROCESS_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    src = str(Path(mp.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", src)
    proc = subprocess.run([sys.executable, "-m", "maxplus.cli"] + argv, cwd=tmp_path,
                          capture_output=True)
    assert (proc.returncode, proc.stdout) == (status, stdout.encode()), proc.stderr


# --- the parser surface and the order files are read ------------------------

MODE = (("--mode",), False, ["int", "float"], None, None, None,
        "token domain and termination style (default: inferred from the inputs)",
        "_StoreAction")
OUTPUT = (("--output",), False, ["text", "json"], "text", None, None, None, "_StoreAction")
SOLVER = [(("--tol",), False, None, None, float, None,
           "float-mode termination tolerance, finite and >= 0 (default 1e-09)",
           "_StoreAction"),
          (("--max-iters",), False, None, 100000, int, None,
           "sweep/step cap, >= 0 (default 100000)", "_StoreAction")]


def file_option(name, required=True):
    return ((f"--{name}",), required, None, None, None, "FILE", None, "_StoreAction")


# recorded from the parser before its subcommands shared one declaration:
# (help, [(option strings, required, choices, default, type, metavar,
# help, action)], [(required, exclusive group)])
PARSER_SURFACE = {
    "solve": ("greatest solution of Ax >= Bx below u",
              [file_option("a"), file_option("b"), file_option("init"),
               (("--method",), False, ["cyclic", "power", "both"], "cyclic", None,
                None, None, "_StoreAction"),
               (("--trace",), False, None, False, None, None, None, "_StoreTrueAction"),
               MODE, OUTPUT] + SOLVER, []),
    "compare": ("run both methods, check the sandwich property, count finite additions",
                [file_option("a"), file_option("b"), file_option("init"),
                 MODE, OUTPUT] + SOLVER, []),
    "project-halfspace": ("greatest element of a half-space below a point",
                          [file_option("halfspace"), file_option("point"),
                           MODE, OUTPUT], []),
    "project-semimodule": ("greatest element of a generated semimodule below a point",
                           [file_option("generators"), file_option("point"),
                            MODE, OUTPUT], []),
    "distance": ("projective distance from a point to a half-space or semimodule",
                 [file_option("halfspace", False), file_option("generators", False),
                  file_option("point"), MODE, OUTPUT],
                 [(True, ["--halfspace", "--generators"])]),
    "canonicalize": ("disjoint-support form, apex, and sectors",
                     [file_option("halfspace"), MODE, OUTPUT], []),
    "best-approx": ("all nearest points of a half-space",
                    [file_option("halfspace"), file_option("point"), MODE, OUTPUT], []),
    "separate": ("universal half-space containing the semimodule and excluding the point",
                 [file_option("generators"), file_option("point"), MODE, OUTPUT], []),
}


def test_parser_surface_is_unchanged():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    got = {}
    for name, p in sub.choices.items():
        options = [(tuple(a.option_strings), a.required, a.choices, a.default, a.type,
                     a.metavar, a.help, type(a).__name__)
                   for a in p._actions if a.dest != "help"]
        groups = [(g.required, [o for a in g._group_actions for o in a.option_strings])
                  for g in p._mutually_exclusive_groups]
        got[name] = (helps[name], options, groups)
    assert list(got) == list(PARSER_SURFACE)
    for name in PARSER_SURFACE:
        assert got[name] == PARSER_SURFACE[name], name


# each command's file options in the order it reads them
READ_ORDER = [["solve", "a", "b", "init"], ["compare", "a", "b", "init"],
              ["project-halfspace", "halfspace", "point"],
              ["project-semimodule", "generators", "point"],
              ["distance", "point", "halfspace"], ["distance", "point", "generators"],
              ["canonicalize", "halfspace"], ["best-approx", "halfspace", "point"],
              ["separate", "generators", "point"]]


@pytest.mark.parametrize("command", READ_ORDER, ids=" ".join)
def test_the_first_file_read_reports_its_error(command, tmp_path, capsys):
    name, *options = command

    def call(paths):
        argv = [name]
        for option in reversed(options):  # the reverse of the read order
            argv += [f"--{option}", paths[option]]
        return run(capsys, argv)

    # every file missing: the error names the one read first
    missing = {o: str(tmp_path / f"missing-{o}.txt") for o in options}
    rc, out, err = call(missing)
    assert (rc, out) == (2, "")
    assert err == f"error: cannot read {missing[options[0]]}: No such file or directory\n"
    # the first file unparsable, the others missing: its parse error
    bad = dict(missing)
    bad[options[0]] = str(tmp_path / "bad.txt")
    Path(bad[options[0]]).write_text("bogus\n")
    rc, out, err = call(bad)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "line 1, column 1" in err and "cannot" not in err
