"""The README's library tour, run as written: every statement of its
python block is executed in order, and the values its comments state
are asserted, so a tour that no longer runs or no longer tells the
truth fails here."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

import maxplus as mp
from helpers import NEG, typed, v

README = Path(__file__).resolve().parent.parent / "README.md"


def run_tour():
    """(namespace, value of each expression statement keyed by its
    source text) after running README's first python block."""
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    return ns, values


def test_readme_tour_states_its_values():
    ns, values = run_tour()
    # scalars
    assert typed([values["mp.scalar_residual(3, 5)"]]) == typed([2])
    assert values["mp.lower_add(mp.NEG_INF, mp.POS_INF)"] == NEG
    assert typed([values['mp.scalar("5/2")']]) == typed([Fraction(5, 2)])
    with pytest.raises(ValueError):
        mp.scalar("nan")
    # a semimodule, its projection, distance and separating half-space
    V, x, P, H = ns["V"], ns["x"], ns["P"], ns["H"]
    assert x.entries == (2, 1, 0)
    assert P == v(1, 1, 0)
    assert values["mp.distance_to(V, x)"] == 1
    assert all(mp.contains(H, g) for g in V.generators)
    assert not mp.contains(H, x)
    assert values["mp.project(H, x)"] == v(1, 1, 0)
    best = values["mp.best_approx_set(H, x)"]
    assert best.faces and best.contains(P)
    assert best.base_distance == mp.distance(H, x)
    # the two solvers agree, with their additions counted
    cyclic = values["mp.cyclic_solve(S, u)"]
    power = values["mp.power_solve(S, u)"]
    assert cyclic.status is power.status is mp.Status.SOLVED
    assert cyclic.solution == power.solution
    assert cyclic.finite_additions > 0 and power.finite_additions > 0
    assert cyclic.pinned == power.pinned == ()
    assert [r for k, r in values.items() if k.startswith("mp.sandwich_check(")] == [True]
    f = values["mp.feasibility(S, u)"]
    assert f.status == "FiniteSolution" and f.witness == cyclic.solution
