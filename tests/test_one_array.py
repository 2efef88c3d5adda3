"""A continuous path holds one array: ``CadlagPath(grid, values)`` takes its
left values to be its values, and the library builds every jump-free path
that way.  A builder that writes left values at jump rows copies only when
there is a jump row."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import ito
from pathcalc import jumps as jm
from pathcalc import regularize as reg
from pathcalc.paths import CadlagPath, constant_path, step_path, uniform_grid

SRC = Path(__file__).resolve().parents[1] / "src" / "pathcalc"

GRID = uniform_grid(1.0, 400)
W = sim.brownian_on_grid(GRID, 3)
STEP = step_path(1.0, 40, 0.3)


def _residual():
    X = step_path(1.0, 200, 0.6)
    return ito.ito_terms_c12(ito.FUNCTION_CATALOG["square"], X,
                             reg.EpsilonSchedule((0.2, 0.1))).residual


def _poisson_qvc():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=20000, seed=5, intensity=2.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    return ito.qv_continuous_part(X, sched, tol=0.05)


def _brownian_part(name):
    return sim.simulate(sim.SimSpec("brownian", n=1000, seed=1))[1].decomposition[name]


JUMP_FREE = {
    "constant_path": lambda: constant_path(GRID, 2.0),
    "time_integral": lambda: ito.time_integral(np.cos(GRID), GRID),
    "qv_continuous_part": _poisson_qvc,
    "covariation_continuous": lambda: reg.covariation_continuous(W, W, 0.05),
    "covariation": lambda: reg.covariation(W, W, 0.05),
    "integrate_nu": lambda: jm.integrate_nu(jm.X_FIELD, jm.CompensatorSpec.poisson(2.0),
                                            STEP),
    "stieltjes_left": lambda: ito.stieltjes_left(STEP, sim.brownian_on_grid(STEP.grid, 4)),
    "ito_residual": _residual,
    "brownian M_c": lambda: _brownian_part("M_c"),
    "brownian A": lambda: _brownian_part("A"),
    "fbm": lambda: sim.simulate(sim.SimSpec("fbm", n=256, seed=1, hurst=0.7))[0],
    "brownian_on_grid": lambda: W,
}


@pytest.mark.parametrize("case", JUMP_FREE)
def test_jump_free_paths_hold_one_array(case):
    P = JUMP_FREE[case]()
    assert P.left_values is P.values
    assert not P.values.flags.writeable
    assert P.jump_marks.size == 0


def _digest(P):
    return hashlib.sha256(P.values.tobytes() + P.left_values.tobytes()
                          + P.jump_marks.astype(np.int64).tobytes()).hexdigest()[:16]


# values, left values and marks of each estimate on the step path, recorded
# before continuous paths held one array: a path that jumps keeps its own
# left array, with the same bytes
WS = sim.brownian_on_grid(STEP.grid, 3)
STEP_ESTIMATES = {
    "covariation": (lambda: reg.covariation(STEP, STEP, 0.1), "15a728bdab01c42b"),
    "forward_integral": (lambda: reg.forward_integral(WS, STEP, 0.1), "1bd9f9d3d273115b"),
    "weighted_qv": (lambda: reg.weighted_qv(WS, STEP, 0.1), "6f69478ea0a37876"),
    "forward_integral_rv": (lambda: reg.forward_integral_rv(
        WS + constant_path(STEP.grid, 1.0), STEP, 0.1), "833fe4f0c086155e"),
    "stieltjes_left": (lambda: ito.stieltjes_left(WS, STEP), "83e312598910b7c5"),
}


@pytest.mark.parametrize("case", STEP_ESTIMATES)
def test_paths_that_jump_keep_their_left_array(case):
    build, digest = STEP_ESTIMATES[case]
    P = build()
    assert P.left_values is not P.values
    assert P.jump_marks.tolist() == [12]
    assert _digest(P) == digest


# -- guard: no call site restates the one-array rule or the default rule ------


def _restated(tree: ast.Module) -> list[int]:
    """Lines of ``CadlagPath(...)`` calls whose left values are ``<expr>.copy()``
    or the same expression as their values, or whose rule is the default,
    ``LINEAR`` or ``"linear"``."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CadlagPath"):
            continue
        args = dict(zip(("grid", "values", "left_values", "rule"), node.args))
        args.update((k.arg, k.value) for k in node.keywords if k.arg)
        values, left, rule = args.get("values"), args.get("left_values"), args.get("rule")
        copied = (isinstance(left, ast.Call) and not left.args
                  and getattr(left.func, "attr", None) == "copy")
        same = left is not None and ast.dump(left) == ast.dump(values)
        linear = (getattr(rule, "id", None) == "LINEAR"
                  or getattr(rule, "value", None) == "linear")
        if copied or same or linear:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_call_site_copies_values_into_left_values(module):
    assert _restated(ast.parse((SRC / module).read_text())) == [], module


def test_guard_sees_a_restated_rule():
    tree = ast.parse("a = CadlagPath(g, v, v.copy(), rule=LINEAR)\n"
                     "b = CadlagPath(g, 2 * g,\n 2 * g)\n"
                     "c = CadlagPath(g, values=v, left_values=v.copy())\n"
                     "d = CadlagPath(g, v, left)\n"
                     "e = CadlagPath(g, v)\n"
                     "f = CadlagPath(g, v, w.copy())\n"
                     "h = CadlagPath(g, v, left, rule=LINEAR)\n"
                     "i = CadlagPath(g, v, left, \"linear\")\n"
                     "j = CadlagPath(g, v, left, rule=PIECEWISE_CONSTANT)\n")
    assert _restated(tree) == [1, 2, 4, 7, 8, 9]
