"""A continuous path holds one array: ``CadlagPath(grid, values)`` takes its
left values to be its values, and the library builds every jump-free path
that way.  Every derived path, sums, differences and multiples included,
writes left values only at its jump rows, through the one builder
``paths._jumping_at``, which copies only when there is a jump row; no other
module copies values to write left values, and only the builder and the
readers of paths given from outside hand left values to the constructor."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import dirichlet as dd
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


def _brownian():
    return sim.simulate(sim.SimSpec("brownian", n=1000, seed=1))


def _brownian_part(name):
    return _brownian()[1].decomposition[name]


def _square_on_brownian(harness):
    X, gt = _brownian()
    F, sched = ito.FUNCTION_CATALOG["square"], reg.EpsilonSchedule((0.2, 0.1))
    if harness == "ito_terms_c12":
        return ito.ito_terms_c12(F, X, sched, tol=0.5).terms["bracket_term"]
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    return dd.chain_rule_c01(F, X, dec, None, sched, tol=0.5).a_path


V = sim.brownian_on_grid(GRID, 5)
WS = sim.brownian_on_grid(STEP.grid, 3)


JUMP_FREE = {
    "constant_path": lambda: constant_path(GRID, 2.0),
    "time_integral": lambda: ito.ito_terms_c12(
        ito.FUNCTION_CATALOG["tx"], _brownian()[0], reg.EpsilonSchedule((0.2, 0.1)),
        tol=0.5).terms["time_integral"],
    "qv_continuous_part": _poisson_qvc,
    "covariation_continuous": lambda: reg.covariation_continuous(W, W, 0.05),
    "covariation": lambda: reg.covariation(W, W, 0.05),
    "integrate_nu": lambda: jm.integrate_nu(jm.X_FIELD, jm.CompensatorSpec.poisson(2.0),
                                            STEP),
    "stieltjes_left": lambda: ito.stieltjes_left(STEP, sim.brownian_on_grid(STEP.grid, 4)),
    "ito_residual": _residual,
    "brownian M_c": lambda: _brownian_part("M_c"),
    "brownian A": lambda: _brownian_part("A"),
    "brownian M_d": lambda: _brownian_part("M_d"),
    "brownian": lambda: _brownian()[0],
    "brownian bracket": lambda: _brownian()[1].bracket,
    "integrate_mu": lambda: jm.integrate_mu(jm.X_FIELD, W),
    "path_of_function": lambda: ito.path_of_function(ito.FUNCTION_CATALOG["square"], W),
    "pdp without a switch": lambda: sim.simulate(
        sim.SimSpec("pdp", n=128, seed=1, switch_rate=0.0))[0],
    "fbm": lambda: sim.simulate(sim.SimSpec("fbm", n=256, seed=1, hurst=0.7))[0],
    "brownian_on_grid": lambda: W,
    "W + V": lambda: W + V,
    "(STEP + WS) - (STEP + WS)": lambda: (STEP + WS) - (STEP + WS),
    "(STEP + WS) - WS - STEP": lambda: (STEP + WS) - WS - STEP,
    "W - V": lambda: W - V,
    "-W": lambda: -W,
    "2.5 * W": lambda: 2.5 * W,
    "bracket_term": lambda: _square_on_brownian("ito_terms_c12"),
    "chain_rule a_path": lambda: _square_on_brownian("chain_rule_c01"),
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


# values, left values and marks of each estimate on the step path and of a
# Poisson path, recorded before continuous paths held one array and before
# left values were written at jump rows only: a path that jumps keeps its own
# left array, with the same bytes
STEP_ESTIMATES = {
    "covariation": (lambda: reg.covariation(STEP, STEP, 0.1), "15a728bdab01c42b"),
    "forward_integral": (lambda: reg.forward_integral(WS, STEP, 0.1), "1bd9f9d3d273115b"),
    "weighted_qv": (lambda: reg.weighted_qv(WS, STEP, 0.1), "6f69478ea0a37876"),
    "forward_integral_rv": (lambda: reg.forward_integral_rv(
        WS + constant_path(STEP.grid, 1.0), STEP, 0.1), "833fe4f0c086155e"),
    "stieltjes_left": (lambda: ito.stieltjes_left(WS, STEP), "83e312598910b7c5"),
    "integrate_mu": (lambda: jm.integrate_mu(jm.X_FIELD, STEP), "dacc8bc24bdf94b5"),
    "path_of_function": (lambda: ito.path_of_function(ito.FUNCTION_CATALOG["sin"], STEP),
                         "27944f7e2f74028b"),
    "poisson": (lambda: sim.simulate(sim.SimSpec("poisson", n=50, seed=5,
                                                 intensity=3.0))[0], "7b0eff198b7e2fad"),
    "STEP + WS": (lambda: STEP + WS, "36081e8a676ba4d2"),
    "-STEP": (lambda: -STEP, "5c4de87cdd430c11"),
    "0.5 * poisson": (lambda: 0.5 * sim.simulate(sim.SimSpec("poisson", n=50, seed=5,
                                                             intensity=3.0))[0],
                      "88fa14086ec4fe0a"),
    # a time-dependent rate and two time atoms, listed out of time order
    "integrate_nu with two atoms": (lambda: jm.integrate_nu(
        jm.X_SQUARED_FIELD, jm.CompensatorSpec.user_supplied(
            lambda t: 1.0 + np.asarray(t), jm.NormalLaw(0, 1),
            atoms=((STEP.grid[30], jm.DiracLaw(2.0), 0.5),
                   (STEP.grid[20], jm.DiracLaw(-1.0), 1.0))), STEP), "385584c5c1896c49"),
}
# the step jumps at row 12, the Poisson path at its arrivals, the compensator
# at its time atoms
MARKS = {"poisson": [32, 40, 43, 48], "0.5 * poisson": [32, 40, 43, 48],
         "integrate_nu with two atoms": [20, 30]}


@pytest.mark.parametrize("case", STEP_ESTIMATES)
def test_paths_that_jump_keep_their_left_array(case):
    build, digest = STEP_ESTIMATES[case]
    P = build()
    assert P.left_values is not P.values
    assert P.jump_marks.tolist() == MARKS.get(case, [12])
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


# -- guard: only ``paths`` copies values to write left values ------------------


def _copies_when_it_jumps(tree: ast.Module) -> list[int]:
    """Lines of ``<v>.copy() if <cond> else <v>``, the copy-when-it-jumps idiom
    of a builder that writes left values at its jump rows."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.IfExp) and isinstance(node.body, ast.Call)):
            continue
        call = node.body
        if (not call.args and getattr(call.func, "attr", None) == "copy"
                and ast.dump(call.func.value) == ast.dump(node.orelse)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "paths.py"))
def test_only_paths_copies_values_to_write_left_values(module):
    assert _copies_when_it_jumps(ast.parse((SRC / module).read_text())) == [], module


def test_guard_sees_a_copy_when_it_jumps():
    tree = ast.parse("left = vals.copy() if jump_idx.size else vals\n"
                     "values = conv[: grid.size].copy()\n"
                     "a = v.copy() if c else w\n"
                     "b = (2 * v).copy() if marks.size else 2 * v\n"
                     "d = v.copy(order) if c else v\n")
    assert _copies_when_it_jumps(tree) == [1, 4]


# -- guard: one builder writes left values, the readers pass them through -----

# functions that may hand left values to the constructor: the builder, and the
# two readers of left values given from outside
LEFT_VALUE_WRITERS = {"paths.py": {"_jumping_at", "make_path", "from_csv"}}


def _left_value_writers(node: ast.AST, name: str = "<module>",
                        klass: str = "") -> list[str]:
    """Names of the functions that call ``CadlagPath(...)``, or ``cls(...)`` in
    its class, with left values: a third positional argument, a
    ``left_values=`` keyword or a starred argument."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            found += _left_value_writers(child, name, child.name)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _left_value_writers(child, child.name, klass)
            continue
        callee = getattr(getattr(child, "func", None), "id", None)
        if (isinstance(child, ast.Call)
                and (callee == "CadlagPath" or (callee == "cls" and klass == "CadlagPath"))
                and (len(child.args) > 2
                     or any(isinstance(a, ast.Starred) for a in child.args)
                     or any(k.arg in ("left_values", None) for k in child.keywords))):
            found.append(name)
        found += _left_value_writers(child, name, klass)
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_builder_and_readers_pass_left_values(module):
    found = set(_left_value_writers(ast.parse((SRC / module).read_text())))
    assert found <= LEFT_VALUE_WRITERS.get(module, set()), module


def test_guard_sees_left_values_passed_to_the_constructor():
    tree = ast.parse("def a(g, v, left):\n    return CadlagPath(g, v, left)\n"
                     "def b(g, v, left):\n    return CadlagPath(g, v, left_values=left)\n"
                     "def c(arrays):\n    return CadlagPath(*arrays, rule=r)\n"
                     "def d(g, v, kw):\n    return CadlagPath(g, v, **kw)\n"
                     "def e(g, v):\n    return CadlagPath(g, v, rule=r)\n"
                     "def f(g, v, rows, lefts):\n    return _jumping_at(g, v, rows, lefts)\n"
                     "def h(g, v):\n    return cls(g, v)\n"
                     "class Spec:\n    def k(cls, a, b, c):\n        return cls(a, b, c)\n"
                     "class CadlagPath:\n    def m(cls, a, b, c):\n        return cls(a, b, c)\n")
    assert _left_value_writers(tree) == ["a", "b", "c", "d", "m"]


# -- guard: one mark rule for derived paths ------------------------------------

# functions that may compare a path's values with its left values: the
# builder, the round-off rule of derived paths, and the constructor of paths
# given from outside
MARK_COMPARERS = {"paths.py": {"_jumping_at", "_real_jumps", "__post_init__"}}
_LEFT_NAMES = {"rl"}
_VALUE_NAMES = {"values", "value", "vals", "v", "r"}


def _mark_comparers(tree: ast.Module) -> list[str]:
    """Names of the functions holding a comparison, or an ``equal`` or
    ``not_equal`` call, that reads both values (``values``, ``v``, ``r``, ...)
    and left values (any name with ``left`` in it, or ``rl``)."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else name)
            call = getattr(getattr(child, "func", None), "attr", None)
            if isinstance(child, ast.Compare) or call in ("equal", "not_equal"):
                ids = {getattr(n, "id", None) or getattr(n, "attr", None)
                       for n in ast.walk(child)} - {None}
                if (ids & _VALUE_NAMES
                        and any("left" in i or i in _LEFT_NAMES for i in ids)):
                    found.append(inner)
            visit(child, inner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_only_the_mark_rule_compares_values_with_left_values(module):
    found = set(_mark_comparers(ast.parse((SRC / module).read_text())))
    assert found <= MARK_COMPARERS.get(module, set()), module


def test_guard_sees_a_mark_comparison():
    tree = ast.parse("def a(r, rl, rows):\n    return rl != r[rows]\n"
                     "def b(P):\n    return P.values != P.left_values\n"
                     "def c(v, left, tol):\n    return np.abs(v - left) > tol\n"
                     "def d(values, lefts):\n    return np.not_equal(values, lefts)\n"
                     "def e(t, left, tol):\n    return t - left <= tol\n"
                     "def f(grid, left):\n    return grid.size != left.size\n"
                     "def g(P):\n    return P.left_values is None\n"
                     "def h(values, lefts):\n    return np.equal(values, lefts)\n")
    assert _mark_comparers(tree) == ["a", "b", "c", "d", "h"]
