"""Every name a pathcalc module imports is used in that module, and a run
imports no more of numpy than it needs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pathcalc"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imported_names(node) -> set[str]:
    if isinstance(node, ast.Import):
        return {a.asname or a.name.split(".")[0] for a in node.names}
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return {a.asname or a.name for a in node.names}
    return set()


def _bound(fn) -> set[str]:
    """Names a function scope binds: its parameters, and the names its body
    assigns, defines or catches (nested scopes excluded).  A local import is
    checked against the uses in its own scope, so it does not count here."""
    a = fn.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
    names.update(x.arg for x in (a.vararg, a.kwarg) if x)
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _uses(node, bound=frozenset()) -> set[str]:
    """Names read at or under ``node`` that no enclosing function scope
    binds.  Decorators, defaults and annotations belong to the outer scope."""
    if isinstance(node, ast.Name):
        return set() if node.id in bound else {node.id}
    if not isinstance(node, _SCOPES):
        return set().union(*(_uses(c, bound) for c in ast.iter_child_nodes(node)))
    a = node.args
    outer = [*a.defaults, *filter(None, a.kw_defaults)]
    if not isinstance(node, ast.Lambda):
        outer += [*node.decorator_list, node.returns]
        outer += [x.annotation for x in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if x is not None]
    inner = bound | _bound(node)
    body = node.body if isinstance(node.body, list) else [node.body]
    return set().union(*(_uses(x, bound) for x in outer if x is not None),
                       *(_uses(x, inner) for x in body))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set().union(*(_imported_names(n) for n in ast.walk(tree)))
    used = _uses(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_import(module):
    tree = ast.parse((SRC / module).read_text())
    assert _unused_imports(tree) == [], module


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .paths import LINEAR, from_arrays\n"
                     "__all__ = ['from_arrays']\n")
    assert _unused_imports(tree) == ["LINEAR", "os"]


def test_guard_sees_an_import_shadowed_by_a_local():
    tree = ast.parse("from dataclasses import field\n"
                     "from typing import Any\n"
                     "def f(field: Any):\n"
                     "    return field\n")
    assert _unused_imports(tree) == ["field"]
    tree = ast.parse("import os\n"
                     "def g():\n"
                     "    os = 1\n"
                     "    return os\n")
    assert _unused_imports(tree) == ["os"]


_NO_MA = """
import sys
import pathcalc.simulate as sim
from pathcalc import cli, dirichlet, ito, regularize
from pathcalc.jumps import NormalLaw

X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=2000, seed=0, sigma=1.0,
                                 intensity=3.0, jump_law=NormalLaw(0.0, 1.0)))
assert X.jump_marks.size
sched = regularize.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
dirichlet.jump_identities(ito.FUNCTION_CATALOG["square"], X,
                          dirichlet.LabeledDecomposition.from_ground_truth(gt),
                          gt.compensator, sched, tol=0.5)
assert cli.main(["simulate", "--kind", "compound_poisson", "--intensity", "2",
                 "--jump-law", "normal:0,1", "--n", "1000", "--out", sys.argv[1]]) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_a_jump_run_does_not_import_numpy_ma(tmp_path):
    # np.unique and the set routines built on it import numpy.ma at their
    # first call (numpy 2.x), about 1 MiB kept for the life of the process;
    # a fresh interpreter shows whether any pathcalc code path calls them
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent),
                                                        os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _NO_MA, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
