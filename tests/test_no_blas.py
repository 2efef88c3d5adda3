"""``src/pathcalc`` makes no BLAS-backed call (``np.convolve``, ``np.dot``,
``np.linalg``, the ``@`` operator, ...), whose sums OpenBLAS may split
differently under another thread count, so a path's bits do not follow it.
The only allowed sites are the size quadrature's two row-block products in
``jumps._size_marginal``; with them, ``tests/fingerprint.py`` prints one
total under 1 and 2 OpenBLAS threads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pathcalc"

BLAS_NAMES = {"convolve", "correlate", "dot", "vdot", "inner", "einsum", "tensordot",
              "matmul", "linalg"}
# a row block's field values times the Kronrod and Gauss weights, and their
# absolute values times the absolute Kronrod weights
ALLOWED = {"jumps.py": ["_size_marginal", "_size_marginal"]}


def _blas_sites(tree: ast.Module) -> list[str]:
    """Names of the functions holding a BLAS-backed operation: a matrix
    product ``@`` or ``@=``, or an attribute or import named in BLAS_NAMES
    (``np.linalg.cholesky`` counts once)."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     else name)
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                dotted = [a.name for a in child.names] + [getattr(child, "module", None) or ""]
                names = {part for d in dotted for part in d.split(".")}
            else:
                names = {getattr(child, "attr", None)}
            if isinstance(getattr(child, "op", None), ast.MatMult) or names & BLAS_NAMES:
                found.append(inner)
            visit(child, inner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_makes_a_blas_call(module):
    assert _blas_sites(ast.parse((SRC / module).read_text())) == ALLOWED.get(module, []), module


def test_guard_sees_a_blas_call():
    tree = ast.parse("def a(B, dW):\n    return np.convolve(B, dW)\n"
                     "def b(L, z):\n    return L @ z\n"
                     "def c(cov):\n    return np.linalg.cholesky(cov)\n"
                     "def d(x, y):\n    x @= y\n"
                     "def e(x, y):\n    return x.dot(y)\n"
                     "def f():\n    from numpy.linalg import cholesky\n"
                     "def g():\n    import numpy.linalg\n"
                     "def h(x, y):\n    return np.einsum('i,i', x, y)\n"
                     "def k(x, y):\n    return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y))\n"
                     "def m(x, y):\n    return np.cumsum(x * y) + np.sum(x)\n")
    assert _blas_sites(tree) == ["a", "b", "c", "d", "e", "f", "g", "h"]
