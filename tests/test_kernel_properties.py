"""Property tests of the window-sum kernel against the per-t oracles.

Paths are random cadlag paths under both interpolation rules.  Jumps are
placed where the sample mesh has its edge cases: at tau with tau - eps
exactly on a grid node (dyadic grids keep that subtraction exact), within
eps of 0 (tau - eps falls outside the horizon) and within eps of T.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pathcalc import regularize as reg
from pathcalc.paths import (LINEAR, PIECEWISE_CONSTANT, CadlagPath,
                            constant_path, uniform_grid)


def _path(grid, marks, rule, seed):
    rng = np.random.default_rng(seed)
    n = grid.size
    sizes = rng.choice([-1.0, 1.0], marks.size) * rng.uniform(0.2, 2.0, marks.size)
    if rule == PIECEWISE_CONSTANT:
        steps = np.zeros(n)
        steps[marks] = sizes
        values = rng.normal() + np.cumsum(steps)
        left = np.concatenate(([values[0]], values[:-1]))
    else:
        steps = rng.normal(0.0, 0.3, n)
        steps[marks] += sizes
        values = np.cumsum(steps)
        left = values.copy()
        left[marks] -= sizes
    return CadlagPath(grid, values, left, marks, rule=rule)


@st.composite
def kernel_case(draw):
    dyadic = draw(st.booleans())
    n = draw(st.sampled_from([16, 32, 64])) if dyadic else draw(st.integers(12, 70))
    grid = uniform_grid(1.0, n)
    k = draw(st.integers(2, n // 3))
    # on a dyadic grid eps = k/n is exact, so tau - eps hits grid nodes
    eps = k / n if dyadic else draw(st.floats(1.5 / n, 0.4))
    cells = int(np.ceil(eps * n))
    jumps = set(draw(st.lists(st.integers(1, n), max_size=3)))
    if draw(st.booleans()):
        jumps.add(draw(st.integers(1, max(cells - 1, 1))))  # within eps of 0
    if draw(st.booleans()):
        jumps.add(draw(st.integers(n - cells + 1, n)))  # within eps of T
    if draw(st.booleans()):
        jumps.add(draw(st.integers(k + 1, n)))  # tau - eps on a grid node
    rules = st.sampled_from([PIECEWISE_CONSTANT, LINEAR])
    seeds = st.integers(0, 2**32 - 1)
    X = _path(grid, np.array(sorted(jumps), dtype=np.intp), draw(rules), draw(seeds))
    y_jumps = np.array(sorted(set(draw(st.lists(st.integers(1, n), max_size=2)))),
                       dtype=np.intp)
    Y = X if draw(st.booleans()) else _path(grid, y_jumps, draw(rules), draw(seeds))
    return X, Y, eps


def _close(kernel, brute):
    scale = max(1.0, float(np.max(np.abs(brute))))
    return float(np.max(np.abs(kernel - brute))) / scale <= 1e-12


@settings(max_examples=150, deadline=None)
@given(kernel_case())
def test_kernel_matches_oracles_and_unit_weight(case):
    X, Y, eps = case
    assert _close(reg.covariation(X, Y, eps).values,
                  reg.brute_covariation(X, Y, eps))
    assert _close(reg.forward_integral(Y, X, eps).values,
                  reg.brute_forward_integral(Y, X, eps))
    W = reg.weighted_qv(constant_path(X.grid, 1.0), X, eps)
    C = reg.covariation(X, X, eps)
    assert np.array_equal(W.values, C.values)
    assert np.array_equal(W.left_values, C.left_values)
