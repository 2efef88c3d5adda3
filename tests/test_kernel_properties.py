"""Property tests of the window-sum kernel against the per-t oracles.

Paths are random cadlag paths under both interpolation rules.  Jumps are
placed where the sample mesh has its edge cases: at tau with tau - eps
exactly on a grid node (dyadic grids keep that subtraction exact), within
eps of 0 (tau - eps falls outside the horizon) and within eps of T.

Neither oracle shares the kernels' sample mesh: both read the paths only
through ``value_at`` and ``left_limit``, so they also see a fault in the
mesh.  The ``brute_*`` oracles of oracles.py build their own breakpoint set
and keep the kernels' left-endpoint rule, so they cover linear paths too.
The mesh-free oracle below integrates the window sums exactly, which it can
do only on piecewise-constant paths.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pathcalc import dirichlet as dd
from pathcalc import regularize as reg
from pathcalc.paths import (LINEAR, PIECEWISE_CONSTANT, CadlagPath,
                            constant_path, uniform_grid)

from oracles import brute_covariation, brute_forward_integral, rel_error


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


def _draw_pair(draw, grid, x_jumps, rules):
    rules = st.sampled_from(rules)
    seeds = st.integers(0, 2**32 - 1)
    X = _path(grid, np.array(sorted(x_jumps), dtype=np.intp), draw(rules), draw(seeds))
    y_jumps = set(draw(st.lists(st.integers(1, grid.size - 1), max_size=2)))
    y_jumps = np.array(sorted(y_jumps), dtype=np.intp)
    Y = X if draw(st.booleans()) else _path(grid, y_jumps, draw(rules), draw(seeds))
    return X, Y


@st.composite
def kernel_case(draw, rules=(PIECEWISE_CONSTANT, LINEAR)):
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
    return (*_draw_pair(draw, grid, jumps, rules), eps)


def _pin_cases():
    # (n, k, i) on uniform_grid(1, n) with eps = grid[k] where grid[i] - eps
    # rounds onto a node from which node + eps falls short of grid[i], so
    # only the mesh's pin of the shifted point to tau finds the jump
    out = []
    for n in range(12, 65):
        grid = uniform_grid(1.0, n)
        for k in range(2, n // 3 + 1):
            for i in range(k + 1, n + 1):
                shifted = grid[i] - grid[k]
                j = np.searchsorted(grid, shifted)
                if grid[j] == shifted and shifted + grid[k] != grid[i]:
                    out.append((n, k, i))
    return out


_PIN_CASES = _pin_cases()


@st.composite
def pinned_case(draw):
    n, k, i = draw(st.sampled_from(_PIN_CASES))
    grid = uniform_grid(1.0, n)
    jumps = {i} | set(draw(st.lists(st.integers(1, n), max_size=2)))
    return (*_draw_pair(draw, grid, jumps, (PIECEWISE_CONSTANT,)), float(grid[k]))


def _close(kernel, oracle):
    return rel_error(kernel, oracle) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.one_of(kernel_case(), pinned_case()))
def test_kernel_matches_oracles_and_unit_weight(case):
    X, Y, eps = case
    for est, (vals, lefts) in (
            (reg.covariation(X, Y, eps), brute_covariation(X, Y, eps)),
            (reg.forward_integral(Y, X, eps), brute_forward_integral(Y, X, eps))):
        assert _close(est.values, vals)
        assert _close(est.left_values, lefts)
    W = reg.weighted_qv(constant_path(X.grid, 1.0), X, eps)
    C = reg.covariation(X, X, eps)
    assert np.array_equal(W.values, C.values)
    assert np.array_equal(W.left_values, C.left_values)


def mesh_free_window_sums(X, Y, eps, unit):
    """Values and left limits at the grid times of the covariation of X and
    Y, or with ``unit`` of the forward integral of Y against X.

    The ds-integral runs over the pieces between the breakpoints {grid} and
    {grid - eps}.  On piecewise-constant paths the integrand is constant on
    each piece, so 2-point Gauss-Legendre is exact there and never samples
    a piece end, where the integrand may jump.
    """
    grid = X.grid
    br = np.union1d(grid, grid - eps)
    br = br[br >= 0.0]
    half, mid = 0.5 * np.diff(br), 0.5 * (br[1:] + br[:-1])
    gx, gw = np.polynomial.legendre.leggauss(2)
    s = (mid[:, None] + half[:, None] * gx).ravel()
    w = (half[:, None] * gw).ravel()
    Xs, Ys = X.value_at(s), Y.value_at(s)
    Xu, Yu = X.value_at(s + eps), Y.value_at(s + eps)
    vals = np.zeros(grid.size)
    lefts = np.zeros(grid.size)
    for i in range(1, grid.size):
        t = grid[i]
        inside = s < t
        bulk = s + eps < t
        for out, Xt, Yt in ((vals, X.value_at(t), Y.value_at(t)),
                            (lefts, X.left_limit(t), Y.left_limit(t))):
            dx = np.where(bulk, Xu, Xt) - Xs
            f = Ys * dx if unit else dx * (np.where(bulk, Yu, Yt) - Ys)
            out[i] = np.sum((w * f)[inside]) / eps
    return vals, lefts


@settings(max_examples=100, deadline=None)
@given(st.one_of(kernel_case(rules=(PIECEWISE_CONSTANT,)), pinned_case()))
def test_kernel_matches_mesh_free_oracle(case):
    X, Y, eps = case
    for est, unit in ((reg.covariation(X, Y, eps), False),
                      (reg.forward_integral(Y, X, eps), True)):
        vals, lefts = mesh_free_window_sums(X, Y, eps, unit)
        assert _close(est.values, vals)
        assert _close(est.left_values, lefts)


@settings(max_examples=150, deadline=None)
@given(st.one_of(kernel_case(), pinned_case()),
       st.lists(st.tuples(st.sampled_from((PIECEWISE_CONSTANT, LINEAR)),
                          st.integers(0, 2**32 - 1)), max_size=2))
def test_mesh_counts_and_samples_match_direct_searches(case, partners):
    # the mesh searches the grid once; its bulk counts and shifted samples
    # must equal separate searches, past the horizon, on nodes and on the
    # plateaus that pinned breakpoints leave in u, and its cell-start
    # samples must equal direct evaluations, for X, Y and every continuous
    # partner alike
    X, Y, eps = case
    none = np.zeros(0, dtype=np.intp)
    partners = [_path(X.grid, none, rule, seed) for rule, seed in partners]
    m = reg._Mesh(X, Y, eps, partners)
    assert np.array_equal(m.jr, np.searchsorted(m.u, m.grid, side="right"))
    assert m.Xs.tobytes() == X.value_at(m.sl).tobytes()
    assert m.Ys.tobytes() == Y.value_at(m.sl).tobytes()
    assert m.Xu.tobytes() == X.value_at(m.u).tobytes()
    assert m.Yu.tobytes() == Y.value_at(m.u).tobytes()
    assert len(m.partner_samples) == len(partners)
    for P, (Ps, Pu) in zip(partners, m.partner_samples):
        assert Ps.tobytes() == P.value_at(m.sl).tobytes()
        assert Pu.tobytes() == P.value_at(m.u).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.one_of(kernel_case(), pinned_case()))
def test_weight_samples_match_left_limits_at_cell_starts(case):
    # grid cells read the stored left values; only the inserted breakpoints
    # are searched, and both must equal a left-limit search at every cell
    X, Y, eps = case
    m = reg._Mesh(X, Y, eps)
    for g in (X, Y):
        want = np.concatenate(([g.value_at(0.0)], g.left_limit(m.sl[1:])))
        assert m.weight_samples(g).tobytes() == want.tobytes()


@st.composite
def jump_free_case(draw):
    n = draw(st.integers(12, 70))
    grid = uniform_grid(1.0, n)
    none = np.zeros(0, dtype=np.intp)
    seeds = st.integers(0, 2**32 - 1)
    X = _path(grid, none, LINEAR, draw(seeds))
    Y = X if draw(st.booleans()) else _path(grid, none, LINEAR, draw(seeds))
    return X, Y, draw(st.floats(1.5 / n, 0.4))


@settings(max_examples=50, deadline=None)
@given(jump_free_case())
def test_jump_free_inputs_give_jump_free_estimates(case):
    X, Y, eps = case
    for est in (reg.covariation(X, Y, eps), reg.forward_integral(Y, X, eps),
                reg.weighted_qv(Y, X, eps), reg.covariation_continuous(X, Y, eps),
                reg.forward_integral_rv(Y, X, eps)):
        assert np.array_equal(est.left_values, est.values)
        assert est.jump_marks.size == 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(kernel_case(), pinned_case()), st.integers(0, 2**32 - 1))
def test_battery_matches_per_path_orthogonality_tests(case, seed):
    # the battery reads every continuous test path from one mesh of A per
    # window, A's jumps (tau - eps on a node among them) included
    A, _, eps = case
    none = np.zeros(0, dtype=np.intp)
    tests = [_path(A.grid, none, LINEAR, seed + k) for k in range(3)]
    sched = reg.EpsilonSchedule((0.5 * (1.0 + eps), eps, max(0.5 * eps, A.min_spacing)))
    for rep, N in zip(dd.orthogonality_battery(A, tests, sched, 0.05), tests):
        ref = dd.orthogonality_test(A, N, sched, 0.05)
        assert rep.epsilons == ref.epsilons and rep.decision == ref.decision
        assert rep.sup_norms.tobytes() == ref.sup_norms.tobytes()
        assert rep.sup_gaps.tobytes() == ref.sup_gaps.tobytes()
