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
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import dirichlet as dd
from pathcalc import regularize as reg
from pathcalc.paths import (LINEAR, PIECEWISE_CONSTANT, CadlagPath,
                            constant_path, step_path, uniform_grid)

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
    return CadlagPath(grid, values, left, rule=rule)


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
    m = reg._Mesh(reg._Study(X, [Y] + partners), eps)
    assert np.array_equal(m.jr, np.searchsorted(m.u, m.grid, side="right"))
    assert m.Xs.tobytes() == X.value_at(m.sl).tobytes()
    assert m.Xu.tobytes() == X.value_at(m.u).tobytes()
    assert len(m.samples) == 1 + len(partners)
    for P, (Ps, Pu) in zip([Y] + partners, m.samples):
        assert Ps.tobytes() == P.value_at(m.sl).tobytes()
        assert Pu.tobytes() == P.value_at(m.u).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.one_of(kernel_case(), pinned_case()))
def test_weight_samples_match_left_limits_at_cell_starts(case):
    # grid cells read the stored left values; only the inserted breakpoints
    # are searched, and both must equal a left-limit search at every cell
    X, Y, eps = case
    m = reg._Mesh(reg._Study(X, [Y]), eps)
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
        assert rep.epsilons == ref.epsilons and rep.passed == ref.passed
        assert rep.sup_norms.tobytes() == ref.sup_norms.tobytes()
        assert rep.sup_gaps.tobytes() == ref.sup_gaps.tobytes()


@st.composite
def locate_case(draw):
    """A grid and query times in [0, T]: 0, T, every node, each node's
    neighbours one ulp away, times past T capped at T and random times."""
    n = draw(st.integers(2, 300))
    T = draw(st.sampled_from([1.0, 0.7, 3.0, 1e-3, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "jump_nodes", "random", "clustered"]))
    grid = uniform_grid(T, n)
    if kind == "jump_nodes":
        grid = np.union1d(grid, rng.uniform(0.0, T, draw(st.integers(1, 5))))
    elif kind == "random":
        grid = np.unique(np.concatenate(([0.0, T], rng.uniform(0.0, T, n))))
    elif kind == "clustered":
        # enough nodes packed into a sliver that one bucket holds more than
        # the walk's rounds, so the binary-search fallback runs
        m = draw(st.integers(2 * reg._LOCATE_ROUNDS + 4, 60))
        width = T / (4.0 * (n + m))
        start = rng.uniform(0.0, T - width)
        grid = np.union1d(grid, start + width * np.sort(rng.uniform(0.0, 1.0, m)))
        buckets = np.bincount((grid / T * (grid.size - 1)).astype(np.intp))
        assert buckets.max() > reg._LOCATE_ROUNDS + 1
    q = np.concatenate(([0.0, T], grid, np.nextafter(grid, -np.inf),
                        np.nextafter(grid, np.inf), [np.nextafter(T, np.inf), 2 * T],
                        rng.uniform(0.0, T, 50)))
    return grid, np.minimum(np.maximum(q, 0.0), T)


@settings(max_examples=300, deadline=None)
@given(locate_case())
def test_locate_matches_binary_search(case):
    grid, tc = case
    want = np.searchsorted(grid, tc, side="right") - 1
    assert reg._locate(grid, reg._buckets(grid), tc).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(kernel_case(), st.sampled_from((PIECEWISE_CONSTANT, LINEAR)),
       st.integers(0, 2**32 - 1))
def test_covariation_with_itself_equals_that_with_a_copy(case, rule, seed):
    # (X, X) reuses X's gathers and sums for the second factor; an equal but
    # distinct copy takes the general route and must give the same bytes
    X, _, eps = case
    for P in (X, _path(X.grid, np.zeros(0, dtype=np.intp), rule, seed)):
        Pc = CadlagPath(P.grid.copy(), P.values.copy(), P.left_values.copy(),
                        rule=P.rule)
        same, copy = reg.covariation(P, P, eps), reg.covariation(P, Pc, eps)
        for a, b in ((same.values, copy.values), (same.left_values, copy.left_values),
                     (same.jump_marks, copy.jump_marks)):
            assert a.tobytes() == b.tobytes()


@st.composite
def mixed_schedule_case(draw):
    """A path with jumps and a schedule whose windows mix the mesh kinds.

    On a dyadic grid tau - eps is exact: eps = k/n shifts every jump onto a
    node, eps = (k + 1/2)/n shifts the last jump strictly inside a cell (an
    inserted breakpoint), and eps at or past the last jump time shifts every
    jump to or below 0.  On the other grids tau - eps and t_i + eps of a
    whole-cell width may miss their node by an ulp, which the snap rule
    takes as the node.
    """
    n = draw(st.sampled_from([16, 32, 64, 10, 100, 1000]))
    grid = uniform_grid(1.0, n)
    marks = sorted(set(draw(st.lists(st.integers(2, n // 2), min_size=1, max_size=3))))
    last = marks[-1]
    X = _path(grid, np.array(marks, dtype=np.intp),
              draw(st.sampled_from((PIECEWISE_CONSTANT, LINEAR))),
              draw(st.integers(0, 2**32 - 1)))
    on_node = st.integers(1, n - 1).map(lambda k: k / n)
    mid_cell = st.integers(1, last - 1).map(lambda k: (k + 0.5) / n)
    past = st.integers(last, n - 1).map(lambda k: k / n)
    widths = {draw(on_node), draw(mid_cell), draw(past)}
    widths |= set(draw(st.lists(st.one_of(on_node, mid_cell, past), max_size=3)))
    return X, reg.EpsilonSchedule(tuple(sorted(widths, reverse=True)))


@settings(max_examples=60, deadline=None)
@given(mixed_schedule_case(), st.integers(0, 2**32 - 1))
def test_study_windows_match_fresh_kernel_calls(case, seed):
    # a study shares its grid work across windows; no window may see state
    # left by an earlier one, whichever mesh kind either of them built
    X, sched = case
    none = np.zeros(0, dtype=np.intp)
    partners = [X] + [_path(X.grid, none, LINEAR, seed + k) for k in range(2)]
    # the covariation study takes every partner at once, the forward study
    # one integrand
    studies = [(reg._window_sums, partners, lambda P, e: reg.covariation(X, P, e))]
    studies += [(reg._forward_sums, [P], lambda P, e: reg.forward_integral(P, X, e))
                for P in partners]
    # a single partner may jump off X's marks (X's lie in [2, n/2]): the
    # study's mesh takes its marks too, as a fresh covariation does
    off = _path(X.grid, np.array([X.grid.size // 2 + 1]), LINEAR, seed + 2)
    studies.append((reg._window_sums, [off], lambda P, e: reg.covariation(X, P, e)))
    for kernel, ps, fresh in studies:
        for e, ests in zip(sched, reg._windows(X, ps, sched, kernel)):
            for E, P in zip(ests, ps, strict=True):
                F = fresh(P, e)
                assert E.values.tobytes() == F.values.tobytes()
                assert E.left_values.tobytes() == F.left_values.tobytes()
        reps = reg._limits(reg._windows(X, ps, sched, kernel), sched, 0.05)
        for rep, P in zip(reps, ps, strict=True):
            ests = [fresh(P, e) for e in sched]
            norms = np.array([E.sup_norm() for E in ests])
            gaps = np.array([np.max(np.abs(b.values - a.values))
                             for a, b in zip(ests, ests[1:])])
            assert rep.limit.values.tobytes() == ests[-1].values.tobytes()
            assert rep.sup_norms.tobytes() == norms.tobytes()
            assert rep.sup_gaps.tobytes() == gaps.tobytes()


# -- the snap rule -------------------------------------------------------------


def _miss_cases():
    # (n, k), the first k of each even n, where the unit step at 0.5 on
    # uniform_grid(1, n) has 0.5 - eps, eps = k / n, off every node by at
    # most an ulp but not on one
    out = []
    for n in range(12, 41, 2):
        grid = uniform_grid(1.0, n)
        for k in range(2, n // 2):
            gap = np.min(np.abs(grid - (0.5 - k / n)))
            if 0.0 < gap <= np.spacing(1.0):
                out.append((n, k))
                break
    return out


@pytest.mark.parametrize("n, k", _miss_cases())
def test_a_breakpoint_an_ulp_off_a_node_is_that_node(n, k):
    # the parent built each of these windows with a cell an ulp wide
    X = step_path(1.0, n, 0.5)
    eps = k / n
    assert reg._Mesh(reg._Study(X, [X]), eps).plain
    for est, unit in ((reg.covariation(X, X, eps), False),
                      (reg.forward_integral(X, X, eps), True)):
        vals, lefts = mesh_free_window_sums(X, X, eps, unit)
        assert _close(est.values, vals)
        assert _close(est.left_values, lefts)


def test_step_study_windows_are_plain_and_exact():
    # tau - eps lands 5.6e-17 from a node on 6 of the 8 snapped windows; the
    # window sums of a unit step at tau are exactly 1{t >= tau} once eps < tau
    X = step_path(1.0, 100_000, 0.5)
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(1e-5)
    study = reg._Study(X, [X])
    assert all(reg._Mesh(study, e).plain for e in sched)
    want = (X.grid >= 0.5).astype(float)
    (jump,) = X.jump_marks
    for (E,) in reg._windows(X, [X], sched):
        assert _close(E.values, want)
        assert abs(E.left_values[jump]) <= 1e-12


def _index_cases():
    for n in (10, 100, 1000):
        for T in (1.0, 0.7, 3.0):
            grid = uniform_grid(T, n)
            marks = np.array(sorted({n // 3, n // 2, n - 1}), dtype=np.intp)
            for rule in (PIECEWISE_CONSTANT, LINEAR):
                X = _path(grid, marks, rule, n + int(10 * T))
                for k in sorted({1, 2, n // 7, n // 2, n - 1}):
                    for eps in (k * (T / n), k * T / n, grid[k]):
                        yield X, float(eps)


def test_index_windows_give_the_located_windows_bits(monkeypatch):
    # where every shifted point snaps to the node k cells on, reading the
    # paths by index is a shortcut of locating and snapping, bit for bit
    on_lattice = reg._cells_on
    used = 0
    for X, eps in _index_cases():
        none = np.zeros(0, dtype=np.intp)
        Y = _path(X.grid, none, LINEAR, 7)
        g = _path(X.grid, none, LINEAR, 8)
        out, ks = {}, []

        def recorded(*args):
            ks.append(on_lattice(*args))
            return ks[-1]

        for side, rule in (("index", recorded), ("located", lambda *a: None)):
            monkeypatch.setattr(reg, "_cells_on", rule)
            m = reg._Mesh(reg._Study(X, [X, Y]), eps)
            ests = [reg.covariation(X, Y, eps), reg.covariation(X, X, eps),
                    reg.forward_integral(Y, X, eps), reg.weighted_qv(g, X, eps),
                    reg.covariation_continuous(X, Y, eps)]
            out[side] = ([m.u.copy(), m.jr.copy(), m.Xs, m.Xu.copy(),
                          *[a.copy() for pair in m.samples for a in pair]]
                         + [a for E in ests for a in (E.values, E.left_values, E.jump_marks)])
        monkeypatch.undo()
        # the mesh and the five kernels' meshes are all index windows or none
        assert len(set(ks)) == 1
        if ks[0] is None:
            continue
        used += 1
        for a, b in zip(out["index"], out["located"], strict=True):
            assert a.tobytes() == b.tobytes()
    assert used > 100


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_a_width_off_a_whole_cell_count_is_interpolated(n):
    # 1e-9 cells is far past the snap tolerance: no shifted point or
    # breakpoint moves, and the points between nodes are interpolated
    grid = uniform_grid(1.0, n)
    X = _path(grid, np.array([n // 2], dtype=np.intp), LINEAR, n)
    for k in (1, 3, n // 4):
        eps = (k + 1e-9) * (1.0 / n)
        m = reg._Mesh(reg._Study(X, [X]), eps)
        assert not m.plain
        assert m.shifted.tobytes() == (grid[n // 2] - np.array([eps])).tobytes()
        u = m.sl + eps
        u[m.ins_cells] = grid[n // 2]
        assert m.u.tobytes() == u.tobytes()
        assert m.Xu.tobytes() == X.value_at(u).tobytes()
        C = _path(grid, np.zeros(0, dtype=np.intp), LINEAR, n + 1)
        m = reg._Mesh(reg._Study(C, [C]), eps)
        assert m.plain
        assert m.u.tobytes() == (grid[:-1] + eps).tobytes()
        assert m.Xu.tobytes() == C.value_at(grid[:-1] + eps).tobytes()
        assert np.all(m.Xu[:n - k] != C.values[k:n])
