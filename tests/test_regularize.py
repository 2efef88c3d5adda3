import math

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import regularize as reg
from pathcalc.paths import CadlagPath, PathError, constant_path, step_path, uniform_grid

from oracles import (brute_covariation, brute_forward_integral, brute_rv_start,
                     from_function, rel_error)


def linear_path(n=100, T=1.0):
    return from_function(uniform_grid(T, n), lambda t: t)


def modulus_of_continuity(X: CadlagPath, eps: float) -> float:
    """max |X(a) - X(t)| over grid pairs with |a - t| <= eps."""
    grid, v = X.grid, X.values
    out = 0.0
    for d in range(1, grid.size):
        if np.all(grid[d:] - grid[:-d] > eps):
            break
        ok = (grid[d:] - grid[:-d]) <= eps
        if np.any(ok):
            out = max(out, float(np.max(np.abs(v[d:] - v[:-d])[ok])))
    return out


def jumpy_path(seed=0, n=257):
    """Diffusion-like path with two marked jumps, for oracle comparisons."""
    rng = np.random.default_rng(seed)
    grid = uniform_grid(1.0, n)
    values = np.cumsum(rng.normal(0, 0.1, grid.size))
    values[grid >= 0.4] += 1.5
    values[grid >= 0.77] -= 0.8
    left = values.copy()
    i4 = int(np.searchsorted(grid, 0.4))
    i7 = int(np.searchsorted(grid, 0.77))
    left[i4] -= 1.5
    left[i7] += 0.8
    return CadlagPath(grid, values, left, rule="linear")


# -- frozen closed forms ------------------------------------------------------


def test_forward_linear_closed_form():
    # int_0^t (X((s+e)^t) - X(s))/e ds for X(t) = t, left-endpoint cells:
    # bulk (t - e + dt) plus boundary (e - dt)/2
    n, eps = 100, 0.1
    X = linear_path(n)
    Y = constant_path(X.grid, 1.0)
    I = reg.forward_integral(Y, X, eps)
    dt = 1.0 / n
    for m in (30, 60, 85):
        t = X.grid[m]
        expected = (t - eps + dt) + (eps - dt) / 2.0
        assert I.values[m] == pytest.approx(expected, abs=1e-13)
        # continuous-integral value t - eps/2 within one cell width
        assert abs(I.values[m] - (t - eps / 2.0)) < dt


def test_forward_constant_integrator_is_zero():
    X = constant_path(uniform_grid(1.0, 64), 2.5)
    Y = from_function(X.grid, lambda t: np.sin(5 * t))
    assert reg.forward_integral(Y, X, 0.1).sup_norm() == 0.0


def test_covariation_linear_closed_form():
    # bulk e (t - e + dt), boundary (e - dt)(2e - dt)/6; tends to zero with e
    n, eps = 100, 0.1
    X = linear_path(n)
    C = reg.covariation(X, X, eps)
    dt = 1.0 / n
    for m in (30, 60, 85):
        t = X.grid[m]
        expected = eps * (t - eps + dt) + (eps - dt) * (2 * eps - dt) / 6.0
        assert C.values[m] == pytest.approx(expected, abs=1e-13)
    smaller = reg.covariation(X, X, 0.02).values[60]
    assert smaller < C.values[60]


def test_covariation_step_is_exact_step():
    S = step_path(1.0, 100, 0.5)
    for eps in (0.08, 0.07, 0.11):
        C = reg.covariation(S, S, eps)
        probes = np.array([0.3, 0.5, 0.52, 0.9])
        assert np.allclose(C.value_at(probes), [0, 1, 1, 1], atol=1e-12)
        assert C.value_at(0.5) - C.left_limit(0.5) == pytest.approx(1.0, abs=1e-12)


def test_covariation_constant_is_zero():
    X = constant_path(uniform_grid(1.0, 64), 7.0)
    Y = from_function(X.grid, lambda t: np.cos(t))
    assert reg.covariation(X, Y, 0.1).sup_norm() == 0.0


# -- kernel equals the literal transcription -----------------------------------


@pytest.mark.parametrize("eps", [0.03, 0.05, 0.0777, 0.11])
def test_forward_kernel_matches_bruteforce(eps):
    X = jumpy_path()
    Y = from_function(X.grid, lambda t: np.sin(3 * t) + 1.0)
    kernel = reg.forward_integral(Y, X, eps)
    vals, lefts = brute_forward_integral(Y, X, eps)
    assert rel_error(kernel.values, vals) < 1e-12
    assert rel_error(kernel.left_values, lefts) < 1e-12


@pytest.mark.parametrize("eps", [0.03, 0.05, 0.0777, 0.11])
def test_covariation_kernel_matches_bruteforce(eps):
    X = jumpy_path()
    Y = jumpy_path(seed=5)
    kernel = reg.covariation(X, Y, eps)
    vals, lefts = brute_covariation(X, Y, eps)
    assert rel_error(kernel.values, vals) < 1e-12
    assert rel_error(kernel.left_values, lefts) < 1e-12


# -- algebraic invariants -------------------------------------------------------


def test_symmetry_bitwise():
    X, Y = jumpy_path(), jumpy_path(seed=9)
    a = reg.covariation(X, Y, 0.05)
    b = reg.covariation(Y, X, 0.05)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.left_values, b.left_values)


def test_bilinearity():
    X, X2, Y = jumpy_path(), jumpy_path(seed=4), jumpy_path(seed=9)
    lhs = reg.covariation(2.0 * X + (-0.5) * X2, Y, 0.05).values
    rhs = (2.0 * reg.covariation(X, Y, 0.05).values
           - 0.5 * reg.covariation(X2, Y, 0.05).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_polarization():
    X, Y = jumpy_path(), jumpy_path(seed=9)
    s = reg.covariation(X + Y, X + Y, 0.05).values
    parts = (reg.covariation(X, X, 0.05).values
             + reg.covariation(Y, Y, 0.05).values
             + 2.0 * reg.covariation(X, Y, 0.05).values)
    assert np.max(np.abs(s - parts)) < 1e-12


def test_converged_qv_limit_is_nondecreasing():
    # the limit is increasing; the proxy may dip by at most the remaining
    # Cauchy gap
    X, gt = sim.simulate(sim.SimSpec("brownian", n=50000, seed=11))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    assert rep.passed
    worst_dip = -float(np.min(np.diff(rep.limit.values)))
    assert worst_dip <= rep.sup_gaps[-1]


# -- weighted quadratic sums ----------------------------------------------------


def test_weighted_qv_unit_weight_identity():
    X = jumpy_path()
    g = constant_path(X.grid, 1.0)
    W = reg.weighted_qv(g, X, 0.05)
    C = reg.covariation(X, X, 0.05)
    assert np.array_equal(W.values, C.values)
    assert np.array_equal(W.left_values, C.left_values)


def test_weighted_qv_constant_weight_scales():
    X = jumpy_path()
    g = constant_path(X.grid, 4.0)
    W = reg.weighted_qv(g, X, 0.05)
    C = reg.covariation(X, X, 0.05)
    assert np.max(np.abs(W.values - 4.0 * C.values)) < 1e-12


def test_weighted_qv_time_weight_on_poisson():
    # weight t against a pure-jump bracket: limit is the sum of jump times
    X, gt = sim.simulate(sim.SimSpec("poisson", n=20000, seed=12, intensity=3.0))
    g = from_function(X.grid, lambda t: t)
    eps = 0.00625
    W = reg.weighted_qv(g, X, eps)
    target = float(np.sum(gt.jump_times))
    # each jump tau contributes the window average of t near tau: tau - O(eps)
    assert abs(W.values[-1] - target) < eps * len(gt.jump_times)
    finer = reg.weighted_qv(g, X, eps / 4.0)
    assert abs(finer.values[-1] - target) < abs(W.values[-1] - target) + 1e-12


# -- whole-line variant and the start-window identity ---------------------------


def test_rv_variant_equals_truncated_when_start_value_zero():
    X = jumpy_path()
    Y = from_function(X.grid, lambda t: t)  # Y(0+) = 0
    a = reg.forward_integral(Y, X, 0.05)
    b = reg.forward_integral_rv(Y, X, 0.05)
    assert np.max(np.abs(a.values - b.values)) < 1e-14


@pytest.mark.parametrize("eps", [0.5, 0.8])
def test_rv_variant_matches_the_whole_line_oracle_before_eps(eps):
    # a jump of X falls inside [0, eps), where the start-up piece reads X(t)
    # and X(t-); X(0) and Y(0) are nonzero
    X = jumpy_path()
    Y = from_function(X.grid, lambda t: np.cos(t) + 0.5)
    assert X.values[0] != 0.0 and np.any(X.jump_times < eps)
    est = reg.forward_integral_rv(Y, X, eps)
    vals, lefts = brute_forward_integral(Y, X, eps)
    start, start_lefts = brute_rv_start(Y, X, eps)
    assert rel_error(est.values, vals + start) <= 1e-12
    assert rel_error(est.left_values[1:], (lefts + start_lefts)[1:]) <= 1e-12


def rv_gap(Y, X, eps):
    """Truncated minus whole-line forward estimate at every grid time."""
    return reg.forward_integral(Y, X, eps).values - reg.forward_integral_rv(Y, X, eps).values


def test_rv_gap_matches_closed_form():
    # from t = eps on, the gap is minus the closed-form start-up window
    X = jumpy_path()
    Y = from_function(X.grid, lambda t: np.cos(t) + 0.5)
    for eps in (0.04, 0.08):
        gap = rv_gap(Y, X, eps)
        const = reg.rv_window_constant(Y, X, eps)
        assert const != 0.0
        scale = max(reg.forward_integral(Y, X, eps).sup_norm(), abs(const), 1.0)
        assert np.max(np.abs(gap[X.grid >= eps] + const)) <= 1e-9 * scale


def test_rv_gap_zero_when_jump_outside_window():
    S = step_path(1.0, 100, 0.5)
    Y = constant_path(S.grid, 1.0)
    assert np.max(rv_gap(Y, S, 0.1)) == pytest.approx(0.0, abs=1e-15)


def test_rv_gap_decays_for_continuous_start():
    X, _ = sim.simulate(sim.SimSpec("brownian", n=4000, seed=3))
    Y = constant_path(X.grid, 1.0)
    gaps = [abs(reg.rv_window_constant(Y, X, e)) for e in (0.1, 0.05, 0.0125)]
    assert gaps[-1] < gaps[0] + 1e-12
    assert gaps[-1] < 0.1


# -- untruncated covariation (no cap at t) --------------------------------------


def test_continuous_variant_on_constant():
    X = constant_path(uniform_grid(1.0, 64), 1.0)
    assert reg.covariation_continuous(X, X, 0.1).sup_norm() == 0.0


def test_continuous_variant_bound_for_continuous_paths():
    X, _ = sim.simulate(sim.SimSpec("brownian", n=4000, seed=7))
    Y, _ = sim.simulate(sim.SimSpec("brownian", n=4000, seed=8))
    for eps in (0.05, 0.02):
        trunc = reg.covariation(X, Y, eps)
        untrunc = reg.covariation_continuous(X, Y, eps)
        gap = float(np.max(np.abs(trunc.values - untrunc.values)))
        bound = 2.0 * modulus_of_continuity(X, eps) * Y.sup_norm()
        assert gap <= bound


def test_continuous_variant_pointwise_gap_before_a_jump():
    S = step_path(1.0, 400, 0.7)
    g = S.grid
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        trunc = reg.covariation(S, S, eps).values
        untr = reg.covariation_continuous(S, S, eps).values
        m = int(np.searchsorted(g, 0.5))  # strictly before the jump
        gaps.append(abs(trunc[m] - untr[m]))
    assert gaps == sorted(gaps, reverse=True) or max(gaps) < 1e-12


# -- limit driver ----------------------------------------------------------------


def test_ucp_limit_brownian_bracket():
    X, gt = sim.simulate(sim.SimSpec("brownian", n=100000, seed=0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    assert rep.passed
    assert float(np.max(np.abs(rep.limit.values - X.grid))) < 0.05


def test_ucp_limit_constant_converges_to_zero():
    X = constant_path(uniform_grid(1.0, 256), 3.0)
    rep = reg.qv_limit(X, schedule=reg.EpsilonSchedule((0.2, 0.1, 0.05)))
    assert rep.passed
    assert rep.limit.sup_norm() == 0.0
    assert np.all(rep.sup_gaps == 0.0)


def test_single_window_does_not_converge():
    # one window leaves no gap to test, so even a constant path cannot pass
    X = constant_path(uniform_grid(1.0, 256), 3.0)
    rep = reg.qv_limit(X, schedule=reg.EpsilonSchedule((0.1,)))
    assert rep.sup_gaps.size == 0
    assert not rep.passed


def test_ucp_limit_rough_path_does_not_converge():
    X, gt = sim.simulate(sim.SimSpec("fbm", n=2000, seed=1, hurst=0.2))
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    assert not rep.passed
    assert rep.gaps_increasing
    assert rep.sup_gaps[-1] > 1.5 * rep.sup_gaps[0]


@pytest.mark.parametrize("gaps, increasing", [
    # the sup gaps of a Poisson path's qv study at n=4000, whose estimates
    # converge exactly: their order is the order of the last bits
    ((7.46e-13, 7.37e-13, 8.62e-13), True),
    ((0.0, 0.0, 0.0), True),
    ((7.46e-13, 0.05), True),
    ((0.05, 7.46e-13), False),
    ((0.05, 0.03, 0.04), False),
    ((0.03, 0.05), True),
])
def test_gaps_at_round_off_count_as_zero(gaps, increasing):
    # round-off of two 4001-term sums of total 4 is at most 3.6e-12
    limit = constant_path(uniform_grid(1.0, 4000), 4.0)
    rep = reg.LimitReport(epsilons=tuple(0.1 * 0.5 ** k for k in range(len(gaps) + 1)),
                          limit=limit, sup_gaps=np.array(gaps),
                          sup_norms=np.full(len(gaps) + 1, 4.0), tol=0.01,
                          verdicts=(reg.Verdict("cauchy", gaps[-1], 0.04, gaps[-1] < 0.04),))
    assert rep.gaps_increasing is increasing


def test_zero_qv_path_pairs_to_zero_with_finite_qv_path():
    # finite-bracket path against a vanishing-bracket path: estimates decay
    A, gta = sim.simulate(sim.SimSpec("fbm", n=2000, seed=5, hurst=0.8))
    X = sim.brownian_on_grid(A.grid, 21)
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gta.base_dt)
    rep = reg.ucp_limit(reg.covariation, X, A, schedule=sched, tol=0.05)
    assert rep.sup_norms[-1] < 0.05
    assert rep.sup_norms[-1] < rep.sup_norms[0]


def test_forward_limit_agrees_with_leftpoint_reference():
    from pathcalc.ito import (FUNCTION_CATALOG, path_of_function,
                              stieltjes_left)
    from pathcalc.jumps import NormalLaw
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=50000, seed=6,
                                     sigma=1.0, intensity=1.0,
                                     jump_law=NormalLaw(0.0, 1.0)))
    Y = path_of_function(FUNCTION_CATALOG["sin"], X)
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = reg.ucp_limit(lambda A, B, e: reg.forward_integral(B, A, e), X, Y,
                        schedule=sched, tol=0.05)
    reference = stieltjes_left(Y, X)
    gap = float(np.max(np.abs(rep.limit.values - reference.values)))
    assert gap < 0.05


# -- validation ------------------------------------------------------------------


def test_window_width_validation():
    X = linear_path(50)
    with pytest.raises(ValueError):
        reg.forward_integral(constant_path(X.grid, 1.0), X, 1.5)
    with pytest.raises(ValueError):
        reg.covariation(X, X, 0.001)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_every_kernel_takes_the_one_window_fit_rule(eps):
    # one rule for a schedule and a single kernel's width; a NaN width must
    # not reach the mesh and fail there as a PathError
    X = linear_path(50)
    Y = constant_path(X.grid, 1.0)
    for estimate in (lambda: reg._require_fit((eps,), X),
                     lambda: reg.covariation(X, X, eps),
                     lambda: reg.forward_integral(Y, X, eps),
                     lambda: reg.rv_window_constant(Y, X, eps),
                     lambda: reg.weighted_qv(Y, X, eps),
                     lambda: reg.covariation_continuous(X, Y, eps),
                     lambda: reg.forward_integral_rv(Y, X, eps)):
        with pytest.raises(reg.ScheduleError, match="does not fit the grid$"):
            estimate()


def test_schedule_construction_and_snapping():
    with pytest.raises(reg.ScheduleError):
        reg.EpsilonSchedule((0.1, 0.2))
    with pytest.raises(reg.ScheduleError):
        reg.EpsilonSchedule((0.1, -0.05))
    s = reg.EpsilonSchedule.geometric(0.05, 8).snapped(1e-3)
    assert all(abs(e / 1e-3 - round(e / 1e-3)) < 1e-9 for e in s.epsilons)
    X = linear_path(1000)
    with pytest.raises(reg.ScheduleError):
        reg.EpsilonSchedule((0.5, 0.002)).for_path(X, 1e-3)
    # 2^-1074 is the last positive power; more levels are rejected up front
    assert reg.EpsilonSchedule.geometric(1e300, reg.MAX_LEVELS).epsilons[-1] > 0.0
    for levels in (0, -3, reg.MAX_LEVELS + 1, 10**12):
        with pytest.raises(reg.ScheduleError, match="levels must be between"):
            reg.EpsilonSchedule.geometric(0.05, levels)


@pytest.mark.parametrize("eps", [(0.1, math.nan), (math.nan,), (math.inf, 0.1),
                                 (0.1, -math.inf)])
def test_schedule_rejects_non_finite_widths(eps):
    with pytest.raises(reg.ScheduleError):
        reg.EpsilonSchedule(eps)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_snapping_to_a_spacing_that_is_not_positive_is_a_schedule_error(dt):
    with pytest.raises(reg.ScheduleError, match="spacing must be positive"):
        reg.EpsilonSchedule((0.1,)).snapped(dt)


def test_snapping_a_width_whose_cell_count_overflows_is_a_schedule_error():
    # 5e307 / 1e-3 is inf: no integer number of cells, so no finite width
    with pytest.raises(reg.ScheduleError, match="positive and finite"):
        reg.EpsilonSchedule((5e307,)).snapped(1e-3)


def test_schedule_grid_mismatch_in_limit_driver():
    X = linear_path(20)  # spacing 0.05, smallest window below it
    with pytest.raises(reg.ScheduleError):
        reg.qv_limit(X, schedule=reg.EpsilonSchedule((0.2, 0.01)))


# -- a study's buffers ---------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_estimate_that_overflows_is_rejected():
    W = sim.brownian_on_grid(uniform_grid(1.0, 400), 3)
    with pytest.raises(PathError, match="must be finite"):
        reg.covariation(1e160 * W, 1e160 * W, 0.05)


# a jump-free study has plain meshes only; a jump at 0.503 on a grid of
# 1/200 cells puts 0.503 - eps strictly inside a cell for every width below
STUDY_CASES = {"plain": lambda: sim.brownian_on_grid(uniform_grid(1.0, 200), 5),
               "inserted": lambda: (step_path(1.0, 200, 0.503)
                                    + sim.brownian_on_grid(step_path(1.0, 200, 0.503).grid,
                                                           5))}


@pytest.mark.parametrize("kernel", ["_window_sums", "_forward_sums"])
@pytest.mark.parametrize("case", STUDY_CASES)
def test_study_estimates_own_their_arrays(monkeypatch, case, kernel):
    # every window writes the study's scratch in place: what it yields must
    # lie in no buffer of the study nor in another window's estimate, and
    # keep its bits once the study has finished
    X = STUDY_CASES[case]()
    partners = [X, sim.brownian_on_grid(X.grid, 6)]
    if kernel == "_forward_sums":
        # a forward study takes one partner, the integrand
        partners = partners[1:]
    sched = reg.EpsilonSchedule((0.1, 0.05, 0.025, 0.0125))
    studies, plain = [], []
    Study, Mesh = reg._Study, reg._Mesh

    def study(*args):
        studies.append(Study(*args))
        return studies[-1]

    def mesh(*args):
        m = Mesh(*args)
        plain.append(m.plain)
        return m

    monkeypatch.setattr(reg, "_Study", study)
    monkeypatch.setattr(reg, "_Mesh", mesh)
    kept = []
    for ests in reg._windows(X, partners, sched, getattr(reg, kernel)):
        kept.append([(E, E.values.copy(), E.left_values.copy()) for E in ests])
    assert plain == [case == "plain"] * len(sched)
    (s,) = studies
    buffers = [b for b in vars(s.scratch).values() if isinstance(b, np.ndarray)]
    buffers += s.scratch.shifted
    for window, after in zip(kept, kept[1:] + [[]]):
        for E, _, _ in window:
            for arr in (E.values, E.left_values):
                assert not any(np.shares_memory(arr, b) for b in buffers)
                assert not any(np.shares_memory(arr, F.values)
                               or np.shares_memory(arr, F.left_values) for F, _, _ in after)
    for window in kept:
        for E, values, lefts in window:
            assert E.values.tobytes() == values.tobytes()
            assert E.left_values.tobytes() == lefts.tobytes()


def test_a_forward_study_takes_one_partner():
    # the forward sums read the study's first partner, so a second partner's
    # slot would hold the first one's integral: rejected before any window
    X = sim.brownian_on_grid(uniform_grid(1.0, 2000), 1)
    Y1, Y2 = (sim.brownian_on_grid(X.grid, seed) for seed in (2, 3))
    sched = reg.EpsilonSchedule((0.1, 0.05))
    with pytest.raises(ValueError, match="one partner"):
        next(reg._windows(X, [Y1, Y2], sched, reg._forward_sums))
    (only,) = next(reg._windows(X, [Y2], sched, reg._forward_sums))
    assert only.values.tobytes() == reg.forward_integral(Y2, X, 0.1).values.tobytes()


def test_windows_on_a_jump_grid_are_read_by_index(monkeypatch):
    # a simulated jump grid is the lattice plus the jump times: every window
    # of a schedule snapped to the lattice reads the nodes by index, and
    # locates only the points of cells that start at a jump node
    from pathcalc import dirichlet as dd
    from pathcalc.jumps import NormalLaw

    n = 20_000
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=n, seed=100_003, sigma=1.0,
                                     intensity=3.0, jump_law=NormalLaw(0.0, 1.0)))
    assert X.jump_marks.size and X.grid.size == n + 1 + X.jump_marks.size
    sched = reg.EpsilonSchedule.geometric(0.05, 10).snapped(1.0 / n)
    located, by_index = [], reg._Mesh._by_index

    def counted(self, study, u, runs, cuts, past):
        located.append(cuts.size)
        return by_index(self, study, u, runs, cuts, past)

    def refused(self, *args):
        raise AssertionError("a window was located")

    monkeypatch.setattr(reg._Mesh, "_by_index", counted)
    monkeypatch.setattr(reg._Mesh, "_located", refused)
    # the battery's study is of the drift part, which does not jump: it cuts
    # at the grid's jump nodes all the same
    A = gt.decomposition["A"]
    tests = dd.brownian_battery(X)
    assert len(tests) == 3 and not A.jump_marks.size
    for run in (lambda: reg.qv_limit(X, sched, 0.05),
                lambda: dd.orthogonality_battery(A, tests, sched, 0.05),
                lambda: reg._limits(reg._windows(X, [tests[0]], sched, reg._forward_sums),
                                    sched, 0.05)):
        located.clear()
        run()
        assert len(located) == len(sched)
        assert max(located) <= X.jump_marks.size


@pytest.mark.parametrize("kind", ["jump_diffusion", "compound_poisson", "pdp", "step"])
def test_the_off_lattice_nodes_of_a_jump_grid_are_its_inserted_rows(kind):
    # a simulated jump grid is the lattice plus the jump times: for a path
    # that jumps nowhere on it, those rows are the nodes off the lattice,
    # and for the path that jumps there they are its jump rows
    n = 4001
    if kind == "step":
        X = step_path(1.0, n, 0.5)
    else:
        X, _ = sim.simulate(sim.SimSpec(kind, n=n, seed=5, intensity=3.0, switch_rate=3.0))
    inserted = np.flatnonzero(~np.isin(X.grid, uniform_grid(1.0, n)))
    assert 0 < inserted.size <= reg._OFF_NODES
    C = CadlagPath(X.grid, np.sin(X.grid))
    assert reg._Study(C, [C]).off.tolist() == inserted.tolist()
    assert reg._Study(X, [X]).off.size == 0


def test_jump_scenarios_read_every_window_by_index(monkeypatch):
    # the qv study and the chain rule's battery of every jump scenario cut
    # at the jump nodes and locate nothing; the bracket guard's tolerance
    # is loose, as this counts routes, not decisions
    import argparse

    from pathcalc import cli
    from pathcalc import dirichlet as dd
    from pathcalc.catalog import SCENARIOS
    from pathcalc.ito import FUNCTION_CATALOG

    located, windows = [], []
    by_index, locate = reg._Mesh._by_index, reg._Mesh._located

    def counted(self, *args):
        windows.append(1)
        return by_index(self, *args)

    def recorded(self, *args):
        located.append(1)
        return locate(self, *args)

    monkeypatch.setattr(reg._Mesh, "_by_index", counted)
    monkeypatch.setattr(reg._Mesh, "_located", recorded)
    for name in ("poisson", "cp_normal", "jump_diffusion", "pdp", "step"):
        for seed in (0, 1):
            args = argparse.Namespace(eps0=None, levels=None, seed=seed, n=4000)
            (X, gt), sched = cli._run(args, SCENARIOS[name])
            reg.qv_limit(X, sched, 0.05)
            if gt.decomposition is not None:
                dec = dd.LabeledDecomposition.from_ground_truth(gt)
                rep = dd.chain_rule_c01(FUNCTION_CATALOG["square"], X, dec, gt.compensator,
                                        sched, tol=0.5)
                assert len(rep.orth_reports) == 3
    assert not located and len(windows) > 50
