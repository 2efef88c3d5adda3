import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import regularize as reg
from pathcalc.jumps import DiracLaw, NormalLaw, UniformLaw
from pathcalc.simulate import SimSpec, SimulationError, simulate


@pytest.mark.parametrize("kind,kw", [
    ("brownian", dict(sigma=1.0)),
    ("poisson", dict(intensity=2.0)),
    ("compound_poisson", dict(intensity=1.5, jump_law=NormalLaw(0, 1))),
    ("jump_diffusion", dict(sigma=0.7, drift=0.2, intensity=1.0,
                            jump_law=UniformLaw(-0.5, 2.0))),
    ("fbm", dict(hurst=0.7)),
    ("convolution_martingale", {}),
    ("pdp", dict(switch_rate=2.0)),
])
def test_identical_spec_reproduces_bit_identical_paths(kind, kw):
    spec = SimSpec(kind, n=512, seed=99, **kw)
    p1, g1 = simulate(spec)
    p2, g2 = simulate(spec)
    assert np.array_equal(p1.grid, p2.grid)
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(g1.jump_times, g2.jump_times)


@pytest.mark.parametrize("kind,kw", [
    ("poisson", dict(intensity=3.0)),
    ("compound_poisson", dict(intensity=2.0, jump_law=NormalLaw(0, 1))),
    ("jump_diffusion", dict(sigma=1.0, intensity=2.0, jump_law=NormalLaw(0, 1))),
    ("pdp", dict(switch_rate=3.0)),
])
def test_jump_log_matches_marked_jumps(kind, kw):
    path, gt = simulate(SimSpec(kind, n=512, seed=7, **kw))
    assert np.array_equal(gt.jump_times, path.jump_times)
    assert np.allclose(gt.jump_sizes, path.jump_sizes, atol=1e-12)


def test_spec_validation():
    with pytest.raises(SimulationError):
        SimSpec("nope")
    with pytest.raises(SimulationError):
        SimSpec("brownian", sigma=-1.0)
    with pytest.raises(SimulationError):
        SimSpec("fbm", hurst=1.2)
    with pytest.raises(SimulationError):
        SimSpec("brownian", n=1)
    SimSpec("brownian", n=sim.MAX_CELLS)
    with pytest.raises(SimulationError, match="at most"):
        SimSpec("brownian", n=sim.MAX_CELLS + 1)
    for T in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(SimulationError, match="horizon must be positive and finite"):
            SimSpec("poisson", T=T)
    for name in ("x0", "sigma", "drift"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            if name == "sigma" and bad < 0.0:
                continue  # a negative volatility is rejected as such
            with pytest.raises(SimulationError, match=f"^{name} must be finite$"):
                SimSpec("jump_diffusion", **{name: bad})
    with pytest.raises(SimulationError, match="switch rate must be nonnegative"):
        SimSpec("pdp", switch_rate=-1.0)
    SimSpec("pdp", switch_rate=0.0)


@pytest.mark.parametrize("n,message", [
    (2.5, "whole number"), (1000.5, "whole number"), (float("nan"), "whole number"),
    (float("inf"), "at most"), pytest.param(10 ** 400, "at most", id="beyond-float")])
def test_grid_cells_that_are_not_a_whole_number_are_rejected(n, message):
    with pytest.raises(SimulationError, match=message):
        SimSpec("brownian", n=n)


@pytest.mark.parametrize("n", [8, np.int64(8), 8.0])
@pytest.mark.parametrize("kind", ["brownian", "convolution_martingale"])
def test_whole_grid_cells_of_any_number_type_pass(kind, n):
    spec = SimSpec(kind, n=n)
    assert spec.n == 8 and type(spec.n) is int
    assert simulate(spec)[0].n_points == 9


# -- brownian -------------------------------------------------------------------


def test_brownian_has_no_jumps_and_zero_sigma_is_constant():
    p, _ = simulate(SimSpec("brownian", n=1000, seed=1))
    assert p.sum_squared_jumps() == 0.0
    flat, _ = simulate(SimSpec("brownian", n=100, seed=1, sigma=0.0, x0=2.0))
    assert flat.sup_norm() == 2.0
    assert np.all(flat.values == 2.0)


def test_brownian_squared_increment_concentration():
    # sum of squared increments over [0, 1] concentrates at sigma^2
    hits = 0
    for seed in range(100):
        p, _ = simulate(SimSpec("brownian", n=100000, seed=seed))
        ssq = float(np.sum(np.diff(p.values) ** 2))
        hits += 0.97 < ssq < 1.03
    assert hits >= 95


# -- counting processes -----------------------------------------------------------


def test_poisson_jump_count_mean():
    counts = [len(simulate(SimSpec("poisson", n=16, seed=s, intensity=2.0))[1]
                  .jump_times) for s in range(10000)]
    assert 1.95 < np.mean(counts) < 2.05


def test_poisson_unit_jumps_square_sum_is_count():
    p, gt = simulate(SimSpec("poisson", n=256, seed=5, intensity=2.0))
    assert p.sum_squared_jumps() == p.values[-1]
    assert np.all(gt.jump_sizes == 1.0)


def test_jump_times_strictly_increasing_and_marked():
    p, gt = simulate(SimSpec("compound_poisson", n=256, seed=8, intensity=5.0,
                             jump_law=NormalLaw(0, 1)))
    assert np.all(np.diff(gt.jump_times) > 0)
    assert np.array_equal(p.grid[p.jump_marks], gt.jump_times)


def test_expected_arrival_count_is_capped():
    cap = sim.MAX_EXPECTED_ARRIVALS
    SimSpec("compound_poisson", intensity=cap)
    SimSpec("pdp", switch_rate=cap / 2.0, T=2.0)
    for kw in ({"intensity": 1e9}, {"intensity": cap, "T": 2.0},
               {"switch_rate": 2.0 * cap}, {"intensity": float("nan")},
               {"switch_rate": float("nan")}):
        with pytest.raises(SimulationError, match="arrivals"):
            SimSpec("compound_poisson", **kw)


def test_nonpositive_intensity_rejected():
    with pytest.raises(SimulationError):
        simulate(SimSpec("poisson", n=64, seed=0, intensity=0.0))


# -- jump diffusion ----------------------------------------------------------------


def _same_path(p, q):
    return (np.array_equal(p.grid, q.grid) and np.array_equal(p.values, q.values)
            and np.array_equal(p.left_values, q.left_values))


def test_jump_diffusion_degenerate_parameter_cases():
    for seed in range(20):
        pure_jump, _ = simulate(SimSpec("jump_diffusion", n=128, seed=seed,
                                        sigma=0.0, drift=0.0, intensity=2.0,
                                        jump_law=DiracLaw(1.0)))
        cp, _ = simulate(SimSpec("compound_poisson", n=128, seed=seed,
                                 intensity=2.0, jump_law=DiracLaw(1.0)))
        counting, _ = simulate(SimSpec("poisson", n=128, seed=seed, intensity=2.0))
        assert _same_path(pure_jump, cp) and _same_path(cp, counting)

        no_jumps, _ = simulate(SimSpec("jump_diffusion", n=128, seed=seed,
                                       sigma=0.7, intensity=0.0, x0=0.5))
        bm, _ = simulate(SimSpec("brownian", n=128, seed=seed, sigma=0.7, x0=0.5))
        assert _same_path(no_jumps, bm)

    line, _ = simulate(SimSpec("jump_diffusion", n=128, seed=3, sigma=0.0,
                               drift=1.0, intensity=0.0, x0=0.5))
    assert np.allclose(line.values, 0.5 + line.grid)


def test_jump_diffusion_bracket_oracle():
    spec = SimSpec("jump_diffusion", n=50000, seed=10, sigma=1.0, intensity=1.0,
                   jump_law=NormalLaw(0, 1))
    X, gt = simulate(spec)
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    target = gt.bracket.values
    assert float(np.max(np.abs(rep.limit.values - target))) < 0.08
    assert gt.bracket.values[-1] == pytest.approx(
        spec.sigma ** 2 + X.sum_squared_jumps())


def test_decomposition_components_sum_to_path():
    X, gt = simulate(SimSpec("jump_diffusion", n=512, seed=2, sigma=0.5,
                             drift=0.1, intensity=2.0, jump_law=NormalLaw(0, 1)))
    total = sum(gt.decomposition[k].values for k in ("M_c", "M_d", "A"))
    assert np.max(np.abs(total - X.values)) < 1e-10


# -- gaussian exact-covariance path -------------------------------------------------


def test_fbm_half_reduces_to_brownian_covariance():
    grid = sim.uniform_grid(1.0, 64)
    t = grid[1:]
    cov = 0.5 * (t[:, None] + t[None, :] - np.abs(t[:, None] - t[None, :]))
    assert np.allclose(cov, np.minimum(t[:, None], t[None, :]))


def test_fbm_smooth_exponent_qv_decays_to_zero():
    X, gt = simulate(SimSpec("fbm", n=2000, seed=2, hurst=0.8))
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    assert rep.sup_norms[-1] < rep.sup_norms[0]
    assert rep.sup_norms[-1] < 0.1
    assert gt.bracket is not None and gt.bracket.sup_norm() == 0.0


def test_fbm_rough_exponent_qv_grows():
    X, gt = simulate(SimSpec("fbm", n=2000, seed=2, hurst=0.2))
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    assert not rep.passed
    assert np.all(np.diff(rep.sup_norms) > 0)
    assert gt.bracket_divergent


def test_fbm_dense_sampler_size_cap():
    with pytest.raises(SimulationError):
        simulate(SimSpec("fbm", n=100000, seed=0, hurst=0.3))


# -- moving-average martingale -------------------------------------------------------


def test_convolution_path_is_continuous():
    p, gt = simulate(SimSpec("convolution_martingale", n=512, seed=4))
    assert p.jump_marks.size == 0
    assert gt.bracket.values[-1] == pytest.approx(0.5)


def test_convolution_bracket_monte_carlo_mean():
    vals = []
    for seed in range(60):
        X, gt = simulate(SimSpec("convolution_martingale", n=2000, seed=seed))
        sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
        rep = reg.qv_limit(X, schedule=sched, tol=0.05)
        vals.append(rep.limit.values[-1])
    assert 0.45 < np.mean(vals) < 0.55


# -- piecewise deterministic paths ----------------------------------------------------


def test_pdp_constant_regimes_give_pure_steps():
    regimes = (lambda t: np.full(np.shape(t), 1.0),
               lambda t: np.full(np.shape(t), -0.5),
               lambda t: np.full(np.shape(t), 2.0))
    X, gt = simulate(SimSpec("pdp", n=256, seed=6, switch_rate=3.0,
                             regimes=regimes))
    inner = (X.grid > 0) & (X.grid < 1)
    off_jump = inner & ~np.isin(np.arange(X.grid.size), X.jump_marks)
    vals = X.values
    assert np.all(np.isin(np.round(vals, 12), [1.0, -0.5, 2.0]))
    assert np.array_equal(gt.regime_bounds, X.jump_times)
    # constant between switches
    assert np.all(np.abs(np.diff(vals)[np.diff(vals) != 0]) > 0.1)


def test_pdp_single_linear_regime_has_no_jumps():
    X, gt = simulate(SimSpec("pdp", n=128, seed=999, switch_rate=1e-9,
                             regimes=(lambda t: np.asarray(t),)))
    assert X.jump_marks.size == 0
    assert np.allclose(X.values, X.grid)


def test_deterministic_kind():
    X, gt = simulate(SimSpec("deterministic", n=64, seed=0,
                             regimes=(lambda t: np.sin(t),)))
    assert np.allclose(X.values, np.sin(X.grid))
    with pytest.raises(SimulationError):
        simulate(SimSpec("deterministic", n=64, seed=0))


def test_a_constant_regime_builds_a_deterministic_path():
    # a regime is its formula: a plain number is broadcast to the grid
    X, _ = simulate(SimSpec("deterministic", n=10, x0=1.0, regimes=(lambda t: 1.5,)))
    assert X.values.tolist() == [2.5] * 11
    assert X.jump_marks.size == 0
