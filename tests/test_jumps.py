import math
import tracemalloc

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import jumps as jm
from pathcalc import regularize as reg
from pathcalc.ito import (C12_SUITE, FUNCTION_CATALOG, increment_field,
                          linear_jump_field, taylor_remainder_field)
from pathcalc.paths import from_arrays, uniform_grid

from oracles import ONE_FIELD


def two_jump_path():
    """Jumps of size 0.5 at t=0.3 and 2.0 at t=0.7."""
    grid = np.union1d(uniform_grid(1.0, 50), [0.3, 0.7])
    v = np.where(grid >= 0.3, 0.5, 0.0) + np.where(grid >= 0.7, 2.0, 0.0)
    l = np.where(grid > 0.3, 0.5, 0.0) + np.where(grid > 0.7, 2.0, 0.0)
    return from_arrays(grid, v, l, rule="pc")


# -- integrals against the jump measure ------------------------------------------


def test_integrate_mu_squares_is_running_jump_energy():
    X = two_jump_path()
    P = jm.integrate_mu(jm.X_SQUARED_FIELD, X)
    assert P.value_at(0.2) == 0.0
    assert P.value_at(0.5) == pytest.approx(0.25)
    assert P.value_at(1.0) == pytest.approx(4.25)
    assert P.value_at(1.0) == pytest.approx(X.sum_squared_jumps())


def test_integrate_mu_big_jump_truncation():
    X = two_jump_path()
    big = jm.integrate_mu(jm.X_FIELD.with_truncation("big"), X)
    assert big.jumps() == [(0.7, 2.0)]
    assert big.value_at(0.5) == 0.0


def test_integrate_mu_counting_field():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=128, seed=2, intensity=3.0))
    N = jm.integrate_mu(ONE_FIELD, X)
    assert np.array_equal(N.values, X.values)


def test_truncation_partition_is_exact():
    X = two_jump_path()
    full = jm.integrate_mu(jm.X_FIELD, X)
    small = jm.integrate_mu(jm.X_FIELD.with_truncation("small"), X)
    big = jm.integrate_mu(jm.X_FIELD.with_truncation("big"), X)
    assert np.array_equal(small.values + big.values, full.values)


def test_integrate_mu_linearity():
    X, _ = sim.simulate(sim.SimSpec("compound_poisson", n=256, seed=9,
                                    intensity=4.0, jump_law=jm.NormalLaw(0, 1)))
    f1, f2 = jm.X_FIELD, jm.X_SQUARED_FIELD
    mixed = jm.IntegrandField(lambda t, x, p: 2.0 * x + 3.0 * x * x)
    lhs = jm.integrate_mu(mixed, X).values
    rhs = 2.0 * jm.integrate_mu(f1, X).values + 3.0 * jm.integrate_mu(f2, X).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- integrals against the compensator --------------------------------------------


def test_nu_point_mass_small_field_is_linear_drift():
    X = two_jump_path()
    nu = jm.CompensatorSpec.poisson(2.0)
    path = jm.integrate_nu(jm.X_FIELD.with_truncation("small"), nu, X)
    assert path.value_at(1.0) == pytest.approx(2.0, abs=1e-12)
    assert path.value_at(0.5) == pytest.approx(1.0, abs=1e-12)


def test_nu_symmetric_density_odd_field_vanishes():
    X = two_jump_path()
    nu = jm.CompensatorSpec.compound_poisson(1.5, jm.NormalLaw(0, 1))
    path = jm.integrate_nu(jm.X_FIELD, nu, X)
    assert abs(path.value_at(1.0)) < 1e-9


def test_nu_zero_field_gives_zero_path():
    X = two_jump_path()
    nu = jm.CompensatorSpec.compound_poisson(1.5, jm.NormalLaw(0, 1))
    zero = jm.IntegrandField(lambda t, x, p: np.zeros(np.broadcast(t, x).shape))
    assert jm.integrate_nu(zero, nu, X).sup_norm() == 0.0


def test_nu_truncated_second_moment_closed_form():
    X = two_jump_path()
    lam = 1.5
    nu = jm.CompensatorSpec.compound_poisson(lam, jm.NormalLaw(0, 1))
    got = jm.integrate_nu(jm.X_SQUARED_FIELD.with_truncation("small"), nu, X)
    truncated_second_moment = (math.erf(1.0 / math.sqrt(2.0))
                               - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi))
    assert got.value_at(1.0) == pytest.approx(lam * truncated_second_moment,
                                              rel=1e-7)


def test_nu_quadrature_failure_detected():
    X = two_jump_path()
    nu = jm.CompensatorSpec.compound_poisson(1.0, jm.UniformLaw(-1.0, 1.0))
    blowup = jm.IntegrandField(lambda t, x, p: 1.0 / np.abs(x))
    with pytest.raises((jm.QuadratureError, FloatingPointError)):
        with np.errstate(divide="raise"):
            jm.integrate_nu(blowup, nu, X)


def test_nu_refines_an_oscillating_field_past_64_panels():
    # cos(300 x) on [-1, 1] first meets the tolerance at 128 G7/K15 panels,
    # so the panel doubling must run past 64 and stop below its 512 cap
    X = two_jump_path()
    lam = 1.5
    nu = jm.CompensatorSpec.compound_poisson(lam, jm.UniformLaw(-1.0, 1.0))
    got = jm.integrate_nu(jm.field_from_size(lambda x: np.cos(300.0 * x)), nu, X)
    want = lam * X.grid * math.sin(300.0) / 300.0
    assert np.max(np.abs(got.values - want)) <= 1e-9


def test_kronrod_table_is_exact_and_embeds_gauss7():
    x, wk, wg = jm._K15_NODES, jm._K15_WEIGHTS, jm._G7_WEIGHTS
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(wk @ x ** k) - exact) <= 1e-15
    gx, gw = np.polynomial.legendre.leggauss(7)
    assert np.max(np.abs(x[1::2] - gx)) <= 1e-15
    assert np.max(np.abs(wg[1::2] - gw)) <= 1e-15
    assert np.all(wg[::2] == 0.0)


_ORACLE_LAWS = (jm.NormalLaw(0.0, 1.0), jm.NormalLaw(0.5, 2.0),
                jm.UniformLaw(-1.0, 1.0), jm.UniformLaw(-0.5, 3.0),
                jm.UniformLaw(0.2, 0.9))


@pytest.mark.parametrize("fname", C12_SUITE)
@pytest.mark.parametrize("law", _ORACLE_LAWS, ids=lambda law: law.describe())
def test_nu_matches_adaptive_quadrature_oracle(law, fname):
    integrate = pytest.importorskip("scipy.integrate")
    F = FUNCTION_CATALOG[fname]
    grid = np.array([0.0, 0.25, 0.5, 1.0])
    X = from_arrays(grid, [0.3, -0.4, 1.2, 0.7], [0.3, -0.4, 0.5, 0.7])
    pre = [0.3, -0.4, 0.5]
    lo, hi = law.support
    cut = jm.JUMP_SPLIT_THRESHOLD
    breaks = [c for c in (-cut, cut) if lo < c < hi]
    nu = jm.CompensatorSpec.compound_poisson(1.0, law)
    for make in (increment_field, linear_jump_field, taylor_remainder_field):
        for truncation in (None, "small", "big"):
            field = make(F, truncation)
            expected = [0.0]
            for s, x_pre, dt in zip(grid[:-1], pre, np.diff(grid)):
                def integrand(x):
                    return float(field(s, np.float64(x), x_pre)) * float(law.density(x))
                g, _ = integrate.quad(integrand, lo, hi, points=breaks or None,
                                      epsabs=1e-13, epsrel=1e-13, limit=200)
                expected.append(expected[-1] + dt * g)
            got = jm.integrate_nu(field, nu, X)
            assert np.max(np.abs(got.values - expected)) <= 1e-9, (make.__name__,
                                                                    truncation)


@pytest.mark.parametrize("field", [
    taylor_remainder_field(FUNCTION_CATALOG["sin"], "big"),
    increment_field(FUNCTION_CATALOG["square"], "small")],
    ids=["sin-taylor-big", "square-increment-small"])
def test_size_marginal_is_independent_of_the_row_blocks(field, monkeypatch):
    integrate = pytest.importorskip("scipy.integrate")
    # the first full batch of a jump-diffusion path, as integrate_nu builds it
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=jm._NU_CHUNK, seed=1,
                                     sigma=1.0, intensity=3.0,
                                     jump_law=jm.NormalLaw(0, 1)))
    t = X.grid[:-1][:jm._NU_CHUNK]
    pre = np.concatenate(([X.values[0]], X.left_values[1:-1]))[:jm._NU_CHUNK]
    nu = gt.compensator
    assert t.size == jm._NU_CHUNK and X.jump_marks.size
    got = jm._size_marginal(field, nu.law, t, pre)
    monkeypatch.setattr(jm, "_NU_BLOCK", 1)
    one_row = jm._size_marginal(field, nu.law, t, pre)
    assert np.max(np.abs(got - one_row)) <= 1e-14 * np.max(np.abs(one_row))
    # rows of the first, a middle and the last block at every level
    lo, hi = nu.law.support
    for i in (0, 1, t.size // 2, t.size - 2, t.size - 1):
        g, _ = integrate.quad(
            lambda x: float(field(t[i], np.float64(x), pre[i])) * float(nu.law.density(x)),
            lo, hi, points=[-1.0, 1.0], epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(got[i] - g) <= 1e-9, i


@pytest.mark.parametrize("fn, message", [
    (lambda x: np.inf * x, "diverged"),
    # 512 panels leave about 20 radians of cos(5000 x) per panel
    (lambda x: np.cos(5000.0 * x), "did not reach the tolerance")],
    ids=["diverged", "not-converged"])
def test_quadrature_error_in_the_last_block_is_raised(fn, message):
    t = uniform_grid(1.0, jm._NU_CHUNK)[:-1]
    assert t.size > jm._NU_BLOCK // 15  # the last row is past the first block
    pre = np.zeros(t.size)
    pre[-1] = 1.0
    field = jm.IntegrandField(lambda s, x, p: np.where(p > 0.5, fn(x), x * x))
    with pytest.raises(jm.QuadratureError, match=message), \
            np.errstate(invalid="ignore"):
        jm._size_marginal(field, jm.UniformLaw(-1.0, 1.0), t, pre)


def test_tolerance_scale_is_the_largest_over_every_block():
    # the last row's L1 mass sets the tolerance of the whole batch, so the
    # oscillating rows stop at one panel instead of refining to 128
    t = uniform_grid(1.0, jm._NU_CHUNK)[:-1]
    pre = np.zeros(t.size)
    pre[-1] = 1.0
    sizes = []

    def fn(s, x, p):
        sizes.append(x.size)
        return np.where(p > 0.5, 1e10, np.cos(300.0 * x))

    jm._size_marginal(jm.IntegrandField(fn), jm.UniformLaw(-1.0, 1.0), t, pre)
    assert set(sizes) == {15}


def test_size_quadrature_memory_stays_flat_past_64_panels():
    # cos(300 x) needs 128 panels; read through x_pre, one 8192 x 1920
    # matrix of field values would take 126 MB
    grid = uniform_grid(1.0, jm._NU_CHUNK)
    X = from_arrays(grid, np.sin(grid), np.sin(grid))
    nu = jm.CompensatorSpec.compound_poisson(1.5, jm.UniformLaw(-1.0, 1.0))
    field = jm.IntegrandField(lambda t, x, p: np.cos(300.0 * x) + 0.0 * p)
    tracemalloc.start()
    try:
        got = jm.integrate_nu(field, nu, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    want = 1.5 * grid * math.sin(300.0) / 300.0
    assert np.max(np.abs(got.values - want)) <= 1e-9


def test_size_only_field_is_evaluated_once_per_level():
    # its one row of values serves every row block of the batch
    sizes = []
    field = jm.field_from_size(lambda x: sizes.append(x.size) or np.cos(300.0 * x))
    grid = uniform_grid(1.0, jm._NU_CHUNK)
    X = from_arrays(grid, np.zeros(grid.size), np.zeros(grid.size))
    nu = jm.CompensatorSpec.compound_poisson(1.0, jm.UniformLaw(-1.0, 1.0))
    jm.integrate_nu(field, nu, X)
    assert sizes == [15 * 2 ** k for k in range(8)]


def test_small_field_is_never_evaluated_on_big_jumps():
    X = two_jump_path()
    nu = jm.CompensatorSpec.compound_poisson(1.5, jm.NormalLaw(0, 1))
    nan_outside = jm.IntegrandField(
        lambda t, x, p: np.where(np.abs(x) <= 1.0, x * x, np.nan), "small")
    got = jm.integrate_nu(nan_outside, nu, X)
    want = jm.integrate_nu(jm.X_SQUARED_FIELD.with_truncation("small"), nu, X)
    assert np.all(np.isfinite(got.values))
    assert np.array_equal(got.values, want.values)


def test_fully_truncated_field_gives_exact_zero_path():
    X = two_jump_path()
    nu = jm.CompensatorSpec.compound_poisson(1.5, jm.UniformLaw(-0.5, 0.5))
    path = jm.integrate_nu(jm.X_FIELD.with_truncation("big"), nu, X)
    assert path.sup_norm() == 0.0


def test_user_supplied_rate_function():
    X = two_jump_path()
    nu = jm.CompensatorSpec.user_supplied(lambda t: 2.0 * np.asarray(t),
                                          jm.DiracLaw(1.0))
    got = jm.integrate_nu(jm.X_FIELD, nu, X)
    # int_0^1 2 s ds = 1 up to the left-endpoint bias
    assert got.value_at(1.0) == pytest.approx(1.0, abs=0.05)


def test_user_supplied_time_atom():
    X = two_jump_path()
    nu = jm.CompensatorSpec.user_supplied(0.0, jm.DiracLaw(1.0),
                                          atoms=((0.3, jm.DiracLaw(2.0), 1.0),))
    got = jm.integrate_nu(jm.X_FIELD, nu, X)
    assert got.value_at(0.2) == 0.0
    assert got.value_at(0.3) == pytest.approx(2.0)
    assert got.left_limit(0.3) == 0.0


# -- compensated integrals ----------------------------------------------------------


def test_compensated_poisson_is_count_minus_drift():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=512, seed=5, intensity=2.0))
    comp = jm.compensated_integral(jm.X_FIELD, X, gt.compensator)
    expected = X.values - 2.0 * X.grid
    assert np.max(np.abs(comp.values - expected)) < 1e-12


def test_compensated_integral_zero_field():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=128, seed=5, intensity=2.0))
    zero = jm.IntegrandField(lambda t, x, p: np.zeros(np.broadcast(t, x).shape))
    assert jm.compensated_integral(zero, X, gt.compensator).sup_norm() == 0.0


def test_compensated_terminal_value_centers_at_zero():
    # martingale property surrogate: the Monte Carlo mean of the terminal
    # value sits within three standard errors of zero
    lam, law = 2.0, jm.NormalLaw(0.0, 1.0)
    terminal = []
    for seed in range(2000):
        X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=16, seed=seed,
                                         intensity=lam, jump_law=law))
        small_sum = float(np.sum(X.jump_sizes[np.abs(X.jump_sizes) <= 1.0]))
        drift = lam * _truncated_mean_normal()
        terminal.append(small_sum - drift)
    se = np.std(terminal) / np.sqrt(len(terminal))
    assert abs(np.mean(terminal)) < 3.0 * se


def _truncated_mean_normal():
    # E[x 1_{|x|<=1}] = 0 for the standard normal
    return 0.0


def test_compensated_small_field_quadrature_consistency():
    lam, law = 2.0, jm.NormalLaw(0.0, 1.0)
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=64, seed=3,
                                     intensity=lam, jump_law=law))
    comp = jm.compensated_integral(jm.X_FIELD.with_truncation("small"), X,
                                   gt.compensator)
    small_sum = float(np.sum(X.jump_sizes[np.abs(X.jump_sizes) <= 1.0]))
    assert comp.value_at(1.0) == pytest.approx(small_sum, abs=1e-7)


def test_pure_jump_bracket_against_integral_path():
    # bounded-variation pure-jump pairing: the converged covariation of the
    # source path with an integral path equals the sum of common jumps
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=20000, seed=21,
                                     intensity=3.0, jump_law=jm.NormalLaw(0, 1)))
    V = jm.integrate_mu(jm.X_SQUARED_FIELD, X)
    sched = reg.EpsilonSchedule.geometric(0.05, 3).snapped(gt.base_dt)
    rep = reg.ucp_limit(reg.covariation, X, V, schedule=sched, tol=0.05)
    target = float(np.sum(X.jump_sizes ** 3))
    assert rep.limit.values[-1] == pytest.approx(target, abs=1e-10)


# -- diagnostics ----------------------------------------------------------------------


def test_integrability_report_continuous_path():
    X, _ = sim.simulate(sim.SimSpec("brownian", n=256, seed=1))
    rep = jm.integrability_report(X)
    assert rep.squared_jump_total == 0.0
    assert rep.big_jump_abs_total == 0.0
    assert rep.square_summable and rep.big_jumps_summable


def test_integrability_report_two_jumps():
    rep = jm.integrability_report(two_jump_path())
    assert rep.big_jump_abs_total == pytest.approx(2.0)
    assert rep.squared_jump_total == pytest.approx(4.25)
    assert rep.big_jump_count == 1


def test_integrability_report_with_bounded_derivative_function():
    from pathcalc.ito import FUNCTION_CATALOG
    rep = jm.integrability_report(two_jump_path(), FUNCTION_CATALOG["sin"])
    assert rep.taylor_big_jump_total is not None
    assert rep.taylor_remainder_summable


def test_jump_law_parsing():
    assert isinstance(jm.parse_jump_law("dirac:2"), jm.DiracLaw)
    law = jm.parse_jump_law("normal:0.5,2")
    assert law.loc == 0.5 and law.scale == 2.0
    assert isinstance(jm.parse_jump_law("uniform:-1,3"), jm.UniformLaw)
    with pytest.raises(ValueError):
        jm.parse_jump_law("cauchy:0,1")


def test_jump_law_parsing_takes_at_most_the_laws_parameters():
    assert jm.parse_jump_law("normal:2") == jm.NormalLaw(2.0, 1.0)
    assert jm.parse_jump_law("uniform") == jm.UniformLaw(-1.0, 1.0)
    with pytest.raises(ValueError, match="'uniform:0,1,2' has 3 parameters; "
                                         "uniform takes at most 2"):
        jm.parse_jump_law("uniform:0,1,2")


@pytest.mark.parametrize("make", [
    lambda v: jm.DiracLaw(v), lambda v: jm.NormalLaw(v, 1.0),
    lambda v: jm.NormalLaw(0.0, v), lambda v: jm.UniformLaw(v, 1.0),
    lambda v: jm.UniformLaw(-1.0, v)])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_jump_laws_reject_non_finite_parameters(make, value):
    with pytest.raises(ValueError, match="finite"):
        make(value)
