import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import dirichlet, ito
from pathcalc import jumps as jmod
from pathcalc import regularize as reg
from pathcalc.ito import (FUNCTION_CATALOG, BundleValidationError,
                          FunctionBundle, NonConvergenceError)
from pathcalc.jumps import NormalLaw
from pathcalc.paths import constant_path, from_arrays, uniform_grid

from oracles import linear_combination

SCHED_1E5 = reg.EpsilonSchedule.geometric(0.05, 8).snapped(1e-5)


def brownian(seed=2, n=20000):
    X, gt = sim.simulate(sim.SimSpec("brownian", n=n, seed=seed))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    return X, sched


def jump_diffusion(seed=4, n=20000):
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=n, seed=seed, sigma=1.0,
                                     intensity=1.0, jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    return X, gt, sched


def two_step_path():
    """Jump 0.1 at t=0.03 (inside the final window) and 1.0 at t=0.6."""
    g = np.union1d(uniform_grid(1.0, 200), [0.03, 0.6])
    v = np.where(g >= 0.03, 0.1, 0.0) + np.where(g >= 0.6, 1.0, 0.0)
    l = np.where(g > 0.03, 0.1, 0.0) + np.where(g > 0.6, 1.0, 0.0)
    return from_arrays(g, v, l, rule="pc")


# -- bundles -------------------------------------------------------------------


def test_catalog_derivatives_agree_with_finite_differences():
    for F in FUNCTION_CATALOG.values():
        F.validate_derivatives((0.02, 1.0), (-2.0, 2.0))


def test_wrong_derivative_is_caught():
    bad = FunctionBundle(
        "bad", "c12",
        f=lambda t, x: np.asarray(x) ** 2 + 0.0 * np.asarray(t),
        dt=lambda t, x: np.zeros(np.broadcast(t, x).shape),
        dx=lambda t, x: 2.5 * np.asarray(x),
        dxx=lambda t, x: np.full(np.broadcast(t, x).shape, 2.0))
    with pytest.raises(BundleValidationError):
        bad.validate_derivatives((0, 1), (-2, 2))


def test_bundle_class_requirements():
    with pytest.raises(ValueError):
        FunctionBundle("f", "c12", f=lambda t, x: x)
    with pytest.raises(ValueError):
        FunctionBundle("f", "weird", f=lambda t, x: x, dx=lambda t, x: x)


def test_wrong_class_rejected_by_harness():
    X, sched = brownian(n=4000)
    with pytest.raises(ValueError):
        ito.ito_terms_c12(FUNCTION_CATALOG["rough_time"], X, sched, tol=0.05)


# -- continuous bracket part -----------------------------------------------------


def test_qv_continuous_part_poisson_is_zero():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=20000, seed=5, intensity=2.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    qvc = ito.qv_continuous_part(X, sched, tol=0.05)
    assert qvc.sup_norm() < 1e-10


def test_qv_continuous_part_brownian_is_time():
    X, sched = brownian(n=50000)
    qvc = ito.qv_continuous_part(X, sched, tol=0.05)
    assert float(np.max(np.abs(qvc.values - X.grid))) < 0.05
    assert np.min(np.diff(qvc.values)) >= 0.0


def test_qv_continuous_part_jump_diffusion_is_time():
    X, gt, sched = jump_diffusion(n=50000)
    qvc = ito.qv_continuous_part(X, sched, tol=0.05)
    assert float(np.max(np.abs(qvc.values - X.grid))) < 0.08


def test_qv_continuous_part_requires_convergence():
    X, gt = sim.simulate(sim.SimSpec("fbm", n=2000, seed=1, hurst=0.2))
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
    with pytest.raises(NonConvergenceError, match="bracket estimate did not converge"):
        ito.qv_continuous_part(X, sched)
    # the bracket guard comes before the decomposition is read
    with pytest.raises(NonConvergenceError, match="bracket estimate did not converge"):
        dirichlet.chain_rule_c01(FUNCTION_CATALOG["square"], X,
                                 dirichlet.LabeledDecomposition(), schedule=sched)


def fbm02():
    X, gt = sim.simulate(sim.SimSpec("fbm", n=2000, seed=1, hurst=0.2))
    return X, reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)


@pytest.mark.parametrize("case", [brownian, lambda: jump_diffusion()[::2], fbm02],
                         ids=["brownian", "jump_diffusion", "fbm02"])
def test_bracket_guard_matches_the_full_study(case):
    # the guard evaluates two windows; its verdict and limit are the full
    # study's, bit for bit
    X, sched = case()
    full = reg.qv_limit(X, schedule=sched, tol=0.05)
    if not full.converged:
        with pytest.raises(NonConvergenceError):
            ito.qv_continuous_part(X, sched, tol=0.05)
        return
    bracket = ito._converged_bracket(X, sched, 0.05)
    assert bracket.values.tobytes() == full.limit.values.tobytes()
    assert bracket.left_values.tobytes() == full.limit.left_values.tobytes()
    raw = full.limit.values - jmod.integrate_mu(jmod.X_SQUARED_FIELD, X).values
    mono = np.maximum.accumulate(np.maximum(raw, 0.0))
    mono[0] = 0.0
    assert ito.qv_continuous_part(X, sched, tol=0.05).values.tobytes() == mono.tobytes()


def test_bracket_guard_evaluates_two_windows(monkeypatch):
    # and each harness builds only the compensator integrals it reads: the
    # three jump harnesses share 4 distinct ones, which jump_identities
    # builds once each
    X, gt, sched = jump_diffusion(n=4000)
    assert X.jump_marks.size
    dec = dirichlet.LabeledDecomposition.from_ground_truth(gt)
    nu = gt.compensator
    calls = []
    nu_calls = []

    def counting(A, B, eps):
        calls.append(eps)
        return covariation(A, B, eps)

    def counting_nu(field, nu, X):
        nu_calls.append(field)
        return integrate_nu(field, nu, X)

    covariation = reg.covariation
    integrate_nu = jmod.integrate_nu
    monkeypatch.setattr(reg, "covariation", counting)
    monkeypatch.setattr(jmod, "integrate_nu", counting_nu)
    F = FUNCTION_CATALOG["square"]
    for run, nu_count in (
            (lambda: ito.qv_continuous_part(X, sched, tol=0.05), 0),
            (lambda: ito.ito_terms_measure_form(F, X, nu, sched, tol=0.05), 3),
            (lambda: dirichlet.gamma_c12_reference(F, X, dec, nu, sched,
                                                   tol=0.05), 1),
            # the orthogonality battery makes no covariation call
            (lambda: dirichlet.chain_rule_c01(F, X, dec, nu, sched, tol=0.05), 3),
            (lambda: dirichlet.jump_identities(F, X, dec, nu, sched, tol=0.05), 4)):
        calls.clear()
        nu_calls.clear()
        run()
        assert calls == list(sched.epsilons[-2:])
        assert len(nu_calls) == nu_count


def test_one_window_bracket_guard_never_converges():
    X, sched = brownian(n=4000)
    assert reg.qv_limit(X, schedule=sched, tol=0.05).converged
    with pytest.raises(NonConvergenceError):
        ito.qv_continuous_part(X, reg.EpsilonSchedule(sched.epsilons[-1:]), tol=0.05)


def test_bracket_guard_checks_every_window_fits():
    # only the coarsest window reaches the horizon, and the guard does not
    # evaluate it: the error is the full study's all the same
    X, sched = brownian(n=4000)
    bad = reg.EpsilonSchedule((X.horizon,) + sched.epsilons)
    with pytest.raises(reg.ScheduleError) as full:
        reg.qv_limit(X, schedule=bad)
    with pytest.raises(reg.ScheduleError) as guard:
        ito.qv_continuous_part(X, bad)
    assert str(guard.value) == str(full.value) == f"window {X.horizon} does not fit the grid"


# -- smooth-case identity ----------------------------------------------------------


def test_identity_residual_is_exact_start_window_average_on_pc_path():
    # the assembled residual collapses to the start-window average of
    # X - X(0), exactly on a piecewise-constant path
    X = two_step_path()
    rep = ito.ito_terms_c12(FUNCTION_CATALOG["identity"], X,
                            reg.EpsilonSchedule((0.2, 0.1)))
    r = rep.residual.values[X.grid >= 0.1]
    assert np.max(np.abs(r - 0.07)) < 1e-13


def test_identity_residual_decays_on_brownian():
    X, sched = brownian()
    rep = ito.ito_terms_c12(FUNCTION_CATALOG["identity"], X, sched, tol=0.05)
    assert rep.residual_sup_by_eps[-1] < 0.05
    assert rep.residual_sup_by_eps[-1] < rep.residual_sup_by_eps[0]


def test_square_on_brownian_residual_small():
    X, sched = brownian()
    rep = ito.ito_terms_c12(FUNCTION_CATALOG["square"], X, sched, tol=0.05)
    assert rep.relative_residual() < 1e-2


def test_tx_on_constant_path_is_exact():
    C = constant_path(uniform_grid(1.0, 200), 3.0)
    rep = ito.ito_terms_c12(FUNCTION_CATALOG["tx"], C,
                            reg.EpsilonSchedule.geometric(0.2, 3).snapped(1 / 200))
    assert rep.final_residual_sup < 1e-12
    # the time term alone carries the identity: int X dt = c t
    assert np.allclose(rep.terms["time_integral"].values, 3.0 * C.grid,
                       atol=1e-12)


def test_report_linearity_in_function():
    X, gt, sched = jump_diffusion(n=10000)
    Fa, Fb = FUNCTION_CATALOG["square"], FUNCTION_CATALOG["sin"]
    Fm = linear_combination(2.0, Fa, -1.5, Fb)
    ra = ito.ito_terms_c12(Fa, X, sched, tol=0.05)
    rb = ito.ito_terms_c12(Fb, X, sched, tol=0.05)
    rm = ito.ito_terms_c12(Fm, X, sched, tol=0.05, validate=False)
    for key in ("time_integral", "forward_integral", "bracket_term", "jump_sum"):
        mix = 2.0 * ra.terms[key].values - 1.5 * rb.terms[key].values
        assert np.max(np.abs(rm.terms[key].values - mix)) < 1e-10


def test_residual_decay_along_schedule():
    # decaying trend: no level above 1.1 times the running maximum, final
    # level well below the first (level-to-level noise makes strict
    # monotonicity unattainable on single realizations)
    X, gt, sched = jump_diffusion(n=50000)
    for name in ("identity", "square", "tx", "sin"):
        rep = ito.ito_terms_c12(FUNCTION_CATALOG[name], X, sched, tol=0.05)
        sups = rep.residual_sup_by_eps
        assert np.all(sups[1:] <= 1.1 * np.maximum.accumulate(sups)[:-1])
        assert sups[-1] < sups[0] / 3.0
        assert rep.final_residual_sup < 0.05 * max(1.0, rep.lhs.sup_norm())


# -- bracket jump identity ----------------------------------------------------------


def test_bracket_jump_equals_squared_jump_size():
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=20000, seed=31,
                                     intensity=2.0, jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 3).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    for t, s in zip(X.jump_times, X.jump_sizes):
        jump = rep.limit.value_at(t) - rep.limit.left_limit(t)
        assert jump == pytest.approx(s * s, rel=1e-10)


# -- random-measure form --------------------------------------------------------------


def test_measure_form_poisson_identity_function():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=20000, seed=5, intensity=2.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = ito.ito_terms_measure_form(FUNCTION_CATALOG["identity"], X,
                                     gt.compensator, sched, tol=0.05)
    # count = compensated martingale + drift: the small-jump compensated
    # increment carries N_t - 2t and the compensator integral is zero for
    # the linear function
    mart = rep.terms["small_jump_compensated_increment"]
    assert np.max(np.abs(mart.values - (X.values - 2.0 * X.grid))) < 1e-10
    assert rep.relative_residual() < 1e-10


def test_measure_form_reduces_to_plain_form_for_continuous_path():
    X, sched = brownian(n=10000)
    nu = sim.SimSpec  # placeholder, unused below
    from pathcalc.jumps import CompensatorSpec
    rep_m = ito.ito_terms_measure_form(FUNCTION_CATALOG["square"], X,
                                       CompensatorSpec.poisson(1.0), sched,
                                       tol=0.05)
    rep_p = ito.ito_terms_c12(FUNCTION_CATALOG["square"], X, sched, tol=0.05)
    assert np.max(np.abs(rep_m.residual.values - rep_p.residual.values)) < 1e-10
    for key in ("small_jump_compensated_increment", "big_jump_sum"):
        assert rep_m.terms[key].sup_norm() == 0.0


def test_measure_form_constant_function_drops_linear_field():
    X, gt, sched = jump_diffusion(n=10000)
    const = FunctionBundle("const", "c12",
                           f=lambda t, x: np.full(np.broadcast(t, x).shape, 2.0),
                           dt=lambda t, x: np.zeros(np.broadcast(t, x).shape),
                           dx=lambda t, x: np.zeros(np.broadcast(t, x).shape),
                           dxx=lambda t, x: np.zeros(np.broadcast(t, x).shape))
    rep = ito.ito_terms_measure_form(const, X, gt.compensator, sched, tol=0.05)
    assert rep.parts["linear_mu"].sup_norm() == 0.0
    assert rep.parts["linear_nu"].sup_norm() == 0.0


def test_measure_form_jump_terms_reassemble_exactly():
    X, gt, sched = jump_diffusion(n=20000)
    for name in ("identity", "square", "sin"):
        rep = ito.ito_terms_measure_form(FUNCTION_CATALOG[name], X,
                                         gt.compensator, sched, tol=0.05)
        rebuilt = (rep.parts["increment_mu"].values
                   - rep.parts["linear_mu"].values
                   + rep.parts["big_mu"].values)
        assert np.max(np.abs(rebuilt - rep.parts["jump_sum"].values)) < 1e-10


# -- Holder-derivative form --------------------------------------------------------------


def test_holder_form_agrees_with_smooth_form_on_overlap():
    # a twice differentiable function satisfies both variants: the two
    # assembled residuals are small on the same path and schedule
    X, gt, sched = jump_diffusion(n=50000)
    F = FUNCTION_CATALOG["square"]
    rep_h = ito.ito_c1_lambda(F, X, sched, tol=0.05)
    rep_s = ito.ito_terms_c12(F, X, sched, tol=0.05)
    scale = max(1.0, rep_h.lhs.sup_norm())
    assert rep_h.final_residual_sup < 0.05 * scale
    assert rep_s.final_residual_sup < 0.05 * scale


def test_holder_form_no_jumps_kills_symmetric_sum():
    X, sched = brownian(n=4000)
    rep = ito.ito_c1_lambda(FUNCTION_CATALOG["xabs_sqrt"], X, sched, tol=0.05)
    assert rep.terms["symmetric_jump_sum"].sup_norm() == 0.0


def test_holder_form_symmetric_average_exact_for_quadratics():
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=4000, seed=3,
                                     intensity=3.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 3).snapped(gt.base_dt)
    rep = ito.ito_c1_lambda(FUNCTION_CATALOG["square"], X, sched, tol=0.05)
    assert rep.terms["symmetric_jump_sum"].sup_norm() < 1e-12


def test_holder_form_on_rough_derivative_function():
    X, sched = brownian(n=50000, seed=14)
    rep = ito.ito_c1_lambda(FUNCTION_CATALOG["xabs_sqrt"], X, sched, tol=0.05)
    assert rep.final_residual_sup < 0.05 * max(1.0, rep.lhs.sup_norm())
