import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import dirichlet, ito
from pathcalc import jumps as jmod
from pathcalc import regularize as reg
from pathcalc.ito import (FUNCTION_CATALOG, BundleValidationError,
                          FunctionBundle, NonConvergenceError)
from pathcalc.jumps import NormalLaw
from pathcalc.paths import CadlagPath, constant_path, make_path, uniform_grid

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
    return CadlagPath(g, v, l, rule="pc")


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_probe_without_a_finite_difference_fails_validation():
    # where F(x + h) overflows, every finite difference is inf or NaN and no
    # comparison can fail, so such a probe must fail by itself, named
    wrong = FunctionBundle("square", "c12", f=lambda t, x: x ** 2, dt=lambda t, x: 0.0,
                           dx=lambda t, x: 3.0 * x, dxx=lambda t, x: 7.0)
    with pytest.raises(BundleValidationError, match=r"not finite at \(t=.*, x=.*\)"):
        wrong.validate_derivatives((0.0, 1.0), (0.0, 1e200))
    with pytest.raises(BundleValidationError, match="disagrees"):
        wrong.validate_derivatives((0.0, 1.0), (0.0, 2.0))
    # a supplied derivative that is not finite fails too
    blows_up = FunctionBundle("square", "c12", f=lambda t, x: x ** 2, dt=lambda t, x: 0.0,
                              dx=lambda t, x: 2.0 * x, dxx=lambda t, x: np.inf)
    with pytest.raises(BundleValidationError, match="dxx or its finite difference"):
        blows_up.validate_derivatives((0.0, 1.0), (-2.0, 2.0))


def test_bundle_class_requirements():
    with pytest.raises(ValueError):
        FunctionBundle("f", "c12", f=lambda t, x: x)
    with pytest.raises(ValueError):
        FunctionBundle("f", "weird", f=lambda t, x: x, dx=lambda t, x: x)


# at_least(row, column): c01 and c1l are incomparable, c12 is above both
_AT_LEAST = {"c12": {"c12": True, "c01": True, "c1l": True, "c0": True},
             "c01": {"c12": False, "c01": True, "c1l": False, "c0": True},
             "c1l": {"c12": False, "c01": True, "c1l": True, "c0": True},
             "c0": {"c12": False, "c01": False, "c1l": False, "c0": True}}


@pytest.mark.parametrize("cls", sorted(_AT_LEAST))
def test_class_lattice(cls):
    ev = lambda t, x: x  # noqa: E731
    F = FunctionBundle("f", cls, f=ev, dt=ev, dx=ev, dxx=ev)
    assert {other: F.at_least(other) for other in _AT_LEAST} == _AT_LEAST[cls]


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
    if not full.passed:
        with pytest.raises(NonConvergenceError):
            ito.qv_continuous_part(X, sched, tol=0.05)
        return
    bracket = ito._Expansion(None, X, None, sched, 0.05).bracket
    assert bracket.values.tobytes() == full.limit.values.tobytes()
    assert bracket.left_values.tobytes() == full.limit.left_values.tobytes()
    raw = full.limit.values - jmod.integrate_mu(jmod.X_SQUARED_FIELD, X).values
    mono = np.maximum.accumulate(np.maximum(raw, 0.0))
    mono[0] = 0.0
    assert ito.qv_continuous_part(X, sched, tol=0.05).values.tobytes() == mono.tobytes()


def test_bracket_guard_evaluates_two_windows(monkeypatch):
    # and each harness builds only the compensator integrals it reads: the
    # three jump harnesses share 3 distinct ones, which jump_identities
    # builds once each
    X, gt, sched = jump_diffusion(n=4000)
    assert X.jump_marks.size
    dec = dirichlet.LabeledDecomposition.from_ground_truth(gt)
    nu = gt.compensator
    calls = []
    nu_calls = []

    def counting(study, eps):
        # every window of a kernel builds one mesh; a window of the bracket
        # study is one of X against X alone
        if study.X is X and len(study.partners) == 1 and study.partners[0] is X:
            calls.append(eps)
        return Mesh(study, eps)

    def counting_nu(field, nu, X):
        nu_calls.append(field)
        return integrate_nu(field, nu, X)

    Mesh = reg._Mesh
    integrate_nu = jmod.integrate_nu
    monkeypatch.setattr(reg, "_Mesh", counting)
    monkeypatch.setattr(jmod, "integrate_nu", counting_nu)
    F = FUNCTION_CATALOG["square"]
    for run, nu_count in (
            (lambda: ito.qv_continuous_part(X, sched, tol=0.05), 0),
            (lambda: ito.ito_terms_measure_form(F, X, nu, sched, tol=0.05), 2),
            (lambda: dirichlet.gamma_c12_reference(F, X, dec, nu, sched,
                                                   tol=0.05), 2),
            # the orthogonality battery's windows are studies of A, not of X
            (lambda: dirichlet.chain_rule_c01(F, X, dec, nu, sched, tol=0.05), 3),
            (lambda: dirichlet.jump_identities(F, X, dec, nu, sched, tol=0.05), 3)):
        calls.clear()
        nu_calls.clear()
        run()
        assert calls == list(sched.epsilons[-2:])
        assert len(nu_calls) == nu_count


def test_one_window_bracket_guard_never_converges():
    X, sched = brownian(n=4000)
    assert reg.qv_limit(X, schedule=sched, tol=0.05).passed
    with pytest.raises(NonConvergenceError):
        ito.qv_continuous_part(X, reg.EpsilonSchedule(sched.epsilons[-1:]), tol=0.05)


_EMPTY = dirichlet.LabeledDecomposition()
_HARNESSES = {
    "ito_terms_c12": lambda X, s: ito.ito_terms_c12(FUNCTION_CATALOG["square"], X, s),
    "ito_terms_measure_form": lambda X, s: ito.ito_terms_measure_form(
        FUNCTION_CATALOG["square"], X, None, s),
    "ito_c1_lambda": lambda X, s: ito.ito_c1_lambda(FUNCTION_CATALOG["xabs_sqrt"], X, s),
    "chain_rule_c01": lambda X, s: dirichlet.chain_rule_c01(
        FUNCTION_CATALOG["square"], X, _EMPTY, schedule=s),
    "gamma_c12_reference": lambda X, s: dirichlet.gamma_c12_reference(
        FUNCTION_CATALOG["square"], X, _EMPTY, schedule=s),
    "qv_continuous_part": lambda X, s: ito.qv_continuous_part(X, s),
}


@pytest.mark.parametrize("harness", list(_HARNESSES))
def test_bracket_guard_checks_every_window_fits(monkeypatch, harness):
    # only the coarsest window reaches the horizon: every harness rejects the
    # schedule as the full study does, before any kernel window is built
    X, sched = brownian(n=4000)
    bad = reg.EpsilonSchedule((X.horizon,) + sched.epsilons)
    with pytest.raises(reg.ScheduleError) as full:
        reg.qv_limit(X, schedule=bad)
    windows = []

    def counting(study, eps):
        # every kernel window of every kind builds one mesh
        windows.append(eps)
        return Mesh(study, eps)

    Mesh = reg._Mesh
    monkeypatch.setattr(reg, "_Mesh", counting)
    with pytest.raises(reg.ScheduleError) as guard:
        _HARNESSES[harness](X, bad)
    assert str(guard.value) == str(full.value) == f"window {X.horizon} does not fit the grid"
    assert windows == []


def test_c0_chain_checks_the_schedule_before_the_compensator(monkeypatch):
    # special_wd_c0_chain is a view of the expansion too: a schedule that
    # does not fit raises before the compensator quadrature starts
    X, gt, sched = jump_diffusion(n=2000)
    assert X.jump_marks.size
    bad = reg.EpsilonSchedule((X.horizon,) + sched.epsilons)
    calls = []
    integrate_nu = jmod.integrate_nu
    monkeypatch.setattr(jmod, "integrate_nu",
                        lambda *args: calls.append(args) or integrate_nu(*args))
    with pytest.raises(reg.ScheduleError, match="does not fit the grid"):
        dirichlet.special_wd_c0_chain(FUNCTION_CATALOG["sin"], X, gt.compensator, bad)
    assert calls == []


_FORWARD_TERM = ("forward_integral",
                 lambda ex, e: reg.forward_integral(ex.dx_path, ex.X, e))
_WINDOW_TERMS = {
    "ito_terms_c12": _FORWARD_TERM,
    "ito_terms_measure_form": _FORWARD_TERM,
    "ito_c1_lambda": ("half_transformed_bracket",
                      lambda ex, e: 0.5 * reg.covariation(ex.dx_path, ex.X, e)),
}


@pytest.mark.parametrize("harness", list(_WINDOW_TERMS))
def test_report_window_term_is_one_study(monkeypatch, harness):
    # the window term of a report is one study for all windows, besides the
    # bracket guard's study of X against X alone; its final window is the
    # fresh kernel call's, bit for bit
    name, fresh = _WINDOW_TERMS[harness]
    X, sched = brownian(n=4000)
    studies = []

    def counting(P, partners):
        study = Study(P, partners)
        if not (P is X and len(partners) == 1 and partners[0] is X):
            studies.append(study)
        return study

    Study = reg._Study
    monkeypatch.setattr(reg, "_Study", counting)
    F = FUNCTION_CATALOG["xabs_sqrt" if harness == "ito_c1_lambda" else "square"]
    run = getattr(ito, harness)
    rep = run(F, X, None, sched, 0.05) if "measure" in harness else run(F, X, sched, 0.05)
    assert len(studies) == 1
    monkeypatch.undo()
    last = fresh(ito._Expansion(F, X, None, sched, 0.05), sched.epsilons[-1])
    assert rep.terms[name].values.tobytes() == last.values.tobytes()
    assert rep.terms[name].left_values.tobytes() == last.left_values.tobytes()


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
    assert rep.relative_residual < 1e-2


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
    rm = ito.ito_terms_c12(Fm, X, sched, tol=0.05)
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


@pytest.mark.parametrize("name", ["square", "sin"])
def test_residual_keeps_its_left_limits(name):
    # the residual is the assembly at its left limits too: its sup-norm is
    # the reported final one, and at each jump its left value is
    # lhs - F(0, X_0) - window term - fixed terms, in the report's order
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=20000, seed=2, intensity=3.0,
                                     jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = ito.ito_terms_c12(FUNCTION_CATALOG[name], X, sched, tol=0.05)
    *fixed, window = rep.terms
    rl = rep.lhs.left_values - rep.initial_value - rep.terms[window].left_values
    for key in fixed:
        rl = rl - rep.terms[key].left_values
    marks = X.jump_marks
    assert marks.size
    assert rep.residual.sup_norm() == rep.final_residual_sup
    assert rep.residual.left_values[marks].tobytes() == rl[marks].tobytes()


def test_stieltjes_left_limit_at_a_jump_is_the_previous_value():
    # against a pure-jump G the sum is the running sum of H(t-) dG over the
    # jumps, so its left limit at a jump is the value one row before, bit
    # for bit, for jump sizes over six orders of magnitude
    rng = np.random.default_rng(3)
    grid = uniform_grid(1.0, 200)
    marks = np.sort(rng.choice(np.arange(1, grid.size), 40, replace=False))
    steps = np.zeros(grid.size)
    steps[marks] = rng.normal(size=40) * 10.0 ** rng.uniform(-3, 3, 40)
    values = np.cumsum(steps)
    G = make_path(grid, values, [(m, values[m - 1]) for m in marks], rule="pc")
    H = CadlagPath(grid, 7.3 * rng.normal(size=grid.size))
    S = ito.stieltjes_left(H, G)
    assert S.jump_marks.tolist() == marks.tolist()
    assert S.left_values[marks].tobytes() == S.values[marks - 1].tobytes()


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
    assert rep.relative_residual < 1e-10


def test_measure_form_reduces_to_plain_form_for_continuous_path():
    X, sched = brownian(n=10000)
    nu = sim.SimSpec  # placeholder, unused below
    from pathcalc.jumps import CompensatorSpec
    rep_m = ito.ito_terms_measure_form(FUNCTION_CATALOG["square"], X,
                                       CompensatorSpec.poisson(1.0), sched,
                                       tol=0.05)
    rep_p = ito.ito_terms_c12(FUNCTION_CATALOG["square"], X, sched, tol=0.05)
    assert np.max(np.abs(rep_m.residual.values - rep_p.residual.values)) < 1e-10
    assert rep_m.terms["big_jump_sum"].sup_norm() == 0.0
    # the given nu is integrated: the compensated increment is -int (F(X + 1) - F(X)) dt
    F = FUNCTION_CATALOG["square"].f
    drift = ito._riemann(F(X.grid, X.values + 1.0) - F(X.grid, X.values), X.grid)
    assert np.array_equal(rep_m.terms["small_jump_compensated_increment"].values, -drift)


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


# -- formulas: an evaluator may return a plain number --------------------------


def _shape(t, x):
    return np.broadcast(t, x).shape


# F = 2x + t and F = 2, each written as its formula and padded to the shape
# of its arguments; F = 2x + t is an array already, so the continuous chain
# rule, which reads F alone, takes F = 2
FORMULA = {
    "2x+t": FunctionBundle("2x+t", "c12", f=lambda t, x: 2.0 * x + t,
                           dt=lambda t, x: 1.0, dx=lambda t, x: 2.0,
                           dxx=lambda t, x: 0.0),
    "2": FunctionBundle("2", "c0", f=lambda t, x: 2.0),
}
PADDED = {
    "2x+t": FunctionBundle("2x+t", "c12", f=lambda t, x: 2.0 * x + t,
                           dt=lambda t, x: np.ones(_shape(t, x)),
                           dx=lambda t, x: np.full(_shape(t, x), 2.0),
                           dxx=lambda t, x: np.zeros(_shape(t, x))),
    "2": FunctionBundle("2", "c0", f=lambda t, x: np.full(_shape(t, x), 2.0)),
}

_ON_FORMULAS = {
    "ito_terms_c12": ("2x+t", lambda F, X, gt, dec, s: ito.ito_terms_c12(
        F, X, s, tol=0.05)),
    "ito_terms_measure_form": ("2x+t", lambda F, X, gt, dec, s: ito.ito_terms_measure_form(
        F, X, gt.compensator, s, tol=0.05)),
    "ito_c1_lambda": ("2x+t", lambda F, X, gt, dec, s: ito.ito_c1_lambda(
        F, X, s, tol=0.05)),
    "chain_rule_c01": ("2x+t", lambda F, X, gt, dec, s: dirichlet.chain_rule_c01(
        F, X, dec, gt.compensator, s, tol=0.05)),
    "gamma_c12_reference": ("2x+t", lambda F, X, gt, dec, s: dirichlet.gamma_c12_reference(
        F, X, dec, gt.compensator, s, tol=0.05)),
    "special_wd_c0_chain": ("2", lambda F, X, gt, dec, s: dirichlet.special_wd_c0_chain(
        F, X, gt.compensator, s)),
    "jump_identities": ("2x+t", lambda F, X, gt, dec, s: dirichlet.jump_identities(
        F, X, dec, gt.compensator, s, tol=0.05)),
}


def _assert_same(a, b, where="result"):
    """Equal decisions and names, and every path and number in the same bytes."""
    assert type(a) is type(b), where
    if isinstance(a, CadlagPath):
        assert a.rule == b.rule, where
        for f in ("grid", "values", "left_values", "jump_marks"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f"{where}.{f}"
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for k in a:
            _assert_same(a[k], b[k], f"{where}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            _assert_same(u, v, f"{where}[{i}]")
    elif isinstance(a, (float, np.ndarray)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), where
    else:
        assert a == b, where


@pytest.mark.parametrize("harness", _ON_FORMULAS)
def test_an_evaluator_may_return_a_plain_number(harness):
    X, gt, sched = jump_diffusion(n=4000)
    dec = dirichlet.LabeledDecomposition.from_ground_truth(gt)
    name, run = _ON_FORMULAS[harness]
    _assert_same(run(FORMULA[name], X, gt, dec, sched),
                 run(PADDED[name], X, gt, dec, sched))


# -- guard: the catalog's evaluators are their formulas -------------------------


def _padded(tree: ast.Module) -> list[str]:
    """``bundle.evaluator`` for each evaluator of a ``FunctionBundle`` call
    (in ito.py, the catalog's) that pads its result to the shape of its
    arguments, with a ``0.0 *`` term, ``np.full``, ``np.broadcast``, or
    ``np.asarray``, ``np.ones_like``, ``np.zeros_like`` or ``np.full_like``
    of an argument; and the name of each module function that builds an
    evaluator and pads it."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def pads(ev):
        params = {a.arg for a in ev.args.args}
        for n in ast.walk(ev.body):
            attr = getattr(getattr(n, "func", None), "attr", None)
            if (attr in ("full", "broadcast")
                    or attr in ("asarray", "ones_like", "zeros_like", "full_like")
                    and any(getattr(a, "id", None) in params for a in n.args)
                    or isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                    and 0.0 in (getattr(n.left, "value", None),
                                getattr(n.right, "value", None))):
                return True
        return False

    found = set()
    for bundle in ast.walk(tree):
        if getattr(getattr(bundle, "func", None), "id", None) != "FunctionBundle":
            continue
        for kw in bundle.keywords:
            ev = kw.value
            if isinstance(ev, ast.Lambda) and pads(ev):
                found.add(f"{bundle.args[0].value}.{kw.arg}")
            built_by = funcs.get(getattr(getattr(ev, "func", None), "id", None))
            if built_by and any(pads(n) for n in ast.walk(built_by)
                                if isinstance(n, ast.Lambda)):
                found.add(built_by.name)
    return sorted(found)


def test_catalog_evaluators_are_their_formulas():
    assert _padded(ast.parse(Path(ito.__file__).read_text())) == []


def test_guard_sees_a_padded_evaluator():
    tree = ast.parse(
        "def _c(v):\n"
        "    return lambda t, x: np.full(np.broadcast(t, x).shape, v)\n"
        "def _k(v):\n"
        "    return lambda t, x: v\n"
        "FUNCTION_CATALOG: dict = {\n"
        "    'a': FunctionBundle('a', 'c12', f=lambda t, x: x + 0.0 * t, dt=_c(0.0),\n"
        "                        dx=lambda t, x: np.ones_like(x), dxx=_k(0.0)),\n"
        "    'b': FunctionBundle('b', 'c01', f=lambda t, x: np.asarray(x) ** 2,\n"
        "                        dx=lambda t, x: 2.0 * np.asarray(t + x)),\n"
        "}\n")
    assert _padded(tree) == ["_c", "a.dx", "a.f", "b.f"]
