import json

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc.catalog import SCENARIOS
from pathcalc import dirichlet as dd
from pathcalc import ito
from pathcalc import jumps as jm
from pathcalc import regularize as reg
from pathcalc.ito import (C12_SUITE, FUNCTION_CATALOG, BundleValidationError,
                          FunctionBundle, NonConvergenceError, path_of_function)
from pathcalc.jumps import CompensatorSpec, DiracLaw, NormalLaw
from pathcalc.paths import (CadlagPath, PathError, _less_terms, constant_path, step_path,
                            uniform_grid)

from oracles import linear_combination


def brownian_pair(n=50000, seed=100):
    X, gt = sim.simulate(sim.SimSpec("brownian", n=n, seed=seed))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    return X, gt, sched


def jd_setup(n=20000, seed=4):
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=n, seed=seed, sigma=1.0,
                                     intensity=1.0, jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    return X, gt, dd.LabeledDecomposition.from_ground_truth(gt), sched


# -- orthogonality ---------------------------------------------------------------


def test_deterministic_step_is_orthogonal_to_brownian():
    N, _, sched = brownian_pair()
    A = step_path(1.0, 50000, 0.5)
    rep = dd.orthogonality_test(A, N, sched, tol=0.05)
    assert rep.passed
    assert rep.sup_norms[-1] < 0.05


def test_self_pairing_is_not_orthogonal():
    N, _, sched = brownian_pair()
    rep = dd.orthogonality_test(N, N, sched, tol=0.05)
    assert not rep.passed
    # the estimate approaches the bracket of the test path, about t
    assert 0.8 < rep.sup_norms[-1] < 1.3


def test_pure_jump_integral_path_is_orthogonal_to_brownian():
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=50000, seed=3,
                                     intensity=2.0, jump_law=NormalLaw(0, 1)))
    from pathcalc.jumps import X_SQUARED_FIELD, integrate_mu
    A = integrate_mu(X_SQUARED_FIELD, X)
    N = sim.brownian_on_grid(X.grid, 55)
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    rep = dd.orthogonality_test(A, N, sched, tol=0.05)
    assert rep.passed


def test_jumpy_test_martingale_rejected():
    X, gt = sim.simulate(sim.SimSpec("poisson", n=4000, seed=0, intensity=1.0))
    with pytest.raises(PathError):
        dd.orthogonality_test(X, X, reg.EpsilonSchedule((0.1, 0.05)))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_battery_rejects_a_jumpy_test_path_before_any_estimate(position, monkeypatch):
    X, gt = sim.simulate(sim.SimSpec("poisson", n=4000, seed=0, intensity=1.0))
    tests = dd.brownian_battery(X)
    tests[position] = X

    def no_kernel(*args):
        raise AssertionError("kernel called before the test paths were checked")

    monkeypatch.setattr(reg, "_Mesh", no_kernel)
    monkeypatch.setattr(reg, "covariation", no_kernel)
    with pytest.raises(PathError, match="must be continuous"):
        dd.orthogonality_battery(X, tests, reg.EpsilonSchedule((0.1, 0.05)))


# -- chain rule ------------------------------------------------------------------


def test_identity_function_reproduces_the_decomposition():
    X, gt, dec, sched = jd_setup()
    rep = dd.chain_rule_c01(FUNCTION_CATALOG["identity"], X, dec,
                            gt.compensator, sched, tol=0.05)
    A = dec.A
    assert np.max(np.abs(rep.a_path.values - (A.values - A.values[0]))) < 1e-7
    mart = gt.decomposition["M_c"].values + gt.decomposition["M_d"].values
    assert np.max(np.abs(rep.m_path.values
                         - (X.values[0] + mart - mart[0]))) < 1e-7
    assert rep.passed


@pytest.mark.parametrize("name", ["identity", "square", "tx", "sin"])
def test_smooth_catalog_defect_matches_reference_on_brownian(name):
    X, gt, sched = brownian_pair(n=20000, seed=2)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    F = FUNCTION_CATALOG[name]
    rep = dd.chain_rule_c01(F, X, dec, None, sched, tol=0.05)
    ref = dd.gamma_c12_reference(F, X, dec, None, sched, tol=0.05)
    assert np.max(np.abs(rep.gamma.values - ref.values)) < 0.1


@pytest.mark.parametrize("name", ["identity", "square", "tx", "sin"])
def test_smooth_catalog_defect_matches_reference_on_jump_diffusion(name):
    X, gt, dec, sched = jd_setup()
    F = FUNCTION_CATALOG[name]
    rep = dd.chain_rule_c01(F, X, dec, gt.compensator, sched, tol=0.05)
    ref = dd.gamma_c12_reference(F, X, dec, gt.compensator, sched, tol=0.05)
    assert np.max(np.abs(rep.gamma.values - ref.values)) < 0.1


def test_rough_time_function_beyond_smooth_class():
    # space-linear but rough in time: no closed form, the defect is decided
    # by the orthogonality battery alone
    X, gt, dec, sched = jd_setup()
    rep = dd.chain_rule_c01(FUNCTION_CATALOG["rough_time"], X, dec,
                            gt.compensator, sched, tol=0.05)
    assert len(rep.orth_reports) >= 3
    assert rep.passed


def test_xabs_sqrt_chain_rule_runs_on_a_path_of_more_than_8192_cells(monkeypatch):
    # the big-jump remainder of x |x|^(1/2) is singular at x = -X_{s-}, which
    # lies on a big segment once |X_{s-}| > 1; the size quadrature is judged
    # once over every row of the path
    integrate = pytest.importorskip("scipy.integrate")
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=20000, seed=0, sigma=1.0,
                                     intensity=3.0, jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 10).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    F = FUNCTION_CATALOG["xabs_sqrt"]
    calls, size_marginal = [], jm._size_marginal

    def spy(field, law, t, x_pre):
        calls.append((field, law, t, x_pre, size_marginal(field, law, t, x_pre)))
        return calls[-1][-1]

    monkeypatch.setattr(jm, "_size_marginal", spy)
    assert dd.chain_rule_c01(F, X, dec, gt.compensator, sched, tol=0.5).passed
    [(field, law, t, pre, got)] = [c for c in calls if c[0].truncation == "big"]
    kinks = np.flatnonzero(np.abs(pre) > 1.0)
    assert t.size == X.grid.size - 1 > 8192 and kinks.size
    lo, hi = law.support
    for i in kinks[::kinks.size // 12]:
        def w(x):
            return float(field(t[i], np.float64(x), pre[i])) * float(law.density(x))

        def quad(f):
            # over the two big segments, split at the singular point
            return sum(integrate.quad(f, a, b, points=[-pre[i]] if a < -pre[i] < b else None,
                                      epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                       for a, b in ((lo, -1.0), (1.0, hi)))

        assert abs(got[i] - quad(w)) <= jm.SIZE_QUADRATURE_RTOL * quad(lambda x: abs(w(x))), i


def test_defect_is_linear_in_the_function():
    X, gt, dec, sched = jd_setup(n=10000)
    Fa, Fb = FUNCTION_CATALOG["square"], FUNCTION_CATALOG["sin"]
    Fm = linear_combination(2.0, Fa, -3.0, Fb)
    ga = dd.chain_rule_c01(Fa, X, dec, gt.compensator, sched, tol=0.05).gamma
    gb = dd.chain_rule_c01(Fb, X, dec, gt.compensator, sched, tol=0.05).gamma
    gm = dd.chain_rule_c01(Fm, X, dec, gt.compensator, sched, tol=0.05).gamma
    mix = 2.0 * ga.values - 3.0 * gb.values
    assert np.max(np.abs(gm.values - mix)) < 1e-10 * max(1.0, gm.sup_norm())


def test_battery_uses_fresh_independent_test_paths():
    X, gt, dec, sched = jd_setup(n=10000)
    rep = dd.chain_rule_c01(FUNCTION_CATALOG["square"], X, dec, gt.compensator,
                            sched, tol=0.05, battery_seed=5)
    tests = dd.brownian_battery(X, seed=5)
    assert len(tests) == len(rep.orth_reports)
    assert not np.array_equal(tests[0].values, tests[1].values)


def test_chain_rule_requires_compensator_for_jumpy_paths():
    X, gt, dec, sched = jd_setup(n=10000)
    with pytest.raises(ValueError):
        dd.chain_rule_c01(FUNCTION_CATALOG["square"], X, dec, None, sched,
                          tol=0.05)


_HARNESSES = {
    "measure_form": lambda F, X, dec, s: ito.ito_terms_measure_form(F, X, None, s),
    "chain_rule_c01": lambda F, X, dec, s: dd.chain_rule_c01(F, X, dec, None, s,
                                                             tol=0.05),
    "gamma_c12_reference": lambda F, X, dec, s: dd.gamma_c12_reference(
        F, X, dec, None, s, tol=0.05),
    "particular_wd_check": lambda F, X, dec, s: dd.particular_wd_check(dec, None, s),
    "md_representation_check": lambda F, X, dec, s: dd.md_representation_check(
        dec, X, None),
    "special_wd_c0_chain": lambda F, X, dec, s: dd.special_wd_c0_chain(F, X, None, s),
}


@pytest.mark.parametrize("harness", list(_HARNESSES))
def test_jumpy_path_requires_compensator(harness):
    X, gt, dec, sched = jd_setup(n=10000)
    assert X.jump_marks.size
    with pytest.raises(ValueError, match="a compensator model is required"):
        _HARNESSES[harness](FUNCTION_CATALOG["square"], X, dec, sched)


# -- one expansion for the three jump harnesses -------------------------------------


def ji_case(kind, seed):
    """(X, decomposition, compensator, schedule) at n=4000; the Brownian case
    has no compensator model."""
    if kind == "brownian":
        X, gt = sim.simulate(sim.SimSpec("brownian", n=4000, seed=seed))
    else:
        # intensity 3 gives every seed used here jumps; intensity 1 lets
        # seed 5 have none
        intensity = 1.0 if kind == "jumpless" else 3.0
        X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=4000, seed=seed,
                                         sigma=1.0, intensity=intensity,
                                         jump_law=NormalLaw(0, 1)))
    assert bool(X.jump_marks.size) == (kind == "jump_diffusion")
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    nu = None if kind == "brownian" else gt.compensator
    return X, dd.LabeledDecomposition.from_ground_truth(gt), nu, sched


def in_sequence(F, X, dec, nu, sched):
    return (ito.ito_terms_measure_form(F, X, nu, sched, tol=0.05),
            dd.chain_rule_c01(F, X, dec, nu, sched, tol=0.05),
            dd.gamma_c12_reference(F, X, dec, nu, sched, tol=0.05))


def path_bytes(p):
    return (p.grid.tobytes(), p.values.tobytes(), p.left_values.tobytes(),
            np.asarray(p.jump_marks).tobytes(), p.rule)


def identity_bytes(rep, chain, ref):
    """Every output of the three harnesses, as bytes, in their own order."""
    return {
        "report": json.dumps(rep.to_json_dict()),
        "lhs": path_bytes(rep.lhs),
        "residual": path_bytes(rep.residual),
        "residual_sups": rep.residual_sup_by_eps.tobytes(),
        "terms": [(k, path_bytes(p)) for k, p in rep.terms.items()],
        "parts": [(k, path_bytes(p)) for k, p in rep.parts.items()],
        "chain": json.dumps(chain.to_json_dict()),
        "chain_paths": [path_bytes(getattr(chain, a))
                        for a in ("lhs", "gamma", "a_path", "m_path", "vbar")],
        "chain_terms": [(k, path_bytes(p)) for k, p in chain.terms.items()],
        "orth": [(r.sup_norms.tobytes(), r.sup_gaps.tobytes())
                 for r in chain.orth_reports],
        "reference": path_bytes(ref),
    }


@pytest.mark.parametrize("kind, seed, name", [
    *(("jump_diffusion", s, f) for s in (1, 2) for f in C12_SUITE),
    *(("jumpless", 5, f) for f in C12_SUITE),
    ("brownian", 2, "identity"),
])
def test_jump_identities_equals_the_three_harnesses_in_sequence(kind, seed, name):
    X, dec, nu, sched = ji_case(kind, seed)
    F = FUNCTION_CATALOG[name]
    one = dd.jump_identities(F, X, dec, nu, sched, tol=0.05)
    assert identity_bytes(*one) == identity_bytes(*in_sequence(F, X, dec, nu, sched))


_WRONG_DX = FunctionBundle(
    "wrong_dx", "c12", f=lambda t, x: np.asarray(x) ** 2 + 0.0 * np.asarray(t),
    dt=lambda t, x: np.zeros(np.broadcast(t, x).shape),
    dx=lambda t, x: 2.5 * np.asarray(x),
    dxx=lambda t, x: np.full(np.broadcast(t, x).shape, 2.0))


@pytest.mark.parametrize("case, error", [
    ("one_window", NonConvergenceError),
    ("no_compensator", ValueError),
    ("wrong_dx", BundleValidationError),
])
def test_jump_identities_raises_the_first_error_of_the_sequence(case, error):
    X, dec, nu, sched = ji_case("jump_diffusion", 1)
    F = _WRONG_DX if case == "wrong_dx" else FUNCTION_CATALOG["square"]
    if case == "one_window":
        sched = reg.EpsilonSchedule(sched.epsilons[-1:])
    if case == "no_compensator":
        nu = None
    with pytest.raises(error) as seq:
        in_sequence(F, X, dec, nu, sched)
    with pytest.raises(error) as one:
        dd.jump_identities(F, X, dec, nu, sched, tol=0.05)
    assert type(one.value) is type(seq.value)
    assert str(one.value) == str(seq.value)


def test_gamma_reference_checks_the_derivatives():
    # as every other view of the expansion does: dx = 2.5 x for f = x^2
    X, dec, nu, sched = ji_case("jump_diffusion", 1)
    with pytest.raises(BundleValidationError):
        dd.gamma_c12_reference(_WRONG_DX, X, dec, nu, sched, tol=0.05)


def test_jump_identities_checks_the_derivatives_once(monkeypatch):
    X, dec, nu, sched = ji_case("jump_diffusion", 1)
    checked = []
    validate = FunctionBundle.validate_derivatives
    monkeypatch.setattr(FunctionBundle, "validate_derivatives",
                        lambda F, *ranges: checked.append(F.name) or validate(F, *ranges))
    dd.jump_identities(FUNCTION_CATALOG["square"], X, dec, nu, sched, tol=0.05)
    assert checked == ["square"]


# -- the residual part carries only real jumps -----------------------------------------


def _jump(P, rows):
    return np.abs(P.values[rows] - P.left_values[rows])


@pytest.mark.parametrize("scenario", ["jump_diffusion", "cp_normal", "poisson"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_residual_part_carries_no_mark_and_its_mutants_keep_their_jumps(scenario, seed):
    # the built-in compensators have no time atoms, so X jumps only at totally
    # inaccessible times, where the predictable A^F cannot jump; round-off of
    # its assembly is no jump, and a dropped term leaves a real one
    X, gt = SCENARIOS[scenario].build(seed, 4000)
    assert X.jump_marks.size
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    rows = X.jump_marks
    checked = []
    for name, F in FUNCTION_CATALOG.items():
        rep = dd.chain_rule_c01(F, X, dec, gt.compensator, sched, tol=0.05)
        assert rep.a_path.jump_marks.size == rep.gamma.jump_marks.size == 0, name
        assert np.max(_jump(rep.a_path, rows)) == 0.0
        lhs, t = rep.lhs, rep.terms
        f0 = lhs.values[0]
        osc = (max(lhs.values.max(), lhs.left_values.max())
               - min(lhs.values.min(), lhs.left_values.min()))
        kept = {"k_comp": t["small_jump_compensated_increment"],
                "y_comp": -t["small_jump_compensated_linear"],
                "big_mu": t["big_jump_sum"]}
        mutants = {"raw": (_less_terms(lhs, f0, ()), lhs)}
        for drop, term in kept.items():
            rest = [q for k, q in kept.items() if k != drop]
            mutants[drop] = (_less_terms(lhs, f0, (t["martingale_integral"], *rest))
                             + t["big_jump_compensator"], term)
        for drop, (A, term) in mutants.items():
            # the rows where the dropped term really jumps are marks of A
            real = rows[_jump(term, rows) > 1e-9 * osc]
            assert np.isin(real, A.jump_marks).all(), (name, drop)
            assert np.all(_jump(A, real) > 1e-6 * osc), (name, drop)
            checked += [drop] if real.size else []
    # every path here has a big or a small jump that some term carries
    assert checked.count("raw") == len(FUNCTION_CATALOG) and len(set(checked)) >= 2


@pytest.mark.parametrize("seed", [6, 7])
def test_residual_part_integrates_the_compensator_on_a_jump_free_path(seed):
    # these seeds draw no arrival: A^F is the whole compensator integral
    # lam int (F(s, X_s + 1) - F(s, X_s)) ds, also where F is not affine in x
    X, gt = SCENARIOS["poisson"].build(seed, 4000)
    assert not X.jump_marks.size
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    for name, F in FUNCTION_CATALOG.items():
        rep = dd.chain_rule_c01(F, X, dec, gt.compensator, sched, tol=0.05)
        drift = 2.0 * ito._riemann(F.f(X.grid, X.values + 1.0) - F.f(X.grid, X.values),
                                   X.grid)
        gap = np.max(np.abs(rep.a_path.values - drift))
        assert gap <= 1e-15 * np.max(np.abs(drift)), (name, gap)


# -- reference defect path ----------------------------------------------------------


def test_reference_time_slope_only():
    # F = tx on a Brownian path: only the time term survives, int X_s ds
    X, gt, sched = brownian_pair(n=20000, seed=2)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    ref = dd.gamma_c12_reference(FUNCTION_CATALOG["tx"], X, dec, None, sched,
                                 tol=0.05)
    direct = np.concatenate(([0.0],
                             np.cumsum(np.diff(X.grid) * X.values[:-1])))
    assert np.max(np.abs(ref.values - direct)) < 1e-12


def test_reference_square_on_poisson_compensator_remainder():
    # quadratic remainder field against the unit-size compensator: lam t,
    # plus the forward term against the drift component
    X, gt = sim.simulate(sim.SimSpec("poisson", n=50000, seed=5, intensity=2.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    ref = dd.gamma_c12_reference(FUNCTION_CATALOG["square"], X, dec,
                                 gt.compensator, sched, tol=0.05)
    fwd = reg.forward_integral(
        ito.path_of_function_derivative(FUNCTION_CATALOG["square"], X),
        dec.A, sched.epsilons[-1])
    remainder = ref.values - fwd.values
    assert np.max(np.abs(remainder - 2.0 * X.grid)) < 1e-8


def test_reference_time_independent_function_drops_terms():
    X, gt, sched = brownian_pair(n=20000, seed=7)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    ref = dd.gamma_c12_reference(FUNCTION_CATALOG["square"], X, dec, None,
                                 sched, tol=0.05)
    qvc = ito.qv_continuous_part(X, sched, tol=0.05)
    assert np.max(np.abs(ref.values - qvc.values)) < 1e-10


def test_reference_rejects_a_part_on_another_grid():
    # a constant A takes the reference's shortcut, which read no grid
    X, gt, sched = brownian_pair(n=2000, seed=1)
    dec = dd.LabeledDecomposition(M_c=gt.decomposition["M_c"],
                                  A=constant_path(uniform_grid(1.0, 10)))
    with pytest.raises(PathError, match="paths must share a grid"):
        dd.gamma_c12_reference(FUNCTION_CATALOG["square"], X, dec, None, sched, tol=0.05)


# -- particular decomposition ---------------------------------------------------------


def test_particular_zero_qv_perturbation_of_brownian():
    fb, gtf = sim.simulate(sim.SimSpec("fbm", n=2000, seed=8, hurst=0.8))
    M = sim.brownian_on_grid(fb.grid, 77)
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gtf.base_dt)
    dec = dd.LabeledDecomposition(M_c=M, A_prime=fb)
    rep = dd.particular_wd_check(dec, None, sched, tol=0.1)
    assert rep.passed
    assert rep.verdicts[1].statistic == 0.0


def test_particular_pure_step_bounded_variation():
    V = step_path(1.0, 20000, 0.5)
    dec = dd.LabeledDecomposition(V=V)
    nu = CompensatorSpec.user_supplied(0.0, DiracLaw(1.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / 20000)
    rep = dd.particular_wd_check(dec, nu, sched, tol=0.05)
    assert rep.verdicts[0].passed
    # estimated bracket of the step is the step itself
    assert rep.verdicts[0].statistic < 1e-10


STEP_ATOM = CompensatorSpec.user_supplied(0.0, DiracLaw(1.0),
                                         atoms=((0.5, DiracLaw(1.0), 1.0),))


def test_particular_drift_may_jump_at_a_time_atom_only():
    # the step at 0.5 is predictable: the compensator's time atom carries it,
    # so the drift's jump there is exempt and every other row is judged
    sched = reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / 4000)
    rep = dd.particular_wd_check(dd.LabeledDecomposition(V=step_path(1.0, 4000, 0.5)),
                                 STEP_ATOM, sched, tol=0.05)
    assert rep.passed
    assert (rep.verdicts[1].rule, rep.verdicts[1].statistic) == ("alpha_atoms", 0.0)


def test_particular_drift_jump_off_the_time_atom_fails():
    # a jump at 0.3 labeled continuous martingale: alpha jumps by 1 at 0.3,
    # off the atom at 0.5, and the drift-atom rule sees it
    sched = reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / 4000)
    rep = dd.particular_wd_check(dd.LabeledDecomposition(M_c=step_path(1.0, 4000, 0.3)),
                                 STEP_ATOM, sched, tol=0.05)
    assert not rep.verdicts[1].passed and not rep.passed
    assert rep.verdicts[1].statistic == 1.0


def test_particular_rejects_overflowing_variation():
    big = 1.7e308
    v = np.array([0.0, big, -big, big, 0.0])
    dec = dd.LabeledDecomposition(V=CadlagPath(np.linspace(0.0, 1.0, 5), v, v))
    with np.errstate(over="ignore"), pytest.raises(PathError, match="infinite variation"):
        dd.particular_wd_check(dec)


def test_particular_brownian_plus_jumps_cross_term_vanishes():
    Xcp, gtcp = sim.simulate(sim.SimSpec("compound_poisson", n=20000, seed=31,
                                         intensity=2.0,
                                         jump_law=NormalLaw(0, 0.6)))
    M = sim.brownian_on_grid(Xcp.grid, 78)
    sched = reg.EpsilonSchedule.geometric(0.05, 6).snapped(gtcp.base_dt)
    dec = dd.LabeledDecomposition(M_c=M, V=Xcp)
    rep = dd.particular_wd_check(dec, gtcp.compensator, sched, tol=0.1)
    assert rep.passed
    assert rep.verdicts[1].statistic < 1e-12


# -- martingale-part representation -----------------------------------------------------


def test_md_representation_compensated_poisson():
    # seed 6 has no jump on [0, 1], so there M_d is -2t alone
    for seed in (5, 6):
        X, gt = sim.simulate(sim.SimSpec("poisson", n=4000, seed=seed, intensity=2.0))
        dec = dd.LabeledDecomposition.from_ground_truth(gt)
        rep = dd.md_representation_check(dec, X, gt.compensator)
        assert rep.passed
        assert rep.verdicts[0].statistic < 1e-10
        assert rep.atom_gap_max < 1e-12


def test_md_representation_continuous_path_both_sides_zero():
    X, gt, _ = brownian_pair(n=2000, seed=1)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    rep = dd.md_representation_check(dec, X, None)
    assert rep.passed and rep.verdicts[0].statistic == 0.0


def test_md_representation_normal_jumps_atomwise():
    X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=4000, seed=9,
                                     intensity=3.0, jump_law=NormalLaw(0, 1)))
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    rep = dd.md_representation_check(dec, X, gt.compensator)
    assert rep.passed
    assert rep.atom_gap_max < 1e-12


_OTHER_GRID = {
    "shorter": lambda M_d: sim.simulate(sim.SimSpec(
        "poisson", n=2000, seed=5, intensity=2.0))[1].decomposition["M_d"],
    "same length": lambda M_d: CadlagPath(np.sqrt(M_d.grid), M_d.values, M_d.left_values),
}


@pytest.mark.parametrize("grid", _OTHER_GRID)
def test_md_representation_rejects_an_M_d_on_another_grid(grid):
    X, gt = sim.simulate(sim.SimSpec("poisson", n=4000, seed=5, intensity=2.0))
    dec = dd.LabeledDecomposition(M_d=_OTHER_GRID[grid](gt.decomposition["M_d"]))
    with pytest.raises(PathError, match="paths must share a grid"):
        dd.md_representation_check(dec, X, gt.compensator)


# -- continuity-only chain rule ----------------------------------------------------------


def test_c0_chain_identity_on_poisson_recovers_drift():
    # seed 6 has no jump on [0, 1]: the drift is the compensator's there too
    for seed in (5, 6):
        X, gt = sim.simulate(sim.SimSpec("poisson", n=50000, seed=seed, intensity=2.0))
        sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
        rep = dd.special_wd_c0_chain(FUNCTION_CATALOG["identity"], X,
                                     gt.compensator, sched)
        assert np.max(np.abs(rep.a_path.values - 2.0 * X.grid)) < 1e-10
        assert rep.passed


def test_c0_chain_continuous_path_keeps_whole_increment():
    X, gt, sched = brownian_pair(n=20000, seed=3)
    rep = dd.special_wd_c0_chain(FUNCTION_CATALOG["sin"], X, None, sched)
    lhs = path_of_function(FUNCTION_CATALOG["sin"], X)
    assert np.max(np.abs(rep.a_path.values - (lhs.values - lhs.values[0]))) == 0.0
    assert rep.terms["compensated_increment"].sup_norm() == 0.0


def test_c0_chain_on_regime_switching_path():
    X, gt = sim.simulate(sim.SimSpec("pdp", n=50000, seed=9, switch_rate=3.0))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    FX = path_of_function(FUNCTION_CATALOG["square"], X)
    N = sim.brownian_on_grid(X.grid, 91)
    rep = dd.orthogonality_test(FX, N, sched, tol=0.05)
    assert rep.passed
    # the defect shrinks with the window
    assert rep.sup_norms[-1] < rep.sup_norms[0]


# -- the one tail of both chain rules --------------------------------------------


@pytest.mark.parametrize("scenario", ["jump_diffusion", "cp_normal"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_both_chain_rules_judge_their_residual_in_one_tail(scenario, seed):
    # A^F = gamma + vbar and M^F = F(t, X_t) - A^F bit for bit, the verdicts
    # are the battery's on A^F in order, and both views write one report shape
    X, gt = SCENARIOS[scenario].build(seed, 4000)
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    for name in ("square", "sin"):
        F = FUNCTION_CATALOG[name]
        views = {"c01": dd.chain_rule_c01(F, X, dec, gt.compensator, sched, tol=0.05),
                 "c0": dd.special_wd_c0_chain(F, X, gt.compensator, sched)}
        for view, rep in views.items():
            assert type(rep) is dd.ChainRuleReport
            assert path_bytes(rep.a_path) == path_bytes(rep.gamma + rep.vbar), (name, view)
            assert path_bytes(rep.m_path) == path_bytes(rep.lhs - rep.a_path), (name, view)
            battery = dd.orthogonality_battery(rep.a_path, dd.brownian_battery(X), sched,
                                               dd.ORTH_TOL)
            assert rep.verdicts == tuple(v for r in battery for v in r.verdicts)
            assert rep.passed is all(v.passed for v in rep.verdicts)
        c0 = views["c0"]
        assert c0.vbar.sup_norm() == 0.0
        assert path_bytes(c0.a_path) == path_bytes(c0.gamma)
        assert list(c0.terms) == ["compensated_increment"]
        assert set(views["c01"].to_json_dict()) == set(c0.to_json_dict()), name


def test_reextracting_the_labeled_components():
    # rebuild M_d from the jump measure, then recover A by subtraction;
    # both must return the labels within tolerance
    X, gt, dec, _ = jd_setup(n=20000)
    from pathcalc.jumps import X_FIELD, compensated_integral
    rebuilt_md = compensated_integral(X_FIELD, X, gt.compensator)
    assert np.max(np.abs(rebuilt_md.values - dec.M_d.values)) < 1e-9
    a_extracted = X.values - dec.M_c.values - rebuilt_md.values
    assert np.max(np.abs(a_extracted - dec.A.values)) < 1e-9


def test_decomposition_sums_and_martingale_access():
    X, gt, dec, _ = jd_setup(n=4000)
    total = dec.M_c + dec.M_d + dec.A
    assert np.max(np.abs(total.values - X.values)) < 1e-10
    assert dd.LabeledDecomposition(M_d=dec.M_d).martingale is dec.M_d
    with pytest.raises(PathError):
        dd.LabeledDecomposition().martingale


def test_empty_decomposition_is_rejected():
    with pytest.raises(PathError, match="decomposition has no components"):
        dd.particular_wd_check(dd.LabeledDecomposition())
