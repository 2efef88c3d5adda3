"""Verdict helpers and the verdicts that reports write to JSON."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import pathcalc.simulate as sim
from pathcalc import dirichlet as dd
from pathcalc import ito
from pathcalc import jumps as jmod
from pathcalc import regularize as reg
from pathcalc.cli import main
from pathcalc.ito import FUNCTION_CATALOG
from pathcalc.jumps import NormalLaw
from pathcalc.paths import step_path, uniform_grid

N = 4000
SCHED = reg.EpsilonSchedule.geometric(0.05, 6).snapped(1.0 / N)

# helper of one statistic, the threshold it must compare with, and whether a
# statistic equal to the threshold passes
HELPERS = {
    "cauchy": (lambda s: reg.cauchy_verdict(np.array([0.5, s]),
                                            np.array([2.0, 3.0]), 0.01),
               0.01 * 3.0, True),
    "cauchy, vanishing norm": (lambda s: reg.cauchy_verdict(np.array([s]),
                                                            np.array([1.0, 0.0]), 0.01),
                               0.01 * 1e-12, True),
    "orthogonality": (lambda s: reg.orthogonality_verdict(s, 0.05), 0.05, False),
    "bracket": (lambda s: reg.bracket_verdict(s, 0.05, 7.0), 0.05 * 7.0, False),
    "alpha_atoms": (lambda s: reg.alpha_atoms_verdict(s, 3.0, False), 1e-9 * 3.0,
                    False),
    "md_representation": (lambda s: reg.md_verdict(s, 2.5), 1e-8 * 2.5, False),
    "relative_residual": (lambda s: reg.residual_verdict(s, 1e-2), 1e-2, False),
}


@pytest.mark.parametrize("name", HELPERS)
def test_verdict_helper_boundary(name):
    helper, threshold, passes_at = HELPERS[name]
    below, above = np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)
    for statistic, expected in ((below, True), (threshold, passes_at), (above, False)):
        v = helper(statistic)
        assert (v.statistic, v.threshold) == (statistic, threshold)
        assert v.passed is expected


def test_verdict_helper_special_cases():
    # one window: no gap, nothing to compare, never passes
    v = reg.cauchy_verdict(np.array([]), np.array([2.0]), 0.01)
    assert (v.statistic, v.threshold, v.passed) == (None, 0.01 * 2.0, False)
    # time atoms in the compensator waive the drift-atom rule
    for s in (0.0, 1e-9 * 3.0, 1.0):
        v = reg.alpha_atoms_verdict(s, 3.0, True)
        assert (v.rule, v.statistic, v.passed) == ("alpha_atoms_waived", s, True)


# every entry point whose verdict compares with a tolerance, called on
# Brownian paths X and W
TOL_ENTRIES = {
    "qv_limit": lambda X, W, tol: reg.qv_limit(X, SCHED, tol),
    "ucp_limit": lambda X, W, tol: reg.ucp_limit(reg.covariation, X, W, SCHED, tol),
    "orthogonality_test": lambda X, W, tol: dd.orthogonality_test(X, W, SCHED, tol),
    "orthogonality_battery": lambda X, W, tol: dd.orthogonality_battery(
        X, [W, X], SCHED, tol),
    "bracket guard": lambda X, W, tol: ito.ito_terms_c12(
        FUNCTION_CATALOG["square"], X, SCHED, tol),
    "ito_c1_lambda": lambda X, W, tol: ito.ito_c1_lambda(
        FUNCTION_CATALOG["xabs_sqrt"], X, SCHED, tol),
    "particular_wd_check": lambda X, W, tol: dd.particular_wd_check(
        dd.LabeledDecomposition(M_c=X, A_prime=W), None, SCHED, tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", TOL_ENTRIES)
def test_tolerance_that_is_not_positive_and_finite_is_rejected(monkeypatch, entry, tol):
    # an infinite or NaN tolerance passes any statistic, 0 or less none:
    # either way the check is rejected before any estimate is made
    X, W = (sim.brownian_on_grid(uniform_grid(1.0, N), seed) for seed in (1, 2))

    def no_estimate(*args):
        raise AssertionError("estimate made before the tolerance was checked")

    monkeypatch.setattr(reg, "_Mesh", no_estimate)
    with pytest.raises(ValueError, match="must be positive and finite$"):
        TOL_ENTRIES[entry](X, W, tol)


def _check(doc, verdict, statistic, threshold, passed):
    """``doc`` (a report's JSON verdict) is ``verdict``, and holds the numbers
    and the decision that the report's rule used."""
    assert doc == asdict(verdict)
    assert (doc["statistic"], doc["threshold"], doc["passed"]) == (
        statistic, threshold, passed)
    assert type(doc["passed"]) is bool


def _jump_case(kind, **kw):
    X, gt = sim.simulate(sim.SimSpec(kind, n=N, seed=2, **kw))
    return X, gt, dd.LabeledDecomposition.from_ground_truth(gt)


def test_report_json_verdicts_carry_the_decision_numbers(tmp_path):
    X, gt = sim.simulate(sim.SimSpec("brownian", n=N, seed=1))
    rep = reg.qv_limit(X, SCHED, tol=0.05)
    _check(rep.to_json_dict()["verdict"], rep.verdict, rep.sup_gaps[-1],
           0.05 * max(rep.sup_norms[-1], 1e-12), rep.converged)

    rep = dd.orthogonality_test(step_path(1.0, N, 0.5), X, SCHED, tol=0.05)
    _check(rep.to_json_dict()["verdict"], rep.verdict, rep.sup_norms[-1], 0.05,
           rep.decision)

    Xj, gtj, dec = _jump_case("jump_diffusion", intensity=3.0,
                              jump_law=NormalLaw(0.0, 0.8))
    chain = dd.chain_rule_c01(FUNCTION_CATALOG["square"], Xj, dec, gtj.compensator,
                              SCHED, tol=0.05)
    Xc, gtc, decc = _jump_case("compound_poisson", intensity=5.0,
                               jump_law=NormalLaw(0.5, 1.0))
    c0 = dd.special_wd_c0_chain(FUNCTION_CATALOG["sin"], Xc, gtc.compensator, SCHED)
    for agg in (chain, c0):
        doc = agg.to_json_dict()
        for d, r in zip(doc["orth_reports"], agg.orth_reports, strict=True):
            _check(d["verdict"], r.verdict, r.sup_norms[-1], dd.ORTH_TOL, r.decision)
        assert doc["decision"] is agg.decision
        assert agg.decision == all(d["verdict"]["passed"] for d in doc["orth_reports"])

    rep = dd.particular_wd_check(dec, gtj.compensator, SCHED, tol=0.05)
    doc = rep.to_json_dict()
    _check(doc["bracket"], rep.bracket, rep.bracket.statistic,
           rep.bracket.threshold, rep.passed_bracket)
    _check(doc["alpha_atoms"], rep.alpha_atoms, rep.alpha_atoms.statistic,
           rep.alpha_atoms.threshold, rep.passed_alpha_atoms)
    assert doc["passed"] is rep.passed

    rep = dd.md_representation_check(decc, Xc, gtc.compensator)
    rebuilt = jmod.compensated_integral(jmod.X_FIELD, Xc, gtc.compensator)
    scale = max(decc.M_d.sup_norm(), Xc.sup_norm(), 1.0)
    _check(rep.to_json_dict()["verdict"], rep.verdict,
           float(np.max(np.abs(decc.M_d.values - rebuilt.values))), 1e-8 * scale,
           rep.passed)

    code = main(["ito-check", "--scenario", "poisson", "--fn", "identity",
                 "--measure-form", "--n", str(N), "--levels", "4",
                 "--threshold", "1e-13", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "poisson_ito_identity_report.json").read_text())
    assert doc["schema_version"] == 2
    v = doc["verdict"]
    assert (v["rule"], v["statistic"], v["threshold"]) == (
        "relative_residual", doc["relative_residual"], 1e-13)
    assert v["passed"] is (code == 0)
