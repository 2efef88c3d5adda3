"""Verdict helpers, the one pass rule of the reports that decide, and the
verdicts that reports write to JSON."""

import ast
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

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
    "alpha_atoms": (lambda s: reg.alpha_atoms_verdict(s, 3.0), 1e-9 * 3.0, False),
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


def _jump_case(kind, **kw):
    X, gt = sim.simulate(sim.SimSpec(kind, n=N, seed=2, **kw))
    return X, gt, dd.LabeledDecomposition.from_ground_truth(gt)


def _battery(rep):
    return [("orthogonality", r.sup_norms[-1], dd.ORTH_TOL) for r in rep.orth_reports]


@pytest.fixture(scope="module")
def cases():
    """A small case of every report that decides, by class: the report and,
    per verdict, the rule and the statistic and threshold that the report's
    rule compares (None: not recomputed here)."""
    X, _ = sim.simulate(sim.SimSpec("brownian", n=N, seed=1))
    Xj, gtj, dec = _jump_case("jump_diffusion", intensity=3.0,
                              jump_law=NormalLaw(0.0, 0.8))
    Xc, gtc, decc = _jump_case("compound_poisson", intensity=5.0,
                               jump_law=NormalLaw(0.5, 1.0))
    lim = reg.qv_limit(X, SCHED, tol=0.05)
    orth = dd.orthogonality_test(step_path(1.0, N, 0.5), X, SCHED, tol=0.05)
    chain = dd.chain_rule_c01(FUNCTION_CATALOG["square"], Xj, dec, gtj.compensator,
                              SCHED, tol=0.05)
    c0 = dd.special_wd_c0_chain(FUNCTION_CATALOG["sin"], Xc, gtc.compensator, SCHED)
    pwd = dd.particular_wd_check(dec, gtj.compensator, SCHED, tol=0.05)
    md = dd.md_representation_check(decc, Xc, gtc.compensator)
    rebuilt = jmod.compensated_integral(jmod.X_FIELD, Xc, gtc.compensator)
    harness = ito.ito_terms_c12(FUNCTION_CATALOG["square"], X, SCHED, tol=0.05)
    checked = replace(harness, verdicts=(
        reg.residual_verdict(harness.relative_residual, 1e-2),))
    return {
        reg.LimitReport: (lim, [("cauchy", lim.sup_gaps[-1],
                                 0.05 * max(lim.sup_norms[-1], 1e-12))]),
        dd.OrthReport: (orth, [("orthogonality", orth.sup_norms[-1], 0.05)]),
        dd.ChainRuleReport: (chain, _battery(chain)),
        dd.C0ChainReport: (c0, _battery(c0)),
        dd.ParticularWDReport: (pwd, [("bracket", None, None),
                                      ("alpha_atoms", None, None)]),
        dd.MdRepresentationReport: (md, [(
            "md_representation", float(np.max(np.abs(decc.M_d.values - rebuilt.values))),
            1e-8 * max(decc.M_d.sup_norm(), Xc.sup_norm(), 1.0))]),
        ito.ItoReport: (checked, [("relative_residual", checked.relative_residual, 1e-2)]),
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_deciding_report_passes_by_its_verdicts(cases):
    reports = set(_subclasses(reg.Report)) - {reg.Decision}
    # the one report that does not decide: its finiteness flags are
    # preconditions, which raise IntegrabilityError where they fail
    assert reports - set(cases) == {jmod.IntegrabilityReport}
    assert not hasattr(jmod.IntegrabilityReport, "passed")
    for cls, (rep, _) in cases.items():
        assert type(rep) is cls and issubclass(cls, reg.Decision)
        assert rep.verdicts and all(type(v) is reg.Verdict for v in rep.verdicts)
        assert rep.passed is (bool(rep.verdicts) and all(v.passed for v in rep.verdicts))
        doc = rep.to_json_dict()
        assert doc["schema_version"] == 3
        assert doc["verdicts"] == [asdict(v) for v in rep.verdicts]
        assert doc["passed"] is rep.passed
        # the aliases of ``passed`` are not written
        assert not {"converged", "decision"} & set(doc)
    # no verdict: nothing compared, so not passed, as for one window
    harness, _ = cases[ito.ItoReport]
    assert replace(harness, verdicts=()).passed is False
    assert cases[reg.LimitReport][0].converged is cases[reg.LimitReport][0].passed
    assert cases[dd.ChainRuleReport][0].decision is cases[dd.ChainRuleReport][0].passed


def _bool_names(cls: ast.ClassDef) -> list[str]:
    """The names of ``cls`` that hold a bool: fields annotated bool,
    properties returning bool, and aliases of another attribute."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and "bool" in ast.unparse(node.annotation):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None \
                and "bool" in ast.unparse(node.returns):
            names.append(node.name)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
            names += [t.id for t in node.targets]
    return names


def test_no_deciding_report_holds_another_bool():
    # ``passed`` (on Decision) is the one pass/fail; the aliases stay for the
    # benchmark's op checks, and gaps_increasing is a diagnostic no verdict reads
    found = {}
    for src in sorted((Path(reg.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(src.read_text())):
            if isinstance(node, ast.ClassDef) and "Decision" in map(ast.unparse, node.bases):
                found[node.name] = _bool_names(node)
    assert len(found) == 7
    assert {k: v for k, v in found.items() if v} == {
        "LimitReport": ["converged", "gaps_increasing"], "ChainRuleReport": ["decision"]}


def _check(doc, verdict, statistic, threshold, passed):
    """``doc`` (a report's JSON verdict) is ``verdict``, and holds the numbers
    and the decision that the report's rule used."""
    assert doc == asdict(verdict)
    assert (doc["statistic"], doc["threshold"], doc["passed"]) == (
        statistic, threshold, passed)
    assert type(doc["passed"]) is bool


def test_report_json_verdicts_carry_the_decision_numbers(tmp_path, cases):
    for rep, expected in cases.values():
        docs = rep.to_json_dict()["verdicts"]
        for doc, v, (rule, statistic, threshold) in zip(docs, rep.verdicts, expected,
                                                        strict=True):
            assert v.rule == rule
            _check(doc, v, v.statistic if statistic is None else statistic,
                   v.threshold if threshold is None else threshold, v.passed)

    code = main(["ito-check", "--scenario", "poisson", "--fn", "identity",
                 "--measure-form", "--n", str(N), "--levels", "4",
                 "--threshold", "1e-13", "--out", str(tmp_path)])
    doc = json.loads((tmp_path / "poisson_ito_identity_report.json").read_text())
    assert doc["schema_version"] == 3
    [v] = doc["verdicts"]
    assert (v["rule"], v["statistic"], v["threshold"]) == (
        "relative_residual", doc["relative_residual"], 1e-13)
    assert v["passed"] is doc["passed"] is (code == 0)
