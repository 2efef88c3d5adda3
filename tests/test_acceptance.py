"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

import pathcalc.simulate as sim
from pathcalc import dirichlet as dd
from pathcalc import ito
from pathcalc import jumps as jm
from pathcalc import regularize as reg
from pathcalc.catalog import ORTH_SCENARIOS, SCENARIOS
from pathcalc.ito import FUNCTION_CATALOG
from pathcalc.jumps import NormalLaw
from pathcalc.paths import CadlagPath, constant_path, uniform_grid

from oracles import (brute_covariation, brute_forward_integral,
                     linear_combination, rel_error)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_paths(count: int = 20):
    """Mixed random paths with n <= 1e3: diffusive, pure-jump, and mixtures."""
    rng = np.random.default_rng(2024)
    out = []
    for k in range(count):
        n = int(rng.integers(200, 1001))
        grid = uniform_grid(1.0, n)
        kind = k % 3
        values = np.cumsum(rng.normal(0, 0.05, grid.size)) if kind != 1 else (
            np.zeros(grid.size))
        left = values.copy()
        n_jumps = int(rng.integers(0, 6)) if kind == 0 else int(rng.integers(1, 8))
        marks = np.sort(rng.choice(np.arange(1, grid.size), size=n_jumps,
                                   replace=False)) if n_jumps else np.array([], int)
        sizes = rng.normal(0, 1.0, n_jumps)
        sizes = np.where(np.abs(sizes) < 0.05, 0.3, sizes)
        for i, s in zip(marks, sizes):
            values[i:] += s
        left = values.copy()
        left[marks] -= sizes
        out.append(CadlagPath(grid, values, left, rule="linear"))
    return out


def test_criterion_1_kernel_oracle_equivalence_and_speed():
    paths = _random_paths(20)
    rng = np.random.default_rng(7)
    worst = 0.0
    for X in paths:
        Y = paths[int(rng.integers(0, len(paths)))]
        if not X.same_grid(Y):
            Y = X
        for eps in (0.11, 0.04):
            for est, (vals, lefts) in (
                    (reg.forward_integral(Y, X, eps),
                     brute_forward_integral(Y, X, eps)),
                    (reg.covariation(X, Y, eps), brute_covariation(X, Y, eps))):
                worst = max(worst, rel_error(est.values, vals),
                            rel_error(est.left_values, lefts))
    big, _ = sim.simulate(sim.SimSpec("brownian", n=1000000, seed=0))
    reg.covariation(big, big, 0.01)  # warm caches before timing
    t0 = time.perf_counter()
    reg.covariation(big, big, 0.01)
    t_cov = time.perf_counter() - t0
    t0 = time.perf_counter()
    reg.forward_integral(big, big, 0.01)
    t_fwd = time.perf_counter() - t0
    ok = worst < 1e-12 and t_cov < 1.0 and t_fwd < 1.0
    _report(1, ok, f"kernel vs literal transcription (values and left "
                   f"limits) rel {worst:.2e} "
                   f"(tol 1e-12); 1e6-point kernel {t_cov:.2f}s / {t_fwd:.2f}s "
                   f"(tol 1s)")


def test_criterion_2_brownian_bracket_accuracy():
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(1e-5)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        X, _ = sim.simulate(sim.SimSpec("brownian", n=100000, seed=seed))
        rep = reg.qv_limit(X, schedule=sched, tol=0.05)
        sup = float(np.max(np.abs(rep.limit.values - X.grid)))
        hits += rep.passed and sup < 0.05
    elapsed = time.perf_counter() - t0
    ok = hits >= 90 and elapsed < 60.0
    _report(2, ok, f"sup|bracket - t| < 0.05 on {hits}/100 seeds "
                   f"(need >= 90) in {elapsed:.0f}s (< 60s)")


def test_criterion_3_closed_form_bracket_of_moving_average():
    vals = []
    for seed in range(200):
        X, gt = sim.simulate(sim.SimSpec("convolution_martingale", n=2000,
                                         seed=seed))
        sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
        rep = reg.qv_limit(X, schedule=sched, tol=0.05)
        vals.append(float(rep.limit.values[-1]))
    mean = float(np.mean(vals))
    ok = 0.45 < mean < 0.55
    _report(3, ok, f"moving-average bracket at T: Monte Carlo mean {mean:.4f} "
                   f"in [0.45, 0.55], target 0.5")


def _cp_without_close_jumps(eps_final: float):
    for seed in range(40):
        X, gt = sim.simulate(sim.SimSpec("compound_poisson", n=20000, seed=seed,
                                         intensity=2.0,
                                         jump_law=NormalLaw(0.0, 1.0)))
        taus = gt.jump_times
        if taus.size >= 2 and np.min(np.diff(taus)) > 2.0 * eps_final and (
                taus[0] > eps_final) and (1.0 - taus[-1]) > eps_final:
            return X, gt
    raise RuntimeError("no suitable realization found")


def test_criterion_4_jump_identities():
    sched = reg.EpsilonSchedule.geometric(0.05, 3)
    eps_final = sched.epsilons[-1]
    X, gt = _cp_without_close_jumps(eps_final)
    sched = sched.snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    worst_a = 0.0
    for t, s in zip(X.jump_times, X.jump_sizes):
        jump = rep.limit.value_at(t) - rep.limit.left_limit(t)
        worst_a = max(worst_a, abs(jump - s * s) / (s * s))
    V = jm.integrate_mu(jm.X_SQUARED_FIELD, X)
    rep_zv = reg.ucp_limit(reg.covariation, X, V, schedule=sched, tol=0.05)
    target = float(np.sum(X.jump_sizes ** 3))
    rel_b = abs(rep_zv.limit.values[-1] - target) / max(abs(target), 1e-12)
    ok = worst_a < 1e-2 and rel_b < 1e-2
    _report(4, ok, f"bracket jump vs squared jump size rel {worst_a:.2e} "
                   f"(tol 1e-2); pure-jump pairing rel {rel_b:.2e} (tol 1e-2)")


def _criterion5_cases():
    specs = {
        "bm": (sim.SimSpec("brownian", n=200000, seed=2), 9),
        "poisson": (sim.SimSpec("poisson", n=50000, seed=5, intensity=2.0), 8),
        "cp_normal": (sim.SimSpec("compound_poisson", n=50000, seed=7,
                                  intensity=1.0, jump_law=NormalLaw(0, 1)), 8),
        "jump_diffusion": (sim.SimSpec("jump_diffusion", n=200000, seed=4,
                                       sigma=1.0, intensity=1.0,
                                       jump_law=NormalLaw(0, 1)), 9),
    }
    for name, (spec, levels) in specs.items():
        X, gt = sim.simulate(spec)
        sched = reg.EpsilonSchedule.geometric(0.05, levels).for_path(X, gt.base_dt)
        yield name, X, gt, sched


def test_criterion_5_identity_residuals_and_reassembly():
    worst_rel = 0.0
    worst_case = ""
    for name, X, gt, sched in _criterion5_cases():
        for fname in ("identity", "square", "tx", "sin"):
            rep = ito.ito_terms_c12(FUNCTION_CATALOG[fname], X, sched, tol=0.05)
            rel = rep.relative_residual
            if rel > worst_rel:
                worst_rel, worst_case = rel, f"{fname} on {name}"
    # measure-form reassembly at atom level, nu side removed exactly
    worst_asm = 0.0
    for name, spec, levels in (
            ("poisson", sim.SimSpec("poisson", n=4000, seed=5,
                                    intensity=2.0), 4),
            ("cp_normal", sim.SimSpec("compound_poisson", n=4000, seed=7,
                                      intensity=1.0,
                                      jump_law=NormalLaw(0, 1)), 4),
            ("jump_diffusion", sim.SimSpec("jump_diffusion", n=20000, seed=4,
                                           sigma=1.0, intensity=1.0,
                                           jump_law=NormalLaw(0, 1)), 6)):
        X, gt = sim.simulate(spec)
        sched = reg.EpsilonSchedule.geometric(0.05, levels).snapped(gt.base_dt)
        for fname in ("identity", "square", "tx", "sin"):
            rep = ito.ito_terms_measure_form(FUNCTION_CATALOG[fname], X,
                                             gt.compensator, sched, tol=0.05)
            rebuilt = (rep.parts["increment_mu"].values
                       - rep.parts["linear_mu"].values
                       + rep.parts["big_mu"].values)
            worst_asm = max(worst_asm, float(np.max(np.abs(
                rebuilt - rep.parts["jump_sum"].values))))
    ok = worst_rel < 1e-2 and worst_asm < 1e-8
    _report(5, ok, f"worst relative residual {worst_rel:.2e} ({worst_case}, "
                   f"tol 1e-2); jump-term reassembly {worst_asm:.2e} (tol 1e-8)")


def test_criterion_6_start_window_identity_on_catalog():
    worst = 0.0
    for sc in SCENARIOS.values():
        X, gt = sc.build(seed=1)
        levels = reg._default_levels(sc.default_eps0, 1 / sc.default_n)
        sched = reg.EpsilonSchedule.geometric(sc.default_eps0, levels).snapped(gt.base_dt)
        ones = constant_path(X.grid, 1.0)
        for eps in sched.epsilons:
            for Y in (X, ones):
                ucp = reg.forward_integral(Y, X, eps)
                rv = reg.forward_integral_rv(Y, X, eps)
                const = reg.rv_window_constant(Y, X, eps)
                sel = X.grid >= eps
                gap = float(np.max(np.abs(
                    (ucp.values - rv.values)[sel] + const)))
                worst = max(worst, gap)
    ok = worst < 1e-10
    _report(6, ok, f"start-window identity defect {worst:.2e} over the whole "
                   f"catalog and every window (tol 1e-10)")


def test_criterion_7_orthogonality_suite():
    results = {}
    for name in ("step_bm", "cp_bm", "pdp_bm", "self"):
        sc = ORTH_SCENARIOS[name]
        A, N, base_dt = sc.build(seed=3)
        levels = reg._default_levels(sc.default_eps0, 1 / sc.default_n)
        sched = reg.EpsilonSchedule.geometric(sc.default_eps0, levels).snapped(base_dt)
        rep = dd.orthogonality_test(A, N, sched, tol=0.05)
        results[name] = rep.passed
    ok = (results["step_bm"] and results["cp_bm"] and results["pdp_bm"]
          and not results["self"])
    _report(7, ok, f"decisions at tol 0.05: step+bm={results['step_bm']}, "
                   f"pure-jump+bm={results['cp_bm']}, pdp+bm={results['pdp_bm']}, "
                   f"negative control={results['self']} (expected False)")


def test_criterion_8_chain_rule_oracle_and_linearity():
    tol = 0.05
    worst_gap = 0.0
    for scenario in ("bm", "jd"):
        if scenario == "bm":
            X, gt = sim.simulate(sim.SimSpec("brownian", n=50000, seed=2))
            nu = None
        else:
            X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=50000, seed=4,
                                             sigma=1.0, intensity=1.0,
                                             jump_law=NormalLaw(0, 1)))
            nu = gt.compensator
        sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
        dec = dd.LabeledDecomposition.from_ground_truth(gt)
        for fname in ("identity", "square", "tx", "sin"):
            F = FUNCTION_CATALOG[fname]
            rep = dd.chain_rule_c01(F, X, dec, nu, sched, tol=tol)
            ref = dd.gamma_c12_reference(F, X, dec, nu, sched, tol=tol)
            worst_gap = max(worst_gap, float(np.max(np.abs(
                rep.gamma.values - ref.values))))
    # linearity at the fixed pipeline
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=10000, seed=4,
                                     sigma=1.0, intensity=1.0,
                                     jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    Fa, Fb = FUNCTION_CATALOG["square"], FUNCTION_CATALOG["sin"]
    Fm = linear_combination(2.0, Fa, -3.0, Fb)
    ga = dd.chain_rule_c01(Fa, X, dec, gt.compensator, sched, tol=tol).gamma
    gb = dd.chain_rule_c01(Fb, X, dec, gt.compensator, sched, tol=tol).gamma
    gm = dd.chain_rule_c01(Fm, X, dec, gt.compensator, sched, tol=tol).gamma
    lin = float(np.max(np.abs(gm.values - (2.0 * ga.values - 3.0 * gb.values))))
    lin_rel = lin / max(1.0, gm.sup_norm())
    ok = worst_gap < 2.0 * tol and lin_rel < 1e-10
    _report(8, ok, f"defect vs smooth reference sup gap {worst_gap:.3f} "
                   f"(tol {2 * tol}); linearity defect {lin_rel:.2e} (tol 1e-10)")


def test_criterion_9_rough_time_function_battery():
    X, gt = sim.simulate(sim.SimSpec("jump_diffusion", n=50000, seed=4,
                                     sigma=1.0, intensity=1.0,
                                     jump_law=NormalLaw(0, 1)))
    sched = reg.EpsilonSchedule.geometric(0.05, 8).snapped(gt.base_dt)
    dec = dd.LabeledDecomposition.from_ground_truth(gt)
    rep = dd.chain_rule_c01(FUNCTION_CATALOG["rough_time"], X, dec,
                            gt.compensator, sched, tol=0.05, orth_tol=0.05)
    norms = [float(r.sup_norms[-1]) for r in rep.orth_reports]
    ok = rep.passed and len(rep.orth_reports) >= 3
    _report(9, ok, f"residual part of the rough-in-time function passes a "
                   f"{len(rep.orth_reports)}-martingale battery at tol 0.05 "
                   f"(final norms {np.round(norms, 4).tolist()})")


def test_criterion_10_expected_failure_is_reported():
    X, gt = sim.simulate(sim.SimSpec("fbm", n=2000, seed=1, hurst=0.2))
    sched = reg.EpsilonSchedule.geometric(0.08, 4).snapped(gt.base_dt)
    rep = reg.qv_limit(X, schedule=sched, tol=0.05)
    ok = (not rep.passed) and rep.gaps_increasing
    _report(10, ok, f"rough-path study flags non-convergence with growing "
                    f"gaps {np.round(rep.sup_gaps, 2).tolist()}")
