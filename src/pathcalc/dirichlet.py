"""Orthogonality testing and decomposition harnesses.

A path A is treated as orthogonal to a continuous test martingale N when the
covariation estimate of (A, N) decays below tolerance along the window
schedule.  That is a statistical decision on one realization, never a proof,
so every report carries the raw estimator norms and gaps.

The chain-rule harnesses assemble the martingale part of F(t, X_t) from a
labeled decomposition of X plus its compensator model, define the residual
part by subtraction, and submit the residual to an orthogonality battery of
independent Brownian test paths.  Predictability of labeled components is
established by construction in the simulators, not inferred from data.
``chain_rule_c01`` and ``gamma_c12_reference`` are views of the expansion
of F(t, X_t) in ``ito``; ``jump_identities`` reads them and the measure
form off one expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jumps as jmod
from .ito import (FunctionBundle, ItoReport, increment_field, path_of_function,
                  _Expansion, _measure_form, stieltjes_left)
from .jumps import (CompensatorSpec, X_FIELD, _has_atoms, _if_atoms,
                    integrability_report)
from .paths import CadlagPath, PathError, constant_path
from .regularize import (DEFAULT_SCHEDULE, DEFAULT_TOL, EpsilonSchedule,
                         _covariation_studies, _require_fit, covariation,
                         forward_integral, ucp_limit)

ORTH_TOL = 0.05
BATTERY_SIZE = 3


@dataclass(frozen=True)
class LabeledDecomposition:
    """Component paths of a decomposition, each on the target path's grid.

    Roles: continuous martingale part M_c, purely discontinuous martingale
    part M_d, residual A, bounded variation part V and continuous orthogonal
    part A_prime for the V + A_prime refinement of A.
    """

    M_c: CadlagPath | None = None
    M_d: CadlagPath | None = None
    A: CadlagPath | None = None
    V: CadlagPath | None = None
    A_prime: CadlagPath | None = None

    @classmethod
    def from_ground_truth(cls, gt) -> "LabeledDecomposition":
        d = gt.decomposition or {}
        return cls(M_c=d.get("M_c"), M_d=d.get("M_d"), A=d.get("A"),
                   V=d.get("V"), A_prime=d.get("A_prime"))

    @property
    def martingale(self) -> CadlagPath:
        if self.M_c is None and self.M_d is None:
            raise PathError("decomposition has no martingale component")
        if self.M_c is None:
            return self.M_d
        if self.M_d is None:
            return self.M_c
        return self.M_c + self.M_d

    def components(self) -> dict:
        roles = {"M_c": self.M_c, "M_d": self.M_d, "A": self.A,
                 "V": self.V, "A_prime": self.A_prime}
        return {k: v for k, v in roles.items() if v is not None}

    def check_sums_to(self, X: CadlagPath) -> float:
        """Sup gap between X and M_c + M_d + A (or + V + A_prime); raises
        PathError when it exceeds 1e-9 of max(sup |X|, 1) or when the
        decomposition has no components."""
        keys = set(self.components())
        use = ["M_c", "M_d"] + (["A"] if "A" in keys else ["V", "A_prime"])
        total = None
        for k in use:
            p = self.components().get(k)
            if p is None:
                continue
            total = p if total is None else total + p
        if total is None:
            raise PathError("decomposition has no components")
        gap = float(np.max(np.abs(total.values - X.values)))
        if gap > 1e-9 * max(X.sup_norm(), 1.0):
            raise PathError(f"components do not sum to the path (gap {gap})")
        return gap


def brownian_battery(X: CadlagPath, seed: int = 0) -> list[CadlagPath]:
    """BATTERY_SIZE independent standard Brownian test paths on X's grid,
    fresh streams."""
    from .simulate import brownian_on_grid
    return [brownian_on_grid(X.grid, 1.0, seed, stream=101 + k)
            for k in range(BATTERY_SIZE)]


# -- orthogonality ------------------------------------------------------------


@dataclass
class OrthReport:
    """Decay diagnostics of the covariation estimate against one test path."""

    epsilons: tuple
    sup_norms: np.ndarray
    sup_gaps: np.ndarray
    tol: float
    decision: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "orthogonality_report",
            "epsilons": list(self.epsilons),
            "sup_norms": self.sup_norms.tolist(),
            "sup_gaps": self.sup_gaps.tolist(),
            "tol": self.tol,
            "decision": self.decision,
        }


def _require_continuous(N: CadlagPath) -> None:
    if N.jump_marks.size:
        raise PathError("test martingale must be continuous (no marked jumps)")


def _orth_report(rep, tol: float) -> OrthReport:
    return OrthReport(rep.epsilons, rep.sup_norms, rep.sup_gaps, float(tol),
                      bool(rep.sup_norms[-1] < tol))


def orthogonality_test(A: CadlagPath, N: CadlagPath,
                       schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                       tol: float = ORTH_TOL) -> OrthReport:
    """Covariation of (A, N) along the schedule; decision true when the
    final estimate's sup-norm is below tol.  N must be continuous."""
    _require_continuous(N)
    return _orth_report(ucp_limit(covariation, A, N, schedule, tol), tol)


def orthogonality_battery(A: CadlagPath, tests: list[CadlagPath],
                          schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                          tol: float = ORTH_TOL) -> list[OrthReport]:
    """``orthogonality_test(A, N)`` for every N in ``tests``, bit for bit.

    Every test path must be continuous (checked before any estimate), so
    each (A, N) pair has A's sample mesh: each window evaluates one mesh of
    A, A's samples and A's prefix sums, and from them the covariation
    against every test path.
    """
    for N in tests:
        _require_continuous(N)
    return [_orth_report(rep, tol)
            for rep in _covariation_studies(A, tests, schedule, tol)]


# -- chain rule ----------------------------------------------------------------


@dataclass
class ChainRuleReport:
    """Decomposition F(t, X_t) = M^F + A^F with the defect path Gamma.

    ``gamma`` is F(t, X_t) minus the four explicit terms (initial value,
    martingale integral, two compensated small-jump integrals, big-jump
    sum); ``a_path`` regroups it with the big-jump compensator integral so
    that a_path is predictable for predictable inputs.  ``terms`` keeps each
    signed piece for linearity checks.
    """

    function: str
    lhs: CadlagPath
    m_path: CadlagPath
    a_path: CadlagPath
    gamma: CadlagPath
    vbar: CadlagPath
    terms: dict
    orth_reports: list
    decision: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "chain_rule_report",
            "function": self.function,
            "decision": self.decision,
            "orth": [r.to_json_dict() for r in self.orth_reports],
            "terms": sorted(self.terms),
            "gamma_sup": self.gamma.sup_norm(),
            "a_sup": self.a_path.sup_norm(),
        }


def chain_rule_c01(F: FunctionBundle, X: CadlagPath,
                   decomp: LabeledDecomposition,
                   nu: CompensatorSpec | None = None,
                   schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                   tol: float = DEFAULT_TOL, orth_tol: float = ORTH_TOL,
                   battery_seed: int = 0, validate: bool = True) -> ChainRuleReport:
    """Assemble the decomposition of F(t, X_t) for F with one continuous
    space derivative and X carrying labeled martingale components.

    The martingale part collects the left-limit integral against
    M_c + M_d, the compensated small-jump increment and linear fields, and
    the big-jump sum; gamma is the remaining defect, and the residual part
    A^F = gamma + (big-jump compensator integral) is submitted to
    ``brownian_battery(X, battery_seed)``.  The bracket of X must converge
    along the schedule first (NonConvergenceError otherwise).
    """
    return _chain_rule(_Expansion(F, X, nu, schedule, tol), decomp, orth_tol,
                       battery_seed, validate)


def _chain_rule(ex: _Expansion, decomp: LabeledDecomposition, orth_tol: float,
                battery_seed: int, validate: bool) -> ChainRuleReport:
    F, X = ex.F, ex.X
    ex.require("c01", validate)
    ex.bracket  # the bracket guard comes before the decomposition is read
    has_atoms = _has_atoms(X, ex.nu)
    lhs = ex.lhs
    M = decomp.martingale
    mart_int = stieltjes_left(ex.dx_path, M)
    if has_atoms and not integrability_report(X, F).taylor_remainder_summable:
        raise jmod.IntegrabilityError(
            "big-jump Taylor total is not finite for this function")
    k_mu, k_nu, y_mu, y_nu, big_mu = ex.split
    vbar = ex.big_nu
    k_comp, y_comp = k_mu - k_nu, y_mu - y_nu
    gamma = (lhs - constant_path(X.grid, lhs.values[0]) - mart_int - k_comp
             + y_comp - big_mu)
    a_path = gamma + vbar
    m_path = lhs - a_path
    orth = orthogonality_battery(a_path, brownian_battery(X, seed=battery_seed),
                                 ex.schedule, orth_tol)
    terms = {"martingale_integral": mart_int,
             "small_jump_compensated_increment": k_comp,
             "small_jump_compensated_linear": y_comp,
             "big_jump_sum": big_mu,
             "big_jump_compensator": vbar}
    return ChainRuleReport(F.name, lhs, m_path, a_path, gamma, vbar, terms,
                           orth, all(r.decision for r in orth))


def gamma_c12_reference(F: FunctionBundle, X: CadlagPath,
                        decomp: LabeledDecomposition,
                        nu: CompensatorSpec | None = None,
                        schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                        tol: float = DEFAULT_TOL) -> CadlagPath:
    """Direct evaluation of the smooth-case defect path: time integral,
    forward integral against the labeled residual component, half the second
    derivative against the continuous bracket part, and the small-jump
    compensator integral of the Taylor remainder."""
    return _gamma_reference(_Expansion(F, X, nu, schedule, tol), decomp)


def _gamma_reference(ex: _Expansion, decomp: LabeledDecomposition) -> CadlagPath:
    X = ex.X
    ex.require("c12", False)
    time_term, bracket = ex.smooth_terms()
    A = decomp.A if decomp.A is not None else constant_path(X.grid)
    if float(np.max(np.abs(A.values - A.values[0]))) == 0.0:
        fwd = constant_path(X.grid)
    else:
        fwd = forward_integral(ex.dx_path, A, ex.schedule.epsilons[-1])
    return time_term + fwd + bracket + ex.small_nu


def jump_identities(F: FunctionBundle, X: CadlagPath,
                    decomp: LabeledDecomposition,
                    nu: CompensatorSpec | None = None,
                    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                    tol: float = DEFAULT_TOL
                    ) -> tuple[ItoReport, ChainRuleReport, CadlagPath]:
    """``ito_terms_measure_form``, ``chain_rule_c01`` (at its defaults) and
    ``gamma_c12_reference`` of the same inputs, bit for bit, from one
    expansion of F(t, X_t), so the pieces they share are built once; the
    first error raised is the one the three calls in sequence would raise."""
    ex = _Expansion(F, X, nu, schedule, tol)
    return (_measure_form(ex), _chain_rule(ex, decomp, ORTH_TOL, 0, True),
            _gamma_reference(ex, decomp))


# -- particular decomposition checks ------------------------------------------


@dataclass
class ParticularWDReport:
    """Bracket identity and regrouping checks for X = M + V + A_prime."""

    bracket_gap: float
    bracket_tol: float
    reassembly_gap: float
    alpha_jump_max: float
    alpha_drift_variation: float
    passed_bracket: bool
    passed_reassembly: bool
    passed_alpha_atoms: bool

    @property
    def passed(self) -> bool:
        return (self.passed_bracket and self.passed_reassembly
                and self.passed_alpha_atoms)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "particular_decomposition_report",
            "bracket_gap": self.bracket_gap,
            "bracket_tol": self.bracket_tol,
            "reassembly_gap": self.reassembly_gap,
            "alpha_jump_max": self.alpha_jump_max,
            "alpha_drift_variation": self.alpha_drift_variation,
            "passed": self.passed,
        }


def particular_wd_check(decomp: LabeledDecomposition,
                        nu: CompensatorSpec | None = None,
                        schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                        tol: float = ORTH_TOL,
                        m_bracket: CadlagPath | None = None) -> ParticularWDReport:
    """Checks for the martingale + bounded variation + continuous orthogonal
    splitting: (a) the estimated bracket of the sum matches
    [M, M] + sum (dV)^2 + 2 sum dV dM, (b) the sum is reproduced by the
    regrouping continuous martingale + drift + compensated small jumps +
    big-jump sum, and (c) the drift part alpha carries no jump atoms when
    the compensator has no time atoms.

    Only the final window's bracket estimates of X and M are read, so only
    that window is evaluated, after checking that every window fits the
    grid.  Raises PathError when none of M_c, M_d, V and A_prime is given.
    """
    base = next((p for p in (decomp.M_c, decomp.M_d, decomp.V, decomp.A_prime)
                 if p is not None), None)
    if base is None:
        raise PathError("decomposition has no components")
    M = (decomp.martingale
         if (decomp.M_c is not None or decomp.M_d is not None)
         else constant_path(base.grid))
    V = decomp.V if decomp.V is not None else constant_path(M.grid)
    A_prime = decomp.A_prime if decomp.A_prime is not None else constant_path(M.grid)
    if not np.isfinite(np.sum(np.abs(np.diff(V.values)))):
        raise PathError("bounded variation component V has infinite variation")
    X = M + V + A_prime
    # M shares X's grid, so the windows that fit X fit M
    _require_fit(schedule, X)
    eps = schedule.epsilons[-1]
    bracket = covariation(X, X, eps)
    if m_bracket is None:
        m_bracket = covariation(M, M, eps)
    dv = np.zeros(X.grid.size)
    dm = np.zeros(X.grid.size)
    dv[V.jump_marks] = V.jump_sizes
    dm_sizes = M.values - M.left_values
    cross = np.cumsum(dv * dv + 2.0 * dv * dm_sizes)
    reference = m_bracket.values + cross
    bracket_gap = float(np.max(np.abs(bracket.values - reference)))
    scale = max(float(np.max(np.abs(reference))), 1.0)
    passed_bracket = bracket_gap < tol * scale

    small = _if_atoms(X, nu, lambda: jmod.compensated_integral(
        X_FIELD.with_truncation("small"), X, nu))
    big = _if_atoms(X, nu, lambda: jmod.integrate_mu(
        X_FIELD.with_truncation("big"), X))
    mc = decomp.M_c if decomp.M_c is not None else constant_path(X.grid)
    alpha = X - mc - small - big
    rhs = mc + alpha + small + big
    reassembly_gap = float(np.max(np.abs(rhs.values - X.values)))
    alpha_jump_max = float(np.max(np.abs(alpha.values - alpha.left_values)))
    drift = alpha - A_prime
    alpha_drift_variation = float(np.sum(np.abs(np.diff(drift.values))))
    # with time atoms in the compensator the drift may legitimately jump
    atoms_ok = (alpha_jump_max < 1e-9 * scale) or bool(nu and nu.atoms)
    return ParticularWDReport(
        bracket_gap=bracket_gap, bracket_tol=tol * scale,
        reassembly_gap=reassembly_gap, alpha_jump_max=alpha_jump_max,
        alpha_drift_variation=alpha_drift_variation,
        passed_bracket=passed_bracket,
        passed_reassembly=reassembly_gap < 1e-9 * scale,
        passed_alpha_atoms=atoms_ok)


@dataclass
class MdRepresentationReport:
    """Gap between the labeled purely discontinuous martingale part and the
    compensated size integral rebuilt from the jump measure."""

    sup_gap: float
    atom_gap_max: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.sup_gap < self.tol

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, "kind": "md_representation_report",
                "sup_gap": self.sup_gap, "atom_gap_max": self.atom_gap_max,
                "tol": self.tol, "passed": self.passed}


def md_representation_check(decomp: LabeledDecomposition, X: CadlagPath,
                            nu: CompensatorSpec | None) -> MdRepresentationReport:
    """Compare the labeled M_d against the compensated integral of the size
    field and check the atom-level jump identity dM_d = dX - (atom part);
    the sup gap passes below 1e-8 of the larger sup-norm (at least 1)."""
    if not integrability_report(X).big_jumps_summable:
        raise jmod.IntegrabilityError("big-jump total is not finite")
    md = decomp.M_d if decomp.M_d is not None else constant_path(X.grid)
    rebuilt = _if_atoms(X, nu, lambda: jmod.compensated_integral(X_FIELD, X, nu))
    sup_gap = float(np.max(np.abs(md.values - rebuilt.values)))
    md_jumps = md.values - md.left_values
    x_jumps = X.values - X.left_values
    atom_gap = float(np.max(np.abs(md_jumps - x_jumps)))
    scale = max(md.sup_norm(), X.sup_norm(), 1.0)
    return MdRepresentationReport(sup_gap, atom_gap, 1e-8 * scale)


# -- continuous-function chain rule -------------------------------------------


@dataclass
class C0ChainReport:
    """Decomposition of F(t, X_t) built without any space derivative."""

    function: str
    a_path: CadlagPath
    compensated: CadlagPath
    jump_abs_total: float
    orth_reports: list
    decision: bool

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, "kind": "c0_chain_report",
                "function": self.function, "decision": self.decision,
                "jump_abs_total": self.jump_abs_total,
                "orth": [r.to_json_dict() for r in self.orth_reports]}


def special_wd_c0_chain(F: FunctionBundle, X: CadlagPath,
                        nu: CompensatorSpec | None = None,
                        schedule: EpsilonSchedule = DEFAULT_SCHEDULE) -> C0ChainReport:
    """Chain rule from continuity alone: the compensated integral of the
    untruncated increment field F(s, X_{s-} + x) - F(s, X_{s-}) is removed
    from F(t, X_t) and the remainder is tested against ``brownian_battery(X)``
    at ORTH_TOL.

    Requires the running total of |jump of F(s, X_s)| to be finite on the
    path; continuity of F on the path's value set is the caller's scenario
    assumption.
    """
    lhs = path_of_function(F, X)
    jump_abs = float(np.sum(np.abs(lhs.jump_sizes)))
    if not np.isfinite(jump_abs):
        raise jmod.IntegrabilityError("jump total of F(t, X_t) is not finite")
    comp = _if_atoms(X, nu, lambda: jmod.compensated_integral(
        increment_field(F), X, nu))
    a_path = lhs - constant_path(X.grid, lhs.values[0]) - comp
    orth = orthogonality_battery(a_path, brownian_battery(X), schedule, ORTH_TOL)
    return C0ChainReport(F.name, a_path, comp, jump_abs, orth,
                         all(r.decision for r in orth))
