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
``chain_rule_c01``, ``gamma_c12_reference`` and ``special_wd_c0_chain``
are views of the expansion of F(t, X_t) in ``ito``; ``jump_identities``
reads the first two and the measure form off one expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jumps as jmod
from .ito import FunctionBundle, ItoReport, _Expansion, _measure_form, stieltjes_left
from .jumps import (CompensatorSpec, X_FIELD, _has_atoms, _if_atoms, increment_field,
                    integrability_report)
from .paths import CadlagPath, PathError, _constant_on, _require_shared_grid
from .regularize import (DEFAULT_SCHEDULE, DEFAULT_TOL, Decision, EpsilonSchedule, Verdict,
                         _limits, _require_fit, _require_tol, _windows,
                         alpha_atoms_verdict, bracket_verdict, covariation,
                         forward_integral, md_verdict, orthogonality_verdict)
from .simulate import _brownian_along

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

    def _part(self, role: str, base: CadlagPath) -> CadlagPath:
        """The labeled ``role`` component, or the zero path on ``base``'s grid."""
        P = getattr(self, role)
        return P if P is not None else _constant_on(base)


def brownian_battery(X: CadlagPath, seed: int = 0) -> list[CadlagPath]:
    """BATTERY_SIZE independent standard Brownian test paths on X's grid,
    fresh streams."""
    return [_brownian_along(X, seed, stream=101 + k)
            for k in range(BATTERY_SIZE)]


# -- orthogonality ------------------------------------------------------------


@dataclass
class OrthReport(Decision, kind="orthogonality_report"):
    """Decay diagnostics of the covariation estimate against one test path."""

    epsilons: tuple
    sup_norms: np.ndarray
    sup_gaps: np.ndarray
    verdicts: tuple[Verdict, ...]


def orthogonality_test(A: CadlagPath, N: CadlagPath,
                       schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                       tol: float = ORTH_TOL) -> OrthReport:
    """Covariation of (A, N) along the schedule; passed when the final
    estimate's sup-norm is below tol.  N must be continuous; the
    study is ``ucp_limit(covariation, A, N)``, bit for bit."""
    return orthogonality_battery(A, [N], schedule, tol)[0]


def orthogonality_battery(A: CadlagPath, tests: list[CadlagPath],
                          schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                          tol: float = ORTH_TOL) -> list[OrthReport]:
    """``orthogonality_test(A, N)`` for every N in ``tests``, bit for bit,
    from one ``_windows`` study of A: every test path must be continuous
    (PathError before any estimate), so each (A, N) has A's mesh."""
    if any(N.jump_marks.size for N in tests):
        raise PathError("test martingale must be continuous (no marked jumps)")
    return [OrthReport(r.epsilons, r.sup_norms, r.sup_gaps,
                       (orthogonality_verdict(r.sup_norms[-1], tol),))
            for r in _limits(_windows(A, tests, schedule), schedule, tol)]


# -- chain rule ----------------------------------------------------------------


@dataclass
class ChainRuleReport(Decision, kind="chain_rule_report"):
    """Decomposition F(t, X_t) = M^F + A^F with the defect path Gamma.

    ``gamma`` is F(t, X_t) minus the four explicit terms (initial value,
    martingale integral, two compensated small-jump integrals, big-jump
    sum); ``a_path`` regroups it with the big-jump compensator integral so
    that a_path is predictable for predictable inputs.  ``terms`` keeps each
    signed piece for linearity checks.  ``verdicts`` are the battery's.
    """

    function: str
    lhs: CadlagPath
    m_path: CadlagPath
    a_path: CadlagPath
    gamma: CadlagPath
    vbar: CadlagPath
    terms: dict
    orth_reports: list
    verdicts: tuple[Verdict, ...]

    # read-only alias of ``passed`` for the benchmark's op checks
    decision = Decision.passed


def chain_rule_c01(F: FunctionBundle, X: CadlagPath,
                   decomp: LabeledDecomposition,
                   nu: CompensatorSpec | None = None,
                   schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                   tol: float = DEFAULT_TOL, orth_tol: float = ORTH_TOL,
                   battery_seed: int = 0) -> ChainRuleReport:
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
                       battery_seed)


def _chain_rule(ex: _Expansion, decomp: LabeledDecomposition, orth_tol: float,
                battery_seed: int) -> ChainRuleReport:
    F, X = ex.F, ex.X
    ex.require("c01")
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
    gamma = (lhs - _constant_on(X, lhs.values[0]) - mart_int - k_comp
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
                           orth, tuple(v for r in orth for v in r.verdicts))


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
    ex.require("c12")
    A = decomp._part("A", X)
    _require_shared_grid(X, A)
    time_term, bracket = ex.smooth_terms()
    if float(np.max(np.abs(A.values - A.values[0]))) == 0.0:
        fwd = _constant_on(X)
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
    return (_measure_form(ex), _chain_rule(ex, decomp, ORTH_TOL, 0),
            _gamma_reference(ex, decomp))


# -- particular decomposition checks ------------------------------------------


@dataclass
class ParticularWDReport(Decision, kind="particular_decomposition_report"):
    """Bracket identity and drift-atom verdicts for X = M + V + A_prime.
    ``alpha_drift_variation``, the variation of alpha - A_prime, is unjudged."""

    verdicts: tuple[Verdict, ...]
    alpha_drift_variation: float


def particular_wd_check(decomp: LabeledDecomposition,
                        nu: CompensatorSpec | None = None,
                        schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                        tol: float = ORTH_TOL) -> ParticularWDReport:
    """Checks for the martingale + bounded variation + continuous orthogonal
    splitting: (a) the estimated bracket of the sum matches
    [M, M] + sum (dV)^2 + 2 sum dV dM (``bracket_verdict``), and (b) the
    drift part alpha = X - M_c - compensated small jumps - big-jump sum
    jumps only at the compensator's time atoms (``alpha_atoms_verdict``):
    there it may jump, since those jumps are predictable.

    Only the final window's bracket estimates of X and M are read, so only
    that window is evaluated, after checking that every window fits the
    grid.  Raises ValueError for a tolerance that is not a positive finite
    number and PathError when none of M_c, M_d, V and A_prime is given.
    """
    _require_tol(tol)
    base = next((p for p in (decomp.M_c, decomp.M_d, decomp.V, decomp.A_prime)
                 if p is not None), None)
    if base is None:
        raise PathError("decomposition has no components")
    M = (decomp.martingale
         if (decomp.M_c is not None or decomp.M_d is not None)
         else _constant_on(base))
    V, A_prime = decomp._part("V", M), decomp._part("A_prime", M)
    if not np.isfinite(np.sum(np.abs(np.diff(V.values)))):
        raise PathError("bounded variation component V has infinite variation")
    X = M + V + A_prime
    # M shares X's grid, so the windows that fit X fit M
    _require_fit(schedule, X)
    eps = schedule.epsilons[-1]
    dv = V.values - V.left_values
    cross = np.cumsum(dv * dv + 2.0 * dv * (M.values - M.left_values))
    reference = covariation(M, M, eps).values + cross
    bracket_gap = float(np.max(np.abs(covariation(X, X, eps).values - reference)))
    scale = max(float(np.max(np.abs(reference))), 1.0)

    small = _if_atoms(X, nu, lambda: jmod.compensated_integral(
        X_FIELD.with_truncation("small"), X, nu))
    big = _if_atoms(X, nu, lambda: jmod.integrate_mu(
        X_FIELD.with_truncation("big"), X))
    alpha = X - decomp._part("M_c", X) - small - big
    alpha_jumps = np.abs(alpha.values - alpha.left_values)
    if nu is not None:
        alpha_jumps[jmod._atom_rows(nu, X.grid)] = 0.0
    return ParticularWDReport(
        (bracket_verdict(bracket_gap, tol, scale),
         alpha_atoms_verdict(float(np.max(alpha_jumps)), scale)),
        float(np.sum(np.abs(np.diff((alpha - A_prime).values)))))


@dataclass
class MdRepresentationReport(Decision, kind="md_representation_report"):
    """Gap between the labeled purely discontinuous martingale part and the
    compensated size integral rebuilt from the jump measure.

    ``atom_gap_max``, the largest |dM_d - dX|, is unjudged (no verdict reads
    it): with time atoms in the compensator dM_d = dX - (atom part), which
    this check does not rebuild, so a nonzero gap is no failure there.
    Without time atoms it should read zero.
    """

    verdicts: tuple[Verdict, ...]
    atom_gap_max: float


def md_representation_check(decomp: LabeledDecomposition, X: CadlagPath,
                            nu: CompensatorSpec | None) -> MdRepresentationReport:
    """Compare the labeled M_d against the compensated integral of the size
    field, and report the atom-level jump gap |dM_d - dX|; the sup gap
    passes below 1e-8 of the larger sup-norm (at least 1)."""
    if not integrability_report(X).big_jumps_summable:
        raise jmod.IntegrabilityError("big-jump total is not finite")
    md = decomp._part("M_d", X)
    _require_shared_grid(X, md)
    rebuilt = _if_atoms(X, nu, lambda: jmod.compensated_integral(X_FIELD, X, nu))
    sup_gap = float(np.max(np.abs(md.values - rebuilt.values)))
    atom_gaps = np.abs((md.values - md.left_values) - (X.values - X.left_values))
    scale = max(md.sup_norm(), X.sup_norm(), 1.0)
    return MdRepresentationReport((md_verdict(sup_gap, scale),), float(np.max(atom_gaps)))


# -- continuous-function chain rule -------------------------------------------


@dataclass
class C0ChainReport(Decision, kind="c0_chain_report"):
    """Decomposition of F(t, X_t) built without any space derivative;
    ``verdicts`` are the battery's."""

    function: str
    a_path: CadlagPath
    compensated: CadlagPath
    jump_abs_total: float
    orth_reports: list
    verdicts: tuple[Verdict, ...]


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

    It takes no decomposition of X, so its battery of independent Brownian
    paths carries no signal about X's own martingale part: its verdicts
    cannot see a missing compensator, as the raw F(t, X_t) - F(0, X_0)
    passes that battery too.
    """
    ex = _Expansion(F, X, nu, schedule, ORTH_TOL)
    lhs = ex.lhs
    jump_abs = float(np.sum(np.abs(lhs.jump_sizes)))
    if not np.isfinite(jump_abs):
        raise jmod.IntegrabilityError("jump total of F(t, X_t) is not finite")
    comp = _if_atoms(X, nu, lambda: jmod.compensated_integral(
        increment_field(F), X, nu))
    a_path = lhs - _constant_on(X, lhs.values[0]) - comp
    orth = orthogonality_battery(a_path, brownian_battery(X), ex.schedule, ORTH_TOL)
    return C0ChainReport(F.name, a_path, comp, jump_abs, orth,
                         tuple(v for r in orth for v in r.verdicts))
