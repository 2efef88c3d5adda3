"""Term-by-term assembly and residual verification of the change-of-variable
identities for finite quadratic variation paths.

Three variants are covered: the smooth (twice differentiable in space) form
with an explicit jump correction sum, its random-measure reformulation with
the small/big jump split, and the Holder-derivative form whose jump sum uses
the symmetric average of the space derivative at both jump endpoints.

Every report carries the named term paths, the pointwise residual against
F(t, X_t) - F(0, X_0), and the residual sup-norm along the window schedule;
the residual is assembled by construction, never fitted.

Every harness, here and in ``dirichlet``, is a view of one expansion of
F(t, X_t) per call (``_Expansion``), which checks the schedule and the
tolerance before anything else and F's derivatives once: its pieces
(F(t, X_t), dF_x, the guarded bracket, the time and bracket terms, the jump
sums, the small/big split and the compensator integrals) are built when
first read, once.  The jump fields of F are built in ``jumps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jumps as jmod
from .jumps import (CompensatorSpec, IntegrandField, X_SQUARED_FIELD, _if_atoms,
                    increment_field, integrability_report, linear_jump_field,
                    taylor_remainder_field)
from .paths import (CadlagPath, _cumsum0, _jumping_at, _require_shared_grid, _samples,
                    _union_marks)
from .regularize import (DEFAULT_SCHEDULE, DEFAULT_TOL, Decision, EpsilonSchedule, Verdict,
                         _forward_sums, _require_fit, _require_tol, _windows,
                         qv_limit)


class BundleValidationError(ValueError):
    """A supplied derivative disagrees with finite differences of F."""


class NonConvergenceError(RuntimeError):
    """A required bracket estimate did not converge along the schedule;
    ``verdict`` is the bracket study's Cauchy verdict."""

    def __init__(self, verdict: Verdict):
        super().__init__("bracket estimate did not converge along the schedule")
        self.verdict = verdict


# -- function bundles ---------------------------------------------------------

# the evaluators each class requires, and so the class lattice: a class is
# at least another when it requires all the other does (``at_least``)
_REQUIRED = {"c12": ("dt", "dx", "dxx"), "c01": ("dx",), "c1l": ("dt", "dx"),
             "c0": ()}


@dataclass(frozen=True)
class FunctionBundle:
    """Scalar function F(t, x) with the derivatives its class provides.

    Classes: ``c12`` (dt, dx, dxx), ``c01`` (dx), ``c1l`` (dt, dx with an
    x-Holder dx of exponent ``holder``, 1 by default as for ``c12``), ``c0``
    (none).  An evaluator is its formula on numpy arrays t and x: it may
    return a scalar, such as ``dxx=lambda t, x: 2.0``, or an array that broadcasts.
    """

    name: str
    smoothness: str
    f: object
    dt: object = None
    dx: object = None
    dxx: object = None
    holder: float | None = None

    def __post_init__(self):
        if self.smoothness not in _REQUIRED:
            raise ValueError(f"unknown smoothness class {self.smoothness!r}")
        for attr in _REQUIRED[self.smoothness]:
            if getattr(self, attr) is None:
                raise ValueError(
                    f"class {self.smoothness} requires evaluator {attr!r}")
        if self.smoothness in ("c1l", "c12") and self.holder is None:
            object.__setattr__(self, "holder", 1.0)

    def at_least(self, smoothness: str) -> bool:
        return set(_REQUIRED[smoothness]) <= set(_REQUIRED[self.smoothness])

    def validate_derivatives(self, t_range, x_range) -> None:
        """Compare supplied derivatives with central finite differences at
        100 seeded random probe points, to a relative 1e-4; raises
        BundleValidationError on disagreement, and where a supplied value or
        a finite difference is not finite, since nothing is compared there."""
        rng = np.random.default_rng(0)
        t = rng.uniform(t_range[0], t_range[1], 100)
        x = rng.uniform(x_range[0], x_range[1], 100)
        span = max(abs(x_range[0]), abs(x_range[1]), 1.0)

        def check(name, supplied, fd):
            supplied, fd = _samples(supplied, t.shape), _samples(fd, t.shape)
            lost = ~(np.isfinite(supplied) & np.isfinite(fd))
            if np.any(lost):
                i = int(np.argmax(lost))
                raise BundleValidationError(
                    f"{self.name}: {name} or its finite difference is not finite "
                    f"at (t={t[i]:.4g}, x={x[i]:.4g})")
            err = np.abs(fd - supplied)
            bad = err > 1e-4 * np.maximum(1.0, np.abs(supplied))
            if np.any(bad):
                i = int(np.argmax(err))
                raise BundleValidationError(
                    f"{self.name}: {name} disagrees with finite differences "
                    f"at (t={t[i]:.4g}, x={x[i]:.4g})")

        if self.dt is not None:
            h = 1e-6 * max(t_range[1] - t_range[0], 1.0)
            tm = np.clip(t, t_range[0] + h, t_range[1] - h)
            check("dt", self.dt(tm, x), (self.f(tm + h, x) - self.f(tm - h, x)) / (2 * h))
        if self.dx is not None:
            h = 1e-6 * span
            check("dx", self.dx(t, x), (self.f(t, x + h) - self.f(t, x - h)) / (2 * h))
        if self.dxx is not None:
            h = 1e-4 * span
            fd2 = (self.f(t, x + h) - 2.0 * self.f(t, x) + self.f(t, x - h)) / (h * h)
            check("dxx", self.dxx(t, x), fd2)


FUNCTION_CATALOG: dict[str, FunctionBundle] = {
    # identity's dx is shaped like x, not the number 1.0: a number makes the
    # small-jump linear field x dF_x size-only, which the size quadrature
    # sums in another order, so its last bits would move
    "identity": FunctionBundle("identity", "c12", f=lambda t, x: x, dt=lambda t, x: 0.0,
                               dx=lambda t, x: np.ones_like(x), dxx=lambda t, x: 0.0),
    "square": FunctionBundle("square", "c12", f=lambda t, x: x ** 2, dt=lambda t, x: 0.0,
                             dx=lambda t, x: 2.0 * x, dxx=lambda t, x: 2.0),
    "tx": FunctionBundle("tx", "c12", f=lambda t, x: t * x, dt=lambda t, x: x,
                         dx=lambda t, x: t, dxx=lambda t, x: 0.0),
    "sin": FunctionBundle("sin", "c12", f=lambda t, x: np.sin(x), dt=lambda t, x: 0.0,
                          dx=lambda t, x: np.cos(x), dxx=lambda t, x: -np.sin(x)),
    # space-smooth but rough in time: not differentiable in t at sin zeroes
    "rough_time": FunctionBundle("rough_time", "c01",
                                 f=lambda t, x: x * np.sqrt(np.abs(np.sin(8.0 * t))),
                                 dx=lambda t, x: np.sqrt(np.abs(np.sin(8.0 * t)))),
    # first derivative only 1/2-Holder at the origin
    "xabs_sqrt": FunctionBundle("xabs_sqrt", "c1l", f=lambda t, x: x * np.sqrt(np.abs(x)),
                                dt=lambda t, x: 0.0,
                                dx=lambda t, x: 1.5 * np.sqrt(np.abs(x)), holder=0.5),
}

C12_SUITE = ("identity", "square", "tx", "sin")


# -- path assembly helpers ----------------------------------------------------


def _along(fn, X: CadlagPath) -> CadlagPath:
    """The path t -> fn(t, X_t) on X's grid, with left limits fn(t, X_{t-}),
    evaluated at X's jump rows only: elsewhere X_{t-} is X_t."""
    m = X.jump_marks
    values = _samples(fn(X.grid, X.values), X.grid.shape)
    return _jumping_at(X, values, m, fn(X.grid[m], X.left_values[m]))


def path_of_function(F: FunctionBundle, X: CadlagPath) -> CadlagPath:
    """The path t -> F(t, X_t) on X's grid, with exact left limits
    F(t, X_{t-}) (F is continuous in time)."""
    return _along(F.f, X)


def path_of_function_derivative(F: FunctionBundle, X: CadlagPath) -> CadlagPath:
    """The path t -> dF_x(t, X_t) with left limits dF_x(t, X_{t-})."""
    return _along(F.dx, X)


def stieltjes_left(H: CadlagPath, G: CadlagPath) -> CadlagPath:
    """Left-point Stieltjes sum int H_{s-} dG_s on the shared grid.

    Continuous motion between grid points is integrated with the previous
    grid value of H, and each marked jump of G contributes H(t-) dG exactly,
    which makes the sum exact when G is a pure-jump path.
    """
    _require_shared_grid(H, G)
    cont_incr = G.left_values[1:] - G.values[:-1]
    cont = _cumsum0(H.values[:-1] * cont_incr)
    jump_contrib = np.zeros(G.grid.size)
    marks = G.jump_marks
    jump_contrib[marks] = H.left_values[marks] * G.jump_sizes
    values = cont + np.cumsum(jump_contrib)
    return _jumping_at(G, values, marks, values[marks] - jump_contrib[marks])


def time_integral(h_samples: np.ndarray, grid: np.ndarray) -> CadlagPath:
    """Running left-endpoint quadrature of a sampled integrand."""
    return CadlagPath(grid, _riemann(h_samples, grid))


def _riemann(h_samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The values of ``time_integral``."""
    return _cumsum0(np.diff(grid) * h_samples[:-1])


# -- continuous bracket part --------------------------------------------------


def qv_continuous_part(X: CadlagPath, schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                       tol: float = DEFAULT_TOL) -> CadlagPath:
    """Estimated bracket minus the running sum of squared jumps, clipped at
    its running maximum so the result is a nondecreasing continuous path.

    The bracket is the covariation of X with itself at the finest window,
    evaluated with the second finest only to test convergence
    (``_Expansion.bracket``)."""
    return _Expansion(None, X, None, schedule, tol).qvc


# -- the expansion of F(t, X_t) -----------------------------------------------


class _Expansion:
    """The expansion of F(t, X_t) for one harness call: each piece is built
    when first read and kept for the rest of the call, so a view builds only
    the pieces it reads, and views that share one expansion build each
    piece once.  ``nu`` may be None for a path without jump atoms.  The
    schedule is checked to fit X's grid (ScheduleError) before anything
    else, so every view rejects a bad schedule first."""

    checked = False  # F's derivatives, on the first ``require``

    def __init__(self, F, X, nu, schedule, tol):
        _require_fit(schedule, X)
        _require_tol(tol)
        self.F, self.X, self.nu, self.schedule, self.tol = F, X, nu, schedule, tol

    def require(self, smoothness):
        """ValueError unless F is of class ``smoothness``; the first call
        checks F's derivatives on the range of X (BundleValidationError)."""
        F, X = self.F, self.X
        if not F.at_least(smoothness):
            raise ValueError(f"{F.name} is not of class {smoothness}")
        if not self.checked:
            lo = float(min(np.min(X.values), np.min(X.left_values)))
            hi = float(max(np.max(X.values), np.max(X.left_values)))
            pad = 0.1 * max(hi - lo, 1.0)
            F.validate_derivatives((0.0, X.horizon), (lo - pad, hi + pad))
            self.checked = True

    @cached_property
    def lhs(self):
        return path_of_function(self.F, self.X)

    @cached_property
    def dx_path(self):
        return path_of_function_derivative(self.F, self.X)

    @cached_property
    def bracket(self):
        """The window limit of [X, X]; NonConvergenceError when the bracket
        study does not converge along the schedule.  Its verdict and limit
        depend only on the two finest windows, so only those are evaluated;
        a one-window schedule has no gap to test and never converges."""
        rep = qv_limit(self.X, schedule=EpsilonSchedule(self.schedule.epsilons[-2:]),
                       tol=self.tol)
        if not rep.passed:
            raise NonConvergenceError(rep.verdicts[0])
        return rep.limit

    @cached_property
    def qvc(self):
        """The continuous bracket part (``qv_continuous_part``)."""
        raw = self.bracket.values - jmod.integrate_mu(X_SQUARED_FIELD, self.X).values
        mono = np.maximum.accumulate(np.maximum(raw, 0.0))
        mono[0] = 0.0
        return _jumping_at(self.X, mono)

    @cached_property
    def time_term(self):
        """The time integral of dF_t(s, X_s)."""
        grid = self.X.grid
        h = _samples(self.F.dt(grid, self.X.values), grid.shape)
        return _jumping_at(self.X, _riemann(h, grid))

    @cached_property
    def bracket_term(self):
        """Half of dF_xx(s, X_{s-}) against the continuous bracket part."""
        grid = self.X.grid
        d2 = _samples(self.F.dxx(grid, self.X.left_values), grid.shape)
        return 0.5 * stieltjes_left(_jumping_at(self.X, d2), self.qvc)

    def smooth_terms(self):
        """(time term, bracket term), read after the continuous bracket part
        so that the bracket guard raises first."""
        self.qvc
        return self.time_term, self.bracket_term

    @cached_property
    def jump_sum(self):
        return jmod.integrate_mu(taylor_remainder_field(self.F), self.X)

    @cached_property
    def split(self):
        """(k_mu, k_nu, y_mu, y_nu, big_mu): the mu and nu sides of the
        small-jump increment and linear fields, and the big-jump Taylor sum."""
        F, X, nu = self.F, self.X, self.nu
        return _if_atoms(X, nu, lambda: (
            *jmod.compensated_parts(increment_field(F, "small"), X, nu),
            *jmod.compensated_parts(linear_jump_field(F, "small"), X, nu),
            jmod.integrate_mu(taylor_remainder_field(F, "big"), X)), 5)

    @cached_property
    def small_nu(self):
        return _if_atoms(self.X, self.nu, lambda: jmod.integrate_nu(
            taylor_remainder_field(self.F, "small"), self.nu, self.X))

    @cached_property
    def big_nu(self):
        return _if_atoms(self.X, self.nu, lambda: jmod.integrate_nu(
            taylor_remainder_field(self.F, "big"), self.nu, self.X))

    def forward_windows(self):
        """The forward integral of dF_x(s, X_s) against X, window by window."""
        return (f for f, in _windows(self.X, [self.dx_path], self.schedule,
                                     _forward_sums))

    def report(self, variant, fixed, name, windows, parts=None):
        """ItoReport of lhs = F(t, X_t) less f0 = F(0, X_0), the ``fixed``
        terms and the window term, one path per window of the schedule in
        ``windows``: the residual sup-norm is taken at every window, the
        residual (with its left limits) and ``terms[name]`` at the final one."""
        lhs = self.lhs
        f0 = float(lhs.values[0])
        sups = []
        for fp in windows:
            terms = (fp, *fixed.values())
            # left values differ from values only at some term's marks
            rows = _union_marks(lhs, *terms)
            r, rl = lhs.values - f0, lhs.left_values[rows] - f0
            for q in terms:
                r = r - q.values
                rl = rl - q.left_values[rows]
            sups.append(float(max(np.max(np.abs(r)), np.max(np.abs(rl), initial=0.0))))
        jumps = rl != r[rows]
        res = _jumping_at(lhs, r, rows[jumps], rl[jumps])
        return ItoReport(variant, self.F.name, lhs, f0, {**fixed, name: fp}, res,
                         np.asarray(sups), tuple(self.schedule.epsilons),
                         parts or {})


# -- reports ------------------------------------------------------------------


@dataclass
class ItoReport(Decision, kind="ito_report"):
    """Named terms of one identity variant plus the assembled residual.

    ``terms`` holds signed paths: the residual is
    lhs - initial_value - sum(terms) pointwise by construction, left limits
    included, at the final window width; ``residual_sup_by_eps`` tracks the
    sup-norm of the same assembly as the window shrinks along the schedule.
    No harness sets a verdict; ``ito-check`` adds its ``residual_verdict``.
    """

    variant: str
    function: str
    lhs: CadlagPath
    initial_value: float
    terms: dict
    residual: CadlagPath
    residual_sup_by_eps: np.ndarray
    epsilons: tuple
    parts: dict = field(default_factory=dict)
    verdicts: tuple[Verdict, ...] = ()

    @property
    def final_residual_sup(self) -> float:
        return float(self.residual_sup_by_eps[-1])

    @property
    def relative_residual(self) -> float:
        return self.final_residual_sup / max(self.lhs.sup_norm(), 1e-12)


def ito_terms_c12(F: FunctionBundle, X: CadlagPath,
                  schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                  tol: float = DEFAULT_TOL) -> ItoReport:
    """Smooth-case identity: time integral, forward integral of dF_x(s, X_s),
    half the second derivative against the continuous bracket part, and the
    jump correction sum."""
    ex = _Expansion(F, X, None, schedule, tol)
    ex.require("c12")
    time_term, bracket_term = ex.smooth_terms()
    fixed = {"time_integral": time_term, "bracket_term": bracket_term,
             "jump_sum": ex.jump_sum}
    return ex.report("c12", fixed, "forward_integral", ex.forward_windows())


def ito_terms_measure_form(F: FunctionBundle, X: CadlagPath, nu: CompensatorSpec,
                           schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                           tol: float = DEFAULT_TOL) -> ItoReport:
    """Random-measure form: the jump correction is split into two compensated
    small-jump integrals, the big-jump sum, and the small-jump compensator
    integral.  The mu and nu sides of every jump term are kept separately in
    ``parts`` so the atom-level reassembly into the plain jump sum can be
    checked exactly."""
    return _measure_form(_Expansion(F, X, nu, schedule, tol))


def _measure_form(ex: _Expansion) -> ItoReport:
    ex.require("c12")
    if not integrability_report(ex.X, ex.F).square_summable:
        raise jmod.IntegrabilityError("squared jump total is not finite")
    time_term, bracket_term = ex.smooth_terms()
    k_mu, k_nu, y_mu, y_nu, big_mu = ex.split
    # without atoms the mu sides vanish and the nu sides cancel identically
    # (the compensator remainder equals the compensated field difference)
    small_nu = ex.small_nu
    terms = {
        "time_integral": time_term,
        "bracket_term": bracket_term,
        "small_jump_compensated_increment": k_mu - k_nu,
        "small_jump_compensated_linear": -1.0 * (y_mu - y_nu),
        "big_jump_sum": big_mu,
        "small_jump_compensator": small_nu,
    }
    parts = {"increment_mu": k_mu, "increment_nu": k_nu, "linear_mu": y_mu,
             "linear_nu": y_nu, "big_mu": big_mu, "small_nu": small_nu,
             "jump_sum": ex.jump_sum}
    return ex.report("measure_form", terms, "forward_integral",
                     ex.forward_windows(), parts)


def ito_c1_lambda(F: FunctionBundle, X: CadlagPath,
                  schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                  tol: float = DEFAULT_TOL) -> ItoReport:
    """Holder-derivative form for time-reversible integrators: left-point
    reference integral, half the bracket of the transformed path against X,
    and the symmetric-average jump sum.

    Requires sum |dX|^(1 + holder) finite on the path; reversibility of the
    integrator is an assumption carried by the scenario, not verified here.
    """
    ex = _Expansion(F, X, None, schedule, tol)
    ex.require("c1l")
    power_sum = float(np.sum(np.abs(X.jump_sizes) ** (1.0 + F.holder)))
    if not np.isfinite(power_sum):
        raise jmod.IntegrabilityError(
            "jump sizes are not (1 + holder)-power summable")
    time_term = ex.time_term
    integrand = ex.dx_path
    ito_ref = stieltjes_left(integrand, X)

    def sym_fn(t, x, pre):
        return (F.f(t, pre + x) - F.f(t, pre)
                - 0.5 * (F.dx(t, pre + x) + F.dx(t, pre)) * x)

    fixed = {"time_integral": time_term, "reference_integral": ito_ref,
             "symmetric_jump_sum": jmod.integrate_mu(IntegrandField(sym_fn), X)}
    return ex.report("c1_holder", fixed, "half_transformed_bracket",
                     (0.5 * c for c, in _windows(integrand, [X], ex.schedule)))
