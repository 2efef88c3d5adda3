"""Term-by-term assembly and residual verification of the change-of-variable
identities for finite quadratic variation paths.

Three variants are covered: the smooth (twice differentiable in space) form
with an explicit jump correction sum, its random-measure reformulation with
the small/big jump split, and the Holder-derivative form whose jump sum uses
the symmetric average of the space derivative at both jump endpoints.

Every report carries the named term paths, the pointwise residual against
F(t, X_t) - F(0, X_0), and the residual sup-norm along the window schedule;
the residual is assembled by construction, never fitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jumps as jmod
from .jumps import (CompensatorSpec, IntegrandField, X_SQUARED_FIELD,
                    integrability_report)
from .paths import LINEAR, CadlagPath, constant_path, from_arrays
from .regularize import (DEFAULT_SCHEDULE, DEFAULT_TOL, EpsilonSchedule,
                         _require_fit, covariation, forward_integral, qv_limit)


class BundleValidationError(ValueError):
    """A supplied derivative disagrees with finite differences of F."""


class NonConvergenceError(RuntimeError):
    """A required bracket estimate did not converge along the schedule."""


# -- function bundles ---------------------------------------------------------

SMOOTHNESS_CLASSES = ("c12", "c01", "c1l", "c0")

_REQUIRED = {"c12": ("dt", "dx", "dxx"), "c01": ("dx",), "c1l": ("dt", "dx"),
             "c0": ()}


@dataclass(frozen=True)
class FunctionBundle:
    """Scalar function F(t, x) with the derivatives its class provides.

    Classes: ``c12`` (dt, dx, dxx), ``c01`` (dx), ``c1l`` (dt, dx with an
    x-Holder dx of exponent ``holder``), ``c0`` (none).  All evaluators must
    broadcast over numpy arrays.
    """

    name: str
    smoothness: str
    f: object
    dt: object = None
    dx: object = None
    dxx: object = None
    holder: float | None = None

    def __post_init__(self):
        if self.smoothness not in SMOOTHNESS_CLASSES:
            raise ValueError(f"unknown smoothness class {self.smoothness!r}")
        for attr in _REQUIRED[self.smoothness]:
            if getattr(self, attr) is None:
                raise ValueError(
                    f"class {self.smoothness} requires evaluator {attr!r}")
        if self.smoothness == "c1l" and self.holder is None:
            object.__setattr__(self, "holder", 1.0)

    def at_least(self, smoothness: str) -> bool:
        order = {"c0": 0, "c01": 1, "c1l": 1, "c12": 2}
        if smoothness == "c1l":
            return self.smoothness in ("c1l", "c12")
        return order[self.smoothness] >= order[smoothness]

    def validate_derivatives(self, t_range, x_range) -> None:
        """Compare supplied derivatives with central finite differences at
        100 seeded random probe points, to a relative 1e-4; raises
        BundleValidationError on disagreement."""
        rng = np.random.default_rng(0)
        t = rng.uniform(t_range[0], t_range[1], 100)
        x = rng.uniform(x_range[0], x_range[1], 100)
        span = max(abs(x_range[0]), abs(x_range[1]), 1.0)

        def check(name, supplied, fd):
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


def linear_combination(a: float, F: FunctionBundle, b: float,
                       G: FunctionBundle) -> FunctionBundle:
    """a F + b G, with the weaker smoothness class of the two."""
    order = {"c12": 3, "c1l": 2, "c01": 1, "c0": 0}
    cls = F.smoothness if order[F.smoothness] <= order[G.smoothness] else G.smoothness

    def mix(u, v):
        if u is None or v is None:
            return None
        return lambda t, x: a * u(t, x) + b * v(t, x)

    return FunctionBundle(
        f"{a:g}*{F.name}+{b:g}*{G.name}", cls,
        f=lambda t, x: a * F.f(t, x) + b * G.f(t, x),
        dt=mix(F.dt, G.dt), dx=mix(F.dx, G.dx), dxx=mix(F.dxx, G.dxx),
        holder=F.holder if cls == "c1l" else None)


def _c(v):
    return lambda t, x: np.full(np.broadcast(np.asarray(t), np.asarray(x)).shape, v)


FUNCTION_CATALOG: dict[str, FunctionBundle] = {
    "identity": FunctionBundle("identity", "c12",
                               f=lambda t, x: np.asarray(x, dtype=float) + 0.0 * np.asarray(t),
                               dt=_c(0.0), dx=_c(1.0), dxx=_c(0.0)),
    "square": FunctionBundle("square", "c12",
                             f=lambda t, x: np.asarray(x) ** 2 + 0.0 * np.asarray(t),
                             dt=_c(0.0), dx=lambda t, x: 2.0 * np.asarray(x),
                             dxx=_c(2.0)),
    "tx": FunctionBundle("tx", "c12",
                         f=lambda t, x: np.asarray(t) * np.asarray(x),
                         dt=lambda t, x: np.asarray(x) + 0.0 * np.asarray(t),
                         dx=lambda t, x: np.asarray(t) + 0.0 * np.asarray(x),
                         dxx=_c(0.0)),
    "sin": FunctionBundle("sin", "c12",
                          f=lambda t, x: np.sin(x) + 0.0 * np.asarray(t),
                          dt=_c(0.0), dx=lambda t, x: np.cos(x) + 0.0 * np.asarray(t),
                          dxx=lambda t, x: -np.sin(x) + 0.0 * np.asarray(t)),
    # space-smooth but rough in time: not differentiable in t at sin zeroes
    "rough_time": FunctionBundle(
        "rough_time", "c01",
        f=lambda t, x: np.asarray(x) * np.sqrt(np.abs(np.sin(8.0 * np.asarray(t)))),
        dx=lambda t, x: np.sqrt(np.abs(np.sin(8.0 * np.asarray(t)))) + 0.0 * np.asarray(x)),
    # first derivative only 1/2-Holder at the origin
    "xabs_sqrt": FunctionBundle(
        "xabs_sqrt", "c1l",
        f=lambda t, x: np.asarray(x) * np.sqrt(np.abs(x)) + 0.0 * np.asarray(t),
        dt=_c(0.0),
        dx=lambda t, x: 1.5 * np.sqrt(np.abs(x)) + 0.0 * np.asarray(t),
        holder=0.5),
}

C12_SUITE = ("identity", "square", "tx", "sin")


# -- path assembly helpers ----------------------------------------------------


def path_of_function(F: FunctionBundle, X: CadlagPath) -> CadlagPath:
    """The path t -> F(t, X_t) on X's grid, with exact left limits
    F(t, X_{t-}) (F is continuous in time)."""
    values = np.asarray(F.f(X.grid, X.values), dtype=float)
    left = np.asarray(F.f(X.grid, X.left_values), dtype=float)
    return from_arrays(X.grid, values, left, rule=LINEAR)


def pre_jump_samples(X: CadlagPath) -> np.ndarray:
    """X(t-) at every grid time, with X(0-) := X(0)."""
    return np.concatenate(([X.values[0]], X.left_values[1:]))


def stieltjes_left(H: CadlagPath, G: CadlagPath) -> CadlagPath:
    """Left-point Stieltjes sum int H_{s-} dG_s on the shared grid.

    Continuous motion between grid points is integrated with the previous
    grid value of H, and each marked jump of G contributes H(t-) dG exactly,
    which makes the sum exact when G is a pure-jump path.
    """
    if not H.same_grid(G):
        raise ValueError("integrand and integrator must share a grid")
    cont_incr = G.left_values[1:] - G.values[:-1]
    cont = np.concatenate(([0.0], np.cumsum(H.values[:-1] * cont_incr)))
    jump_contrib = np.zeros(G.grid.size)
    marks = G.jump_marks
    if marks.size:
        jump_contrib[marks] = H.left_values[marks] * (
            G.values[marks] - G.left_values[marks])
    jump_cum = np.cumsum(jump_contrib)
    values = cont + jump_cum
    left = values.copy()
    if marks.size:
        left[marks] = values[marks] - jump_contrib[marks]
    return from_arrays(G.grid, values, left, rule=LINEAR)


def time_integral(h_samples: np.ndarray, grid: np.ndarray) -> CadlagPath:
    """Running left-endpoint quadrature of a sampled integrand."""
    values = np.concatenate(([0.0], np.cumsum(np.diff(grid) * h_samples[:-1])))
    return from_arrays(grid, values, values.copy(), rule=LINEAR)


def taylor_remainder_field(F: FunctionBundle, truncation=None) -> IntegrandField:
    """W(s, x) = F(s, X_{s-} + x) - F(s, X_{s-}) - x dF_x(s, X_{s-})."""
    def fn(t, x, pre):
        return F.f(t, pre + x) - F.f(t, pre) - x * F.dx(t, pre)
    return IntegrandField(fn, truncation)


def increment_field(F: FunctionBundle, truncation=None) -> IntegrandField:
    """K(s, x) = F(s, X_{s-} + x) - F(s, X_{s-})."""
    def fn(t, x, pre):
        return F.f(t, pre + x) - F.f(t, pre)
    return IntegrandField(fn, truncation)


def linear_jump_field(F: FunctionBundle, truncation=None) -> IntegrandField:
    """Y(s, x) = x dF_x(s, X_{s-})."""
    def fn(t, x, pre):
        return x * F.dx(t, pre)
    return IntegrandField(fn, truncation)


def _has_atoms(X: CadlagPath, nu: CompensatorSpec | None) -> bool:
    """Whether X carries jump atoms; a path with atoms needs a compensator
    model, and every jump term of a path without atoms is the zero path."""
    if X.jump_marks.size and nu is None:
        raise ValueError("a compensator model is required for a path with jumps")
    return bool(X.jump_marks.size)


def _small_big_split(F: FunctionBundle, X: CadlagPath,
                     nu: CompensatorSpec | None) -> tuple[CadlagPath, ...]:
    """(k_mu, k_nu, y_mu, y_nu, big_mu): the mu and nu sides of the
    small-jump increment and linear fields, and the big-jump Taylor sum."""
    if not _has_atoms(X, nu):
        return (constant_path(X.grid),) * 5
    k_mu, k_nu = jmod.compensated_parts(increment_field(F, "small"), X, nu)
    y_mu, y_nu = jmod.compensated_parts(linear_jump_field(F, "small"), X, nu)
    big_mu = jmod.integrate_mu(taylor_remainder_field(F, "big"), X)
    return k_mu, k_nu, y_mu, y_nu, big_mu


# -- continuous bracket part --------------------------------------------------


def _converged_bracket(X: CadlagPath, schedule: EpsilonSchedule,
                       tol: float) -> CadlagPath:
    """The window limit of [X, X]; raises NonConvergenceError when the
    bracket study does not converge along the schedule.

    The study's verdict and limit depend only on its two finest windows, so
    after checking that every window fits the grid (ScheduleError, as
    ``qv_limit`` raises it) only those two are evaluated.  A one-window
    schedule has no gap to test and never converges.
    """
    _require_fit(schedule, X)
    rep = qv_limit(X, schedule=EpsilonSchedule(schedule.epsilons[-2:]), tol=tol)
    if not rep.converged:
        raise NonConvergenceError(
            "bracket estimate did not converge along the schedule")
    return rep.limit


def qv_continuous_part(X: CadlagPath, schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                       tol: float = DEFAULT_TOL) -> CadlagPath:
    """Estimated bracket minus the running sum of squared jumps, clipped at
    its running maximum so the result is a nondecreasing continuous path.

    The bracket is the covariation of X with itself at the finest window,
    evaluated with the second finest only to test convergence
    (``_converged_bracket``)."""
    bracket = _converged_bracket(X, schedule, tol)
    jump_part = jmod.integrate_mu(X_SQUARED_FIELD, X)
    raw = bracket.values - jump_part.values
    mono = np.maximum.accumulate(np.maximum(raw, 0.0))
    mono[0] = 0.0
    return from_arrays(X.grid, mono, mono.copy(), rule=LINEAR)


def _smooth_terms(F: FunctionBundle, X: CadlagPath, schedule: EpsilonSchedule,
                 tol: float) -> tuple[CadlagPath, CadlagPath]:
    """The two terms every smooth-case identity shares: the time integral of
    dF_t(s, X_s), and half of dF_xx(s, X_{s-}) integrated against the
    continuous bracket part."""
    qvc = qv_continuous_part(X, schedule, tol)
    grid = X.grid
    time_term = time_integral(np.asarray(F.dt(grid, X.values), dtype=float), grid)
    d2 = np.asarray(F.dxx(grid, pre_jump_samples(X)), dtype=float)
    bracket_term = 0.5 * stieltjes_left(
        from_arrays(grid, d2, d2.copy(), rule=LINEAR), qvc)
    return time_term, bracket_term


# -- reports ------------------------------------------------------------------


@dataclass
class ItoReport:
    """Named terms of one identity variant plus the assembled residual.

    ``terms`` holds signed paths: the residual is
    lhs - initial_value - sum(terms) pointwise by construction, evaluated at
    the final window width; ``residual_sup_by_eps`` tracks the sup-norm of
    the same assembly as the window shrinks along the schedule.
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

    @property
    def final_residual_sup(self) -> float:
        return float(self.residual_sup_by_eps[-1])

    def relative_residual(self) -> float:
        return self.final_residual_sup / max(self.lhs.sup_norm(), 1e-12)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "ito_report",
            "variant": self.variant,
            "function": self.function,
            "initial_value": self.initial_value,
            "epsilons": list(self.epsilons),
            "residual_sup_by_eps": self.residual_sup_by_eps.tolist(),
            "final_residual_sup": self.final_residual_sup,
            "relative_residual": self.relative_residual(),
            "terms": sorted(self.terms),
        }


def _report(variant, F, X, fixed, name, schedule, term_at, parts=None):
    """ItoReport of lhs = F(t, X_t) less f0 = F(0, X_0), the ``fixed`` terms
    and the window term ``term_at(eps)``: the residual sup-norm is taken at
    every window, the residual and ``terms[name]`` at the final one."""
    lhs = path_of_function(F, X)
    f0 = float(lhs.values[0])
    sups = []
    for fp in map(term_at, schedule):
        r = lhs.values - f0 - fp.values
        rl = lhs.left_values - f0 - fp.left_values
        for q in fixed.values():
            r = r - q.values
            rl = rl - q.left_values
        sups.append(float(max(np.max(np.abs(r)), np.max(np.abs(rl)))))
    res = from_arrays(lhs.grid, r, r.copy(), rule=LINEAR)
    return ItoReport(variant, F.name, lhs, f0, {**fixed, name: fp}, res,
                     np.asarray(sups), tuple(schedule.epsilons), parts or {})


def _validated(F, X, smoothness, validate):
    if not F.at_least(smoothness):
        raise ValueError(f"{F.name} is not of class {smoothness}")
    if validate:
        lo = float(min(np.min(X.values), np.min(X.left_values)))
        hi = float(max(np.max(X.values), np.max(X.left_values)))
        pad = 0.1 * max(hi - lo, 1.0)
        F.validate_derivatives((0.0, X.horizon), (lo - pad, hi + pad))


def ito_terms_c12(F: FunctionBundle, X: CadlagPath,
                  schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                  tol: float = DEFAULT_TOL, validate: bool = True) -> ItoReport:
    """Smooth-case identity: time integral, forward integral of dF_x(s, X_s),
    half the second derivative against the continuous bracket part, and the
    jump correction sum."""
    _validated(F, X, "c12", validate)
    time_term, bracket_term = _smooth_terms(F, X, schedule, tol)
    integrand = path_of_function_derivative(F, X)
    fixed = {"time_integral": time_term, "bracket_term": bracket_term,
             "jump_sum": jmod.integrate_mu(taylor_remainder_field(F), X)}
    return _report("c12", F, X, fixed, "forward_integral", schedule,
                   lambda e: forward_integral(integrand, X, e))


def path_of_function_derivative(F: FunctionBundle, X: CadlagPath) -> CadlagPath:
    """The path t -> dF_x(t, X_t) with left limits dF_x(t, X_{t-})."""
    values = np.asarray(F.dx(X.grid, X.values), dtype=float)
    left = np.asarray(F.dx(X.grid, X.left_values), dtype=float)
    return from_arrays(X.grid, values, left, rule=LINEAR)


def ito_terms_measure_form(F: FunctionBundle, X: CadlagPath, nu: CompensatorSpec,
                           schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                           tol: float = DEFAULT_TOL) -> ItoReport:
    """Random-measure form: the jump correction is split into two compensated
    small-jump integrals, the big-jump sum, and the small-jump compensator
    integral.  The mu and nu sides of every jump term are kept separately in
    ``parts`` so the atom-level reassembly into the plain jump sum can be
    checked exactly."""
    _validated(F, X, "c12", True)
    if not integrability_report(X, F).square_summable:
        raise jmod.IntegrabilityError("squared jump total is not finite")
    time_term, bracket_term = _smooth_terms(F, X, schedule, tol)
    k_mu, k_nu, y_mu, y_nu, big_mu = _small_big_split(F, X, nu)
    # without atoms the mu sides vanish and the nu sides cancel identically
    # (the compensator remainder equals the compensated field difference)
    small_nu = (jmod.integrate_nu(taylor_remainder_field(F, "small"), nu, X)
                if _has_atoms(X, nu) else constant_path(X.grid))
    terms = {
        "time_integral": time_term,
        "bracket_term": bracket_term,
        "small_jump_compensated_increment": k_mu - k_nu,
        "small_jump_compensated_linear": -1.0 * (y_mu - y_nu),
        "big_jump_sum": big_mu,
        "small_jump_compensator": small_nu,
    }
    integrand = path_of_function_derivative(F, X)
    parts = {"increment_mu": k_mu, "increment_nu": k_nu, "linear_mu": y_mu,
             "linear_nu": y_nu, "big_mu": big_mu, "small_nu": small_nu,
             "jump_sum": jmod.integrate_mu(taylor_remainder_field(F), X)}
    return _report("measure_form", F, X, terms, "forward_integral", schedule,
                   lambda e: forward_integral(integrand, X, e), parts)


def ito_c1_lambda(F: FunctionBundle, X: CadlagPath,
                  schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
                  tol: float = DEFAULT_TOL) -> ItoReport:
    """Holder-derivative form for time-reversible integrators: left-point
    reference integral, half the bracket of the transformed path against X,
    and the symmetric-average jump sum.

    Requires sum |dX|^(1 + holder) finite on the path; reversibility of the
    integrator is an assumption carried by the scenario, not verified here.
    """
    _validated(F, X, "c1l", True)
    lam = F.holder if F.holder is not None else 1.0
    power_sum = float(np.sum(np.abs(X.jump_sizes) ** (1.0 + lam)))
    if not np.isfinite(power_sum):
        raise jmod.IntegrabilityError(
            "jump sizes are not (1 + holder)-power summable")
    grid = X.grid
    time_term = time_integral(np.asarray(F.dt(grid, X.values), dtype=float), grid)
    integrand = path_of_function_derivative(F, X)
    ito_ref = stieltjes_left(integrand, X)

    def sym_fn(t, x, pre):
        return (F.f(t, pre + x) - F.f(t, pre)
                - 0.5 * (F.dx(t, pre + x) + F.dx(t, pre)) * x)

    fixed = {"time_integral": time_term, "reference_integral": ito_ref,
             "symmetric_jump_sum": jmod.integrate_mu(IntegrandField(sym_fn), X)}
    return _report("c1_holder", F, X, fixed, "half_transformed_bracket", schedule,
                   lambda e: 0.5 * covariation(integrand, X, e))
