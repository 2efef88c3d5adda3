"""Smoothing-window estimator kernels and the uniform-limit driver.

For paths X, Y on a shared grid and a window width eps the kernels compute,
for every grid time t at once,

    forward      I(eps, t) = int_(0,t] Y(s) (X((s+eps) ^ t) - X(s)) / eps ds
    covariation  C(eps, t) = int_(0,t] (X((s+eps) ^ t) - X(s))
                                       (Y((s+eps) ^ t) - Y(s)) / eps ds

together with the untruncated variant (X(s+eps) with the path extended past
its horizon by continuity) and a caglad-weighted quadratic sum.

Quadrature convention: every ds-integral is a left-endpoint Riemann sum on
the sample mesh formed by the path grid plus the shifted jump breakpoints
{tau - eps}.  With those breakpoints present the integrand is exactly
piecewise constant whenever the inputs are, so the kernels are exact on
piecewise-constant paths.  Splitting each integral at t - eps turns the
computation into prefix sums: per window, one O(n log n) search of the
shifted sample points in the grid, then O(n) work for all t.  That one
search gives both paths' values at the shifted points and, by counting, the
bulk cells of every t.  The estimators jump only where their inputs do, so
left limits are assembled only at the input jump rows.  A literal O(n^2)
per-t transcription on its own breakpoint set (in the test suite) must
match the kernels to floating-point reassociation accuracy.  The three
split estimators are one window-sum kernel with different cell weights:
the covariation weights the product of the X and Y increments by the cell
width w, the weighted sum weights the squared X increment by w g, and the
forward estimate weights the X increment alone by w Y.

All kernels are pure functions.  ``ucp_limit`` drives an estimator along a
window schedule, streaming: it holds only the previous and the current
estimate.  Covariations of one path against several continuous partners
share that path's mesh at each window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import LINEAR, CadlagPath, PathError, _sample_plan, from_arrays

DEFAULT_EPS_MAX = 0.05
DEFAULT_LEVELS = 8
DEFAULT_TOL = 1e-2


class ScheduleError(ValueError):
    """Raised when a window schedule does not fit a path's grid."""


class WindowGapError(RuntimeError):
    """Raised by ``rv_ucp_gap`` when the window-gap identity fails."""


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing window widths driving a convergence study."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ScheduleError("empty schedule")
        if not all(0.0 < e < math.inf for e in eps):
            raise ScheduleError("window widths must be positive and finite")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ScheduleError("window widths must be strictly decreasing")
        object.__setattr__(self, "epsilons", eps)

    def __iter__(self):
        return iter(self.epsilons)

    def __len__(self):
        return len(self.epsilons)

    @classmethod
    def geometric(cls, eps_max: float = DEFAULT_EPS_MAX,
                  levels: int = DEFAULT_LEVELS) -> "EpsilonSchedule":
        """eps_k = eps_max * 2^-k for k = 1..levels (default 0.05 * 2^-k)."""
        return cls(tuple(eps_max * 0.5 ** k for k in range(1, levels + 1)))

    def snapped(self, dt: float) -> "EpsilonSchedule":
        """Round every width to a positive integer multiple of ``dt``."""
        if dt <= 0.0:
            raise ScheduleError("spacing must be positive")
        snapped = [max(round(e / dt), 1) * dt for e in self.epsilons]
        out = []
        for e in snapped:
            if not out or e < out[-1]:
                out.append(e)
        return EpsilonSchedule(tuple(out))

    def validate_for(self, path: CadlagPath, base_dt: float) -> None:
        """Check the schedule fits the grid: eps < T, eps a multiple of the
        base spacing, and the smallest eps at least ten spacings wide."""
        dt = float(base_dt)
        T = path.horizon
        for e in self.epsilons:
            if e >= T:
                raise ScheduleError(f"window {e} is not below the horizon {T}")
            k = e / dt
            if abs(k - round(k)) > 1e-6:
                raise ScheduleError(f"window {e} is not a multiple of spacing {dt}")
        if self.epsilons[-1] < 10.0 * dt - 1e-12 * dt:
            raise ScheduleError("smallest window must span at least ten grid cells")

    def for_path(self, path: CadlagPath, base_dt: float) -> "EpsilonSchedule":
        dt = float(base_dt)
        s = self.snapped(dt)
        s.validate_for(path, dt)
        return s


DEFAULT_SCHEDULE = EpsilonSchedule.geometric()


# -- sample mesh -------------------------------------------------------------


def _cumsum0(a: np.ndarray) -> np.ndarray:
    out = np.empty(a.size + 1)
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


class _Mesh:
    """Shared sample mesh for one (X, Y, eps) kernel evaluation.

    ``sl`` are the cell left endpoints (grid plus shifted jump breakpoints),
    ``w`` the cell widths, ``u`` the shifted sample points.  For a cell whose
    left endpoint is an inserted breakpoint tau - eps, ``u`` is pinned to tau
    exactly so the lookup lands on the post-jump value.

    The grid is searched once, for ``u``, and that search gives one sample
    plan: the cell of every u, and the cell and fraction of each u that
    falls strictly inside its cell.  X, Y and every partner are sampled
    from that plan (X and Y share the grid): a path gathers its values at
    the cells, and under the linear rule interpolates only the off-node
    entries.  The plan is dropped once the paths are sampled.  Counting each
    u at the first node at or after it gives ``jr[i]``, the number of bulk
    cells (u <= t_i) at grid time t_i.  ``partners`` are further continuous
    paths on the grid: they add no breakpoint, so the same plan gives their
    samples, kept as (Ps, Pu) pairs in ``partner_samples``.  At the inserted
    breakpoints every path's cell-start sample is its ``value_at``.
    """

    def __init__(self, X: CadlagPath, Y: CadlagPath, eps: float, partners=()):
        if not X.same_grid(Y):
            raise PathError("paths must share a grid")
        eps = float(eps)
        T = X.horizon
        if eps >= T:
            raise ValueError("window width must be below the horizon")
        if eps <= 0.0 or eps < X.min_spacing:
            raise ValueError("window width must cover at least one grid cell")
        grid = X.grid
        taus = np.union1d(X.jump_times, Y.jump_times)
        shifted = taus - eps
        keep = (shifted > 0.0) & (shifted < T)
        taus, shifted = taus[keep], shifted[keep]
        on_grid = np.zeros(0, dtype=np.intp)
        on_grid_tau = np.zeros(0)
        if shifted.size:
            ins = np.searchsorted(grid, shifted)
            hit = grid[np.minimum(ins, grid.size - 1)] == shifted
            on_grid, on_grid_tau = ins[hit], taus[hit]
            taus, shifted, ins = taus[~hit], shifted[~hit], ins[~hit]
        if shifted.size:
            S = np.insert(grid, ins, shifted)
            pos = np.arange(grid.size) + np.searchsorted(shifted, grid, side="left")
            ins_cells = ins + np.arange(shifted.size)
            sl = S[:-1]
            u = sl + eps
            u[ins_cells] = taus
            if on_grid.size:
                u[pos[on_grid]] = on_grid_tau
            np.maximum.accumulate(u, out=u)
        else:
            S = grid
            pos = np.arange(grid.size)
            sl = S[:-1]
            u = sl + eps
            if on_grid.size:
                u[on_grid] = on_grid_tau
                np.maximum.accumulate(u, out=u)
            ins_cells = np.zeros(0, dtype=np.intp)
        self.eps = eps
        self.grid = grid
        self.sl = sl
        self.w = np.diff(S)
        self.u = u
        self.pos = pos
        self.ins_cells = ins_cells
        self.shifted = shifted
        if not np.all(u >= 0.0):
            raise PathError("shifted sample points need u >= 0, not NaN")
        # the one search: all paths share the grid, so one plan serves all
        uc = np.minimum(u, T)
        cells = np.searchsorted(grid, uc, side="right") - 1
        plan = _sample_plan(grid, uc, cells)
        self.Xs, self.Xu = self._samples(X, plan)
        self.Ys, self.Yu = (self.Xs, self.Xu) if Y is X else self._samples(Y, plan)
        self.partner_samples = [self._samples(P, plan) for P in partners]
        # bulk cells at t_i are those with u <= t_i: count each u at the first
        # node at or after it (past the horizon, at grid.size)
        lidx = cells + 1 - (grid[cells] == u)
        self.jr = np.cumsum(np.bincount(lidx, minlength=grid.size + 1))[:grid.size]
        self.X = X
        self.Y = Y

    def _samples(self, P: CadlagPath, plan) -> tuple[np.ndarray, np.ndarray]:
        """P at the cell left endpoints and at the shifted points u, given
        the plan of u capped at T; P jumps only where X or Y does."""
        if self.ins_cells.size:
            Ps = np.empty(self.sl.size)
            Ps[self.pos[:-1]] = P.values[:-1]
            Ps[self.ins_cells] = P.value_at(self.shifted)
        else:
            Ps = P.values[:-1]
        return Ps, P._sample(plan)

    def weight_samples(self, g: CadlagPath) -> np.ndarray:
        """Caglad weight sampled at cell left endpoints (left limits).

        A grid cell starts at a node, whose stored left value is the left
        limit (g(0) at cell 0); only the inserted breakpoints are searched.
        """
        if not g.same_grid(self.X):
            raise PathError("weight path must share the grid")
        out = np.empty(self.sl.size)
        out[self.pos[:-1]] = g.left_values[:-1]
        out[0] = g.values[0]
        out[self.ins_cells] = g.left_limit(self.shifted)
        return out


def _estimator_path(grid: np.ndarray, vals: np.ndarray, jump_lefts: np.ndarray,
                    jump_idx: np.ndarray) -> CadlagPath:
    # the continuous-time estimator only jumps where its inputs do; elsewhere
    # the boundary-window algebra leaves reassociation dust, so left values
    # are assembled (``jump_lefts``) only at the input jump rows
    left_final = vals.copy()
    left_final[jump_idx] = jump_lefts
    return from_arrays(grid, vals, left_final, rule=LINEAR)


def _input_jump_indices(X: CadlagPath, Y: CadlagPath | None = None) -> np.ndarray:
    idx = X.jump_marks
    if Y is not None and Y is not X:
        idx = np.union1d(idx, Y.jump_marks).astype(np.intp)
    return idx


# -- kernels -----------------------------------------------------------------


def _window_sums(m: _Mesh, omega: np.ndarray, unit: bool = False):
    """Window sums of omega-weighted increment products on the mesh of X.

    Returns a function of a partner path Y and its samples (Ys, Yu) on mesh
    m (m.Y, or one of m's partners) that gives, as a path over t, (1/eps) sum over cells s of
    omega(s) (X(u(s) ^ t) - X(s)) (Y(u(s) ^ t) - Y(s)) for every grid time
    t, or, with ``unit``, of omega(s) (X(u(s) ^ t) - X(s)) alone.  X's side
    is computed once, so one mesh serves every partner whose jumps it holds.
    Cells with u(s) <= t (the bulk) are one prefix sum; the boundary cells
    after t - eps expand into prefix sums of omega, omega a, omega b and
    omega a b, where a and b are the factors' offsets from their start
    values.
    """
    X = m.X
    cA = X.values[0]
    xa = m.Xs - cA
    Sw = _cumsum0(omega)
    SwA = _cumsum0(omega * xa)
    # left limit at t: the bulk is the cells with u < t
    jidx = _input_jump_indices(X, m.Y)
    jl = np.searchsorted(m.u, m.grid[jidx], side="left")

    def against(Y: CadlagPath, Ys: np.ndarray, Yu: np.ndarray) -> CadlagPath:
        if unit:
            bulk = _cumsum0(omega * (m.Xu - m.Xs))
        else:
            cB = Y.values[0]
            # association is kept symmetric in the two factors so that
            # swapping them returns bit-identical values
            bulk = _cumsum0(omega * ((m.Xu - m.Xs) * (Yu - Ys)))
            xb = xa if Y is X else Ys - cB
            SwB = SwA if Y is X else _cumsum0(omega * xb)
            SwAB = _cumsum0(omega * (xa * xb))

        def assemble(p, j, Xt, Yt):
            Am = Xt - cA
            rw = Sw[p] - Sw[j]
            ra = SwA[p] - SwA[j]
            if unit:
                return (bulk[j] + Am * rw - ra) / m.eps
            Bm = Yt - cB
            rb = SwB[p] - SwB[j]
            rab = SwAB[p] - SwAB[j]
            return (bulk[j] + (Am * Bm * rw + rab) - (Am * rb + Bm * ra)) / m.eps

        vals = assemble(m.pos, m.jr, X.values, Y.values)
        lefts = assemble(m.pos[jidx], jl, X.left_values[jidx], Y.left_values[jidx])
        return _estimator_path(m.grid, vals, lefts, jidx)

    return against


def covariation(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """[X, Y] window estimate as a path over t, O(n) for all grid times."""
    m = _Mesh(X, Y, eps)
    return _window_sums(m, m.w)(Y, m.Ys, m.Yu)


def forward_integral(Y: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Window estimate of int Y d-X as a path over t, O(n) for all t."""
    m = _Mesh(X, Y, eps)
    return _window_sums(m, m.w * m.Ys, unit=True)(Y, m.Ys, m.Yu)


def weighted_qv(g: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Weighted squared-increment estimate int g(s)(X((s+eps)^t)-X(s))^2/eps ds.

    ``g`` carries caglad weights: it is sampled through its left limits, so
    with g identically one this is exactly ``covariation(X, X, eps)``.
    """
    m = _Mesh(X, X, eps)
    return _window_sums(m, m.w * m.weight_samples(g))(X, m.Xs, m.Xu)


def covariation_continuous(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """Untruncated window estimate C(eps): X(s + eps) without the ^ t cap,
    using the extension of the paths past the horizon by continuity.  The
    result is continuous in t."""
    m = _Mesh(X, Y, eps)
    bulk = _cumsum0(m.w * (m.Xu - m.Xs) * (m.Yu - m.Ys))
    vals = bulk[m.pos] / m.eps
    return from_arrays(m.grid, vals, vals.copy(), rule=LINEAR)


def forward_integral_rv(Y: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Whole-line windowed variant of the forward estimate.

    Compared to ``forward_integral`` the integrand is extended by Y(0+) to
    the left of zero and frozen past t, which adds the start-up window
    Y(0+) (1/eps) int_0^eps [X(s) - X(0+)] ds once t >= eps.
    """
    base = forward_integral(Y, X, eps)
    eps = float(eps)
    grid = X.grid
    y0 = Y.values[0]
    x0 = X.values[0]
    # left-endpoint quadrature of Q(a) = int_0^a (X - X(0)) ds with a partial
    # final cell, evaluated at a = eps ^ t for every grid t
    cells = np.searchsorted(grid, eps, side="left")
    qcum = _cumsum0(np.diff(grid[: cells + 1]) * (X.values[: cells] - x0))

    def q_at(a):
        a = np.minimum(a, eps)
        i = np.searchsorted(grid, a, side="right") - 1
        i = np.minimum(i, cells - 1)
        return qcum[i] + (a - grid[i]) * (X.values[i] - x0)

    tail = np.clip(eps - grid, 0.0, None)
    q = q_at(grid)
    vals = base.values + y0 * (q + tail * (X.values - x0)) / eps
    jidx = _input_jump_indices(X, Y)
    lefts = (base.left_values[jidx]
             + y0 * (q[jidx] + tail[jidx] * (X.left_values[jidx] - x0)) / eps)
    return _estimator_path(grid, vals, lefts, jidx)


def rv_window_constant(Y: CadlagPath, X: CadlagPath, eps: float) -> float:
    """Closed-form start-up gap Y(0+) (1/eps) int_0^eps [X(s) - X(0+)] ds,
    under the shared left-endpoint quadrature."""
    eps = float(eps)
    grid = X.grid
    edges = np.union1d(grid[grid < eps], [eps])
    lefts = edges[:-1]
    widths = np.diff(edges)
    return float(Y.values[0] * np.sum(widths * (X.value_at(lefts) - X.values[0])) / eps)


def rv_ucp_gap(Y: CadlagPath, X: CadlagPath, eps: float) -> float:
    """Sup over grid times of (truncated minus whole-line forward estimate).

    Checks that for every grid time t >= eps the gap equals minus the
    closed-form start-up window, raising ``WindowGapError`` if the identity
    fails beyond a relative 1e-9 of the estimate scale.
    """
    ucp = forward_integral(Y, X, eps)
    rv = forward_integral_rv(Y, X, eps)
    diff = ucp.values - rv.values
    const = rv_window_constant(Y, X, eps)
    sel = X.grid >= eps
    scale = max(ucp.sup_norm(), abs(const), 1.0)
    worst = float(np.max(np.abs(diff[sel] + const))) if np.any(sel) else 0.0
    if worst > 1e-9 * scale:
        raise WindowGapError(
            f"window-gap identity violated: |gap + {const!r}| reaches {worst!r}")
    return float(np.max(diff))


# -- uniform-limit driver ----------------------------------------------------


@dataclass
class LimitReport:
    """Convergence diagnostics of an estimator along a window schedule.

    ``converged`` is a Cauchy test along the sampled schedule only (final
    sup-norm gap below tol relative to the last estimate); it is a surrogate
    for the limit notion, and non-convergence is a first-class outcome.  A
    schedule of one window has no gap to test and never converges.  Only
    the estimate at the last window is kept, as ``limit``.
    """

    epsilons: tuple[float, ...]
    limit: CadlagPath
    sup_gaps: np.ndarray
    sup_norms: np.ndarray
    tol: float
    converged: bool

    @property
    def gaps_increasing(self) -> bool:
        return bool(np.all(np.diff(self.sup_gaps) >= 0.0))

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "limit_report",
            "epsilons": list(self.epsilons),
            "sup_gaps": self.sup_gaps.tolist(),
            "sup_norms": self.sup_norms.tolist(),
            "tol": self.tol,
            "converged": self.converged,
        }


def _require_fit(schedule: EpsilonSchedule, X: CadlagPath) -> None:
    """Raise ScheduleError unless every window is below X's horizon and at
    least its smallest grid spacing."""
    T, dt = X.horizon, X.min_spacing
    for e in schedule:
        if e >= T or e < dt:
            raise ScheduleError(f"window {e} does not fit the grid")


class _CauchyStudy:
    """Sup-norm Cauchy bookkeeping of one estimator along a schedule; it
    holds only the last estimate."""

    def __init__(self):
        self.last = None
        self.norms, self.gaps = [], []

    def add(self, est: CadlagPath) -> None:
        self.norms.append(est.sup_norm())
        if self.last is not None:
            self.gaps.append(float(np.max(np.abs(est.values - self.last.values))))
        self.last = est

    def report(self, schedule: EpsilonSchedule, tol: float) -> LimitReport:
        sup_norms, gaps = np.array(self.norms), np.array(self.gaps)
        scale = max(sup_norms[-1], 1e-12)
        converged = bool(gaps.size and gaps[-1] <= tol * scale)
        return LimitReport(tuple(schedule.epsilons), self.last, gaps, sup_norms,
                           float(tol), converged)


def ucp_limit(estimator, X: CadlagPath, Y: CadlagPath | None = None,
              schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
              tol: float = DEFAULT_TOL) -> LimitReport:
    """Run ``estimator`` along the schedule and test sup-norm Cauchy decay.

    ``estimator`` is called as estimator(X, eps) or estimator(X, Y, eps).
    Estimates stream: only the previous and the current one are held.  The
    report keeps the last estimate and the raw norm and gap arrays so
    callers can apply their own criteria.
    """
    _require_fit(schedule, X)
    study = _CauchyStudy()
    for e in schedule:
        study.add(estimator(X, e) if Y is None else estimator(X, Y, e))
    return study.report(schedule, tol)


def qv_limit(X: CadlagPath, schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
             tol: float = DEFAULT_TOL) -> LimitReport:
    """Quadratic-variation study: ``covariation(X, X)`` along the schedule."""
    return ucp_limit(covariation, X, X, schedule=schedule, tol=tol)


def _covariation_studies(X: CadlagPath, partners: list[CadlagPath],
                         schedule: EpsilonSchedule,
                         tol: float) -> list[LimitReport]:
    """``ucp_limit(covariation, X, P, schedule, tol)`` for every continuous
    P in ``partners``, bit for bit, with one mesh per window.

    A continuous P adds no breakpoint, so (X, P) has the mesh of (X, X):
    each window builds that mesh, X's samples and X's prefix sums once, and
    reads every P's samples from the mesh's cells.  The caller checks that
    the partners are continuous.
    """
    _require_fit(schedule, X)
    for P in partners:
        if not X.same_grid(P):
            raise PathError("paths must share a grid")
    studies = [_CauchyStudy() for _ in partners]
    for e in schedule:
        m = _Mesh(X, X, e, partners)
        against = _window_sums(m, m.w)
        for study, P, (Ps, Pu) in zip(studies, partners, m.partner_samples):
            study.add(against(P, Ps, Pu))
    return [study.report(schedule, tol) for study in studies]
