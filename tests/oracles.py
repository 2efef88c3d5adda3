"""Reference code that only the tests use.

``brute_forward_integral`` and ``brute_covariation`` are literal O(n^2)
per-t transcriptions of the window estimators.  They build their own
breakpoint set and read paths only through ``value_at`` and ``left_limit``,
so they share nothing with the kernels' sample mesh and can see a fault in
it.  Unlike the mesh-free Gauss-Legendre oracle in test_kernel_properties.py
they use the kernels' left-endpoint rule, so they also cover linear paths.
"""

import numpy as np

from pathcalc.ito import FunctionBundle
from pathcalc.jumps import field_from_size
from pathcalc.paths import from_arrays


def _cells(X, Y, eps):
    """Cell starts, widths and shifted points of the left-endpoint sum.

    The breakpoints are the grid and the shifted jump times tau - eps that
    fall inside (0, T).  A cell that starts at tau - eps has its shifted
    point at tau itself, so it reads the post-jump value.
    """
    grid = X.grid
    taus = np.union1d(X.jump_times, Y.jump_times)
    shifted = taus - eps
    keep = (shifted > 0.0) & (shifted < X.horizon)
    taus, shifted = taus[keep], shifted[keep]
    br = np.union1d(grid, shifted)
    s = br[:-1]
    u = s + eps
    u[np.searchsorted(br, shifted)] = taus
    return s, np.diff(br), u


def _per_t(X, Y, eps, term):
    """Values and left limits at the grid times of (1/eps) times the sum
    over cells s < t of w term(s, capped X at u, capped Y at u), where a
    shifted point u counts as reached at t when u <= t (values) or u < t
    (left limits), and an unreached one reads the path at t or t-."""
    s, w, u = _cells(X, Y, eps)
    Xs, Ys = X.value_at(s), Y.value_at(s)
    Xu, Yu = X.value_at(u), Y.value_at(u)
    grid = X.grid
    Xv, Yv = X.value_at(grid), Y.value_at(grid)
    # t = 0 has no left limit; its row is never read
    Xl, Yl = (np.concatenate(([np.nan], P.left_limit(grid[1:]))) for P in (X, Y))
    vals = np.zeros(grid.size)
    lefts = np.zeros(grid.size)
    for i in range(1, grid.size):
        t = grid[i]
        k = int(np.searchsorted(s, t, side="left"))
        for out, reached, Xt, Yt in ((vals, u[:k] <= t, Xv[i], Yv[i]),
                                     (lefts, u[:k] < t, Xl[i], Yl[i])):
            xcap = np.where(reached, Xu[:k], Xt)
            ycap = np.where(reached, Yu[:k], Yt)
            out[i] = np.sum(w[:k] * term(Xs[:k], Ys[:k], xcap, ycap)) / eps
    return vals, lefts


def brute_forward_integral(Y, X, eps):
    """Forward estimate of int Y d-X: (values, left limits) at grid times."""
    return _per_t(X, Y, float(eps), lambda xs, ys, xc, yc: ys * (xc - xs))


def brute_covariation(X, Y, eps):
    """Covariation estimate of X and Y: (values, left limits) at grid times."""
    return _per_t(X, Y, float(eps),
                  lambda xs, ys, xc, yc: (xc - xs) * (yc - ys))


def rel_error(kernel, brute):
    """max |kernel - brute| relative to max(1, max |brute|)."""
    scale = max(1.0, float(np.max(np.abs(brute))))
    return float(np.max(np.abs(kernel - brute))) / scale


def from_function(grid, fn):
    """Continuous linear path sampling a scalar function of time on the grid."""
    v = np.asarray(fn(np.asarray(grid, dtype=float)), dtype=float)
    return from_arrays(grid, v, v.copy())


def linear_combination(a, F, b, G):
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


# the counting field: integrate_mu of it counts the jumps
ONE_FIELD = field_from_size(lambda x: np.ones(np.shape(x)))
