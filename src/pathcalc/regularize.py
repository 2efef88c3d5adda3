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
computation into prefix sums, and the work into a per-study part
(``_Study``) and a per-window part (``_Mesh``).  Once per study, for all
windows: the window-sized scratch buffers that every window writes in
place (``_Scratch``), the grid's cell widths and the nodes off the base
lattice that they show, and at the first window that inserts no
breakpoint the eps-free prefix sums of the covariation and of the
forward estimate.  Once per window: the paths' values at the shifted
sample points and the bulk cells of every t; the bulk prefix sum; and the
O(n) assembly for all t, in place in one accumulator, the one fresh array
of an estimate.

One snap rule holds for every window: a shifted time, a sample point
t_i + eps or a breakpoint tau - eps, within ``_SNAP_ULPS`` ulps of T of a
grid node is that node.  A window is read by index when its cells up to
T fall into a few runs whose shifted points all snap to the node a fixed
count of rows on (``_cell_runs``, one O(n) comparison): the samples are
slices of the paths' values, the bulk counts and the mesh rows runs read
by slices, and only the points of the cuts between runs are located.  On
a uniform grid that is one run per window of a schedule snapped to its
spacing; on a grid that is that lattice plus inserted jump times (every
simulated jump grid) the runs change their count at the jump nodes, and
the cuts are the cells that start at one, whose points tau + eps are off
the lattice.  This holds for windows that insert breakpoints tau - eps
too, whose points are pinned to the nodes tau.  Every other window
locates its shifted points in the grid once, by binary search, which
gives the samples and, by counting, the bulk cells, in fresh arrays, and
snaps them by the same rule, so where both apply the two give the same
bits.  A window that inserts a breakpoint inside a grid cell also builds
its own cells and sums.  The estimators jump only where their inputs do,
so left limits are assembled only at the input jump rows: elsewhere the
boundary-window algebra would leave reassociation dust.  A literal O(n^2)
per-t transcription on its own breakpoint set (in the test suite) must
match the kernels to floating-point reassociation accuracy.  The three
split estimators are one window-sum kernel with different cell weights:
the covariation weights the product of the X and Y increments by the cell
width w, the weighted sum weights the squared X increment by w g, and the
forward estimate weights the X increment alone by w Y.

All kernels are pure functions; each is a study of one window.  A study
of many windows runs through one driver, ``_windows``, which yields every
window's estimates against all partners from one study, bit for bit those
of fresh kernel calls.  ``_limits`` is the one sup-norm Cauchy bookkeeping
over such a stream (``qv_limit``, the orthogonality tests) or over any
estimator's calls (``ucp_limit``); it holds only the previous window.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .paths import (CadlagPath, _cumsum0, _jumping_at, _require_shared_grid, _sample_plan,
                    _SamplePlan, _sorted_union, _union_marks)

DEFAULT_EPS_MAX = 0.05
DEFAULT_LEVELS = 8
DEFAULT_TOL = 1e-2
# 0.5 ** 1075 is 0.0: no geometric schedule with more levels has positive widths
MAX_LEVELS = 1074


class ScheduleError(ValueError):
    """Raised when a window schedule does not fit a path's grid."""


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
        """eps_k = eps_max * 2^-k for k = 1..levels (default 0.05 * 2^-k).

        ``levels`` outside [1, MAX_LEVELS] is rejected before any width is
        built.
        """
        if not 1 <= levels <= MAX_LEVELS:
            raise ScheduleError(f"levels must be between 1 and {MAX_LEVELS}")
        return cls(tuple(eps_max * 0.5 ** k for k in range(1, levels + 1)))

    def snapped(self, dt: float) -> "EpsilonSchedule":
        """Round every width to a positive integer multiple of ``dt``."""
        if not dt > 0.0:
            raise ScheduleError("spacing must be positive")
        # rint rounds half to even, as round does, and keeps an overflow inf
        snapped = [max(float(np.rint(e / dt)), 1.0) * dt for e in self.epsilons]
        out = []
        for e in snapped:
            if not out or e < out[-1]:
                out.append(e)
        return EpsilonSchedule(tuple(out))

    def for_path(self, path: CadlagPath, base_dt: float) -> "EpsilonSchedule":
        """The schedule snapped to ``base_dt``, checked to fit the path's grid
        (``_require_fit``) with the smallest window ten spacings wide."""
        dt = float(base_dt)
        s = self.snapped(dt)
        _require_fit(s, path)
        if not _spans_ten_cells(s.epsilons[-1], dt):
            raise ScheduleError("smallest window must span at least ten grid cells")
        return s


def _require_tol(tol: float) -> None:
    """ValueError unless ``tol`` is positive and finite: an infinite or NaN
    tolerance would pass every test, and one of 0 or less fail nearly all."""
    if not 0.0 < float(tol) < math.inf:
        raise ValueError(f"tolerance {tol} must be positive and finite")


def _require_fit(widths, X: CadlagPath) -> None:
    """The one window-fit rule, for a schedule or a single kernel's
    ``(eps,)``: raise ScheduleError unless every width is at least X's
    smallest grid spacing and below its horizon (which NaN fails)."""
    for e in widths:
        if not X.min_spacing <= float(e) < X.horizon:
            raise ScheduleError(f"window {e} does not fit the grid")


def _spans_ten_cells(eps: float, dt: float) -> bool:
    """The smallest-window rule: a width snapped to ``dt`` spans ten cells."""
    return eps >= 10.0 * dt - 1e-12 * dt


def _default_levels(eps0: float, dt: float) -> int:
    """How many of the DEFAULT_LEVELS halvings of ``eps0``, snapped to ``dt``,
    span ten cells; at least 1, so a grid too coarse still fails ``for_path``."""
    widths = EpsilonSchedule.geometric(eps0).snapped(dt)
    return max(1, sum(_spans_ten_cells(e, dt) for e in widths))


DEFAULT_SCHEDULE = EpsilonSchedule.geometric()


# -- sample mesh -------------------------------------------------------------


# a shifted time (a sample point t_i + eps or a breakpoint tau - eps) this
# many ulps of T or closer to a grid node is that node
_SNAP_ULPS = 4

# the most nodes off the base lattice, beyond its jump rows, that a study
# cuts its windows at; a study with more locates every window
_OFF_NODES = 32


def _locate(grid: np.ndarray, tc: np.ndarray) -> np.ndarray:
    """Cell of every time tc in [0, T]: the last node at or before it."""
    cells = np.searchsorted(grid, tc, side="right")
    cells -= 1
    return cells


def _read(S: np.ndarray, j, out: np.ndarray) -> np.ndarray:
    """``S[j]`` written in ``out``, for an index j: an array, gathered, or
    runs, a tuple of (lo, hi, d, slope) that give j[i] = i + d on [lo, hi)
    where ``slope`` and j[i] = d elsewhere, read as a slice copy or a fill
    per run."""
    if isinstance(j, np.ndarray):
        # j is in range, so "clip" never acts; it spares the buffered copy
        # that "raise" makes with out=
        return np.take(S, j, out=out, mode="clip")
    for lo, hi, d, slope in j:
        out[lo:hi] = S[lo + d:hi + d] if slope else S[d]
    return out


def _at(S: np.ndarray, j, out: np.ndarray) -> np.ndarray:
    """``_read``, but one run of consecutive indices is S's own slice."""
    if not isinstance(j, np.ndarray) and len(j) == 1 and j[0][3]:
        lo, hi, d, _ = j[0]
        return S[lo + d:hi + d]
    return _read(S, j, out)


def _rows_at(ins: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Mesh rows of grid ``nodes``, given the nodes ``ins`` that each
    inserted breakpoint lies before."""
    return nodes + np.searchsorted(ins, nodes, side="right")


class _Scratch:
    """Window-sized buffers that every window of one study writes in turn.

    One block of rows of ``words`` entries each, the most a window needs:
    the grid's points and one inserted breakpoint per jump row of the
    study.  Taken in one allocation, the block is freed in one, which keeps
    its pages in the process for the next study instead of handing n-sized
    arrays back to the OS window by window.  The study's cell widths ``w``
    take one row of it, so a study allocates no other n-sized array of its
    own until it builds its sums.

    A window first builds its mesh: ``u`` holds the shifted points.  A
    window read by index writes the nodes its runs' points snap to in
    ``uc``, their distance from u in ``floats``, and the k-th of
    ``partners`` sample sets at u in ``shifted[k]``; a located window
    writes only u and takes fresh arrays for the rest.  The assembly reads
    u only to search the left limits' bulk, and the samples and counts
    throughout; it writes the bulk prefix sum ``bulk`` and its
    temporaries ``r``, ``q`` and ``s`` over the rows of ``uc``,
    ``floats``, the spare row and ``u``.  No estimate a window returns
    lies in the block.
    """

    def __init__(self, words: int, partners: int):
        rows = np.empty((5 + partners, words))
        self.u = self.s = rows[0]
        self.uc = self.bulk = rows[1]
        self.floats = self.r = rows[2]
        self.q = rows[3]
        self.w = rows[4]
        self.shifted = list(rows[5:])


class _Study:
    """The per-study part of the sample mesh: the work on X's grid that no
    window width changes, done once for X against its ``partners``.

    A study lives for one call: a limit study, or the one window of a
    standalone kernel.  Its jump rows ``jidx`` and times ``taus`` are those
    of X and every partner.  ``tol`` is the snap rule's distance,
    ``_SNAP_ULPS`` ulps of T, or 0 (nothing snaps) on a grid whose nodes
    lie 2 tol apart or closer, where a time could snap to either of two.
    The grid's cell starts are ``sl`` and its widths ``w``.  ``off`` are
    the nodes off the base lattice that are no jump row of the study, as a
    path's jump times are on the grid of a part that does not jump there:
    a node is off when both cells beside it are narrower than the widest
    cell by more than tol.  Its windows read by index (``_cell_runs``) are
    cut at ``cut_nodes``, the jump rows and ``off``.  ``off`` is None, and
    every window located, when it holds more than ``_OFF_NODES`` nodes or
    once a window found no runs.  A window that inserts no breakpoint has
    the plain grid's cells, the covariation's eps-free prefix sums ``sums``
    and the forward estimate's ``forward_sums``, each built at the first
    window that reads it, so a study whose windows all insert breakpoints
    builds no sums.  On the plain grid the cell-start samples of X and the
    partners are their values, read in place.

    The study owns its windows' buffers, ``scratch`` (``_Scratch``), which
    also holds ``w``: the shifted points, the nodes of the runs, the
    samples at the shifted points, the bulk prefix sum and the assembly's
    temporaries, sized to the grid plus the most breakpoints a window
    inserts.  Every window
    writes them in place, so a covariation window read by index on the
    plain grid allocates no n-sized array but the estimates it returns.  A
    located window takes fresh arrays for its location, its samples and
    its counts.  A mesh that inserts breakpoints also builds its cells and
    cell-start samples, and the forward and weighted kernels their cell
    weights and sums.  Nothing outlives the call.
    """

    def __init__(self, X: CadlagPath, partners: list[CadlagPath]):
        _require_shared_grid(X, *partners)
        self.X = X
        self.partners = partners
        self.grid = X.grid
        self.sl = X.grid[:-1]
        self.jidx = _union_marks(X, *partners)
        self.taus = X.grid[self.jidx]
        tol = _SNAP_ULPS * float(np.spacing(X.horizon))
        self.tol = tol if X.min_spacing > 2.0 * tol else 0.0
        others = sum(P is not X for P in partners)
        self.scratch = _Scratch(X.grid.size + self.jidx.size, 1 + others)
        self.w = w = np.subtract(self.grid[1:], self.sl, out=self.scratch.w[:self.sl.size])
        # a node is off the lattice when both cells beside it are narrower
        # than the widest by more than tol, as a time inserted into a
        # lattice cell leaves them; a grid with no narrow cell needs no mask
        off = np.zeros(0, dtype=np.intp)
        wide = float(w.max()) - self.tol
        if float(w.min()) < wide:
            narrow = w < wide
            off = np.setdiff1d(np.flatnonzero(narrow[:-1] & narrow[1:]) + 1, self.jidx,
                               assume_unique=True)
        self.off = off if off.size <= _OFF_NODES else None
        self.cut_nodes = _sorted_union(self.jidx, off)

    @cached_property
    def sums(self) -> "_Sums":
        return _Sums(self.w, self.X, self.X.values[:-1],
                     [(P, P.values[:-1]) for P in self.partners])

    @cached_property
    def forward_sums(self) -> "_Sums":
        return _Sums(self.w * self.partners[0].values[:-1], self.X, self.X.values[:-1], ())


def _cell_runs(study: _Study, u: np.ndarray, past: int,
               ins: np.ndarray) -> tuple[tuple, tuple] | None:
    """The runs of a window's cells up to the horizon, [0, ``past``), and
    its cuts: a run (a, b, o, True) when the shifted point of every cell c
    in [a, b) snaps to node c + o, which is then written in u; a cut, a
    cell that starts at a node off the base lattice, whose point is
    located.  None when no such runs are found, and u is left as it was.

    On a grid that is a lattice plus inserted nodes, with eps a whole
    number of lattice cells, the point of a cell that starts at a lattice
    node, or at a breakpoint tau - eps pinned to tau, is a node, and the
    count of rows it moves on changes only at an inserted node v: the cell
    that starts at v is cut, and past v a run starts (a point pinned to v
    continues its run).  The inserted nodes are the study's jump rows and
    its off-lattice nodes, ``_Study.cut_nodes`` (``ins`` gives their
    rows).  One O(n) comparison against the snap distance; a window whose
    points miss sets ``_Study.off`` to None, and every window of the study
    is located from then on."""
    if study.off is None:
        return None
    grid, tol, buf = study.grid, study.tol, study.scratch
    cuts = _rows_at(ins, study.cut_nodes)
    cuts = cuts[cuts < past]
    cut = set(cuts.tolist())
    # a run starts after each cut and at the first point past each
    # off-lattice node
    starts = sorted({0, *(cuts + 1).tolist(),
                     *np.searchsorted(u[:past], grid[study.off], side="right").tolist()}
                    - cut - {past})
    bounds = sorted(cut.union(starts, [past]))
    stops = [bounds[bisect.bisect_right(bounds, a)] for a in starts]
    a = np.array(starts)
    # the first node within tol of a run's first point, or past it; a
    # run's cells that would read past the last node miss
    o = np.searchsorted(grid, u[a] - tol) - a
    ends = np.minimum(stops, grid.size - o).tolist()
    runs = tuple(zip(starts, ends, o.tolist(), [True] * a.size))
    nodes = _read(grid, runs, buf.uc[:past])
    for lo, hi in zip(ends, stops):
        nodes[lo:hi] = np.inf
    nodes[cuts] = u[cuts]
    d = np.subtract(u[:past], nodes, out=buf.floats[:past])
    if d.max() <= tol and -d.min() <= tol:
        u[:past] = nodes
        return runs, tuple(cuts.tolist())
    study.off = None
    return None


def _count_runs(pieces, past: int, n: int) -> tuple:
    """The bulk counts at the n grid times as runs (``_read``), given the
    ``pieces`` of cells (a, b, s), in cell order, whose points count at the
    nodes s, s + 1, ..., and ``past``, the first cell whose point counts
    past T.

    The counts at t_i are the cells whose node is i or less, a prefix of
    the cells: those of a piece up to node i, or all before the first
    piece that starts after i."""
    runs, lo = [], 0
    for a, b, s in [*pieces, (past, past, n)]:
        if s > lo:
            runs.append((lo, s, a, False))
        hi = s + b - a - 1
        if hi > s:
            runs.append((s, hi, a + 1 - s, True))
        lo = hi
    return tuple(runs)


def _snap(grid: np.ndarray, tc: np.ndarray, cells: np.ndarray, tol: float) -> None:
    """The snap rule on times ``tc`` in [0, T] located at ``cells``: a time
    within ``tol`` of its cell's node, or else of the next node, is that
    node, written over in ``tc`` and its cell in ``cells``.  A time off its
    node lies before the last node, so its cell + 1 is a node."""
    off = np.flatnonzero(grid[cells] != tc)
    lo = cells[off]
    t, left, right = tc[off], grid[lo], grid[lo + 1]
    down = t - left <= tol
    up = ~down & (right - t <= tol)
    cells[off[up]] += 1
    tc[off[down]], tc[off[up]] = left[down], right[up]


def _plan(study: _Study, tc: np.ndarray) -> _SamplePlan:
    """The sample plan of times ``tc`` in [0, T] on the study's grid: each
    is located once (``_locate``) and, within the snap distance of a node,
    moved onto it in ``tc`` (``_snap``)."""
    cells = _locate(study.grid, tc)
    if study.tol:
        _snap(study.grid, tc, cells, study.tol)
    return _sample_plan(study.grid, tc, cells)


class _Mesh:
    """The per-window part of the sample mesh: all that depends on eps.

    ``sl`` are the cell left endpoints (grid plus shifted jump breakpoints),
    ``w`` the cell widths, ``u`` the shifted sample points, and ``rows``
    (runs, see ``_read``) and ``jump_rows`` the mesh rows of the grid times
    and of the study's jump rows.  A window where some tau - eps falls
    strictly inside a grid cell inserts it as a breakpoint and builds its
    own cells; node i is then row i plus the breakpoints inserted before
    it.  Any other window (every window of a jump-free study, and windows
    whose tau - eps fall on nodes or outside (0, T)) is ``plain``: it takes
    the study's cells, whose rows are the grid's.  For a cell whose left
    endpoint is a shifted breakpoint tau - eps, inserted or on a node,
    ``u`` is pinned to tau exactly so the lookup lands on the post-jump
    value.

    The snap rule: a breakpoint tau - eps or a shifted point u within the
    study's ``tol`` of a grid node is that node, so a breakpoint an ulp off
    a node is on it (the window stays plain), and a u an ulp off a node
    reads the node's value; a u within tol past T is T.  ``samples[k]`` is
    the k-th partner's pair of samples at the cell starts and at u, and
    (Xs, Xu) is X's; ``jr`` gives the number of bulk cells (u <= t_i) at
    every grid time t_i, as an array on a located window and as runs
    (``_read``) on a window read by index.

    A window is read by index (``_by_index``) when the cells up to T, cut
    at the cells that start at a node off the lattice (a jump row of the
    study, or one of its ``off`` nodes), fall into runs of cells whose
    points all snap to the node a fixed count of rows on (``_cell_runs``).
    On a uniform grid that is one run; on a grid that is the lattice plus
    inserted jump times, about one per jump: a cell that starts at a
    lattice node, or at a breakpoint tau - eps, reaches a node by index,
    and only the points tau + eps of the cuts are located.  The samples are
    then slices of the paths' values, and the bulk counts runs
    (``_count_runs``).  Plain windows and windows that insert breakpoints
    alike take this route.  Any other window is located (``_located``):
    every u capped at T is located in the grid once and snapped (``_plan``,
    as the cuts' points are).  The location gives one sample plan, the cell
    of every u and the cell and fraction of each u that falls strictly
    inside its cell, from which X and every partner of the study are
    sampled (they lie on one grid): a path gathers its values at the cells,
    and under the linear rule interpolates only the off-node entries.
    Counting each u at the first node at or after it gives ``jr``.  Where
    both routes apply they give the same bits.  At the inserted breakpoints
    every path's cell-start sample is its ``value_at``.  The width obeys
    ``_require_fit``.

    ``u``, and on a window read by index the samples at u, lie in the
    study's scratch, written in place, so they hold this window's values
    only until its estimates are assembled.  Of the mesh, a window read by
    index allocates nothing n-sized, a located one its location, samples
    at u and counts, and one that inserts breakpoints also its own cells
    and their widths, and its cell-start samples.
    """

    def __init__(self, study: _Study, eps: float):
        X = study.X
        _require_fit((eps,), X)
        eps = float(eps)
        T = X.horizon
        grid = study.grid
        tol = study.tol
        taus = study.taus
        shifted = taus - eps
        keep = (shifted > -tol) & (shifted < T)
        taus, shifted = taus[keep], shifted[keep]
        on_grid = ins = np.zeros(0, dtype=np.intp)
        on_grid_tau = np.zeros(0)
        if shifted.size:
            # the snap rule of located points, once a tau - eps in (-tol, 0)
            # is node 0; a miss is inserted after its cell (shifted < T)
            tc = np.maximum(shifted, 0.0)
            cells = _locate(grid, tc)
            _snap(grid, tc, cells, tol)
            hit = grid[cells] == tc
            on_grid, on_grid_tau = cells[hit], taus[hit]
            taus, shifted, ins = taus[~hit], shifted[~hit], cells[~hit] + 1
        self.plain = not shifted.size
        ins_cells = ins + np.arange(shifted.size)
        if self.plain:
            sl, w = study.sl, study.w
        else:
            S = np.insert(grid, ins, shifted)
            sl, w = S[:-1], np.diff(S)
        edges = [0, *ins.tolist(), grid.size]
        self.rows = tuple((lo, hi, d, True) for d, (lo, hi) in enumerate(zip(edges, edges[1:]))
                          if hi > lo)
        u = study.scratch.u[:sl.size]
        np.add(sl, eps, out=u)
        pins = np.concatenate((ins_cells, _rows_at(ins, on_grid)))
        # the pins keep u sorted: s = fl(tau - eps) is the double nearest
        # tau - eps, so a node below s is below tau - eps and one above s is
        # above it, and adding eps, rounded monotonically, keeps each node on
        # its side of tau (fl(s + eps) itself need not be tau).  A snapped
        # pin's neighbours lie more than tol from s, as nodes lie more than
        # 2 tol apart, so they keep their sides too
        u[pins] = np.concatenate((taus, on_grid_tau))
        # past T, u holds only nodes + eps (every pin is a jump time), more
        # than 2 tol apart: at most the first is within tol
        past = int(np.searchsorted(u, T, side="right"))
        if past < u.size and u[past] - T <= tol:
            u[past] = T
            past += 1
        self.study = study
        self.eps = eps
        self.grid = grid
        self.sl = sl
        self.w = w
        self.u = u
        self.jump_rows = _rows_at(ins, study.jidx)
        self.ins = ins
        self.ins_cells = ins_cells
        self.shifted = shifted
        self.X = X
        runs = _cell_runs(study, u, past, ins)
        if runs is None:
            at_u = self._located(study, u, past)
        else:
            at_u = self._by_index(study, u, runs[0], np.array(runs[1], dtype=np.intp), past)
        self.Xs, self.Xu = self._at_cell_starts(X.values, X.value_at), at_u(X)
        self.samples = [(self.Xs, self.Xu) if P is X
                        else (self._at_cell_starts(P.values, P.value_at), at_u(P))
                        for P in study.partners]

    def _by_index(self, study: _Study, u: np.ndarray, runs: tuple, cuts: np.ndarray,
                  past: int):
        """The shifted points of a window whose runs of cells reach nodes by
        index, and a path's samples at them: slices of its values, then X(T)
        past T, in the next of the study's ``shifted`` rows.  Only the points
        of the ``cuts`` are located, snapped and sampled from their own
        plan."""
        grid, n = study.grid, study.grid.size
        # a run's points count at its nodes, a cut's at the first node at or
        # after it
        pieces = [(a, b, a + o) for a, b, o, _ in runs]
        if cuts.size:
            tc = u[cuts]
            plan = _plan(study, tc)
            u[cuts] = tc
            cells = plan.cells
            pieces += zip(cuts.tolist(), (cuts + 1).tolist(),
                          (cells + (grid[cells] != tc)).tolist())
        self.jr = _count_runs(sorted(pieces), past, n)
        reads = (*runs, (past, u.size, n - 1, False))
        outs = iter(study.scratch.shifted)

        def at_u(P):
            out = _read(P.values, reads, next(outs)[:u.size])
            if cuts.size:
                out[cuts] = P._sample(plan)
            return out

        return at_u

    def _located(self, study: _Study, u: np.ndarray, past: int):
        """The shifted points of any other window, located in the grid once,
        which gives one sample plan (all paths lie on one grid), and a path's
        samples from it: the snap rule moves a u within tol of a node onto it
        first.  The plan, the counts and the samples are fresh arrays."""
        grid, n = study.grid, study.grid.size
        uc = np.minimum(u, self.X.horizon)
        plan = _plan(study, uc)
        # the snap moved points up to T only, where u is uc
        u[:past] = uc[:past]
        # bulk cells at t_i are those with u <= t_i: count each u at the first
        # node at or after it (past the horizon, at n)
        cells = plan.cells
        self.jr = np.cumsum(np.bincount(cells + (grid[cells] != u), minlength=n + 1)[:n])
        return lambda P: P._sample(plan)

    def _at_cell_starts(self, nodes: np.ndarray, at_inserted) -> np.ndarray:
        """A path's ``nodes`` (values or left values) at the cell starts, with
        the matching evaluator ``at_inserted`` at the inserted breakpoints."""
        if self.plain:
            return nodes[:-1]
        return np.insert(nodes[:-1], self.ins, at_inserted(self.shifted))

    def weight_samples(self, g: CadlagPath) -> np.ndarray:
        """Caglad weight sampled at cell left endpoints (left limits).

        A grid cell starts at a node, whose stored left value is the left
        limit (g(0-) = g(0) at cell 0); only the inserted breakpoints are
        searched.
        """
        _require_shared_grid(self.X, g)
        return self._at_cell_starts(g.left_values, g.left_limit)


class _Sums:
    """Prefix sums over a mesh's cells for the window sums of X.

    With a = X(s) - X(0) at the cell starts s, ``Sw`` and ``SwA`` sum the
    cell weight omega and omega a.  For each (Y, Ys) of ``factors``, a
    partner and its cell-start samples, with b = Y(s) - Y(0),
    ``factors[k]`` holds Y - Y(0) at the grid times (``Bm``) and the sums
    of omega b and omega a b.  ``Am`` is X - X(0) at the grid times.  None
    of them depends on eps where the cells and omega do not: the
    covariation's sums on the plain grid are the study's.
    """

    def __init__(self, omega: np.ndarray, X: CadlagPath, Xs: np.ndarray, factors):
        self.omega = omega
        cA = X.values[0]
        xa = Xs - cA
        self.Sw = _cumsum0(omega)
        self.SwA = _cumsum0(omega * xa)
        self.Am = X.values - cA
        self.factors = []
        for Y, Ys in factors:
            if Y is X:
                Bm, xb, SwB = self.Am, xa, self.SwA
            else:
                cB = Y.values[0]
                Bm, xb = Y.values - cB, Ys - cB
                SwB = _cumsum0(omega * xb)
            self.factors.append((Bm, SwB, _cumsum0(omega * (xa * xb))))


# -- kernels -----------------------------------------------------------------


def _mesh_sums(m: _Mesh, omega: np.ndarray, unit: bool = False) -> _Sums:
    """The ``_Sums`` of weight ``omega`` on the mesh's own cells, with a
    factor per partner of the study unless ``unit``."""
    factors = () if unit else [(P, Ps) for P, (Ps, _) in zip(m.study.partners, m.samples)]
    return _Sums(omega, m.X, m.Xs, factors)


def _window_sums(m: _Mesh, sums: _Sums | None = None, unit: bool = False):
    """Window sums of omega-weighted increment products on the mesh of X.

    Returns a function of k that gives, for the study's k-th partner Y, as
    a path over t, (1/eps) sum over cells s of omega(s) (X(u(s) ^ t) - X(s))
    (Y(u(s) ^ t) - Y(s)) for every grid time t, or, with ``unit``, of
    omega(s) (X(u(s) ^ t) - X(s)) alone.  ``sums`` holds omega and the
    eps-free prefix sums; None is the covariation's, of the cell width.
    X's side is computed once, so one mesh serves every partner.  Cells
    with u(s) <= t (the bulk) are one prefix sum per partner, the only sum
    that depends on eps; the boundary cells after t - eps expand into the
    prefix sums of ``_Sums``, which on a plain mesh are the study's, read
    at the mesh rows and the bulk counts by ``_read``, in runs on a window
    read by index.  The bulk prefix sum and the assembly's temporaries
    are the study's scratch; each estimate is assembled in place in one
    accumulator, a fresh array that the window returns.
    """
    study = m.study
    X = m.X
    buf = study.scratch
    if sums is None:
        sums = study.sums if m.plain else _mesh_sums(m, m.w)
    omega, Sw, SwA, Am = sums.omega, sums.Sw, sums.SwA, sums.Am
    jidx = study.jidx
    # left limit at t: the bulk is the cells with u < t
    jl = np.searchsorted(m.u, m.grid[jidx], side="left")
    Al = X.left_values[jidx] - X.values[0]

    def against(k: int) -> CadlagPath:
        Y = study.partners[k]
        bulk = buf.bulk[:m.sl.size + 1]
        bulk[0] = 0.0
        d = np.subtract(m.Xu, m.Xs, out=bulk[1:])
        if unit:
            d *= omega
        else:
            Ys, Yu = m.samples[k]
            # association is kept symmetric in the two factors so that
            # swapping them returns bit-identical values
            d *= d if Y is X else np.subtract(Yu, Ys, out=buf.q[:d.size])
            d *= omega
            Bm, SwB, SwAB = sums.factors[k]
        np.cumsum(d, out=d)

        def assemble(acc, p, j, Am, Bm):
            # bulk[j] is in acc; with r. = S.[p] - S.[j] this is
            # (bulk[j] + (Am Bm rw + rab) - (Am rb + Bm ra)) / eps, or with
            # ``unit`` (bulk[j] + Am rw - ra) / eps
            r, q, s = buf.r[:acc.size], buf.q[:acc.size], buf.s[:acc.size]

            def span(S):
                return np.subtract(_at(S, p, s), _at(S, j, r), out=r)

            if unit:
                acc += np.multiply(span(Sw), Am, out=r)
                acc -= span(SwA)
            else:
                np.multiply(Am, Bm, out=q)
                q *= span(Sw)
                q += span(SwAB)
                acc += q
                np.multiply(Am, span(SwB), out=q)
                if Y is X:
                    # Am rb + Bm ra with Bm = Am and rb = ra, bit for bit
                    q += q
                else:
                    q += np.multiply(span(SwA), Bm, out=r)
                acc -= q
            acc /= m.eps
            return acc

        Bl = Al if unit or Y is X else Y.left_values[jidx] - Y.values[0]
        lefts = assemble(bulk[jl], m.jump_rows, jl, Al, Bl)
        vals = assemble(_read(bulk, m.jr, np.empty(m.grid.size)), m.rows, m.jr,
                        Am, None if unit else Bm)
        return _jumping_at(X, vals, jidx, lefts)

    return against


def covariation(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """[X, Y] window estimate as a path over t, O(n) for all grid times."""
    return _window_sums(_Mesh(_Study(X, [Y]), eps))(0)


def _forward_sums(m: _Mesh):
    """``_window_sums`` of the forward estimate: the X increment weighted by
    the cell width times the study's first partner, the integrand Y, whose
    sums on a plain mesh are the study's."""
    sums = (m.study.forward_sums if m.plain
            else _mesh_sums(m, m.w * m.samples[0][0], unit=True))
    return _window_sums(m, sums, unit=True)


def forward_integral(Y: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Window estimate of int Y d-X as a path over t, O(n) for all t."""
    return _forward_sums(_Mesh(_Study(X, [Y]), eps))(0)


def weighted_qv(g: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Weighted squared-increment estimate int g(s)(X((s+eps)^t)-X(s))^2/eps ds.

    ``g`` carries caglad weights: it is sampled through its left limits, so
    with g identically one this is exactly ``covariation(X, X, eps)``.
    """
    m = _Mesh(_Study(X, [X]), eps)
    return _window_sums(m, _mesh_sums(m, m.w * m.weight_samples(g)))(0)


def covariation_continuous(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """Untruncated window estimate C(eps): X(s + eps) without the ^ t cap,
    using the extension of the paths past the horizon by continuity.  The
    result is continuous in t."""
    m = _Mesh(_Study(X, [Y]), eps)
    Ys, Yu = m.samples[0]
    bulk = _cumsum0(m.w * (m.Xu - m.Xs) * (Yu - Ys))
    vals = _read(bulk, m.rows, np.empty(m.grid.size))
    vals /= m.eps
    return _jumping_at(X, vals)


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
    jidx = _union_marks(X, Y)
    lefts = (base.left_values[jidx]
             + y0 * (q[jidx] + tail[jidx] * (X.left_values[jidx] - x0)) / eps)
    return _jumping_at(X, vals, jidx, lefts)


def rv_window_constant(Y: CadlagPath, X: CadlagPath, eps: float) -> float:
    """Closed-form start-up gap Y(0+) (1/eps) int_0^eps [X(s) - X(0+)] ds,
    under the shared left-endpoint quadrature; the width obeys the kernels'
    rule (``_require_fit``)."""
    _require_fit((eps,), X)
    eps = float(eps)
    grid = X.grid
    edges = _sorted_union(grid[grid < eps], [eps])
    lefts = edges[:-1]
    widths = np.diff(edges)
    return float(Y.values[0] * np.sum(widths * (X.value_at(lefts) - X.values[0])) / eps)


# -- verdicts and report JSON --------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One pass/fail decision: ``statistic`` (None: nothing to compare) set
    against ``threshold`` by ``rule``, whose one helper below builds it."""

    rule: str
    statistic: float | None
    threshold: float
    passed: bool


def _below(rule: str, statistic, threshold) -> Verdict:
    statistic, threshold = float(statistic), float(threshold)
    return Verdict(rule, statistic, threshold, statistic < threshold)


def cauchy_verdict(gaps: np.ndarray, norms: np.ndarray, tol: float) -> Verdict:
    """Last sup-norm gap <= tol * max(final sup-norm, 1e-12); a schedule of
    one window has no gap and never passes."""
    threshold = float(tol * max(norms[-1], 1e-12))
    gap = float(gaps[-1]) if gaps.size else None
    return Verdict("cauchy", gap, threshold, gap is not None and gap <= threshold)


def orthogonality_verdict(final_norm: float, tol: float) -> Verdict:
    """Final covariation sup-norm < tol."""
    return _below("orthogonality", final_norm, tol)


def bracket_verdict(gap: float, tol: float, scale: float) -> Verdict:
    """Bracket identity gap < tol * scale."""
    return _below("bracket", gap, tol * scale)


def alpha_atoms_verdict(jump_max: float, scale: float) -> Verdict:
    """Largest jump of the drift part off the compensator's time atoms
    < 1e-9 * scale."""
    return _below("alpha_atoms", jump_max, 1e-9 * scale)


def md_verdict(sup_gap: float, scale: float) -> Verdict:
    """Sup gap of the rebuilt purely discontinuous part < 1e-8 * scale."""
    return _below("md_representation", sup_gap, 1e-8 * scale)


def residual_verdict(relative_residual: float, threshold: float) -> Verdict:
    """Relative identity residual < threshold (``ito-check``)."""
    return _below("relative_residual", relative_residual, threshold)


class Report:
    """Base of the report dataclasses; ``kind=`` in the class line names one in JSON."""

    def __init_subclass__(cls, kind: str | None = None, **kw):
        super().__init_subclass__(**kw)
        if kind is not None:
            cls.kind = kind

    def to_json_dict(self, **extra) -> dict:
        """The one report serializer: schema_version, kind, every dataclass
        field and property, and ``extra``.  Arrays and tuples become lists,
        verdicts and reports dicts, and a path (CSV carries it) its sup-norm.
        An alias, a property bound under a second name, is written once."""
        props = {v: k for c in type(self).__mro__ for k, v in vars(c).items()
                 if isinstance(v, property)}
        names = [f.name for f in fields(self)] + list(props.values())
        items = {**{k: getattr(self, k) for k in names}, **extra}
        return {"schema_version": 3, "kind": self.kind,
                **{k: _json_value(v) for k, v in items.items()}}


class Decision(Report):
    """Base of the reports that decide, by their tuple of ``verdicts``: the one
    pass rule is at least one verdict, and every one passes (no verdict: nothing
    was compared, as in a one-window Cauchy study)."""

    @property
    def passed(self) -> bool:
        return bool(self.verdicts) and all(v.passed for v in self.verdicts)


def _json_value(v):
    if isinstance(v, Report):
        return v.to_json_dict()
    if isinstance(v, Verdict):
        return asdict(v)
    if isinstance(v, CadlagPath):
        return {"sup_norm": v.sup_norm()}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


# -- uniform-limit driver ----------------------------------------------------


@dataclass
class LimitReport(Decision, kind="limit_report"):
    """Convergence diagnostics of an estimator along a window schedule.

    ``passed`` is a Cauchy test along the sampled schedule only (final
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
    verdicts: tuple[Verdict, ...]

    # read-only alias of ``passed`` for the benchmark's op checks
    converged = Decision.passed

    @property
    def gaps_increasing(self) -> bool:
        """No sup gap falls along the schedule; unjudged, as no verdict reads
        it.  A gap within round-off counts as 0: the difference of two sums
        of n nonnegative terms of total at most |E| (the largest sup-norm) is
        off by at most 2 n u |E|, with u the unit round-off, half of
        ``np.finfo(float).eps``.  So estimates that converge exactly, whose
        gaps are all round-off, read as gaps of exactly 0 do, not as the
        order of their last bits."""
        roundoff = self.limit.grid.size * np.finfo(float).eps * float(np.max(self.sup_norms))
        gaps = np.where(self.sup_gaps <= roundoff, 0.0, self.sup_gaps)
        return bool(np.all(np.diff(gaps) >= 0.0))


def _windows(X: CadlagPath, partners: list[CadlagPath], schedule: EpsilonSchedule,
             kernel=_window_sums):
    """The one window driver: per window of ``schedule`` (which must fit X,
    ``_require_fit``), the ``kernel`` estimates of X against every partner,
    bit for bit ``covariation(X, P, eps)`` (``_window_sums``) or, for the one
    partner a forward study takes (ValueError for more, before any window),
    ``forward_integral(P, X, eps)`` (``_forward_sums``).  The mesh takes the
    marks of X and of every partner, so one partner always gets the mesh of
    (X, P), even one that jumps off X's marks (``ito_c1_lambda``: Y against
    X = dF_x(Y)).  With two or more, the callers check that every partner's
    marks lie within X's (the battery checks its test paths are continuous).
    The grid work (``_Study``) is done once, each window's ``_Mesh`` and X's
    side of the sums once per window, in the study's buffers: a window's
    only fresh n-sized arrays are the estimates it yields."""
    if kernel is _forward_sums and len(partners) > 1:
        raise ValueError("a forward study takes one partner, the integrand")
    _require_fit(schedule, X)
    study = _Study(X, partners)
    for e in schedule:
        against = kernel(_Mesh(study, e))
        yield [against(k) for k in range(len(partners))]
        # dropped after the window is read, so the arrays a mesh builds for
        # itself (those of inserted breakpoints) go before the next one's
        del against


# the entries of a difference of two estimates that a sup gap holds at once
_GAP_BLOCK = 8192


def _sup_gap(a: CadlagPath, b: CadlagPath, out: np.ndarray) -> float:
    """The sup-norm of b - a on the grid, taken in blocks of ``out``'s size,
    each block's difference written in ``out``."""
    gap = 0.0
    for i in range(0, b.values.size, out.size):
        bv = b.values[i:i + out.size]
        d = np.subtract(bv, a.values[i:i + out.size], out=out[:bv.size])
        gap = max(gap, float(np.max(np.abs(d, out=d))))
    return gap


def _limits(windows, schedule: EpsilonSchedule, tol: float) -> list[LimitReport]:
    """The one sup-norm Cauchy bookkeeping: a LimitReport per partner of the
    stream ``windows`` of per-window estimate lists, holding only the
    previous list and one gap buffer of at most ``_GAP_BLOCK`` entries.
    The tolerance is checked before any estimate is made."""
    _require_tol(tol)
    last, norms, gaps, gap = None, [], [], None
    for ests in windows:
        norms.append([E.sup_norm() for E in ests])
        if last is not None:
            if gap is None:
                # every gap of the call: all its estimates lie on one grid
                gap = np.empty(min(ests[0].values.size, _GAP_BLOCK))
            gaps.append([_sup_gap(a, b, gap) for a, b in zip(last, ests)])
        last = ests
    norms, gaps = np.array(norms).T, np.array(gaps).reshape(-1, len(last)).T
    return [LimitReport(tuple(schedule.epsilons), E, g, s, float(tol),
                        (cauchy_verdict(g, s, tol),))
            for E, g, s in zip(last, gaps, norms)]


def ucp_limit(estimator, X: CadlagPath, Y: CadlagPath,
              schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
              tol: float = DEFAULT_TOL) -> LimitReport:
    """Run ``estimator``, called as estimator(X, Y, eps), along the schedule
    and test sup-norm Cauchy decay.  Estimates stream through ``_limits``:
    only the previous and the current one are held."""
    _require_fit(schedule, X)
    return _limits(([estimator(X, Y, e)] for e in schedule), schedule, tol)[0]


def qv_limit(X: CadlagPath, schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
             tol: float = DEFAULT_TOL) -> LimitReport:
    """Quadratic-variation study: ``ucp_limit(covariation, X, X)``, bit for
    bit, with the grid work done once for the whole schedule."""
    return _limits(_windows(X, [X], schedule), schedule, tol)[0]
