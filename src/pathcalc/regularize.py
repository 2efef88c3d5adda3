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
place (``_Scratch``), at the first window that inserts no breakpoint the
grid's cells and the covariation's eps-free prefix sums, and at the first
window that locates points the grid's bucket index.  Once per window: the
paths' values at the shifted sample points and the bulk cells of every t;
the bulk prefix sum; and the O(n) assembly for all t, in place in one
accumulator, the one fresh array of an estimate.

One snap rule holds for every window: a shifted time, a sample point
t_i + eps or a breakpoint tau - eps, within ``_SNAP_ULPS`` ulps of T of a
grid node is that node.  A window that inserts no breakpoint and whose
shifted points all snap to the node k cells on (``_cells_on``, one O(n)
comparison) is read by index: the samples are the paths' values k nodes
on and the bulk counts max(0, i - k + 1).  On a uniform grid that is every
window of a schedule snapped to its spacing.  Every other window locates
its shifted points in the grid once, which gives the samples and, by
counting, the bulk cells, and snaps them by the same rule, so where both
apply the two give the same bits.  A window that inserts a breakpoint
inside a grid cell also builds its own cells and sums.  The location is a
bucket walk, O(n) when the grid's nodes are spread evenly, with a binary
search only for points in crowded buckets.  The estimators jump only where
their inputs do, so left limits are assembled only at the input jump rows:
elsewhere the boundary-window algebra would leave reassociation dust.
A literal O(n^2) per-t transcription on its own breakpoint set (in the
test suite) must match the kernels to floating-point reassociation
accuracy.  The three split estimators are
one window-sum kernel with different cell weights: the covariation weights
the product of the X and Y increments by the cell width w, the weighted
sum weights the squared X increment by w g, and the forward estimate
weights the X increment alone by w Y.

All kernels are pure functions; each is a study of one window.  A study
of many windows runs through one driver, ``_windows``, which yields every
window's estimates against all partners from one study, bit for bit those
of fresh kernel calls.  ``_limits`` is the one sup-norm Cauchy bookkeeping
over such a stream (``qv_limit``, the orthogonality tests) or over any
estimator's calls (``ucp_limit``); it holds only the previous window.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .paths import (CadlagPath, _cumsum0, _jumping_at, _require_shared_grid, _sample_plan,
                    _union_marks)

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

# steps of the bucket walk before the times still moving are binary-searched;
# a bucket of a uniform grid holds at most two nodes
_LOCATE_ROUNDS = 4


def _buckets(grid: np.ndarray) -> np.ndarray:
    """Bucket index of ``grid`` for ``_locate``: ends[b] counts the nodes in
    buckets 0..b, where a time t falls in bucket floor(t / T * n)."""
    # t / T <= 1 first: no overflow even for a tiny horizon
    return np.cumsum(np.bincount((grid / grid[-1] * (grid.size - 1)).astype(np.intp)))


def _locate(grid: np.ndarray, ends: np.ndarray, tc: np.ndarray,
            scratch: "_Scratch | None" = None) -> np.ndarray:
    """Cell of every time tc in [0, T], ``searchsorted(grid, tc, "right") - 1``,
    given the grid's bucket index ``ends = _buckets(grid)``.

    The bucket map is monotone in t, so every node of a later bucket than a
    time's lies after that time.  Each time starts at the last node of its
    own bucket, and all times step back together while their node lies
    after them.  The few still moving after ``_LOCATE_ROUNDS`` steps, in
    buckets crowded by clustered nodes, are binary-searched, so any grid
    stays exact and O(n log n).  The cells and the steps' gathers are
    written in ``scratch`` (a study's, or fresh buffers), which also holds
    the cells returned.
    """
    s = scratch or _Scratch(tc.size, 0)
    f, bucket, cells, mask = (b[:tc.size] for b in (s.floats, s.ints, s.cells, s.mask))
    np.divide(tc, grid[-1], out=f)
    f *= grid.size - 1
    np.copyto(bucket, f, casting="unsafe")  # truncates, as astype(np.intp)
    # every index is in range, so "clip" never acts; it spares the buffered
    # copy that "raise" makes with out=
    np.take(ends, bucket, out=cells, mode="clip")
    cells -= 1
    np.take(grid, cells, out=f, mode="clip")
    moving = np.flatnonzero(np.greater(f, tc, out=mask))
    for _ in range(_LOCATE_ROUNDS):
        if not moving.size:
            return cells
        c = cells[moving] - 1
        cells[moving] = c
        moving = moving[grid[c] > tc[moving]]
    cells[moving] = np.searchsorted(grid, tc[moving], side="right") - 1
    return cells


class _Scratch:
    """Window-sized buffers that every window of one study writes in turn.

    One block of rows of ``words`` entries each, the most a window needs:
    the grid's points, one inserted breakpoint per jump row of the study,
    and one count past the horizon.  Taken in one allocation, the block is
    freed in one, which keeps its pages in the process for the next study
    instead of handing n-sized arrays back to the OS window by window.

    A window first builds its mesh: ``u`` and ``uc`` hold the shifted
    points and their copy clipped at T, ``cells`` their cells, ``floats``,
    ``ints`` and ``mask`` the gathers and tests of the location, and
    ``shifted[k]`` the k-th of ``partners`` sample sets at u.  The bulk
    cells at every grid time are counted into ``counts``, over the dead
    ``ints`` and ``mask``.  A window read by index writes only ``u``, the
    sample sets and the counts, after its lattice test in ``floats``.  The
    assembly reads u only to search the left limits' bulk, and the samples
    and counts throughout; it writes the bulk prefix sum ``bulk`` and its
    temporaries ``r``, ``q`` and ``s`` over the rows of ``uc``, ``floats``,
    ``cells`` and ``u``.  No estimate a window returns lies in the block.
    """

    def __init__(self, words: int, partners: int):
        rows = np.empty((5 + partners, words))
        self.u = self.s = rows[0]
        self.ints = self.counts = rows[1].view(np.intp)
        self.mask = rows[1].view(bool)[:words]
        self.uc = self.bulk = rows[2]
        self.floats = self.r = rows[3]
        self.cells, self.q = rows[4].view(np.intp), rows[4]
        self.shifted = list(rows[5:])


class _Study:
    """The per-study part of the sample mesh: the work on X's grid that no
    window width changes, done once for X against its ``partners``.

    A study lives for one call: a limit study, or the one window of a
    standalone kernel.  Its jump rows ``jidx`` and times ``taus`` are those
    of X and every partner.  ``tol`` is the snap rule's distance,
    ``_SNAP_ULPS`` ulps of T, or 0 (nothing snaps) on a grid whose nodes
    lie 2 tol apart or closer, where a time could snap to either of two.
    ``ends`` is the grid's bucket index, shared by every located window's
    ``_locate`` (which always searches the plain grid).  A window that
    inserts no breakpoint has the plain grid's cells, starts ``sl`` and
    widths ``w``, and the covariation's eps-free prefix sums ``sums``.  The
    bucket index, the widths and the sums are built at the first window
    that reads them, so a study whose windows are all read by index builds
    no bucket index, and one whose windows all insert breakpoints neither
    widths nor sums.  On the plain grid the cell-start samples of X and the
    partners are their values, read in place.

    The study owns its windows' buffers, ``scratch`` (``_Scratch``): the
    shifted points and their clipped copy, the cells, the bin counts, the
    samples at the shifted points, the bulk prefix sum and the assembly's
    temporaries, sized to the grid plus the most breakpoints a window
    inserts.  Every window writes them in place, so a covariation window
    read by index allocates no n-sized array but the estimates it returns,
    and a located one on the plain grid also the off-node entries of its
    snap and its sample plan.  A mesh that inserts breakpoints also builds its cells and
    samples, and the forward and weighted kernels their cell weights and
    sums.  Nothing outlives the call.
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
        self.scratch = _Scratch(X.grid.size + self.jidx.size + 1, 1 + others)

    @cached_property
    def w(self) -> np.ndarray:
        return np.diff(self.grid)

    @cached_property
    def ends(self) -> np.ndarray:
        return _buckets(self.grid)

    @cached_property
    def sums(self) -> "_Sums":
        return _Sums(self.w, self.X, self.X.values[:-1],
                     [(P, P.values[:-1]) for P in self.partners])


def _cells_on(study: _Study, u: np.ndarray, eps: float, on_grid: np.ndarray,
              taus: np.ndarray) -> int | None:
    """The k for which a plain window's shifted points ``u`` (t_i + eps)
    up to the horizon all snap to t_{i+k}, and the jumps ``taus`` whose
    tau - eps snapped to the nodes ``on_grid`` lie k cells after them; None
    when there is no such k.  One O(n) comparison."""
    grid, tol = study.grid, study.tol
    k = int(np.searchsorted(grid, eps - tol))
    m = grid.size - k
    d = np.subtract(u[:m], grid[k:], out=study.scratch.floats[:m])
    if d.max() > tol or -d.min() > tol or np.any(on_grid >= m):
        return None
    return k if np.array_equal(grid[on_grid + k], taus) else None


def _snap(grid: np.ndarray, tc: np.ndarray, cells: np.ndarray, tol: float,
          out: np.ndarray) -> None:
    """The snap rule on times ``tc`` in [0, T] located at ``cells``: a time
    within ``tol`` of its cell's node, or else of the next node, is that
    node, written over in ``tc`` and its cell in ``cells``.  The cells'
    nodes are gathered into ``out``.  A time off its node lies before the
    last node, so its cell + 1 is a node."""
    # the cells are in range, so "clip" never acts; it spares the buffered
    # copy that "raise" makes with out=
    off = np.flatnonzero(np.take(grid, cells, out=out, mode="clip") != tc)
    lo = cells[off]
    t, left, right = tc[off], grid[lo], grid[lo + 1]
    down = t - left <= tol
    up = ~down & (right - t <= tol)
    cells[off[up]] += 1
    tc[off[down]], tc[off[up]] = left[down], right[up]


class _Mesh:
    """The per-window part of the sample mesh: all that depends on eps.

    ``sl`` are the cell left endpoints (grid plus shifted jump breakpoints),
    ``w`` the cell widths, ``u`` the shifted sample points, and ``rows``
    and ``jump_rows`` the mesh rows of the grid times and of the study's
    jump rows.  A window where some tau - eps falls strictly inside a grid
    cell inserts it as a breakpoint and builds its own cells.  Any other
    window (every window of a jump-free study, and windows whose tau - eps
    fall on nodes or outside (0, T)) is ``plain``: it takes the study's
    cells, whose rows are the grid's.  For a cell whose left endpoint is a
    shifted breakpoint tau - eps, inserted or on a node, ``u`` is pinned to
    tau exactly so the lookup lands on the post-jump value.

    The snap rule: a breakpoint tau - eps or a shifted point u within the
    study's ``tol`` of a grid node is that node, so a breakpoint an ulp off
    a node is on it (the window stays plain), and a u an ulp off a node
    reads the node's value.  ``samples[k]`` is the k-th partner's pair of
    samples at the cell starts and at u, and (Xs, Xu) is X's; ``jr[i]`` is
    the number of bulk cells (u <= t_i) at grid time t_i.  A plain window
    whose every u up to T snaps to the node k cells after its cell start
    (``_cells_on``) is read by index (``_on_lattice``; ``k`` is that
    count, None on any other window): its samples are slices of the paths'
    values and ``jr[i]`` is max(0, i - k + 1).  Any other window is
    located (``_located``): ``u`` is located in the grid once, by
    ``_locate``, and snapped (``_snap``), and that gives one sample plan:
    the cell of every u, and the cell and fraction of each u that falls
    strictly inside its cell.  X and every partner of the study
    are sampled from that plan (they lie on one grid): a path gathers its
    values at the cells, and under the linear rule interpolates only the
    off-node entries.  The plan is dropped once the paths are sampled.
    Counting each u at the first node at or after it gives ``jr``.  At the
    inserted breakpoints every path's cell-start sample is its
    ``value_at``.  The width obeys ``_require_fit``.

    ``u``, ``jr``, the samples at u and the location's work lie in the
    study's scratch, written in place, so they hold this window's values
    only until its estimates are assembled.  Of the mesh, a window read by
    index allocates nothing n-sized, a located plain window only the
    off-node entries of its snap and its sample plan, and one that inserts
    breakpoints also its own cells, their widths and rows, and its
    cell-start samples.
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
        on_grid = np.zeros(0, dtype=np.intp)
        on_grid_tau = np.zeros(0)
        if shifted.size:
            # the snap rule: tau - eps within tol of a node is that node, the
            # node before it first (shifted < T, so ins is a node)
            ins = np.searchsorted(grid, shifted)
            below = (ins > 0) & (shifted - grid[ins - 1] <= tol)
            hit = below | (grid[ins] - shifted <= tol)
            on_grid, on_grid_tau = (ins - below)[hit], taus[hit]
            taus, shifted, ins = taus[~hit], shifted[~hit], ins[~hit]
        self.plain = not shifted.size
        buf = study.scratch
        u = buf.u[:grid.size - 1 + shifted.size]
        k = None
        if self.plain:
            sl, w, rows = study.sl, study.w, slice(None)
            np.add(sl, eps, out=u)
            k = _cells_on(study, u, eps, on_grid, on_grid_tau)
            if k is None and on_grid.size:
                u[on_grid] = on_grid_tau
                np.maximum.accumulate(u, out=u)
            ins_cells = np.zeros(0, dtype=np.intp)
        else:
            S = np.insert(grid, ins, shifted)
            pos = np.arange(grid.size) + np.searchsorted(shifted, grid, side="left")
            ins_cells = ins + np.arange(shifted.size)
            sl, w, rows = S[:-1], np.diff(S), pos
            np.add(sl, eps, out=u)
            u[ins_cells] = taus
            if on_grid.size:
                u[pos[on_grid]] = on_grid_tau
            np.maximum.accumulate(u, out=u)
        self.study = study
        self.eps = eps
        self.grid = grid
        self.sl = sl
        self.w = w
        self.u = u
        self.rows = rows
        self.jump_rows = study.jidx if self.plain else rows[study.jidx]
        self.ins_cells = ins_cells
        self.shifted = shifted
        self.X = X
        self.k = k
        if k is None:
            self._located(study, u)
        else:
            self._on_lattice(study, u, k)

    def _on_lattice(self, study: _Study, u: np.ndarray, k: int) -> None:
        """The shifted points of a window that moves every node k cells on:
        u is ``grid[k:]``, followed by the points past T, so every path's
        samples at u are its values from node k on, then X(T), and t_i has
        max(0, i - k + 1) bulk cells."""
        grid, buf = study.grid, study.scratch
        m = grid.size - k
        u[:m] = grid[k:]

        def samples(P, out):
            out = out[:u.size]
            out[:m] = P.values[k:]
            out[m:] = P.values[-1]
            return P.values[:-1], out

        outs = iter(buf.shifted)
        self.Xs, self.Xu = samples(self.X, next(outs))
        self.samples = [(self.Xs, self.Xu) if P is self.X else samples(P, next(outs))
                        for P in study.partners]
        # one u at each node from k on, counted as a located window counts
        jr = buf.counts[:grid.size]
        jr[:k] = 0
        jr[k:] = 1
        self.jr = np.cumsum(jr, out=jr)

    def _located(self, study: _Study, u: np.ndarray) -> None:
        """The shifted points of any other window, located in the grid once,
        which gives one sample plan: the cell of every u, and the cell and
        fraction of each u off its cell's node.  The snap rule moves a u
        within tol of a node onto it first."""
        grid, buf, tol, T = study.grid, study.scratch, study.tol, self.X.horizon
        # u is sorted, and past T it holds only nodes + eps (every pin is a
        # jump time), more than 2 tol apart: at most the first is within tol
        past = int(np.searchsorted(u, T, side="right"))
        if past < u.size and u[past] - T <= tol:
            u[past] = T
        uc = np.minimum(u, T, out=buf.uc[:u.size])
        cells = _locate(grid, study.ends, uc, buf)
        if tol:
            _snap(grid, uc, cells, tol, buf.floats[:u.size])
            # the snap moved points up to T only, where u is uc
            u[:past] = uc[:past]
        # the one location: all paths lie on one grid, so one plan serves all
        plan = _sample_plan(grid, uc, cells, buf.floats[:u.size])
        # X's samples at u take the first row, each other partner's the next
        outs = iter(buf.shifted)
        X = self.X
        self.Xs, self.Xu = self._samples(X, plan, next(outs))
        self.samples = [(self.Xs, self.Xu) if P is X else self._samples(P, plan, next(outs))
                        for P in study.partners]
        del plan, uc
        # bulk cells at t_i are those with u <= t_i: count each u at the first
        # node at or after it (past the horizon, at grid.size)
        on_node = np.equal(np.take(grid, cells, out=buf.floats[:u.size], mode="clip"), u,
                           out=buf.mask[:u.size])
        cells += 1
        cells -= on_node
        jr = buf.counts
        jr.fill(0)
        np.add.at(jr, cells, 1)
        self.jr = np.cumsum(jr, out=jr)[:grid.size]

    def _at_cell_starts(self, nodes: np.ndarray, at_inserted) -> np.ndarray:
        """A path's ``nodes`` (values or left values) at the cell starts, with
        the matching evaluator ``at_inserted`` at the inserted breakpoints."""
        if self.plain:
            return nodes[:-1]
        out = np.empty(self.sl.size)
        out[self.rows[:-1]] = nodes[:-1]
        out[self.ins_cells] = at_inserted(self.shifted)
        return out

    def _samples(self, P: CadlagPath, plan, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P at the cell left endpoints and at the shifted points u, the
        latter written in ``out``, given the plan of u capped at T; P jumps
        only where the study's paths do."""
        return (self._at_cell_starts(P.values, P.value_at),
                P._sample(plan, out[:plan.cells.size]))

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


def _at_counts(S: np.ndarray, j: np.ndarray, k: int | None, out: np.ndarray) -> np.ndarray:
    """``S[j]`` written in ``out``, for bulk counts ``j``.  On a window read
    by index, ``k`` cells wide, j[i] is max(0, i - k + 1): that is a run of
    S[0] and a slice of S, copied rather than gathered."""
    if k is None:
        # j counts cells, so it is in range and "clip" never acts; it
        # spares the buffered copy that "raise" makes with out=
        return np.take(S, j, out=out, mode="clip")
    out[:k] = S[0]
    out[k:] = S[1:out.size - k + 1]
    return out


def _window_sums(m: _Mesh, omega: np.ndarray | None = None, unit: bool = False):
    """Window sums of omega-weighted increment products on the mesh of X.

    Returns a function of k that gives, for the study's k-th partner Y, as
    a path over t, (1/eps) sum over cells s of omega(s) (X(u(s) ^ t) - X(s))
    (Y(u(s) ^ t) - Y(s)) for every grid time t, or, with ``unit``, of
    omega(s) (X(u(s) ^ t) - X(s)) alone.  ``omega`` None is the cell width,
    the covariation's weight.  X's side is computed once, so one mesh
    serves every partner.  Cells with u(s) <= t (the bulk) are one prefix
    sum per partner, the only sum that depends on eps; the boundary cells
    after t - eps expand into the prefix sums of ``_Sums``, which on a
    plain mesh of the covariation are the study's, read at the bulk counts
    by ``_at_counts``.  The bulk prefix sum and the assembly's temporaries
    are the study's scratch; each estimate is assembled in place in one
    accumulator, a fresh array that the window returns.
    """
    study = m.study
    X = m.X
    buf = study.scratch
    if omega is None and m.plain:
        sums = study.sums
    else:
        factors = () if unit else [(P, Ps) for P, (Ps, _)
                                   in zip(study.partners, m.samples)]
        sums = _Sums(m.w if omega is None else omega, X, m.Xs, factors)
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

        def assemble(acc, p, j, k, Am, Bm):
            # bulk[j] is in acc; with r. = S.[p] - S.[j] this is
            # (bulk[j] + (Am Bm rw + rab) - (Am rb + Bm ra)) / eps, or with
            # ``unit`` (bulk[j] + Am rw - ra) / eps
            r, q, s = buf.r[:j.size], buf.q[:j.size], buf.s[:j.size]

            def span(S):
                # p holds mesh rows, so it is in range and "clip" never
                # acts; it spares the buffered copy that "raise" makes with out=
                Sp = S[p] if isinstance(p, slice) else np.take(S, p, out=s, mode="clip")
                return np.subtract(Sp, _at_counts(S, j, k, r), out=r)

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
        lefts = assemble(bulk[jl], m.jump_rows, jl, None, Al, Bl)
        vals = assemble(_at_counts(bulk, m.jr, m.k, np.empty(m.jr.size)), m.rows, m.jr, m.k,
                        Am, None if unit else Bm)
        return _jumping_at(X, vals, jidx, lefts)

    return against


def covariation(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """[X, Y] window estimate as a path over t, O(n) for all grid times."""
    return _window_sums(_Mesh(_Study(X, [Y]), eps))(0)


def _forward_sums(m: _Mesh):
    """``_window_sums`` of the forward estimate: the X increment weighted by
    the cell width times the study's first partner, the integrand Y."""
    return _window_sums(m, m.w * m.samples[0][0], unit=True)


def forward_integral(Y: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Window estimate of int Y d-X as a path over t, O(n) for all t."""
    return _forward_sums(_Mesh(_Study(X, [Y]), eps))(0)


def weighted_qv(g: CadlagPath, X: CadlagPath, eps: float) -> CadlagPath:
    """Weighted squared-increment estimate int g(s)(X((s+eps)^t)-X(s))^2/eps ds.

    ``g`` carries caglad weights: it is sampled through its left limits, so
    with g identically one this is exactly ``covariation(X, X, eps)``.
    """
    m = _Mesh(_Study(X, [X]), eps)
    return _window_sums(m, m.w * m.weight_samples(g))(0)


def covariation_continuous(X: CadlagPath, Y: CadlagPath, eps: float) -> CadlagPath:
    """Untruncated window estimate C(eps): X(s + eps) without the ^ t cap,
    using the extension of the paths past the horizon by continuity.  The
    result is continuous in t."""
    m = _Mesh(_Study(X, [Y]), eps)
    Ys, Yu = m.samples[0]
    bulk = _cumsum0(m.w * (m.Xu - m.Xs) * (Yu - Ys))
    vals = bulk[m.rows] / m.eps
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
    edges = np.union1d(grid[grid < eps], [eps])
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
    bit for bit ``covariation(X, P, eps)`` (``_window_sums``) or
    ``forward_integral(P, X, eps)`` (``_forward_sums``).  The mesh takes the
    marks of X and of every partner, so one partner always gets the mesh of
    (X, P), even one that jumps off X's marks (``ito_c1_lambda``: Y against
    X = dF_x(Y)).  With two or more, the callers check that every partner's
    marks lie within X's (the battery checks its test paths are continuous).
    The grid work (``_Study``) is done once, each window's ``_Mesh`` and X's
    side of the sums once per window, in the study's buffers: a window's
    only fresh n-sized arrays are the estimates it yields."""
    _require_fit(schedule, X)
    study = _Study(X, partners)
    for e in schedule:
        against = kernel(_Mesh(study, e))
        yield [against(k) for k in range(len(partners))]
        # dropped after the window is read, so the arrays a mesh builds for
        # itself (those of inserted breakpoints) go before the next one's
        del against


def _sup_gap(a: CadlagPath, b: CadlagPath, out: np.ndarray) -> float:
    """The sup-norm of b - a on the grid, the difference written in ``out``."""
    d = np.subtract(b.values, a.values, out=out)
    return float(np.max(np.abs(d, out=d)))


def _limits(windows, schedule: EpsilonSchedule, tol: float) -> list[LimitReport]:
    """The one sup-norm Cauchy bookkeeping: a LimitReport per partner of the
    stream ``windows`` of per-window estimate lists, holding only the
    previous list and one gap buffer.  The tolerance is checked before any
    estimate is made."""
    _require_tol(tol)
    last, norms, gaps, gap = None, [], [], None
    for ests in windows:
        norms.append([E.sup_norm() for E in ests])
        if last is not None:
            if gap is None:
                # every gap of the call: all its estimates lie on one grid
                gap = np.empty(ests[0].values.size)
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
