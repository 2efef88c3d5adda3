"""Cadlag path containers with exact jump bookkeeping.

A path lives on a finite grid 0 = t_0 < ... < t_n = T, is right-continuous
with left limits, and is extended to [T, inf) by its final value.  Jumps are
first class: every discontinuity is a marked grid index whose left limit is
stored exactly.  Nothing is ever inferred from large increments.

Two interpolation rules are supported between grid points:

* ``pc``      piecewise constant, right continuous (counting processes),
* ``linear``  linear between a grid value and the next stored left limit,
              so interpolation never crosses a marked jump.

Paths are immutable after construction; all transformations return new
paths, so instances can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

PIECEWISE_CONSTANT = "pc"
LINEAR = "linear"


class PathError(ValueError):
    """Raised when path construction data violates an invariant."""


def _as_farray(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise PathError("expected a one dimensional array")
    return a


class _SamplePlan(NamedTuple):
    """The grid-only part of sampling paths on one grid at times in [0, T].

    The k-th time lies in cell c = cells[k], the interval [grid[c],
    grid[c + 1]].  A time on the cell's left node reads that node's value;
    ``off`` lists the other times, and for them ``lo`` is the cell and
    ``frac`` the time's fraction of its width.  Every path on the grid is
    sampled from one plan through ``CadlagPath._sample``.
    """

    cells: np.ndarray
    off: np.ndarray
    lo: np.ndarray
    frac: np.ndarray


def _sample_plan(grid: np.ndarray, tc: np.ndarray, cells: np.ndarray) -> _SamplePlan:
    """Plan for times ``tc`` in [0, T] with their ``cells`` on ``grid``.

    A time off its node lies before the last node, so lo + 1 is a node.
    """
    off = np.flatnonzero(grid[cells] != tc)
    lo = cells[off]
    frac = (tc[off] - grid[lo]) / (grid[lo + 1] - grid[lo])
    return _SamplePlan(cells, off, lo, frac)


@dataclass(frozen=True)
class CadlagPath:
    """Right-continuous path on [0, T] with stored left limits.

    ``values[i]`` is X(t_i) and ``left_values[i]`` is X(t_i-).  The two may
    differ only at indices listed in ``jump_marks``.  Evaluation beyond the
    horizon returns X(T).
    """

    grid: np.ndarray
    values: np.ndarray
    left_values: np.ndarray
    jump_marks: np.ndarray
    rule: str = LINEAR

    def __post_init__(self):
        grid = _as_farray(self.grid)
        values = _as_farray(self.values)
        left = _as_farray(self.left_values)
        marks = np.asarray(self.jump_marks, dtype=np.intp)
        if grid.size < 2:
            raise PathError("grid needs at least two points")
        if grid[0] != 0.0:
            raise PathError("grid must start at 0")
        if grid.size != values.size or grid.size != left.size:
            raise PathError("grid, values and left_values lengths differ")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))
                and np.all(np.isfinite(left))):
            raise PathError("grid, values and left_values must be finite")
        if np.any(np.diff(grid) <= 0.0):
            raise PathError("grid must be strictly increasing")
        if marks.size:
            if marks[0] < 1 or marks[-1] >= grid.size or np.any(np.diff(marks) <= 0):
                raise PathError("jump marks must be sorted, unique indices in [1, n]")
        mask = np.zeros(grid.size, dtype=bool)
        mask[marks] = True
        jumps = values - left
        if np.any(jumps[marks] == 0.0):
            raise PathError("marked jump with zero size")
        if np.any(jumps[~mask] != 0.0):
            raise PathError("left_values differ from values at an unmarked index")
        if self.rule == PIECEWISE_CONSTANT:
            if not np.array_equal(left[1:], values[:-1]):
                raise PathError(
                    "piecewise-constant left limits are determined by the previous value"
                )
        elif self.rule != LINEAR:
            raise PathError(f"unknown interpolation rule {self.rule!r}")
        for name, arr in (("grid", grid), ("values", values),
                          ("left_values", left), ("jump_marks", marks)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- basic geometry -------------------------------------------------

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def n_points(self) -> int:
        return int(self.grid.size)

    @property
    def min_spacing(self) -> float:
        return float(np.min(np.diff(self.grid)))

    @property
    def jump_times(self) -> np.ndarray:
        return self.grid[self.jump_marks]

    @property
    def jump_sizes(self) -> np.ndarray:
        return self.values[self.jump_marks] - self.left_values[self.jump_marks]

    def same_grid(self, other: "CadlagPath") -> bool:
        return self.grid.shape == other.grid.shape and np.array_equal(self.grid, other.grid)

    # -- evaluation ------------------------------------------------------

    def value_at(self, t):
        """X(t) under the interpolation rule; X(T) for t > T.  Total on t >= 0."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tq = np.atleast_1d(t_arr)
        if not np.all(tq >= 0.0):
            raise PathError("value_at needs t >= 0, not NaN")
        tc = np.minimum(tq, self.horizon)
        cells = np.searchsorted(self.grid, tc, side="right") - 1
        out = self._sample(_sample_plan(self.grid, tc, cells))
        return float(out[0]) if scalar else out

    def _sample(self, plan: _SamplePlan) -> np.ndarray:
        """X at the times of ``plan`` (a plan on this path's grid): the cell
        values, with the off-node entries interpolated under the linear rule."""
        out = self.values[plan.cells]
        if self.rule == LINEAR:
            v = self.values[plan.lo]
            out[plan.off] = v + plan.frac * (self.left_values[plan.lo + 1] - v)
        return out

    def left_limit(self, t):
        """X(t-); at marked jumps the stored left value.  Defined for t > 0."""
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tq = np.atleast_1d(t_arr)
        if not np.all(tq > 0.0):
            raise PathError("left limit needs t > 0, not NaN")
        tc = np.minimum(tq, self.horizon)
        # 0 < tc <= T puts idx in [1, n - 1], and grid[idx - 1] < tc, so every
        # time is off its cell's node; a node hit reads the stored left value
        idx = np.searchsorted(self.grid, tc, side="left")
        out = self._sample(_sample_plan(self.grid, tc, idx - 1))
        hit = self.grid[idx] == tc
        out[hit] = self.left_values[idx[hit]]
        out[tq > self.horizon] = self.values[-1]
        return float(out[0]) if scalar else out

    def jumps(self) -> list[tuple[float, float]]:
        """Marked jumps as (time, size) pairs, sorted by time."""
        return list(zip(self.jump_times.tolist(), self.jump_sizes.tolist()))

    def sum_squared_jumps(self) -> float:
        return float(np.sum(self.jump_sizes ** 2))

    def sup_norm(self) -> float:
        return float(max(np.max(np.abs(self.values)), np.max(np.abs(self.left_values))))

    # -- arithmetic (shared grid) ---------------------------------------

    def _combine(self, other, fn) -> "CadlagPath":
        if not self.same_grid(other):
            raise PathError("paths must share a grid")
        values = fn(self.values, other.values)
        left = fn(self.left_values, other.left_values)
        rule = LINEAR if LINEAR in (self.rule, other.rule) else PIECEWISE_CONSTANT
        return from_arrays(self.grid, values, left, rule=rule)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        c = float(scalar)
        return from_arrays(self.grid, c * self.values, c * self.left_values, rule=self.rule)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """CSV with columns t,value,left_value,is_jump (bit exact round trip)."""
        mask = np.zeros(self.grid.size, dtype=int)
        mask[self.jump_marks] = 1
        buf = io.StringIO()
        buf.write(f"# rule={self.rule}\n")
        buf.write("t,value,left_value,is_jump\n")
        for t, v, l, j in zip(self.grid, self.values, self.left_values, mask):
            buf.write(f"{float(t)!r},{float(v)!r},{float(l)!r},{int(j)}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CadlagPath":
        """Inverse of ``to_csv``; the rule comes from the ``# rule=`` header,
        and is linear when there is none."""
        rule = LINEAR
        lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if lines and lines[0][1].startswith("#"):
            header = lines.pop(0)[1]
            if "rule=" in header:
                rule = header.split("rule=", 1)[1].strip() or LINEAR
        if lines and lines[0][1].startswith("t,"):
            lines.pop(0)
        rows = []
        for no, ln in lines:
            try:
                t, v, lv, j = ln.split(",")
                rows.append((float(t), float(v), float(lv), int(j)))
            except ValueError:
                raise PathError(f"CSV line {no}: expected t,value,left_value,is_jump, "
                                f"got {ln!r}") from None
        cols = np.array(rows, dtype=float).reshape(-1, 4)
        return cls(cols[:, 0], cols[:, 1], cols[:, 2], np.nonzero(cols[:, 3])[0],
                   rule=rule)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "rule": self.rule,
            "grid": self.grid.tolist(),
            "values": self.values.tolist(),
            "left_values": self.left_values.tolist(),
            "jump_marks": self.jump_marks.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CadlagPath":
        d = json.loads(text)
        return cls(np.array(d["grid"]), np.array(d["values"]),
                   np.array(d["left_values"]), np.array(d["jump_marks"], dtype=np.intp),
                   rule=d.get("rule", LINEAR))


# -- constructors ----------------------------------------------------------


def make_path(grid, values, jumps=(), rule: str = LINEAR) -> CadlagPath:
    """Build a validated path from grid values and an explicit jump list.

    ``jumps`` is a sequence of (index, left_value) pairs.  Under the pc rule
    left limits are always the previous grid value, so a supplied left_value
    must agree with it; under the linear rule the left_value is the endpoint
    of the incoming segment.
    """
    grid = _as_farray(grid)
    values = _as_farray(values)
    jumps = list(jumps)
    if grid.size != values.size:
        raise PathError("grid and values lengths differ")
    if rule == PIECEWISE_CONSTANT:
        left = np.empty_like(values)
        left[0] = values[0]
        left[1:] = values[:-1]
    else:
        left = values.copy()
    marks = []
    for idx, left_value in jumps:
        i = int(idx)
        if i < 1 or i >= grid.size:
            raise PathError(f"jump index {i} outside (0, n]")
        if rule == PIECEWISE_CONSTANT and float(left_value) != values[i - 1]:
            raise PathError("pc jump left_value must equal the previous grid value")
        left[i] = float(left_value)
        marks.append(i)
    marks = np.array(sorted(set(marks)), dtype=np.intp)
    if len(marks) != len(jumps):
        raise PathError("duplicate jump indices")
    return CadlagPath(grid, values, left, marks, rule=rule)


def from_arrays(grid, values, left_values, rule: str = LINEAR) -> CadlagPath:
    """Path from raw arrays; jump marks are the indices where values != left."""
    values = _as_farray(values)
    left = _as_farray(left_values)
    marks = np.nonzero(values != left)[0]
    marks = marks[marks >= 1]
    left = left.copy()
    left[0] = values[0]
    return CadlagPath(np.asarray(grid, dtype=float), values, left, marks, rule=rule)


def constant_path(grid, c: float = 0.0) -> CadlagPath:
    grid = _as_farray(grid)
    v = np.full(grid.size, float(c))
    return CadlagPath(grid, v, v.copy(), np.array([], dtype=np.intp))


def step_path(T: float, n: int, step_time: float) -> CadlagPath:
    """Unit step from 0 to 1 at step_time, on a uniform base grid."""
    grid = np.linspace(0.0, T, n + 1)
    if step_time <= 0.0 or step_time >= T:
        raise PathError("step_time must lie in (0, T)")
    grid = np.union1d(grid, [step_time])
    values = np.where(grid >= step_time, 1.0, 0.0)
    left = np.where(grid > step_time, 1.0, 0.0)
    return from_arrays(grid, values, left, rule=PIECEWISE_CONSTANT)


def uniform_grid(T: float, n: int) -> np.ndarray:
    if n < 2:
        raise PathError("need at least two grid cells")
    return np.linspace(0.0, float(T), int(n) + 1)

