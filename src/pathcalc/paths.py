"""Cadlag path containers with exact jump bookkeeping.

A path lives on a finite grid 0 = t_0 < ... < t_n = T, is right-continuous
with left limits, is extended to [T, inf) by its final value and before 0 by
X(0), so X(0-) = X(0).  Jumps are first class: the path jumps exactly at the
grid indices where its stored left limit differs from its value, and the
constructor derives these jump marks itself.  Nothing is ever inferred from
large increments.

Two interpolation rules are supported between grid points:

* ``pc``      piecewise constant, right continuous (counting processes),
* ``linear``  linear between a grid value and the next stored left limit,
              so interpolation never crosses a marked jump.

Paths are immutable after construction; all transformations return new
paths, so instances can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


_NOT_FINITE = "grid, values and left_values must be finite"


def _set_fields(P, grid, min_spacing: float, values, left, marks, rule: str):
    """The checks on a path's marks and rule, then its fields, each read-only.

    ``_min_spacing`` is read on every window of a study, so it is taken once,
    and it is no field, so it stays out of equality and repr.
    """
    if marks.size and marks[0] == 0:
        raise PathError("left_values[0] differs from values[0], but X(0-) = X(0)")
    if rule == PIECEWISE_CONSTANT:
        if not np.array_equal(left[1:], values[:-1]):
            raise PathError(
                "piecewise-constant left limits are determined by the previous value"
            )
    elif rule != LINEAR:
        raise PathError(f"unknown interpolation rule {rule!r}")
    for name, arr in (("grid", grid), ("values", values),
                      ("left_values", left), ("jump_marks", marks)):
        arr.setflags(write=False)
        object.__setattr__(P, name, arr)
    object.__setattr__(P, "rule", rule)
    object.__setattr__(P, "_min_spacing", min_spacing)


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


def _sample_plan(grid: np.ndarray, tc: np.ndarray, cells: np.ndarray,
                 out: np.ndarray | None = None) -> _SamplePlan:
    """Plan for times ``tc`` in [0, T] with their ``cells`` on ``grid``; the
    cells' nodes are gathered into ``out`` when given.

    A time off its node lies before the last node, so lo + 1 is a node.
    """
    # the cells are in range, so "clip" never acts; it spares the buffered
    # copy that "raise" makes with out=
    off = np.flatnonzero(np.take(grid, cells, out=out, mode="clip") != tc)
    lo = cells[off]
    frac = (tc[off] - grid[lo]) / (grid[lo + 1] - grid[lo])
    return _SamplePlan(cells, off, lo, frac)


@dataclass(frozen=True)
class CadlagPath:
    """Right-continuous path on [0, T] with stored left limits.

    ``values[i]`` is X(t_i) and ``left_values[i]`` is X(t_i-), with
    X(0-) = X(0).  ``jump_marks``, the indices where the two differ, is
    derived on construction.  A path built from a grid and values alone is
    continuous: it holds one read-only array as both values and left
    values.  Evaluation beyond the horizon returns X(T).

    The constructor validates a fresh grid: it starts at 0, is finite and
    strictly increasing.  A path derived from another one (sums, estimates,
    ground-truth pieces) is built by ``_jumping_at``, which shares that
    path's grid and its smallest spacing and checks only the new samples.
    """

    grid: np.ndarray
    values: np.ndarray
    left_values: np.ndarray | None = None
    jump_marks: np.ndarray = field(init=False)
    rule: str = LINEAR

    def __post_init__(self):
        grid = _as_farray(self.grid)
        values = _as_farray(self.values)
        left = values if self.left_values is None else _as_farray(self.left_values)
        if grid.size < 2:
            raise PathError("grid needs at least two points")
        if grid[0] != 0.0:
            raise PathError("grid must start at 0")
        if grid.size != values.size or grid.size != left.size:
            raise PathError("grid, values and left_values lengths differ")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))
                and np.all(np.isfinite(left))):
            raise PathError(_NOT_FINITE)
        spacing = np.diff(grid)
        if np.any(spacing <= 0.0):
            raise PathError("grid must be strictly increasing")
        _set_fields(self, grid, float(spacing.min()), values, left,
                    np.flatnonzero(values != left), self.rule)

    # -- basic geometry -------------------------------------------------

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    @property
    def n_points(self) -> int:
        return int(self.grid.size)

    @property
    def min_spacing(self) -> float:
        return self._min_spacing

    @property
    def jump_times(self) -> np.ndarray:
        return self.grid[self.jump_marks]

    @property
    def jump_sizes(self) -> np.ndarray:
        return self.values[self.jump_marks] - self.left_values[self.jump_marks]

    def same_grid(self, other: "CadlagPath") -> bool:
        return self.grid is other.grid or (self.grid.shape == other.grid.shape
                                           and np.array_equal(self.grid, other.grid))

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

    def _sample(self, plan: _SamplePlan, out: np.ndarray | None = None) -> np.ndarray:
        """X at the times of ``plan`` (a plan on this path's grid), written in
        ``out`` when given: the cell values, with the off-node entries
        interpolated under the linear rule."""
        # the cells are in range, so "clip" never acts; it spares the
        # buffered copy that "raise" makes with out=
        out = np.take(self.values, plan.cells, out=out, mode="clip")
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
        v, left = self.values, self.left_values[self.jump_marks]  # elsewhere the values
        # max |v| is the larger of max v and -min v, read without an |v| array
        return float(max(abs(max(v.max(), -v.min())), np.max(np.abs(left), initial=0.0)))

    # -- arithmetic (shared grid) ---------------------------------------

    def _combine(self, other, fn) -> "CadlagPath":
        if not isinstance(other, CadlagPath):
            return NotImplemented
        _require_shared_grid(self, other)
        rows = _union_marks(self, other)
        rule = LINEAR if LINEAR in (self.rule, other.rule) else PIECEWISE_CONSTANT
        return _jumping_at(self, fn(self.values, other.values), rows,
                           fn(self.left_values[rows], other.left_values[rows]), rule)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        c, m = float(scalar), self.jump_marks
        return _jumping_at(self, c * self.values, m, c * self.left_values[m], self.rule)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- serialization ----------------------------------------------------

    def to_csv(self) -> str:
        """CSV with columns t,value,left_value,is_jump (bit exact round trip)."""
        mask = np.zeros(self.grid.size, dtype=int)
        mask[self.jump_marks] = 1
        return _csv(f"# rule={self.rule}\nt,value,left_value,is_jump",
                    self.grid, self.values, self.left_values, mask)

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
        return _declared(cls(cols[:, 0], cols[:, 1], cols[:, 2], rule=rule),
                         np.flatnonzero(cols[:, 3]))

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
        """Inverse of ``to_json``; PathError for text that is not such an object."""
        try:
            d = json.loads(text)
            arrays = [np.array(d[k], dtype=float) for k in ("grid", "values", "left_values")]
            marks = np.array(d["jump_marks"], dtype=float)
        except (ValueError, TypeError, KeyError) as exc:
            raise PathError("path JSON must be an object with grid, values, "
                            f"left_values and jump_marks ({exc!r})") from None
        return _declared(cls(*arrays, rule=d.get("rule", LINEAR)), marks)


def _require_shared_grid(P: CadlagPath, *others: CadlagPath) -> None:
    """The one shared-grid rule: PathError unless ``others`` lie on P's grid."""
    for Q in others:
        if not P.same_grid(Q):
            raise PathError("paths must share a grid")


def _union_marks(*paths: CadlagPath) -> np.ndarray:
    """The sorted union of the paths' jump marks: one path's own, uncopied."""
    if all(P is paths[0] for P in paths):
        return paths[0].jump_marks
    return np.unique(np.concatenate([P.jump_marks for P in paths]))


# rows per block, each block joined into one string: on a 1e5-point path
# ``to_csv`` peaks at 11.2 MiB, against 16.5 row by row and 23.4 in one block
_CSV_BLOCK = 8192


def _csv(header: str, *columns) -> str:
    """The one CSV writer: ``header``, then a row per index of ``columns``,
    each value the repr of its Python value (a float's reads back exactly)."""
    blocks = [header + "\n"]
    for a in range(0, len(columns[0]), _CSV_BLOCK):
        rows = zip(*[np.asarray(c[a:a + _CSV_BLOCK]).tolist() for c in columns])
        blocks.append("".join([",".join(map(repr, row)) + "\n" for row in rows]))
    return "".join(blocks)


# -- constructors ----------------------------------------------------------


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """The running sum of ``a`` after a leading zero, written in one array."""
    out = np.empty(a.size + 1)
    out[0] = 0.0
    np.cumsum(a, out=out[1:])
    return out


def _samples(v, shape) -> np.ndarray:
    """An evaluator's result ``v`` (a scalar, or an array that broadcasts) as
    a float array of ``shape``; copied only when it has to broadcast."""
    a = np.asarray(v, dtype=float)
    return a if a.shape == shape else np.broadcast_to(a, shape).copy()


def _jumping_at(base: CadlagPath, values, rows=(), lefts=(), rule: str = LINEAR) -> CadlagPath:
    """The one builder of derived paths: the path on ``base``'s grid whose
    left values are its ``values`` but ``lefts`` at the sorted distinct grid
    ``rows``; without a row nothing is copied, and the path holds one array.

    The grid was validated when ``base`` was built, so the path shares it and
    its smallest spacing, and only the new samples are checked: the values
    and the lefts at the rows are finite, and the rule holds.  The jump marks
    are the rows whose left differs from the value.
    """
    values = _as_farray(values)
    rows = np.asarray(rows, dtype=np.intp)
    if values.size != base.grid.size:
        raise PathError("grid, values and left_values lengths differ")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(lefts))):
        raise PathError(_NOT_FINITE)
    left = values
    if rows.size:
        left = values.copy()
        left[rows] = lefts
    P = object.__new__(CadlagPath)
    _set_fields(P, base.grid, base.min_spacing, values, left,
                rows[values[rows] != lefts], rule)
    return P


def _declared(path: CadlagPath, marks) -> CadlagPath:
    """``path``, whose input also declared its jump indices ``marks``; a
    PathError unless they are the indices where the path jumps (compared as
    floats, so a fractional index is no index)."""
    if not np.array_equal(np.asarray(marks, dtype=float), path.jump_marks):
        raise PathError("declared jumps are not the indices where values and "
                        "left_values differ")
    return path


def make_path(grid, values, jumps=(), rule: str = LINEAR) -> CadlagPath:
    """Build a validated path from grid values and an explicit jump list.

    ``jumps`` is a sequence of (index, left_value) pairs.  Under the pc rule
    left limits are always the previous grid value, and the constructor
    rejects any other left_value; under the linear rule it is the endpoint
    of the incoming segment.  A listed jump of size zero, or a pc value
    change that is not listed, is a PathError.
    """
    grid = _as_farray(grid)
    values = _as_farray(values)
    jumps = list(jumps)
    if grid.size != values.size:
        raise PathError("grid and values lengths differ")
    left = (np.concatenate((values[:1], values[:-1])) if rule == PIECEWISE_CONSTANT
            else values.copy())
    marks = []
    for idx, left_value in jumps:
        # the range first: NaN fails it, and a huge int is never made a float
        if not 1 <= idx < grid.size:
            raise PathError(f"jump index {idx} outside (0, n]")
        if not float(idx).is_integer():
            raise PathError(f"jump index {idx} is not a whole number")
        i = int(idx)
        left[i] = float(left_value)
        marks.append(i)
    marks = sorted(set(marks))
    if len(marks) != len(jumps):
        raise PathError("duplicate jump indices")
    return _declared(CadlagPath(grid, values, left, rule=rule), marks)


def constant_path(grid, c: float = 0.0) -> CadlagPath:
    grid = _as_farray(grid)
    return CadlagPath(grid, np.full(grid.size, float(c)))


def step_path(T: float, n: int, step_time: float) -> CadlagPath:
    """Unit step from 0 to 1 at step_time, on a uniform base grid."""
    grid = uniform_grid(T, n)
    if step_time <= 0.0 or step_time >= T:
        raise PathError("step_time must lie in (0, T)")
    grid = np.union1d(grid, [step_time])
    values = np.where(grid >= step_time, 1.0, 0.0)
    return _jumping_at(constant_path(grid), values, [np.searchsorted(grid, step_time)],
                       0.0, PIECEWISE_CONSTANT)


def uniform_grid(T: float, n: int) -> np.ndarray:
    if n < 2:
        raise PathError("need at least two grid cells")
    return np.linspace(0.0, float(T), int(n) + 1)

