"""Jump measures, analytic compensators, and integrals against them.

The jump measure of a path is the finite list of atoms (s, dX_s) read off
the marked jumps.  Compensators are evaluable models rate(s) ds law(dx)
(classical Levy systems); the built-in models are quasi left continuous, so
their time-atom part is identically zero.  A user-supplied model may carry
explicit time atoms, in which case their consistency is the caller's
responsibility.

Jumps split into small (|x| <= 1) and big at the fixed JUMP_SPLIT_THRESHOLD;
size integrals against a compensator are computed to the fixed relative
tolerance SIZE_QUADRATURE_RTOL = 1e-8 by a composite G7/K15 rule that starts
from one panel per kept segment and doubles up to 512; it converges per batch
of 8192 grid cells, evaluated in row blocks of about 2**15 field values.

The fields of a function bundle F (``increment_field``,
``linear_jump_field``, ``taylor_remainder_field``) live next to
``IntegrandField``.  Set membership conditions that the theory phrases
through localization are replaced by finite path-level totals;
``integrability_report`` states exactly which surrogate was checked.  On a
finite path each total is a finite sum: its gate fires only on float overflow.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .paths import (PIECEWISE_CONSTANT, CadlagPath, PathError, _constant_on, _cumsum0,
                    _jumping_at)
from .regularize import Report

JUMP_SPLIT_THRESHOLD = 1.0
SIZE_QUADRATURE_RTOL = 1e-8
_NU_CHUNK = 8192  # grid cells per size-quadrature batch
_NU_BLOCK = 1 << 15  # field values per row block of a batch


class IntegrabilityError(ValueError):
    """Raised when a path-level integrability surrogate fails."""


class QuadratureError(ArithmeticError):
    """Raised when the size quadrature fails to reach its tolerance."""


# -- jump size laws ----------------------------------------------------------


class JumpLaw:
    """Jump-size distribution: sampler plus an evaluable density or atom."""

    atom: float | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class DiracLaw(JumpLaw):
    """Unit mass at a single jump size (Poisson counting uses size one)."""

    location: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError(f"jump law {self.describe()} needs a finite location")

    @property
    def atom(self):
        return float(self.location)

    def sample(self, rng, size):
        return np.full(size, float(self.location))

    @property
    def support(self):
        return (self.location, self.location)

    def mean(self):
        return float(self.location)

    def describe(self):
        return f"dirac({self.location:g})"


@dataclass(frozen=True)
class NormalLaw(JumpLaw):
    loc: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ValueError(f"jump law {self.describe()} needs finite parameters")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def sample(self, rng, size):
        return rng.normal(self.loc, self.scale, size)

    def density(self, x):
        z = (np.asarray(x, dtype=float) - self.loc) / self.scale
        return np.exp(-0.5 * z * z) / (self.scale * math.sqrt(2.0 * math.pi))

    @property
    def support(self):
        return (self.loc - 9.0 * self.scale, self.loc + 9.0 * self.scale)

    def mean(self):
        return float(self.loc)

    def describe(self):
        return f"normal({self.loc:g},{self.scale:g})"


@dataclass(frozen=True)
class UniformLaw(JumpLaw):
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"jump law {self.describe()} needs finite bounds")
        if self.hi <= self.lo:
            raise ValueError("need lo < hi")

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    @property
    def support(self):
        return (self.lo, self.hi)

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def describe(self):
        return f"uniform({self.lo:g},{self.hi:g})"


_LAWS = {"dirac": DiracLaw, "normal": NormalLaw, "uniform": UniformLaw}


def parse_jump_law(text: str) -> JumpLaw:
    """Parse 'dirac:c', 'normal:loc,scale' or 'uniform:lo,hi'; omitted
    trailing parameters take the law's defaults."""
    name, _, args = text.partition(":")
    law = _LAWS.get(name)
    if law is None:
        raise ValueError(f"unknown jump law {text!r}")
    try:
        vals = [float(v) for v in args.split(",")] if args else []
    except ValueError:
        raise ValueError(
            f"jump law {text!r} has a parameter that is not a number") from None
    if len(vals) > len(fields(law)):
        raise ValueError(f"jump law {text!r} has {len(vals)} parameters; "
                         f"{name} takes at most {len(fields(law))}")
    return law(*vals)


# -- compensators ------------------------------------------------------------


@dataclass(frozen=True)
class CompensatorSpec:
    """Evaluable compensator model rate(s) ds law(dx) plus optional time atoms.

    ``atoms`` is a tuple of (time, law, weight) entries adding
    weight * law(dx) at the given instants; it is empty (time-atom part
    identically zero) for every built-in model.
    """

    kind: str
    rate: float | object
    law: JumpLaw
    atoms: tuple = ()

    def __post_init__(self):
        # the one rate rule for a constant rate: finite, and positive but for
        # a user-supplied model, which may carry time atoms alone
        user = self.kind == "user_supplied"
        if not (callable(self.rate) or 0.0 < float(self.rate) < math.inf
                or user and float(self.rate) == 0.0):
            raise ValueError(f"{self.kind} rate {self.rate} must be finite and "
                             f"{'nonnegative' if user else 'positive'}")
        if not all(isinstance(t, numbers.Real) and math.isfinite(t) for t, _, _ in self.atoms):
            raise ValueError("time atom times must be finite real numbers")
        if not all(0.0 <= float(wt) < math.inf for _, _, wt in self.atoms):
            raise ValueError("time atom weights must be finite and nonnegative")
        if not all(isinstance(law, JumpLaw)
                   for law in (self.law, *(law for _, law, _ in self.atoms))):
            raise ValueError("compensator laws must be JumpLaw instances")

    @classmethod
    def poisson(cls, lam: float) -> "CompensatorSpec":
        return cls("poisson", float(lam), DiracLaw(1.0))

    @classmethod
    def compound_poisson(cls, lam: float, law: JumpLaw) -> "CompensatorSpec":
        return cls("compound_poisson", float(lam), law)

    @classmethod
    def user_supplied(cls, rate, law: JumpLaw, atoms: tuple = ()) -> "CompensatorSpec":
        return cls("user_supplied", rate, law, tuple(atoms))

    def rate_at(self, t: np.ndarray) -> np.ndarray | float:
        if callable(self.rate):
            rate = np.asarray(self.rate(t), dtype=float)
            if np.all((rate >= 0.0) & (rate < math.inf)):
                return rate
            raise ValueError("rate function values must be finite and nonnegative")
        return float(self.rate)

    def to_json_dict(self) -> dict:
        rate = "callable" if callable(self.rate) else float(self.rate)
        law = self.law.describe() if hasattr(self.law, "describe") else "custom"
        return {"kind": self.kind, "rate": rate, "law": law,
                "has_time_atoms": bool(self.atoms)}


# -- integrand fields --------------------------------------------------------


@dataclass(frozen=True)
class IntegrandField:
    """Field W(s, x) that may read the path's left limit at s.

    ``fn(t, x, x_pre)`` must broadcast over numpy arrays.  ``truncation``
    restricts to small (|x| <= 1) or big (|x| > 1) jumps, a fixed split;
    integrals against a compensator use the fixed relative tolerance 1e-8.
    """

    fn: object
    truncation: str | None = None

    def __post_init__(self):
        if self.truncation not in (None, "small", "big"):
            raise ValueError("truncation must be None, 'small' or 'big'")

    def cut(self, x: np.ndarray) -> np.ndarray:
        if self.truncation is None:
            return np.ones(np.shape(x))
        inside = np.abs(x) <= JUMP_SPLIT_THRESHOLD
        return np.where(inside if self.truncation == "small" else ~inside, 1.0, 0.0)

    def __call__(self, t, x, x_pre):
        return np.asarray(self.fn(t, x, x_pre), dtype=float) * self.cut(x)

    def with_truncation(self, truncation) -> "IntegrandField":
        return IntegrandField(self.fn, truncation)


def field_from_size(fn) -> IntegrandField:
    """Untruncated field depending on the jump size only, e.g. x or x**2."""
    return IntegrandField(lambda t, x, x_pre: fn(x))


X_FIELD = field_from_size(lambda x: x)
X_SQUARED_FIELD = field_from_size(lambda x: x * x)


def taylor_remainder_field(F, truncation=None) -> IntegrandField:
    """W(s, x) = F(s, X_{s-} + x) - F(s, X_{s-}) - x dF_x(s, X_{s-})."""
    def fn(t, x, pre):
        return F.f(t, pre + x) - F.f(t, pre) - x * F.dx(t, pre)
    return IntegrandField(fn, truncation)


def increment_field(F, truncation=None) -> IntegrandField:
    """K(s, x) = F(s, X_{s-} + x) - F(s, X_{s-})."""
    def fn(t, x, pre):
        return F.f(t, pre + x) - F.f(t, pre)
    return IntegrandField(fn, truncation)


def linear_jump_field(F, truncation=None) -> IntegrandField:
    """Y(s, x) = x dF_x(s, X_{s-})."""
    def fn(t, x, pre):
        return x * F.dx(t, pre)
    return IntegrandField(fn, truncation)


# -- integrals against mu ----------------------------------------------------


def _atom_context(X: CadlagPath):
    return X.jump_times, X.jump_sizes, X.left_values[X.jump_marks]


def atom_cumsum(grid: np.ndarray, times: np.ndarray, sizes: np.ndarray):
    """The sum of the atom sizes at times <= t for every grid t, and its left
    limits at the atoms' own rows; the atoms lie at increasing grid times."""
    cum = _cumsum0(sizes)
    return cum[np.searchsorted(times, grid, side="right")], cum[:-1]


def integrate_mu(field: IntegrandField, X: CadlagPath) -> CadlagPath:
    """Running sum over atoms up to t of W(s, dX_s), truncation applied."""
    times, sizes, pre = _atom_context(X)
    contrib = field(times, sizes, pre) if len(times) else np.zeros(0)
    if contrib.size and not np.all(np.isfinite(contrib)):
        raise IntegrabilityError("field not finite at an atom")
    values, lefts = atom_cumsum(X.grid, times, contrib)
    return _jumping_at(X, values, X.jump_marks, lefts, PIECEWISE_CONSTANT)


# -- integrals against nu ----------------------------------------------------

# Gauss-Kronrod G7/K15 on [-1, 1] (QUADPACK qk15), nodes in increasing order.
# The 7 Gauss nodes are the odd-indexed Kronrod nodes, so one evaluation on
# the 15 nodes gives both rules; G7 carries zero weight on the other 8.
_KRONROD_X = np.array([0.991455371120812639206854697526329,
                       0.949107912342758524526189684047851,
                       0.864864423359769072789712788640926,
                       0.741531185599394439863864773280788,
                       0.586087235467691130294144845693013,
                       0.405845151377397166906606412076961,
                       0.207784955007898467600689403773245,
                       0.0])
_KRONROD_W = np.array([0.022935322010529224963732008058970,
                       0.063092092629978553290700663189204,
                       0.104790010322250183839876322541518,
                       0.140653259715525918745189590510238,
                       0.169004726639267902826583426598550,
                       0.190350578064785409913256402421014,
                       0.204432940075298892414161999234649,
                       0.209482141084727828012999174891714])
_GAUSS_W = np.array([0.129484966168869693270611432679082,
                     0.279705391489276667901467771423780,
                     0.381830050505118944950369775488975,
                     0.417959183673469387755102040816327])
_K15_NODES = np.concatenate((-_KRONROD_X, _KRONROD_X[-2::-1]))
_K15_WEIGHTS = np.concatenate((_KRONROD_W, _KRONROD_W[-2::-1]))
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate((_GAUSS_W, _GAUSS_W[-2::-1]))
_KG_WEIGHTS = np.column_stack((_K15_WEIGHTS, _G7_WEIGHTS))


def _size_marginal(field: IntegrandField, law: JumpLaw, t: np.ndarray,
                   x_pre: np.ndarray) -> np.ndarray:
    """g(t) = int W(t, x) 1_trunc(x) law(dx) for every time in t."""
    if law.atom is not None:
        x0 = law.atom
        return field(t, np.full(t.shape, x0), x_pre)
    lo, hi = law.support
    # split at the truncation threshold so the cut is constant on each
    # segment; segments it zeroes are never evaluated
    cuts = [c for c in (-JUMP_SPLIT_THRESHOLD, JUMP_SPLIT_THRESHOLD) if lo < c < hi]
    edges = np.array([lo, *cuts, hi])
    kept = field.cut(0.5 * (edges[:-1] + edges[1:])) != 0.0
    a, b = edges[:-1][kept], edges[1:][kept]
    if not a.size:
        return np.zeros(t.shape)
    # relative to the L1 mass so exact cancellations still converge, with an
    # absolute floor at the field's evaluation noise
    floor = 1e-13 * (1.0 + float(np.max(np.abs(x_pre), initial=0.0)))
    # one panel per kept segment, doubled up to 512
    panels = 1
    kg, l1 = np.empty((t.size, 2)), np.empty(t.size)
    for _ in range(10):
        pe = np.linspace(a, b, panels + 1, axis=1)
        half = 0.5 * (pe[:, 1:] - pe[:, :-1]).ravel()
        mid = 0.5 * (pe[:, 1:] + pe[:, :-1]).ravel()
        x = (mid[:, None] + half[:, None] * _K15_NODES).ravel()
        weights = (half[:, None, None] * _KG_WEIGHTS).reshape(-1, 2)
        dens = law.density(x)[:, None] * weights
        # row blocks bound the field's temporaries to about _NU_BLOCK values
        rows = max(1, _NU_BLOCK // x.size)
        for r in range(0, t.size, rows):
            vals = field(t[r:r + rows, None], x[None, :], x_pre[r:r + rows, None])
            # a field that reads neither t nor x_pre returns one row for all
            end = t.size if vals.shape[0] < t[r:r + rows].size else r + rows
            kg[r:end] = vals @ dens
            l1[r:end] = np.abs(vals) @ np.abs(dens[:, 0])
            if end == t.size:
                break
        kron, gauss = kg.T
        if not np.all(np.isfinite(kron)):
            raise QuadratureError("size integral diverged")
        scale = float(np.max(l1))
        if float(np.max(np.abs(kron - gauss))) <= SIZE_QUADRATURE_RTOL * scale + floor:
            return kron
        panels *= 2
    raise QuadratureError("size quadrature did not reach the tolerance")


def integrate_nu(field: IntegrandField, nu: CompensatorSpec, X: CadlagPath) -> CadlagPath:
    """t -> int_0^t int W(s, x) nu(ds, dx), deterministic quadrature.

    Time uses left-endpoint sums on the path grid.  The size integral splits
    the density support at the truncation threshold and integrates only the
    segments the truncation keeps, with a composite Gauss-Kronrod G7/K15
    rule.  It starts from one panel per kept segment, and the panels double,
    up to 512, until over each batch of 8192 grid cells the embedded 7-point
    Gauss values agree with the 15-point Kronrod values to
    ``SIZE_QUADRATURE_RTOL`` of the batch's largest L1 mass.  The field is
    evaluated in row blocks of max(1, 2**15 // nodes) cells, each reduced at
    once to its Kronrod, Gauss and L1 sums (one block for a size-only field).
    ``X`` supplies the grid and the left-limit context for the field.
    """
    grid = X.grid
    sl = grid[:-1]
    # left limits at cell left endpoints (X(0-) = X(0))
    pre = X.left_values[:-1]
    g = np.empty(sl.size)
    for a in range(0, sl.size, _NU_CHUNK):
        b = min(a + _NU_CHUNK, sl.size)
        g[a:b] = _size_marginal(field, nu.law, sl[a:b], pre[a:b])
    rate = nu.rate_at(sl)
    values = _cumsum0(np.diff(grid) * rate * g)
    if not nu.atoms:
        return _jumping_at(X, values)
    atom_add = np.zeros(grid.size)
    rows = _atom_rows(nu, grid)
    for i, (ta, law_a, wt) in zip(rows, nu.atoms):
        ga = _size_marginal(field, law_a, np.array([ta]),
                            np.array([X.left_limit(ta)]))[0]
        atom_add[i:] += wt * ga
    rows = np.unique(rows)  # all >= 1: an atom at t = 0 fails X.left_limit above
    return _jumping_at(X, values + atom_add, rows, values[rows] + atom_add[rows - 1])


def _atom_rows(nu: CompensatorSpec, grid: np.ndarray) -> np.ndarray:
    """The grid rows of ``nu.atoms``; PathError for an atom off the grid."""
    rows = np.searchsorted(grid, [ta for ta, _, _ in nu.atoms])
    for i, (ta, _, _) in zip(rows, nu.atoms):
        if i >= grid.size or grid[i] != ta:
            raise PathError("compensator time atom must sit on the grid")
    return rows


def compensated_integral(field: IntegrandField, X: CadlagPath,
                         nu: CompensatorSpec) -> CadlagPath:
    """W * (mu - nu): integrate_mu minus integrate_nu on the path grid.

    Requires the path-level square-integrability surrogate: the running
    total of W(s, dX_s)^2 must be finite.
    """
    mu_part, nu_part = compensated_parts(field, X, nu)
    return mu_part - nu_part


def compensated_parts(field: IntegrandField, X: CadlagPath,
                      nu: CompensatorSpec) -> tuple[CadlagPath, CadlagPath]:
    """The mu and nu sides of the compensated integral, separately."""
    times, sizes, pre = _atom_context(X)
    if len(times):
        sq = field(times, sizes, pre) ** 2
        total = float(np.sum(sq))
        if not np.isfinite(total):
            raise IntegrabilityError(
                "square-summability surrogate failed: sum W(s, dX_s)^2 is not finite")
    return integrate_mu(field, X), integrate_nu(field, nu, X)


def _has_atoms(X: CadlagPath, nu: CompensatorSpec | None) -> bool:
    """Whether X carries jump atoms; a path with atoms needs a compensator
    model, and every jump term of a path without atoms is the zero path."""
    if X.jump_marks.size and nu is None:
        raise ValueError("a compensator model is required for a path with jumps")
    return bool(X.jump_marks.size)


def _if_atoms(X: CadlagPath, nu: CompensatorSpec | None, build, count: int = 1):
    """``build()``, the jump-measure or compensator integral(s) of X, when X
    carries jump atoms; otherwise the zero path on X's grid, or a tuple of
    ``count`` of them for a ``build`` that returns ``count`` paths."""
    if _has_atoms(X, nu):
        return build()
    zero = _constant_on(X)
    return zero if count == 1 else (zero,) * count


# -- diagnostics -------------------------------------------------------------


@dataclass
class IntegrabilityReport(Report, kind="integrability_report"):
    """Finite path-level totals standing in for localized integrability.

    Every total is a single-path surrogate: finiteness on one realization,
    not a proof of the corresponding membership.
    """

    squared_jump_total: float
    big_jump_abs_total: float
    big_jump_count: int
    threshold: float
    taylor_big_jump_total: float | None = None

    @property
    def square_summable(self) -> bool:
        return bool(np.isfinite(self.squared_jump_total))

    @property
    def big_jumps_summable(self) -> bool:
        return bool(np.isfinite(self.big_jump_abs_total))

    @property
    def taylor_remainder_summable(self) -> bool:
        total = self.taylor_big_jump_total
        return total is not None and bool(np.isfinite(total))


def integrability_report(X: CadlagPath, F=None) -> IntegrabilityReport:
    """Path-level jump totals, plus the big-jump Taylor total when a
    function bundle with a first space derivative is supplied."""
    times, sizes, pre = _atom_context(X)
    sq = float(np.sum(sizes ** 2))
    big = np.abs(sizes) > JUMP_SPLIT_THRESHOLD
    big_abs = float(np.sum(np.abs(sizes[big])))
    taylor = None
    if F is not None and getattr(F, "dx", None) is not None:
        rem = taylor_remainder_field(F)(times[big], sizes[big], pre[big])
        taylor = float(np.sum(np.abs(rem)))
    return IntegrabilityReport(sq, big_abs, int(np.sum(big)),
                               float(JUMP_SPLIT_THRESHOLD), taylor)
